//! End-to-end tests for the gates: each fixture under
//! `tests/fixtures/` seeds one violation per rule, and the live
//! workspace must come out clean (the gate gates itself).

use std::path::{Path, PathBuf};
use std::process::Command;

use vqoe_analyze::{
    bounded, clock, clones, constants, determinism, floatord, hygiene, locks, panics, run_all,
    staleallow, Finding,
};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rules(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

#[test]
fn determinism_fixture_trips_every_rule_once() {
    let findings = determinism::check(&fixture("determinism"));
    let rules = rules(&findings);
    assert_eq!(rules.iter().filter(|r| **r == "thread-rng").count(), 1);
    // Two wall-clock sites are seeded but one carries analyze:allow.
    assert_eq!(rules.iter().filter(|r| **r == "wall-clock").count(), 1);
    // One HashMap walk in the simnet fixture, one in the engine-reducer
    // fixture; its BTreeMap and keyed-access paths stay silent.
    assert_eq!(rules.iter().filter(|r| **r == "hashmap-iter").count(), 2);
    assert_eq!(findings.len(), 4, "{findings:?}");
    for f in &findings {
        assert!(
            f.file.ends_with("crates/simnet/src/lib.rs")
                || f.file.ends_with("crates/core/src/engine.rs"),
            "{f:?}"
        );
        assert!(f.line > 0);
    }
    let engine: Vec<_> = findings
        .iter()
        .filter(|f| f.file.ends_with("crates/core/src/engine.rs"))
        .collect();
    assert_eq!(engine.len(), 1, "{engine:?}");
    assert_eq!(engine[0].rule, "hashmap-iter");
    assert!(engine[0].message.contains("per_shard"));
}

#[test]
fn panics_fixture_trips_every_rule_and_spares_tests() {
    let findings = panics::check(&fixture("panics"));
    assert_eq!(
        rules(&findings),
        vec!["unwrap", "expect", "panic"],
        "{findings:?}"
    );
    // The partial_cmp special case carries the total_cmp hint.
    assert!(findings[0].message.contains("total_cmp"));
    // The unwrap inside #[cfg(test)] did not fire (it would be a 4th finding).
}

#[test]
fn constants_fixture_reports_the_seeded_mismatch() {
    let findings = constants::check(&fixture("constants"));
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "const-mismatch");
    assert_eq!(findings[0].file, "DESIGN.md");
    assert!(findings[0].message.contains("71"));
    assert!(findings[0].message.contains("70"));
}

#[test]
fn hygiene_fixture_reports_manifest_and_lib_violations() {
    let findings = hygiene::check(&fixture("hygiene"));
    let rules = rules(&findings);
    assert!(rules.contains(&"workspace-lints"));
    assert!(rules.contains(&"lib-doc"));
    assert!(rules.contains(&"missing-docs-attr"));
    assert!(rules.contains(&"forbid-unsafe"));
    // `rand = "0.8"` is flagged; `serde = { workspace = true }` is not.
    let dep: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "workspace-dep")
        .collect();
    assert_eq!(dep.len(), 1, "{dep:?}");
    assert!(dep[0].message.contains("rand"));
}

#[test]
fn bounded_fixture_flags_only_the_evictionless_table() {
    let findings = bounded::check(&fixture("bounded"));
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "unbounded-map");
    assert!(findings[0].file.ends_with("crates/telemetry/src/lib.rs"));
    assert!(findings[0].message.contains("`open`"));
    // `recent` (retained), `delegated` (allow-marked), the local `let`
    // map, and the #[cfg(test)] field all stayed silent.
}

#[test]
fn clock_fixture_flags_raw_wall_clock_outside_allowlist() {
    let findings = clock::check(&fixture("clock"));
    let rules = rules(&findings);
    // Two violations in the deterministic crate; the allow-marked line
    // and every look-alike stay silent, and the bench crate is exempt
    // despite calling both OS clocks.
    assert_eq!(
        rules,
        vec!["raw-wall-clock", "raw-wall-clock"],
        "{findings:?}"
    );
    assert!(findings
        .iter()
        .all(|f| f.file.ends_with("crates/core/src/lib.rs")));
    assert!(findings.iter().any(|f| f.message.contains("SystemTime")));
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("std::time::Instant")),
        "{findings:?}"
    );
}

#[test]
fn locks_fixture_flags_both_shapes_and_spares_lookalikes() {
    let findings = locks::check(&fixture("locks"));
    assert_eq!(
        rules(&findings),
        vec!["lock-across-handoff", "lock-across-handoff"],
        "{findings:?}"
    );
    // Shape 1: the guard live across the send.
    assert_eq!(findings[0].line, 7);
    assert!(findings[0].message.contains("`guard`"));
    assert!(findings[0].message.contains("send"));
    // Shape 2: the lock inside the spawned worker body.
    assert_eq!(findings[1].line, 13);
    assert!(findings[1].message.contains("fan-out"));
    // The dropped-guard, narrow-scope, io::Read, allow-marked and
    // test-module sites all stayed silent.
}

#[test]
fn floatord_fixture_flags_both_shapes_and_spares_lookalikes() {
    let findings = floatord::check(&fixture("floatord"));
    assert_eq!(
        rules(&findings),
        vec!["float-reduce-order", "float-reduce-order"],
        "{findings:?}"
    );
    // Shape 1: the `.sum::<f64>()` chained onto the HashMap walk.
    assert_eq!(findings[0].line, 6);
    assert!(findings[0].message.contains("sum"));
    // Shape 2: the `+=` inside the loop over the HashMap.
    assert_eq!(findings[1].line, 12);
    assert!(findings[1].message.contains("+="));
    // BTreeMap, integer, sorted-keys, allow-marked and test sites all
    // stayed silent.
}

#[test]
fn clones_fixture_flags_heavy_clones_and_spares_lookalikes() {
    let findings = clones::check(&fixture("clones"));
    assert_eq!(
        rules(&findings),
        vec!["clone-heavy-handoff", "clone-heavy-handoff"],
        "{findings:?}"
    );
    // The clone in the send loop (via loop-variable propagation) and
    // the `.to_vec()` in the fan-out job.
    assert_eq!(findings[0].line, 7);
    assert_eq!(findings[1].line, 13);
    assert!(findings[1].message.contains("`entries`"));
    // Moved values, light types, out-of-loop clones, allow-marked and
    // test sites all stayed silent.
}

#[test]
fn staleallow_fixture_flags_dead_and_typo_markers_only() {
    let findings = staleallow::check(&fixture("staleallow"));
    assert_eq!(
        rules(&findings),
        vec!["stale-allow", "stale-allow"],
        "{findings:?}"
    );
    // The dead unwrap marker.
    assert_eq!(findings[0].line, 13);
    assert!(findings[0].message.contains("no longer suppresses"));
    // The typo'd rule name.
    assert_eq!(findings[1].line, 18);
    assert!(findings[1].message.contains("unwarp"));
    // The live marker, the manifest-level rule, the self-suppressed
    // marker, and the doc-comment mention all stayed silent.
}

#[test]
fn live_workspace_passes_all_gates() {
    let findings = run_all(&workspace_root());
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn live_workspace_has_no_stale_allow_markers() {
    // Satellite guarantee: every `analyze:allow` in the tree still
    // suppresses something (run_all covers this too, but this pins the
    // specific rule if it ever regresses).
    let findings = staleallow::check(&workspace_root());
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn binary_exits_nonzero_on_violations_and_zero_when_clean() {
    let bin = env!("CARGO_BIN_EXE_vqoe-analyze");
    let dirty = Command::new(bin)
        .args(["--root"])
        .arg(fixture("panics"))
        .output()
        .expect("binary runs");
    assert_eq!(dirty.status.code(), Some(1));
    let clean = Command::new(bin)
        .args(["--root"])
        .arg(workspace_root())
        .output()
        .expect("binary runs");
    assert_eq!(
        clean.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&clean.stdout)
    );
    assert!(String::from_utf8_lossy(&clean.stdout).contains("all checks passed"));
}

#[test]
fn json_output_is_machine_readable() {
    let bin = env!("CARGO_BIN_EXE_vqoe-analyze");
    // The constants fixture is the one whose *only* violation survives
    // run_all (its crates carry no manifests, so hygiene skips them).
    let out = Command::new(bin)
        .args(["--format", "json", "--root"])
        .arg(fixture("constants"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"count\": 1"), "{json}");
    assert!(json.contains("\"rule\": \"const-mismatch\""));
    assert!(json.contains("\"file\": \"DESIGN.md\""));
    assert!(json.contains("\"line\": "));
}

#[test]
fn unknown_flags_exit_with_usage_error() {
    let bin = env!("CARGO_BIN_EXE_vqoe-analyze");
    let out = Command::new(bin)
        .arg("--bogus")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn sarif_output_is_valid_and_carries_the_findings() {
    let bin = env!("CARGO_BIN_EXE_vqoe-analyze");
    let out = Command::new(bin)
        .args(["--sarif", "--root"])
        .arg(fixture("panics"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    let doc: serde_json::Value = serde_json::from_str(&text).expect("SARIF parses as JSON");
    assert_eq!(
        doc.get("version").and_then(|v| v.as_str()),
        Some("2.1.0"),
        "{text}"
    );
    assert!(doc
        .get("$schema")
        .and_then(|v| v.as_str())
        .is_some_and(|s| s.contains("sarif-schema-2.1.0")));
    let runs = doc.get("runs").and_then(|v| v.as_array()).expect("runs");
    assert_eq!(runs.len(), 1);
    let driver = runs[0]
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("tool.driver");
    assert_eq!(
        driver.get("name").and_then(|v| v.as_str()),
        Some("vqoe-analyze")
    );
    // The full rule table rides along; the panics fixture yields its
    // three findings as results with physical locations.
    assert!(driver
        .get("rules")
        .and_then(|v| v.as_array())
        .is_some_and(|r| r.len() >= 19));
    let results = runs[0]
        .get("results")
        .and_then(|v| v.as_array())
        .expect("results");
    // The fixture's three panic findings are all present (plus
    // const-missing noise: the fixture root has no DESIGN.md).
    for rule in ["unwrap", "expect", "panic"] {
        assert!(
            results
                .iter()
                .any(|r| r.get("ruleId").and_then(|v| v.as_str()) == Some(rule)),
            "missing {rule}: {text}"
        );
    }
    for r in results {
        assert!(r
            .get("locations")
            .and_then(|l| l.as_array())
            .and_then(|l| l.first())
            .and_then(|l| l.get("physicalLocation"))
            .is_some());
    }
}

#[test]
fn warn_severity_findings_do_not_fail_the_gate() {
    let bin = env!("CARGO_BIN_EXE_vqoe-analyze");
    let out = Command::new(bin)
        .args(["--root"])
        .arg(fixture("clones"))
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // clone-heavy-handoff is warn: reported, exit still 0.
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("warning: [clone-heavy-handoff]"),
        "{stdout}"
    );
    assert!(stdout.contains("0 violation(s), 2 warning(s)"), "{stdout}");
}

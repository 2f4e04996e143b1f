//! The metrics the benchmark prints, with their units, and for each
//! per-layer metric the end-to-end metric and workloads it should move.
//! `BENCHMARK.json` at the repository root lists the same names.

/// An end-to-end metric: printed on every workload with `--trace 0`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("sessions_per_s", "sessions/s", "higher", 0.2),
    e2e("emit_p50_us", "us", "lower", 0.2),
    e2e("emit_p99_us", "us", "lower", 0.2),
    e2e("peak_rss_mb", "MB", "lower", 0.1),
    e2e("rss_per_subscriber_bytes", "B", "lower", 0.15),
    e2e("assessed_share", "fraction", "higher", 0.05),
    e2e("stall_accuracy", "fraction", "higher", 0.05),
    e2e("representation_accuracy", "fraction", "higher", 0.05),
    e2e("switch_accuracy", "fraction", "higher", 0.05),
];

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// A per-layer metric: printed on every workload with `--trace 1`.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric a change in this layer should move, and
    /// the workloads on which it should move it.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

/// Checkpoint pauses are excluded from `sessions_per_s`, and the replay
/// engine holds no state to checkpoint, so no end-to-end metric covers
/// them; read them on live-tap.
const CHECKPOINT: &str =
    "none end to end: pauses are excluded from sessions_per_s; read on live-tap";

pub const PER_LAYER: &[PerLayer] = &[
    layer(
        "telemetry.decode_ns_per_record",
        "ns",
        "lower",
        "sessions_per_s on replay",
    ),
    layer(
        "telemetry.reassemble_us_per_session",
        "us",
        "lower",
        "sessions_per_s on replay and live-tap",
    ),
    layer(
        "telemetry.push_ns_per_record",
        "ns",
        "lower",
        "sessions_per_s on live-flood",
    ),
    layer(
        "telemetry.quarantined_share",
        "fraction",
        "lower",
        "assessed_share on live-tap",
    ),
    layer("telemetry.pack_s", "s", "lower", "setup_s on all"),
    layer(
        "telemetry.self_us_per_session",
        "us",
        "lower",
        "sessions_per_s on replay",
    ),
    layer(
        "features.obs_us_per_session",
        "us",
        "lower",
        "sessions_per_s and emit_p50_us on replay and live-tap; no change on live-flood",
    ),
    layer(
        "features.stall_us_per_session",
        "us",
        "lower",
        "sessions_per_s and emit_p50_us on replay and live-tap; no change on live-flood",
    ),
    layer(
        "features.representation_us_per_session",
        "us",
        "lower",
        "sessions_per_s and emit_p50_us on replay and live-tap; no change on live-flood",
    ),
    layer(
        "features.streaming_fold_ns_per_chunk",
        "ns",
        "lower",
        "sessions_per_s on live-flood",
    ),
    layer(
        "features.approx_us_per_session",
        "us",
        "lower",
        "sessions_per_s on live-flood",
    ),
    layer(
        "features.self_us_per_session",
        "us",
        "lower",
        "sessions_per_s on replay and live-tap",
    ),
    layer(
        "ml.predict_us_per_session",
        "us",
        "lower",
        "sessions_per_s on replay and live-tap",
    ),
    layer("ml.train_s", "s", "lower", "setup_s on all"),
    layer(
        "changedet.cusum_us_per_session",
        "us",
        "lower",
        "sessions_per_s on replay and live-tap",
    ),
    layer("changedet.calibrate_s", "s", "lower", "setup_s on all"),
    layer(
        "core.deliver.stall_us",
        "us",
        "lower",
        "sessions_per_s on replay and live-tap",
    ),
    layer(
        "core.deliver.representation_us",
        "us",
        "lower",
        "sessions_per_s on replay and live-tap",
    ),
    layer(
        "core.deliver.switch_us",
        "us",
        "lower",
        "sessions_per_s on replay and live-tap",
    ),
    layer(
        "core.self_us_per_session",
        "us",
        "lower",
        "sessions_per_s on replay and live-tap",
    ),
    layer(
        "core.engine.overhead_share",
        "fraction",
        "lower",
        "sessions_per_s on replay",
    ),
    layer(
        "core.engine.parallel_efficiency",
        "fraction",
        "higher",
        "sessions_per_s on replay",
    ),
    layer(
        "core.online.ingest_ns_per_record",
        "ns",
        "lower",
        "sessions_per_s on live-flood and live-tap",
    ),
    layer(
        "core.online.bookkeeping_ns_per_record",
        "ns",
        "lower",
        "sessions_per_s on live-flood",
    ),
    layer(
        "core.online.drain_us_per_session",
        "us",
        "lower",
        "sessions_per_s and emit_p50_us on live-flood",
    ),
    layer(
        "core.online.tracked_bytes_per_subscriber",
        "B",
        "lower",
        "rss_per_subscriber_bytes on live-flood",
    ),
    layer(
        "core.online.rss_bytes_per_subscriber",
        "B",
        "lower",
        "rss_per_subscriber_bytes on live-flood",
    ),
    layer(
        "core.online.accounting_ratio",
        "ratio",
        "lower",
        "rss_per_subscriber_bytes on live-flood",
    ),
    layer("core.checkpoint.snapshot_ms", "ms", "lower", CHECKPOINT),
    layer("core.checkpoint.encode_ms", "ms", "lower", CHECKPOINT),
    layer("core.checkpoint.decode_ms", "ms", "lower", CHECKPOINT),
    layer("core.checkpoint.restore_ms", "ms", "lower", CHECKPOINT),
    layer("core.checkpoint.bytes", "B", "lower", CHECKPOINT),
    layer(
        "core.sessions_sketched",
        "count",
        "lower",
        "stall_accuracy, representation_accuracy and switch_accuracy on live-flood",
    ),
    layer(
        "core.sessions_partial",
        "count",
        "lower",
        "assessed_share on all",
    ),
    layer(
        "core.sessions_evicted",
        "count",
        "lower",
        "assessed_share on all",
    ),
    layer(
        "obs.metrics_overhead_share",
        "fraction",
        "lower",
        "sessions_per_s on replay",
    ),
    layer(
        "obs.tracing_overhead_share",
        "fraction",
        "lower",
        "none: the benchmark's own span cost",
    ),
    layer(
        "bench.self_us_per_session",
        "us",
        "lower",
        "none: the benchmark's own loop",
    ),
    layer("simnet.generate_s", "s", "lower", "setup_s on all"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this table list the same metrics, in the
    /// same order, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_metric_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<serde_json::Value> {
            match json.get(key) {
                Some(serde_json::Value::Seq(items)) => items.clone(),
                other => panic!("{key} is not a list: {other:?}"),
            }
        };
        let field = |v: &serde_json::Value, k: &str| -> String {
            match v.get(k) {
                Some(serde_json::Value::Str(s)) => s.clone(),
                Some(n) => n.as_f64().map(|x| x.to_string()).unwrap_or_default(),
                None => panic!("missing {k}"),
            }
        };
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (v, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(v, "name"), m.name);
            assert_eq!(field(v, "unit"), m.unit);
            assert_eq!(field(v, "better"), m.better);
            assert_eq!(field(v, "bound").parse::<f64>().ok(), Some(m.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (v, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(v, "name"), m.name);
            assert_eq!(field(v, "unit"), m.unit);
            assert_eq!(field(v, "better"), m.better);
        }
    }
}

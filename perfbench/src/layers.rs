//! The traced run: the same inputs, with spans around the calls into
//! each crate's public functions — the per-layer metrics.
//!
//! 1. Set-up through its steps: trace generation, forest training,
//!    CUSUM calibration, tap generation and packing.
//! 2. The streaming assessor, once untraced (the reference, and the
//!    memory account) and once with a span around every call and the
//!    checkpoint round trips.
//! 3. A sweep that rebuilds the assessment path from public functions:
//!    binlog decode, one `RobustReassembler` per subscriber (digest
//!    sink installed), `SessionObs`, and the `SubscriptionSet` fold
//!    with a span per detector delivery. Its assessments must equal the
//!    untraced ones, so both measure the same work.
//! 4. Per-session timings of the stages inside a delivery: feature
//!    vectors, forest predictions, the CUSUM score and the streaming
//!    feature state.
//! 5. The batch engine at 1 and `nproc` workers, with and without the
//!    metrics bundle.
//!
//! Spans stay in memory and are written to `.perfbench/` at the end.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;
use vqoe_core::{
    claim_digest, install_digest_sink, Fidelity, QoeMonitor, SessionAssessment, SessionDigest,
    SubscriptionSet,
};
use vqoe_features::{
    representation_features, stall_features, SessionObs, SessionView, StreamingSessionState,
};
use vqoe_telemetry::{
    AnomalyLog, IngestConfig, ReassembledSession, RobustReassembler, StreamHealth,
};

use crate::calib::Probe;
use crate::passes::{
    deployed_monitor, engine_pass, fresh_metrics, ingest_config, live_pass, serialized,
};
use crate::setup::{self, Tap};
use crate::stats::{median, ratio};
use crate::trace::{Name, Tracer};
use crate::{sys, Args, Metric, Outcome};

/// Rounds of engine passes repeat until this much time has passed (at
/// least one round, at most `MAX_ROUNDS`).
const OVERHEAD_BUDGET_S: f64 = 4.0;
const MAX_ROUNDS: usize = 5;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut probe = Probe::new(args.workload.limit());
    let mut tracer = Tracer::new();
    let setup_root = tracer.name("bench.setup");
    tracer.begin(setup_root);
    let trained = setup::train_traced(&mut tracer);
    let tap = setup::build_tap(args.workload, args.seed, Some(&mut tracer));
    tracer.end();
    let monitor = deployed_monitor(args.workload, &trained);
    let ingest = ingest_config(&tap);

    // 2. The streaming assessor: untraced, then traced.
    sys::trim_heap();
    sys::reset_peak()?;
    let before = sys::rss()?;
    let untraced = live_pass(
        &monitor,
        ingest,
        &tap,
        Some(&fresh_metrics()),
        0,
        &mut probe,
        None,
    )?;
    let after = sys::rss()?;
    let reference = untraced.report;
    let checkpoints = if args.workload == crate::Workload::LiveFlood {
        1
    } else {
        usize::MAX
    };
    let traced = live_pass(
        &monitor,
        ingest,
        &tap,
        Some(&fresh_metrics()),
        checkpoints,
        &mut probe,
        Some(&mut tracer),
    )?;
    if serialized(&traced.report)? != serialized(&reference)? {
        return Err(
            "traced streaming pass (with checkpoints) differs from the untraced pass".into(),
        );
    }
    drop(traced.report);

    // 3–4. The sweep and the per-session stage timings.
    let sweep = sweep(&monitor, ingest, &tap, &mut tracer)?;
    if sweep.assessments != reference.assessments {
        return Err("traced sweep assessments differ from the untraced streaming pass".into());
    }
    time_stages(&monitor, &sweep, &mut tracer)?;
    let mut slowdowns = vec![probe.run()];

    // 5. The batch engine: 1 worker, then `nproc` with and without the
    // metrics bundle, alternating.
    let workers = sys::nproc();
    let (mut single, mut with, mut without) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    while with.is_empty()
        || (t0.elapsed().as_secs_f64() < OVERHEAD_BUDGET_S && with.len() < MAX_ROUNDS)
    {
        for (threads, metrics, walls) in [
            (1, true, &mut single),
            (workers, true, &mut with),
            (workers, false, &mut without),
        ] {
            let p = engine_pass(&monitor, ingest, &tap, threads, metrics.then(fresh_metrics))?;
            if p.report.assessments != reference.assessments {
                return Err(format!(
                    "engine assessments at {threads} workers differ from the streaming pass"
                ));
            }
            walls.push(p.wall);
        }
        slowdowns.push(probe.run());
    }

    if setup::train() != trained {
        return Err("monitor trained step by step differs from QoeMonitor::train".into());
    }

    let path = write_spans(&tracer, args)?;
    println!("spans: {} written to {path}", tracer.len());

    // Per-layer metrics.
    let sessions = reference.assessments.len() as f64;
    let per_session = |name: &str| ratio(tracer.total(name).0, sessions) * 1e6;
    let per_call = |name: &str, scale: f64| {
        let (s, n) = tracer.total(name);
        ratio(s, n as f64) * scale
    };
    let self_time = tracer.self_time_by_layer("bench.sweep");
    let self_us = |layer: &str| ratio(self_time.get(layer).copied().unwrap_or(0.0), sessions) * 1e6;
    let pipeline_self: f64 = ["telemetry", "features", "core"]
        .iter()
        .map(|l| self_time.get(l).copied().unwrap_or(0.0))
        .sum();
    let pushed = tracer.total("telemetry.push").0 + tracer.total("telemetry.push_emit").0;
    let push_ns = ratio(pushed, sweep.records as f64) * 1e9;
    // Same records on both sides: calls that returned no session.
    let bookkeeping_ns = per_call("core.online.ingest", 1e9) - per_call("telemetry.push", 1e9);
    let ingest_ns = per_call("core.online.ingest", 1e9);
    let tracked_per_subscriber = traced.peak_tracked_bytes as f64 / tap.subscribers as f64;
    let rss_per_subscriber =
        after.peak.saturating_sub(before.current) as f64 / tap.subscribers as f64;
    let ck = |f: fn(&crate::passes::CheckpointTiming) -> f64| {
        median(&traced.checkpoints.iter().map(f).collect::<Vec<_>>())
    };
    let count = |fidelity: Fidelity| {
        reference
            .assessments
            .iter()
            .filter(|a| a.fidelity == fidelity)
            .count()
    };
    let (t_single, t_with, t_without) = (median(&single), median(&with), median(&without));
    // The probes inside both streaming passes cover the tracing
    // overhead's two sides; each pass is rescaled by its own.
    let traced_busy = (traced.wall - traced.paused) / crate::calib::slowdown(&traced.probes);
    let untraced_busy =
        (untraced.wall - untraced.paused) / crate::calib::slowdown(&untraced.probes);

    let n_sessions = sessions as usize;
    let records = sweep.records as usize;
    let m = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
    };
    // Every time at nominal machine speed, like the end-to-end metrics:
    // one factor for the run, from every probe taken during it.
    slowdowns.extend(untraced.probes.iter().chain(&traced.probes));
    let slowdown = crate::calib::slowdown(&slowdowns);
    println!(
        "machine slowdown over the traced run: {slowdown:.3} (median of {} probes)",
        slowdowns.len()
    );
    let mut metrics = vec![
        m(
            "telemetry.decode_ns_per_record",
            ratio(tracer.total("telemetry.decode").0, sweep.records as f64) * 1e9,
            "ns",
            records,
        ),
        m(
            "telemetry.reassemble_us_per_session",
            ratio(pushed + tracer.total("telemetry.flush").0, sessions) * 1e6,
            "us",
            n_sessions,
        ),
        m("telemetry.push_ns_per_record", push_ns, "ns", records),
        m(
            "telemetry.quarantined_share",
            ratio(
                sweep.health.entries_quarantined as f64,
                sweep.records as f64,
            ),
            "fraction",
            records,
        ),
        m("telemetry.pack_s", tracer.total("telemetry.pack").0, "s", 1),
        m(
            "telemetry.self_us_per_session",
            self_us("telemetry"),
            "us",
            n_sessions,
        ),
        m(
            "features.obs_us_per_session",
            per_session("features.obs"),
            "us",
            n_sessions,
        ),
        m(
            "features.stall_us_per_session",
            per_session("features.stall"),
            "us",
            n_sessions,
        ),
        m(
            "features.representation_us_per_session",
            per_session("features.representation"),
            "us",
            n_sessions,
        ),
        m(
            "features.streaming_fold_ns_per_chunk",
            ratio(
                tracer.total("features.streaming_fold").0,
                sweep.chunks as f64,
            ) * 1e9,
            "ns",
            sweep.chunks as usize,
        ),
        m(
            "features.approx_us_per_session",
            per_session("features.approx"),
            "us",
            n_sessions,
        ),
        m(
            "features.self_us_per_session",
            self_us("features"),
            "us",
            n_sessions,
        ),
        m(
            "ml.predict_us_per_session",
            per_session("ml.predict"),
            "us",
            n_sessions,
        ),
        m("ml.train_s", tracer.total("ml.train").0, "s", 1),
        m(
            "changedet.cusum_us_per_session",
            per_session("changedet.cusum"),
            "us",
            n_sessions,
        ),
        m(
            "changedet.calibrate_s",
            tracer.total("changedet.calibrate").0,
            "s",
            1,
        ),
        m(
            "core.deliver.stall_us",
            per_call("core.deliver.stall", 1e6),
            "us",
            tracer.total("core.deliver.stall").1 as usize,
        ),
        m(
            "core.deliver.representation_us",
            per_call("core.deliver.representation", 1e6),
            "us",
            tracer.total("core.deliver.representation").1 as usize,
        ),
        m(
            "core.deliver.switch_us",
            per_call("core.deliver.switch", 1e6),
            "us",
            tracer.total("core.deliver.switch").1 as usize,
        ),
        m(
            "core.self_us_per_session",
            self_us("core"),
            "us",
            n_sessions,
        ),
        m(
            "core.engine.overhead_share",
            ratio(t_single - pipeline_self, t_single),
            "fraction",
            single.len(),
        ),
        m(
            "core.engine.parallel_efficiency",
            ratio(t_single, workers as f64 * t_with),
            "fraction",
            with.len(),
        ),
        m(
            "core.online.ingest_ns_per_record",
            ingest_ns,
            "ns",
            tracer.total("core.online.ingest").1 as usize,
        ),
        m(
            "core.online.bookkeeping_ns_per_record",
            bookkeeping_ns,
            "ns",
            tracer.total("telemetry.push").1 as usize,
        ),
        m(
            "core.online.drain_us_per_session",
            ratio(tracer.total("core.online.drain").0, traced.drained as f64) * 1e6,
            "us",
            traced.drained,
        ),
        m(
            "core.online.tracked_bytes_per_subscriber",
            tracked_per_subscriber,
            "B",
            tap.subscribers as usize,
        ),
        m(
            "core.online.rss_bytes_per_subscriber",
            rss_per_subscriber,
            "B",
            tap.subscribers as usize,
        ),
        m(
            "core.online.accounting_ratio",
            ratio(rss_per_subscriber, tracked_per_subscriber),
            "ratio",
            1,
        ),
        m(
            "core.checkpoint.snapshot_ms",
            ck(|c| c.snapshot) * 1e3,
            "ms",
            traced.checkpoints.len(),
        ),
        m(
            "core.checkpoint.encode_ms",
            ck(|c| c.encode) * 1e3,
            "ms",
            traced.checkpoints.len(),
        ),
        m(
            "core.checkpoint.decode_ms",
            ck(|c| c.decode) * 1e3,
            "ms",
            traced.checkpoints.len(),
        ),
        m(
            "core.checkpoint.restore_ms",
            ck(|c| c.restore) * 1e3,
            "ms",
            traced.checkpoints.len(),
        ),
        m(
            "core.checkpoint.bytes",
            ck(|c| c.bytes as f64),
            "B",
            traced.checkpoints.len(),
        ),
        m(
            "core.sessions_sketched",
            count(Fidelity::Sketched) as f64,
            "count",
            n_sessions,
        ),
        m(
            "core.sessions_partial",
            reference.health.sessions_partial as f64,
            "count",
            n_sessions,
        ),
        m(
            "core.sessions_evicted",
            reference.health.sessions_evicted as f64,
            "count",
            n_sessions,
        ),
        m(
            "obs.metrics_overhead_share",
            ratio(t_with - t_without, t_without),
            "fraction",
            with.len(),
        ),
        m(
            "obs.tracing_overhead_share",
            ratio(traced_busy - untraced_busy, untraced_busy),
            "fraction",
            1,
        ),
        m(
            "bench.self_us_per_session",
            self_us("bench"),
            "us",
            n_sessions,
        ),
        m(
            "simnet.generate_s",
            tracer.total("simnet.generate").0,
            "s",
            1,
        ),
    ];
    for m in &mut metrics {
        if matches!(m.unit, "ns" | "us" | "ms" | "s") {
            m.value /= slowdown;
        }
    }
    Ok(Outcome {
        attempted: reference.assessments.len() as u64,
        failed: 0,
        metrics,
    })
}

/// What the sweep produced.
struct Sweep {
    /// Assessments in the streaming assessor's emission order.
    assessments: Vec<SessionAssessment>,
    /// Each session's observation, in the same order, and whether it
    /// was assessed exactly.
    sessions: Vec<(SessionObs, bool)>,
    records: u64,
    chunks: u64,
    health: StreamHealth,
}

/// One session the sweep assessed. The key — the index of the record
/// whose push emitted it (`u64::MAX` for the final drain), the
/// subscriber on a drain, the order within one call — sorts sessions
/// into the streaming assessor's emission order.
struct Emitted {
    key: (u64, u64, usize),
    assessment: SessionAssessment,
    obs: SessionObs,
    exact: bool,
}

struct SweepNames {
    decode: Name,
    push: Name,
    push_emit: Name,
    flush: Name,
    obs: Name,
    assess: Name,
    deliver: [(&'static str, Name); 3],
}

/// Rebuild the streaming assessment path from public functions, with a
/// span around each call.
fn sweep(
    monitor: &QoeMonitor,
    ingest: IngestConfig,
    tap: &Tap,
    tracer: &mut Tracer,
) -> Result<Sweep, String> {
    let names = SweepNames {
        decode: tracer.name("telemetry.decode"),
        push: tracer.name("telemetry.push"),
        push_emit: tracer.name("telemetry.push_emit"),
        flush: tracer.name("telemetry.flush"),
        obs: tracer.name("features.obs"),
        assess: tracer.name("core.assess"),
        deliver: [
            ("stall", tracer.name("core.deliver.stall")),
            ("representation", tracer.name("core.deliver.representation")),
            ("switch", tracer.name("core.deliver.switch")),
        ],
    };
    let root = tracer.name("bench.sweep");
    let subs = monitor.subscriptions();
    let mut machines: HashMap<u64, RobustReassembler> = HashMap::new();
    let mut health = StreamHealth::default();
    let mut anomalies = AnomalyLog::new(ingest.max_anomalies_kept);
    let mut emitted: Vec<Emitted> = Vec::new();
    let mut records = 0u64;
    tracer.begin(root);
    for segment in &tap.segments {
        let entries = tracer
            .span(names.decode, || segment.decode_all())
            .map_err(|e| format!("tap does not decode: {e}"))?;
        for e in &entries {
            let machine = machines.entry(e.subscriber_id).or_insert_with(|| {
                let mut m = RobustReassembler::new(monitor.reassembly, ingest);
                install_digest_sink(&mut m, *monitor.switch_model.scoring());
                m
            });
            health.entries_seen += 1;
            let t0 = Instant::now();
            let sessions = machine.push(e, &mut health, &mut anomalies);
            let push = if sessions.is_empty() {
                names.push
            } else {
                names.push_emit
            };
            tracer.add(push, t0, Instant::now());
            for (j, s) in sessions.into_iter().enumerate() {
                let digest = claim_digest(machine, &s);
                let (assessment, obs) = assess(&subs, &s, digest.as_ref(), &names, tracer);
                emitted.push(Emitted {
                    key: (records, 0, j),
                    assessment,
                    obs,
                    exact: digest.is_none(),
                });
            }
            records += 1;
        }
    }
    let mut open: Vec<(u64, RobustReassembler)> = machines.into_iter().collect();
    open.sort_unstable_by_key(|(id, _)| *id);
    for (id, mut machine) in open {
        let sessions = tracer.fold(names.flush, || machine.flush());
        for (j, s) in sessions.into_iter().enumerate() {
            let digest = claim_digest(&mut machine, &s);
            let (assessment, obs) = assess(&subs, &s, digest.as_ref(), &names, tracer);
            emitted.push(Emitted {
                key: (u64::MAX, id, j),
                assessment,
                obs,
                exact: digest.is_none(),
            });
        }
    }
    tracer.end();
    emitted.sort_by_key(|e| e.key);
    let chunks = emitted.iter().map(|e| e.obs.chunks.len() as u64).sum();
    let (assessments, sessions) = emitted
        .into_iter()
        .map(|e| (e.assessment, (e.obs, e.exact)))
        .unzip();
    Ok(Sweep {
        assessments,
        sessions,
        records,
        chunks,
        health,
    })
}

/// One session through the subscription fold, as the streaming
/// assessor does it, with a span per detector delivery.
fn assess(
    subs: &SubscriptionSet<'_>,
    session: &ReassembledSession,
    digest: Option<&SessionDigest>,
    names: &SweepNames,
    tracer: &mut Tracer,
) -> (SessionAssessment, SessionObs) {
    let obs = tracer.span(names.obs, || SessionObs::from_reassembled(session));
    let view = SessionView::over(&obs, session);
    tracer.begin(names.assess);
    let assessment = match digest {
        Some(d) => subs.assess_session_sketched(view, d),
        None => {
            let mut open = false;
            let a = subs.assess_session_observed(view, |_, name| {
                if open {
                    tracer.end();
                }
                let span = names
                    .deliver
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, s)| *s);
                open = span.is_some();
                if let Some(span) = span {
                    tracer.begin(span);
                }
            });
            if open {
                tracer.end();
            }
            a
        }
    };
    tracer.end();
    let fidelity = if session.spilled_chunks > 0 {
        Fidelity::Sketched
    } else {
        Fidelity::Full
    };
    (assessment.with_fidelity(fidelity), obs)
}

/// Time the stages inside a delivery, session by session, and check
/// that exact sessions reproduce the fold's verdicts.
fn time_stages(monitor: &QoeMonitor, sweep: &Sweep, tracer: &mut Tracer) -> Result<(), String> {
    let stall = tracer.name("features.stall");
    let representation = tracer.name("features.representation");
    let predict = tracer.name("ml.predict");
    let cusum = tracer.name("changedet.cusum");
    let fold = tracer.name("features.streaming_fold");
    let approx = tracer.name("features.approx");
    let root = tracer.name("bench.stages");
    tracer.begin(root);
    for ((obs, exact), a) in sweep.sessions.iter().zip(&sweep.assessments) {
        let sf = tracer.fold(stall, || stall_features(obs));
        let rf = tracer.fold(representation, || representation_features(obs));
        let (sc, rc) = tracer.fold(predict, || {
            (
                monitor.stall_model.predict_from_features(&sf),
                monitor.representation_model.predict_from_features(&rf),
            )
        });
        let score = tracer.fold(cusum, || monitor.switch_model.score(obs));
        let state = tracer.fold(fold, || {
            let mut state = StreamingSessionState::new();
            for c in &obs.chunks {
                state.fold(c);
            }
            state
        });
        black_box(tracer.fold(approx, || {
            (
                state.stall_features_approx(),
                state.representation_features_approx(),
            )
        }));
        if *exact
            && (sc != a.stall
                || rc != a.representation
                || score.to_bits() != a.switch_score.to_bits())
        {
            return Err("per-stage probes disagree with the subscription fold".into());
        }
    }
    tracer.end();
    Ok(())
}

/// Write the spans to `.perfbench/spans-<workload>.tsv` in the working
/// directory (one file per workload, overwritten by the next run).
fn write_spans(tracer: &Tracer, args: &Args) -> Result<String, String> {
    let dir = std::path::Path::new(".perfbench");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}.tsv", args.workload.name()));
    let file = std::fs::File::create(&path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    tracer
        .write_tsv(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

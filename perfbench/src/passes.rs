//! The assessment passes the benchmark times: the batch engine over a
//! packed tap, and the streaming assessor fed one record at a time.

use std::time::Instant;
use vqoe_core::{
    default_alert_rules, standard_alert_engine, EngineConfig, IngestReport, OnlineAssessor,
    OnlineCheckpoint, PipelineMetrics, QoeMonitor, ALERT_WINDOW_RECORDS,
};
use vqoe_obs::Registry;
use vqoe_telemetry::{IngestConfig, ReassemblyConfig, WeblogEntry};

use crate::calib::Probe;
use crate::setup::{Tap, FLOOD_EXACT_CAP};
use crate::trace::Tracer;
use crate::Workload;

/// Records between two checkpoints of the live tap.
pub const CHECKPOINT_EVERY: u64 = 65_536;
/// Records between two machine-speed probes of a streaming pass.
pub const PROBE_EVERY: u64 = 16_384;

/// The monitor as the workload deploys it: the flood lowers the
/// exactness cap so its long sessions cross into the sketched tier.
pub fn deployed_monitor(workload: Workload, trained: &QoeMonitor) -> QoeMonitor {
    let mut monitor = trained.clone();
    if workload == Workload::LiveFlood {
        monitor.reassembly = ReassemblyConfig {
            exact_entry_cap: FLOOD_EXACT_CAP,
            ..ReassemblyConfig::default()
        };
    }
    monitor
}

/// Hardening parameters sized so that no subscriber of the tap is evicted.
pub fn ingest_config(tap: &Tap) -> IngestConfig {
    let default = IngestConfig::default();
    IngestConfig {
        max_open_subscribers: default.max_open_subscribers.max(tap.subscribers as usize),
        ..default
    }
}

/// A fresh metrics bundle on its own registry.
pub fn fresh_metrics() -> PipelineMetrics {
    PipelineMetrics::register(&Registry::new())
}

/// The report as bytes, for byte-identity checks (alerts are excluded
/// from the serialized form by design).
pub fn serialized(report: &IngestReport) -> Result<String, String> {
    serde_json::to_string(report).map_err(|e| format!("report does not serialize: {e}"))
}

/// One timed engine pass over the tap (decode included).
pub struct EnginePass {
    pub report: IngestReport,
    pub wall: f64,
}

/// Assess the whole tap on the batch engine with `workers` threads.
pub fn engine_pass(
    monitor: &QoeMonitor,
    ingest: IngestConfig,
    tap: &Tap,
    workers: usize,
    metrics: Option<PipelineMetrics>,
) -> Result<EnginePass, String> {
    let pipeline = monitor
        .pipeline()
        .with_engine(EngineConfig {
            workers,
            ..EngineConfig::default()
        })
        .with_ingest(ingest);
    let pipeline = match metrics {
        Some(m) => pipeline.with_metrics(m),
        None => pipeline,
    };
    let t0 = Instant::now();
    let report = match tap.segments.as_slice() {
        [corpus] => pipeline.assess_binary(corpus),
        segments => segments
            .iter()
            .map(|s| s.decode_all())
            .collect::<Result<Vec<_>, _>>()
            .map(|parts| pipeline.assess(&parts.concat())),
    }
    .map_err(|e| format!("engine pass failed: {e}"))?;
    Ok(EnginePass {
        report,
        wall: t0.elapsed().as_secs_f64(),
    })
}

/// Pause timings of one checkpoint → JSON → restore round trip.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointTiming {
    pub snapshot: f64,
    pub encode: f64,
    pub decode: f64,
    pub restore: f64,
    pub bytes: usize,
}

/// One pass of the streaming assessor over the tap.
pub struct LivePass {
    /// Every assessment, in emission order, with the final counters.
    pub report: IngestReport,
    /// Pass wall time, checkpoint pauses included.
    pub wall: f64,
    /// Time spent in checkpoint pauses and machine-speed probes.
    pub paused: f64,
    /// Machine slowdowns the probes measured during the pass (see
    /// [`crate::calib`]).
    pub probes: Vec<f64>,
    /// Wall time of each call that returned at least one assessment.
    pub emit: Vec<f64>,
    /// Assessments returned by the final drain.
    pub drained: usize,
    pub peak_tracked_bytes: u64,
    pub checkpoints: Vec<CheckpointTiming>,
}

/// Span names of the streaming pass.
struct LiveNames {
    ingest: crate::trace::Name,
    ingest_emit: crate::trace::Name,
    drain: crate::trace::Name,
    snapshot: crate::trace::Name,
    encode: crate::trace::Name,
    decode: crate::trace::Name,
    restore: crate::trace::Name,
}

/// Attach the metrics bundle (if any) and the standard alert engine.
fn equip(assessor: OnlineAssessor, metrics: Option<&PipelineMetrics>) -> OnlineAssessor {
    let assessor = match metrics {
        Some(m) => assessor.with_metrics(m.clone()),
        None => assessor,
    };
    assessor.with_alerts(
        standard_alert_engine(default_alert_rules()),
        ALERT_WINDOW_RECORDS,
    )
}

/// Feed the tap to a streaming assessor one record at a time (closed
/// loop: the next record is decoded once `ingest` returns), with the
/// metrics bundle and the standard alert engine attached.
///
/// With `checkpoints > 0`, every [`CHECKPOINT_EVERY`] records (at most
/// `checkpoints` times) the run pauses for `checkpoint` → `to_json` →
/// `from_json` → `restore` and continues on the restored assessor.
/// Every [`PROBE_EVERY`] records the machine-speed probe runs; like
/// the checkpoint pauses, it is excluded from the pass's busy time.
/// With a tracer, every call into the assessor is recorded as a span.
pub fn live_pass(
    monitor: &QoeMonitor,
    ingest: IngestConfig,
    tap: &Tap,
    metrics: Option<&PipelineMetrics>,
    checkpoints: usize,
    probe: &mut Probe,
    mut tracer: Option<&mut Tracer>,
) -> Result<LivePass, String> {
    let names = tracer.as_deref_mut().map(|t| LiveNames {
        ingest: t.name("core.online.ingest"),
        ingest_emit: t.name("core.online.ingest_emit"),
        drain: t.name("core.online.drain"),
        snapshot: t.name("core.checkpoint.snapshot"),
        encode: t.name("core.checkpoint.encode"),
        decode: t.name("core.checkpoint.decode"),
        restore: t.name("core.checkpoint.restore"),
    });
    if let Some(t) = tracer.as_deref_mut() {
        let root = t.name("bench.online_pass");
        t.begin(root);
    }
    let mut assessor = equip(
        OnlineAssessor::with_config(monitor.clone(), ingest),
        metrics,
    );
    let mut assessments = Vec::new();
    let mut emit = Vec::new();
    let mut timings = Vec::new();
    let mut paused = 0.0;
    let mut probes = Vec::new();
    let mut records = 0u64;
    let t_pass = Instant::now();
    for segment in &tap.segments {
        for record in segment.records() {
            let entry: WeblogEntry = record
                .map_err(|e| format!("tap does not decode: {e}"))?
                .to_entry();
            let t0 = Instant::now();
            let out = assessor.ingest(&entry);
            let t1 = Instant::now();
            if !out.is_empty() {
                emit.push((t1 - t0).as_secs_f64());
            }
            if let (Some(t), Some(n)) = (tracer.as_deref_mut(), &names) {
                t.add(
                    if out.is_empty() {
                        n.ingest
                    } else {
                        n.ingest_emit
                    },
                    t0,
                    t1,
                );
            }
            assessments.extend(out);
            records += 1;
            if records.is_multiple_of(PROBE_EVERY) {
                let t = Instant::now();
                probes.push(probe.run());
                paused += t.elapsed().as_secs_f64();
            }
            if timings.len() < checkpoints && records.is_multiple_of(CHECKPOINT_EVERY) {
                let c0 = Instant::now();
                let fresh = monitor.clone();
                let p0 = Instant::now();
                let ck = assessor.checkpoint();
                let p1 = Instant::now();
                let json = ck
                    .to_json()
                    .map_err(|e| format!("checkpoint encode: {e}"))?;
                let p2 = Instant::now();
                let back = OnlineCheckpoint::from_json(&json)
                    .map_err(|e| format!("checkpoint decode: {e}"))?;
                let p3 = Instant::now();
                let restored =
                    OnlineAssessor::restore(fresh, &back).map_err(|e| format!("restore: {e}"))?;
                let p4 = Instant::now();
                assessor = equip(restored, metrics);
                paused += c0.elapsed().as_secs_f64();
                timings.push(CheckpointTiming {
                    snapshot: (p1 - p0).as_secs_f64(),
                    encode: (p2 - p1).as_secs_f64(),
                    decode: (p3 - p2).as_secs_f64(),
                    restore: (p4 - p3).as_secs_f64(),
                    bytes: json.len(),
                });
                if let (Some(t), Some(n)) = (tracer.as_deref_mut(), &names) {
                    t.record(n.snapshot, p0, p1);
                    t.record(n.encode, p1, p2);
                    t.record(n.decode, p2, p3);
                    t.record(n.restore, p3, p4);
                }
            }
        }
    }
    let peak_tracked_bytes = assessor.peak_tracked_bytes();
    let t0 = Instant::now();
    let mut report = assessor.into_report();
    let t1 = Instant::now();
    let wall = t_pass.elapsed().as_secs_f64();
    let drained = report.assessments.len();
    if drained > 0 {
        emit.push((t1 - t0).as_secs_f64());
    }
    if let (Some(t), Some(n)) = (tracer, &names) {
        t.record(n.drain, t0, t1);
        t.end();
    }
    assessments.append(&mut report.assessments);
    report.assessments = assessments;
    Ok(LivePass {
        report,
        wall,
        paused,
        probes,
        emit,
        drained,
        peak_tracked_bytes,
        checkpoints: timings,
    })
}

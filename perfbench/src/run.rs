//! The untraced run: time the workload's public entry point, check its
//! outputs, then score them — the end-to-end metrics.

use std::time::Instant;
use vqoe_core::{Fidelity, IngestReport, QoeMonitor};

use crate::calib::{self, Probe};
use crate::passes::{self, deployed_monitor, engine_pass, fresh_metrics, ingest_config, live_pass};
use crate::score::{self, Score};
use crate::setup::{self, Setup, Tap, Truth, FLOOD_LONG_EVERY, FLOOD_SUBSCRIBERS};
use crate::stats::{median, quantile};
use crate::{sys, Args, Metric, Outcome, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One timed pass of the workload's entry point.
struct Pass {
    report: IngestReport,
    /// Wall time with checkpoint pauses and probes excluded.
    busy: f64,
    /// Machine slowdown during the pass (see [`crate::calib`]).
    slowdown: f64,
    /// Wall time of each call that returned assessments.
    emit: Vec<f64>,
    /// The streaming assessor's own peak memory account (live passes).
    peak_tracked_bytes: Option<u64>,
}

/// Time one pass. The batch engine cannot be paused, so its slowdown
/// comes from the probes on either side of it; `last_probe` carries the
/// one after this pass to the next.
fn one_pass(
    workload: Workload,
    monitor: &QoeMonitor,
    tap: &Tap,
    probe: &mut Probe,
    last_probe: &mut f64,
) -> Result<Pass, String> {
    let ingest = ingest_config(tap);
    match workload {
        Workload::Replay => {
            let p = engine_pass(monitor, ingest, tap, sys::nproc(), Some(fresh_metrics()))?;
            let after = probe.run();
            let slowdown = calib::slowdown(&[*last_probe, after]);
            *last_probe = after;
            Ok(Pass {
                report: p.report,
                busy: p.wall,
                slowdown,
                emit: vec![p.wall],
                peak_tracked_bytes: None,
            })
        }
        Workload::LiveTap | Workload::LiveFlood => {
            let checkpoints = if workload == Workload::LiveTap {
                usize::MAX
            } else {
                0
            };
            let p = live_pass(
                monitor,
                ingest,
                tap,
                Some(&fresh_metrics()),
                checkpoints,
                probe,
                None,
            )?;
            Ok(Pass {
                report: p.report,
                busy: p.wall - p.paused,
                slowdown: calib::slowdown(&p.probes),
                emit: p.emit,
                peak_tracked_bytes: Some(p.peak_tracked_bytes),
            })
        }
    }
}

/// One set-up, with the machine slowdown the probes measured before,
/// between and after its two steps.
fn calibrated_setup(workload: Workload, seed: u64, probe: &mut Probe) -> (Setup, f64, f64) {
    // The first probe after a set-up step finds its buffer evicted and
    // reads 1.5× slow; the second one measures the machine.
    let sample = |probe: &mut Probe| {
        probe.run_core();
        probe.run_core()
    };
    let mut probes = vec![sample(probe)];
    let t0 = Instant::now();
    let monitor = setup::train();
    let trained = t0.elapsed().as_secs_f64();
    probes.push(sample(probe));
    let t1 = Instant::now();
    let tap = setup::build_tap(workload, seed, None);
    let wall = trained + t1.elapsed().as_secs_f64();
    probes.push(sample(probe));
    (Setup { monitor, tap }, wall, calib::slowdown(&probes))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut probe = Probe::new(args.workload.limit());
    let (
        Setup {
            monitor: trained,
            tap,
        },
        wall,
        slowdown,
    ) = calibrated_setup(args.workload, args.seed, &mut probe);
    let mut setups = vec![(wall, slowdown)];
    let monitor = deployed_monitor(args.workload, &trained);

    sys::trim_heap();
    sys::reset_peak()?;
    let before = sys::rss()?;
    // One untimed pass first: it faults in the pages every later pass
    // reuses (1.2 GB on the flood, where the cold pass ran 10–20%
    // slower and skewed its probes), and it counts for memory and for
    // the output checks.
    let mut last_probe = probe.run();
    let warmup = one_pass(args.workload, &monitor, &tap, &mut probe, &mut last_probe)?;
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = vec![];
    while passes.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        passes.push(one_pass(
            args.workload,
            &monitor,
            &tap,
            &mut probe,
            &mut last_probe,
        )?);
    }
    let after = sys::rss()?;

    // Outputs are checked before any number is printed.
    let reference = &warmup.report;
    for (i, p) in passes.iter().enumerate() {
        if p.report != *reference {
            return Err(format!("timed pass {i} report differs from the first pass"));
        }
    }
    check(args.workload, &monitor, &tap, reference, &mut probe)?;
    let score = match &tap.truth {
        Truth::Simulated(subs) => {
            score::score_simulated(&reference.assessments, &tap.segments, subs)?
        }
        Truth::Flood(flood) => score::score_flood(&reference.assessments, flood, &monitor)?,
    };
    let sessions = reference.assessments.len();
    let attempted = (score.attempted * passes.len()) as u64;

    // The remaining set-ups run after the timed phase, so their freed
    // memory cannot be reused by it and hide its growth.
    drop(tap);
    for _ in 1..SETUPS {
        let (_, wall, slowdown) = calibrated_setup(args.workload, args.seed, &mut probe);
        setups.push((wall, slowdown));
    }
    println!(
        "timed passes: {}; busy s (machine slowdown): {}",
        passes.len(),
        passes
            .iter()
            .map(|p| format!("{:.3} ({:.2})", p.busy, p.slowdown))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "set-ups s (machine slowdown): {}",
        setups
            .iter()
            .map(|(w, s)| format!("{w:.3} ({s:.2})"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "raw: sessions_per_s {:.1}, setup_s {:.3}",
        sessions as f64 / median(&passes.iter().map(|p| p.busy).collect::<Vec<_>>()),
        median(&setups.iter().map(|(w, _)| *w).collect::<Vec<_>>())
    );

    // Every timing at nominal machine speed (see `calib`).
    let setups: Vec<f64> = setups.iter().map(|(w, s)| w / s).collect();
    let busy: Vec<f64> = passes.iter().map(|p| p.busy / p.slowdown).collect();
    let emit: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.emit.iter().map(move |e| e / p.slowdown))
        .collect();
    let subscribers = match args.workload {
        Workload::LiveFlood => FLOOD_SUBSCRIBERS,
        _ => setup::SIM_SUBSCRIBERS,
    };
    let grown = after.peak.saturating_sub(before.current) as f64;
    let rss_per_subscriber = grown / subscribers as f64;
    print!(
        "memory: VmHWM {:.1} MB over the passes, {rss_per_subscriber:.0} B per subscriber above the \
         {:.1} MB before it",
        after.peak as f64 / 1e6,
        before.current as f64 / 1e6,
    );
    match passes.iter().filter_map(|p| p.peak_tracked_bytes).max() {
        Some(tracked) => {
            let per = tracked as f64 / subscribers as f64;
            println!(
                "; peak_tracked_bytes {tracked} B = {per:.0} B per subscriber (RSS / tracked = {:.2})",
                rss_per_subscriber / per
            );
        }
        None => println!("; the batch engine keeps no tracked-bytes account"),
    }
    Ok(Outcome {
        attempted,
        failed: 0,
        metrics: e2e_metrics(
            &setups,
            sessions,
            &busy,
            &emit,
            after.peak,
            rss_per_subscriber,
            &score,
        ),
    })
}

fn e2e_metrics(
    setups: &[f64],
    sessions: usize,
    busy: &[f64],
    emit: &[f64],
    peak_rss: u64,
    rss_per_subscriber: f64,
    score: &Score,
) -> Vec<Metric> {
    let m = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
    };
    vec![
        m("setup_s", median(setups), "s", setups.len()),
        m(
            "sessions_per_s",
            sessions as f64 / median(busy),
            "sessions/s",
            busy.len(),
        ),
        m("emit_p50_us", median(emit) * 1e6, "us", emit.len()),
        m(
            "emit_p99_us",
            quantile(emit, 0.99).unwrap_or(0.0) * 1e6,
            "us",
            emit.len(),
        ),
        m("peak_rss_mb", peak_rss as f64 / 1e6, "MB", 1),
        m("rss_per_subscriber_bytes", rss_per_subscriber, "B", 1),
        m(
            "assessed_share",
            score.assessed_share(),
            "fraction",
            score.attempted,
        ),
        m(
            "stall_accuracy",
            score.stall_accuracy(),
            "fraction",
            score.scored,
        ),
        m(
            "representation_accuracy",
            score.representation_accuracy(),
            "fraction",
            score.scored,
        ),
        m(
            "switch_accuracy",
            score.switch_accuracy(),
            "fraction",
            score.scored,
        ),
    ]
}

/// The workload's output checks (outside the timed phase).
fn check(
    workload: Workload,
    monitor: &QoeMonitor,
    tap: &Tap,
    report: &IngestReport,
    probe: &mut Probe,
) -> Result<(), String> {
    let ingest = ingest_config(tap);
    match workload {
        Workload::Replay => {
            let one = engine_pass(monitor, ingest, tap, 1, Some(fresh_metrics()))?;
            if one.report != *report {
                return Err(format!(
                    "replay report at 1 worker differs from the report at {} workers",
                    sys::nproc()
                ));
            }
        }
        Workload::LiveTap => {
            let resumed = passes::serialized(report)?;
            let straight = live_pass(monitor, ingest, tap, Some(&fresh_metrics()), 0, probe, None)?;
            if passes::serialized(&straight.report)? != resumed {
                return Err(
                    "live-tap report after checkpoint/restore differs from the uninterrupted run"
                        .into(),
                );
            }
            let engine = engine_pass(monitor, ingest, tap, sys::nproc(), Some(fresh_metrics()))?;
            if passes::serialized(&engine.report)? != resumed {
                return Err(
                    "live-tap report differs from the engine's report on the same records".into(),
                );
            }
        }
        Workload::LiveFlood => {
            let n = FLOOD_SUBSCRIBERS as usize;
            let sketched = report
                .assessments
                .iter()
                .filter(|a| a.fidelity == Fidelity::Sketched)
                .count();
            let expected_sketched = (FLOOD_SUBSCRIBERS / FLOOD_LONG_EVERY) as usize;
            if report.assessments.len() != n
                || sketched != expected_sketched
                || report.health.sessions_evicted != 0
                || report.health.sessions_partial != 0
            {
                return Err(format!(
                    "live-flood assessed {} sessions ({} sketched, {} evicted, {} partial); \
                     expected {n} ({expected_sketched} sketched, 0 evicted, 0 partial)",
                    report.assessments.len(),
                    sketched,
                    report.health.sessions_evicted,
                    report.health.sessions_partial
                ));
            }
        }
    }
    Ok(())
}

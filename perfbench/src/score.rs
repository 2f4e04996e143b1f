//! Quality of the emitted assessments, scored outside the timed phase.
//!
//! Simulated taps are scored against the simulator's ground truth:
//! each assessment is attributed to its subscriber by the timestamp of
//! the record that opened its session, then matched one-to-one to that
//! subscriber's sessions by temporal overlap weighted by chunk-count
//! agreement (greedy, best score first). The flood has no simulator
//! behind it, so its sketched sessions are scored against the exact
//! assessment of the same records.

use std::collections::HashMap;
use vqoe_core::{Fidelity, OnlineAssessor, QoeMonitor, SessionAssessment};
use vqoe_features::labels::has_switches;
use vqoe_features::{rq_label, stall_label};
use vqoe_player::SessionTrace;
use vqoe_telemetry::{BinaryCorpus, IngestConfig, ReassemblyConfig};

use crate::setup::{Flood, SimSubscriber, FLOOD_LONG_EVERY, FLOOD_SUBSCRIBERS};

/// Outcome of scoring one pass's assessments.
#[derive(Debug, Clone, Copy, Default)]
pub struct Score {
    /// Sessions the tap carried.
    pub attempted: usize,
    /// Of those, sessions assessed at `Full` or `Sketched` fidelity.
    pub assessed: usize,
    /// Sessions compared with a reference.
    pub scored: usize,
    pub stall_ok: usize,
    pub representation_ok: usize,
    pub switch_ok: usize,
}

impl Score {
    pub fn assessed_share(&self) -> f64 {
        crate::stats::ratio(self.assessed as f64, self.attempted as f64)
    }

    pub fn stall_accuracy(&self) -> f64 {
        crate::stats::ratio(self.stall_ok as f64, self.scored as f64)
    }

    pub fn representation_accuracy(&self) -> f64 {
        crate::stats::ratio(self.representation_ok as f64, self.scored as f64)
    }

    pub fn switch_accuracy(&self) -> f64 {
        crate::stats::ratio(self.switch_ok as f64, self.scored as f64)
    }
}

fn full_or_sketched(a: &SessionAssessment) -> bool {
    matches!(a.fidelity, Fidelity::Full | Fidelity::Sketched)
}

/// Score a simulated tap's assessments against ground truth.
pub fn score_simulated(
    assessments: &[SessionAssessment],
    segments: &[BinaryCorpus],
    subscribers: &[SimSubscriber],
) -> Result<Score, String> {
    // Timestamp of every service record → its subscriber; a timestamp
    // two subscribers share attributes to neither.
    const SHARED: u64 = u64::MAX;
    let mut owner: HashMap<u64, u64> = HashMap::new();
    for segment in segments {
        for record in segment.records() {
            let e = record
                .map_err(|e| format!("tap does not decode: {e}"))?
                .to_entry();
            if !e.is_service_host() {
                continue;
            }
            let slot = owner
                .entry(e.timestamp.as_micros())
                .or_insert(e.subscriber_id);
            if *slot != e.subscriber_id {
                *slot = SHARED;
            }
        }
    }
    let mut by_subscriber: HashMap<u64, Vec<&SessionAssessment>> = HashMap::new();
    for a in assessments {
        if let Some(&id) = owner.get(&a.start.as_micros()) {
            if id != SHARED {
                by_subscriber.entry(id).or_default().push(a);
            }
        }
    }
    let mut score = Score::default();
    for sub in subscribers {
        score.attempted += sub.traces.len();
        let mine = by_subscriber.remove(&sub.id).unwrap_or_default();
        for (ai, ti) in match_sessions(&mine, &sub.traces, sub.offset_us) {
            let (a, gt) = (mine[ai], &sub.traces[ti].ground_truth);
            score.scored += 1;
            score.assessed += usize::from(full_or_sketched(a));
            score.stall_ok += usize::from(a.stall == stall_label(gt));
            score.representation_ok += usize::from(a.representation == rq_label(gt));
            score.switch_ok += usize::from(a.has_quality_switches == has_switches(gt));
        }
    }
    Ok(score)
}

/// Greedy one-to-one matching of assessments to ground-truth sessions
/// (shifted by `offset_us`) by temporal overlap × chunk-count agreement.
fn match_sessions(
    assessments: &[&SessionAssessment],
    traces: &[SessionTrace],
    offset_us: u64,
) -> Vec<(usize, usize)> {
    let offset = offset_us as f64 * 1e-6;
    let mut candidates: Vec<(f64, usize, usize)> = Vec::new();
    for (ai, a) in assessments.iter().enumerate() {
        let (a_start, a_end) = (a.start.as_secs_f64(), a.end.as_secs_f64());
        for (ti, t) in traces.iter().enumerate() {
            let (Some(first), Some(last)) = (t.chunks.first(), t.chunks.last()) else {
                continue;
            };
            let t_start = first.request_time.as_secs_f64() + offset;
            let t_end = last.arrival_time.as_secs_f64() + offset;
            let overlap = a_end.min(t_end) - a_start.max(t_start);
            if overlap <= 0.0 {
                continue;
            }
            let union = a_end.max(t_end) - a_start.min(t_start);
            let temporal = if union > 0.0 { overlap / union } else { 0.0 };
            let ca = a.chunk_count as f64;
            let ct = t.chunks.len() as f64;
            let agreement = (1.0 - (ca - ct).abs() / ca.max(ct).max(1.0)).max(0.0);
            let score = temporal * agreement;
            if score > 0.0 {
                candidates.push((score, ai, ti));
            }
        }
    }
    candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let mut used_a = vec![false; assessments.len()];
    let mut used_t = vec![false; traces.len()];
    let mut out = Vec::new();
    for (_, ai, ti) in candidates {
        if !used_a[ai] && !used_t[ti] {
            used_a[ai] = true;
            used_t[ti] = true;
            out.push((ai, ti));
        }
    }
    out
}

/// Long-cohort subscribers whose sketched sessions are scored: one in
/// eight, so the exact reference stays cheap.
const FLOOD_SCORED_EVERY: u64 = FLOOD_LONG_EVERY * 8;

/// Score the flood. Every subscriber's session counts as attempted; a
/// sample of the sketched sessions is compared with the exact-path
/// assessment of the same records (the monitor with its default,
/// uncrossed exactness cap).
pub fn score_flood(
    assessments: &[SessionAssessment],
    flood: &Flood,
    monitor: &QoeMonitor,
) -> Result<Score, String> {
    let mut exact_monitor = monitor.clone();
    exact_monitor.reassembly = ReassemblyConfig::default();
    let scored_ids: Vec<u64> = (0..FLOOD_SUBSCRIBERS)
        .step_by(FLOOD_SCORED_EVERY as usize)
        .collect();
    let mut exact = OnlineAssessor::with_config(
        exact_monitor,
        IngestConfig {
            max_open_subscribers: scored_ids.len(),
            ..IngestConfig::default()
        },
    );
    let mut reference: Vec<SessionAssessment> = Vec::new();
    for k in 0..Flood::chunks_of(0) {
        for &s in &scored_ids {
            reference.extend(exact.ingest(&flood.entry(s, k)));
        }
    }
    reference.extend(exact.into_report().assessments);
    if reference.len() != scored_ids.len() {
        return Err(format!(
            "exact reference assessed {} sessions, expected {}",
            reference.len(),
            scored_ids.len()
        ));
    }
    let mut score = Score {
        attempted: FLOOD_SUBSCRIBERS as usize,
        assessed: assessments.iter().filter(|a| full_or_sketched(a)).count(),
        ..Score::default()
    };
    // The flood drains in subscriber-id order, one session each, so
    // assessment `s` belongs to subscriber `s`.
    for (&s, exact) in scored_ids.iter().zip(&reference) {
        let a = &assessments[s as usize];
        score.scored += 1;
        score.stall_ok += usize::from(a.stall == exact.stall);
        score.representation_ok += usize::from(a.representation == exact.representation);
        score.switch_ok += usize::from(a.has_quality_switches == exact.has_quality_switches);
    }
    Ok(score)
}

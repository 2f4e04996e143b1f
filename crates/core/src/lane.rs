//! The subscriber lane: the one place a reassembled session becomes a
//! [`SessionAssessment`] (§8: frozen models applied to every session
//! reassembled from the monitored traffic).
//!
//! A [`SubscriberLane`] is a hardened reassembler with a [`DigestSink`]
//! installed; every session it emits comes back with its claimed digest.
//! The parallel engine runs one unbudgeted lane per subscriber inside
//! each shard job, the streaming assessor keeps one per tracked
//! subscriber, and the batch `IngestPipeline::assess_subscriber` runs
//! the plain §5.2 machine with the same sink ([`claim_batch`]). All
//! three hand each session to [`assess`], which alone applies the tier
//! rule, picks the exact or sketched fold, and records trace spans and
//! metrics — so a session gets the same tier on every path.

use vqoe_features::{SessionObs, SessionView};
use vqoe_obs::{TraceEvent, TraceSink, TraceStage};
use vqoe_telemetry::{
    AnomalyLog, IngestConfig, ReassembledSession, ReassemblerState, RobustReassembler,
    StreamHealth, StreamReassembler, WeblogEntry,
};

use crate::digest::{claim_digest, claim_from, install_digest_sink, DigestSink, SessionDigest};
use crate::metrics::PipelineMetrics;
use crate::monitor::{Fidelity, QoeMonitor, SessionAssessment};
use crate::subscribe::SubscriptionSet;

/// One emitted session with the digest claimed for it (`Some` exactly
/// when chunks spilled past the exactness cap).
#[derive(Debug)]
pub(crate) struct Claimed {
    pub(crate) session: ReassembledSession,
    pub(crate) digest: Option<SessionDigest>,
}

/// One subscriber's reassembler with the streaming digest sink
/// installed, so sketched-tier coverage starts at record one.
#[derive(Debug, Clone)]
pub(crate) struct SubscriberLane {
    machine: RobustReassembler,
}

impl SubscriberLane {
    /// A fresh lane reassembling under `monitor`'s reassembly config and
    /// scoring digests with its frozen switch parameters.
    pub(crate) fn new(monitor: &QoeMonitor, ingest: IngestConfig) -> Self {
        let mut machine = RobustReassembler::new(monitor.reassembly, ingest);
        install_digest_sink(&mut machine, *monitor.switch_model.scoring());
        SubscriberLane { machine }
    }

    /// Rebuild a lane from its checkpointed machine state. The digest
    /// sink comes from its own snapshot when the checkpoint carried one
    /// (v2+), fresh otherwise: v1 checkpoints predate spilling, so no
    /// in-flight digest existed to lose.
    pub(crate) fn restore(monitor: &QoeMonitor, state: ReassemblerState) -> Self {
        let sink = state
            .inner
            .spill_json
            .as_deref()
            .and_then(DigestSink::from_json)
            .unwrap_or_else(|| DigestSink::new(*monitor.switch_model.scoring()));
        let mut machine = RobustReassembler::from_state(state);
        machine.attach_spill(Box::new(sink));
        SubscriberLane { machine }
    }

    /// The underlying machine (watermark, buffered cost, checkpoint
    /// state).
    pub(crate) fn machine(&self) -> &RobustReassembler {
        &self.machine
    }

    /// Feed one entry in arrival order; every session it completes comes
    /// back with its digest.
    pub(crate) fn push(
        &mut self,
        e: &WeblogEntry,
        health: &mut StreamHealth,
        anomalies: &mut AnomalyLog,
    ) -> Vec<Claimed> {
        let sessions = self.machine.push(e, health, anomalies);
        self.claim(sessions)
    }

    /// Close the stream (end of input, eviction or shedding). The sink
    /// stays installed, so the lane is reusable.
    pub(crate) fn flush(&mut self) -> Vec<Claimed> {
        let sessions = self.machine.flush();
        self.claim(sessions)
    }

    fn claim(&mut self, sessions: Vec<ReassembledSession>) -> Vec<Claimed> {
        sessions
            .into_iter()
            .map(|session| Claimed {
                digest: claim_digest(&mut self.machine, &session),
                session,
            })
            .collect()
    }
}

/// Batch form for one subscriber's whole stream: the plain §5.2 machine
/// over its service entries in timestamp order (as
/// `vqoe_telemetry::reassemble_subscriber` runs it), with the digest
/// sink a lane installs and each session's digest claimed as it is
/// emitted.
pub(crate) fn claim_batch(monitor: &QoeMonitor, entries: &[WeblogEntry]) -> Vec<Claimed> {
    let mut service: Vec<&WeblogEntry> = entries.iter().filter(|e| e.is_service_host()).collect();
    service.sort_by_key(|e| e.timestamp);
    let mut machine = StreamReassembler::new(monitor.reassembly)
        .with_spill(Box::new(DigestSink::new(*monitor.switch_model.scoring())));
    let claim = |machine: &mut StreamReassembler, session| Claimed {
        digest: claim_from(machine.spill_sink_mut(), &session),
        session,
    };
    let mut claimed = Vec::new();
    for e in service {
        if let Some(session) = machine.push(e) {
            claimed.push(claim(&mut machine, session));
        }
    }
    if let Some(session) = machine.finish_in_place() {
        claimed.push(claim(&mut machine, session));
    }
    claimed
}

/// Assess one claimed session at the caller's `tier` (`Full`, or
/// `Partial`/`Shed` for force-closed streams).
///
/// The tier rule: a session whose chunks spilled past the exactness cap
/// is at least [`Fidelity::Sketched`] (the caller's degraded tiers
/// dominate) and is assessed from its digest. With a trace target
/// `(sink, emission key, subscriber)` the session's span chain is
/// recorded; with metrics the session is observed.
pub(crate) fn assess(
    subs: &SubscriptionSet<'_>,
    metrics: Option<&PipelineMetrics>,
    claimed: &Claimed,
    tier: Fidelity,
    trace: Option<(&mut TraceSink, (u8, u64, u32), u64)>,
) -> SessionAssessment {
    let session = &claimed.session;
    let obs = SessionObs::from_reassembled(session);
    let view = SessionView::over(&obs, session);
    let tier = if session.spilled_chunks > 0 {
        tier.max(Fidelity::Sketched)
    } else {
        tier
    };
    let assessment = match &claimed.digest {
        Some(d) => subs.assess_session_sketched(view, d),
        None => subs.assess_session(view),
    }
    .with_fidelity(tier);
    if let Some((sink, key, subscriber)) = trace {
        record_session_spans(sink, key, subscriber, session, &subs.names());
    }
    if let Some(m) = metrics {
        m.observe_session(session, &assessment);
    }
    assessment
}

/// Record one emitted session's span chain: ingest (all records),
/// reassemble (media chunks), fan-out, then one deliver span per
/// detector. Ticks are deterministic work units — one per record
/// examined — anchored at the session's start time in tap
/// microseconds, so the chain is a pure function of the session
/// content and Perfetto lays sessions out along tap time.
fn record_session_spans(
    sink: &mut TraceSink,
    key: (u8, u64, u32),
    subscriber: u64,
    session: &ReassembledSession,
    delivered: &[&'static str],
) {
    let session_id = session.start.as_micros();
    let chunks = (session.chunks.len() as u64).max(1);
    let records = chunks + session.other.len() as u64;
    let mut tick = session_id;
    let head = [
        (TraceStage::Ingest, records, ""),
        (TraceStage::Reassemble, chunks, ""),
        (TraceStage::Fanout, (delivered.len() as u64).max(1), ""),
    ];
    let spans = head.into_iter().chain(
        delivered
            .iter()
            .map(|&name| (TraceStage::Deliver, chunks, name)),
    );
    for (seq, (stage, dur_ticks, detail)) in spans.enumerate() {
        sink.record(TraceEvent {
            key,
            seq: seq as u32,
            stage,
            subscriber,
            session: session_id,
            start_tick: tick,
            dur_ticks,
            detail,
        });
        tick += dur_ticks;
    }
}

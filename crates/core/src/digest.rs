//! Streaming per-session digests: the bounded-memory state behind the
//! [`Fidelity::Sketched`] assessment tier (ISSUE 10).
//!
//! When a session outgrows the reassembler's exact-buffer cap
//! ([`vqoe_telemetry::EXACT_ENTRY_CAP`]), its media chunks stop being
//! buffered and are instead folded — exact prefix first, then every
//! overflow chunk — into a [`SessionDigest`]: running moments plus
//! deterministic quantile sketches over all §4 metric series
//! ([`StreamingSessionState`]) and the streaming §4.3 switch score
//! ([`StreamingSwitchScore`]). Per-subscriber cost is O(1) in session
//! length; the digest is seedless, mergeable state that serializes
//! byte-stably for checkpointing.
//!
//! [`DigestSink`] stages spilled chunks and folds them into the digest
//! in bursts of [`SKETCH_CAPACITY`] (and at seal). Thousands of lanes
//! spill at once on a loaded tap, so folding each chunk as it lands
//! would touch a cold digest's 14 series sketches on every record; a
//! burst pays that miss once per 64 chunks. Each series still sees the
//! same push sequence, so digests, predictions and tiers are
//! bit-identical to a chunk-at-a-time fold. The digest itself is built
//! by the first burst: a lane that never spills carries an empty sink.
//! Budget accounting is unchanged — the reassembler charges the fixed
//! `SPILL_STATE_COST_BYTES` for an active spill, staging included.
//!
//! The plumbing is the [`SpillSink`] trait from `vqoe-telemetry` (which
//! cannot depend on the feature/detector crates, so the dependency is
//! inverted): [`DigestSink`] implements it, the subscriber lane
//! (`crate::lane`) installs one per machine, and [`claim_digest`] pops
//! the sealed digest matching each emitted spilled session — a strict
//! FIFO, because the reassembler seals (or discards) exactly once per
//! emission with any spill activity.
//!
//! [`Fidelity::Sketched`]: crate::Fidelity::Sketched

use std::borrow::Cow;

use serde::{Deserialize, Serialize};
use vqoe_changedet::{StreamingSwitchScore, SwitchScoreConfig};
use vqoe_features::{ChunkObs, StreamingSessionState};
use vqoe_stats::SKETCH_CAPACITY;
use vqoe_telemetry::{ReassembledSession, RobustReassembler, SpillSink, WeblogEntry};

/// Everything the sketched assessment path needs about one session:
/// approximate 70/210-dim feature vectors and the streaming switch
/// score, all O(1) in session length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionDigest {
    /// Running moments + quantile sketches over the §4 metric series.
    pub features: StreamingSessionState,
    /// Streaming two-sided CUSUM switch score (§4.3).
    pub switch: StreamingSwitchScore,
}

impl SessionDigest {
    /// Fresh digest scoring switches under `config` (the deployed
    /// [`SwitchModel`]'s frozen scoring parameters, so sketched and
    /// exact assessments answer the same question).
    ///
    /// [`SwitchModel`]: crate::SwitchModel
    pub fn with_config(config: SwitchScoreConfig) -> Self {
        SessionDigest {
            features: StreamingSessionState::new(),
            switch: StreamingSwitchScore::new(config),
        }
    }

    /// Fold one media-chunk observation into both digests.
    pub fn fold(&mut self, c: &ChunkObs) {
        self.features.fold(c);
        self.switch.fold(c.arrival_secs, c.bytes);
    }

    /// Chunks folded in so far.
    pub fn chunk_count(&self) -> u64 {
        self.features.chunk_count()
    }

    /// Approximate heap footprint, for the budget audit.
    pub fn heap_bytes(&self) -> usize {
        self.features.heap_bytes() + std::mem::size_of::<StreamingSwitchScore>()
    }
}

/// The core-side [`SpillSink`]: folds spilled chunks into a
/// [`SessionDigest`] and archives one digest per sealed session, FIFO.
///
/// Chunks are staged and folded [`SKETCH_CAPACITY`] at a time (module
/// docs), and the digest is only built once a burst lands, so a sink
/// whose lane never spills holds no digest at all. Serialization and
/// equality see the *settled* sink — staged rows folded in, a fresh
/// digest standing in for a missing one — so neither the burst boundary
/// nor the lazy digest shows in a checkpoint byte.
#[derive(Debug, Clone)]
pub struct DigestSink {
    config: SwitchScoreConfig,
    /// The in-flight session's digest, built by its first burst.
    current: Option<Box<SessionDigest>>,
    /// Spilled chunks of the in-flight session not yet folded into
    /// `current`, in arrival order (fewer than [`SKETCH_CAPACITY`]
    /// between calls; released at seal and discard).
    staged: Vec<ChunkObs>,
    /// Sealed digests not yet claimed by the assessor (FIFO; normally
    /// at most one deep, drained right after each emission).
    sealed: Vec<SessionDigest>,
}

impl DigestSink {
    /// Fresh sink whose digests score switches under `config`.
    pub fn new(config: SwitchScoreConfig) -> Self {
        DigestSink {
            config,
            current: None,
            staged: Vec::new(),
            sealed: Vec::new(),
        }
    }

    /// Pop the oldest sealed digest. The caller must pop exactly once
    /// per emitted session with spill activity (see [`claim_digest`]);
    /// anything else desynchronizes the FIFO.
    pub fn claim(&mut self) -> Option<SessionDigest> {
        if self.sealed.is_empty() {
            None
        } else {
            Some(self.sealed.remove(0))
        }
    }

    /// Sealed digests waiting to be claimed.
    pub fn sealed_len(&self) -> usize {
        self.sealed.len()
    }

    /// Rehydrate from the snapshot emitted by
    /// [`SpillSink::state_json`] (checkpoint restore).
    pub fn from_json(json: &str) -> Option<DigestSink> {
        serde_json::from_str(json).ok()
    }

    /// Fold the staged chunks, in arrival order, into the in-flight
    /// digest (building it on the first burst).
    fn fold_staged(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        let config = self.config;
        let digest = self
            .current
            .get_or_insert_with(|| Box::new(SessionDigest::with_config(config)));
        for c in &self.staged {
            digest.fold(c);
        }
        self.staged.clear();
    }

    /// The in-flight digest as if every staged chunk were folded: what
    /// checkpoints write and equality compares.
    fn settled_current(&self) -> Cow<'_, SessionDigest> {
        let mut digest = match &self.current {
            Some(d) if self.staged.is_empty() => return Cow::Borrowed(&**d),
            Some(d) => SessionDigest::clone(d),
            None => SessionDigest::with_config(self.config),
        };
        for c in &self.staged {
            digest.fold(c);
        }
        Cow::Owned(digest)
    }
}

impl PartialEq for DigestSink {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.sealed == other.sealed
            && self.settled_current() == other.settled_current()
    }
}

// Hand-written: checkpoints hold the settled sink as
// `{config, current, sealed}`, so staging never shows in their bytes.
impl Serialize for DigestSink {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("config".to_string(), self.config.to_value()),
            ("current".to_string(), self.settled_current().to_value()),
            ("sealed".to_string(), self.sealed.to_value()),
        ])
    }
}

impl Deserialize for DigestSink {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        if !matches!(value, serde::Value::Map(_)) {
            return Err(serde::DeError::mismatch("object", value));
        }
        let field = |f: &str| {
            value
                .get(f)
                .ok_or_else(|| serde::DeError::missing_field("DigestSink", f))
        };
        let config = SwitchScoreConfig::from_value(field("config")?)?;
        let current = SessionDigest::from_value(field("current")?)?;
        Ok(DigestSink {
            config,
            // A snapshot taken between sessions carries a fresh digest.
            // Restored as "no digest yet", the sink writes the same
            // later snapshots as one that never stopped.
            current: (current != SessionDigest::with_config(config)).then(|| Box::new(current)),
            staged: Vec::new(),
            sealed: Deserialize::from_value(field("sealed")?)?,
        })
    }
}

impl SpillSink for DigestSink {
    fn fold_chunk(&mut self, e: &WeblogEntry) {
        self.staged.push(ChunkObs::from(e));
        if self.staged.len() >= SKETCH_CAPACITY {
            self.fold_staged();
        }
    }

    fn seal(&mut self) {
        self.fold_staged();
        self.staged = Vec::new();
        let finished = self
            .current
            .take()
            .map_or_else(|| SessionDigest::with_config(self.config), |d| *d);
        self.sealed.push(finished);
    }

    fn discard(&mut self) {
        self.current = None;
        self.staged = Vec::new();
    }

    fn state_json(&self) -> Option<String> {
        if self.current.is_none() && self.staged.is_empty() && self.sealed.is_empty() {
            return None;
        }
        serde_json::to_string(self).ok()
    }

    fn clone_box(&self) -> Box<dyn SpillSink> {
        Box::new(self.clone())
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Install a fresh [`DigestSink`] (scoring under `config`) on a
/// subscriber machine.
pub fn install_digest_sink(machine: &mut RobustReassembler, config: SwitchScoreConfig) {
    machine.attach_spill(Box::new(DigestSink::new(config)));
}

/// Claim the sealed digest matching `session`, if any.
///
/// Mirrors the reassembler's seal/discard rule exactly: a digest was
/// sealed iff the emission had *any* spill activity (media or other
/// entries), so the claim must fire on the same condition to keep the
/// FIFO aligned. The caller should *use* the digest for sketched
/// assessment only when `session.spilled_chunks > 0` — a session whose
/// spill was all non-media entries still has every chunk exact — which
/// is what this returns `Some` for; an other-only spill is claimed and
/// dropped internally.
pub fn claim_digest(
    machine: &mut RobustReassembler,
    session: &ReassembledSession,
) -> Option<SessionDigest> {
    claim_from(machine.spill_sink_mut(), session)
}

/// [`claim_digest`] over any machine's spill sink: the batch path runs
/// the plain `StreamReassembler`, not a [`RobustReassembler`].
pub(crate) fn claim_from(
    sink: Option<&mut (dyn SpillSink + '_)>,
    session: &ReassembledSession,
) -> Option<SessionDigest> {
    if session.spilled_chunks == 0 && session.spilled_other == 0 {
        return None;
    }
    let digest = sink?.as_any_mut().downcast_mut::<DigestSink>()?.claim()?;
    if session.spilled_chunks == 0 {
        // All chunks are exact; the sealed digest only mirrors them.
        return None;
    }
    Some(digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestCaseError;
    use vqoe_player::TransportSummary;
    use vqoe_simnet::time::{Duration, Instant};
    use vqoe_telemetry::{EntryKind, IngestConfig, ReassemblyConfig};

    fn media_entry(t_millis: u64, bytes: u64) -> WeblogEntry {
        WeblogEntry {
            timestamp: Instant::from_millis(t_millis),
            subscriber_id: 7,
            host: "r1---sn-test.googlevideo.com".into(),
            uri: None,
            bytes,
            duration: Duration::from_millis(400),
            transport: TransportSummary {
                rtt_min: 0.02,
                rtt_mean: 0.03,
                rtt_max: 0.05,
                bdp_mean: 60_000.0,
                bif_mean: 30_000.0,
                bif_max: 90_000.0,
                loss_frac: 0.0,
                retx_frac: 0.0,
            },
            encrypted: true,
            kind: EntryKind::MediaChunk,
        }
    }

    fn spilling_machine(cap: usize) -> RobustReassembler {
        let config = ReassemblyConfig {
            exact_entry_cap: cap,
            ..ReassemblyConfig::default()
        };
        let mut m = RobustReassembler::new(config, IngestConfig::default());
        install_digest_sink(&mut m, SwitchScoreConfig::default());
        m
    }

    #[test]
    fn digest_covers_the_whole_session_prefix_included() {
        let mut m = spilling_machine(4);
        let mut health = Default::default();
        let mut anomalies = vqoe_telemetry::AnomalyLog::new(16);
        for i in 0..10u64 {
            let out = m.push(
                &media_entry(i * 2_000, 50_000 + i * 1_000),
                &mut health,
                &mut anomalies,
            );
            assert!(out.is_empty());
        }
        let sessions = m.flush();
        assert_eq!(sessions.len(), 1);
        let s = &sessions[0];
        assert_eq!(s.chunks.len() as u64 + s.spilled_chunks, 10);
        let digest = claim_digest(&mut m, s).expect("spilled session must carry a digest");
        // Prefix replay: the digest saw all 10 chunks, not just the spill.
        assert_eq!(digest.chunk_count(), 10);
    }

    #[test]
    fn under_cap_sessions_claim_nothing() {
        let mut m = spilling_machine(64);
        let mut health = Default::default();
        let mut anomalies = vqoe_telemetry::AnomalyLog::new(16);
        for i in 0..10u64 {
            m.push(&media_entry(i * 2_000, 50_000), &mut health, &mut anomalies);
        }
        let sessions = m.flush();
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].spilled_chunks, 0);
        assert!(claim_digest(&mut m, &sessions[0]).is_none());
    }

    #[test]
    fn sink_state_round_trips_through_json() {
        let mut sink = DigestSink::new(SwitchScoreConfig::default());
        for i in 0..20u64 {
            sink.fold_chunk(&media_entry(i * 1_000, 10_000 + i * 500));
        }
        sink.seal();
        sink.fold_chunk(&media_entry(100_000, 77_000));
        let json = sink.state_json().expect("non-empty sink snapshots");
        let back = DigestSink::from_json(&json).expect("snapshot parses");
        assert_eq!(back, sink);
    }

    #[test]
    fn empty_sink_has_no_state() {
        let sink = DigestSink::new(SwitchScoreConfig::default());
        assert!(sink.state_json().is_none());
    }

    #[test]
    fn fresh_and_discarded_sinks_hold_no_digest() {
        let mut sink = DigestSink::new(SwitchScoreConfig::default());
        assert!(sink.current.is_none() && sink.staged.capacity() == 0);
        assert!(sink.state_json().is_none());
        for i in 0..(SKETCH_CAPACITY as u64 + 5) {
            sink.fold_chunk(&media_entry(i * 1_000, 10_000));
        }
        assert!(sink.current.is_some(), "a full burst builds the digest");
        sink.discard();
        assert!(sink.current.is_none() && sink.staged.capacity() == 0);
        assert!(sink.state_json().is_none());
    }

    /// The sink as it was before chunks were staged: one
    /// `SessionDigest::fold` per chunk into an always-present digest.
    /// Its derived serialization is the checkpoint format.
    #[derive(Serialize)]
    struct EagerSink {
        config: SwitchScoreConfig,
        current: SessionDigest,
        sealed: Vec<SessionDigest>,
    }

    impl EagerSink {
        fn new(config: SwitchScoreConfig) -> Self {
            EagerSink {
                config,
                current: SessionDigest::with_config(config),
                sealed: Vec::new(),
            }
        }

        fn fold_chunk(&mut self, e: &WeblogEntry) {
            self.current.fold(&ChunkObs::from(e));
        }

        fn seal(&mut self) {
            let finished =
                std::mem::replace(&mut self.current, SessionDigest::with_config(self.config));
            self.sealed.push(finished);
        }

        fn discard(&mut self) {
            self.current = SessionDigest::with_config(self.config);
        }

        fn claim(&mut self) -> Option<SessionDigest> {
            (!self.sealed.is_empty()).then(|| self.sealed.remove(0))
        }

        fn state_json(&self) -> Option<String> {
            if self.current.features.is_empty() && self.sealed.is_empty() {
                return None;
            }
            serde_json::to_string(self).ok()
        }
    }

    fn bytes(claimed: &Option<SessionDigest>) -> String {
        serde_json::to_string(claimed).expect("digests serialize")
    }

    /// One step of a sink's life: fold a run of chunks, seal, discard,
    /// claim, or snapshot and carry on from the restored copy.
    fn apply(
        op: (u8, usize),
        next: &mut u64,
        staged: &mut DigestSink,
        eager: &mut EagerSink,
        unbroken: &mut DigestSink,
    ) -> Result<(), TestCaseError> {
        let (kind, n) = op;
        match kind {
            0 | 1 => {
                // Runs that end one short of, on, and one past a full
                // burst, and arbitrary ones.
                let run = if kind == 0 { 63 + n % 3 } else { n };
                for _ in 0..run {
                    let t = *next;
                    *next += 1;
                    let e = media_entry(t * 1_700, 20_000 + (t * 7_919) % 90_000);
                    staged.fold_chunk(&e);
                    eager.fold_chunk(&e);
                    unbroken.fold_chunk(&e);
                }
            }
            2 => {
                staged.seal();
                eager.seal();
                unbroken.seal();
            }
            3 => {
                staged.discard();
                eager.discard();
                unbroken.discard();
            }
            4 => {
                let claimed = bytes(&staged.claim());
                prop_assert_eq!(&claimed, &bytes(&eager.claim()));
                prop_assert_eq!(&claimed, &bytes(&unbroken.claim()));
            }
            _ => {
                // Snapshot mid-stream; `staged` continues from the
                // restored copy, `unbroken` never stops.
                let json = staged.state_json();
                prop_assert_eq!(&json, &eager.state_json());
                if let Some(json) = json {
                    *staged = DigestSink::from_json(&json).expect("snapshot parses");
                }
            }
        }
        prop_assert_eq!(staged.state_json(), eager.state_json());
        prop_assert_eq!(staged.state_json(), unbroken.state_json());
        Ok(())
    }

    proptest! {
        #[test]
        fn prop_staged_fold_matches_the_eager_fold(
            ops in proptest::collection::vec((0u8..6, 0usize..200), 1..24),
        ) {
            let config = SwitchScoreConfig::default();
            let mut staged = DigestSink::new(config);
            let mut eager = EagerSink::new(config);
            let mut unbroken = DigestSink::new(config);
            let mut next = 0u64;
            for &op in &ops {
                apply(op, &mut next, &mut staged, &mut eager, &mut unbroken)?;
            }
            staged.seal();
            eager.seal();
            unbroken.seal();
            // Every claimed digest, byte for byte, then nothing more.
            loop {
                let expected = eager.claim();
                prop_assert_eq!(bytes(&staged.claim()), bytes(&expected));
                prop_assert_eq!(bytes(&unbroken.claim()), bytes(&expected));
                if expected.is_none() {
                    break;
                }
            }
        }
    }
}

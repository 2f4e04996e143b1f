//! The sharded parallel assessment engine.
//!
//! The paper's monitor sits behind an operator tap carrying "heavy
//! traffic from millions of users"; after §5.2 reassembly, subscribers
//! are mutually independent, which makes the subscriber the natural
//! unit of parallelism. [`AssessmentEngine`] exploits that:
//!
//! 1. **Shard** — every weblog entry is routed to one of
//!    [`EngineConfig::shards`] shards by a deterministic hash of its
//!    subscriber id ([`shard_of`]), so a subscriber's whole stream
//!    lands on exactly one shard.
//! 2. **Fan out** — shard jobs flow through a bounded work queue (depth
//!    [`EngineConfig::queue_depth`], producer blocks when workers fall
//!    behind — backpressure, not unbounded buffering) onto
//!    [`EngineConfig::workers`] threads using the same vendored
//!    `crossbeam::scope` pattern as `crate::generate`. Each worker runs
//!    reassembly → feature construction → frozen-model inference for
//!    its shard's subscribers one at a time, so peak open reassembly
//!    state is one subscriber per worker.
//! 3. **Reduce** — per-shard results carry *emission keys* that encode
//!    where the sequential [`OnlineAssessor`](crate::online::OnlineAssessor)
//!    would have emitted each assessment; a deterministic ordered merge
//!    sorts on those keys, so the output is **bit-identical** to the
//!    sequential path at any worker count (asserted by the
//!    `engine_parallel` integration tests). [`StreamHealth`] counters
//!    sum per shard, and the per-shard [`AnomalyLog`]s merge back into
//!    exactly the global first-`cap` record set.
//!
//! Emission keys: an assessment produced while pushing the entry with
//! global arrival index `g` gets key `(0, g, k)` (`k` = its position in
//! that push's output); an assessment emitted by the end-of-stream
//! finish of subscriber `s` gets `(1, s, k)`. Sorting reproduces the
//! sequential order exactly: mid-stream emissions in arrival order
//! first, then finish emissions in subscriber-id order (the order
//! `OnlineAssessor::finish` walks its subscriber map).

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex as StdMutex};

use vqoe_obs::{SimClock, StageSpan, Trace, TraceConfig, TraceEvent, TraceSink, TraceStage};
use vqoe_telemetry::{
    AnomalyKindCounts, AnomalyLog, IngestAnomaly, IngestConfig, StreamHealth, WeblogEntry,
};

use crate::lane::{self, Claimed, SubscriberLane};
use crate::metrics::PipelineMetrics;
use crate::monitor::{Fidelity, QoeMonitor, SessionAssessment};
use crate::online::{IngestReport, ShedLog};
use crate::subscribe::SubscriptionSet;

/// Knobs of the parallel engine. All defaults are safe for production;
/// the output is bit-identical for every combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads. `0` means auto: `available_parallelism`, capped
    /// at 16 (the same policy as parallel trace generation).
    pub workers: usize,
    /// Number of shards the subscriber space is hashed onto. More
    /// shards than workers keeps the queue busy when shard sizes are
    /// skewed.
    pub shards: usize,
    /// Bounded work-queue depth: at most this many shard jobs are
    /// in flight beyond the ones workers already hold; the producer
    /// blocks (backpressure) rather than buffering without bound.
    pub queue_depth: usize,
    /// Simulated per-shard tap-read latency in microseconds, for
    /// throughput harnesses that model an I/O-bound tap (each worker
    /// sleeps this long before processing a shard job, as if paging
    /// the shard's slice from the tap spool). Production paths leave
    /// this at 0; it never affects output, only timing.
    pub shard_pacing_micros: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            shards: 32,
            queue_depth: 8,
            shard_pacing_micros: 0,
        }
    }
}

impl EngineConfig {
    /// The effective worker count: `workers`, with `0` resolved to the
    /// machine's available parallelism (capped at 16), and never more
    /// than the shard count (excess workers would only idle).
    pub fn effective_workers(&self) -> usize {
        let auto = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .min(16);
        let w = if self.workers == 0 {
            auto
        } else {
            self.workers
        };
        w.max(1).min(self.shards.max(1))
    }
}

/// Deterministic shard routing: a splitmix64 finalizer over the
/// subscriber id, reduced modulo `shards`. Stable across runs and
/// platforms, well-mixed even for sequential ids.
pub fn shard_of(subscriber_id: u64, shards: usize) -> usize {
    let mut z = subscriber_id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards.max(1) as u64) as usize
}

/// One shard's work: which global entry indices (in arrival order)
/// belong to it.
struct ShardJob {
    shard: usize,
    entry_indices: Vec<u32>,
}

/// Where in the sequential emission order an assessment belongs:
/// `(phase, major, minor)` — see the module docs.
type EmissionKey = (u8, u64, u32);

/// Everything one shard produced, tagged for the ordered reduction.
struct ShardOutput {
    emissions: Vec<(EmissionKey, SessionAssessment)>,
    health: StreamHealth,
    /// Kept anomalies tagged with their global entry index, sorted by
    /// it, truncated to the log cap (a superset of this shard's
    /// contribution to the global first-`cap` set).
    anomalies: Vec<(u64, IngestAnomaly)>,
    anomaly_total: u64,
    /// Exact per-kind quarantine counts for this shard (not capped).
    kinds: AnomalyKindCounts,
    /// Span events recorded by this shard job (empty when tracing is
    /// off). Like everything else in this struct they travel back
    /// through the worker's join handle — the hot path never touches a
    /// shared sink.
    trace: Vec<TraceEvent>,
    /// Events the shard's bounded sink had to drop.
    trace_dropped: u64,
}

/// A bounded single-producer / multi-consumer job queue. `push` blocks
/// while the queue is full — that is the engine's backpressure: the
/// producer can never race ahead of the workers by more than
/// `queue_depth` shard jobs.
struct BoundedQueue<T> {
    state: StdMutex<QueueState<T>>,
    readable: Condvar,
    writable: Condvar,
    depth: usize,
}

struct QueueState<T> {
    items: std::collections::VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    fn new(depth: usize) -> Self {
        BoundedQueue {
            state: StdMutex::new(QueueState {
                items: std::collections::VecDeque::new(),
                closed: false,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// A poisoned lock means a worker already panicked; the surrounding
    /// `crossbeam::scope` re-raises that panic, so recovering the guard
    /// here only lets shutdown proceed.
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueue one item, blocking while the queue is full. Returns
    /// `true` when the push had to wait on backpressure at least once
    /// (a scheduling-dependent signal, surfaced as a `Runtime`-class
    /// metric only).
    fn push(&self, item: T) -> bool {
        let mut s = self.lock();
        let mut stalled = false;
        while s.items.len() >= self.depth {
            stalled = true;
            s = self.writable.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        s.items.push_back(item);
        drop(s);
        self.readable.notify_one();
        stalled
    }

    /// Jobs currently waiting (racy by nature; metrics use only).
    fn len(&self) -> usize {
        self.lock().items.len()
    }

    fn pop(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if let Some(item) = s.items.pop_front() {
                drop(s);
                self.writable.notify_one();
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.readable.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.readable.notify_all();
    }
}

/// The sharded parallel assessment engine: a frozen [`QoeMonitor`]
/// fanned out over worker threads, with output bit-identical to the
/// sequential streaming path.
#[derive(Debug, Clone)]
pub struct AssessmentEngine<'a> {
    monitor: &'a QoeMonitor,
    config: EngineConfig,
    ingest_cfg: IngestConfig,
    metrics: Option<PipelineMetrics>,
}

impl<'a> AssessmentEngine<'a> {
    /// Wrap a trained monitor with default hardening parameters.
    pub fn new(monitor: &'a QoeMonitor, config: EngineConfig) -> Self {
        AssessmentEngine::with_ingest(monitor, config, IngestConfig::default())
    }

    /// Wrap a trained monitor with explicit hardening parameters.
    pub fn with_ingest(
        monitor: &'a QoeMonitor,
        config: EngineConfig,
        ingest_cfg: IngestConfig,
    ) -> Self {
        AssessmentEngine {
            monitor,
            config,
            ingest_cfg,
            metrics: None,
        }
    }

    /// Attach a [`PipelineMetrics`] handle bundle: workers record
    /// per-shard-job deltas into it during [`AssessmentEngine::assess`].
    /// The assessment output is bit-identical with or without metrics.
    pub fn with_metrics(mut self, metrics: PipelineMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The engine configuration in effect.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Assess a whole tap capture (any mix of subscribers, in arrival
    /// order) in parallel. Equivalent to feeding every entry through an
    /// [`OnlineAssessor`](crate::online::OnlineAssessor) with the same
    /// [`IngestConfig`] and unlimited subscriber slots, but sharded
    /// across [`EngineConfig::effective_workers`] threads — and
    /// bit-identical to that sequential run, including the health
    /// counters and the anomaly log.
    pub fn assess(&self, entries: &[WeblogEntry]) -> IngestReport {
        self.assess_inner(entries, None).0
    }

    /// Like [`AssessmentEngine::assess`], with session tracing: every
    /// emitted session records its typed span chain (ingest →
    /// reassemble → subscription fan-out → per-detector deliver) into a
    /// per-shard-job bounded [`TraceSink`], and the reducer merges the
    /// sinks in emission-key order into one [`Trace`]. Every span is a
    /// pure function of the input (deterministic ticks, no wall clock),
    /// so the trace is byte-stable across runs and worker counts — and
    /// the report stays bit-identical to the untraced pass.
    pub fn assess_traced(
        &self,
        entries: &[WeblogEntry],
        trace_cfg: TraceConfig,
    ) -> (IngestReport, Trace) {
        let (report, trace) = self.assess_inner(entries, Some(trace_cfg));
        (report, trace.unwrap_or_default())
    }

    fn assess_inner(
        &self,
        entries: &[WeblogEntry],
        trace_cfg: Option<TraceConfig>,
    ) -> (IngestReport, Option<Trace>) {
        // One subscription set for the whole pass, shared by reference
        // across every worker: the detectors are registered once, and
        // each reassembled session is fanned out to them as one
        // immutable view.
        let subs = SubscriptionSet::standard(self.monitor);
        let shards = self.config.shards.max(1);
        // Route each arrival to its shard; per-shard index lists keep
        // the global arrival order (indices ascend).
        let mut by_shard: Vec<Vec<u32>> = vec![Vec::new(); shards];
        for (g, e) in entries.iter().enumerate() {
            by_shard[shard_of(e.subscriber_id, shards)].push(g as u32);
        }

        let workers = self.config.effective_workers();
        let queue: BoundedQueue<ShardJob> = BoundedQueue::new(self.config.queue_depth);
        let pacing = self.config.shard_pacing_micros;

        let result = crossbeam::thread::scope(|scope| {
            // Workers keep their shard outputs in a private
            // `(shard, output)` vector — no shared lock on the hot path
            // — and hand it back through their join handle; the scatter
            // after the joins restores shard order.
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|_| {
                        let mut local: Vec<(usize, ShardOutput)> = Vec::new();
                        while let Some(job) = queue.pop() {
                            if pacing > 0 {
                                // Harness-only: model the tap-spool read
                                // for this shard's slice (I/O-bound
                                // regime).
                                std::thread::sleep(std::time::Duration::from_micros(pacing));
                            }
                            let out =
                                self.process_shard(&subs, entries, &job.entry_indices, trace_cfg);
                            local.push((job.shard, out));
                        }
                        local
                    })
                })
                .collect();
            // Produce shard jobs on the calling thread; `push` blocks
            // when `queue_depth` jobs are already waiting. The queue
            // must close before the joins below, or the workers would
            // never exit their pop loops.
            for (shard, entry_indices) in by_shard.into_iter().enumerate() {
                let stalled = queue.push(ShardJob {
                    shard,
                    entry_indices,
                });
                if let Some(m) = &self.metrics {
                    if stalled {
                        m.queue_stalls.inc();
                    }
                    m.queue_depth.set(queue.len() as i64);
                }
            }
            queue.close();
            let mut pairs: Vec<(usize, ShardOutput)> = Vec::with_capacity(shards);
            for h in handles {
                match h.join() {
                    Ok(local) => pairs.extend(local),
                    Err(p) => std::panic::resume_unwind(p),
                }
            }
            pairs.sort_by_key(|&(shard, _)| shard);
            pairs.into_iter().map(|(_, out)| out).collect()
        });
        let outputs: Vec<ShardOutput> = match result {
            Ok(outputs) => outputs,
            // A worker panic is a bug in the pipeline itself;
            // re-raising it is the only sane response.
            Err(p) => std::panic::resume_unwind(p),
        };
        self.reduce(outputs, trace_cfg.is_some())
    }

    /// Run one shard: its subscribers one at a time, each through a
    /// fresh unbudgeted [`SubscriberLane`], recording emission keys and
    /// tagging kept anomalies with their global entry index.
    fn process_shard(
        &self,
        subs: &SubscriptionSet<'_>,
        entries: &[WeblogEntry],
        indices: &[u32],
        trace_cfg: Option<TraceConfig>,
    ) -> ShardOutput {
        // Group the shard's arrivals per subscriber, preserving arrival
        // order inside each group. BTreeMap: worker code must never
        // iterate a HashMap (vqoe-analyze `hashmap-iter` gate).
        let mut per_subscriber: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for &g in indices {
            per_subscriber
                .entry(entries[g as usize].subscriber_id)
                .or_default()
                .push(g);
        }

        let cap = self.ingest_cfg.max_anomalies_kept;
        let mut out = ShardOutput {
            emissions: Vec::new(),
            health: StreamHealth::default(),
            anomalies: Vec::new(),
            anomaly_total: 0,
            kinds: AnomalyKindCounts::default(),
            trace: Vec::new(),
            trace_dropped: 0,
        };
        // This job's private trace sink: recorded into without locks,
        // handed back through the join handle with everything else.
        let mut sink = trace_cfg.map(|c| TraceSink::with_capacity(c.capacity_per_shard));
        // Deterministic stage timing: the worker's clock advances one
        // tick per entry processed, so the span length is the shard's
        // entry count — identical at any worker count.
        let clock = SimClock::new();
        let metrics = self.metrics.as_ref();
        let span = metrics.map(|m| StageSpan::start(&clock, &m.stage_ticks));
        for (&subscriber, subscriber_indices) in &per_subscriber {
            let mut lane = SubscriberLane::new(self.monitor, self.ingest_cfg);
            let mut emit = |key: EmissionKey, claimed: &Claimed| {
                let trace = sink.as_mut().map(|t| (t, key, subscriber));
                let a = lane::assess(subs, metrics, claimed, Fidelity::Full, trace);
                out.emissions.push((key, a));
            };
            // Per-subscriber scratch log: its entries arrive in global
            // order, so its first `cap` records are exactly the
            // subscriber's candidates for the global first-`cap` set.
            let mut log = AnomalyLog::new(cap);
            let mut tagged: Vec<(u64, IngestAnomaly)> = Vec::new();
            let mut prev_kept = 0usize;
            for &g in subscriber_indices {
                let e = &entries[g as usize];
                out.health.entries_seen += 1;
                clock.advance(1);
                let sessions = lane.push(e, &mut out.health, &mut log);
                for a in &log.kept()[prev_kept..] {
                    tagged.push((g as u64, *a));
                }
                prev_kept = log.kept().len();
                for (k, c) in sessions.iter().enumerate() {
                    emit((0, g as u64, k as u32), c);
                }
            }
            for (k, c) in lane.flush().iter().enumerate() {
                emit((1, subscriber, k as u32), c);
            }
            out.anomaly_total += log.total();
            out.kinds.absorb(&log.kinds());
            // Keep the shard's anomaly memory bounded: merge this
            // subscriber's tagged records in (both lists are sorted by
            // global index) and retain only the earliest `cap`.
            if !tagged.is_empty() {
                out.anomalies.extend(tagged);
                out.anomalies.sort_by_key(|&(g, _)| g);
                out.anomalies.truncate(cap);
            }
        }
        if let Some(span) = span {
            let ticks = span.finish();
            if let Some(m) = metrics {
                m.shard_jobs.inc();
                m.worker_busy_ticks.add(ticks);
                m.observe_health_delta(&StreamHealth::default(), &out.health);
                m.observe_kind_delta(&AnomalyKindCounts::default(), &out.kinds);
            }
        }
        if let Some(sink) = sink {
            let (events, dropped) = sink.into_parts();
            out.trace = events;
            out.trace_dropped = dropped;
        }
        out
    }

    /// The deterministic ordered reducer: sort emissions on their keys,
    /// sum health counters, merge anomaly logs back into global arrival
    /// order.
    fn reduce(&self, outputs: Vec<ShardOutput>, traced: bool) -> (IngestReport, Option<Trace>) {
        let mut emissions: Vec<(EmissionKey, SessionAssessment)> = Vec::new();
        let mut health = StreamHealth::default();
        let mut shard_health = Vec::with_capacity(outputs.len());
        let mut anomalies: Vec<(u64, IngestAnomaly)> = Vec::new();
        let mut anomaly_total = 0u64;
        let mut kinds = AnomalyKindCounts::default();
        let mut trace_events: Vec<TraceEvent> = Vec::new();
        let mut trace_dropped = 0u64;
        for out in outputs {
            if let Some(m) = &self.metrics {
                m.reduce_merge_size.observe(out.emissions.len() as u64);
            }
            emissions.extend(out.emissions);
            shard_health.push(out.health);
            health.absorb(&out.health);
            anomalies.extend(out.anomalies);
            anomaly_total += out.anomaly_total;
            kinds.absorb(&out.kinds);
            trace_events.extend(out.trace);
            trace_dropped += out.trace_dropped;
        }
        // Keys are unique (at most one anomaly and one emission batch
        // per entry), so an unstable sort is deterministic here.
        emissions.sort_unstable_by_key(|&(key, _)| key);
        anomalies.sort_unstable_by_key(|&(g, _)| g);
        let trace = traced.then(|| {
            // One closing span for the reducer itself, keyed after
            // every per-session key (phase 2): ticks = emissions
            // merged, a pure function of the input.
            trace_events.push(TraceEvent {
                key: (2, 0, 0),
                seq: 0,
                stage: TraceStage::Reduce,
                subscriber: 0,
                session: 0,
                start_tick: 0,
                dur_ticks: emissions.len() as u64,
                detail: "",
            });
            Trace::from_parts(trace_events, trace_dropped)
        });
        // An exact-size buffer: collecting in place would keep the larger
        // (key, assessment) allocation, growth slack included, alive for
        // as long as the caller holds the report.
        let mut assessments = Vec::with_capacity(emissions.len());
        assessments.extend(emissions.into_iter().map(|(_, a)| a));
        let cap = self.ingest_cfg.max_anomalies_kept;
        let report = IngestReport {
            assessments,
            health,
            shard_health,
            anomalies: AnomalyLog::from_parts(
                cap,
                anomalies.into_iter().map(|(_, a)| a).collect(),
                anomaly_total,
                kinds,
            ),
            // The batch engine never sheds: each worker holds exactly
            // one subscriber's machine at a time, so memory budgets are
            // a streaming-path concern. An empty log with the same cap
            // keeps engine reports comparable (and equal, unbudgeted)
            // to streaming reports.
            shed: ShedLog::new(cap),
            alerts: Vec::new(),
        };
        (report, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for id in 0..1000u64 {
            let s = shard_of(id, 32);
            assert!(s < 32);
            assert_eq!(s, shard_of(id, 32));
        }
        assert_eq!(shard_of(7, 0), 0, "degenerate shard count clamps");
    }

    #[test]
    fn shard_routing_spreads_sequential_ids() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for id in 0..800u64 {
            counts[shard_of(id, shards)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(c > 40, "shard {s} starved: {c} of 800");
        }
    }

    #[test]
    fn effective_workers_clamps_to_shards() {
        let cfg = EngineConfig {
            workers: 64,
            shards: 3,
            ..EngineConfig::default()
        };
        assert_eq!(cfg.effective_workers(), 3);
        let auto = EngineConfig::default().effective_workers();
        assert!((1..=16).contains(&auto));
    }

    #[test]
    fn bounded_queue_delivers_everything_once_despite_backpressure() {
        let q: BoundedQueue<usize> = BoundedQueue::new(2);
        let total = 100usize;
        let got = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|_| {
                        let mut local = Vec::new();
                        while let Some(v) = q.pop() {
                            local.push(v);
                        }
                        local
                    })
                })
                .collect();
            for v in 0..total {
                q.push(v);
            }
            q.close();
            let mut all: Vec<usize> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("consumer thread"))
                .collect();
            all.sort_unstable();
            all
        })
        .expect("queue test scope");
        assert_eq!(got, (0..total).collect::<Vec<_>>());
    }
}

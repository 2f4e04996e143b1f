//! Set-up: train the monitor and generate and pack each workload's tap.
//!
//! Every input is derived from the `--seed` argument. The assessment
//! path only ever sees the packed records; ground truth stays here for
//! scoring outside the timed phase.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vqoe_changedet::SwitchScoreConfig;
use vqoe_core::avgrep_pipeline::train_representation_detector_with;
use vqoe_core::stall_pipeline::train_stall_detector_with;
use vqoe_core::{
    generate_sequential_traces, generate_traces, DatasetSpec, QoeMonitor, SwitchModel, TrainConfig,
    TrainingConfig,
};
use vqoe_ml::par::splitmix64;
use vqoe_ml::ForestConfig;
use vqoe_player::{SessionTrace, TransportSummary};
use vqoe_simnet::time::{Duration as SimDuration, Instant as SimInstant};
use vqoe_telemetry::capture::generate_noise;
use vqoe_telemetry::{
    apply_chaos, capture_session, BinaryCorpus, CaptureConfig, ChaosConfig, EntryKind,
    ReassemblyConfig, WeblogEntry,
};

use crate::trace::Tracer;
use crate::Workload;

/// Training corpus: the smoke scale of the reproduction harness, from a
/// fixed seed — one shipped model, as an operator deploys it. Models
/// retrained per run seed differed in prediction cost and accuracy by
/// more than the bounds this benchmark gates on; the tap, which is
/// what the monitor measures, varies with the run seed.
const CLEARTEXT_SESSIONS: usize = 800;
const ADAPTIVE_SESSIONS: usize = 400;
const TRAINING_SEED: u64 = 2016;

/// Simulated taps: subscribers, each playing this many sequential
/// sessions of the §5 encrypted DASH mix, with background noise.
pub const SIM_SUBSCRIBERS: u64 = 256;
const SIM_SESSIONS: usize = 16;
const SIM_MEAN_GAP_SECS: f64 = 240.0;
const SIM_NOISE_PER_SESSION: usize = 12;
/// Subscriber timelines start at staggered offsets within this window,
/// so that concurrent sessions never share a start instant.
const SIM_OFFSET_WINDOW_US: u64 = 600_000_000;

/// Flood shape: concurrent subscribers (a multiple of `FLOOD_LONG_EVERY`).
pub const FLOOD_SUBSCRIBERS: u64 = 200_000;
pub const FLOOD_SHORT_CHUNKS: u64 = 4;
pub const FLOOD_LONG_CHUNKS: u64 = 512;
/// One subscriber in this many plays the long session.
pub const FLOOD_LONG_EVERY: u64 = 64;
/// Lowered exactness cap, so the long sessions cross into the sketched tier.
pub const FLOOD_EXACT_CAP: usize = 64;
const FLOOD_WAVE_US: u64 = 2_000_000;

/// One simulated subscriber's ground truth.
pub struct SimSubscriber {
    pub id: u64,
    /// Shift applied to every record of this subscriber, µs.
    pub offset_us: u64,
    pub traces: Vec<SessionTrace>,
}

/// What the scorer compares assessments against.
pub enum Truth {
    /// Simulator ground truth per subscriber.
    Simulated(Vec<SimSubscriber>),
    /// The synthetic flood: its reference is the exact-path assessment
    /// of the same records.
    Flood(Flood),
}

/// A packed tap: the records in arrival order, in one or more segments.
pub struct Tap {
    pub segments: Vec<BinaryCorpus>,
    /// Subscribers concurrently active on the tap.
    pub subscribers: u64,
    pub truth: Truth,
}

/// One finished set-up.
pub struct Setup {
    pub monitor: QoeMonitor,
    pub tap: Tap,
}

/// Seeds of the independent inputs of one run.
fn derive(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream))
}

fn training_config() -> TrainingConfig {
    TrainingConfig::builder()
        .cleartext_sessions(CLEARTEXT_SESSIONS)
        .adaptive_sessions(ADAPTIVE_SESSIONS)
        .seed(TRAINING_SEED)
        .workers(crate::sys::nproc())
        .build()
        .expect("smoke-scale training configuration is valid")
}

/// Train through the public entry point (what an operator runs).
pub fn train() -> QoeMonitor {
    QoeMonitor::train(&training_config())
}

/// Train through the same steps as [`QoeMonitor::train`], called one
/// by one inside spans: `simnet.generate`, `ml.train`,
/// `changedet.calibrate`.
pub fn train_traced(tracer: &mut Tracer) -> QoeMonitor {
    let cfg = training_config();
    let generate = tracer.name("simnet.generate");
    let fit = tracer.name("ml.train");
    let calibrate = tracer.name("changedet.calibrate");
    let (cleartext, adaptive) = tracer.span(generate, || {
        (
            generate_traces(&DatasetSpec::cleartext_default(
                cfg.cleartext_sessions,
                cfg.seed,
            )),
            generate_traces(&DatasetSpec::adaptive_default(
                cfg.adaptive_sessions,
                cfg.seed ^ 0xADA7,
            )),
        )
    });
    let mut stall_corpus = cleartext;
    stall_corpus.extend(adaptive.iter().cloned());
    let forest: ForestConfig = cfg.forest;
    let train: TrainConfig = cfg.train;
    let (stall, representation) = tracer.span(fit, || {
        (
            train_stall_detector_with(&stall_corpus, forest, cfg.seed, train, None).model,
            train_representation_detector_with(&adaptive, forest, cfg.seed, train, None).model,
        )
    });
    let scoring: SwitchScoreConfig = cfg.switch_scoring;
    let switch = tracer.span(calibrate, || {
        SwitchModel::calibrate(&adaptive, scoring).model
    });
    QoeMonitor {
        stall_model: stall,
        representation_model: representation,
        switch_model: switch,
        reassembly: ReassemblyConfig::default(),
    }
}

/// Generate and pack the workload's tap; `tracer` (when given) times
/// generation as `simnet.generate` and packing as `telemetry.pack`.
pub fn build_tap(workload: Workload, seed: u64, mut tracer: Option<&mut Tracer>) -> Tap {
    let mut timed = |name: &'static str, f: &mut dyn FnMut()| match tracer.as_deref_mut() {
        Some(t) => {
            let id = t.name(name);
            t.span(id, f)
        }
        None => f(),
    };
    match workload {
        Workload::Replay | Workload::LiveTap => {
            let salt = if workload == Workload::Replay { 2 } else { 3 };
            let mut generated = None;
            timed("simnet.generate", &mut || {
                generated = Some(simulated_tap(derive(seed, salt)));
            });
            let (mut entries, subscribers) = generated.expect("generation ran");
            if workload == Workload::LiveTap {
                timed("telemetry.chaos", &mut || {
                    entries = apply_chaos(&entries, &live_tap_faults(), derive(seed, 4)).0;
                });
            }
            let mut corpus = None;
            timed("telemetry.pack", &mut || {
                corpus = Some(BinaryCorpus::pack(&entries));
            });
            Tap {
                segments: vec![corpus.expect("packing ran")],
                subscribers: SIM_SUBSCRIBERS,
                truth: Truth::Simulated(subscribers),
            }
        }
        Workload::LiveFlood => {
            let flood = Flood {
                seed: derive(seed, 5),
            };
            // One segment per wave keeps the unpacked records of only
            // one wave in memory at a time.
            let mut segments = Vec::new();
            for k in 0..FLOOD_LONG_CHUNKS {
                let mut wave = Vec::new();
                timed("simnet.generate", &mut || wave = flood.wave(k));
                timed("telemetry.pack", &mut || {
                    segments.push(BinaryCorpus::pack(&wave));
                });
            }
            Tap {
                segments,
                subscribers: FLOOD_SUBSCRIBERS,
                truth: Truth::Flood(flood),
            }
        }
    }
}

/// The live-tap fault mix: reorder, duplicate, skew and corrupt at the
/// `uniform(0.1)` rates. Drops, subscriber collisions and cuts stay off:
/// cuts alone removed 30% of the records in a trial run, which would
/// measure where the cuts landed rather than the hardening layer.
pub fn live_tap_faults() -> ChaosConfig {
    ChaosConfig {
        drop: 0.0,
        collide: 0.0,
        cut: 0.0,
        ..ChaosConfig::uniform(0.1)
    }
}

/// `SIM_SUBSCRIBERS` subscribers' encrypted sessions and noise, merged
/// in timestamp order, generated on up to `nproc` threads.
fn simulated_tap(seed: u64) -> (Vec<WeblogEntry>, Vec<SimSubscriber>) {
    let workers = crate::sys::nproc() as u64;
    let mut per_subscriber: Vec<(SimSubscriber, Vec<WeblogEntry>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    (w..SIM_SUBSCRIBERS)
                        .step_by(workers as usize)
                        .map(|s| simulated_subscriber(seed, s))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("tap generation thread"))
            .collect()
    });
    per_subscriber.sort_by_key(|(s, _)| s.id);
    let mut entries: Vec<WeblogEntry> = Vec::new();
    let mut subscribers = Vec::with_capacity(per_subscriber.len());
    for (sub, e) in per_subscriber {
        entries.extend(e);
        subscribers.push(sub);
    }
    entries.sort_by_key(|e| e.timestamp);
    (entries, subscribers)
}

fn simulated_subscriber(seed: u64, id: u64) -> (SimSubscriber, Vec<WeblogEntry>) {
    let sub_seed = derive(seed, 0x5B00_0000 + id);
    let mut spec = DatasetSpec::encrypted_default(sub_seed);
    spec.n_sessions = SIM_SESSIONS;
    let traces = generate_sequential_traces(&spec, SIM_MEAN_GAP_SECS);
    let mut rng = StdRng::seed_from_u64(sub_seed ^ 0xE7C9_11AA);
    let capture = CaptureConfig {
        encrypted: true,
        subscriber_id: id,
    };
    let mut entries = Vec::new();
    for trace in &traces {
        entries.extend(capture_session(trace, &capture, &mut rng).expect("simulated capture"));
    }
    if let (Some(first), Some(last)) = (traces.first(), traces.last()) {
        entries.extend(generate_noise(
            id,
            first.config.start_time,
            last.ground_truth.session_end,
            SIM_NOISE_PER_SESSION * traces.len(),
            &mut rng,
        ));
    }
    let offset_us = splitmix64(sub_seed) % SIM_OFFSET_WINDOW_US;
    for e in &mut entries {
        e.timestamp = SimInstant(e.timestamp.as_micros() + offset_us);
    }
    (
        SimSubscriber {
            id,
            offset_us,
            traces,
        },
        entries,
    )
}

/// The synthetic subscriber flood: every subscriber plays a
/// `FLOOD_SHORT_CHUNKS`-chunk session, one in `FLOOD_LONG_EVERY` a
/// `FLOOD_LONG_CHUNKS`-chunk one, all concurrently, one chunk per
/// subscriber per 2-second wave.
pub struct Flood {
    pub seed: u64,
}

impl Flood {
    /// Number of chunks subscriber `s` plays.
    pub fn chunks_of(s: u64) -> u64 {
        if s.is_multiple_of(FLOOD_LONG_EVERY) {
            FLOOD_LONG_CHUNKS
        } else {
            FLOOD_SHORT_CHUNKS
        }
    }

    /// Chunk `k` of subscriber `s`.
    pub fn entry(&self, s: u64, k: u64) -> WeblogEntry {
        let h = splitmix64(self.seed ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (k << 40));
        let bits = |shift: u32, modulus: u64| (h >> shift) % modulus;
        let rtt = 0.020 + bits(8, 40) as f64 * 0.001;
        let loss = bits(16, 8) as f64 * 0.001;
        WeblogEntry {
            // The within-wave stagger stays under a second, so one
            // subscriber's chunks arrive in order, 1–3 s apart.
            timestamp: SimInstant(k * FLOOD_WAVE_US + (s % 997) * 1_000 + bits(24, 1_000)),
            subscriber_id: s,
            host: "r7---sn-scale.googlevideo.com".to_string(),
            uri: None,
            bytes: 150_000 + bits(34, 120_000),
            duration: SimDuration::from_millis(300 + bits(52, 300)),
            transport: TransportSummary {
                rtt_min: rtt * 0.7,
                rtt_mean: rtt,
                rtt_max: rtt * 1.8,
                bdp_mean: 80_000.0,
                bif_mean: 30_000.0,
                bif_max: 60_000.0,
                loss_frac: loss,
                retx_frac: loss * 2.0,
            },
            encrypted: true,
            kind: EntryKind::MediaChunk,
        }
    }

    /// Wave `k`: chunk `k` of every subscriber still playing, by id.
    pub fn wave(&self, k: u64) -> Vec<WeblogEntry> {
        if k < FLOOD_SHORT_CHUNKS {
            (0..FLOOD_SUBSCRIBERS).map(|s| self.entry(s, k)).collect()
        } else {
            (0..FLOOD_SUBSCRIBERS)
                .step_by(FLOOD_LONG_EVERY as usize)
                .map(|s| self.entry(s, k))
                .collect()
        }
    }
}

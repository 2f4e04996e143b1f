//! Machine-speed calibration.
//!
//! The benchmark shares its host with other tenants, whose load slows
//! this process's code by up to 2× for minutes at a time (on the 2-core
//! reference box a fixed random-access loop ran between 0.16 s and
//! 0.31 s within one minute; CPU time rose with wall time, so the cause
//! is contention for caches and memory, not preemption). A fixed probe
//! runs between and inside the timed passes, and every end-to-end
//! timing is divided by the slowdown the probes measured over it. The
//! probe shares no code with the monitor, so a change to the monitor
//! moves the timed work and not the probe.
//!
//! Two probes, because the workloads are limited by different things:
//!
//! - [`Limit::Core`] sorts fresh floats in a buffer that stays in the
//!   core's own caches. It tracks replay, live-tap and set-up, whose
//!   working sets are a few hundred MB: over 4–6 runs rescaling by it
//!   cut the spread of their throughput from 20–45% to 4–8%.
//! - [`Limit::Memory`] also walks a random cycle through 32 MiB, one
//!   dependent load at a time, and takes the geometric mean of the two
//!   parts. It tracks the flood, whose 1.2 GB of subscriber state
//!   misses every cache: over 10 flood passes the walk correlated 0.89
//!   with pass time and the sort 0.79, and the mean cut the passes'
//!   coefficient of variation from 7.3% to 4.7% and the drains' from
//!   6.6% to 4.5%. The flood evicts the walk's lines between probes
//!   whatever its own footprint, so the walk measures DRAM latency
//!   there; on the smaller workloads it would stay in the shared L3 and
//!   measure the monitor's footprint instead, which is why they use the
//!   sort alone.

use std::hint::black_box;
use std::time::Instant;
use vqoe_ml::par::splitmix64;

/// What bounds a workload's speed, and so which probe tracks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limit {
    Core,
    Memory,
}

/// Probe times on the reference box when no other tenant is busy.
const SORT_NOMINAL_S: f64 = 0.00225;
const WALK_NOMINAL_S: f64 = 0.003;

const SORT_LEN: usize = 20_000; // 160 KB of f64
const SORT_ROUNDS: u64 = 4;
const CYCLE_LEN: usize = 1 << 23; // u32 links: 32 MiB
const WALK_STEPS: usize = 20_000;

/// The probes and their buffers.
pub struct Probe {
    limit: Limit,
    buf: Vec<f64>,
    mix: u64,
    /// The walk's cycle; empty unless `limit` is `Memory`.
    next: Vec<u32>,
    at: u32,
}

impl Probe {
    /// Probes for a workload bounded by `limit`.
    pub fn new(limit: Limit) -> Probe {
        let mut next = Vec::new();
        if limit == Limit::Memory {
            // Sattolo's shuffle: one cycle through every slot.
            next = (0..CYCLE_LEN as u32).collect();
            let mut r = 0x2545_F491_4F6C_DD1Du64;
            for i in (1..CYCLE_LEN).rev() {
                r = r
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                next.swap(i, (r >> 33) as usize % i);
            }
        }
        Probe {
            limit,
            buf: vec![0.0; SORT_LEN],
            mix: 1,
            next,
            at: 0,
        }
    }

    /// Run the workload's probe once; returns how many times slower
    /// than nominal the machine ran it.
    pub fn run(&mut self) -> f64 {
        match self.limit {
            Limit::Core => self.run_core(),
            Limit::Memory => {
                let t0 = Instant::now();
                let mut at = self.at;
                for _ in 0..WALK_STEPS {
                    at = self.next[at as usize];
                }
                self.at = black_box(at);
                let walk = t0.elapsed().as_secs_f64() / WALK_NOMINAL_S;
                (walk * self.run_core()).sqrt()
            }
        }
    }

    /// Run the core probe once (set-up is core-bound on every workload).
    pub fn run_core(&mut self) -> f64 {
        let t0 = Instant::now();
        for round in 0..SORT_ROUNDS {
            let seed = splitmix64(self.mix ^ round);
            for (i, x) in self.buf.iter_mut().enumerate() {
                *x = (splitmix64(seed ^ i as u64) >> 11) as f64;
            }
            self.buf.sort_unstable_by(f64::total_cmp);
            self.mix = black_box(self.buf[SORT_LEN / 2]) as u64;
        }
        t0.elapsed().as_secs_f64() / SORT_NOMINAL_S
    }
}

/// Machine slowdown over a phase: the median of the probes taken
/// during it (above 1 when the machine ran slower than nominal).
pub fn slowdown(probes: &[f64]) -> f64 {
    crate::stats::median(probes)
}

//! Feature plans: compute only the features a frozen model reads.
//!
//! CFS selection (§4.1, §4.2) leaves the stall forest a handful of the
//! 70 stall features and the representation forest 15 of the 210. A
//! [`FeaturePlan`] lists the (series, statistic) pairs behind a set of
//! selected feature indices, and one builder evaluates it over any
//! `SeriesSummary`: the exact `SortedFinite` slice gathered from a
//! [`SessionObs`], or the streaming [`SeriesState`] of the sketched
//! path. The builder touches only the series the plan names, once
//! each; the full 70/210-dim vectors are the full plans
//! ([`FeaturePlan::stall_full`], [`FeaturePlan::representation_full`])
//! run through the same code.
//!
//! Boundary policy, identical on both summaries: a series with no
//! samples yields `0.0` in every slot (no chunks → no signal); a
//! non-empty series with no finite sample yields [`MISSING_STAT`] in
//! every slot. Exact mean and std are taken over the *sorted* finite
//! values, as [`vqoe_stats::Summary::from_slice`] does, so planned and
//! full vectors agree bit-for-bit.

use std::sync::OnceLock;

use crate::obs::SessionObs;
use crate::representation::{REP_METRICS, REP_STAT_KINDS};
use crate::stall::{STALL_METRICS, STALL_STAT_KINDS};
use crate::streaming::{SeriesState, StreamingSessionState};
use crate::MISSING_STAT;
use vqoe_stats::moments;
use vqoe_stats::quantiles::try_quantile_sorted;

/// One summary statistic of a metric series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Stat {
    /// Smallest finite sample.
    Min,
    /// Largest finite sample.
    Max,
    /// Arithmetic mean of the finite samples.
    Mean,
    /// Population standard deviation of the finite samples.
    Std,
    /// Quantile at this fraction: type-7 on the exact summary, the
    /// sketch's approximation on the streaming one.
    Quantile(f64),
}

/// What the plan builder reads from one metric series. The statistic
/// methods are only called when [`SeriesSummary::finite`] is non-zero.
pub(crate) trait SeriesSummary {
    /// Samples seen, finite or not.
    fn samples(&self) -> u64;
    /// Finite samples the statistics summarize.
    fn finite(&self) -> u64;
    /// Smallest finite sample.
    fn min(&self) -> f64;
    /// Largest finite sample.
    fn max(&self) -> f64;
    /// Mean of the finite samples.
    fn mean(&self) -> f64;
    /// Population standard deviation of the finite samples.
    fn std_dev(&self) -> f64;
    /// Quantiles `qs ∈ [0, 1]` of the finite samples, aligned with `qs`
    /// (asked for together: the sketch sorts once per call).
    fn quantiles(&self, qs: &[f64]) -> Vec<f64>;
}

/// The exact summary of one series: its finite samples, sorted, plus
/// the count of all samples.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SortedFinite {
    samples: u64,
    sorted: Vec<f64>,
}

impl SortedFinite {
    /// Keep the finite values of `series`, sorted by `f64::total_cmp`.
    pub(crate) fn new(series: impl IntoIterator<Item = f64>) -> Self {
        let series = series.into_iter();
        let mut sorted = Vec::with_capacity(series.size_hint().0);
        let mut samples = 0u64;
        for v in series {
            samples += 1;
            if v.is_finite() {
                sorted.push(v);
            }
        }
        // `total_cmp` is a total order on bit patterns, so the unstable
        // sort gives the same slice as a stable one.
        sorted.sort_unstable_by(f64::total_cmp);
        SortedFinite { samples, sorted }
    }

    /// The exact summary of series `metric` (`REP_METRICS` order) of a
    /// session.
    pub(crate) fn of(obs: &SessionObs, metric: usize) -> Self {
        let chunks = obs.chunks.iter();
        match metric {
            0 => SortedFinite::new(chunks.map(|c| c.rtt_min)),
            1 => SortedFinite::new(chunks.map(|c| c.rtt_mean)),
            2 => SortedFinite::new(chunks.map(|c| c.rtt_max)),
            3 => SortedFinite::new(chunks.map(|c| c.bdp)),
            4 => SortedFinite::new(chunks.map(|c| c.bif_mean)),
            5 => SortedFinite::new(chunks.map(|c| c.bif_max)),
            6 => SortedFinite::new(chunks.map(|c| c.loss)),
            7 => SortedFinite::new(chunks.map(|c| c.retx)),
            8 => SortedFinite::new(chunks.map(|c| c.bytes)),
            9 => SortedFinite::new(chunks.map(|c| c.arrival_secs)),
            10 => SortedFinite::new(obs.running_avg_sizes()),
            11 => SortedFinite::new(obs.size_deltas()),
            12 => SortedFinite::new(obs.inter_arrivals()),
            13 => SortedFinite::new(obs.cumsum_throughputs()),
            _ => unreachable!("metric index out of range"),
        }
    }
}

impl SeriesSummary for SortedFinite {
    fn samples(&self) -> u64 {
        self.samples
    }

    fn finite(&self) -> u64 {
        self.sorted.len() as u64
    }

    fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(MISSING_STAT)
    }

    fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(MISSING_STAT)
    }

    fn mean(&self) -> f64 {
        moments::mean(&self.sorted)
    }

    fn std_dev(&self) -> f64 {
        moments::population_std(&self.sorted)
    }

    fn quantiles(&self, qs: &[f64]) -> Vec<f64> {
        qs.iter()
            .map(|&q| try_quantile_sorted(&self.sorted, q).unwrap_or(MISSING_STAT))
            .collect()
    }
}

impl SeriesSummary for &SeriesState {
    fn samples(&self) -> u64 {
        self.samples
    }

    fn finite(&self) -> u64 {
        self.moments.count()
    }

    fn min(&self) -> f64 {
        self.moments.try_min().unwrap_or(MISSING_STAT)
    }

    fn max(&self) -> f64 {
        self.moments.try_max().unwrap_or(MISSING_STAT)
    }

    fn mean(&self) -> f64 {
        self.moments.try_mean().unwrap_or(MISSING_STAT)
    }

    fn std_dev(&self) -> f64 {
        self.moments.std_dev()
    }

    fn quantiles(&self, qs: &[f64]) -> Vec<f64> {
        self.sketch
            .try_quantiles(qs)
            .unwrap_or_else(|| vec![MISSING_STAT; qs.len()])
    }
}

/// One planned feature: which series, which statistic, which output
/// slot.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    series: usize,
    stat: Stat,
    slot: usize,
}

/// The (series, statistic) pairs behind a list of selected feature
/// indices (module docs). Derived from a frozen model's indices, never
/// stored with it.
#[derive(Debug, Clone, PartialEq)]
pub struct FeaturePlan {
    /// Grouped by series, in output order within a series.
    entries: Vec<Entry>,
}

impl FeaturePlan {
    /// Plan for `indices` into the 70-dim stall layout
    /// (`STALL_METRICS` × `STALL_STATS`). Panics on an index ≥ 70.
    pub fn stall(indices: &[usize]) -> Self {
        FeaturePlan::over(indices, &STALL_STAT_KINDS, STALL_METRICS.len())
    }

    /// Plan for `indices` into the 210-dim representation layout
    /// (`REP_METRICS` × `REP_STATS`). Panics on an index ≥ 210.
    pub fn representation(indices: &[usize]) -> Self {
        FeaturePlan::over(indices, &REP_STAT_KINDS, REP_METRICS.len())
    }

    /// The full 70-dim stall plan.
    pub fn stall_full() -> &'static Self {
        static PLAN: OnceLock<FeaturePlan> = OnceLock::new();
        PLAN.get_or_init(|| {
            let width = STALL_STAT_KINDS.len() * STALL_METRICS.len();
            FeaturePlan::stall(&(0..width).collect::<Vec<_>>())
        })
    }

    /// The full 210-dim representation plan.
    pub fn representation_full() -> &'static Self {
        static PLAN: OnceLock<FeaturePlan> = OnceLock::new();
        PLAN.get_or_init(|| {
            let width = REP_STAT_KINDS.len() * REP_METRICS.len();
            FeaturePlan::representation(&(0..width).collect::<Vec<_>>())
        })
    }

    fn over(indices: &[usize], stats: &[Stat], metrics: usize) -> Self {
        let mut entries: Vec<Entry> = indices
            .iter()
            .enumerate()
            .map(|(slot, &i)| {
                assert!(i < stats.len() * metrics, "feature index {i} out of range");
                Entry {
                    series: i / stats.len(),
                    stat: stats[i % stats.len()],
                    slot,
                }
            })
            .collect();
        entries.sort_by_key(|e| (e.series, e.slot));
        FeaturePlan { entries }
    }

    /// Evaluate the plan exactly over a session's observations.
    pub fn exact(&self, obs: &SessionObs) -> Vec<f64> {
        self.evaluate(|m| SortedFinite::of(obs, m))
    }

    /// Evaluate the plan over a streaming session state (sketched
    /// quantiles, exact min/max, Welford mean/std).
    pub fn sketched(&self, state: &StreamingSessionState) -> Vec<f64> {
        self.evaluate(|m| state.series_state(m))
    }

    /// Evaluate the plan, asking `summary_of` for each named series
    /// exactly once; the output is in the order of the indices the plan
    /// was built from.
    pub(crate) fn evaluate<S: SeriesSummary>(
        &self,
        mut summary_of: impl FnMut(usize) -> S,
    ) -> Vec<f64> {
        let mut out = vec![0.0; self.entries.len()];
        let mut qs = Vec::new();
        let mut q_slots = Vec::new();
        let mut rest = self.entries.as_slice();
        while let Some(first) = rest.first() {
            let len = rest.iter().take_while(|e| e.series == first.series).count();
            let (run, tail) = rest.split_at(len);
            rest = tail;
            let s = summary_of(first.series);
            if s.samples() == 0 {
                continue;
            }
            if s.finite() == 0 {
                for e in run {
                    out[e.slot] = MISSING_STAT;
                }
                continue;
            }
            qs.clear();
            q_slots.clear();
            for e in run {
                out[e.slot] = match e.stat {
                    Stat::Min => s.min(),
                    Stat::Max => s.max(),
                    Stat::Mean => s.mean(),
                    Stat::Std => s.std_dev(),
                    Stat::Quantile(q) => {
                        qs.push(q);
                        q_slots.push(e.slot);
                        continue;
                    }
                };
            }
            if !qs.is_empty() {
                for (&slot, v) in q_slots.iter().zip(s.quantiles(&qs)) {
                    out[slot] = v;
                }
            }
        }
        out
    }
}

/// Index of `"<metric> <stat>"` in a `metrics × stats` layout, without
/// building the name list.
pub(crate) fn feature_index(name: &str, metrics: &[&str], stats: &[&str]) -> Option<usize> {
    metrics.iter().enumerate().find_map(|(m, metric)| {
        let stat = name.strip_prefix(metric)?.strip_prefix(' ')?;
        let s = stats.iter().position(|s| *s == stat)?;
        Some(m * stats.len() + s)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ChunkObs;
    use crate::{representation_features, stall_features};
    use proptest::prelude::*;
    use vqoe_stats::Summary;

    /// SplitMix64: a small deterministic stream for building sessions.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A session of `n` chunks. `nan_metric` (< 10) blanks one base
    /// metric with NaN on every chunk; `sprinkle` makes about one sample
    /// in eight NaN or ±inf.
    fn session(n: usize, seed: u64, nan_metric: usize, sprinkle: bool) -> SessionObs {
        let mut rng = Mix(seed);
        let mut t = 0.0;
        let chunks = (0..n)
            .map(|_| {
                t += rng.unit() * 4.0;
                let request = t;
                t += 0.05 + rng.unit() * 3.0;
                let mut v = [
                    0.02 + rng.unit() * 0.05,
                    0.05 + rng.unit() * 0.05,
                    0.08 + rng.unit() * 0.2,
                    // Coarse values so ties (and `-0.0`) show up.
                    (rng.below(8) as f64) * 10_000.0,
                    rng.unit() * 60_000.0,
                    rng.unit() * 120_000.0,
                    if rng.below(4) == 0 {
                        -0.0
                    } else {
                        rng.unit() * 0.01
                    },
                    rng.unit() * 0.05,
                    50_000.0 + (rng.below(40) as f64) * 5_000.0,
                    t,
                ];
                if nan_metric < v.len() {
                    v[nan_metric] = f64::NAN;
                }
                if sprinkle {
                    for x in &mut v {
                        if rng.below(8) == 0 {
                            *x = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3)];
                        }
                    }
                }
                ChunkObs {
                    request_secs: request,
                    arrival_secs: v[9],
                    bytes: v[8],
                    rtt_min: v[0],
                    rtt_mean: v[1],
                    rtt_max: v[2],
                    bdp: v[3],
                    bif_mean: v[4],
                    bif_max: v[5],
                    loss: v[6],
                    retx: v[7],
                }
            })
            .collect();
        SessionObs { chunks }
    }

    /// The 14 series written out independently of [`SortedFinite::of`].
    fn all_series(o: &SessionObs) -> Vec<Vec<f64>> {
        let base: [fn(&ChunkObs) -> f64; 10] = [
            |c| c.rtt_min,
            |c| c.rtt_mean,
            |c| c.rtt_max,
            |c| c.bdp,
            |c| c.bif_mean,
            |c| c.bif_max,
            |c| c.loss,
            |c| c.retx,
            |c| c.bytes,
            |c| c.arrival_secs,
        ];
        let mut out: Vec<Vec<f64>> = base
            .iter()
            .map(|f| o.chunks.iter().map(f).collect())
            .collect();
        out.extend([
            o.running_avg_sizes(),
            o.size_deltas(),
            o.inter_arrivals(),
            o.cumsum_throughputs(),
        ]);
        out
    }

    /// The full vector as the per-block builders computed it before
    /// plans existed: `Summary::from_slice` for min/max/mean/std, a
    /// sorted finite copy for the quantiles.
    fn reference_exact(o: &SessionObs, stats: &[Stat], metrics: usize) -> Vec<f64> {
        let mut out = Vec::new();
        for series in &all_series(o)[..metrics] {
            let s = Summary::from_slice(series);
            if series.is_empty() {
                out.extend(stats.iter().map(|_| 0.0));
                continue;
            }
            if s.count == 0 {
                out.extend(stats.iter().map(|_| MISSING_STAT));
                continue;
            }
            let mut sorted: Vec<f64> = series.iter().copied().filter(|v| v.is_finite()).collect();
            sorted.sort_by(f64::total_cmp);
            out.extend(stats.iter().map(|st| match *st {
                Stat::Min => s.min,
                Stat::Max => s.max,
                Stat::Mean => s.mean,
                Stat::Std => s.std_dev,
                Stat::Quantile(q) => try_quantile_sorted(&sorted, q).expect("non-empty"),
            }));
        }
        out
    }

    /// The full sketched vector with one sketch query per quantile, as
    /// the streaming state computed it before plans existed.
    fn reference_sketched(
        state: &StreamingSessionState,
        stats: &[Stat],
        metrics: usize,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        for m in 0..metrics {
            let s = state.series_state(m);
            if s.samples == 0 {
                out.extend(stats.iter().map(|_| 0.0));
                continue;
            }
            let (Some(min), Some(max), Some(mean)) = (
                s.moments.try_min(),
                s.moments.try_max(),
                s.moments.try_mean(),
            ) else {
                out.extend(stats.iter().map(|_| MISSING_STAT));
                continue;
            };
            out.extend(stats.iter().map(|st| match *st {
                Stat::Min => min,
                Stat::Max => max,
                Stat::Mean => mean,
                Stat::Std => s.moments.std_dev(),
                Stat::Quantile(q) => s.sketch.try_quantile(q).unwrap_or(MISSING_STAT),
            }));
        }
        out
    }

    /// A feature layout: its statistics, its series count, its plan.
    type Layout = (&'static [Stat], usize, fn(&[usize]) -> FeaturePlan);

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Planned == full-then-project, bit for bit, on both summaries, for
    /// a few random index subsets (duplicates and any order allowed)
    /// and the full plans.
    fn check_planned_matches_full(o: &SessionObs, seed: u64) -> Result<(), String> {
        let mut state = StreamingSessionState::new();
        for c in &o.chunks {
            state.fold(c);
        }
        let layouts: [Layout; 2] = [
            (&STALL_STAT_KINDS, STALL_METRICS.len(), FeaturePlan::stall),
            (
                &REP_STAT_KINDS,
                REP_METRICS.len(),
                FeaturePlan::representation,
            ),
        ];
        let full_exact = [stall_features(o), representation_features(o)];
        let full_sketched = [
            state.stall_features_approx(),
            state.representation_features_approx(),
        ];
        let mut rng = Mix(seed ^ 0x5EED);
        for (k, &(stats, metrics, plan_of)) in layouts.iter().enumerate() {
            let exact = reference_exact(o, stats, metrics);
            let sketched = reference_sketched(&state, stats, metrics);
            if bits(&full_exact[k]) != bits(&exact) {
                return Err(format!("layout {k}: full exact vector moved"));
            }
            if bits(&full_sketched[k]) != bits(&sketched) {
                return Err(format!("layout {k}: full sketched vector moved"));
            }
            let width = stats.len() * metrics;
            let mut subsets: Vec<Vec<usize>> = (0..4)
                .map(|_| {
                    let len = rng.below(18);
                    (0..len).map(|_| rng.below(width)).collect()
                })
                .collect();
            subsets.push((0..width).collect());
            for idx in &subsets {
                let plan = plan_of(idx);
                let want_exact: Vec<f64> = idx.iter().map(|&i| exact[i]).collect();
                let want_sketched: Vec<f64> = idx.iter().map(|&i| sketched[i]).collect();
                if bits(&plan.exact(o)) != bits(&want_exact) {
                    return Err(format!("layout {k}: exact plan {idx:?} differs"));
                }
                if bits(&plan.sketched(&state)) != bits(&want_sketched) {
                    return Err(format!("layout {k}: sketched plan {idx:?} differs"));
                }
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn prop_planned_equals_projected_full(
            n in 0usize..90,
            seed in 0u64..1_000_000,
            nan_metric in 0usize..20,
            sprinkle in proptest::bool::ANY,
        ) {
            let o = session(n, seed, nan_metric, sprinkle);
            let checked = check_planned_matches_full(&o, seed);
            prop_assert!(checked.is_ok(), "{:?}", checked);
        }
    }

    #[test]
    fn edge_sessions_plan_bit_identically() {
        let cases = [
            ("empty", session(0, 1, 99, false)),
            ("single chunk", session(1, 2, 99, false)),
            ("single chunk, all-NaN loss", session(1, 3, 6, false)),
            ("all-NaN chunk size", session(12, 4, 8, false)),
            ("±inf sprinkled", session(40, 5, 99, true)),
            ("past the 4096 exactness cap", session(5_000, 6, 99, true)),
        ];
        for (what, o) in &cases {
            check_planned_matches_full(o, 7).unwrap_or_else(|e| panic!("{what}: {e}"));
        }
    }

    #[test]
    fn sentinel_policy_is_per_series() {
        let o = session(6, 8, 6, false);
        // Packet loss (series 6) is all NaN: its slots are the
        // sentinel; chunk size (series 8) is real.
        let plan = FeaturePlan::representation(&[6 * 15 + 1, 8 * 15 + 2, 6 * 15 + 9]);
        let v = plan.exact(&o);
        assert_eq!(v[0], MISSING_STAT);
        assert_ne!(v[1], MISSING_STAT);
        assert_eq!(v[2], MISSING_STAT);
        assert!(FeaturePlan::stall(&[]).exact(&o).is_empty());
    }

    #[test]
    fn plans_read_only_the_named_series() {
        let o = session(10, 9, 99, false);
        let asked = |plan: &FeaturePlan| {
            let mut asked = Vec::new();
            let v = plan.evaluate(|m| {
                asked.push(m);
                SortedFinite::of(&o, m)
            });
            (asked, v.len())
        };
        let plan = FeaturePlan::stall(&[9 * 7, 3 * 7 + 2, 9 * 7 + 3]);
        assert_eq!(asked(&plan), (vec![3, 9], 3), "each named series once");
        assert_eq!(asked(FeaturePlan::stall_full()), ((0..10).collect(), 70));
        assert_eq!(
            asked(FeaturePlan::representation_full()),
            ((0..14).collect(), 210)
        );
    }

    #[test]
    fn stat_kinds_align_with_stat_names() {
        let kind_of = |name: &str| match name {
            "minimum" => Stat::Min,
            "maximum" => Stat::Max,
            "mean" => Stat::Mean,
            "std" | "std. deviation" => Stat::Std,
            pct => Stat::Quantile(
                pct.trim_end_matches('%')
                    .parse::<f64>()
                    .expect("percentile")
                    / 100.0,
            ),
        };
        for (names, kinds) in [
            (&crate::stall::STALL_STATS[..], &STALL_STAT_KINDS[..]),
            (&crate::representation::REP_STATS[..], &REP_STAT_KINDS[..]),
        ] {
            assert_eq!(names.len(), kinds.len());
            for (name, kind) in names.iter().zip(kinds) {
                assert_eq!(kind_of(name), *kind, "{name}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        FeaturePlan::stall(&[70]);
    }

    #[test]
    fn feature_index_inverts_the_name_list() {
        let names = crate::stall_feature_names();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(
                feature_index(name, &STALL_METRICS, &crate::stall::STALL_STATS),
                Some(i)
            );
        }
        let names = crate::representation_feature_names();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(
                feature_index(name, &REP_METRICS, &crate::representation::REP_STATS),
                Some(i)
            );
        }
        assert_eq!(
            feature_index(
                "chunk size",
                &REP_METRICS,
                &crate::representation::REP_STATS
            ),
            None
        );
        assert_eq!(
            feature_index(
                "no such feature",
                &STALL_METRICS,
                &crate::stall::STALL_STATS
            ),
            None
        );
    }
}

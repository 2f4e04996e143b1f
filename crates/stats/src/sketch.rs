//! A deterministic fixed-capacity quantile sketch.
//!
//! The streaming assessment path (ISSUE 10) keeps per-session state in
//! O(1) memory: running moments ([`crate::OnlineMoments`]) cover
//! min/max/mean/std exactly, and this sketch covers the percentile grid
//! approximately. It is a KLL-style compactor hierarchy with one
//! deliberate deviation from the textbook algorithm: **compaction is
//! seedless**. Where KLL flips a random coin to decide whether the odd
//! or even ranks survive a compaction, we alternate a per-level parity
//! bit. That trades the randomized error guarantee for a weaker
//! deterministic one — acceptable here, because sketched sessions are a
//! declared lower-fidelity tier (`Fidelity::Sketched`) with
//! pinned-tolerance predictions, while the reproduction's bit-identity
//! contract ("same tap, same report, any worker count") demands that
//! every code path be a pure function of its input order.
//!
//! Determinism contract:
//!
//! * `push` sequences that are element-for-element identical produce
//!   byte-identical sketches (no RNG, no addresses, no time);
//! * `merge(a, b)` is deterministic in the *argument order* — merging
//!   the same two sketches the same way around always yields the same
//!   bytes, but `merge(a, b)` and `merge(b, a)` may differ (callers
//!   that need cross-worker stability must merge in a canonical order,
//!   exactly like the engine's emission-key sort);
//! * serialization round-trips bit-exactly (the state is integers and
//!   f64 values already observed).
//!
//! Memory is bounded by `levels × capacity` values; with the pinned
//! [`SKETCH_CAPACITY`] of 64 and the ~log₂(n/64) levels an hour-long
//! session can reach, a sketch stays in the low kilobytes regardless of
//! session length.

use serde::{Deserialize, Serialize};

/// Values retained per compactor level, pinned workspace-wide (see the
/// `vqoe-analyze` constants pass and DESIGN.md §15). Error roughly
/// tracks O(1/capacity) per level; 64 keeps the §4.2 percentile grid
/// within a few percent of exact on realistic session lengths while
/// costing ~0.5 KiB per level.
pub const SKETCH_CAPACITY: usize = 64;

/// One level of the compactor hierarchy: a buffer of values each
/// representing `2^level` original observations, plus the parity bit
/// that replaces KLL's coin flip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Level {
    values: Vec<f64>,
    /// Which ranks survive the next compaction (alternates per
    /// compaction, making the schedule deterministic and unbiased over
    /// consecutive compactions).
    keep_odd: bool,
}

impl Level {
    fn new() -> Level {
        Level {
            values: Vec::new(),
            keep_odd: false,
        }
    }
}

/// Deterministic, mergeable, fixed-capacity quantile sketch (see the
/// module docs for the determinism contract).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantileSketch {
    capacity: usize,
    levels: Vec<Level>,
    /// Total finite observations folded in (weights, not slots).
    count: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// Fresh sketch at the pinned [`SKETCH_CAPACITY`].
    pub fn new() -> Self {
        QuantileSketch::with_capacity(SKETCH_CAPACITY)
    }

    /// Fresh sketch retaining `capacity` values per level (minimum 4,
    /// rounded up to even so compaction halves cleanly).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(4) + (capacity % 2);
        QuantileSketch {
            capacity,
            levels: vec![Level::new()],
            count: 0,
        }
    }

    /// Fold in one observation. Non-finite values are ignored, matching
    /// [`crate::OnlineMoments::push`] and the batch builders' NaN
    /// policy.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let full = self.capacity + 1;
        let values = &mut self.levels[0].values;
        if values.len() == values.capacity() && values.len() < full {
            // Double while small, but stop at the compaction size: the
            // buffer is kept for the sketch's lifetime.
            values.reserve_exact((2 * values.len()).clamp(4, full) - values.len());
        }
        values.push(x);
        self.compact_from(0);
    }

    /// Observations folded in so far (finite ones only).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no finite observation has been folded in.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Slots currently occupied across all levels (the memory bound is
    /// `capacity` per level; levels grow logarithmically in count).
    pub fn stored(&self) -> usize {
        self.levels.iter().map(|l| l.values.len()).sum()
    }

    /// Compact every level at or above `from` that exceeds capacity:
    /// sort the level, keep alternating ranks (parity bit decides
    /// which), and promote the survivors — now each standing for twice
    /// the weight — to the next level up. In place: the level keeps its
    /// buffer, so a warm sketch compacts without allocating. The sort
    /// may be unstable because `total_cmp`-equal values are
    /// bit-identical, so the survivors are the same either way.
    fn compact_from(&mut self, from: usize) {
        let mut lvl = from;
        while lvl < self.levels.len() {
            if self.levels[lvl].values.len() <= self.capacity {
                lvl += 1;
                continue;
            }
            if lvl + 1 == self.levels.len() {
                self.levels.push(Level::new());
            }
            let (below, above) = self.levels.split_at_mut(lvl + 1);
            let level = &mut below[lvl];
            let offset = usize::from(level.keep_odd);
            level.keep_odd = !level.keep_odd;
            level.values.sort_unstable_by(f64::total_cmp);
            above[0]
                .values
                .extend(level.values.iter().skip(offset).step_by(2));
            level.values.clear();
            lvl += 1;
        }
    }

    /// Merge another sketch into this one. Level buffers concatenate
    /// (self's values first, then `other`'s), then over-full levels
    /// compact bottom-up — deterministic in argument order.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        while self.levels.len() < other.levels.len() {
            self.levels.push(Level::new());
        }
        for (lvl, theirs) in other.levels.iter().enumerate() {
            self.levels[lvl].values.extend_from_slice(&theirs.values);
        }
        self.count += other.count;
        self.compact_from(0);
    }

    /// Approximate quantile `q ∈ [0, 1]` (clamped), or `None` when the
    /// sketch is empty — the same honest-`Option` convention as
    /// [`crate::try_quantile`]. Computed over the weighted sorted
    /// union of all levels (a level-`l` value stands for `2^l`
    /// observations).
    pub fn try_quantile(&self, q: f64) -> Option<f64> {
        self.try_quantiles(&[q]).and_then(|v| v.first().copied())
    }

    /// Several approximate quantiles in one weighted sort, aligned with
    /// `qs`; `None` when the sketch is empty. Each value equals
    /// [`QuantileSketch::try_quantile`] at the same `q`.
    pub fn try_quantiles(&self, qs: &[f64]) -> Option<Vec<f64>> {
        if self.count == 0 {
            return None;
        }
        let mut weighted: Vec<(f64, u64)> = Vec::with_capacity(self.stored());
        for (lvl, level) in self.levels.iter().enumerate() {
            let w = 1u64 << lvl.min(62);
            weighted.extend(level.values.iter().map(|&v| (v, w)));
        }
        weighted.sort_by(|a, b| f64::total_cmp(&a.0, &b.0));
        // Cumulative weight after each value: strictly increasing, so
        // the first value whose cumulative weight passes a rank is a
        // binary search away.
        let mut total = 0u64;
        let cumulative: Vec<u64> = weighted
            .iter()
            .map(|&(_, w)| {
                total += w;
                total
            })
            .collect();
        let last = weighted.last().map_or(0.0, |&(v, _)| v);
        Some(
            qs.iter()
                .map(|&q| {
                    // Rank of the requested quantile in the weighted
                    // sample, type-7-flavoured: the target rank is
                    // q·(total−1), and we return the first value whose
                    // cumulative weight passes it.
                    let q = q.clamp(0.0, 1.0);
                    let target = (q * (total.saturating_sub(1)) as f64).round() as u64;
                    let i = cumulative.partition_point(|&c| c <= target);
                    weighted.get(i).map_or(last, |&(v, _)| v)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantiles::try_quantile;
    use proptest::prelude::*;

    fn filled(data: &[f64]) -> QuantileSketch {
        let mut s = QuantileSketch::new();
        for &x in data {
            s.push(x);
        }
        s
    }

    #[test]
    fn empty_sketch_is_honest_about_it() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.try_quantile(0.5), None);
        assert_eq!(s.try_quantiles(&[0.1, 0.9]), None);
    }

    #[test]
    fn try_quantiles_is_one_query_per_q_on_a_compacted_sketch() {
        let data: Vec<f64> = (0..5_000u64)
            .map(|i| ((i * 7_919) % 1_009) as f64)
            .collect();
        let s = filled(&data);
        assert!(s.stored() < data.len(), "sketch must have compacted");
        let qs = [0.95, 0.05, 0.5, 0.5, 0.25];
        let batch = s.try_quantiles(&qs).unwrap();
        for (&q, &b) in qs.iter().zip(&batch) {
            assert_eq!(b.to_bits(), linear_scan_quantile(&s, q).unwrap().to_bits());
        }
        assert_eq!(s.try_quantiles(&[]), Some(Vec::new()));
    }

    #[test]
    fn non_finite_values_are_ignored() {
        let s = filled(&[f64::NAN, 1.0, f64::INFINITY, 3.0, f64::NEG_INFINITY]);
        assert_eq!(s.count(), 2);
        assert_eq!(s.try_quantile(0.0), Some(1.0));
        assert_eq!(s.try_quantile(1.0), Some(3.0));
    }

    #[test]
    fn under_capacity_quantiles_are_near_exact() {
        let data: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let s = filled(&data);
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let exact = try_quantile(&data, q).unwrap();
            let approx = s.try_quantile(q).unwrap();
            assert!(
                (exact - approx).abs() <= 1.0,
                "q={q}: exact {exact} vs sketch {approx}"
            );
        }
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let data: Vec<f64> = (0..10_000)
            .map(|i| ((i * 2_654_435_761u64) % 9973) as f64)
            .collect();
        let a = filled(&data);
        let b = filled(&data);
        assert_eq!(a, b, "same push sequence must be byte-identical");
        let ja = serde_json::to_string(&a).unwrap();
        let jb = serde_json::to_string(&b).unwrap();
        assert_eq!(ja, jb);
        let back: QuantileSketch = serde_json::from_str(&ja).unwrap();
        assert_eq!(back, a, "serde round-trip is bit-exact");
    }

    #[test]
    fn memory_stays_bounded_at_large_counts() {
        let mut s = QuantileSketch::new();
        for i in 0..200_000u64 {
            s.push((i % 1000) as f64);
        }
        // log2(200000/64) ≈ 12 levels at 64+1 slots each.
        assert!(
            s.stored() <= 16 * (SKETCH_CAPACITY + 1),
            "stored {}",
            s.stored()
        );
        assert_eq!(s.count(), 200_000);
    }

    #[test]
    fn merge_is_deterministic_and_weight_preserving() {
        let a_data: Vec<f64> = (0..5_000).map(|i| i as f64).collect();
        let b_data: Vec<f64> = (5_000..9_000).map(|i| i as f64).collect();
        let mut m1 = filled(&a_data);
        m1.merge(&filled(&b_data));
        let mut m2 = filled(&a_data);
        m2.merge(&filled(&b_data));
        assert_eq!(m1, m2, "same-order merge must be byte-identical");
        assert_eq!(m1.count(), 9_000);
        let median = m1.try_quantile(0.5).unwrap();
        assert!((median - 4_500.0).abs() < 450.0, "median {median}");
    }

    /// The per-query linear scan `try_quantile` ran before the batch
    /// form shared one weighted sort: the reference the batch must
    /// reproduce bit-for-bit.
    fn linear_scan_quantile(s: &QuantileSketch, q: f64) -> Option<f64> {
        if s.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let mut weighted: Vec<(f64, u64)> = Vec::new();
        for (lvl, level) in s.levels.iter().enumerate() {
            let w = 1u64 << lvl.min(62);
            weighted.extend(level.values.iter().map(|&v| (v, w)));
        }
        weighted.sort_by(|a, b| f64::total_cmp(&a.0, &b.0));
        let total: u64 = weighted.iter().map(|&(_, w)| w).sum();
        let target = (q * (total.saturating_sub(1)) as f64).round() as u64;
        let mut cum = 0u64;
        for &(v, w) in &weighted {
            cum += w;
            if cum > target {
                return Some(v);
            }
        }
        weighted.last().map(|&(v, _)| v)
    }

    /// `push`, `merge` and `compact_from` as they were before
    /// compaction went in place (take the level, stable sort, collect
    /// the survivors into a new buffer): the reference the in-place
    /// form must reproduce byte for byte.
    mod reference {
        use super::super::{Level, QuantileSketch};

        fn compact_from(s: &mut QuantileSketch, from: usize) {
            let mut lvl = from;
            while lvl < s.levels.len() {
                if s.levels[lvl].values.len() <= s.capacity {
                    lvl += 1;
                    continue;
                }
                let keep_odd = s.levels[lvl].keep_odd;
                s.levels[lvl].keep_odd = !keep_odd;
                let mut values = std::mem::take(&mut s.levels[lvl].values);
                values.sort_by(f64::total_cmp);
                let offset = usize::from(keep_odd);
                let survivors: Vec<f64> = values.into_iter().skip(offset).step_by(2).collect();
                if lvl + 1 == s.levels.len() {
                    s.levels.push(Level::new());
                }
                s.levels[lvl + 1].values.extend(survivors);
                lvl += 1;
            }
        }

        pub(super) fn push(s: &mut QuantileSketch, x: f64) {
            if !x.is_finite() {
                return;
            }
            s.count += 1;
            s.levels[0].values.push(x);
            compact_from(s, 0);
        }

        pub(super) fn merge(s: &mut QuantileSketch, other: &QuantileSketch) {
            if other.count == 0 {
                return;
            }
            while s.levels.len() < other.levels.len() {
                s.levels.push(Level::new());
            }
            for (lvl, theirs) in other.levels.iter().enumerate() {
                s.levels[lvl].values.extend_from_slice(&theirs.values);
            }
            s.count += other.count;
            compact_from(s, 0);
        }

        pub(super) fn filled(data: &[f64]) -> QuantileSketch {
            let mut s = QuantileSketch::new();
            for &x in data {
                push(&mut s, x);
            }
            s
        }
    }

    proptest! {
        #[test]
        fn prop_in_place_compaction_matches_the_reference_bytes(
            data in proptest::collection::vec(-1e3f64..1e3, 0..2_000),
            order in 0u8..3,
            split in 0.0f64..1.0,
            dupes in proptest::bool::ANY,
        ) {
            // Random, sorted and reversed streams, optionally rounded to
            // integers so compactions sort runs of equal keys; then
            // `merge` of the stream's two halves, both ways round.
            let mut data = data;
            if dupes {
                data.iter_mut().for_each(|x| *x = x.round());
            }
            if order > 0 {
                data.sort_by(f64::total_cmp);
            }
            if order == 2 {
                data.reverse();
            }
            let bytes = |s: &QuantileSketch| serde_json::to_string(s).unwrap();
            prop_assert_eq!(bytes(&filled(&data)), bytes(&reference::filled(&data)));
            let (a, b) = data.split_at((split * data.len() as f64) as usize);
            for (x, y) in [(a, b), (b, a)] {
                let mut merged = filled(x);
                merged.merge(&filled(y));
                let mut expected = reference::filled(x);
                reference::merge(&mut expected, &reference::filled(y));
                prop_assert_eq!(bytes(&merged), bytes(&expected));
                // A warm sketch keeps compacting identically.
                for &v in y {
                    merged.push(v);
                    reference::push(&mut expected, v);
                }
                prop_assert_eq!(bytes(&merged), bytes(&expected));
            }
        }

        #[test]
        fn prop_try_quantiles_equal_single_queries(
            data in proptest::collection::vec(-1e6f64..1e6, 1..1_500),
            order in 0u8..3,
            qs in proptest::collection::vec(0.0f64..1.0, 0..16),
        ) {
            // Random, sorted and reversed streams; lengths past
            // SKETCH_CAPACITY exercise compacted (weighted) levels.
            let mut data = data;
            if order > 0 {
                data.sort_by(f64::total_cmp);
            }
            if order == 2 {
                data.reverse();
            }
            let s = filled(&data);
            let mut qs = qs;
            qs.extend([0.0, 0.5, 1.0, -0.25, 1.25]);
            let batch = s.try_quantiles(&qs).unwrap();
            prop_assert_eq!(batch.len(), qs.len());
            for (&q, &b) in qs.iter().zip(&batch) {
                prop_assert_eq!(b.to_bits(), s.try_quantile(q).unwrap().to_bits());
                prop_assert_eq!(b.to_bits(), linear_scan_quantile(&s, q).unwrap().to_bits());
            }
        }

        #[test]
        fn prop_sketch_quantile_within_range(
            data in proptest::collection::vec(-1e6f64..1e6, 1..400),
            q in 0.0f64..1.0,
        ) {
            let s = filled(&data);
            let v = s.try_quantile(q).unwrap();
            let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= min && v <= max);
        }

        #[test]
        fn prop_sketch_tracks_exact_on_large_streams(
            seed in 0u64..1000,
        ) {
            // A deterministic pseudo-stream well past capacity: the
            // sketch's median must land within a pinned tolerance of
            // the exact one (the Fidelity::Sketched contract).
            let data: Vec<f64> = (0..4096u64)
                .map(|i| ((i.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(seed)) % 100_000) as f64)
                .collect();
            let s = filled(&data);
            let exact = try_quantile(&data, 0.5).unwrap();
            let approx = s.try_quantile(0.5).unwrap();
            prop_assert!(
                (exact - approx).abs() <= 0.05 * 100_000.0,
                "median drifted: exact {exact}, sketch {approx}"
            );
        }

        #[test]
        fn prop_quantiles_monotone(
            data in proptest::collection::vec(-1e6f64..1e6, 1..600),
            q1 in 0.0f64..1.0,
            q2 in 0.0f64..1.0,
        ) {
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let s = filled(&data);
            prop_assert!(s.try_quantile(lo).unwrap() <= s.try_quantile(hi).unwrap());
        }
    }
}

//! The §4.2 average-representation feature set.
//!
//! "In addition to the 10 features that are already available in the
//! dataset, we construct five new ones, i.e. the chunk average size, the
//! chunk size delta, the chunk time delta, the average throughput and
//! the throughput cumulative sum. ... we have a total of 14 features
//! from which we extract the following statistics: minimum, mean,
//! maximum, std. deviation and 5th, 10th, 15th, 20th, 25th, 50th, 75th,
//! 80th, 85th, 90th and 95th percentiles. As a result, the total number
//! of features we end up with is equal to 210."
//!
//! 14 series × 15 statistics = 210. The four constructed *series* are
//! the running chunk-average size, Δsize, Δt and the cumulative-sum
//! throughput; the "average throughput" of the paper's list is the mean
//! statistic of the throughput contribution inside the cumulative sum
//! (a scalar, which is why 10 + 4 series — not 5 — make the 14).

use crate::obs::SessionObs;
use crate::plan::{feature_index, FeaturePlan, Stat};

/// The fifteen §4.2 statistics, in a fixed order.
pub const REP_STATS: [&str; 15] = [
    "minimum", "mean", "maximum", "std", "5%", "10%", "15%", "20%", "25%", "50%", "75%", "80%",
    "85%", "90%", "95%",
];

/// The statistics behind [`REP_STATS`], in the same order.
pub(crate) const REP_STAT_KINDS: [Stat; 15] = [
    Stat::Min,
    Stat::Mean,
    Stat::Max,
    Stat::Std,
    Stat::Quantile(0.05),
    Stat::Quantile(0.10),
    Stat::Quantile(0.15),
    Stat::Quantile(0.20),
    Stat::Quantile(0.25),
    Stat::Quantile(0.50),
    Stat::Quantile(0.75),
    Stat::Quantile(0.80),
    Stat::Quantile(0.85),
    Stat::Quantile(0.90),
    Stat::Quantile(0.95),
];

/// The fourteen base series, in a fixed order. The first ten are the
/// Table-1 metrics; the last four are constructed (§4.2).
pub const REP_METRICS: [&str; 14] = [
    "RTT minimum",
    "RTT average",
    "RTT maximum",
    "BDP",
    "BIF average",
    "BIF maximum",
    "packet loss",
    "packet retransmissions",
    "chunk size",
    "chunk time",
    "chunk avg size",
    "chunk Δsize",
    "chunk Δt",
    "cumsum throughput",
];

/// Names of the 210 representation features, aligned with
/// [`representation_features`]' output.
pub fn representation_feature_names() -> Vec<String> {
    let mut names = Vec::with_capacity(210);
    for metric in REP_METRICS {
        for stat in REP_STATS {
            names.push(format!("{metric} {stat}"));
        }
    }
    names
}

/// Compute the 210-dimensional representation feature vector of one
/// session: the full representation plan
/// ([`FeaturePlan::representation_full`]). Same boundary policy as the
/// stall set: empty series → all zeros, non-empty series with zero
/// finite samples → [`MISSING_STAT`](crate::MISSING_STAT) across the
/// block.
pub fn representation_features(obs: &SessionObs) -> Vec<f64> {
    FeaturePlan::representation_full().exact(obs)
}

/// Value of one named representation feature (computes only that
/// feature).
pub fn representation_feature(obs: &SessionObs, name: &str) -> Option<f64> {
    let idx = feature_index(name, &REP_METRICS, &REP_STATS)?;
    FeaturePlan::representation(&[idx]).exact(obs).pop()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ChunkObs;
    use crate::MISSING_STAT;

    fn chunk(req: f64, arr: f64, bytes: f64) -> ChunkObs {
        ChunkObs {
            request_secs: req,
            arrival_secs: arr,
            bytes,
            rtt_min: 0.04,
            rtt_mean: 0.05,
            rtt_max: 0.07,
            bdp: 70_000.0,
            bif_mean: 25_000.0,
            bif_max: 50_000.0,
            loss: 0.0,
            retx: 0.0,
        }
    }

    fn obs() -> SessionObs {
        SessionObs {
            chunks: (0..10)
                .map(|i| {
                    chunk(
                        i as f64 * 2.0,
                        i as f64 * 2.0 + 1.0,
                        100_000.0 + i as f64 * 10_000.0,
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn two_hundred_ten_features_with_matching_names() {
        let names = representation_feature_names();
        let values = representation_features(&obs());
        assert_eq!(names.len(), 210);
        assert_eq!(values.len(), 210);
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 210, "duplicate feature names");
    }

    #[test]
    fn table5_feature_names_exist() {
        // Every feature the paper's Table 5 lists must exist in our set.
        let names = representation_feature_names();
        for expected in [
            "chunk size 75%",
            "chunk size 85%",
            "chunk size 90%",
            "chunk size 50%",
            "chunk size maximum",
            "chunk avg size mean",
            "BIF average maximum",
            "cumsum throughput minimum",
            "chunk Δsize maximum",
            "chunk size std",
            "chunk Δsize std",
            "chunk Δt 25%",
            "BDP 90%",
            "BIF maximum minimum",
            "RTT minimum minimum",
        ] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
    }

    #[test]
    fn named_lookup_matches_hand_values() {
        let o = obs();
        assert_eq!(
            representation_feature(&o, "chunk size minimum"),
            Some(100_000.0)
        );
        assert_eq!(
            representation_feature(&o, "chunk size maximum"),
            Some(190_000.0)
        );
        // Δsize is constant 10_000 → std 0.
        assert_eq!(representation_feature(&o, "chunk Δsize std"), Some(0.0));
        assert_eq!(
            representation_feature(&o, "chunk Δsize maximum"),
            Some(10_000.0)
        );
        // Δt constant 2.0.
        assert_eq!(representation_feature(&o, "chunk Δt 50%"), Some(2.0));
    }

    #[test]
    fn percentiles_are_monotone_within_each_metric() {
        let values = representation_features(&obs());
        // Within each 15-stat block, indices 4..=14 are ascending
        // percentiles (5%..95%) and must be monotone.
        for block in values.chunks(15) {
            for i in 5..=14 {
                assert!(
                    block[i] >= block[i - 1] - 1e-9,
                    "percentiles not monotone: {block:?}"
                );
            }
        }
    }

    #[test]
    fn all_nan_metric_column_yields_the_sentinel_block() {
        let mut o = obs();
        for c in &mut o.chunks {
            c.loss = f64::NAN;
        }
        let names = representation_feature_names();
        let v = representation_features(&o);
        for (name, &x) in names.iter().zip(&v) {
            if name.starts_with("packet loss") {
                assert_eq!(x, MISSING_STAT, "{name}");
            } else {
                assert_ne!(x, MISSING_STAT, "{name}");
            }
        }
    }

    #[test]
    fn empty_and_single_chunk_sessions_degenerate() {
        assert_eq!(representation_features(&SessionObs::default()).len(), 210);
        let single = SessionObs {
            chunks: vec![chunk(0.0, 1.0, 5_000.0)],
        };
        let v = representation_features(&single);
        assert_eq!(v.len(), 210);
        assert!(v.iter().all(|x| x.is_finite()));
    }
}

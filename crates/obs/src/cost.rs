//! Per-query cost accounting — the paper's cost model as a return value.

use std::time::Duration;

use crate::json::Json;

/// The cost of one query, in the units the paper's evaluation uses
/// (Figures 7–8): distance computations and node accesses, plus how much
/// work pruning saved and the wall-clock spent.
///
/// **Determinism.** `distance_calls`, `node_accesses` and `pruned` count
/// the *algorithmic* work of the sequential search and are bit-identical
/// at any `STRG_THREADS` setting: a tree search runs on its calling
/// thread, and a sharded fan-out that searches shards in parallel replays
/// the sequential decision sequence over the pre-computed results.
/// `elapsed` is wall-clock and exempt — compare costs with
/// [`QueryCost::same_work`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Number of sequence-distance evaluations the search charged.
    pub distance_calls: u64,
    /// Root, cluster and leaf node records accessed.
    pub node_accesses: u64,
    /// Leaf records and centroids excluded without a distance evaluation:
    /// records outside the triangle key band, every record of a cluster
    /// the best-first scan never reached, and every centroid the search
    /// did not need to evaluate.
    pub pruned: u64,
    /// Candidates excluded by an admissible summary lower bound before any
    /// distance evaluation. Together with `distance_calls` and `pruned`
    /// these partition the candidate set: `distance_calls + pruned +
    /// lb_pruned == records + clusters` for a full STRG-Index search.
    pub lb_pruned: u64,
    /// Distance evaluations (already charged in `distance_calls`) that the
    /// bounded kernel cut short once no alignment could beat the cutoff.
    /// Always `<= distance_calls`.
    pub early_abandoned: u64,
    /// Whole shards excluded by the shard-granularity aggregate envelope
    /// before any of their nodes were opened. Every record and cluster of
    /// a pruned shard is charged to `pruned`, so the conservation
    /// invariant `distance_calls + pruned + lb_pruned == records +
    /// clusters` still partitions the candidate set database-wide. Always
    /// zero for a single-tree database.
    pub shards_pruned: u64,
    /// Node accesses (already charged in `node_accesses`) this query did
    /// not physically perform because an identical earlier member of the
    /// same batch was answered once for both: `node_accesses` for such a
    /// duplicate, zero for a member that ran and for any query outside a
    /// batch. This is sharing telemetry, not algorithmic work: the logical
    /// fields above stay byte-identical to the query run alone whatever
    /// the batch composition, so `batch_shared_accesses` is exempt from
    /// [`QueryCost::same_work`] exactly like `elapsed`.
    pub batch_shared_accesses: u64,
    /// Wall-clock duration of the query.
    pub elapsed: Duration,
}

impl QueryCost {
    /// Accumulates another cost into this one (durations add).
    pub fn merge(&mut self, other: &QueryCost) {
        self.distance_calls += other.distance_calls;
        self.node_accesses += other.node_accesses;
        self.pruned += other.pruned;
        self.lb_pruned += other.lb_pruned;
        self.early_abandoned += other.early_abandoned;
        self.shards_pruned += other.shards_pruned;
        self.batch_shared_accesses += other.batch_shared_accesses;
        self.elapsed += other.elapsed;
    }

    /// Whether two costs describe the same algorithmic work — equality of
    /// every field except the wall-clock `elapsed` and the physical-sharing
    /// telemetry `batch_shared_accesses` (both vary with execution
    /// circumstances, not with the query's decision sequence).
    pub fn same_work(&self, other: &QueryCost) -> bool {
        self.distance_calls == other.distance_calls
            && self.node_accesses == other.node_accesses
            && self.pruned == other.pruned
            && self.lb_pruned == other.lb_pruned
            && self.early_abandoned == other.early_abandoned
            && self.shards_pruned == other.shards_pruned
    }

    /// JSON form: `{"distance_calls":..,"node_accesses":..,"pruned":..,
    /// "lb_pruned":..,"early_abandoned":..,"shards_pruned":..,
    /// "batch_shared_accesses":..,"elapsed_ns":..}`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("distance_calls", Json::U64(self.distance_calls)),
            ("node_accesses", Json::U64(self.node_accesses)),
            ("pruned", Json::U64(self.pruned)),
            ("lb_pruned", Json::U64(self.lb_pruned)),
            ("early_abandoned", Json::U64(self.early_abandoned)),
            ("shards_pruned", Json::U64(self.shards_pruned)),
            (
                "batch_shared_accesses",
                Json::U64(self.batch_shared_accesses),
            ),
            (
                "elapsed_ns",
                Json::U64(self.elapsed.as_nanos().min(u64::MAX as u128) as u64),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = QueryCost {
            distance_calls: 1,
            node_accesses: 2,
            pruned: 3,
            lb_pruned: 4,
            early_abandoned: 1,
            shards_pruned: 2,
            batch_shared_accesses: 1,
            elapsed: Duration::from_nanos(5),
        };
        a.merge(&a.clone());
        assert_eq!(a.distance_calls, 2);
        assert_eq!(a.node_accesses, 4);
        assert_eq!(a.pruned, 6);
        assert_eq!(a.lb_pruned, 8);
        assert_eq!(a.early_abandoned, 2);
        assert_eq!(a.shards_pruned, 4);
        assert_eq!(a.batch_shared_accesses, 2);
        assert_eq!(a.elapsed, Duration::from_nanos(10));
    }

    #[test]
    fn same_work_ignores_elapsed_and_batch_sharing() {
        let a = QueryCost {
            distance_calls: 1,
            node_accesses: 2,
            pruned: 3,
            lb_pruned: 4,
            early_abandoned: 1,
            shards_pruned: 1,
            batch_shared_accesses: 2,
            elapsed: Duration::from_secs(1),
        };
        let mut b = a;
        b.elapsed = Duration::ZERO;
        assert!(a.same_work(&b));
        // Physical-sharing telemetry varies with batch composition; the
        // identity contract must not see it.
        b.batch_shared_accesses = 0;
        assert!(a.same_work(&b));
        b.pruned = 0;
        assert!(!a.same_work(&b));
        b = a;
        b.lb_pruned = 0;
        assert!(!a.same_work(&b));
        b = a;
        b.early_abandoned = 0;
        assert!(!a.same_work(&b));
        b = a;
        b.shards_pruned = 0;
        assert!(!a.same_work(&b));
    }

    #[test]
    fn json_shape() {
        let c = QueryCost {
            distance_calls: 7,
            node_accesses: 3,
            pruned: 11,
            lb_pruned: 2,
            early_abandoned: 1,
            shards_pruned: 4,
            batch_shared_accesses: 2,
            elapsed: Duration::from_nanos(42),
        };
        assert_eq!(
            c.to_json().render(),
            r#"{"distance_calls":7,"node_accesses":3,"pruned":11,"lb_pruned":2,"early_abandoned":1,"shards_pruned":4,"batch_shared_accesses":2,"elapsed_ns":42}"#
        );
    }
}

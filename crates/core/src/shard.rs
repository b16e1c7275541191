//! Hash-of-name routing and the fan-out over shards.
//!
//! A [`VideoDatabase`] holds N ≥ 1 shards and routes every clip to one of
//! them by a deterministic hash of the clip name ([`route`]), so the
//! placement is reproducible at any thread count and any ingest
//! interleaving of *distinct* clips. Each shard is an STRG-Index tree with
//! its own OG store and summary sidecars.
//!
//! # The fan-out
//!
//! A global query searches every shard with its ordinary
//! [`StrgIndex::search_into`] over [`Scope::All`] and merges the per-shard
//! hits: ascending by distance, ties in shard-id order and then in each
//! shard's own order, cut to the best `k` for a k-NN. The cost is the sum
//! of the shards' search costs. There is no shard-level filter: routing by
//! name spreads every shard over the whole feature space, so no bound on a
//! shard as a whole could skip one (DESIGN.md §12).
//!
//! With at least two shards and at least two workers the shards are
//! searched in parallel; otherwise one after another into the caller's
//! arena. Both paths do the same per-shard searches and share one merge,
//! so the hits and the [`strg_obs::QueryCost`] are bit-identical at any
//! `STRG_THREADS`, and what the cost charges is the work that ran. A lone
//! shard does exactly its tree's work and returns exactly its tree's hits.
//! `tests/shard_equivalence.rs` pins the merged hits to a linear scan and
//! the cost to the sum of the shards' own searches.

use std::cell::RefCell;

use strg_distance::EgedMetric;
use strg_graph::Point2;
use strg_obs::QueryCost;
use strg_parallel::{par_map, Threads};

use crate::index::{Hit, QueryScratch, Scope, StrgIndex};
use crate::pipeline::VideoDatabase;
use crate::query::QueryKind;

type Idx = StrgIndex<Point2, EgedMetric<Point2>>;

/// The database type under its former name. A [`VideoDatabase`] holds
/// N ≥ 1 shards, so there is no second facade; the alias is kept because
/// the benchmark imports it.
pub type ShardedDatabase = VideoDatabase;

/// The shard a clip named `name` lives in, out of `shards` (FNV-1a 64).
///
/// Pure function of the name: reproducible across processes, thread
/// counts, and ingest order.
pub fn route(name: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards.max(1) as u64) as usize
}

/// Reusable fan-out arena: the per-tree [`QueryScratch`] plus the merged
/// result list, its sort permutation and the per-shard costs. A warmed-up
/// arena makes a sequential fan-out allocation-free end to end
/// (`tests/query_alloc.rs`); the long-lived workers of the serve pool each
/// converge on their own via [`with_shard_scratch`].
#[derive(Default)]
pub struct ShardScratch {
    tree: QueryScratch,
    /// Merged result list (best-k for knn, every in-radius hit for range).
    merged: Vec<(usize, Hit)>,
    merged_tmp: Vec<(usize, Hit)>,
    order: Vec<u32>,
    costs: Vec<QueryCost>,
}

impl ShardScratch {
    /// An empty arena (buffers grow on first use).
    pub const fn new() -> Self {
        Self {
            tree: QueryScratch::new(),
            merged: Vec::new(),
            merged_tmp: Vec::new(),
            order: Vec::new(),
            costs: Vec::new(),
        }
    }

    /// The shard-tagged hits of the last `*_into` fan-out, ascending by
    /// distance.
    pub fn hits(&self) -> &[(usize, Hit)] {
        &self.merged
    }

    /// Per-shard search costs of the last `*_into` fan-out, in shard-id
    /// order.
    pub fn costs(&self) -> &[QueryCost] {
        &self.costs
    }

    /// Sorts the appended hits by distance and cuts a k-NN to its best
    /// `k`. Hits were appended in shard-id order, each shard's ascending,
    /// so an unstable sort of positions keyed (distance, position) is the
    /// stable by-distance order — ties in shard-id order, then in each
    /// shard's own — without a stable sort's buffer.
    fn merge(&mut self, kind: QueryKind) {
        let Self {
            merged,
            merged_tmp,
            order,
            ..
        } = self;
        order.clear();
        order.reserve(merged.len());
        order.extend(0..merged.len() as u32);
        order.sort_unstable_by(|&i, &j| {
            let (a, b) = (&merged[i as usize].1, &merged[j as usize].1);
            a.dist.total_cmp(&b.dist).then(i.cmp(&j))
        });
        if let QueryKind::Knn(k) = kind {
            order.truncate(k);
        }
        merged_tmp.clear();
        merged_tmp.reserve(order.len());
        merged_tmp.extend(order.iter().map(|&i| merged[i as usize]));
        std::mem::swap(merged, merged_tmp);
    }
}

thread_local! {
    static SHARD_SCRATCH: RefCell<ShardScratch> = const { RefCell::new(ShardScratch::new()) };
}

/// Runs `f` with this thread's fan-out arena; reentrant calls fall back to
/// a fresh local arena.
pub fn with_shard_scratch<R>(f: impl FnOnce(&mut ShardScratch) -> R) -> R {
    SHARD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => f(&mut s),
        Err(_) => f(&mut ShardScratch::new()),
    })
}

/// Fan-out of one k-NN or range query over independent shard indexes (the
/// module docs). Public for experiments and benchmarks;
/// [`VideoDatabase::query`] is the production entry point.
///
/// Returns the merged hits (shard-tagged, ascending by distance: the best
/// `k`, or everything within the radius), the total cost, and the
/// per-shard costs in shard-id order.
pub fn sharded_query(
    idxs: &[&Idx],
    query: &[Point2],
    kind: QueryKind,
    threads: Threads,
) -> (Vec<(usize, Hit)>, QueryCost, Vec<QueryCost>) {
    with_shard_scratch(|scratch| {
        let cost = sharded_query_into(idxs, query, kind, threads, scratch);
        (scratch.hits().to_vec(), cost, scratch.costs().to_vec())
    })
}

/// [`sharded_query`] into a caller-owned arena: the merged hits land in
/// [`ShardScratch::hits`], the per-shard costs in [`ShardScratch::costs`];
/// returns the total cost. Sequentially each shard is searched straight
/// into the arena's tree scratch, so a warmed-up arena allocates nothing.
/// With at least two shards and at least two workers the shards are
/// searched in parallel, each in its worker thread's own search arena
/// ([`StrgIndex::search`]), and its hits are copied out (allocating).
pub fn sharded_query_into(
    idxs: &[&Idx],
    query: &[Point2],
    kind: QueryKind,
    threads: Threads,
    scratch: &mut ShardScratch,
) -> QueryCost {
    let ShardScratch {
        tree,
        merged,
        costs,
        ..
    } = &mut *scratch;
    merged.clear();
    costs.clear();
    costs.reserve(idxs.len());
    let mut append = |shard: usize, hits: &[Hit], cost: QueryCost| {
        merged.reserve(hits.len());
        merged.extend(hits.iter().map(|&h| (shard, h)));
        costs.push(cost);
    };
    // Resolved only when there is something to fork over, so a one-shard
    // query never reads `STRG_THREADS`.
    let workers = if idxs.len() > 1 { threads.resolve() } else { 1 };
    if workers > 1 {
        let searched = par_map(idxs, Threads::Fixed(workers), |idx| {
            idx.search(query, kind, Scope::All)
        });
        for (s, (hits, cost)) in searched.iter().enumerate() {
            append(s, hits, *cost);
        }
    } else {
        for (s, idx) in idxs.iter().enumerate() {
            let (hits, cost) = idx.search_into(query, kind, Scope::All, tree);
            append(s, hits, cost);
        }
    }
    scratch.merge(kind);
    let mut total = QueryCost::default();
    for c in &scratch.costs {
        total.merge(c);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::DbOptions;
    use crate::query::Query;

    #[test]
    fn routing_is_deterministic_and_spreads() {
        let a = route("lobby-cam", 4);
        for _ in 0..8 {
            assert_eq!(route("lobby-cam", 4), a);
        }
        // FNV-1a spreads short names across 4 shards reasonably: at least
        // two distinct shards among ten names.
        let names = [
            "a", "b", "c", "d", "cam-1", "cam-2", "cam-3", "lobby", "dock", "yard",
        ];
        let mut seen: Vec<usize> = names.iter().map(|n| route(n, 4)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() >= 2, "routing collapsed to one shard: {seen:?}");
        assert!(seen.iter().all(|&s| s < 4));
    }

    #[test]
    fn route_handles_zero_shards() {
        assert_eq!(route("x", 0), 0);
        assert_eq!(route("x", 1), 0);
    }

    #[test]
    fn empty_sharded_database_answers_empty() {
        let db = VideoDatabase::new(DbOptions::new().shards(3));
        assert_eq!(db.shard_count(), 3);
        let t = [Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)];
        let r = db.query(Query::knn(5).trajectory(&t).with_cost());
        assert!(r.hits.is_empty());
        let cost = r.cost.unwrap();
        // Every empty shard is searched and does zero work.
        assert_eq!(cost.distance_calls + cost.pruned + cost.lb_pruned, 0);
        assert_eq!(db.stats().objects, 0);
    }
}

//! Hash-of-name routing and the bound-ordered fan-out over shards.
//!
//! A [`VideoDatabase`] holds N ≥ 1 shards and routes every clip to one of
//! them by a deterministic hash of the clip name ([`route`]), so the
//! placement is reproducible at any thread count and any ingest
//! interleaving of *distinct* clips. Each shard is an STRG-Index tree with
//! its own OG store and summary sidecars, plus one shard-granularity
//! aggregate envelope ([`strg_distance::SummaryEnvelope`]) maintained by
//! the index itself.
//!
//! # The fan-out protocol
//!
//! A global k-NN visits shards in ascending envelope-lower-bound order,
//! sharing one best-k cutoff:
//!
//! 1. compute `L_s = envelope_bound(query, shard s)` for every shard and
//!    stable-sort shards by `(L_s, s)`;
//! 2. walk shards in that order. A shard is **opened** iff `L_s <= d_k`,
//!    where `d_k` is the kth-best distance merged from previously opened
//!    shards (`∞` while fewer than k hits are known). An opened shard runs
//!    its ordinary [`StrgIndex::search_into`] over [`Scope::All`] and its
//!    hits merge into the shared best list;
//! 3. a shard that cannot beat the cutoff is never opened: it charges all
//!    its records and clusters to `pruned`, bumps
//!    [`strg_obs::QueryCost::shards_pruned`], and performs zero node
//!    accesses. Because the bounds ascend and `d_k` never increases, the
//!    first skip implies every later shard skips too.
//!
//! A lone shard is always opened, so a one-shard database does exactly its
//! tree's work and returns exactly its tree's hits.
//!
//! The decision sequence is a pure function of the per-shard bounds and
//! the per-shard search results, both of which are thread-invariant, so
//! the logical [`strg_obs::QueryCost`] is bit-identical at any
//! `STRG_THREADS`. With at least two shards and at least two workers the
//! fan-out *speculatively* searches every shard in parallel and then
//! replays the open/skip decisions over the precomputed results;
//! speculative work on shards the replay skips is intentionally uncharged.
//! This fan-out is the only place a query speculates — inside a tree the
//! charge is the physical count (`crate::index`, DESIGN.md §7 "What forks
//! inside a query").
//!
//! k-NN and range share one entry point ([`sharded_query_into`]) and one
//! private replay (`Replay::run`), which differs only in where an opened
//! shard's hits come from: a lazy search into the arena (sequential) or
//! the speculative prefetch (parallel). `tests/shard_equivalence.rs` pins the
//! merged hits to a linear scan on queries that provably prune whole
//! shards, so an inadmissible envelope surfaces as a hit-list difference.

use std::cell::RefCell;

use strg_distance::{EgedMetric, LowerBound};
use strg_graph::Point2;
use strg_obs::QueryCost;
use strg_parallel::{par_map, Threads};

use crate::index::{reserve_counted, Hit, QueryScratch, Scope, StrgIndex};
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

/// What the fan-out decided for one shard (indexed by shard id).
#[derive(Clone, Debug)]
pub struct ShardOutcome {
    /// Was the shard opened (searched) or pruned whole?
    pub opened: bool,
    /// The shard's envelope lower bound for this query.
    pub bound: f64,
    /// This shard's logical charge: its search cost if opened, its full
    /// `pruned` + `shards_pruned` charge if skipped.
    pub cost: QueryCost,
}

/// A shard with its envelope bound, in visit (ascending-bound) order.
#[derive(Copy, Clone)]
struct ShardPlan {
    shard: usize,
    bound: f64,
}

/// Full charge for skipping a shard whole: every record and cluster is
/// pruned (keeping the conservation law), zero node accesses.
fn prune_charge(idx: &Idx) -> QueryCost {
    QueryCost {
        pruned: (idx.len() + idx.cluster_count()) as u64,
        shards_pruned: 1,
        ..QueryCost::default()
    }
}

/// Inserts `hits` (sorted ascending) into the merged best list, keeping it
/// sorted by distance with earlier-merged equal-distance hits first,
/// truncated to `k`. Inserting a shard's own sorted list into an empty
/// best list reproduces it exactly, so a one-shard database returns
/// byte-identical hits to its single tree. Truncating after every
/// insert (instead of once at the end) keeps the list within its reserved
/// `k + 1` capacity, so a warmed-up arena never reallocates here; the
/// surviving set is the same because each shard's hits arrive ascending.
fn merge_hits(best: &mut Vec<(usize, Hit)>, shard: usize, hits: &[Hit], k: usize) {
    for &h in hits {
        let pos = best.partition_point(|(_, e)| e.dist <= h.dist);
        best.insert(pos, (shard, h));
        best.truncate(k);
    }
}

/// The buffers of one fan-out replay: visit plan, merged result list and
/// its sort permutation.
#[derive(Default)]
struct Replay {
    plans: Vec<ShardPlan>,
    /// Merged result list (best-k for knn, every in-radius hit for range).
    merged: Vec<(usize, Hit)>,
    merged_tmp: Vec<(usize, Hit)>,
    order: Vec<u32>,
    grows: u64,
}

impl Replay {
    const fn empty() -> Self {
        Self {
            plans: Vec::new(),
            merged: Vec::new(),
            merged_tmp: Vec::new(),
            order: Vec::new(),
            grows: 0,
        }
    }

    /// The fan-out protocol of the module docs, for every caller: walk the
    /// shards in ascending `(bound, shard)` order and open one iff its
    /// bound is within the cutoff — the merged `d_k` for k-NN, the radius
    /// for range. `fetch(shard, sink)` supplies an opened shard's search —
    /// it hands the shard's ascending hits to `sink` and returns the
    /// search's cost — and is never called for a skipped shard, so a lazy
    /// `fetch` does no physical work there. Leaves the merged hits in
    /// `self.merged`, appends one [`ShardOutcome`] per shard (shard-id
    /// order) to `outcomes`, and returns the total logical cost.
    fn run(
        &mut self,
        idxs: &[&Idx],
        query: &[Point2],
        kind: QueryKind,
        outcomes: &mut Vec<ShardOutcome>,
        mut fetch: impl FnMut(usize, &mut dyn FnMut(&[Hit])) -> QueryCost,
    ) -> QueryCost {
        let Self {
            plans,
            merged,
            merged_tmp,
            order,
            grows,
        } = self;
        plans.clear();
        reserve_counted(plans, idxs.len(), grows);
        for (shard, idx) in idxs.iter().enumerate() {
            let m = idx.metric();
            let qs = m.summarize(query);
            plans.push(ShardPlan {
                shard,
                bound: m.envelope_bound(query, &qs, idx.envelope()),
            });
        }
        // Unstable sort with the shard id as a total tie-break: pushes are
        // in ascending shard order, so this is the stable by-bound order
        // (equal bounds visit in shard order) without the stable sort's
        // buffer.
        plans.sort_unstable_by(|a, b| a.bound.total_cmp(&b.bound).then(a.shard.cmp(&b.shard)));

        let total_len: usize = idxs.iter().map(|i| i.len()).sum();
        merged.clear();
        let room = match kind {
            QueryKind::Knn(k) => k.min(total_len) + 1,
            QueryKind::Range(_) => total_len,
        };
        reserve_counted(merged, room, grows);
        let base = outcomes.len();
        reserve_counted(outcomes, base + idxs.len(), grows);
        outcomes.resize(
            base + idxs.len(),
            ShardOutcome {
                opened: false,
                bound: f64::NAN,
                cost: QueryCost::default(),
            },
        );
        let mut total = QueryCost::default();
        for p in plans.iter() {
            let cutoff = match kind {
                QueryKind::Knn(k) if k > 0 && merged.len() >= k => merged[k - 1].1.dist,
                QueryKind::Knn(_) => f64::INFINITY,
                QueryKind::Range(radius) => radius,
            };
            // A single shard is always opened: the fan-out adds nothing and
            // a one-shard database does exactly its tree's work.
            // Bounds ascend and `d_k` never increases, so after the first
            // k-NN skip every later shard skips too.
            let opened = p.bound <= cutoff || idxs.len() == 1;
            let cost = if opened {
                fetch(p.shard, &mut |hits| match kind {
                    QueryKind::Knn(k) => merge_hits(merged, p.shard, hits, k),
                    QueryKind::Range(_) => merged.extend(hits.iter().map(|&h| (p.shard, h))),
                })
            } else {
                prune_charge(idxs[p.shard])
            };
            total.merge(&cost);
            outcomes[base + p.shard] = ShardOutcome {
                opened,
                bound: p.bound,
                cost,
            };
        }
        if let QueryKind::Range(_) = kind {
            // The single tree's contract is "stable by shard id, then
            // stable by distance". Entries were appended in bound order,
            // but any two entries of the same shard were appended
            // contiguously in the shard's own hit order, so an unstable
            // index sort keyed (distance, shard id, append position)
            // reproduces that double stable sort without its buffers.
            order.clear();
            reserve_counted(order, merged.len(), grows);
            order.extend(0..merged.len() as u32);
            order.sort_unstable_by(|&i, &j| {
                let (sa, ha) = &merged[i as usize];
                let (sb, hb) = &merged[j as usize];
                ha.dist.total_cmp(&hb.dist).then(sa.cmp(sb)).then(i.cmp(&j))
            });
            merged_tmp.clear();
            reserve_counted(merged_tmp, merged.len(), grows);
            merged_tmp.extend(order.iter().map(|&i| merged[i as usize]));
            std::mem::swap(merged, merged_tmp);
        }
        total
    }
}

/// Reusable fan-out arena: the per-tree [`QueryScratch`] plus every buffer
/// the shard-level protocol needs (visit plan, merged result list, sort
/// permutation, outcomes). A warmed-up arena makes a sequential fan-out
/// allocation-free end to end (`tests/query_alloc.rs`); the long-lived
/// workers of the serve pool each converge on their own via
/// [`with_shard_scratch`].
#[derive(Default)]
pub struct ShardScratch {
    tree: QueryScratch,
    replay: Replay,
    outcomes: Vec<ShardOutcome>,
}

impl ShardScratch {
    /// An empty arena (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    const fn empty() -> Self {
        Self {
            tree: QueryScratch::empty(),
            replay: Replay::empty(),
            outcomes: Vec::new(),
        }
    }

    /// The shard-tagged hits of the last `*_into` fan-out, ascending by
    /// distance.
    pub fn hits(&self) -> &[(usize, Hit)] {
        &self.replay.merged
    }

    /// Per-shard outcomes of the last `*_into` fan-out, in shard-id order.
    pub fn outcomes(&self) -> &[ShardOutcome] {
        &self.outcomes
    }

    /// Number of buffer growth events since construction — stops moving
    /// once the arena reaches its high-water mark.
    pub fn grow_events(&self) -> u64 {
        self.replay.grows + self.tree.grow_events()
    }
}

thread_local! {
    static SHARD_SCRATCH: RefCell<ShardScratch> = const { RefCell::new(ShardScratch::empty()) };
}

/// Runs `f` with this thread's fan-out arena; reentrant calls fall back to
/// a fresh local arena.
pub fn with_shard_scratch<R>(f: impl FnOnce(&mut ShardScratch) -> R) -> R {
    SHARD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => f(&mut s),
        Err(_) => f(&mut ShardScratch::empty()),
    })
}

/// Bound-ordered fan-out of one k-NN or range query over independent shard
/// indexes (the protocol in the module docs). Public for experiments and
/// benchmarks; [`VideoDatabase::query`] is the production entry point.
///
/// Returns the merged hits (shard-tagged, ascending by distance: the best
/// `k`, or everything within the radius), the total logical cost, and the
/// per-shard outcomes in shard-id order.
pub fn sharded_query(
    idxs: &[&Idx],
    query: &[Point2],
    kind: QueryKind,
    threads: Threads,
) -> (Vec<(usize, Hit)>, QueryCost, Vec<ShardOutcome>) {
    with_shard_scratch(|scratch| {
        let cost = sharded_query_into(idxs, query, kind, threads, scratch);
        (scratch.hits().to_vec(), cost, scratch.outcomes().to_vec())
    })
}

/// [`sharded_query`] into a caller-owned arena: the merged hits land in
/// [`ShardScratch::hits`], the per-shard outcomes in
/// [`ShardScratch::outcomes`]; returns the total logical cost.
/// Sequentially each opened shard is searched lazily, straight into the
/// arena's tree scratch — skipped shards cost nothing and a warmed-up arena
/// allocates nothing. With at least two shards and at least two workers
/// every shard is searched speculatively in parallel (allocating) and the
/// replay consumes the precomputed results; a lone shard has nothing to
/// speculate on, so it is always searched lazily.
pub fn sharded_query_into(
    idxs: &[&Idx],
    query: &[Point2],
    kind: QueryKind,
    threads: Threads,
    scratch: &mut ShardScratch,
) -> QueryCost {
    let ShardScratch {
        tree,
        replay,
        outcomes,
    } = scratch;
    outcomes.clear();
    // Resolved only when there is something to fork over, so a one-shard
    // query never reads `STRG_THREADS`.
    let workers = if idxs.len() > 1 { threads.resolve() } else { 1 };
    if workers > 1 {
        let prefetched = par_map(idxs, Threads::Fixed(workers), |idx| {
            let mut tree = QueryScratch::new();
            let (hits, cost) = idx.search_into(query, kind, Scope::All, &mut tree);
            (hits.to_vec(), cost)
        });
        replay.run(idxs, query, kind, outcomes, |s, sink| {
            sink(&prefetched[s].0);
            prefetched[s].1
        })
    } else {
        replay.run(idxs, query, kind, outcomes, |s, sink| {
            let (hits, cost) = idxs[s].search_into(query, kind, Scope::All, tree);
            sink(hits);
            cost
        })
    }
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
        // Empty shards have empty (infinite-bound) envelopes; with no
        // hits the cutoff stays infinite, so every shard is opened and
        // does zero work. Conservation holds trivially.
        assert_eq!(cost.distance_calls + cost.pruned + cost.lb_pruned, 0);
        assert_eq!(db.stats().objects, 0);
    }
}

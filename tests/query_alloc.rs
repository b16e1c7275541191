//! Allocation-discipline harness for the query hot path.
//!
//! Runs under the per-thread counting `#[global_allocator]` of
//! `tests/alloc_util` (shared with `ingest_alloc.rs`) and asserts that
//! steady-state k-NN and range queries through warm arenas perform
//! **zero** heap allocations — on a single STRG-Index tree at one and two
//! workers ([`QueryScratch`], and the benchmark probe's per-member slots in
//! [`BatchScratch`]), across a sharded fan-out ([`ShardScratch`]), and on
//! the M-tree baseline ([`MtreeScratch`]). Every DP row, candidate list,
//! pending heap and hit buffer is owned by an arena and only recycled
//! after warm-up (DESIGN.md §13).

mod alloc_util;

use alloc_util::alloc_events;
use strg::core::{sharded_query_into, BatchScratch, QueryScratch, ShardScratch};
use strg::mtree::MtreeScratch;
use strg::prelude::*;

/// Synthetic trajectory workload at a scale where clusters, leaves and
/// the lower-bound filter all participate.
fn dataset(n: usize, seed: u64) -> Vec<(u64, Vec<Point2>)> {
    generate_total(n, &SynthConfig::with_noise(0.10), seed)
        .series()
        .into_iter()
        .enumerate()
        .map(|(i, s)| (i as u64, s))
        .collect()
}

fn queries(n: usize, seed: u64) -> Vec<Vec<Point2>> {
    generate_total(n, &SynthConfig::with_noise(0.10), seed)
        .items
        .into_iter()
        .map(|q| q.points)
        .collect()
}

fn build_index(
    items: Vec<(u64, Vec<Point2>)>,
    seed: u64,
    threads: Threads,
) -> StrgIndex<Point2, EgedMetric<Point2>> {
    let mut cfg = StrgIndexConfig::with_k(16.min(items.len().max(1)));
    cfg.seed = seed;
    cfg.em_max_iters = 8;
    cfg.em_n_init = 1;
    cfg.threads = threads;
    let mut idx = StrgIndex::new(EgedMetric::<Point2>::new(), cfg);
    idx.add_segment(BackgroundGraph::default(), items);
    idx
}

/// Steady-state single-tree k-NN and range queries must not touch the
/// allocator once the arena has seen the workload — at any thread count,
/// since a tree query never forks.
#[test]
fn steady_state_tree_queries_allocate_nothing() {
    for threads in [1, 2] {
        tree_queries_allocate_nothing_at(Threads::Fixed(threads));
    }
}

fn tree_queries_allocate_nothing_at(threads: Threads) {
    let idx = build_index(dataset(240, 11), 5, threads);
    let qs = queries(6, 999);
    let mut scratch = QueryScratch::new();

    // A radius that matches real records, captured before measurement.
    let (warm_hits, _) = idx.knn_with_cost_into(&qs[0], 5, &mut scratch);
    assert!(!warm_hits.is_empty(), "workload produced hits");
    let radius = warm_hits.last().unwrap().dist * 1.5;

    // The arena path must agree with the allocating wrappers.
    for q in &qs {
        let (hits, cost) = idx.knn_with_cost(q, 5);
        let (hits_into, cost_into) = idx.knn_with_cost_into(q, 5, &mut scratch);
        assert_eq!(hits.as_slice(), hits_into, "into-path hits diverged");
        assert!(cost.same_work(&cost_into), "into-path cost diverged");
    }

    // Warm-up: two passes so every content-dependent buffer reaches its
    // high-water capacity.
    for _ in 0..2 {
        for q in &qs {
            idx.knn_with_cost_into(q, 5, &mut scratch);
            idx.range_with_cost_into(q, radius, &mut scratch);
        }
    }

    let mut last_hits = 0;
    let before = alloc_events();
    for _ in 0..3 {
        for q in &qs {
            let (h, _) = idx.knn_with_cost_into(q, 5, &mut scratch);
            last_hits = h.len();
            idx.range_with_cost_into(q, radius, &mut scratch);
        }
    }
    let delta = alloc_events() - before;

    assert!(last_hits > 0, "steady-state queries produced real hits");
    assert_eq!(
        delta, 0,
        "steady-state tree queries at {threads:?} performed {delta} heap allocations"
    );
}

/// Steady-state sequential sharded fan-outs must not touch the
/// allocator: the shard arena threads one tree arena through every
/// shard.
#[test]
fn steady_state_sharded_queries_allocate_nothing() {
    let shards: Vec<_> = (0..3)
        .map(|s| build_index(dataset(90, 20 + s), 7 + s, Threads::Fixed(1)))
        .collect();
    let idxs: Vec<&StrgIndex<Point2, EgedMetric<Point2>>> = shards.iter().collect();
    let qs = queries(5, 777);
    let mut scratch = ShardScratch::new();
    let knn5 = QueryKind::Knn(5);

    sharded_query_into(&idxs, &qs[0], knn5, Threads::Fixed(1), &mut scratch);
    assert!(!scratch.hits().is_empty(), "fan-out produced hits");
    let range = QueryKind::Range(scratch.hits().last().unwrap().1.dist * 1.5);

    for _ in 0..2 {
        for q in &qs {
            sharded_query_into(&idxs, q, knn5, Threads::Fixed(1), &mut scratch);
            sharded_query_into(&idxs, q, range, Threads::Fixed(1), &mut scratch);
        }
    }

    let mut last_hits = 0;
    let before = alloc_events();
    for _ in 0..3 {
        for q in &qs {
            sharded_query_into(&idxs, q, knn5, Threads::Fixed(1), &mut scratch);
            last_hits = scratch.hits().len();
            sharded_query_into(&idxs, q, range, Threads::Fixed(1), &mut scratch);
        }
    }
    let delta = alloc_events() - before;

    assert!(last_hits > 0, "steady-state fan-outs produced real hits");
    assert_eq!(
        delta, 0,
        "steady-state sharded queries performed {delta} heap allocations"
    );
}

/// The benchmark probe's batch arena is one tree arena per member, so a
/// warm [`BatchScratch`] holds the tree leg's discipline (duplicates
/// included: the probe loop does not collapse them).
#[test]
fn steady_state_batched_queries_allocate_nothing() {
    let idx = build_index(dataset(240, 11), 5, Threads::Fixed(1));
    let qs = queries(6, 999);
    let batch: Vec<&[Point2]> = (0..16).map(|i| qs[i % qs.len()].as_slice()).collect();
    let mut scratch = BatchScratch::new();

    for _ in 0..2 {
        idx.knn_batch_with_cost_into(&batch, 5, &mut scratch);
    }
    assert_eq!(scratch.len(), batch.len());
    assert!(!scratch.hits(0).is_empty(), "batched queries produced hits");

    let before = alloc_events();
    for _ in 0..3 {
        idx.knn_batch_with_cost_into(&batch, 5, &mut scratch);
    }
    let delta = alloc_events() - before;
    assert_eq!(
        delta, 0,
        "steady-state batched queries performed {delta} heap allocations"
    );
}

/// The M-tree baseline holds the same discipline: pending heap, best-k
/// heap storage and neighbor lists all live in the arena.
#[test]
fn steady_state_mtree_queries_allocate_nothing() {
    let tree = MTree::bulk_insert(
        EgedMetric::<Point2>::new(),
        MTreeConfig::random(3),
        dataset(200, 31),
    );
    let qs = queries(5, 555);
    let mut scratch = MtreeScratch::new();

    let (warm, _) = tree.knn_with_cost_into(&qs[0], 5, &mut scratch);
    assert!(!warm.is_empty(), "M-tree workload produced hits");
    let radius = warm.last().unwrap().dist * 1.5;

    for _ in 0..2 {
        for q in &qs {
            tree.knn_with_cost_into(q, 5, &mut scratch);
            tree.range_with_cost_into(q, radius, &mut scratch);
        }
    }

    let mut last_hits = 0;
    let before = alloc_events();
    for _ in 0..3 {
        for q in &qs {
            let (h, _) = tree.knn_with_cost_into(q, 5, &mut scratch);
            last_hits = h.len();
            tree.range_with_cost_into(q, radius, &mut scratch);
        }
    }
    let delta = alloc_events() - before;

    assert!(last_hits > 0, "steady-state M-tree queries produced hits");
    assert_eq!(
        delta, 0,
        "steady-state M-tree queries performed {delta} heap allocations"
    );
}

//! Batch equivalence suite: batched execution is a *physical* optimization
//! only.
//!
//! A batch of queries answered through one shared index traversal must be
//! indistinguishable from the same queries replayed one at a time in every
//! observable except wall clock: identical hit lists (ids **and** distance
//! bits) and identical logical [`QueryCost`] work fields, on a single
//! STRG-Index tree, across a sharded fan-out, through both `Database`
//! facades, and over the server socket. The reference is the single-query
//! entry points themselves: every batch is replayed sequentially through
//! them, so a divergence in the shared descent shows up here as a hit-list
//! or cost diff.
//!
//! The one documented exception is `QueryCost::batch_shared_accesses`:
//! it reports *physical* sharing (node accesses this query did not pay
//! for because a batch neighbor already walked the node), is excluded
//! from [`QueryCost::same_work`], and is zero outside a batch.
//!
//! `scripts/ci.sh` runs this binary under `STRG_THREADS=1` and
//! `STRG_THREADS=8`, so the equivalence is pinned against the frozen
//! parallel band.

mod serve_util;

use std::time::Duration;

use serve_util::*;
use strg::core::{
    sharded_knn_into, sharded_query_batch_into, sharded_range_into, BatchItem, BatchKind,
    BatchScratch, ShardBatchScratch, ShardScratch,
};
use strg::prelude::*;
use strg::serve::protocol::result_slice;
use strg::serve::{json_parse, wire, ServeConfig};

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

fn build_index(items: Vec<(u64, Vec<Point2>)>, seed: u64) -> StrgIndex<Point2, EgedMetric<Point2>> {
    let mut cfg = StrgIndexConfig::with_k(16.min(items.len().max(1)));
    cfg.seed = seed;
    cfg.em_max_iters = 8;
    cfg.em_n_init = 1;
    cfg.threads = Threads::Fixed(1);
    let mut idx = StrgIndex::new(EgedMetric::<Point2>::new(), cfg);
    idx.add_segment(BackgroundGraph::default(), items);
    idx
}

fn assert_hits_eq(a: &[Hit], b: &[Hit], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: hit count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.root_id, y.root_id, "{ctx}: hit root");
        assert_eq!(x.og_id, y.og_id, "{ctx}: hit id");
        assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "{ctx}: hit distance");
    }
}

/// The mixed workload every index-level test runs: alternating k-NN and
/// range items, varying `k`, duplicate trajectories (the pool cycles) and
/// — when `roots` is non-empty — root-scoped items.
fn mixed_items<'a>(
    pool: &'a [Vec<Point2>],
    width: usize,
    radius: f64,
    roots: &[u32],
) -> Vec<BatchItem<'a, Point2>> {
    (0..width)
        .map(|i| {
            let kind = if i % 3 == 1 {
                BatchKind::Range(radius * (1.0 + (i % 2) as f64))
            } else {
                BatchKind::Knn(1 + i % 5)
            };
            BatchItem {
                kind,
                query: &pool[i % pool.len()],
                root_filter: (!roots.is_empty() && i % 4 == 3).then(|| roots[i % roots.len()]),
            }
        })
        .collect()
}

/// One batched descent over a single tree reproduces the sequential
/// replay bit for bit, at widths from a singleton batch to one dominated
/// by duplicates, with mixed k-NN/range kinds and root-scoped items.
#[test]
fn single_tree_batch_matches_sequential_replay() {
    let mut idx = build_index(dataset(120, 11), 5);
    let second_root = idx.add_segment(BackgroundGraph::default(), dataset(60, 47));
    let first_root = idx.roots()[0].id;
    let pool = queries(8, 999);
    let radius = idx.knn(&pool[0], 5).last().expect("warm hits").dist * 1.5;

    let mut scratch = BatchScratch::new();
    for width in [1usize, 2, 7, 64] {
        let items = mixed_items(&pool, width, radius, &[first_root, second_root]);
        idx.query_batch_with_cost_into(&items, &mut scratch);
        assert_eq!(scratch.len(), width);

        let mut shared_total = 0u64;
        for (i, it) in items.iter().enumerate() {
            let ctx = format!("width={width} item={i} {:?}", it.kind);
            let (seq_hits, seq_cost) = match (it.kind, it.root_filter) {
                (BatchKind::Knn(k), None) => idx.knn_with_cost(it.query, k),
                (BatchKind::Knn(k), Some(r)) => idx.knn_in_root_with_cost(r, it.query, k),
                (BatchKind::Range(r), None) => idx.range_with_cost(it.query, r),
                (BatchKind::Range(rad), Some(r)) => idx.range_in_root_with_cost(r, it.query, rad),
            };
            assert_hits_eq(&seq_hits, scratch.hits(i), &ctx);
            let cost = scratch.cost(i);
            assert!(seq_cost.same_work(&cost), "{ctx}: {seq_cost:?} vs {cost:?}");
            assert!(
                cost.batch_shared_accesses <= cost.node_accesses,
                "{ctx}: shared {} exceeds accesses {}",
                cost.batch_shared_accesses,
                cost.node_accesses
            );
            assert_eq!(
                seq_cost.batch_shared_accesses, 0,
                "{ctx}: sequential replay reported sharing"
            );
            shared_total += cost.batch_shared_accesses;
        }
        // A wide batch cycling an 8-query pool is dominated by duplicates:
        // the batched path must actually share work.
        if width >= 16 {
            assert!(
                shared_total > 0,
                "width={width}: duplicate-heavy batch shared no node accesses"
            );
        }
    }
}

/// The batched sharded fan-out replays the per-query fan-out's decision
/// sequence exactly: same hits, same total cost, same per-shard
/// open/prune outcomes — at one thread and at eight.
#[test]
fn sharded_index_batch_matches_sequential_fanout() {
    let shards: Vec<_> = (0..3)
        .map(|s| build_index(dataset(80, 20 + s), 7 + s))
        .collect();
    let idxs: Vec<&StrgIndex<Point2, EgedMetric<Point2>>> = shards.iter().collect();
    let pool = queries(5, 777);
    let mut single = ShardScratch::new();
    let radius = {
        sharded_knn_into(&idxs, &pool[0], 5, Threads::Fixed(1), &mut single);
        single.hits().last().expect("warm hits").1.dist * 1.5
    };
    let items = mixed_items(&pool, 12, radius, &[]);

    for threads in [Threads::Fixed(1), Threads::Fixed(8)] {
        let mut batch = ShardBatchScratch::new();
        sharded_query_batch_into(&idxs, &items, threads, &mut batch);
        assert_eq!(batch.len(), items.len());

        for (i, it) in items.iter().enumerate() {
            let ctx = format!("threads={threads:?} item={i} {:?}", it.kind);
            let seq_cost = match it.kind {
                BatchKind::Knn(k) => {
                    sharded_knn_into(&idxs, it.query, k, Threads::Fixed(1), &mut single)
                }
                BatchKind::Range(r) => {
                    sharded_range_into(&idxs, it.query, r, Threads::Fixed(1), &mut single)
                }
            };
            assert_eq!(single.hits().len(), batch.hits(i).len(), "{ctx}: hit count");
            for (x, y) in single.hits().iter().zip(batch.hits(i)) {
                assert_eq!(x.0, y.0, "{ctx}: hit shard");
                assert_eq!(x.1.og_id, y.1.og_id, "{ctx}: hit id");
                assert_eq!(x.1.dist.to_bits(), y.1.dist.to_bits(), "{ctx}: distance");
            }
            let cost = batch.cost(i);
            assert!(seq_cost.same_work(&cost), "{ctx}: {seq_cost:?} vs {cost:?}");
            assert_eq!(
                single.outcomes().len(),
                batch.outcomes(i).len(),
                "{ctx}: outcome count"
            );
            for (s, (a, b)) in single.outcomes().iter().zip(batch.outcomes(i)).enumerate() {
                assert_eq!(a.opened, b.opened, "{ctx}: shard {s} open/prune");
                assert_eq!(
                    a.bound.to_bits(),
                    b.bound.to_bits(),
                    "{ctx}: shard {s} bound"
                );
                assert!(
                    a.cost.same_work(&b.cost),
                    "{ctx}: shard {s} charge {:?} vs {:?}",
                    a.cost,
                    b.cost
                );
            }
        }
    }
}

fn demo_clip(seed: u64) -> VideoClip {
    VideoClip {
        name: format!("demo{seed}"),
        scene: lab_scene(&ScenarioConfig {
            n_actors: 2,
            frames: 36,
            seed,
            ..Default::default()
        }),
        fps: 30.0,
    }
}

/// The database-facade workload: global k-NN, a duplicate of it,
/// clip-scoped k-NN, a range query, and an unknown-clip miss — all in one
/// batch.
fn facade_batch(traj: &[Vec<Point2>]) -> Vec<Query<'_>> {
    QueryBatch::new()
        .query(Query::knn(5).trajectory(&traj[0]).with_cost())
        .query(Query::knn(5).trajectory(&traj[0]).with_cost())
        .query(
            Query::knn(3)
                .trajectory(&traj[1])
                .in_clip("demo3")
                .with_cost(),
        )
        .query(Query::range(150.0).trajectory(&traj[1]).with_cost())
        .query(
            Query::knn(2)
                .trajectory(&traj[0])
                .in_clip("nope")
                .with_cost(),
        )
        .queries()
        .to_vec()
}

fn assert_results_eq(a: &QueryResult, b: &QueryResult, ctx: &str) {
    assert_eq!(a.hits.len(), b.hits.len(), "{ctx}: hit count");
    for (x, y) in a.hits.iter().zip(&b.hits) {
        assert_eq!(x.clip, y.clip, "{ctx}: hit clip");
        assert_eq!(x.og_id, y.og_id, "{ctx}: hit id");
        assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "{ctx}: hit distance");
    }
    let (ca, cb) = (a.cost.expect("cost requested"), b.cost.expect("cost"));
    assert!(ca.same_work(&cb), "{ctx}: {ca:?} vs {cb:?}");
}

/// `Database::query_batch` on both facades equals the per-query `query`
/// loop — including clip scoping, misses and duplicates — and a sharded
/// database answers exactly like the single-tree one.
#[test]
fn database_batch_matches_per_query_loop() {
    let plain = VideoDatabase::new(DbOptions::new());
    let sharded = ShardedDatabase::new(DbOptions::new().shards(3));
    for seed in [3, 7, 11] {
        plain.ingest_clip(&demo_clip(seed), seed);
        sharded.ingest_clip(&demo_clip(seed), seed);
    }
    let traj = vec![
        plain.og(0).expect("og 0 stored").centroid_series(),
        (0..25).map(|i| Point2::new(3.0 * i as f64, 70.0)).collect(),
    ];
    let batch = facade_batch(&traj);

    for (db, name) in [
        (&plain as &dyn Database, "plain"),
        (&sharded as &dyn Database, "sharded"),
    ] {
        let batched = db.query_batch(&batch);
        assert_eq!(batched.len(), batch.len());
        for (i, (r, q)) in batched.iter().zip(&batch).enumerate() {
            let single = db.query(q.clone());
            assert_results_eq(r, &single, &format!("{name} item={i}"));
        }
        assert!(batched[4].hits.is_empty(), "{name}: unknown clip must miss");
    }

    let a = plain.query_batch(&batch);
    let b = sharded.query_batch(&batch);
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x.hits.len(), y.hits.len(), "facades item={i}: hit count");
        for (hx, hy) in x.hits.iter().zip(&y.hits) {
            assert_eq!(hx.clip, hy.clip, "facades item={i}");
            assert_eq!(hx.og_id, hy.og_id, "facades item={i}");
            assert_eq!(hx.dist.to_bits(), hy.dist.to_bits(), "facades item={i}");
        }
    }
}

/// A `query_batch` response body over a real socket is, element for
/// element, byte-identical to the individual `query` responses for the
/// same specs (`elapsed_ns` and `batch_shared_accesses` normalized — the
/// two documented exceptions); malformed batches are rejected whole.
#[test]
fn query_batch_verb_matches_individual_queries() {
    let (handle, join) = boot(two_clip_db(), ServeConfig::default());
    let mut c = Client::connect(handle.addr());

    let specs = [
        r#"{"from":"0,80","to":"160,80","k":3}"#,
        r#"{"from":"0,80","to":"160,80","k":3}"#,
        r#"{"from":"10,40","to":"120,90","radius":1e9}"#,
        r#"{"from":"0,80","to":"160,80","k":2,"clip":"cam1"}"#,
    ];
    let singles: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let r = c.send(&format!(r#"{{"id":{i},"method":"query","params":{s}}}"#));
            normalize(result_slice(&r).expect("query result"))
        })
        .collect();

    let batch_req = format!(
        r#"{{"id":9,"method":"query_batch","params":{{"queries":[{}]}}}}"#,
        specs.join(",")
    );
    let r = c.send(&batch_req);
    let body = normalize(result_slice(&r).expect("query_batch result"));
    assert_eq!(
        body,
        format!("[{}]", singles.join(",")),
        "batch body diverged from individual responses"
    );

    // Structural rejections: an empty batch and a non-object element.
    let r = c.send(r#"{"id":10,"method":"query_batch","params":{"queries":[]}}"#);
    assert!(r.contains(r#""code":"invalid""#), "{r}");
    let r = c.send(r#"{"id":11,"method":"query_batch","params":{"queries":[1]}}"#);
    assert!(r.contains(r#""code":"invalid""#), "{r}");

    // The method counter (incremented at accept time, so the two
    // rejections above count too) and the width histogram (successful
    // batches only) both saw the traffic.
    let r = c.send(r#"{"id":12,"method":"metrics"}"#);
    let metrics = json_parse::parse(result_slice(&r).expect("metrics")).expect("parse");
    let counters = obj_get(&metrics, "counters");
    assert_eq!(as_u64(obj_get(counters, "serve.method.query_batch")), 3);
    let width = obj_get(obj_get(&metrics, "histograms"), "serve.batch.width");
    assert_eq!(as_u64(obj_get(width, "count")), 1, "one batch recorded");
    assert_eq!(as_u64(obj_get(width, "max")), specs.len() as u64);

    c.send(r#"{"id":13,"method":"shutdown"}"#);
    join.join().unwrap().unwrap();
}

/// With a coalescing window configured, a burst of concurrent single
/// `query` requests is answered from one batched execution: every
/// response is byte-identical to the un-coalesced reference, and the
/// width histogram shows a real batch (width > 1).
#[test]
fn coalescing_window_batches_concurrent_queries() {
    let reference = {
        let (handle, join) = boot(two_clip_db(), ServeConfig::default());
        let r = call(
            handle.addr(),
            r#"{"id":1,"method":"query","params":{"from":"0,80","to":"160,80","k":3}}"#,
        );
        call(handle.addr(), r#"{"id":0,"method":"shutdown"}"#);
        join.join().unwrap().unwrap();
        normalize(result_slice(&r).expect("reference query"))
    };

    let cfg = ServeConfig {
        coalesce_window: Some(Duration::from_millis(300)),
        ..ServeConfig::default()
    };
    let (handle, join) = boot(two_clip_db(), cfg);
    const BURST: usize = 4;
    let workers: Vec<_> = (0..BURST)
        .map(|i| {
            let addr = handle.addr();
            std::thread::spawn(move || {
                call(
                    addr,
                    &format!(
                        r#"{{"id":{i},"method":"query","params":{{"from":"0,80","to":"160,80","k":3}}}}"#
                    ),
                )
            })
        })
        .collect();
    for (i, w) in workers.into_iter().enumerate() {
        let r = w.join().expect("burst worker");
        assert!(r.contains(&format!(r#""id":{i},"#)), "{r}");
        assert_eq!(
            normalize(result_slice(&r).expect("burst query")),
            reference,
            "coalesced response diverged from the un-coalesced reference"
        );
    }

    let r = call(handle.addr(), r#"{"id":9,"method":"metrics"}"#);
    let metrics = json_parse::parse(result_slice(&r).expect("metrics")).expect("parse");
    let counters = obj_get(&metrics, "counters");
    assert_eq!(
        as_u64(obj_get(counters, "serve.coalesced")),
        BURST as u64,
        "every burst query must drain through a coalescing flush"
    );
    let width = obj_get(obj_get(&metrics, "histograms"), "serve.batch.width");
    assert!(
        as_u64(obj_get(width, "max")) > 1,
        "a 300ms window over a concurrent burst must batch: {}",
        width.render()
    );

    call(handle.addr(), r#"{"id":10,"method":"shutdown"}"#);
    join.join().unwrap().unwrap();
}

/// Strips both documented per-response nondeterminisms from a query body.
fn normalize(body: &str) -> String {
    wire::zero_batch_shared(&wire::zero_elapsed_ns(body))
}

//! Batch equivalence suite: a batch is a deduplicated loop of singles.
//!
//! `Database::query_batch` answers N queries in order, collapsing identical
//! members onto their first occurrence. Every member must be
//! indistinguishable from the same query run alone in every observable
//! except wall clock: identical hit lists (ids **and** distance bits) and
//! identical logical [`QueryCost`] work fields, through both `Database`
//! facades and over the server socket. The reference is `Database::query`
//! itself.
//!
//! The one documented exception is `QueryCost::batch_shared_accesses`: 0
//! for a member that ran, `node_accesses` for a duplicate that was handed
//! its representative's answer. It is excluded from
//! [`QueryCost::same_work`] and is zero outside a batch.
//!
//! `scripts/ci.sh` runs this binary under `STRG_THREADS=1` and
//! `STRG_THREADS=8`, so the equivalence is pinned at both ends of the
//! thread knob.

mod serve_util;

use std::time::Duration;

use serve_util::*;
use strg::core::BatchScratch;
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

/// The benchmark probe's index-level batch is a loop of singles: slot `i`
/// holds exactly what `knn_with_cost` returns for query `i`, duplicates
/// included, at widths from a singleton to one that reuses a wider arena.
#[test]
fn single_tree_batch_matches_sequential_replay() {
    let idx = build_index(dataset(120, 11), 5);
    let pool = queries(8, 999);
    let mut scratch = BatchScratch::new();
    for width in [1usize, 7, 64, 2] {
        let batch: Vec<&[Point2]> = (0..width)
            .map(|i| pool[i % pool.len()].as_slice())
            .collect();
        idx.knn_batch_with_cost_into(&batch, 5, &mut scratch);
        assert_eq!(scratch.len(), width);
        for (i, q) in batch.iter().enumerate() {
            let ctx = format!("width={width} item={i}");
            let (hits, cost) = idx.knn_with_cost(q, 5);
            assert_hits_eq(&hits, scratch.hits(i), &ctx);
            let slot = scratch.cost(i);
            assert!(cost.same_work(&slot), "{ctx}: {cost:?} vs {slot:?}");
            assert_eq!(
                slot.batch_shared_accesses, 0,
                "{ctx}: the probe shares nothing"
            );
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
    vec![
        Query::knn(5).trajectory(&traj[0]).with_cost(),
        Query::knn(5).trajectory(&traj[0]).with_cost(),
        Query::knn(3)
            .trajectory(&traj[1])
            .in_clip("demo3")
            .with_cost(),
        Query::range(150.0).trajectory(&traj[1]).with_cost(),
        Query::knn(2)
            .trajectory(&traj[0])
            .in_clip("nope")
            .with_cost(),
    ]
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

/// The dedup rule and its cost attribution, on both flavours: a
/// representative reports no sharing, a duplicate reports all of its node
/// accesses as shared and carries its own `with_cost()` choice,
/// background-matched members always run, and the `query.*` counters equal
/// those of a twin database that answered the same members one at a time.
#[test]
fn batch_dedup_contract() {
    let build = |shards: usize| -> Box<dyn Database> {
        let db: Box<dyn Database> = if shards > 1 {
            Box::new(ShardedDatabase::new(DbOptions::new().shards(shards)))
        } else {
            Box::new(VideoDatabase::new(DbOptions::new()))
        };
        for seed in [3, 7, 11] {
            db.ingest_clip(&demo_clip(seed), seed);
        }
        db
    };
    let frames = demo_clip(3).render_all(3);
    for shards in [1, 3] {
        let (db, twin) = (build(shards), build(shards));
        let traj = [
            db.og(0).expect("og 0 stored").centroid_series(),
            (0..25).map(|i| Point2::new(3.0 * i as f64, 70.0)).collect(),
        ];
        let knn = || Query::knn(5).trajectory(&traj[0]);
        let range = || Query::range(150.0).trajectory(&traj[1]).with_cost();
        // (member, index of the representative it collapses onto)
        let members: Vec<(Query<'_>, Option<usize>)> = vec![
            (knn().with_cost(), None),
            (knn(), Some(0)),
            (knn().with_cost(), Some(0)),
            (range(), None),
            (range(), Some(3)),
            (knn().in_clip("demo3").with_cost(), None),
            (knn().in_clip("demo3").with_cost(), Some(5)),
            (knn().with_background(&frames).with_cost(), None),
            (knn().with_background(&frames).with_cost(), None),
            (Query::knn(2).trajectory(&traj[1]), None),
            (Query::knn(2).trajectory(&traj[1]).with_cost(), Some(9)),
        ];
        let batch: Vec<Query<'_>> = members.iter().map(|(q, _)| q.clone()).collect();
        let results = db.query_batch(&batch);
        assert_eq!(results.len(), batch.len());

        for (i, ((_, rep), r)) in members.iter().zip(&results).enumerate() {
            let ctx = format!("shards={shards} member={i}");
            // Members 1 and 9 are the two built without `with_cost()`.
            let wanted = ![1, 9].contains(&i);
            assert_eq!(r.cost.is_some(), wanted, "{ctx}: cost follows with_cost()");
            let Some(cost) = r.cost else { continue };
            match rep {
                None => assert_eq!(cost.batch_shared_accesses, 0, "{ctx}: ran itself"),
                Some(rep) => {
                    assert!(cost.node_accesses > 0, "{ctx}: did real work");
                    assert_eq!(cost.batch_shared_accesses, cost.node_accesses, "{ctx}");
                    assert_eq!(r.hits.len(), results[*rep].hits.len(), "{ctx}: hit count");
                    for (x, y) in r.hits.iter().zip(&results[*rep].hits) {
                        assert_eq!((x.og_id, &x.clip), (y.og_id, &y.clip), "{ctx}: hit");
                        assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "{ctx}: distance");
                    }
                }
            }
        }

        for q in &batch {
            twin.query(q.clone());
        }
        let (got, want) = (db.metrics_snapshot(), twin.metrics_snapshot());
        for name in [
            "query.knn.count",
            "query.range.count",
            "query.knn.distance_calls",
        ] {
            assert!(
                want.counter(name) > Some(0),
                "shards={shards}: {name} moved"
            );
            assert_eq!(
                got.counter(name),
                want.counter(name),
                "shards={shards}: {name}"
            );
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

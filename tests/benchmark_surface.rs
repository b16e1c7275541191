//! The library surface `benchmark/` compiles against, named in one place.
//!
//! `benchmark/` is a package of its own (`benchmark/Cargo.toml`), so
//! `cargo test` never builds it: deleting or reshaping an item it uses
//! passes every suite here and then fails every benchmark run before it
//! measures anything. This file names each item, field and method
//! `benchmark/src` uses, the way it uses them, so the same break fails
//! tier-1 instead. It runs them once on a tiny fixture as well.
//!
//! **Removing or renaming anything below needs a `benchmark` PR first**
//! (one that changes `benchmark/src` and claims no gain); only then may a
//! later PR delete it from the library and from this file. Adding a use to
//! `benchmark/src` means adding it here.

use std::path::PathBuf;
use std::sync::{mpsc, Arc};

use strg::cluster::{Clusterer, EmClusterer, EmConfig};
use strg::core::index::{BatchScratch, QueryScratch};
use strg::core::shard::ShardedDatabase;
use strg::mtree::MtreeScratch;
use strg::obs::Json;
use strg::prelude::*;
use strg::serve::pool::Pool;
use strg::serve::protocol::{render_ok, result_slice, Request};
use strg::serve::wire::{self, QuerySpec};
use strg::serve::{json_parse, ServeConfig, Server, ServerHandle};
use strg::synth::{generate_total, SynthConfig};

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("strg_bench_surface_{name}_{}", std::process::id()))
}

/// `corpus.rs`'s `LibIndex`.
type LibIndex = StrgIndex<Point2, EgedMetric<Point2>>;

#[test]
fn benchmark_surface() {
    // corpus.rs: options, clips, the two databases, synthetic data.
    let opts = DbOptions::new().threads(Threads::Fixed(1));
    let clip: VideoClip = wire::make_clip("lab", "surface-0", 1, 12, 7).expect("known scene");
    let name: String = clip.name.clone();
    let db = Arc::new(VideoDatabase::new(opts));
    let erased: &dyn Database = &*db;
    erased.ingest_clip(&clip, 7);
    let sharded = Arc::new(ShardedDatabase::new(opts.shards(2)));
    sharded.ingest_clip(&clip, 7);
    let (clips, objects): (usize, usize) = (erased.stats().clips, erased.stats().objects);
    assert!(
        clips == 1 && objects > 0,
        "the fixture clip holds an object"
    );
    let series: Vec<Point2> = erased.og(0).expect("og 0").centroid_series();
    let synth: Vec<Vec<Point2>> = generate_total(24, &SynthConfig::with_noise(0.10), 3).series();
    let items: Vec<(u64, Vec<Point2>)> = synth
        .into_iter()
        .enumerate()
        .map(|(i, s)| (i as u64, s))
        .collect();

    // layers.rs: the ingest stages one by one, then whole.
    let frames: Vec<Frame> = clip.render_all(7);
    let (rags, _stats) = frames_to_rags_with_stats(&frames, &opts.segment, opts.threads);
    let strg_graph = strg::graph::build_strg(rags, &opts.tracker);
    let parts = decompose(&strg_graph, &opts.decompose);
    let og_items: Vec<(u64, Vec<Point2>)> = parts
        .objects
        .iter()
        .enumerate()
        .map(|(i, og)| (i as u64, og.centroid_series()))
        .collect();
    let mut scratch_index = StrgIndex::new(EgedMetric::<Point2>::new(), opts.index);
    scratch_index.add_segment(parts.background, og_items);
    VideoDatabase::new(opts).ingest_frames(&name, &frames);

    // corpus.rs `lib_index_config` / `build_lib_index`.
    let mut cfg = StrgIndexConfig::with_k(2).with_threads(Threads::Fixed(1));
    cfg.seed = 1;
    cfg.em_max_iters = 2;
    cfg.em_n_init = 1;
    let mut idx: LibIndex = StrgIndex::new(EgedMetric::<Point2>::new(), cfg);
    idx.add_segment(BackgroundGraph::default(), items.clone());
    let _: (usize, usize, usize) = (idx.size_bytes(), idx.len(), idx.cluster_count());

    // The bare index: k-NN, range and batch into caller-owned arenas.
    let q = series.as_slice();
    let mut scratch = QueryScratch::new();
    let (hits, cost) = idx.knn_with_cost_into(q, 3, &mut scratch);
    let radius = hits.last().map_or(0.0, |h| h.dist);
    let _: (u64, QueryCost) = (hits[0].og_id, cost);
    let (hits, _) = idx.range_with_cost_into(q, radius, &mut scratch);
    assert!(!hits.is_empty());
    let mut batch_scratch = BatchScratch::new();
    idx.knn_batch_with_cost_into(&[q, q], 2, &mut batch_scratch);
    db.with_index(|i| i.knn_with_cost_into(q, 1, &mut scratch).1.elapsed);
    db.with_index(|i| i.size_bytes());

    // QueryCost's fields and merge.
    let mut total = QueryCost {
        distance_calls: 1,
        node_accesses: 1,
        ..QueryCost::default()
    };
    total.merge(&cost);
    let _: [u64; 7] = [
        total.distance_calls,
        total.node_accesses,
        total.pruned,
        total.lb_pruned,
        total.early_abandoned,
        total.shards_pruned,
        total.batch_shared_accesses,
    ];

    // Queries through both facades, singles and batches, as QuerySpec
    // makes them.
    let spec = QuerySpec {
        from: Point2::new(0.0, 60.0),
        to: Point2::new(160.0, 60.0),
        steps: 30,
        radius: None,
        k: 2,
        clip: None,
    };
    let traj = spec.trajectory();
    let range_spec = QuerySpec {
        radius: Some(1e9),
        ..spec.clone()
    };
    let result: QueryResult = db.query(spec.to_query(&traj));
    let _: Option<(u64, f64)> = result.hits.first().map(|h| (h.og_id, h.dist));
    let cost = result.cost.expect("wire queries request cost");
    let _ = cost.elapsed.as_nanos();
    db.query(range_spec.to_query(&traj));
    db.query(
        Query::knn(1)
            .trajectory(&traj)
            .in_clip(db.clip_names()[0].clone()),
    );
    let batch: Vec<Query<'_>> = vec![spec.to_query(&traj), spec.to_query(&traj)];
    let _: Vec<QueryResult> = sharded.query_batch(&batch);
    let _: Vec<QueryResult> = erased.query_batch(&batch);
    sharded.query(batch[0].clone());

    // Distance kernels and bounds.
    let metric = EgedMetric::<Point2>::new();
    let d = metric.distance(q, &traj);
    let _: Option<f64> = metric.distance_upto(q, &traj, d);
    let (qs, ts) = (metric.summarize(q), metric.summarize(&traj));
    let _: f64 = metric.lower_bound(q, &qs, &ts);

    // Persistence: save, load, reopen mode, shard directories.
    let file = temp_path("single");
    db.save(&file).expect("save");
    let loaded = VideoDatabase::load(&file, opts).expect("load");
    assert!(loaded.persist_info().reopen == ReopenMode::Fast);
    erased.save(&file).expect("save through the trait");
    let _ = std::fs::remove_file(&file);
    let dir = temp_path("sharded");
    sharded.save(&dir).expect("save shards");
    ShardedDatabase::load(&dir, opts).expect("load shards");
    let _ = std::fs::remove_dir_all(&dir);

    // obs.
    let recorder = Recorder::new();
    recorder.record_cost("probe.knn", &total);
    let snapshot: String = db.metrics_snapshot().to_json().render();
    let doc = Json::obj(vec![
        ("u", Json::U64(1)),
        ("f", Json::F64(0.5)),
        ("b", Json::Bool(true)),
        ("n", Json::Null),
        ("s", Json::str("x")),
        ("a", Json::Array(vec![Json::Str("y".into())])),
    ]);
    let Json::Object(fields) = &doc else {
        panic!("Json::obj builds an object");
    };
    assert_eq!(fields.len(), 6);

    // serve: the wire layer by parts, the pool, and a booted server.
    let line =
        r#"{"id":1,"method":"query","params":{"from":"0,60","to":"160,60","steps":30,"k":2}}"#;
    let parsed: Json = json_parse::parse(line).expect("valid JSON");
    json_parse::parse(&snapshot).expect("the snapshot is JSON");
    let req = Request::from_json(parsed).expect("request");
    let parsed_spec = wire::parse_query_spec(&req.params()).expect("spec");
    let reply: String = render_ok(
        req.id,
        wire::query_json(&db.query(parsed_spec.to_query(&traj))),
    );
    let body = result_slice(&reply).expect("an ok reply has a result");
    assert_eq!(
        wire::zero_elapsed_ns(body),
        wire::zero_elapsed_ns(&wire::query_json(&result).render())
    );

    let pool = Pool::new(1, 4);
    let (tx, rx) = mpsc::channel::<()>();
    pool.try_submit(Box::new(move || {
        let _ = tx.send(());
    }))
    .expect("an idle pool accepts a job");
    rx.recv().expect("the job replies");
    pool.shutdown();

    let cfg = ServeConfig {
        threads: Threads::Fixed(1),
        db_path: None,
        coalesce_window: None,
        ..ServeConfig::default()
    };
    let shared: Arc<dyn Database> = db.clone();
    let server = Server::bind_shared("127.0.0.1:0", shared, cfg).expect("bind");
    let _addr: std::net::SocketAddr = server.local_addr();
    let handle: ServerHandle = server.handle();
    let join = std::thread::spawn(move || server.run());
    handle.shutdown();
    join.join().expect("server thread").expect("clean shutdown");

    // The baselines: EM on its own, the M-tree and the 3DR-tree.
    let data: Vec<Vec<Point2>> = items.iter().map(|(_, s)| s.clone()).collect();
    let mut em_cfg = EmConfig::new(2)
        .with_seed(1)
        .with_threads(Threads::Fixed(1));
    em_cfg.max_iters = 2;
    em_cfg.n_init = 1;
    let em = EmClusterer::new(CountingDistance::new(Eged), em_cfg);
    em.fit(&data);
    assert!(em.dist.count() > 0);
    let mtree = MTree::bulk_insert(
        EgedMetric::<Point2>::new(),
        MTreeConfig::random(1),
        items.clone(),
    );
    let mut mscratch = MtreeScratch::new();
    let (hits, _) = mtree.knn_with_cost_into(q, 3, &mut mscratch);
    let _: Vec<(u64, f64)> = hits.iter().map(|n| (n.id, n.dist)).collect();
    let mut rtree = RTree3::new();
    for (id, s) in &items {
        let points: Vec<(f64, f64)> = s.iter().map(|p| (p.x, p.y)).collect();
        rtree.insert_trajectory(*id, &points, 0.0);
    }
    rtree.nearest_ids([80.0, 60.0, 5.0], 3);
}

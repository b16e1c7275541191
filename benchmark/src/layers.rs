//! The per-layer probe suite of a traced run: every layer is measured
//! from outside, by timing calls into its public functions.
//!
//! The suite is the same whichever workload is being traced — a layer's
//! own cost does not depend on who called it — and builds what it needs
//! itself: the corpus as a single tree and as shards, the `lib_index`
//! data with its index and the two baseline trees, and a server.

use std::sync::mpsc;
use std::time::Instant;

use strg::cluster::{Clusterer, EmClusterer, EmConfig};
use strg::core::index::{BatchScratch, QueryScratch};
use strg::core::shard::ShardedDatabase;
use strg::mtree::MtreeScratch;
use strg::obs::Json;
use strg::prelude::*;
use strg::serve::json_parse;
use strg::serve::pool::Pool;
use strg::serve::protocol::{render_ok, Request};
use strg::serve::wire::{self, QuerySpec};

use crate::client::{boot, is_ok, Client};
use crate::corpus::{
    build_sharded, corpus_clip, db_options, ingest_line, knn_specs, lib_items, lib_queries,
    query_lines, stored_series, Scale, CORPUS_SEED,
};
use crate::env::{LIB_INDEX_THREADS, POOL_THREADS};
use crate::oracle;
use crate::report::{Metric, PER_LAYER};
use crate::rng::Rng;
use crate::stats::{median, Sorted};
use crate::workloads::ScratchDir;

/// Collects metrics by registered name, so a typo is caught at once and
/// the unit comes from the registry.
struct Sink(Vec<Metric>);

impl Sink {
    fn put(&mut self, name: &str, value: f64, samples: usize) {
        let unit = PER_LAYER
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{name} is not a registered per-layer metric"))
            .1;
        self.0.push(Metric::new(name, value, unit, samples as u64));
    }
}

/// Seconds taken by each of `n` calls of `f(i)`.
fn times(n: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_secs_f64()
        })
        .collect()
}

fn p50(secs: &[f64], scale: f64) -> f64 {
    Sorted::new(secs.iter().map(|s| s * scale).collect()).median()
}

/// Upper edge of the bucket holding the `q`-quantile of a log2 histogram
/// as the `metrics` verb renders it (`[[le, count], ..]`).
fn histogram_quantile(hist: &Json, q: f64) -> f64 {
    let Json::Object(fields) = hist else {
        return 0.0;
    };
    let field = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
    let (Some(Json::U64(count)), Some(Json::Array(buckets))) = (field("count"), field("buckets"))
    else {
        return 0.0;
    };
    let target = (q * *count as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for b in buckets {
        if let Json::Array(pair) = b {
            if let [Json::U64(le), Json::U64(n)] = pair.as_slice() {
                seen += n;
                if seen >= target {
                    return *le as f64;
                }
            }
        }
    }
    0.0
}

fn json_get<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
    match v {
        Json::Object(fields) => fields.iter().find(|(n, _)| n == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Runs every probe and returns one metric per registered per-layer name
/// (the two `trace.*` names are the traced workload's to add).
pub fn probe(scale: &Scale, seed: u64) -> Vec<Metric> {
    let mut out = Sink(Vec::new());
    let dir = ScratchDir::new("layers").expect("scratch directory");
    let mut rng = Rng::new(seed ^ 0x1A7E);
    let n_specs = if scale.smoke { 16 } else { 100 };
    let specs = knn_specs(&mut rng, n_specs, &[10]);
    let trajectories: Vec<Vec<Point2>> = specs.iter().map(QuerySpec::trajectory).collect();
    let opts = db_options();

    // ---- video, graph, core.index.add_segment, core.pipeline.ingest ----
    // One staged pass over a few corpus clips gives each ingest layer its
    // own time; the same frames then go through `ingest_frames` whole.
    let probe_clips = if scale.smoke { 3 } else { 12 };
    let (mut render, mut segment, mut track, mut decomp, mut add_seg) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut frames_total = 0usize;
    let mut objects_total = 0usize;
    let mut rendered = Vec::new();
    let mut scratch_index = StrgIndex::new(EgedMetric::<Point2>::new(), opts.index);
    for i in 0..probe_clips {
        let (clip, clip_seed) = corpus_clip(i);
        let t = Instant::now();
        let frames = clip.render_all(clip_seed);
        render.push(t.elapsed().as_secs_f64());
        frames_total += frames.len();
        let t = Instant::now();
        let (rags, _) = frames_to_rags_with_stats(&frames, &opts.segment, opts.threads);
        segment.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let strg = strg::graph::build_strg(rags, &opts.tracker);
        track.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let parts = decompose(&strg, &opts.decompose);
        decomp.push(t.elapsed().as_secs_f64());
        objects_total += parts.objects.len();
        let items: Vec<(u64, Vec<Point2>)> = parts
            .objects
            .iter()
            .enumerate()
            .map(|(j, og)| ((i * 64 + j) as u64, og.centroid_series()))
            .collect();
        let t = Instant::now();
        scratch_index.add_segment(parts.background, items);
        add_seg.push(t.elapsed().as_secs_f64());
        rendered.push((clip.name.clone(), frames));
    }
    let per_frame = |v: &[f64]| v.iter().sum::<f64>() * 1e6 / frames_total.max(1) as f64;
    out.put(
        "video.render_us_per_frame",
        per_frame(&render),
        frames_total,
    );
    out.put(
        "video.segment_us_per_frame",
        per_frame(&segment),
        frames_total,
    );
    out.put("graph.track_us_per_frame", per_frame(&track), frames_total);
    out.put(
        "graph.decompose_us_per_clip",
        p50(&decomp, 1e6),
        probe_clips,
    );
    out.put(
        "graph.objects_per_clip",
        objects_total as f64 / probe_clips as f64,
        probe_clips,
    );
    out.put(
        "core.index.add_segment_ms_per_clip",
        p50(&add_seg, 1e3),
        probe_clips,
    );
    let ingest_db = VideoDatabase::new(opts);
    let ingest = times(rendered.len(), |i| {
        ingest_db.ingest_frames(&rendered[i].0, &rendered[i].1);
    });
    out.put(
        "core.pipeline.ingest_ms_per_clip",
        p50(&ingest, 1e3),
        ingest.len(),
    );
    drop((rendered, ingest_db));

    // ---- the corpus as one tree: core.pipeline, core.index, distance ----
    let db = crate::corpus::build_single(scale.clips, &mut || {});
    // The facade and the bare index answer the same query back to back, so
    // the facade's overhead is a median of paired differences rather than
    // a difference of two medians taken minutes apart.
    let mut scratch = QueryScratch::new();
    let mut total = QueryCost::default();
    let mut hits_returned = 0u64;
    let mut radii = Vec::with_capacity(specs.len());
    let (mut pipeline, mut index_knn) = (Vec::new(), Vec::new());
    for i in 0..4.min(specs.len()) {
        // Warm the thread-local and the caller-owned arena.
        std::hint::black_box(db.query(specs[i].to_query(&trajectories[i])));
        db.with_index(|idx| {
            idx.knn_with_cost_into(&trajectories[i], specs[i].k, &mut scratch);
        });
    }
    for i in 0..specs.len() {
        let t = Instant::now();
        std::hint::black_box(db.query(specs[i].to_query(&trajectories[i])));
        let facade = t.elapsed().as_secs_f64();
        let (bare, cost, n_hits, radius) = db.with_index(|idx| {
            let t = Instant::now();
            let (hits, cost) = idx.knn_with_cost_into(&trajectories[i], specs[i].k, &mut scratch);
            let bare = t.elapsed().as_secs_f64();
            let radius = oracle::radius_including(hits.last().map_or(0.0, |h| h.dist));
            (bare, cost, hits.len(), radius)
        });
        pipeline.push(facade);
        index_knn.push(bare);
        radii.push(radius);
        total.merge(&cost);
        hits_returned += n_hits as u64;
    }
    let pipeline_p50 = p50(&pipeline, 1e6);
    let index_knn_p50 = p50(&index_knn, 1e6);
    let paired: Vec<f64> = pipeline
        .iter()
        .zip(&index_knn)
        .map(|(f, b)| f - b)
        .collect();
    let nq = specs.len() as f64;
    out.put("core.pipeline.query_us_p50", pipeline_p50, pipeline.len());
    out.put("core.index.knn_us_p50", index_knn_p50, index_knn.len());
    out.put("core.pipeline.overhead_us", p50(&paired, 1e6), paired.len());
    let clip_names = db.clip_names();
    let scoped = times(specs.len(), |i| {
        let q = Query::knn(10)
            .trajectory(&trajectories[i])
            .in_clip(clip_names[i % clip_names.len()].clone());
        std::hint::black_box(db.query(q));
    });
    out.put(
        "core.pipeline.scoped_query_us_p50",
        p50(&scoped, 1e6),
        scoped.len(),
    );
    let index_range = db.with_index(|idx| {
        times(specs.len(), |i| {
            let (hits, _) = idx.range_with_cost_into(&trajectories[i], radii[i], &mut scratch);
            std::hint::black_box(hits.len());
        })
    });
    out.put(
        "core.index.range_us_p50",
        p50(&index_range, 1e6),
        index_range.len(),
    );
    let mut batch_scratch = BatchScratch::new();
    let batches = specs.len() / 16;
    let batch16 = db.with_index(|idx| {
        times(batches.max(1), |b| {
            let queries: Vec<&[Point2]> = trajectories
                [b * 16..(b * 16 + 16).min(trajectories.len())]
                .iter()
                .map(Vec::as_slice)
                .collect();
            idx.knn_batch_with_cost_into(&queries, 10, &mut batch_scratch);
        })
    });
    out.put(
        "core.index.batch16_us_per_query",
        p50(&batch16, 1e6) / 16.0,
        batch16.len(),
    );
    out.put(
        "core.index.node_accesses_per_query",
        total.node_accesses as f64 / nq,
        specs.len(),
    );
    out.put(
        "core.index.pruned_per_query",
        total.pruned as f64 / nq,
        specs.len(),
    );
    out.put(
        "core.index.lb_pruned_per_query",
        total.lb_pruned as f64 / nq,
        specs.len(),
    );
    out.put(
        "core.index.early_abandoned_per_query",
        total.early_abandoned as f64 / nq,
        specs.len(),
    );
    out.put(
        "core.index.distance_calls_per_hit",
        total.distance_calls as f64 / hits_returned.max(1) as f64,
        hits_returned as usize,
    );
    out.put(
        "core.index.size_bytes",
        db.with_index(|idx| idx.size_bytes()) as f64,
        0,
    );

    // distance: the kernels on (query, stored object) pairs of the corpus —
    // the pairs the index evaluates — ~10,000 of them at full scale.
    let objects = stored_series(&*db);
    let metric = EgedMetric::<Point2>::new();
    let pair_queries = (10_000 / objects.len().max(1)).clamp(2, specs.len());
    let summaries: Vec<_> = objects.iter().map(|(_, s)| metric.summarize(s)).collect();
    let (mut full_ns, mut upto_ns, mut lb_ns) = (0f64, 0f64, 0f64);
    let (mut pairs, mut abandoned) = (0usize, 0usize);
    let (mut tight_sum, mut tight_n) = (0f64, 0usize);
    for q in trajectories.iter().take(pair_queries) {
        let t = Instant::now();
        let truth: Vec<f64> = objects.iter().map(|(_, s)| metric.distance(q, s)).collect();
        full_ns += t.elapsed().as_nanos() as f64;
        let mut sorted = truth.clone();
        sorted.sort_by(f64::total_cmp);
        let cutoff = sorted[9.min(sorted.len() - 1)];
        let t = Instant::now();
        for (_, s) in &objects {
            if metric.distance_upto(q, s, cutoff).is_none() {
                abandoned += 1;
            }
        }
        upto_ns += t.elapsed().as_nanos() as f64;
        let qs = metric.summarize(q);
        let t = Instant::now();
        let bounds: Vec<f64> = summaries
            .iter()
            .map(|s| metric.lower_bound(q, &qs, s))
            .collect();
        lb_ns += t.elapsed().as_nanos() as f64;
        for (lb, d) in bounds.iter().zip(&truth) {
            if *d > 0.0 {
                tight_sum += lb / d;
                tight_n += 1;
            }
        }
        pairs += objects.len();
    }
    let per_pair = |ns: f64| ns / pairs.max(1) as f64;
    out.put("distance.eged_m_ns_per_call", per_pair(full_ns), pairs);
    out.put("distance.eged_m_upto_ns_per_call", per_pair(upto_ns), pairs);
    out.put(
        "distance.abandon_ratio",
        abandoned as f64 / pairs.max(1) as f64,
        pairs,
    );
    out.put("distance.lower_bound_ns_per_call", per_pair(lb_ns), pairs);
    out.put(
        "distance.lb_tightness",
        tight_sum / tight_n.max(1) as f64,
        tight_n,
    );
    out.put(
        "distance.share_of_knn",
        (total.distance_calls as f64 / nq) * per_pair(upto_ns) / (index_knn_p50 * 1e3).max(1e-9),
        0,
    );

    // core.persist and parallel: the same database saved, loaded, and
    // loaded again pinned to one worker.
    let file = dir.join("single.strgdb");
    let reps = if scale.smoke { 3 } else { 10 };
    let save = times(reps, |_| db.save(&file).expect("save"));
    let file_bytes = std::fs::metadata(&file).map_or(0, |m| m.len());
    let load = times(reps, |_| {
        std::hint::black_box(VideoDatabase::load(&file, opts).expect("load"));
    });
    out.put("core.persist.save_ms", p50(&save, 1e3), save.len());
    out.put("core.persist.load_ms", p50(&load, 1e3), load.len());
    out.put("core.persist.file_bytes", file_bytes as f64, 0);
    out.put(
        "core.persist.save_mb_per_s",
        file_bytes as f64 / 1e6 / median(&save).max(1e-9),
        save.len(),
    );
    let db1 =
        VideoDatabase::load(&file, DbOptions::new().threads(Threads::Fixed(1))).expect("load");
    let one_thread = times(specs.len(), |i| {
        std::hint::black_box(db1.query(specs[i].to_query(&trajectories[i])));
    });
    out.put(
        "parallel.knn_speedup_2t",
        p50(&one_thread, 1e6) / pipeline_p50.max(1e-9),
        one_thread.len(),
    );
    drop(db1);

    // obs
    let recorder = Recorder::new();
    let sample_cost = QueryCost {
        distance_calls: 100,
        node_accesses: 20,
        ..QueryCost::default()
    };
    let n_rec = if scale.smoke { 1_000 } else { 20_000 };
    let t = Instant::now();
    for _ in 0..n_rec {
        recorder.record_cost("probe.knn", &sample_cost);
    }
    out.put(
        "obs.record_cost_ns",
        t.elapsed().as_nanos() as f64 / n_rec as f64,
        n_rec,
    );
    let snap = times(if scale.smoke { 20 } else { 200 }, |_| {
        std::hint::black_box(db.metrics_snapshot().to_json().render());
    });
    out.put("obs.snapshot_render_us", p50(&snap, 1e6), snap.len());

    // ---- serve: a server over the same database ----
    let lines = query_lines(&specs);
    let results: Vec<QueryResult> = specs
        .iter()
        .zip(&trajectories)
        .map(|(s, t)| db.query(s.to_query(t)))
        .collect();
    let parse = times(lines.len(), |i| {
        std::hint::black_box(json_parse::parse(&lines[i]).expect("valid JSON"));
    });
    out.put("serve.json_parse_us", p50(&parse, 1e6), parse.len());
    let parsed: Vec<Json> = lines
        .iter()
        .map(|l| json_parse::parse(l).expect("valid JSON"))
        .collect();
    let mut parsed = parsed.into_iter();
    let spec_parse = times(lines.len(), |_| {
        let req = Request::from_json(parsed.next().expect("one per line")).expect("request");
        let spec = wire::parse_query_spec(&req.params()).expect("spec");
        std::hint::black_box(spec.trajectory());
    });
    out.put(
        "serve.spec_parse_us",
        p50(&spec_parse, 1e6),
        spec_parse.len(),
    );
    let render = times(results.len(), |i| {
        std::hint::black_box(render_ok(Some(i as u64), wire::query_json(&results[i])));
    });
    out.put("serve.render_us", p50(&render, 1e6), render.len());
    let pool = Pool::new(POOL_THREADS, 64);
    let n_jobs = if scale.smoke { 200 } else { 2_000 };
    let handoff = times(n_jobs, |_| {
        let (tx, rx) = mpsc::channel::<()>();
        pool.try_submit(Box::new(move || {
            let _ = tx.send(());
        }))
        .expect("an idle pool accepts a job");
        rx.recv().expect("the job replies");
    });
    pool.shutdown();
    out.put("serve.pool_handoff_us", p50(&handoff, 1e6), handoff.len());

    let erased: std::sync::Arc<dyn Database> = db.clone();
    let server = boot(erased, None).expect("bind 127.0.0.1:0");
    let mut client = Client::connect(server.addr).expect("connect");
    let mut reply = String::new();
    let n_ping = if scale.smoke { 5 } else { 30 };
    let ping = times(n_ping, |i| {
        client
            .call_into(&format!("{{\"id\":{i},\"method\":\"ping\"}}"), &mut reply)
            .expect("ping");
    });
    out.put("serve.ping_ms_p50", p50(&ping, 1e3), ping.len());
    let n_sock = if scale.smoke { 5 } else { 40 };
    let mut reply_bytes = 0usize;
    let mut wrong = 0usize;
    let socket = times(n_sock, |i| {
        client.call_into(&lines[i], &mut reply).expect("query");
        reply_bytes += reply.len();
        if !is_ok(&reply) {
            wrong += 1;
        }
    });
    assert_eq!(wrong, 0, "the probe server refused a query");
    let in_process = p50(&pipeline[..n_sock.min(pipeline.len())], 1e3);
    out.put(
        "serve.overhead_ms_p50",
        p50(&socket, 1e3) - in_process,
        socket.len(),
    );
    out.put(
        "serve.response_bytes_per_query",
        reply_bytes as f64 / n_sock as f64,
        n_sock,
    );
    let ingest_reply = client
        .call(&ingest_line(0, "probe-ingest", scale.clips))
        .expect("ingest");
    out.put("serve.ingest_response_bytes", ingest_reply.len() as f64, 1);
    let metrics_reply = client.call("{\"method\":\"metrics\"}").expect("metrics");
    let doc = json_parse::parse(&metrics_reply).expect("the metrics reply is JSON");
    let result = json_get(&doc, "result");
    let depth = result
        .and_then(|r| json_get(r, "histograms"))
        .and_then(|h| json_get(h, "serve.queue_depth"))
        .map_or(0.0, |h| histogram_quantile(h, 0.95));
    let rejects = result
        .and_then(|r| json_get(r, "counters"))
        .and_then(|c| json_get(c, "serve.rejects"))
        .map_or(0.0, |v| if let Json::U64(n) = v { *n as f64 } else { 0.0 });
    out.put("serve.queue_depth_p95", depth, n_ping + n_sock + 1);
    out.put("serve.rejects", rejects, 0);
    drop(client);
    server.stop();

    // ---- core.shard: the corpus across four shards ----
    let sharded = build_sharded(scale.clips, &mut || {});
    let mut shard_total = QueryCost::default();
    let shard_query = times(specs.len(), |i| {
        let r = sharded.query(specs[i].to_query(&trajectories[i]));
        shard_total.merge(&r.cost.expect("cost requested"));
    });
    out.put(
        "core.shard.query_us_p50",
        p50(&shard_query, 1e6),
        shard_query.len(),
    );
    out.put(
        "core.shard.shards_pruned_per_query",
        shard_total.shards_pruned as f64 / nq,
        specs.len(),
    );
    out.put(
        "core.shard.distance_calls_ratio",
        shard_total.distance_calls as f64 / total.distance_calls.max(1) as f64,
        specs.len(),
    );
    let mut shared = 0u64;
    let mut members = 0u64;
    for b in 0..batches.max(1) {
        let batch: Vec<Query<'_>> = (b * 16..(b * 16 + 16).min(specs.len()))
            .map(|i| specs[i].to_query(&trajectories[i]))
            .collect();
        for r in sharded.query_batch(&batch) {
            shared += r.cost.map_or(0, |c| c.batch_shared_accesses);
            members += 1;
        }
    }
    out.put(
        "core.shard.batch_shared_accesses_per_query",
        shared as f64 / members.max(1) as f64,
        members as usize,
    );
    let shard_dir = dir.join("sharded");
    let shard_reps = if scale.smoke { 2 } else { 5 };
    let shard_save = times(shard_reps, |_| {
        sharded.save(&shard_dir).expect("save shards")
    });
    let shard_load = times(shard_reps, |_| {
        std::hint::black_box(ShardedDatabase::load(&shard_dir, opts).expect("load shards"));
    });
    out.put(
        "core.shard.save_ms",
        p50(&shard_save, 1e3),
        shard_save.len(),
    );
    out.put(
        "core.shard.load_ms",
        p50(&shard_load, 1e3),
        shard_load.len(),
    );
    drop(sharded);
    drop(db);

    // ---- the lib_index data: cluster, index build, mtree, rtree ----
    let items = lib_items(scale.lib_objects);
    let data: Vec<Vec<Point2>> = items.iter().map(|(_, s)| s.clone()).collect();
    // The fit `add_segment` runs, redone on its own behind a counter.
    let mut em_cfg = EmConfig::new(scale.lib_k)
        .with_seed(CORPUS_SEED)
        .with_threads(Threads::Fixed(LIB_INDEX_THREADS));
    em_cfg.max_iters = scale.lib_em_iters;
    em_cfg.n_init = 1;
    let em = EmClusterer::new(CountingDistance::new(Eged), em_cfg);
    let t = Instant::now();
    std::hint::black_box(em.fit(&data));
    let em_fit_s = t.elapsed().as_secs_f64();
    out.put("cluster.em_fit_s", em_fit_s, 1);
    out.put("cluster.em_distance_calls", em.dist.count() as f64, 1);

    let lib_qs = lib_queries(seed, if scale.smoke { 16 } else { 100 });
    let t = Instant::now();
    let mtree = MTree::bulk_insert(
        EgedMetric::<Point2>::new(),
        MTreeConfig::random(CORPUS_SEED),
        items.clone(),
    );
    out.put("mtree.build_s", t.elapsed().as_secs_f64(), 1);
    let mut mscratch = MtreeScratch::new();
    let mut mtotal = QueryCost::default();
    let mut mtree_wrong = 0usize;
    let mknn = times(lib_qs.len(), |i| {
        let (_, cost) = mtree.knn_with_cost_into(&lib_qs[i], 10, &mut mscratch);
        mtotal.merge(&cost);
    });
    // The baseline must be exact too, or its cost row means nothing.
    for q in lib_qs.iter().take(4) {
        let (hits, _) = mtree.knn_with_cost_into(q, 10, &mut mscratch);
        let got: Vec<(u64, f64)> = hits.iter().map(|n| (n.id, n.dist)).collect();
        if !oracle::knn_matches(&oracle::scan(&items, q), &got, 10) {
            mtree_wrong += 1;
        }
    }
    assert_eq!(
        mtree_wrong, 0,
        "the M-tree baseline disagrees with the scan"
    );
    out.put("mtree.knn_us_p50", p50(&mknn, 1e6), mknn.len());
    out.put(
        "mtree.distance_calls_per_query",
        mtotal.distance_calls as f64 / lib_qs.len().max(1) as f64,
        lib_qs.len(),
    );
    let t = Instant::now();
    let mut rtree = RTree3::new();
    for (id, series) in &items {
        let points: Vec<(f64, f64)> = series.iter().map(|p| (p.x, p.y)).collect();
        rtree.insert_trajectory(*id, &points, 0.0);
    }
    out.put("rtree.build_ms", t.elapsed().as_secs_f64() * 1e3, 1);
    let nearest = times(lib_qs.len(), |i| {
        let p = lib_qs[i][lib_qs[i].len() / 2];
        std::hint::black_box(rtree.nearest_ids([p.x, p.y, (lib_qs[i].len() / 2) as f64], 10));
    });
    out.put("rtree.nearest_us_p50", p50(&nearest, 1e6), nearest.len());

    out.0
}

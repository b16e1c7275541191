//! `serve_mixed`: writes beside reads on the same locks.
//!
//! The `serve_knn` server with `db_path` set, so every acknowledged ingest
//! has also rewritten the database file. Connection W ingests a fixed
//! number of new clips, so the database every run ends with is the same,
//! while connection R sends `k = 10` queries in a closed loop until W's
//! last reply. W's latency is the operation reported, R's the k-NN.
//!
//! Flush policy: whatever `Database::save` does, which today is a plain
//! `fs::write` over the live file with no `fsync`; acknowledged ingests
//! survive a process kill, not a power cut.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use strg::core::index::QueryScratch;
use strg::prelude::*;
use strg::serve::wire::QuerySpec;

use super::serve_knn::{check_answers, drive, expect, serve, total_cost, ClientLog, Expected};
use super::{
    apply_trace, common_metrics, knn_shape, p50_ms, replay_query_stages, timed_setup, Ctx,
    ScratchDir, Timings,
};
use crate::client::{is_ok, Client};
use crate::corpus::{
    build_single, clip_named, db_options, ingest_line, knn_specs, query_lines, stored_series,
};
use crate::report::{latency_pair, Metric, Outcome};
use crate::rng::Rng;
use crate::trace::Tracer;

/// Replays one ingest stage by stage as children of `parent`, against a
/// scratch index and a scratch database, so the stages' own times can be
/// told apart from the round trip that contained them.
fn replay_ingest_stages(
    tr: &mut Tracer,
    parent: usize,
    clip_no: usize,
    scratch_db: &VideoDatabase,
    scratch_path: &std::path::Path,
) {
    let opts = db_options();
    let (clip, seed) = clip_named("replay", clip_no);
    let (_, frames) = tr.child(parent, "video.render", || clip.render_all(seed));
    let (_, rags) = tr.child(parent, "video.segment", || {
        frames_to_rags_with_stats(&frames, &opts.segment, opts.threads).0
    });
    let (_, strg) = tr.child(parent, "graph.track", || {
        strg::graph::build_strg(rags, &opts.tracker)
    });
    let (_, parts) = tr.child(parent, "graph.decompose", || {
        decompose(&strg, &opts.decompose)
    });
    let items: Vec<(u64, Vec<Point2>)> = parts
        .objects
        .iter()
        .enumerate()
        .map(|(i, og)| (i as u64, og.centroid_series()))
        .collect();
    let mut index = StrgIndex::new(EgedMetric::<Point2>::new(), opts.index);
    tr.child(parent, "core.index.add_segment", || {
        index.add_segment(parts.background, items)
    });
    tr.child(parent, "core.persist.save", || {
        scratch_db
            .save(scratch_path)
            .expect("save the scratch copy")
    });
    tr.child(parent, "obs.snapshot_render", || {
        scratch_db.metrics_snapshot().to_json().render()
    });
}

pub fn run(cx: &Ctx<'_>) -> Outcome {
    let scale = cx.scale;
    let dir = ScratchDir::new("serve_mixed").expect("scratch directory");
    let db_path = dir.join("live.strgdb");
    let (state, setup) = timed_setup(|probe| {
        let db = build_single(scale.clips, probe);
        db.save(&db_path).expect("initial save");
        serve(db, Some(db_path.to_string_lossy().into_owned()))
    });
    let addr = state.server.addr;
    let base_bytes = std::fs::metadata(&db_path).map_or(0, |m| m.len());
    let base_stats = state.db.stats();

    let mut rng = Rng::new(cx.seed);
    let specs: Vec<QuerySpec> = knn_specs(&mut rng, scale.stream, &[10]);
    let warm = query_lines(&knn_specs(&mut rng, scale.warmup, &[10]));
    let lines = query_lines(&specs);
    // Exact counts are taken on the base corpus, before any ingest.
    let base_expected: Vec<_> = specs.iter().map(|s| expect(&*state.db, s)).collect();
    let base_cost = total_cost(base_expected.iter());

    // The phase lasts until W's last reply, not `--seconds`: a database
    // that grew by the clock would differ from run to run. A traced run
    // keeps a half-length reference phase, as everywhere.
    let ingests = if cx.trace {
        scale.ingests / 2
    } else {
        scale.ingests
    };
    let ingest_lines: Vec<String> = (0..ingests)
        .map(|i| {
            let clip_no = scale.clips + i;
            ingest_line(i as u64, &format!("mixed-{clip_no:04}"), clip_no)
        })
        .collect();

    let writer_done = AtomicBool::new(false);
    let barrier = Barrier::new(2);
    let t_phase = Instant::now();
    let (reader, writer): (ClientLog, ClientLog) = std::thread::scope(|scope| {
        let r = scope.spawn(|| {
            let mut client = Client::connect(addr).expect("connect to the server");
            drive(&mut client, &warm, &lines, &barrier, |_| {
                !writer_done.load(Ordering::Acquire)
            })
        });
        let w = scope.spawn(|| {
            let mut client = Client::connect(addr).expect("connect to the server");
            let mut sent = 0;
            let log = drive(&mut client, &[], &ingest_lines, &barrier, |_| {
                sent += 1;
                sent <= ingest_lines.len()
            });
            writer_done.store(true, Ordering::Release);
            log
        });
        let writer = w.join().expect("writer thread");
        (r.join().expect("reader thread"), writer)
    });
    let measured_s = t_phase.elapsed().as_secs_f64();

    // Checks, untimed.
    let mut attempted = reader.replies.len() as u64
        + writer.replies.len() as u64
        + reader.io_errors
        + writer.io_errors;
    let mut failed = reader.io_errors + writer.io_errors;
    failed += writer
        .replies
        .iter()
        .filter(|(_, r)| !is_ok(r) || !r.contains("\"objects\":"))
        .count() as u64;
    // The database grows under the reader, so a reply cannot be compared
    // with one fixed body; every reply must still be `ok` with k hits.
    failed += reader
        .replies
        .iter()
        .filter(|(_, r)| !is_ok(r) || r.matches("\"og_id\":").count() != 10)
        .count() as u64;
    if (writer.replies.len() as u64) < ingests as u64 {
        failed += ingests as u64 - writer.replies.len() as u64;
    }
    let final_stats = state.db.stats();
    attempted += 2;
    if final_stats.clips != base_stats.clips + ingests {
        failed += 1;
    }
    // Save-on-ingest: the file on disk must reopen to the served state.
    match VideoDatabase::load(&db_path, db_options()) {
        Ok(reopened) if reopened.stats().objects == final_stats.objects => {}
        _ => failed += 1,
    }
    let objects = stored_series(&*state.db);
    let final_expected: Vec<_> = specs.iter().map(|s| expect(&*state.db, s)).collect();
    let answers: Vec<(&QuerySpec, &Expected)> = specs.iter().zip(&final_expected).collect();
    let (checked, wrong) = check_answers(&mut rng, &objects, &answers, scale.checked);
    attempted += checked;
    failed += wrong;

    let mut metrics = common_metrics(
        &Timings {
            setup: &setup,
            op: &writer.lat,
            op_per_s: writer.lat.len() as f64 / writer.wall.max(1e-9),
            knn: &reader.lat,
        },
        &base_cost,
        specs.len() as u64,
    );
    metrics.push(Metric::new(
        "store_bytes_per_object",
        base_bytes as f64 / base_stats.objects.max(1) as f64,
        "B/object",
        base_stats.objects as u64,
    ));
    let (ingest_p50, ingest_p95) = latency_pair("ingest_ms", &writer.lat, 1e3, "ms", 0.95);
    let final_bytes = std::fs::metadata(&db_path).map_or(0, |m| m.len());
    let mut extra = vec![
        ingest_p50,
        ingest_p95,
        Metric::new(
            "reader_knn_per_s",
            reader.lat.len() as f64 / reader.wall.max(1e-9),
            "1/s",
            reader.lat.len() as u64,
        ),
        Metric::new("final_file_bytes", final_bytes as f64, "B", 0),
        Metric::new("final_objects", final_stats.objects as f64, "count", 0),
    ];
    extra.extend(setup.extras());
    extra.extend(knn_shape(&reader.lat));
    let mut out = Outcome {
        workload: "serve_mixed",
        traced: false,
        attempted,
        failed,
        metrics,
        extra,
        notes: vec![
            format!(
                "W: {ingests} ingests of 4-actor 24-frame clips with save-on-ingest; R: k=10 \
                 queries until W's last reply; database {} -> {} clips",
                base_stats.clips, final_stats.clips
            ),
            "flush policy: Database::save is a plain fs::write over the live file, no fsync"
                .to_string(),
            format!(
                "{checked} answers checked against the brute-force scan on the final database; \
                 the file on disk reopened to the served object count"
            ),
        ],
        measured_s,
    };

    let mut tr = Tracer::new();
    if cx.trace {
        let mut client = Client::connect(addr).expect("connect to the server");
        let mut scratch = QueryScratch::new();
        let mut reply = String::new();
        for (op, line) in lines.iter().take(scale.trace_ops).enumerate() {
            let (root, sent) = tr.root(op as u64, "client.rtt", || {
                client.call_into(line, &mut reply)
            });
            out.attempted += 1;
            if sent.is_err() || !is_ok(&reply) {
                out.failed += 1;
                continue;
            }
            replay_query_stages(&mut tr, root, &state.db, line, &mut scratch);
        }
        let scratch_db = VideoDatabase::load(&db_path, db_options()).expect("reload the live file");
        let scratch_path = dir.join("replay.strgdb");
        for i in 0..scale.trace_ingests {
            let clip_no = scale.clips + ingests + i;
            let line = ingest_line(i as u64, &format!("traced-{clip_no:04}"), clip_no);
            let (root, sent) = tr.root((scale.trace_ops + i) as u64, "client.ingest_rtt", || {
                client.call_into(&line, &mut reply)
            });
            out.attempted += 1;
            if sent.is_err() || !is_ok(&reply) {
                out.failed += 1;
                continue;
            }
            replay_ingest_stages(&mut tr, root, clip_no, &scratch_db, &scratch_path);
        }
    }
    state.server.stop();
    if cx.trace {
        apply_trace(&mut out, cx, &tr, "client.rtt", p50_ms(&reader.lat));
    }
    out
}

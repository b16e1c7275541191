//! `lib_shards`: `core.index` through the second facade and the parallel
//! fan-out, with the batch path isolated — distinct batches exercise the
//! shared traversal, hot batches the dedup, singles bypass both.
//!
//! A 4-shard `ShardedDatabase` over the corpus, driven in process through
//! the `Database` trait by one caller.

use strg::prelude::*;
use strg::serve::wire::QuerySpec;

use super::serve_knn::{check_answers, expect, total_cost, Expected};
use super::{
    apply_trace, common_metrics, dir_bytes, p50_ms, per_second, raw_metrics, timed_mix,
    timed_setup, Ctx, ScratchDir, Timings,
};
use crate::corpus::{build_sharded, knn_specs, stored_series};
use crate::oracle;
use crate::report::{Metric, Outcome};
use crate::rng::Rng;
use crate::trace::Tracer;

const K: usize = 10;
const BATCH_WIDTH: usize = 16;
const HOT_UNIQUE: usize = 4;
/// Shares of the measured phase: singles, ranges, distinct and hot batches.
const SHARES: [f64; 4] = [0.3, 0.1, 0.45, 0.15];

pub fn run(cx: &Ctx<'_>) -> Outcome {
    let scale = cx.scale;
    let dir = ScratchDir::new("lib_shards").expect("scratch directory");
    let (db, setup) = timed_setup(|probe| build_sharded(scale.clips, probe));
    let db: &dyn Database = &*db;

    let mut rng = Rng::new(cx.seed);
    // Singles: two streams' worth of distinct specs, as `serve_knn` sends.
    let singles = knn_specs(&mut rng, scale.stream * 2, &[K]);
    let single_traj: Vec<Vec<Point2>> = singles.iter().map(QuerySpec::trajectory).collect();
    let expected: Vec<Expected> = singles.iter().map(|s| expect(db, s)).collect();
    // Ranges: the radius takes in the query's own 10 nearest neighbours.
    let n_range = (scale.stream / 2).max(4);
    let ranges: Vec<QuerySpec> = singles[..n_range]
        .iter()
        .zip(&expected)
        .map(|(s, e)| QuerySpec {
            radius: Some(oracle::radius_including(e.hits.last().map_or(0.0, |h| h.1))),
            ..s.clone()
        })
        .collect();
    // Batches: all-distinct, and 16 wide over 4 unique queries.
    let n_batches = (scale.stream / 4).max(2);
    let batch_specs = knn_specs(&mut rng, n_batches * BATCH_WIDTH, &[K]);
    let batch_traj: Vec<Vec<Point2>> = batch_specs.iter().map(QuerySpec::trajectory).collect();
    let distinct: Vec<Vec<Query<'_>>> = (0..n_batches)
        .map(|b| {
            (b * BATCH_WIDTH..(b + 1) * BATCH_WIDTH)
                .map(|pos| batch_specs[pos].to_query(&batch_traj[pos]))
                .collect()
        })
        .collect();
    let hot: Vec<Vec<Query<'_>>> = (0..n_batches)
        .map(|b| {
            (0..BATCH_WIDTH)
                .map(|i| {
                    let pos = b * BATCH_WIDTH + i % HOT_UNIQUE;
                    batch_specs[pos].to_query(&batch_traj[pos])
                })
                .collect()
        })
        .collect();

    for (s, t) in singles.iter().zip(&single_traj).take(scale.warmup) {
        std::hint::black_box(db.query(s.to_query(t)));
    }
    let seconds = cx.measured_seconds();
    let mix = timed_mix(seconds, &SHARES, |kind, i| match kind {
        0 => {
            let j = i % singles.len();
            std::hint::black_box(db.query(singles[j].to_query(&single_traj[j])));
        }
        1 => {
            let j = i % ranges.len();
            std::hint::black_box(db.query(ranges[j].to_query(&single_traj[j])));
        }
        2 => {
            std::hint::black_box(db.query_batch(&distinct[i % distinct.len()]));
        }
        _ => {
            std::hint::black_box(db.query_batch(&hot[i % hot.len()]));
        }
    });
    // A batch's time is reported per member query.
    let per_query =
        |lat: &[f64]| -> Vec<f64> { lat.iter().map(|s| s / BATCH_WIDTH as f64).collect() };
    let (knn_lat, range_lat) = (&mix.lat[0], &mix.lat[1]);
    let (distinct_lat, hot_lat) = (per_query(&mix.lat[2]), per_query(&mix.lat[3]));

    // Checks, untimed.
    let objects = stored_series(db);
    let mut attempted =
        (knn_lat.len() + range_lat.len() + distinct_lat.len() + hot_lat.len()) as u64;
    let answers: Vec<(&QuerySpec, &Expected)> = singles.iter().zip(&expected).collect();
    let (checked, mut failed) = check_answers(&mut rng, &objects, &answers, scale.checked);
    attempted += checked;
    for &pos in &oracle::sample_positions(&mut rng, ranges.len(), scale.checked / 2) {
        let radius = ranges[pos].radius.expect("range spec");
        let got = oracle::query_hits(&db.query(ranges[pos].to_query(&single_traj[pos])));
        let truth = oracle::scan(&objects, &single_traj[pos]);
        attempted += 1;
        if got.len() < K.min(objects.len()) || !oracle::range_matches(&truth, &got, radius) {
            failed += 1;
        }
    }
    // A batch must answer each member exactly as the single path does.
    let mut shared_accesses = 0u64;
    let mut batch_members = 0u64;
    for batch in distinct.iter().take(2).chain(hot.iter().take(2)) {
        for (i, result) in db.query_batch(batch).iter().enumerate() {
            let alone = db.query(batch[i].clone());
            attempted += 1;
            if oracle::query_hits(result) != oracle::query_hits(&alone) {
                failed += 1;
            }
            if let Some(c) = &result.cost {
                shared_accesses += c.batch_shared_accesses;
                batch_members += 1;
            }
        }
    }

    let cost = total_cost(expected.iter());
    let n_cost = expected.len() as u64;
    let hits: u64 = expected.iter().map(|e| e.hits.len() as u64).sum();
    let mut metrics = common_metrics(
        &Timings {
            setup: &setup,
            op: &distinct_lat,
            op_per_s: per_second(&distinct_lat),
            knn: knn_lat,
        },
        &cost,
        n_cost,
    );
    let shard_dir = dir.join("sharded");
    db.save(&shard_dir).expect("save the shard directory");
    let stored = db.stats().objects.max(1);
    metrics.push(Metric::new(
        "store_bytes_per_object",
        dir_bytes(&shard_dir) as f64 / stored as f64,
        "B/object",
        stored as u64,
    ));
    let p50 = |name: &str, lat: &[f64]| Metric::new(name, p50_ms(lat), "ms", lat.len() as u64);
    let mut out = Outcome {
        workload: "lib_shards",
        traced: false,
        attempted,
        failed,
        metrics,
        extra: vec![
            Metric::new("knn_qps", per_second(knn_lat), "1/s", knn_lat.len() as u64),
            p50("range_ms_p50", range_lat),
            p50("batch_distinct_ms_per_query_p50", &distinct_lat),
            p50("batch_hot_ms_per_query_p50", &hot_lat),
            Metric::new(
                "distance_calls_per_hit",
                cost.distance_calls as f64 / hits.max(1) as f64,
                "count",
                hits,
            ),
            Metric::new(
                "shards_pruned_per_query",
                cost.shards_pruned as f64 / n_cost.max(1) as f64,
                "count",
                n_cost,
            ),
            Metric::new(
                "batch_shared_accesses_per_query",
                shared_accesses as f64 / batch_members.max(1) as f64,
                "count",
                batch_members,
            ),
        ],
        notes: vec![format!(
            "one caller, {} distinct k={K} singles, {} ranges (radius = own {K}th neighbour), \
             {n_batches} distinct and {n_batches} hot ({HOT_UNIQUE} unique) batches of \
             {BATCH_WIDTH}; {checked} singles and {} ranges checked against the scan, batch \
             members against the single path",
            singles.len(),
            ranges.len(),
            scale.checked / 2
        )],
        measured_s: mix.wall,
    };
    out.extra.extend(setup.extras());
    out.extra.extend(raw_metrics(
        &per_query(&mix.raw[2]),
        &mix.raw[0],
        mix.host_speed_factor,
    ));

    if cx.trace {
        let mut tr = Tracer::new();
        for op in 0..scale.trace_ops.min(singles.len()) {
            let (root, result) = tr.root(op as u64, "caller.knn", || {
                db.query(singles[op].to_query(&single_traj[op]))
            });
            let inner = result.cost.map_or(0, |c| c.elapsed.as_nanos() as u64);
            tr.place(root, "core.shard.query", inner);
            out.attempted += 1;
        }
        apply_trace(&mut out, cx, &tr, "caller.knn", p50_ms(&mix.raw[0]));
    }
    out
}

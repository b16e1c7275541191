//! `lib_index`: the paper's own shape (Fig 7) — one big root, real
//! three-level pruning, `cluster` dominating the build and `distance`
//! the query. No server, no video, no facade, one thread: a change to
//! `serve`, `video`, `core.pipeline` or `parallel` must not move it.
//!
//! Range queries (the operation reported) and k-NN run interleaved.

use std::time::Instant;

use strg::core::index::QueryScratch;
use strg::prelude::*;

use super::{
    apply_trace, common_metrics, p50_ms, per_second, raw_metrics, timed_mix, Ctx, SetupTime,
    Timings,
};
use crate::corpus::{build_lib_index, lib_items, lib_queries, LibIndex};
use crate::oracle;
use crate::report::{Metric, Outcome};
use crate::rng::Rng;
use crate::trace::Tracer;

pub const KS: &[usize] = &[5, 10, 30];
/// Shares of the measured phase: k-NN, range queries.
const SHARES: [f64; 2] = [0.6, 0.4];
/// A range query's radius takes in the query's 10 nearest neighbours.
const RANGE_NEIGHBOURS: usize = 10;

pub fn run(cx: &Ctx<'_>) -> Outcome {
    let scale = cx.scale;
    // As measured: `add_segment` is one 4 s call, so the host-speed probe
    // could only run before and after it, and dividing by that bracket
    // spread the set-up time more than leaving it alone (21.6 % against
    // 8.4 % over ten runs).
    let t = Instant::now();
    let (idx, build_s): (LibIndex, f64) = build_lib_index(scale, lib_items(scale.lib_objects));
    let setup = SetupTime::as_measured(t.elapsed().as_secs_f64());
    let items = lib_items(scale.lib_objects);
    let queries = lib_queries(cx.seed, scale.lib_queries);
    let mut rng = Rng::new(cx.seed);

    // Every query's radius, from the index's own k-NN; a seeded subset of
    // both answers is compared with the scan below (a scan costs as much
    // as ~50 index queries).
    let mut scratch = QueryScratch::new();
    let radii: Vec<f64> = queries
        .iter()
        .map(|q| {
            let (hits, _) = idx.knn_with_cost_into(q, RANGE_NEIGHBOURS, &mut scratch);
            oracle::radius_including(hits.last().map_or(0.0, |h| h.dist))
        })
        .collect();
    for (i, q) in queries.iter().take(scale.warmup).enumerate() {
        idx.knn_with_cost_into(q, KS[i % KS.len()], &mut scratch);
    }
    let seconds = cx.measured_seconds();
    let ops = queries.len() * KS.len();
    let mix = timed_mix(seconds, &SHARES, |kind, i| {
        let hits = if kind == 0 {
            let (q, k) = (&queries[(i % ops) / KS.len()], KS[i % KS.len()]);
            idx.knn_with_cost_into(q, k, &mut scratch).0.len()
        } else {
            let j = i % queries.len();
            idx.range_with_cost_into(&queries[j], radii[j], &mut scratch)
                .0
                .len()
        };
        std::hint::black_box(hits);
    });
    let (knn_lat, range_lat) = (&mix.lat[0], &mix.lat[1]);

    // Counts and checks, untimed: one pass over every (query, k).
    let mut total = QueryCost::default();
    let mut hits_returned = 0u64;
    let mut attempted = (knn_lat.len() + range_lat.len()) as u64;
    let mut failed = 0u64;
    for q in &queries {
        for &k in KS {
            let (hits, cost) = idx.knn_with_cost_into(q, k, &mut scratch);
            total.merge(&cost);
            hits_returned += hits.len() as u64;
            if hits.len() != k.min(items.len()) {
                failed += 1;
            }
        }
    }
    let checked = oracle::sample_positions(&mut rng, queries.len(), scale.checked.max(8) * 2);
    for &p in &checked {
        // One scan checks the k-NN at every k and the range answer; the
        // radius must be the scan's own 10th-neighbour distance too.
        let truth = &oracle::scan(&items, &queries[p]);
        let radius = radii[p];
        attempted += 1;
        if radius != oracle::radius_including(oracle::kth_distance(truth, RANGE_NEIGHBOURS)) {
            failed += 1;
        }
        for &k in KS {
            let (hits, _) = idx.knn_with_cost_into(&queries[p], k, &mut scratch);
            let got: Vec<(u64, f64)> = hits.iter().map(|h| (h.og_id, h.dist)).collect();
            attempted += 1;
            if !oracle::knn_matches(truth, &got, k) {
                failed += 1;
            }
        }
        let (hits, _) = idx.range_with_cost_into(&queries[p], radius, &mut scratch);
        let got: Vec<(u64, f64)> = hits.iter().map(|h| (h.og_id, h.dist)).collect();
        attempted += 1;
        if !oracle::range_matches(truth, &got, radius) {
            failed += 1;
        }
    }

    let n_queries = (queries.len() * KS.len()) as u64;
    let mut metrics = common_metrics(
        &Timings {
            setup: &setup,
            op: range_lat,
            op_per_s: per_second(range_lat),
            knn: knn_lat,
        },
        &total,
        n_queries,
    );
    // No database here, so nothing is on disk: the index's own size
    // (Equation 10) per object.
    metrics.push(Metric::new(
        "store_bytes_per_object",
        idx.size_bytes() as f64 / idx.len().max(1) as f64,
        "B/object",
        idx.len() as u64,
    ));
    let mut out = Outcome {
        workload: "lib_index",
        traced: false,
        attempted,
        failed,
        metrics,
        extra: vec![
            Metric::new("build_s", build_s, "s", 1),
            Metric::new(
                "range_ms_p50",
                p50_ms(range_lat),
                "ms",
                range_lat.len() as u64,
            ),
            Metric::new(
                "distance_calls_per_hit",
                total.distance_calls as f64 / hits_returned.max(1) as f64,
                "count",
                hits_returned,
            ),
            Metric::new("clusters", idx.cluster_count() as f64, "count", 0),
        ],
        notes: vec![format!(
            "{} synthetic trajectories in one root, K={}, EM capped at {} iterations, \
             Threads::Fixed(1); {} held-out queries x k in {KS:?} interleaved with range queries \
             (op; the radius takes in the {RANGE_NEIGHBOURS} nearest neighbours); {} queries checked against the scan",
            scale.lib_objects,
            scale.lib_k,
            scale.lib_em_iters,
            queries.len(),
            checked.len()
        )],
        measured_s: mix.wall,
    };
    out.extra.extend(setup.extras());
    out.extra
        .extend(raw_metrics(&mix.raw[1], &mix.raw[0], mix.host_speed_factor));

    if cx.trace {
        let mut tr = Tracer::new();
        for op in 0..scale.trace_ops.min(ops) {
            let (q, k) = (&queries[op / KS.len()], KS[op % KS.len()]);
            let (root, elapsed) = tr.root(op as u64, "caller.knn", || {
                idx.knn_with_cost_into(q, k, &mut scratch).1.elapsed
            });
            tr.place(root, "core.index.knn", elapsed.as_nanos() as u64);
            out.attempted += 1;
        }
        apply_trace(&mut out, cx, &tr, "caller.knn", p50_ms(&mix.raw[0]));
    }
    out
}

//! `reopen`: `core.persist` as writer and as reader in one place, and the
//! latency a restarted server's first client sees. Nothing else touches
//! `load`.
//!
//! Cycles of `save` → drop → `load` → first `k = 5` query over the
//! single-tree corpus, each into a fresh path. The operation reported is
//! `load` through the first answer — what a client waits for after a
//! restart — with whole cycles per second beside it; the k-NN reported is
//! that first query alone.

use std::time::Instant;

use strg::prelude::*;
use strg::serve::wire::QuerySpec;

use super::serve_knn::{check_answers, expect, store_bytes_per_object, total_cost, Expected};
use super::{
    apply_trace, common_metrics, p50_ms, per_second, raw_metrics, timed_setup, Ctx, ScratchDir,
    Timings,
};
use crate::corpus::{build_single, db_options, knn_specs, stored_series};
use crate::hostspeed::HostSpeed;
use crate::oracle;
use crate::report::{Metric, Outcome};
use crate::rng::Rng;
use crate::trace::Tracer;

const K: usize = 5;

struct Cycle {
    /// `save` through the first answer, the drop included.
    total: f64,
    save: f64,
    load: f64,
    /// `load` through the first answer.
    first_knn: f64,
    /// The first query alone.
    query: f64,
    pos: usize,
    hits: Vec<(u64, f64)>,
    fast: bool,
}

pub fn run(cx: &Ctx<'_>) -> Outcome {
    let scale = cx.scale;
    let dir = ScratchDir::new("reopen").expect("scratch directory");
    let (built, setup) = timed_setup(|probe| {
        let db = build_single(scale.clips, probe);
        db.save(dir.join("initial.strgdb")).expect("initial save");
        db
    });

    let mut rng = Rng::new(cx.seed);
    let specs = knn_specs(&mut rng, scale.stream, &[K]);
    let trajectories: Vec<Vec<Point2>> = specs.iter().map(QuerySpec::trajectory).collect();
    let expected: Vec<Expected> = specs.iter().map(|s| expect(&*built, s)).collect();
    let objects = stored_series(&*built);
    let size = store_bytes_per_object(&built, &dir);

    // The database travels through the loop: each cycle saves the current
    // one, drops it, and continues with what `load` returned.
    let mut current: VideoDatabase = VideoDatabase::load(dir.join("initial.strgdb"), db_options())
        .expect("load the initial save");
    drop(built);
    let cycle = |i: usize, db: VideoDatabase, tr: Option<&mut Tracer>| -> (Cycle, VideoDatabase) {
        let path = dir.join(&format!("cycle-{}.strgdb", i % 2));
        let pos = i % specs.len();
        let t0 = Instant::now();
        db.save(&path).expect("save into the scratch directory");
        let t1 = Instant::now();
        drop(db);
        let t2 = Instant::now();
        let loaded = VideoDatabase::load(&path, db_options()).expect("load what was just saved");
        let t3 = Instant::now();
        let result = loaded.query(specs[pos].to_query(&trajectories[pos]));
        let t4 = Instant::now();
        if let Some(tr) = tr {
            let root = tr.root_at(i as u64, "caller.cycle", t0, t4);
            tr.record(root, "core.persist.save", t0, t1);
            tr.record(root, "core.persist.load", t2, t3);
            tr.record(root, "core.pipeline.query", t3, t4);
        }
        let fast = loaded.persist_info().reopen == ReopenMode::Fast;
        (
            Cycle {
                total: (t4 - t0).as_secs_f64(),
                save: (t1 - t0).as_secs_f64(),
                load: (t3 - t2).as_secs_f64(),
                first_knn: (t4 - t2).as_secs_f64(),
                query: (t4 - t3).as_secs_f64(),
                pos,
                hits: oracle::query_hits(&result),
                fast,
            },
            loaded,
        )
    };

    for i in 0..scale.warmup.min(5) {
        let (_, next) = cycle(i, current, None);
        current = next;
    }
    let seconds = cx.measured_seconds();
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut starts: Vec<f64> = Vec::new();
    let mut host = HostSpeed::start();
    while host.now() < seconds {
        host.between_operations();
        starts.push(host.now());
        let (c, next) = cycle(cycles.len(), current, None);
        current = next;
        cycles.push(c);
    }
    let measured_s = host.now();
    let factors = host.factors();

    // Checks, untimed: every cycle's first answer equals the original
    // database's, every reopen took the fast path.
    let mut attempted = cycles.len() as u64;
    let mut failed = cycles
        .iter()
        .filter(|c| !c.fast || c.hits != expected[c.pos].hits)
        .count() as u64;
    let answers: Vec<(&QuerySpec, &Expected)> = specs.iter().zip(&expected).collect();
    let (checked, wrong) = check_answers(&mut rng, &objects, &answers, scale.checked);
    attempted += checked;
    failed += wrong;

    // A cycle's parts take the factor of the cycle they belong to.
    let raw = |f: fn(&Cycle) -> f64| -> Vec<f64> { cycles.iter().map(f).collect() };
    let pick = |f: fn(&Cycle) -> f64| -> Vec<f64> {
        cycles
            .iter()
            .zip(&starts)
            .map(|(c, &start)| f(c) * factors.normalise(start, c.total) / c.total)
            .collect()
    };
    let first = pick(|c| c.first_knn);
    let whole = pick(|c| c.total);
    let mut metrics = common_metrics(
        &Timings {
            setup: &setup,
            op: &first,
            op_per_s: per_second(&whole),
            knn: &pick(|c| c.query),
        },
        &total_cost(expected.iter()),
        expected.len() as u64,
    );
    let p50 = |name: &str, lat: &[f64]| Metric::new(name, p50_ms(lat), "ms", lat.len() as u64);
    let bytes_per_object = Metric {
        name: "bytes_per_object".to_string(),
        ..size.clone()
    };
    metrics.push(size);
    let mut out = Outcome {
        workload: "reopen",
        traced: false,
        attempted,
        failed,
        metrics,
        extra: vec![
            p50("save_ms_p50", &pick(|c| c.save)),
            p50("reopen_ms_p50", &pick(|c| c.load)),
            p50("first_knn_ms_p50", &first),
            bytes_per_object,
        ],
        notes: vec![format!(
            "single-tree corpus, {} save -> drop -> load -> first k={K} query cycles; every \
             first answer compared with the never-saved database, {checked} with the \
             brute-force scan; save is a plain fs::write, no fsync",
            cycles.len()
        )],
        measured_s,
    };
    out.extra.extend(setup.extras());
    out.extra.extend(raw_metrics(
        &raw(|c| c.first_knn),
        &raw(|c| c.query),
        host.median_factor(),
    ));

    if cx.trace {
        let mut tr = Tracer::new();
        for i in 0..scale.trace_ops {
            let (c, next) = cycle(i, current, Some(&mut tr));
            current = next;
            out.attempted += 1;
            if c.hits != expected[c.pos].hits {
                out.failed += 1;
            }
        }
        // The traced parent is a whole cycle, so it is compared with whole
        // untraced cycles, not with the load + first query reported above.
        apply_trace(&mut out, cx, &tr, "caller.cycle", p50_ms(&raw(|c| c.total)));
    }
    out
}

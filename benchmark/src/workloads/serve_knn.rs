//! `serve_knn`: the only workload that measures what a client sees —
//! request bytes in, response bytes out — on a pure k-NN stream.
//!
//! `strg-serve` over the single-tree corpus; two closed-loop connections
//! (a client's next request waits for the previous reply), each cycling
//! its own list of distinct all-scope queries with `k` in 5/10/20.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use strg::core::index::QueryScratch;
use strg::prelude::*;
use strg::serve::protocol::result_slice;
use strg::serve::wire::{self, QuerySpec};

use super::{
    apply_trace, common_metrics, knn_shape, p50_ms, replay_query_stages, timed_setup, Ctx,
    ScratchDir, Timings,
};
use crate::client::{boot, is_ok, Booted, Client};
use crate::corpus::{build_single, knn_specs, query_lines, stored_series};
use crate::env::CLIENTS;
use crate::oracle;
use crate::report::{Metric, Outcome};
use crate::rng::Rng;
use crate::trace::Tracer;

pub const KS: &[usize] = &[5, 10, 20];

pub struct Serving {
    pub db: Arc<VideoDatabase>,
    pub server: Booted,
}

pub fn serve(db: Arc<VideoDatabase>, db_path: Option<String>) -> Serving {
    let erased: Arc<dyn Database> = db.clone();
    let server = boot(erased, db_path).expect("bind 127.0.0.1:0");
    Serving { db, server }
}

/// One connection's measured requests: latency and the reply, by position
/// in the connection's request list.
pub struct ClientLog {
    pub lat: Vec<f64>,
    pub replies: Vec<(usize, String)>,
    pub wall: f64,
    pub io_errors: u64,
}

/// Drives one closed-loop connection: `warmup` discarded requests, then
/// the list round and round until `keep_going` says stop.
pub fn drive(
    client: &mut Client,
    warm: &[String],
    lines: &[String],
    start: &Barrier,
    mut keep_going: impl FnMut(f64) -> bool,
) -> ClientLog {
    let mut reply = String::new();
    let mut log = ClientLog {
        lat: Vec::new(),
        replies: Vec::new(),
        wall: 0.0,
        io_errors: 0,
    };
    for line in warm {
        if client.call_into(line, &mut reply).is_err() {
            log.io_errors += 1;
        }
    }
    start.wait();
    let t0 = Instant::now();
    let mut i = 0;
    while keep_going(t0.elapsed().as_secs_f64()) {
        let pos = i % lines.len();
        let t = Instant::now();
        match client.call_into(&lines[pos], &mut reply) {
            Ok(()) => {
                log.lat.push(t.elapsed().as_secs_f64());
                log.replies.push((pos, reply.clone()));
            }
            Err(_) => {
                // A dead connection cannot recover; count what was lost
                // and stop instead of spinning on errors.
                log.io_errors += 1;
                break;
            }
        }
        i += 1;
    }
    log.wall = t0.elapsed().as_secs_f64();
    log
}

/// What the in-process database answers for one spec: the wire body with
/// `elapsed_ns` zeroed, the cost, and the hits.
pub struct Expected {
    pub body: String,
    pub cost: QueryCost,
    pub hits: Vec<(u64, f64)>,
}

pub fn expect(db: &dyn Database, spec: &QuerySpec) -> Expected {
    let trajectory = spec.trajectory();
    let result = db.query(spec.to_query(&trajectory));
    Expected {
        body: wire::zero_elapsed_ns(&wire::query_json(&result).render()),
        cost: result.cost.expect("wire queries request cost"),
        hits: oracle::query_hits(&result),
    }
}

/// Counts the replies that are not `ok`, or whose `result` differs from
/// the in-process body for the same spec.
pub fn wrong_replies(log: &ClientLog, expected: &[Expected]) -> u64 {
    log.replies
        .iter()
        .filter(|(pos, reply)| {
            !is_ok(reply)
                || result_slice(reply).map(wire::zero_elapsed_ns).as_deref()
                    != Some(expected[*pos].body.as_str())
        })
        .count() as u64
}

/// Checks what the database answered for a query list: every hit list
/// has `min(k, objects)` entries, and `count` seeded answers equal the
/// brute-force scan. Returns `(answers scanned, wrong answers)`.
pub fn check_answers(
    rng: &mut Rng,
    objects: &[(u64, Vec<Point2>)],
    answers: &[(&QuerySpec, &Expected)],
    count: usize,
) -> (u64, u64) {
    let short = answers
        .iter()
        .filter(|(s, e)| e.hits.len() != s.k.min(objects.len()))
        .count();
    let picked = oracle::sample_positions(rng, answers.len(), count);
    let wrong = picked
        .iter()
        .filter(|&&pos| {
            let (spec, expected) = answers[pos];
            let truth = oracle::scan(objects, &spec.trajectory());
            !oracle::knn_matches(&truth, &expected.hits, spec.k)
        })
        .count();
    (picked.len() as u64, (short + wrong) as u64)
}

/// Sum of the costs of a query list (for exact per-query means).
pub fn total_cost<'a>(answers: impl Iterator<Item = &'a Expected>) -> QueryCost {
    let mut total = QueryCost::default();
    for e in answers {
        total.merge(&e.cost);
    }
    total
}

/// On-disk bytes per indexed object of a single-tree database.
pub fn store_bytes_per_object(db: &VideoDatabase, dir: &ScratchDir) -> Metric {
    let path = dir.join("size-probe.strgdb");
    db.save(&path).expect("save into the scratch directory");
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let objects = db.stats().objects.max(1);
    Metric::new(
        "store_bytes_per_object",
        bytes as f64 / objects as f64,
        "B/object",
        objects as u64,
    )
}

pub fn run(cx: &Ctx<'_>) -> Outcome {
    let scale = cx.scale;
    let dir = ScratchDir::new("serve_knn").expect("scratch directory");
    let (state, setup) = timed_setup(|probe| serve(build_single(scale.clips, probe), None));
    let addr = state.server.addr;

    let mut rng = Rng::new(cx.seed);
    let streams: Vec<Vec<QuerySpec>> = (0..CLIENTS)
        .map(|_| knn_specs(&mut rng, scale.stream, KS))
        .collect();
    let warm = query_lines(&knn_specs(&mut rng, scale.warmup, KS));
    let lines: Vec<Vec<String>> = streams.iter().map(|s| query_lines(s)).collect();

    // Measured phase, tracing off.
    let seconds = cx.measured_seconds();
    let barrier = Barrier::new(CLIENTS);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = lines
            .iter()
            .map(|list| {
                let (warm, barrier) = (&warm, &barrier);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect to the server");
                    drive(&mut client, warm, list, barrier, |t| t < seconds)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    // Checks, untimed.
    let expected: Vec<Vec<Expected>> = streams
        .iter()
        .map(|specs| specs.iter().map(|s| expect(&*state.db, s)).collect())
        .collect();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (log, exp) in logs.iter().zip(&expected) {
        attempted += log.replies.len() as u64 + log.io_errors;
        failed += wrong_replies(log, exp) + log.io_errors;
    }
    let objects = stored_series(&*state.db);
    let answers: Vec<(&QuerySpec, &Expected)> = streams
        .iter()
        .flatten()
        .zip(expected.iter().flatten())
        .collect();
    let (checked, wrong) = check_answers(&mut rng, &objects, &answers, scale.checked);
    attempted += checked;
    failed += wrong;

    let lat: Vec<f64> = logs.iter().flat_map(|l| l.lat.iter().copied()).collect();
    let qps: f64 = logs
        .iter()
        .map(|l| l.lat.len() as f64 / l.wall.max(1e-9))
        .sum();
    let cost = total_cost(answers.iter().map(|a| a.1));
    let hits: u64 = answers.iter().map(|a| a.1.hits.len() as u64).sum();
    // The defining operation here *is* the k-NN round trip.
    let mut metrics = common_metrics(
        &Timings {
            setup: &setup,
            op: &lat,
            op_per_s: qps,
            knn: &lat,
        },
        &cost,
        answers.len() as u64,
    );
    metrics.push(store_bytes_per_object(&state.db, &dir));
    let mut extra = vec![Metric::new("knn_qps", qps, "1/s", lat.len() as u64)];
    extra.extend(setup.extras());
    extra.extend(knn_shape(&lat));
    extra.push(Metric::new(
        "distance_calls_per_hit",
        cost.distance_calls as f64 / hits.max(1) as f64,
        "count",
        hits,
    ));
    let mut out = Outcome {
        workload: "serve_knn",
        traced: false,
        attempted,
        failed,
        metrics,
        extra,
        notes: vec![format!(
            "{CLIENTS} closed-loop connections (TCP_NODELAY on the client), {} distinct queries \
             each, k cycling {KS:?}; {checked} answers checked against the brute-force scan, \
             every reply against the in-process body",
            scale.stream
        )],
        measured_s: logs.iter().map(|l| l.wall).fold(0.0, f64::max),
    };

    let mut tr = Tracer::new();
    if cx.trace {
        let mut client = Client::connect(addr).expect("connect to the server");
        let mut scratch = QueryScratch::new();
        let mut reply = String::new();
        for (op, line) in lines[0].iter().take(scale.trace_ops).enumerate() {
            let (root, sent) = tr.root(op as u64, "client.rtt", || {
                client.call_into(line, &mut reply)
            });
            out.attempted += 1;
            if sent.is_err() || !is_ok(&reply) {
                out.failed += 1;
                continue;
            }
            let replayed = replay_query_stages(&mut tr, root, &state.db, line, &mut scratch);
            if wire::zero_elapsed_ns(&replayed) != wire::zero_elapsed_ns(&reply) {
                out.failed += 1;
            }
        }
    }
    state.server.stop();
    if cx.trace {
        apply_trace(&mut out, cx, &tr, "client.rtt", p50_ms(&lat));
    }
    out
}

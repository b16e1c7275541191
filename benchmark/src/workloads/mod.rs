//! The five workloads and what they share: timed set-up, time-boxed
//! closed loops, scratch directories, and the traced replay of a query.

pub mod lib_index;
pub mod lib_shards;
pub mod reopen;
pub mod serve_knn;
pub mod serve_mixed;

use std::path::{Path, PathBuf};
use std::time::Instant;

use strg::core::index::QueryScratch;
use strg::prelude::*;
use strg::serve::protocol::{render_ok, Request};
use strg::serve::{json_parse, wire};

use crate::corpus::Scale;
use crate::hostspeed::HostSpeed;
use crate::report::{latency_pair, results_dir, Metric, Outcome};
use crate::stats::{median, Sorted};
use crate::trace::Tracer;

/// What a workload run is given.
pub struct Ctx<'a> {
    pub scale: &'a Scale,
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    pub trace: bool,
}

impl Ctx<'_> {
    /// Length of the untraced measured phase. A traced run keeps a
    /// half-length one as the reference its overhead is computed against.
    pub fn measured_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub run: fn(&Ctx<'_>) -> Outcome,
}

pub const ALL: &[Workload] = &[
    Workload {
        name: "serve_knn",
        run: serve_knn::run,
    },
    Workload {
        name: "serve_mixed",
        run: serve_mixed::run,
    },
    Workload {
        name: "lib_index",
        run: lib_index::run,
    },
    Workload {
        name: "lib_shards",
        run: lib_shards::run,
    },
    Workload {
        name: "reopen",
        run: reopen::run,
    },
];

/// What a set-up took: on the reference host ([`crate::hostspeed`]) and
/// as measured.
pub struct SetupTime {
    /// `setup_s`.
    pub secs: f64,
    pub raw_secs: f64,
}

impl SetupTime {
    /// A set-up the probe cannot run inside (`lib_index`).
    pub fn as_measured(raw_secs: f64) -> Self {
        SetupTime {
            secs: raw_secs,
            raw_secs,
        }
    }

    /// The factor the measured seconds were divided by.
    pub fn host_speed_factor(&self) -> f64 {
        self.raw_secs / self.secs
    }

    /// The measured value and the factor, for the workload-specific list.
    pub fn extras(&self) -> Vec<Metric> {
        vec![
            Metric::new("raw.setup_s", self.raw_secs, "s", 1),
            Metric::new(
                "setup_host_speed_factor",
                self.host_speed_factor(),
                "ratio",
                0,
            ),
        ]
    }
}

/// Runs `build` once and returns what it built with the time it took.
/// Once per run: the run budget goes to a corpus whose clusters have many
/// members rather than to repeats of its build. `build` runs the
/// host-speed probe it is handed between the clips of its corpus; the
/// measured seconds are divided by the median factor of those probes.
pub fn timed_setup<T>(build: impl FnOnce(&mut dyn FnMut()) -> T) -> (T, SetupTime) {
    let mut host = HostSpeed::start();
    let start = host.now();
    let built = build(&mut || host.between_operations());
    let raw_secs = host.now() - start;
    let secs = raw_secs / host.median_factor();
    (built, SetupTime { secs, raw_secs })
}

/// What [`timed_mix`] measured.
pub struct Mix {
    /// Per-call seconds by kind, on the reference host
    /// ([`crate::hostspeed`]): what the metrics are computed from.
    pub lat: Vec<Vec<f64>>,
    /// The same calls as measured.
    pub raw: Vec<Vec<f64>>,
    /// The window's wall seconds.
    pub wall: f64,
    pub host_speed_factor: f64,
}

/// Runs several kinds of operation interleaved for `seconds`: each step
/// runs one call of the kind whose share of the time spent so far is
/// furthest below its target in `shares`, as `op(kind, i)` with `i`
/// counting that kind's calls. Every kind therefore samples the whole
/// window, whatever the host's speed does in it, and the host-speed probe
/// runs between the calls.
pub fn timed_mix(seconds: f64, shares: &[f64], mut op: impl FnMut(usize, usize)) -> Mix {
    let mut calls: Vec<Vec<(f64, f64)>> = vec![Vec::new(); shares.len()];
    let mut spent = vec![0.0f64; shares.len()];
    let mut host = HostSpeed::start();
    let wall = loop {
        host.between_operations();
        let kind = (0..shares.len())
            .min_by(|&a, &b| (spent[a] / shares[a]).total_cmp(&(spent[b] / shares[b])))
            .expect("at least one kind");
        let start = host.now();
        op(kind, calls[kind].len());
        let end = host.now();
        calls[kind].push((start, end - start));
        spent[kind] += end - start;
        if end >= seconds {
            break end;
        }
    };
    let factors = host.factors();
    let per_kind = |f: &dyn Fn(f64, f64) -> f64| -> Vec<Vec<f64>> {
        calls
            .iter()
            .map(|kind| kind.iter().map(|&(start, took)| f(start, took)).collect())
            .collect()
    };
    Mix {
        lat: per_kind(&|start, took| factors.normalise(start, took)),
        raw: per_kind(&|_, took| took),
        wall,
        host_speed_factor: host.median_factor(),
    }
}

/// The measured values behind a host-speed-normalised workload's `op` and
/// `knn` medians, and the factor that separates them.
pub fn raw_metrics(op_raw: &[f64], knn_raw: &[f64], host_speed_factor: f64) -> Vec<Metric> {
    vec![
        Metric::new("host_speed_factor", host_speed_factor, "ratio", 0),
        Metric::new("raw.op_ms_p50", p50_ms(op_raw), "ms", op_raw.len() as u64),
        Metric::new(
            "raw.knn_ms_p50",
            p50_ms(knn_raw),
            "ms",
            knn_raw.len() as u64,
        ),
    ]
}

/// What a workload's defining operation and its plain k-NN took, in
/// per-call seconds, with the operations-per-second measured beside them.
pub struct Timings<'a> {
    pub setup: &'a SetupTime,
    /// The workload's defining operation (`op_ms_p50`, `op_ms_p95`).
    pub op: &'a [f64],
    pub op_per_s: f64,
    /// An all-scope k-NN as the caller sees it (`knn_ms_p50`, `knn_ms_p95`).
    pub knn: &'a [f64],
}

/// The registered end-to-end metrics but `store_bytes_per_object`, which
/// every workload measures its own way: set-up time, the timings, and the
/// exact mean cost over the workload's `n_queries`-long query list.
pub fn common_metrics(t: &Timings<'_>, list_cost: &QueryCost, n_queries: u64) -> Vec<Metric> {
    let (op_p50, op_p95) = latency_pair("op_ms", t.op, 1e3, "ms", 0.95);
    let (knn_p50, knn_p95) = latency_pair("knn_ms", t.knn, 1e3, "ms", 0.95);
    vec![
        Metric::new("setup_s", t.setup.secs, "s", 1),
        op_p50,
        op_p95,
        Metric::new("op_per_s", t.op_per_s, "1/s", t.op.len() as u64),
        knn_p50,
        knn_p95,
        Metric::new(
            "distance_calls_per_query",
            list_cost.distance_calls as f64 / n_queries.max(1) as f64,
            "count",
            n_queries,
        ),
    ]
}

/// Operations per second of one closed-loop caller: calls over the time
/// they took together.
pub fn per_second(lat_secs: &[f64]) -> f64 {
    lat_secs.len() as f64 / lat_secs.iter().sum::<f64>().max(1e-9)
}

/// Median of per-operation seconds, in milliseconds.
pub fn p50_ms(lat_secs: &[f64]) -> f64 {
    median(lat_secs) * 1e3
}

/// The quartiles and the 5th percentile beside the registered median and
/// p95: on the socket the latency distribution is a few sharp modes, and
/// only its shape says which mode the median sits in.
pub fn knn_shape(lat_secs: &[f64]) -> Vec<Metric> {
    let ms = Sorted::new(lat_secs.iter().map(|s| s * 1e3).collect());
    let n = ms.len() as u64;
    [
        (0.05, "knn_ms_p05"),
        (0.25, "knn_ms_p25"),
        (0.75, "knn_ms_p75"),
    ]
    .into_iter()
    .map(|(q, name)| Metric::new(name, ms.p(q), "ms", n))
    .collect()
}

/// A directory under `benchmark/results` that is removed again on drop:
/// database files the workloads write never leave the checkout and never
/// outlive the run.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = results_dir().join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Replays, as children of `parent`, the stages `strg-serve` runs for the
/// `query` request `line`: JSON parse, request + spec decoding, the
/// database query (with the bare index search nested inside it), and the
/// response rendering. Returns the rendered response.
pub fn replay_query_stages(
    tr: &mut Tracer,
    parent: usize,
    db: &VideoDatabase,
    line: &str,
    scratch: &mut QueryScratch,
) -> String {
    let (_, parsed) = tr.child(parent, "serve.json_parse", || {
        json_parse::parse(line).expect("the benchmark sends valid JSON")
    });
    let (_, (id, spec, trajectory)) = tr.child(parent, "serve.spec_parse", || {
        let req = Request::from_json(parsed).expect("well-formed request");
        let spec = wire::parse_query_spec(&req.params()).expect("well-formed query");
        let trajectory = spec.trajectory();
        (req.id, spec, trajectory)
    });
    let (query_span, result) = tr.child(parent, "core.pipeline.query", || {
        db.query(spec.to_query(&trajectory))
    });
    let t = Instant::now();
    db.with_index(|idx| {
        let (hits, _) = idx.knn_with_cost_into(&trajectory, spec.k, scratch);
        std::hint::black_box(hits.len());
    });
    tr.place(query_span, "core.index.knn", t.elapsed().as_nanos() as u64);
    let (_, rendered) = tr.child(parent, "serve.render", || {
        render_ok(id, wire::query_json(&result))
    });
    rendered
}

/// Turns the outcome of a run's untraced phase into a traced run's: the
/// registered metrics become the per-layer probe suite plus the two
/// `trace.*` rows, and the workload-specific list gains the median self
/// time per span name. Writes the span file; a kind of operation that
/// breaks a structural promise ([`crate::trace::KindCheck::failed`]), or a
/// failed write, counts as failed operations.
///
/// `untraced_p50_ms` is what the parent span `root_name` took in the
/// untraced phase, the reference for the tracing overhead.
pub fn apply_trace(
    out: &mut Outcome,
    cx: &Ctx<'_>,
    tr: &Tracer,
    root_name: &str,
    untraced_p50_ms: f64,
) {
    let ms = |ns: Vec<f64>| Sorted::new(ns.iter().map(|v| v / 1e6).collect());
    let traced = ms(tr.durations(root_name));
    let unattributed = ms(tr.self_times(root_name));
    let overhead = if untraced_p50_ms > 0.0 {
        (traced.median() / untraced_p50_ms - 1.0) * 100.0
    } else {
        0.0
    };
    let n = traced.len() as u64;

    out.traced = true;
    out.metrics = crate::layers::probe(cx.scale, cx.seed);
    out.metrics
        .push(Metric::new("trace_overhead_pct", overhead, "%", n));
    out.metrics.push(Metric::new(
        "trace.unattributed_ms_p50",
        unattributed.median(),
        "ms",
        n,
    ));
    out.extra.push(Metric::new(
        "trace.untraced_reference_ms_p50",
        untraced_p50_ms,
        "ms",
        0,
    ));
    let mut names: Vec<&'static str> = Vec::new();
    for s in &tr.spans {
        if !names.contains(&s.name) {
            names.push(s.name);
        }
    }
    for name in names {
        let us = Sorted::new(tr.self_times(name).iter().map(|ns| ns / 1e3).collect());
        out.extra.push(Metric::new(
            &format!("span.{name}.self_us_p50"),
            us.median(),
            "us",
            us.len() as u64,
        ));
    }

    for k in tr.check() {
        let over_pct = 100.0 * k.over_ns as f64 / k.root_ns.max(1) as f64;
        out.notes.push(format!(
            "trace: {} {}: {} children outside their parent; self times miss the roots by \
             {over_pct:.2} % (limit 5 %)",
            k.operations, k.root, k.outside
        ));
        if k.failed() {
            out.failed += k.operations;
        }
    }
    match tr.write(out.workload) {
        Ok(path) => out.notes.push(format!(
            "trace: {} spans written to {}",
            tr.spans.len(),
            path.display()
        )),
        Err(e) => {
            out.failed += 1;
            out.notes
                .push(format!("trace: could not write the span file: {e}"));
        }
    }
}

//! Metric values, the registry of names the benchmark promises (a test
//! holds `BENCHMARK.json` to it), and every output format: the
//! human table, the driver's last-line JSON, `results/latest.json` and the
//! append-only `results/trajectory.jsonl`.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

use strg::obs::Json;

use crate::env::Fingerprint;
use crate::stats::{quartiles_exclusive, Sorted};

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarizes (0 for derived values).
    pub samples: u64,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: u64) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// Median and a tail percentile of one latency sample set, in `unit`
/// (`scale` converts from the seconds the samples are recorded in).
pub fn latency_pair(
    stem: &str,
    secs: &[f64],
    scale: f64,
    unit: &'static str,
    tail: f64,
) -> (Metric, Metric) {
    let s = Sorted::new(secs.iter().map(|v| v * scale).collect());
    let n = s.len() as u64;
    (
        Metric::new(&format!("{stem}_p50"), s.median(), unit, n),
        Metric::new(
            &format!("{stem}_p{}", (tail * 100.0).round() as u32),
            s.p(tail),
            unit,
            n,
        ),
    )
}

/// The end-to-end metrics the driver compares between commits. Every
/// workload reports every one of them, so the timings are generic: `op`
/// is the workload's defining operation and `knn` its plain all-scope
/// k-NN (the README's table says which call each is per workload). The
/// issue's workload-specific names (`ingest_ms_p50`, `range_ms_p50`,
/// `save_ms_p50`, ...) are printed beside them and bounded by
/// [`EXTRA_BOUNDS`]. Each name comes with the share of the parent's median
/// by which it may worsen.
pub const END_TO_END: &[(&str, f64)] = &[
    ("setup_s", 0.25),
    ("op_ms_p50", 0.25),
    ("op_ms_p95", 0.25),
    ("op_per_s", 0.25),
    ("knn_ms_p50", 0.25),
    ("knn_ms_p95", 0.25),
    ("distance_calls_per_query", 0.05),
    ("store_bytes_per_object", 0.01),
];

/// Bounds of the workload-specific end-to-end metrics (`--repeat` flags a
/// spread above them; the driver does not see these names). Timings get
/// the same 25 % as the registered ones, for the same reason: this host's
/// speed moves ±17 % in plateaus of seconds.
pub const EXTRA_BOUNDS: &[(&str, f64)] = &[
    ("knn_qps", 0.25),
    ("range_ms_p50", 0.25),
    ("batch_distinct_ms_per_query_p50", 0.25),
    ("batch_hot_ms_per_query_p50", 0.25),
    ("ingest_ms_p50", 0.25),
    ("ingest_ms_p95", 0.25),
    ("build_s", 0.25),
    ("save_ms_p50", 0.25),
    ("reopen_ms_p50", 0.25),
    ("first_knn_ms_p50", 0.25),
    ("bytes_per_object", 0.01),
];

/// Every per-layer metric name with its unit, in the order
/// the traced run reports them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.ping_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.json_parse_us", "us"),
    ("serve.spec_parse_us", "us"),
    ("serve.render_us", "us"),
    ("serve.pool_handoff_us", "us"),
    ("serve.response_bytes_per_query", "B"),
    ("serve.ingest_response_bytes", "B"),
    ("serve.queue_depth_p95", "count"),
    ("serve.rejects", "count"),
    ("core.pipeline.query_us_p50", "us"),
    ("core.pipeline.overhead_us", "us"),
    ("core.pipeline.scoped_query_us_p50", "us"),
    ("core.pipeline.ingest_ms_per_clip", "ms"),
    ("core.index.knn_us_p50", "us"),
    ("core.index.range_us_p50", "us"),
    ("core.index.batch16_us_per_query", "us"),
    ("core.index.node_accesses_per_query", "count"),
    ("core.index.pruned_per_query", "count"),
    ("core.index.lb_pruned_per_query", "count"),
    ("core.index.early_abandoned_per_query", "count"),
    ("core.index.distance_calls_per_hit", "count"),
    ("core.index.add_segment_ms_per_clip", "ms"),
    ("core.index.size_bytes", "B"),
    ("cluster.em_fit_s", "s"),
    ("cluster.em_distance_calls", "count"),
    ("distance.eged_m_ns_per_call", "ns"),
    ("distance.eged_m_upto_ns_per_call", "ns"),
    ("distance.abandon_ratio", "ratio"),
    ("distance.lower_bound_ns_per_call", "ns"),
    ("distance.lb_tightness", "ratio"),
    ("distance.share_of_knn", "ratio"),
    ("core.shard.query_us_p50", "us"),
    ("core.shard.shards_pruned_per_query", "count"),
    ("core.shard.distance_calls_ratio", "ratio"),
    ("core.shard.save_ms", "ms"),
    ("core.shard.load_ms", "ms"),
    ("core.shard.batch_shared_accesses_per_query", "count"),
    ("core.persist.save_ms", "ms"),
    ("core.persist.load_ms", "ms"),
    ("core.persist.file_bytes", "B"),
    ("core.persist.save_mb_per_s", "MB/s"),
    ("video.render_us_per_frame", "us"),
    ("video.segment_us_per_frame", "us"),
    ("graph.track_us_per_frame", "us"),
    ("graph.decompose_us_per_clip", "us"),
    ("graph.objects_per_clip", "count"),
    ("parallel.knn_speedup_2t", "ratio"),
    ("obs.record_cost_ns", "ns"),
    ("obs.snapshot_render_us", "us"),
    ("mtree.build_s", "s"),
    ("mtree.knn_us_p50", "us"),
    ("mtree.distance_calls_per_query", "count"),
    ("rtree.build_ms", "ms"),
    ("rtree.nearest_us_p50", "us"),
    ("trace_overhead_pct", "%"),
    ("trace.unattributed_ms_p50", "ms"),
];

/// What one run of one workload produced.
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The registered metrics: end to end (untraced) or per layer (traced).
    pub metrics: Vec<Metric>,
    /// Workload-specific end-to-end metrics and trace self times.
    pub extra: Vec<Metric>,
    pub notes: Vec<String>,
    pub measured_s: f64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.extra)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The registered names this run was obliged to report but did not —
    /// a bug in the benchmark, surfaced instead of silently dropped.
    pub fn missing(&self) -> Vec<&'static str> {
        let want: Vec<&'static str> = if self.traced {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.0).collect()
        };
        want.into_iter()
            .filter(|n| !self.metrics.iter().any(|m| m.name == *n))
            .collect()
    }

    /// `{name: {value, unit}}`, with the sample count where the reader
    /// is a person (the driver's line has exactly `value` and `unit`).
    fn metrics_json(list: &[Metric], with_samples: bool) -> Json {
        Json::Object(
            list.iter()
                .map(|m| {
                    let mut fields =
                        vec![("value", Json::F64(m.value)), ("unit", Json::str(m.unit))];
                    if with_samples {
                        fields.push(("samples", Json::U64(m.samples)));
                    }
                    (m.name.clone(), Json::obj(fields))
                })
                .collect(),
        )
    }

    /// The driver's result line.
    pub fn result_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Self::metrics_json(&self.metrics, false)),
        ])
        .render()
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::str(self.workload)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("measured_s", Json::F64(self.measured_s)),
            ("metrics", Self::metrics_json(&self.metrics, true)),
            ("extra", Self::metrics_json(&self.extra, true)),
            (
                "notes",
                Json::Array(self.notes.iter().map(|n| Json::str(n)).collect()),
            ),
        ])
    }

    /// The human table, on stdout above the result line.
    pub fn print(&self) {
        println!(
            "== {} ({}) — attempted {} failed {} failed_share {} — measured {:.2} s",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            if self.attempted == 0 {
                1.0
            } else {
                self.failed as f64 / self.attempted as f64
            },
            self.measured_s,
        );
        for (title, list) in [
            ("metrics", &self.metrics),
            ("workload-specific", &self.extra),
        ] {
            if list.is_empty() {
                continue;
            }
            println!("  -- {title}");
            for m in list {
                let n = if m.samples > 0 {
                    format!("  (n={})", m.samples)
                } else {
                    String::new()
                };
                println!("  {:<46} {:>16.4} {}{}", m.name, m.value, m.unit, n);
            }
        }
        for n in &self.notes {
            println!("  note: {n}");
        }
    }
}

/// `benchmark/results`, created on demand. Resolved from the package
/// directory so the binary writes inside its own checkout wherever it is
/// started from.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    let _ = fs::create_dir_all(&dir);
    dir
}

fn write_or_warn(path: &std::path::Path, body: &str) {
    if let Err(e) = fs::write(path, body) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Writes `results/latest.json`: the fingerprint plus every outcome.
pub fn write_latest(fp: &Fingerprint, outcomes: &[Outcome]) {
    let doc = Json::obj(vec![
        ("fingerprint", fp.to_json()),
        (
            "runs",
            Json::Array(outcomes.iter().map(Outcome::to_json).collect()),
        ),
    ]);
    write_or_warn(&results_dir().join("latest.json"), &(doc.render() + "\n"));
}

/// Appends one fingerprinted row per outcome to `results/trajectory.jsonl`.
pub fn append_trajectory(fp: &Fingerprint, outcomes: &[Outcome]) {
    let path = results_dir().join("trajectory.jsonl");
    let file = fs::OpenOptions::new().create(true).append(true).open(&path);
    let Ok(mut file) = file else {
        eprintln!("warning: could not open {}", path.display());
        return;
    };
    for o in outcomes {
        let row = Json::obj(vec![("fingerprint", fp.to_json()), ("run", o.to_json())]);
        if let Err(e) = writeln!(file, "{}", row.render()) {
            eprintln!("warning: could not append to {}: {e}", path.display());
            return;
        }
    }
}

fn bound_of(name: &str) -> Option<f64> {
    END_TO_END
        .iter()
        .chain(EXTRA_BOUNDS)
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

/// `--repeat`: per workload and end-to-end metric, the median, quartiles
/// and relative spread over the repeats, flagged against the metric's own
/// bound. Returns how many metrics were flagged.
pub fn print_repeat_summary(outcomes: &[Outcome]) -> usize {
    let mut flagged = 0;
    let mut workloads: Vec<&'static str> = Vec::new();
    for o in outcomes {
        if !workloads.contains(&o.workload) {
            workloads.push(o.workload);
        }
    }
    println!("== repeat summary (spread = (q3 - q1) / median, quartiles as statistics.quantiles)");
    for w in workloads {
        let runs: Vec<&Outcome> = outcomes.iter().filter(|o| o.workload == w).collect();
        let names: Vec<String> = runs[0]
            .metrics
            .iter()
            .chain(&runs[0].extra)
            .map(|m| m.name.clone())
            .filter(|n| bound_of(n).is_some())
            .collect();
        println!("  -- {w} ({} runs)", runs.len());
        for name in names {
            let values: Vec<f64> = runs.iter().filter_map(|o| o.get(&name)).collect();
            let (q1, med, q3) = quartiles_exclusive(&values);
            let spread = if med != 0.0 {
                (q3 - q1) / med.abs()
            } else {
                0.0
            };
            let bound = bound_of(&name).unwrap_or(0.0);
            // `setup_s` is exempt from the spread rule (the driver only
            // compares its medians), and a zero bound means "absolute".
            let over = name != "setup_s" && bound > 0.0 && spread > bound;
            if over {
                flagged += 1;
            }
            println!(
                "  {:<36} median {:>12.4}  q1 {:>12.4}  q3 {:>12.4}  spread {:>6.2}%  bound {:>5.1}%{}",
                name,
                med,
                q1,
                q3,
                spread * 100.0,
                bound * 100.0,
                if over { "  <-- spread exceeds bound" } else { "" }
            );
        }
    }
    flagged
}

#[cfg(test)]
mod tests {
    use super::*;
    use strg::serve::json_parse;

    /// The `name` of every row of `BENCHMARK.json`'s array `key`.
    fn names(doc: &Json, key: &str) -> Vec<String> {
        let field = |v: &Json, k: &str| match v {
            Json::Object(fields) => fields.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone()),
            _ => None,
        };
        let Some(Json::Array(rows)) = field(doc, key) else {
            panic!("BENCHMARK.json: no array {key:?}");
        };
        rows.iter()
            .map(|row| match field(row, "name") {
                Some(Json::Str(name)) => name,
                _ => panic!("BENCHMARK.json: a row of {key:?} has no name"),
            })
            .collect()
    }

    /// The names the binary reports under are the ones `BENCHMARK.json`
    /// registers, in the same order.
    #[test]
    fn registry_matches_benchmark_json() {
        let doc = json_parse::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let workloads: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(names(&doc, "workloads"), workloads);
        let end_to_end: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names(&doc, "end_to_end"), end_to_end);
        let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names(&doc, "per_layer"), per_layer);
    }
}

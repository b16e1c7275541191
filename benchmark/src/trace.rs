//! Spans recorded from the benchmark around calls into each layer.
//!
//! The library has no spans of its own yet, so a traced operation is
//! *replayed*: the whole operation is timed once as the parent span, then
//! each stage it goes through is called through its public function and
//! timed as a child. Children are laid out back to back from the parent's
//! start, in call order; whatever the parent took beyond its children is
//! the parent's self time (on a socket round trip: transport, queueing
//! and thread hand-offs). A replayed child is cut at its parent's end so
//! the file nests, but keeps the duration it measured: [`Tracer::check`]
//! fails a kind of operation whose children measured more than their
//! parents had room for. Spans stay in memory until [`Tracer::write`].

use std::collections::BTreeMap;
use std::time::Instant;

use strg::obs::Json;

use crate::report::results_dir;

#[derive(Clone, Debug)]
pub struct Span {
    /// The operation (request) this span belongs to.
    pub op: u64,
    pub name: &'static str,
    /// Index of the parent span, `None` for an operation's root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// What the span's own timer read. Equals `end_ns - start_ns` unless
    /// a replayed child was cut at its parent's end.
    pub measured_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// How one kind of operation (one root span name) did against the
/// structural promises of a trace file.
pub struct KindCheck {
    pub root: &'static str,
    pub operations: u64,
    /// Children recorded at their wall position that lie outside their
    /// parent.
    pub outside: u64,
    /// What the spans measured beyond the room their parents had — the
    /// amount by which self times taken from the measured durations miss
    /// the roots.
    pub over_ns: u64,
    /// Total duration of the root spans.
    pub root_ns: u64,
}

impl KindCheck {
    /// A kind fails when a child lies outside its parent, or when its
    /// operations' self times together miss their roots by more than 5 %.
    /// The sum is over the kind, not per operation: a replay is another
    /// execution than its parent, so where the replayed stages add up to
    /// nearly all of the parent (an ingest round trip beside an idle
    /// reader) host noise pushes single operations over by a few percent;
    /// a stage replayed that the parent never ran pushes all of them.
    pub fn failed(&self) -> bool {
        self.outside > 0 || self.over_ns as f64 > 0.05 * self.root_ns as f64
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn push(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
        measured_ns: u64,
    ) {
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns,
            end_ns,
            measured_ns,
        });
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Times `f` as the root span of operation `op`.
    pub fn root<R>(&mut self, op: u64, name: &'static str, f: impl FnOnce() -> R) -> (usize, R) {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.push(op, name, None, start_ns, end_ns, end_ns - start_ns);
        (self.spans.len() - 1, out)
    }

    /// Records a root span over an interval the caller timed itself.
    pub fn root_at(&mut self, op: u64, name: &'static str, start: Instant, end: Instant) -> usize {
        let (start_ns, end_ns) = (self.since_origin(start), self.since_origin(end));
        self.push(op, name, None, start_ns, end_ns, end_ns - start_ns);
        self.spans.len() - 1
    }

    /// Times `f` and records it as the next child of `parent`, placed
    /// right after the parent's previous child (or at the parent's start).
    /// A stage replayed outside the original call cannot keep its wall
    /// position, so position is by construction and duration is measured.
    pub fn child<R>(
        &mut self,
        parent: usize,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let t = Instant::now();
        let out = f();
        let dur = t.elapsed().as_nanos() as u64;
        (self.place(parent, name, dur), out)
    }

    /// Records a child whose duration was measured elsewhere (the
    /// library's own `QueryCost::elapsed`, or a stage replayed after the
    /// parent returned). A replay is another execution than its parent,
    /// so on a noisy host it can outlast the room the parent has left; it
    /// is then cut at the parent's end and keeps `dur_ns` as measured.
    pub fn place(&mut self, parent: usize, name: &'static str, dur_ns: u64) -> usize {
        let parent_end = self.spans[parent].end_ns;
        let start_ns = self
            .spans
            .iter()
            .rev()
            .find(|s| s.parent == Some(parent))
            .map_or(self.spans[parent].start_ns, |s| s.end_ns)
            .min(parent_end);
        let end_ns = (start_ns + dur_ns).min(parent_end);
        let op = self.spans[parent].op;
        self.push(op, name, Some(parent), start_ns, end_ns, dur_ns);
        self.spans.len() - 1
    }

    /// Records a child at the wall-clock interval it really ran in (for
    /// stages the benchmark calls itself inside the parent).
    pub fn record(&mut self, parent: usize, name: &'static str, start: Instant, end: Instant) {
        let op = self.spans[parent].op;
        let (start_ns, end_ns) = (self.since_origin(start), self.since_origin(end));
        self.push(op, name, Some(parent), start_ns, end_ns, end_ns - start_ns);
    }

    /// Self time of every span: its duration minus what its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Durations (ns) of the spans called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self times (ns) of the spans called `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64)
            .collect()
    }

    /// Replayed children that were cut at their parent's end.
    pub fn cut(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.measured_ns > s.dur_ns())
            .count() as u64
    }

    /// Checks the spans against the two structural promises of a trace
    /// file, by kind of operation.
    pub fn check(&self) -> Vec<KindCheck> {
        let mut kinds: Vec<KindCheck> = Vec::new();
        // Roots come before their children, so an operation's kind is
        // known by the time its children are seen.
        let mut kind_of_op: BTreeMap<u64, usize> = BTreeMap::new();
        for s in &self.spans {
            let at = *kind_of_op.entry(s.op).or_insert_with(|| {
                kinds
                    .iter()
                    .position(|k| k.root == s.name)
                    .unwrap_or_else(|| {
                        kinds.push(KindCheck {
                            root: s.name,
                            operations: 0,
                            outside: 0,
                            over_ns: 0,
                            root_ns: 0,
                        });
                        kinds.len() - 1
                    })
            });
            let k = &mut kinds[at];
            match s.parent.map(|p| &self.spans[p]) {
                Some(parent) => {
                    if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                        k.outside += 1;
                    }
                }
                None => {
                    k.operations += 1;
                    k.root_ns += s.dur_ns();
                }
            }
            k.over_ns += s.measured_ns - s.dur_ns();
        }
        kinds
    }

    /// Writes `results/trace-<workload>.json`: every span plus total self
    /// time per span name.
    pub fn write(&self, workload: &str) -> std::io::Result<std::path::PathBuf> {
        let selfs = self.self_ns();
        let mut totals: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(&selfs) {
            let e = totals.entry(s.name).or_insert((0, 0));
            e.0 += self_ns;
            e.1 += 1;
        }
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj(vec![
                    ("id", Json::U64(i as u64)),
                    ("op", Json::U64(s.op)),
                    ("name", Json::str(s.name)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                    ),
                    ("start_ns", Json::U64(s.start_ns)),
                    ("end_ns", Json::U64(s.end_ns)),
                    ("self_ns", Json::U64(selfs[i])),
                ])
            })
            .collect();
        let self_ms = Json::Object(
            totals
                .iter()
                .map(|(name, (ns, n))| {
                    (
                        name.to_string(),
                        Json::obj(vec![
                            ("total_self_ms", Json::F64(*ns as f64 / 1e6)),
                            ("spans", Json::U64(*n)),
                        ]),
                    )
                })
                .collect(),
        );
        let doc = Json::obj(vec![
            ("workload", Json::str(workload)),
            (
                "checks",
                Json::Array(
                    self.check()
                        .iter()
                        .map(|k| {
                            Json::obj(vec![
                                ("root", Json::str(k.root)),
                                ("operations", Json::U64(k.operations)),
                                ("children_outside_parent", Json::U64(k.outside)),
                                ("measured_over_ns", Json::U64(k.over_ns)),
                                ("root_ns", Json::U64(k.root_ns)),
                                ("failed", Json::Bool(k.failed())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("cut_replays", Json::U64(self.cut())),
            ("self_time_by_name", self_ms),
            ("spans", Json::Array(spans)),
        ]);
        let path = results_dir().join(format!("trace-{workload}.json"));
        std::fs::write(&path, doc.render() + "\n")?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One operation: a root of `root_ns` with replayed children.
    fn traced(root_ns: u64, children: &[u64]) -> Tracer {
        let mut tr = Tracer::new();
        tr.push(0, "root", None, 1_000, 1_000 + root_ns, root_ns);
        for &dur in children {
            tr.place(0, "stage", dur);
        }
        tr
    }

    #[test]
    fn replays_that_fit_pass_and_overruns_fail() {
        let fits = traced(1_000_000, &[300_000, 600_000]);
        assert!(!fits.check()[0].failed());
        assert_eq!(fits.self_ns()[0], 100_000);

        // 4 % over the parent's room: inside the limit, but cut in the file.
        let slightly = traced(1_000_000, &[300_000, 740_000]);
        assert_eq!(slightly.cut(), 1);
        assert!(!slightly.check()[0].failed());
        assert!(slightly.spans.iter().all(|s| s.end_ns <= 1_001_000));

        let over = traced(1_000_000, &[300_000, 900_000]);
        assert_eq!(over.check()[0].over_ns, 200_000);
        assert!(over.check()[0].failed());
    }
}

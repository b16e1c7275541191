//! The database configuration surface and the common [`Database`] trait.
//!
//! [`DbOptions`] is the single builder both database flavors accept:
//!
//! ```
//! use strg_core::{DbOptions, Threads, VideoDatabase};
//!
//! let opts = DbOptions::new().threads(Threads::Fixed(4)).shards(1);
//! let db = VideoDatabase::new(opts);
//! assert_eq!(db.stats().clips, 0);
//! ```
//!
//! `DbOptions::new().threads(..)` sets one worker-count policy for *every*
//! stage (frame extraction, clustering, and search), and both
//! constructors (`VideoDatabase::new`, `persist::load`) take the same
//! options value, so they cannot disagree about `index.threads`.
//!
//! [`Database`] abstracts over [`VideoDatabase`] (one STRG-Index tree) and
//! [`ShardedDatabase`] (N independent trees behind
//! deterministic hash-of-name routing), so `strg-serve` and the CLI run
//! unchanged against either. [`open`] picks the flavor from what is on
//! disk (STRGDB file → single tree, shard directory → sharded) or, for
//! a fresh path, from [`DbOptions::shards`].

use std::io;
use std::path::Path;

use strg_distance::EgedMetric;
use strg_graph::{DecomposeConfig, ObjectGraph, Point2, TrackerConfig};
use strg_obs::{Recorder, Snapshot};
use strg_parallel::Threads;
use strg_video::{Frame, SegmentConfig, VideoClip};

use crate::index::StrgIndexConfig;
use crate::persist::PersistInfo;
use crate::pipeline::{DbStats, IngestReport, VideoDatabase};
use crate::query::{Query, QueryResult};
use crate::shard::ShardedDatabase;

/// The sequence metric the index keys and search distances use.
///
/// `EGED_M` (the paper's Theorem 2 metric) is the only family today; the
/// gap constant is its one tunable. The enum keeps the builder surface
/// (`DbOptions::new().metric(..)`) stable when other metric families land.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub enum Metric {
    /// `EGED_M` with the origin gap constant (the paper's configuration).
    #[default]
    EgedM,
    /// `EGED_M` with an explicit gap constant.
    EgedMWithGap(Point2),
}

impl Metric {
    pub(crate) fn build(self) -> EgedMetric<Point2> {
        match self {
            Metric::EgedM => EgedMetric::new(),
            Metric::EgedMWithGap(g) => EgedMetric::with_gap(g),
        }
    }
}

/// Configuration of a video database, single-tree or sharded.
///
/// Construct with [`DbOptions::new`] and chain the builder methods; the
/// fields stay public for spot adjustments (`opts.index.seed = 7`).
#[derive(Copy, Clone, Debug, Default)]
pub struct DbOptions {
    /// Region segmentation parameters (§2.1).
    pub segment: SegmentConfig,
    /// Graph-based tracking parameters (Algorithm 1).
    pub tracker: TrackerConfig,
    /// STRG decomposition parameters (§2.3).
    pub decompose: DecomposeConfig,
    /// Index parameters (§5).
    pub index: StrgIndexConfig,
    /// Worker count for frame → RAG extraction during ingest and
    /// background-matched queries. Clustering and search take theirs from
    /// [`StrgIndexConfig::threads`]; [`DbOptions::threads`] sets both.
    /// Every parallel path returns exactly what the sequential one does,
    /// so this knob only affects throughput.
    pub threads: Threads,
    /// Number of independent STRG-Index shards. `0` and `1` both mean a
    /// single tree; [`open`] only builds a [`ShardedDatabase`] above 1.
    pub shards: usize,
    /// The index key / search metric.
    pub metric: Metric,
}

impl DbOptions {
    /// Default options: single shard, `EGED_M` metric, automatic threads.
    pub fn new() -> Self {
        Self::default()
    }

    /// One worker-count policy for every stage (frame extraction,
    /// clustering, and search).
    pub fn threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self.index.threads = threads;
        self
    }

    /// Number of shards clips are hash-routed across (clamped to ≥ 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// The index key / search metric.
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Opens (or creates) a database at `path` with these options — see
    /// [`open`].
    pub fn open(self, path: impl AsRef<Path>) -> io::Result<Box<dyn Database>> {
        open(path, self)
    }
}

/// The operations `strg-serve` and the CLI need, implemented by both
/// [`VideoDatabase`] and [`ShardedDatabase`].
///
/// Object-safe on purpose: front ends hold a `Box<dyn Database>` (or
/// `Arc<dyn Database>`) and never know which flavor they drive. Both
/// implementations record the same `ingest.*` / `query.*` metrics and
/// return thread-invariant [`strg_obs::QueryCost`]s.
pub trait Database: Send + Sync {
    /// Ingests a sequence of frames as one clip.
    fn ingest_frames(&self, name: &str, frames: &[Frame]) -> IngestReport;

    /// Renders and ingests a scripted clip.
    fn ingest_clip(&self, clip: &VideoClip, render_seed: u64) -> IngestReport {
        let frames = clip.render_all(render_seed);
        self.ingest_frames(&clip.name, &frames)
    }

    /// Executes a [`Query`] built with [`Query::knn`] or [`Query::range`].
    fn query(&self, q: Query<'_>) -> QueryResult;

    /// Executes a batch of queries, returning one result per query in
    /// order. A batch is N queries answered one after another, each
    /// against the index as it stands at its turn — not a snapshot: an
    /// ingest or removal racing the batch may be visible to a later member
    /// and not to an earlier one.
    ///
    /// Identical members (same kind, same trajectory content, same clip,
    /// no background) are answered once, by [`Database::query`] on their
    /// first occurrence. Each duplicate gets a copy of that representative's
    /// hits and cost with `batch_shared_accesses` set to `node_accesses`
    /// (every node it is charged for was fetched by the representative),
    /// and is recorded under `query.knn.*` / `query.range.*` like the
    /// single it stands for, so the `query.*` counters equal those of N
    /// separate queries. A distinct member's result is exactly what
    /// [`Database::query`] returns, with `batch_shared_accesses` 0.
    fn query_batch(&self, queries: &[Query<'_>]) -> Vec<QueryResult> {
        let mut results: Vec<QueryResult> = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            // The first match is the first occurrence, which kept its cost.
            let result = match queries[..i].iter().position(|p| p.same_search(q)) {
                None => self.query(q.clone().with_cost()),
                Some(rep) => {
                    let mut cost = results[rep].cost.expect("representatives ran with_cost");
                    cost.batch_shared_accesses = cost.node_accesses;
                    self.recorder().record_cost(q.kind.metric_prefix(), &cost);
                    QueryResult {
                        hits: results[rep].hits.clone(),
                        cost: Some(cost),
                    }
                }
            };
            results.push(result);
        }
        for (r, q) in results.iter_mut().zip(queries) {
            if !q.want_cost {
                r.cost = None;
            }
        }
        results
    }

    /// Aggregate statistics over every shard.
    fn stats(&self) -> DbStats;

    /// Number of shards (1 for a single-tree database).
    fn shard_count(&self) -> usize {
        1
    }

    /// Per-shard statistics, in shard order. A single-tree database is its
    /// own one shard.
    fn shard_stats(&self) -> Vec<DbStats> {
        vec![self.stats()]
    }

    /// Names of all ingested clips (ingest order within each shard).
    fn clip_names(&self) -> Vec<String>;

    /// The stored Object Graph with id `id`.
    fn og(&self, id: u64) -> Option<ObjectGraph>;

    /// Removes a clip and everything extracted from it. Returns the number
    /// of OGs removed, or `None` if the clip is unknown.
    fn remove_clip(&self, name: &str) -> Option<usize>;

    /// The database's metric recorder.
    fn recorder(&self) -> &Recorder;

    /// Where this database's contents came from: the on-disk format it was
    /// loaded from (if any) and whether the index was deserialized or
    /// re-clustered on load. The default covers freshly created databases;
    /// both flavors override it after a load.
    fn persist_info(&self) -> PersistInfo {
        PersistInfo::fresh()
    }

    /// A point-in-time snapshot of every recorded metric.
    fn metrics_snapshot(&self) -> Snapshot {
        self.recorder().snapshot()
    }

    /// Serializes the database to `path` (a file for a single tree, a
    /// directory for a sharded database).
    fn save(&self, path: &Path) -> io::Result<()>;
}

/// Opens the database at `path`, or creates an empty one if nothing is
/// there yet.
///
/// * an existing **directory** loads as a [`ShardedDatabase`] (the
///   manifest's shard count wins over [`DbOptions::shards`]);
/// * an existing **file** loads as a single-tree [`VideoDatabase`];
/// * a missing path creates whichever flavor [`DbOptions::shards`] asks
///   for — `shards(1)` yields a [`VideoDatabase`] whose hits, costs, and
///   persisted bytes are byte-identical to the pre-sharding database.
pub fn open(path: impl AsRef<Path>, opts: DbOptions) -> io::Result<Box<dyn Database>> {
    let path = path.as_ref();
    if path.is_dir() {
        Ok(Box::new(ShardedDatabase::load(path, opts)?))
    } else if path.exists() {
        Ok(Box::new(VideoDatabase::load(path, opts)?))
    } else if opts.shards > 1 {
        Ok(Box::new(ShardedDatabase::new(opts)))
    } else {
        Ok(Box::new(VideoDatabase::new(opts)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_both_thread_knobs() {
        let opts = DbOptions::new().threads(Threads::Fixed(3));
        assert_eq!(opts.threads, Threads::Fixed(3));
        assert_eq!(opts.index.threads, Threads::Fixed(3));
    }

    #[test]
    fn shards_clamped_to_one() {
        assert_eq!(DbOptions::new().shards(0).shards, 1);
        assert_eq!(DbOptions::new().shards(4).shards, 4);
    }

    #[test]
    fn metric_builds() {
        let m = Metric::EgedMWithGap(Point2::new(1.0, 2.0)).build();
        assert_eq!(m.gap, Point2::new(1.0, 2.0));
        assert_eq!(Metric::default().build().gap, Point2::new(0.0, 0.0));
    }
}

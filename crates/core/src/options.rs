//! The database configuration surface and the [`Database`] trait.
//!
//! [`DbOptions`] is the single builder the database accepts:
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
//! constructors (`VideoDatabase::new`, `VideoDatabase::load`) take the
//! same options value, so they cannot disagree about `index.threads`.
//!
//! [`Database`] is the object-safe face of [`VideoDatabase`], for front
//! ends that hold the database type-erased (`strg-serve`'s
//! `Arc<dyn Database>`). [`open`] loads whatever is on disk (a STRGDB file
//! or a shard directory) or, for a fresh path, creates an empty database
//! with [`DbOptions::shards`] shards.

use std::io;
use std::path::Path;

use strg_graph::{DecomposeConfig, ObjectGraph, TrackerConfig};
use strg_obs::{Recorder, Snapshot};
use strg_parallel::Threads;
use strg_video::{Frame, SegmentConfig, VideoClip};

use crate::index::StrgIndexConfig;
use crate::persist::PersistInfo;
use crate::pipeline::{DbStats, IngestReport, VideoDatabase};
use crate::query::{Query, QueryResult};

/// Configuration of a video database.
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
    /// single tree, which saves as one file; more shards save as a
    /// directory.
    pub shards: usize,
}

impl DbOptions {
    /// Default options: single shard, automatic threads.
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

    /// Opens (or creates) a database at `path` with these options — see
    /// [`open`].
    pub fn open(self, path: impl AsRef<Path>) -> io::Result<VideoDatabase> {
        open(path, self)
    }
}

/// The operations `strg-serve` needs, implemented by [`VideoDatabase`].
///
/// Object-safe on purpose: the server holds an `Arc<dyn Database>`, so a
/// test or benchmark can hand it the database it built without naming a
/// type.
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

    /// Number of shards.
    fn shard_count(&self) -> usize;

    /// Per-shard statistics, in shard order.
    fn shard_stats(&self) -> Vec<DbStats>;

    /// Names of all ingested clips, in global ingest order.
    fn clip_names(&self) -> Vec<String>;

    /// The stored Object Graph with id `id`.
    fn og(&self, id: u64) -> Option<ObjectGraph>;

    /// Removes a clip and everything extracted from it. Returns the number
    /// of OGs removed, or `None` if the clip is unknown.
    fn remove_clip(&self, name: &str) -> Option<usize>;

    /// The database's metric recorder.
    fn recorder(&self) -> &Recorder;

    /// Where this database's contents came from: whether the index was
    /// deserialized from a file or the database is fresh.
    fn persist_info(&self) -> PersistInfo;

    /// A point-in-time snapshot of every recorded metric.
    fn metrics_snapshot(&self) -> Snapshot {
        self.recorder().snapshot()
    }

    /// Serializes the database to `path` (see [`VideoDatabase::save`] for
    /// the file and directory layouts).
    fn save(&self, path: &Path) -> io::Result<()>;
}

/// Opens the database at `path`, or creates an empty one if nothing is
/// there yet.
///
/// * an existing **file**, or an existing **directory** through the one
///   file a save writes into it, loads with the shard count the file
///   stores (which wins over [`DbOptions::shards`]);
/// * a missing path creates an empty database with
///   [`DbOptions::shards`] shards.
pub fn open(path: impl AsRef<Path>, opts: DbOptions) -> io::Result<VideoDatabase> {
    let path = path.as_ref();
    if path.exists() {
        VideoDatabase::load(path, opts)
    } else {
        Ok(VideoDatabase::new(opts))
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
}

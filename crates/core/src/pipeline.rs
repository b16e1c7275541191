//! The end-to-end video database facade.
//!
//! [`VideoDatabase`] wires the whole paper together: frames are segmented
//! into regions (§2.1), RAGs become an STRG via graph-based tracking
//! (§2.2), the STRG is decomposed into Object Graphs and one Background
//! Graph (§2.3), the OGs are clustered with EM-EGED (§4) and indexed in the
//! STRG-Index (§5), which then answers k-NN trajectory queries
//! (Algorithm 3).
//!
//! The index is guarded by a `parking_lot::RwLock`, so concurrent readers
//! can query while ingest takes the write lock.
//!
//! **Lock order.** Every method that holds more than one of the four locks
//! acquires them in the fixed order `ogs → clips → index → strg_bytes`
//! (and the query paths drop the index guard before resolving hits against
//! the OG store). Violating this order can deadlock against a concurrent
//! ingest or removal, which takes all write locks in that order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use strg_distance::EgedMetric;
use strg_graph::{build_strg, decompose, ObjectGraph, Point2};
use strg_obs::{QueryCost, Recorder, Snapshot};
use strg_video::{frames_to_rags, frames_to_rags_with_stats, Frame, VideoClip};

use crate::index::{Hit, Scope, StrgIndex};
use crate::options::{Database, DbOptions};
use crate::persist::PersistInfo;
use crate::query::{Query, QueryResult};

/// Metadata of one ingested clip.
#[derive(Clone, Debug)]
pub struct ClipMeta {
    /// Clip name.
    pub name: String,
    /// Root record id of the clip's segment in the index.
    pub root_id: u32,
    /// Number of frames ingested.
    pub frames: usize,
    /// Ids of the OGs extracted from this clip.
    pub og_ids: Vec<u64>,
}

/// A stored Object Graph with its provenance.
#[derive(Clone, Debug)]
pub struct StoredOg {
    /// Database-wide OG id.
    pub id: u64,
    /// Index of the owning clip in the database's clip list.
    pub clip: usize,
    /// The full Object Graph (the leaf `ptr` target).
    pub og: ObjectGraph,
}

/// Report returned by an ingest.
#[derive(Clone, Debug)]
pub struct IngestReport {
    /// Root record id created for the clip.
    pub root_id: u32,
    /// Number of OGs extracted and indexed.
    pub objects: usize,
    /// Number of nodes of the deduplicated Background Graph.
    pub background_nodes: usize,
    /// Raw STRG size in bytes (Equation 9).
    pub strg_bytes: usize,
}

/// One k-NN query answer, resolved to clip provenance.
#[derive(Clone, Debug)]
pub struct QueryHit {
    /// Name of the clip the matching OG came from.
    pub clip: String,
    /// The OG id.
    pub og_id: u64,
    /// Distance to the query trajectory.
    pub dist: f64,
}

/// Aggregate database statistics.
#[derive(Copy, Clone, Debug, Default)]
pub struct DbStats {
    /// Number of ingested clips (segments / root records).
    pub clips: usize,
    /// Number of indexed OGs.
    pub objects: usize,
    /// Number of cluster records.
    pub clusters: usize,
    /// Equation (9): raw STRG size (sum over clips).
    pub strg_bytes: usize,
    /// Equation (10): index size.
    pub index_bytes: usize,
}

/// The end-to-end video database (one STRG-Index tree).
pub struct VideoDatabase {
    pub(crate) cfg: DbOptions,
    pub(crate) index: RwLock<StrgIndex<Point2, EgedMetric<Point2>>>,
    pub(crate) clips: RwLock<Vec<ClipMeta>>,
    pub(crate) ogs: RwLock<Vec<StoredOg>>,
    pub(crate) strg_bytes: RwLock<usize>,
    pub(crate) recorder: Recorder,
    /// When set (by [`crate::ShardedDatabase`]), OG ids come from this
    /// shared counter instead of the local store, so ids are assigned in
    /// global ingest order and stay identical at any shard count.
    pub(crate) og_alloc: Option<Arc<AtomicU64>>,
    /// How this database was opened (fresh / fast-reopened);
    /// set once by `persist::load_into` before the database is shared.
    pub(crate) persist: PersistInfo,
}

impl VideoDatabase {
    /// Creates an empty database.
    pub fn new(opts: DbOptions) -> Self {
        Self::new_internal(opts, Recorder::new(), None)
    }

    pub(crate) fn new_internal(
        opts: DbOptions,
        recorder: Recorder,
        og_alloc: Option<Arc<AtomicU64>>,
    ) -> Self {
        let mut index = StrgIndex::new(opts.metric.build(), opts.index);
        index.set_recorder(recorder.clone());
        Self {
            cfg: opts,
            index: RwLock::new(index),
            clips: RwLock::new(Vec::new()),
            ogs: RwLock::new(Vec::new()),
            strg_bytes: RwLock::new(0),
            recorder,
            og_alloc,
            persist: PersistInfo::fresh(),
        }
    }

    /// The options the database was built with.
    pub fn options(&self) -> &DbOptions {
        &self.cfg
    }

    /// Where this database's contents came from: the on-disk format it was
    /// loaded from (if any) and whether the index was deserialized
    /// ([`crate::persist::ReopenMode::Fast`]) or re-clustered on load.
    pub fn persist_info(&self) -> PersistInfo {
        self.persist
    }

    /// The database's metric recorder. Every ingest and query records into
    /// it; clones share the same registry.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// A point-in-time snapshot of every recorded metric (sorted by name).
    /// Serialize with [`Snapshot::to_json_string`]; compare across thread
    /// counts with [`Snapshot::deterministic_json`], which drops wall-clock
    /// histograms and volatile counters.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.recorder.snapshot()
    }

    /// Ingests a sequence of frames as one video segment. Stage timings
    /// land in the `ingest.segment_ns` / `ingest.track_ns` /
    /// `ingest.decompose_ns` / `ingest.index_ns` histograms; deterministic
    /// volume counters in `ingest.clips` / `ingest.frames` /
    /// `ingest.objects`. Per-worker scratch-arena telemetry lands in the
    /// *volatile* counters `ingest.scratch_workers` /
    /// `ingest.scratch_bytes` / `ingest.scratch_grows` (volatile because
    /// the arena count follows the worker count).
    pub fn ingest_frames(&self, name: &str, frames: &[Frame]) -> IngestReport {
        let _total = self.recorder.span("ingest.total");
        // 1. Frame -> RAG (§2.1), fanned out across frames with one
        // reusable segmentation arena per worker.
        let rags = {
            let _s = self.recorder.span("ingest.segment");
            let (rags, scratch) =
                frames_to_rags_with_stats(frames, &self.cfg.segment, self.cfg.threads);
            self.recorder
                .volatile_add("ingest.scratch_workers", scratch.workers as u64);
            self.recorder
                .volatile_add("ingest.scratch_bytes", scratch.scratch_bytes as u64);
            self.recorder
                .volatile_add("ingest.scratch_grows", scratch.scratch_grows);
            rags
        };
        // 2. RAGs -> STRG via tracking (§2.2).
        let strg = {
            let _s = self.recorder.span("ingest.track");
            build_strg(rags, &self.cfg.tracker)
        };
        // 3. Decompose (§2.3).
        let d = {
            let _s = self.recorder.span("ingest.decompose");
            decompose(&strg, &self.cfg.decompose)
        };
        let strg_bytes = strg_graph::decompose::strg_size_bytes(&d);
        let background_nodes = d.background.rag.node_count();

        // 4/5. Cluster + index (Algorithm 2).
        let mut ogs_store = self.ogs.write();
        // Ids must stay unique across clip removals, so continue from the
        // largest id ever assigned rather than the store length. A sharded
        // database supplies a shared allocator instead; the block is
        // claimed under this shard's store write lock, so each shard's
        // store stays sorted by id.
        let base_id = match &self.og_alloc {
            Some(alloc) => alloc.fetch_add(d.objects.len() as u64, Ordering::SeqCst),
            None => ogs_store.last().map_or(0, |s| s.id + 1),
        };
        let mut clips = self.clips.write();
        let clip_idx = clips.len();
        let mut items = Vec::with_capacity(d.objects.len());
        let mut og_ids = Vec::with_capacity(d.objects.len());
        for (i, og) in d.objects.iter().enumerate() {
            let id = base_id + i as u64;
            items.push((id, og.centroid_series()));
            og_ids.push(id);
            ogs_store.push(StoredOg {
                id,
                clip: clip_idx,
                og: og.clone(),
            });
        }
        let objects = items.len();
        let mut index = self.index.write();
        let root_id = {
            let _s = self.recorder.span("ingest.index");
            index.add_segment(d.background, items)
        };
        clips.push(ClipMeta {
            name: name.to_string(),
            root_id,
            frames: frames.len(),
            og_ids,
        });
        *self.strg_bytes.write() += strg_bytes;
        self.recorder.add("ingest.clips", 1);
        self.recorder.add("ingest.frames", frames.len() as u64);
        self.recorder.add("ingest.objects", objects as u64);

        IngestReport {
            root_id,
            objects,
            background_nodes,
            strg_bytes,
        }
    }

    /// Renders and ingests a scripted clip.
    pub fn ingest_clip(&self, clip: &VideoClip, render_seed: u64) -> IngestReport {
        let frames = clip.render_all(render_seed);
        self.ingest_frames(&clip.name, &frames)
    }

    /// Executes a [`Query`] built with [`Query::knn`] or [`Query::range`].
    ///
    /// The query's [`QueryCost`] is always recorded into the database's
    /// metrics (under `query.knn.*` / `query.range.*`); it is returned in
    /// [`QueryResult::cost`] iff the query asked via [`Query::with_cost`].
    /// The work fields of the cost are bit-identical at any thread count.
    pub fn query(&self, q: Query<'_>) -> QueryResult {
        /// Where the search goes, once the query's modifiers are resolved.
        enum Target {
            In(Scope),
            Miss,
            Matching(strg_graph::BackgroundGraph),
        }
        let start = std::time::Instant::now();
        // Resolve the target first (lock order: clips before index). The
        // explicit clip wins over background matching.
        let target = if let Some(name) = &q.clip {
            let clips = self.clips.read();
            match clips.iter().find(|c| c.name == *name) {
                Some(c) => Target::In(Scope::Root(c.root_id)),
                None => Target::Miss,
            }
        } else if let Some(frames) = q.background {
            let rags = frames_to_rags(frames, &self.cfg.segment, self.cfg.threads);
            let strg = build_strg(rags, &self.cfg.tracker);
            let d = decompose(&strg, &self.cfg.decompose);
            Target::Matching(d.background)
        } else {
            Target::In(Scope::All)
        };

        let index = self.index.read();
        let (hits, mut cost) = match &target {
            Target::In(scope) => index.search(q.trajectory, q.kind, *scope),
            Target::Miss => (Vec::new(), QueryCost::default()),
            Target::Matching(bg) => index.search_with_background(
                bg,
                &self.cfg.tracker.compat,
                0.5,
                q.trajectory,
                q.kind,
            ),
        };
        drop(index);
        let hits = self.resolve(hits);
        cost.elapsed = start.elapsed();
        self.recorder.record_cost(q.kind.metric_prefix(), &cost);
        QueryResult {
            hits,
            cost: q.want_cost.then_some(cost),
        }
    }

    pub(crate) fn resolve(&self, hits: Vec<Hit>) -> Vec<QueryHit> {
        let ogs = self.ogs.read();
        let clips = self.clips.read();
        hits.iter()
            .filter_map(|h| resolve_hit(&ogs, &clips, h))
            .collect()
    }

    /// The stored Object Graph with id `id`.
    pub fn og(&self, id: u64) -> Option<ObjectGraph> {
        let ogs = self.ogs.read();
        let idx = ogs.binary_search_by_key(&id, |s| s.id).ok()?;
        Some(ogs[idx].og.clone())
    }

    /// Removes a clip and everything extracted from it (its root record,
    /// clusters, leaf records and stored OGs). Returns the number of OGs
    /// removed, or `None` if the clip is unknown.
    pub fn remove_clip(&self, name: &str) -> Option<usize> {
        let mut ogs = self.ogs.write();
        let mut clips = self.clips.write();
        let mut index = self.index.write();
        let pos = clips.iter().position(|c| c.name == name)?;
        let root = clips[pos].root_id;
        let removed = index.remove_segment(root).unwrap_or(0);
        clips.remove(pos);
        ogs.retain(|s| s.clip != pos);
        for s in ogs.iter_mut() {
            if s.clip > pos {
                s.clip -= 1;
            }
        }
        Some(removed)
    }

    /// Names of all ingested clips.
    pub fn clip_names(&self) -> Vec<String> {
        self.clips.read().iter().map(|c| c.name.clone()).collect()
    }

    /// Aggregate statistics (Equations 9 and 10).
    pub fn stats(&self) -> DbStats {
        let clips = self.clips.read();
        let index = self.index.read();
        DbStats {
            clips: clips.len(),
            objects: index.len(),
            clusters: index.cluster_count(),
            strg_bytes: *self.strg_bytes.read(),
            index_bytes: index.size_bytes(),
        }
    }

    /// Read access to the underlying index (for experiments).
    pub fn with_index<R>(&self, f: impl FnOnce(&StrgIndex<Point2, EgedMetric<Point2>>) -> R) -> R {
        f(&self.index.read())
    }
}

/// One hit's clip provenance, looked up in a shard's stores; `None` if the
/// OG was removed since the search.
pub(crate) fn resolve_hit(ogs: &[StoredOg], clips: &[ClipMeta], h: &Hit) -> Option<QueryHit> {
    // OG ids are assigned monotonically, so the store is sorted by id even
    // after clip removals.
    let idx = ogs.binary_search_by_key(&h.og_id, |s| s.id).ok()?;
    Some(QueryHit {
        clip: clips[ogs[idx].clip].name.clone(),
        og_id: h.og_id,
        dist: h.dist,
    })
}

impl Database for VideoDatabase {
    fn ingest_frames(&self, name: &str, frames: &[Frame]) -> IngestReport {
        VideoDatabase::ingest_frames(self, name, frames)
    }
    fn query(&self, q: Query<'_>) -> QueryResult {
        VideoDatabase::query(self, q)
    }
    fn stats(&self) -> DbStats {
        VideoDatabase::stats(self)
    }
    fn clip_names(&self) -> Vec<String> {
        VideoDatabase::clip_names(self)
    }
    fn og(&self, id: u64) -> Option<ObjectGraph> {
        VideoDatabase::og(self, id)
    }
    fn remove_clip(&self, name: &str) -> Option<usize> {
        VideoDatabase::remove_clip(self, name)
    }
    fn recorder(&self) -> &Recorder {
        VideoDatabase::recorder(self)
    }
    fn persist_info(&self) -> PersistInfo {
        VideoDatabase::persist_info(self)
    }
    fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        VideoDatabase::save(self, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strg_graph::Rgb;
    use strg_video::{lab_scene, ScenarioConfig, SceneNoise};

    fn small_clip(seed: u64, actors: usize, frames: usize) -> VideoClip {
        VideoClip {
            name: format!("clip{seed}"),
            scene: lab_scene(&ScenarioConfig {
                n_actors: actors,
                frames,
                seed,
                noise: SceneNoise {
                    illumination: 2.0,
                    pixel_noise: 0.0005,
                    frame_drop: 0.0,
                },
            }),
            fps: 30.0,
        }
    }

    #[test]
    fn end_to_end_ingest_and_query() {
        let db = VideoDatabase::new(DbOptions::new());
        let clip = small_clip(11, 2, 60);
        let report = db.ingest_clip(&clip, 5);
        assert!(report.objects >= 1, "at least one walker tracked");
        assert!(report.background_nodes >= 3, "room background summarized");
        let stats = db.stats();
        assert_eq!(stats.clips, 1);
        assert!(stats.index_bytes < stats.strg_bytes, "Eq 10 < Eq 9");

        // Query with one of the stored OG trajectories: it must match
        // itself at distance ~0.
        let og = db.og(0).expect("og 0 exists");
        let result = db.query(Query::knn(1).trajectory(&og.centroid_series()).with_cost());
        assert_eq!(result.hits.len(), 1);
        assert_eq!(result.hits[0].og_id, 0);
        assert!(result.hits[0].dist < 1e-9);
        let cost = result.cost.expect("with_cost() requested it");
        assert!(cost.distance_calls >= 1);
        // The same work is visible through the db-wide metrics.
        let snap = db.metrics_snapshot();
        assert_eq!(snap.counter("query.knn.count"), Some(1));
        assert_eq!(
            snap.counter("query.knn.distance_calls"),
            Some(cost.distance_calls)
        );
        let _ = Rgb::BLACK;
    }

    #[test]
    fn remove_clip_evicts_everything() {
        let db = VideoDatabase::new(DbOptions::new());
        db.ingest_clip(&small_clip(31, 1, 50), 1);
        db.ingest_clip(&small_clip(32, 1, 50), 2);
        let before = db.stats();
        assert_eq!(before.clips, 2);

        let removed = db.remove_clip("clip31").expect("known clip");
        assert!(removed >= 1);
        let after = db.stats();
        assert_eq!(after.clips, 1);
        assert_eq!(after.objects, before.objects - removed);
        // Queries only see the surviving clip.
        let q: Vec<Point2> = (0..20).map(|i| Point2::new(4.0 * i as f64, 80.0)).collect();
        for hit in db.query(Query::knn(10).trajectory(&q)).hits {
            assert_eq!(hit.clip, "clip32");
        }
        assert!(db.remove_clip("clip31").is_none(), "already gone");
        // Removed OGs are no longer resolvable.
        assert!(db.og(0).is_none());
    }

    #[test]
    fn ingest_after_removal_keeps_ids_unique() {
        let db = VideoDatabase::new(DbOptions::new());
        db.ingest_clip(&small_clip(41, 1, 50), 1);
        db.ingest_clip(&small_clip(42, 1, 50), 2);
        db.remove_clip("clip41").unwrap();
        db.ingest_clip(&small_clip(43, 1, 50), 3);
        let ogs_seen: Vec<u64> = {
            let q: Vec<Point2> = (0..20).map(|i| Point2::new(4.0 * i as f64, 80.0)).collect();
            db.query(Query::knn(50).trajectory(&q))
                .hits
                .into_iter()
                .map(|h| h.og_id)
                .collect()
        };
        let mut dedup = ogs_seen.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ogs_seen.len(), "no duplicate ids");
        // Every hit resolves to a live clip.
        for id in dedup {
            assert!(db.og(id).is_some());
        }
    }

    #[test]
    fn clip_restricted_query() {
        let db = VideoDatabase::new(DbOptions::new());
        db.ingest_clip(&small_clip(21, 1, 50), 1);
        db.ingest_clip(&small_clip(22, 1, 50), 2);
        assert_eq!(db.clip_names().len(), 2);
        let og = db.og(0).expect("first clip og");
        let q = og.centroid_series();
        let hits = db
            .query(Query::knn(10).trajectory(&q).in_clip("clip21"))
            .hits;
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.clip == "clip21"));
        let none = db.query(Query::knn(10).trajectory(&q).in_clip("nope")).hits;
        assert!(none.is_empty());
    }
}

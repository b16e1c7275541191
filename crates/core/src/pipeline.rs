//! The video database: one struct over N ≥ 1 STRG-Index shards.
//!
//! [`VideoDatabase`] wires the whole paper together: frames are segmented
//! into regions (§2.1), RAGs become an STRG via graph-based tracking
//! (§2.2), the STRG is decomposed into Object Graphs and one Background
//! Graph (§2.3), the OGs are clustered with EM-EGED (§4) and indexed in the
//! STRG-Index (§5), which then answers k-NN trajectory queries
//! (Algorithm 3).
//!
//! A database holds [`DbOptions::shards`] shards (one by default, the
//! paper's single tree), each an STRG-Index tree with the clips
//! [`crate::route`] sends to it (DESIGN.md §12).
//!
//! **One numbering per shard.** A shard is one list of clips in ingest
//! order: clip `i` owns root record `i` of the shard's tree (the paper's
//! `(iD_root, BG, ptr)`, one per segment) and its own Object Graphs. A hit
//! names its clip through the root position it carries; a removal takes
//! the clip and its root out of both lists at the same position.
//!
//! **One lock.** Everything mutable — every shard, the global clip order
//! and the next OG id — is one `State` behind one `parking_lot::RwLock`.
//! An ingest segments, tracks and decomposes before it takes the write
//! lock, then clusters and indexes under it; a removal holds it
//! throughout. A query holds one read guard for its search *and* the
//! resolution of its hits, so it answers from one consistent state: no
//! hit is dropped by a concurrent removal, and a clip-scoped or
//! background-matched query cannot land on a root a concurrent removal
//! has moved.

use parking_lot::RwLock;
use strg_distance::EgedMetric;
use strg_graph::{
    background_similarity, build_strg, decompose, BackgroundGraph, ObjectGraph, Point2,
};
use strg_obs::{QueryCost, Recorder, Snapshot};
use strg_video::{frames_to_rags, Frame, VideoClip};

use crate::index::{Hit, RootRecord, Scope, StrgIndex};
use crate::options::{Database, DbOptions};
use crate::persist::PersistInfo;
use crate::query::{Query, QueryKind, QueryResult};
use crate::shard::{route, sharded_query};

type Idx = StrgIndex<Point2, EgedMetric<Point2>>;

/// The metric every shard's tree keys, summarizes and searches with; a
/// load summarizes its leaf sequences with it too.
pub(crate) fn index_metric() -> EgedMetric<Point2> {
    EgedMetric::new()
}

/// One ingested clip. Clip `i` of a shard owns root record `i` of the
/// shard's index.
pub(crate) struct ClipMeta {
    pub(crate) name: String,
    /// Number of frames ingested.
    pub(crate) frames: usize,
    /// Ids of the OGs extracted from this clip.
    pub(crate) og_ids: Vec<u64>,
    /// The full Object Graphs (the leaf `ptr` targets): `ogs[i]` has id
    /// `og_ids[i]`.
    pub(crate) ogs: Vec<ObjectGraph>,
}

/// Report returned by an ingest.
#[derive(Clone, Debug)]
pub struct IngestReport {
    /// Position of the clip's root record in its shard's index.
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

/// One shard: an STRG-Index tree and the clips routed to it, in ingest
/// order — clip `i` owns root `i`.
pub(crate) struct Shard {
    pub(crate) index: Idx,
    pub(crate) clips: Vec<ClipMeta>,
    pub(crate) strg_bytes: usize,
}

impl Shard {
    /// A shard over already-built parts (empty for a fresh database).
    pub(crate) fn new(
        opts: &DbOptions,
        recorder: &Recorder,
        roots: Vec<RootRecord<Point2>>,
        clips: Vec<ClipMeta>,
        strg_bytes: usize,
    ) -> Self {
        let mut index = StrgIndex::from_parts(index_metric(), opts.index, roots);
        index.set_recorder(recorder.clone());
        Self {
            index,
            clips,
            strg_bytes,
        }
    }

    fn stats(&self) -> DbStats {
        DbStats {
            clips: self.clips.len(),
            objects: self.index.len(),
            clusters: self.index.cluster_count(),
            strg_bytes: self.strg_bytes,
            index_bytes: self.index.size_bytes(),
        }
    }

    /// The position of the first clip named `name`, if this shard holds
    /// one: also its root's position.
    fn position(&self, name: &str) -> Option<u32> {
        let p = self.clips.iter().position(|c| c.name == name)?;
        Some(p as u32)
    }
}

/// Walks clip names in global ingest order with one cursor per shard and
/// yields each clip's `(shard, position in that shard)`: the `k`-th name
/// that routes to shard `s` is shard `s`'s clip `k`.
pub(crate) fn clip_positions(
    order: &[String],
    shards: usize,
) -> impl Iterator<Item = (usize, usize)> + '_ {
    let mut next = vec![0; shards];
    order.iter().map(move |name| {
        let s = route(name, shards);
        next[s] += 1;
        (s, next[s] - 1)
    })
}

/// Everything a database mutates, behind its one lock.
pub(crate) struct State {
    pub(crate) shards: Vec<Shard>,
    /// Clip names in global ingest order (each clip's shard is `route` of
    /// its name, its position there is given by [`clip_positions`]). Background
    /// matching scans roots in this order.
    pub(crate) order: Vec<String>,
    /// The next OG id to hand out.
    pub(crate) next_og: u64,
}

impl State {
    /// Resolves shard-tagged hits to clip provenance, in their merged
    /// order: root `i` is clip `i`, and the search ran under the same
    /// guard, so every hit resolves.
    fn resolve(&self, tagged: &[(usize, Hit)]) -> Vec<QueryHit> {
        tagged
            .iter()
            .map(|&(s, h)| QueryHit {
                clip: self.shards[s].clips[h.root_id as usize].name.clone(),
                og_id: h.og_id,
                dist: h.dist,
            })
            .collect()
    }
}

/// The end-to-end video database: N ≥ 1 STRG-Index shards answering
/// global queries by searching every shard and merging the hits
/// ([`crate::shard`]). OG ids come from one counter, in global ingest
/// order, and are never handed out twice — not even after the newest clip
/// is removed.
pub struct VideoDatabase {
    cfg: DbOptions,
    pub(crate) state: RwLock<State>,
    recorder: Recorder,
    /// How this database was opened (fresh / fast-reopened).
    persist: PersistInfo,
}

impl VideoDatabase {
    /// Creates an empty database with `opts.shards` shards (clamped to
    /// ≥ 1).
    pub fn new(mut opts: DbOptions) -> Self {
        opts.shards = opts.shards.max(1);
        let recorder = Recorder::new();
        let shards = (0..opts.shards)
            .map(|_| Shard::new(&opts, &recorder, Vec::new(), Vec::new(), 0))
            .collect();
        Self::assemble(opts, shards, Vec::new(), 0, recorder, PersistInfo::fresh())
    }

    /// The one constructor behind [`VideoDatabase::new`] and the loaders.
    /// The id counter starts at `next_og`, which the loaders check lies
    /// past every stored id, so no id is ever handed out again.
    pub(crate) fn assemble(
        mut opts: DbOptions,
        shards: Vec<Shard>,
        order: Vec<String>,
        next_og: u64,
        recorder: Recorder,
        persist: PersistInfo,
    ) -> Self {
        opts.shards = shards.len();
        recorder.add("shard.count", shards.len() as u64);
        Self {
            cfg: opts,
            state: RwLock::new(State {
                shards,
                order,
                next_og,
            }),
            recorder,
            persist,
        }
    }

    /// The options the database was built with (`shards` is the actual
    /// shard count).
    pub fn options(&self) -> &DbOptions {
        &self.cfg
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.cfg.shards
    }

    /// Where this database's contents came from: the on-disk format it was
    /// loaded from (if any) and whether the index was deserialized
    /// ([`crate::persist::ReopenMode::Fast`]) or the database is fresh.
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

    /// Ingests a sequence of frames as one clip, routed to its shard.
    /// Stage timings land in the `ingest.segment_ns` / `ingest.track_ns` /
    /// `ingest.decompose_ns` / `ingest.index_ns` histograms; deterministic
    /// volume counters in `ingest.clips` / `ingest.frames` /
    /// `ingest.objects` and `shard.<i>.clips`.
    pub fn ingest_frames(&self, name: &str, frames: &[Frame]) -> IngestReport {
        let _total = self.recorder.span("ingest.total");
        // 1. Frame -> RAG (§2.1), fanned out across frames with one
        // reusable segmentation arena per worker.
        let rags = {
            let _s = self.recorder.span("ingest.segment");
            frames_to_rags(frames, &self.cfg.segment, self.cfg.threads)
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

        // 4/5. Cluster + index (Algorithm 2), under the write lock. The
        // clip takes one contiguous id block and its root's position.
        let mut state = self.state.write();
        let s = route(name, state.shards.len());
        let objects = d.objects.len();
        let og_ids: Vec<u64> = (state.next_og..).take(objects).collect();
        state.next_og += objects as u64;
        let items = og_ids
            .iter()
            .zip(&d.objects)
            .map(|(&id, og)| (id, og.centroid_series()))
            .collect();
        let shard = &mut state.shards[s];
        let root_id = {
            let _s = self.recorder.span("ingest.index");
            shard.index.add_segment(d.background, items)
        };
        shard.clips.push(ClipMeta {
            name: name.to_string(),
            frames: frames.len(),
            og_ids,
            ogs: d.objects,
        });
        shard.strg_bytes += strg_bytes;
        state.order.push(name.to_string());
        drop(state);
        self.recorder.add("ingest.clips", 1);
        self.recorder.add("ingest.frames", frames.len() as u64);
        self.recorder.add("ingest.objects", objects as u64);
        self.recorder.add(&format!("shard.{s}.clips"), 1);

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
    /// A clip-scoped query searches that clip's root in its shard. A
    /// background-matched query runs Algorithm 3 step 2 over every root, in
    /// global ingest order (the last maximum wins), and searches the
    /// matched root if its similarity reaches 0.5; otherwise — and for
    /// every plain query — the fan-out searches every shard and merges.
    /// The search and the resolution of its hits run under one read guard.
    ///
    /// The query's [`QueryCost`] is always recorded into the database's
    /// metrics (under `query.knn.*` / `query.range.*`, with per-shard
    /// `shard.*` rows for a fan-out); it is returned in
    /// [`QueryResult::cost`] iff the query asked via [`Query::with_cost`].
    /// The work fields of the cost are bit-identical at any thread count.
    pub fn query(&self, q: Query<'_>) -> QueryResult {
        let start = std::time::Instant::now();
        // Background extraction happens before the lock, and only when no
        // clip is named: the explicit clip wins over background matching.
        let bg = match (&q.clip, q.background) {
            (None, Some(frames)) => {
                let rags = frames_to_rags(frames, &self.cfg.segment, self.cfg.threads);
                let strg = build_strg(rags, &self.cfg.tracker);
                Some(decompose(&strg, &self.cfg.decompose).background)
            }
            _ => None,
        };
        let state = self.state.read();
        let (tagged, mut cost, shard_costs) = match &q.clip {
            // An unknown name routes to *some* shard and misses there.
            Some(name) => {
                let s = route(name, state.shards.len());
                let shard = &state.shards[s];
                match shard.position(name) {
                    Some(root) => {
                        let (hits, cost) =
                            shard.index.search(q.trajectory, q.kind, Scope::Root(root));
                        (tag(s, hits), cost, Vec::new())
                    }
                    None => (Vec::new(), QueryCost::default(), Vec::new()),
                }
            }
            None => self.global_query(&state, &q, bg),
        };
        let hits = state.resolve(&tagged);
        drop(state);
        cost.elapsed = start.elapsed();
        self.record_fan_out(q.kind, &cost, &shard_costs);
        QueryResult {
            hits,
            cost: q.want_cost.then_some(cost),
        }
    }

    /// A plain or background-matched query over every shard: shard-tagged
    /// hits, the cost, and the fan-out's per-shard costs (none when a
    /// matched root was searched directly).
    fn global_query(
        &self,
        state: &State,
        q: &Query<'_>,
        bg: Option<BackgroundGraph>,
    ) -> (Vec<(usize, Hit)>, QueryCost, Vec<QueryCost>) {
        let idxs: Vec<&Idx> = state.shards.iter().map(|s| &s.index).collect();
        let threads = self.cfg.index.threads;
        let Some(bg) = bg else {
            return sharded_query(&idxs, q.trajectory, q.kind, threads);
        };
        // Algorithm 3 step 2: match the query's Background Graph against
        // every root record in global ingest order, charged as one node
        // access per root.
        let mut best: Option<(usize, usize, f64)> = None;
        for (s, p) in clip_positions(&state.order, idxs.len()) {
            let bg_p = &idxs[s].roots()[p].bg;
            let sim = background_similarity(&bg, bg_p, &self.cfg.tracker.compat);
            if best.is_none_or(|(_, _, b)| sim >= b) {
                best = Some((s, p, sim));
            }
        }
        let mut total = QueryCost {
            node_accesses: idxs.iter().map(|i| i.roots().len() as u64).sum(),
            ..QueryCost::default()
        };
        match best {
            Some((s, root, sim)) if sim >= 0.5 => {
                let (hits, inner) = idxs[s].search(q.trajectory, q.kind, Scope::Root(root as u32));
                total.merge(&inner);
                (tag(s, hits), total, Vec::new())
            }
            _ => {
                let (tagged, inner, shard_costs) =
                    sharded_query(&idxs, q.trajectory, q.kind, threads);
                total.merge(&inner);
                (tagged, total, shard_costs)
            }
        }
    }

    /// Records one query's `query.*` cost and its per-shard
    /// `shard.<s>.query.*` rows.
    fn record_fan_out(&self, kind: QueryKind, cost: &QueryCost, shard_costs: &[QueryCost]) {
        self.recorder.record_cost(kind.metric_prefix(), cost);
        for (s, c) in shard_costs.iter().enumerate() {
            self.recorder.record_cost(&format!("shard.{s}.query"), c);
        }
    }

    /// The stored Object Graph with id `id`, wherever it lives.
    pub fn og(&self, id: u64) -> Option<ObjectGraph> {
        let state = self.state.read();
        state.shards.iter().flat_map(|s| &s.clips).find_map(|c| {
            let i = c.og_ids.iter().position(|&x| x == id)?;
            Some(c.ogs[i].clone())
        })
    }

    /// Removes a clip and everything extracted from it (its root record,
    /// clusters, leaf records and stored OGs). Returns the number of OGs
    /// removed, or `None` if the clip is unknown. The removed ids are never
    /// handed out again.
    pub fn remove_clip(&self, name: &str) -> Option<usize> {
        let mut state = self.state.write();
        let s = route(name, state.shards.len());
        let shard = &mut state.shards[s];
        let pos = shard.position(name)?;
        let removed = shard.index.remove_segment(pos).unwrap_or(0);
        shard.clips.remove(pos as usize);
        if let Some(at) = state.order.iter().position(|c| c == name) {
            state.order.remove(at);
        }
        Some(removed)
    }

    /// Names of all ingested clips, in global ingest order.
    pub fn clip_names(&self) -> Vec<String> {
        self.state.read().order.clone()
    }

    /// Aggregate statistics over every shard (Equations 9 and 10).
    pub fn stats(&self) -> DbStats {
        let mut total = DbStats::default();
        for s in self.shard_stats() {
            total.clips += s.clips;
            total.objects += s.objects;
            total.clusters += s.clusters;
            total.strg_bytes += s.strg_bytes;
            total.index_bytes += s.index_bytes;
        }
        total
    }

    /// Per-shard statistics, in shard order.
    pub fn shard_stats(&self) -> Vec<DbStats> {
        self.state.read().shards.iter().map(Shard::stats).collect()
    }

    /// Read access to shard 0's index — the whole index of a one-shard
    /// database (for experiments).
    pub fn with_index<R>(&self, f: impl FnOnce(&Idx) -> R) -> R {
        f(&self.state.read().shards[0].index)
    }
}

/// Tags one shard's hits with its id.
fn tag(shard: usize, hits: Vec<Hit>) -> Vec<(usize, Hit)> {
    hits.into_iter().map(|h| (shard, h)).collect()
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
    fn shard_count(&self) -> usize {
        VideoDatabase::shard_count(self)
    }
    fn shard_stats(&self) -> Vec<DbStats> {
        VideoDatabase::shard_stats(self)
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

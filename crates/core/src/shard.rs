//! Sharded STRG-Index with bound-ordered fan-out.
//!
//! [`ShardedDatabase`] routes every clip to one of N independent shards by
//! a deterministic hash of the clip name ([`route`]), so the placement is
//! reproducible at any thread count and any ingest interleaving of
//! *distinct* clips. Each shard is a complete [`VideoDatabase`] — its own
//! STRG-Index tree, OG store, and summary sidecars — plus one
//! shard-granularity aggregate envelope
//! ([`strg_distance::SummaryEnvelope`]) maintained by the index itself.
//!
//! # The fan-out protocol
//!
//! A global k-NN visits shards in ascending envelope-lower-bound order,
//! sharing one best-k cutoff:
//!
//! 1. compute `L_s = envelope_bound(query, shard s)` for every shard and
//!    stable-sort shards by `(L_s, s)`;
//! 2. walk shards in that order. A shard is **opened** iff `L_s <= d_k`,
//!    where `d_k` is the kth-best distance merged from previously opened
//!    shards (`∞` while fewer than k hits are known). An opened shard runs
//!    its ordinary [`StrgIndex::search_into`] over [`Scope::All`] and its
//!    hits merge into the shared best list;
//! 3. a shard that cannot beat the cutoff is never opened: it charges all
//!    its records and clusters to `pruned`, bumps
//!    [`strg_obs::QueryCost::shards_pruned`], and performs zero node
//!    accesses. Because the bounds ascend and `d_k` never increases, the
//!    first skip implies every later shard skips too.
//!
//! The decision sequence is a pure function of the per-shard bounds and
//! the per-shard search results, both of which are thread-invariant, so
//! the logical [`strg_obs::QueryCost`] is bit-identical at any
//! `STRG_THREADS`. With more than one worker the fan-out *speculatively*
//! searches every shard in parallel and then replays the open/skip
//! decisions over the precomputed results; speculative work on shards the
//! replay skips is intentionally uncharged. This fan-out is the only place
//! a query speculates — inside a tree the charge is the physical count
//! (`crate::index`, DESIGN.md §7 "What forks inside a query").
//!
//! k-NN and range share one entry point ([`sharded_query_into`]) and one
//! private replay (`Replay::run`), which differs only in where an opened
//! shard's hits come from: a lazy search into the arena (sequential) or
//! the speculative prefetch (parallel). `tests/shard_equivalence.rs` pins the
//! merged hits to a linear scan on queries that provably prune whole
//! shards, so an inadmissible envelope surfaces as a hit-list difference.

use std::cell::RefCell;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use strg_distance::{EgedMetric, LowerBound};
use strg_graph::{background_similarity, build_strg, decompose, ObjectGraph, Point2};
use strg_obs::{QueryCost, Recorder};
use strg_parallel::{par_map, Threads};
use strg_video::{frames_to_rags, Frame};

use crate::index::{reserve_counted, Hit, QueryScratch, Scope, StrgIndex};
use crate::options::{Database, DbOptions};
use crate::persist::{PersistInfo, ReopenMode};
use crate::pipeline::{resolve_hit, DbStats, IngestReport, QueryHit, VideoDatabase};
use crate::query::{Query, QueryKind, QueryResult};

type Idx = StrgIndex<Point2, EgedMetric<Point2>>;

/// The shard a clip named `name` lives in, out of `shards` (FNV-1a 64).
///
/// Pure function of the name: reproducible across processes, thread
/// counts, and ingest order.
pub fn route(name: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards.max(1) as u64) as usize
}

/// What the fan-out decided for one shard (indexed by shard id).
#[derive(Clone, Debug)]
pub struct ShardOutcome {
    /// Was the shard opened (searched) or pruned whole?
    pub opened: bool,
    /// The shard's envelope lower bound for this query.
    pub bound: f64,
    /// This shard's logical charge: its search cost if opened, its full
    /// `pruned` + `shards_pruned` charge if skipped.
    pub cost: QueryCost,
}

/// A shard with its envelope bound, in visit (ascending-bound) order.
#[derive(Copy, Clone)]
struct ShardPlan {
    shard: usize,
    bound: f64,
}

/// Full charge for skipping a shard whole: every record and cluster is
/// pruned (keeping the conservation law), zero node accesses.
fn prune_charge(idx: &Idx) -> QueryCost {
    QueryCost {
        pruned: (idx.len() + idx.cluster_count()) as u64,
        shards_pruned: 1,
        ..QueryCost::default()
    }
}

/// Inserts `hits` (sorted ascending) into the merged best list, keeping it
/// sorted by distance with earlier-merged equal-distance hits first,
/// truncated to `k`. Inserting a shard's own sorted list into an empty
/// best list reproduces it exactly, so a one-shard database returns
/// byte-identical hits to the plain single tree. Truncating after every
/// insert (instead of once at the end) keeps the list within its reserved
/// `k + 1` capacity, so a warmed-up arena never reallocates here; the
/// surviving set is the same because each shard's hits arrive ascending.
fn merge_hits(best: &mut Vec<(usize, Hit)>, shard: usize, hits: &[Hit], k: usize) {
    for &h in hits {
        let pos = best.partition_point(|(_, e)| e.dist <= h.dist);
        best.insert(pos, (shard, h));
        best.truncate(k);
    }
}

/// The buffers of one fan-out replay: visit plan, merged result list and
/// its sort permutation.
#[derive(Default)]
struct Replay {
    plans: Vec<ShardPlan>,
    /// Merged result list (best-k for knn, every in-radius hit for range).
    merged: Vec<(usize, Hit)>,
    merged_tmp: Vec<(usize, Hit)>,
    order: Vec<u32>,
    grows: u64,
}

impl Replay {
    const fn empty() -> Self {
        Self {
            plans: Vec::new(),
            merged: Vec::new(),
            merged_tmp: Vec::new(),
            order: Vec::new(),
            grows: 0,
        }
    }

    /// The fan-out protocol of the module docs, for every caller: walk the
    /// shards in ascending `(bound, shard)` order and open one iff its
    /// bound is within the cutoff — the merged `d_k` for k-NN, the radius
    /// for range. `fetch(shard, sink)` supplies an opened shard's search —
    /// it hands the shard's ascending hits to `sink` and returns the
    /// search's cost — and is never called for a skipped shard, so a lazy
    /// `fetch` does no physical work there. Leaves the merged hits in
    /// `self.merged`, appends one [`ShardOutcome`] per shard (shard-id
    /// order) to `outcomes`, and returns the total logical cost.
    fn run(
        &mut self,
        idxs: &[&Idx],
        query: &[Point2],
        kind: QueryKind,
        outcomes: &mut Vec<ShardOutcome>,
        mut fetch: impl FnMut(usize, &mut dyn FnMut(&[Hit])) -> QueryCost,
    ) -> QueryCost {
        let Self {
            plans,
            merged,
            merged_tmp,
            order,
            grows,
        } = self;
        plans.clear();
        reserve_counted(plans, idxs.len(), grows);
        for (shard, idx) in idxs.iter().enumerate() {
            let m = idx.metric();
            let qs = m.summarize(query);
            plans.push(ShardPlan {
                shard,
                bound: m.envelope_bound(query, &qs, idx.envelope()),
            });
        }
        // Unstable sort with the shard id as a total tie-break: pushes are
        // in ascending shard order, so this is the stable by-bound order
        // (equal bounds visit in shard order) without the stable sort's
        // buffer.
        plans.sort_unstable_by(|a, b| a.bound.total_cmp(&b.bound).then(a.shard.cmp(&b.shard)));

        let total_len: usize = idxs.iter().map(|i| i.len()).sum();
        merged.clear();
        let room = match kind {
            QueryKind::Knn(k) => k.min(total_len) + 1,
            QueryKind::Range(_) => total_len,
        };
        reserve_counted(merged, room, grows);
        let base = outcomes.len();
        reserve_counted(outcomes, base + idxs.len(), grows);
        outcomes.resize(
            base + idxs.len(),
            ShardOutcome {
                opened: false,
                bound: f64::NAN,
                cost: QueryCost::default(),
            },
        );
        let mut total = QueryCost::default();
        for p in plans.iter() {
            let cutoff = match kind {
                QueryKind::Knn(k) if k > 0 && merged.len() >= k => merged[k - 1].1.dist,
                QueryKind::Knn(_) => f64::INFINITY,
                QueryKind::Range(radius) => radius,
            };
            // A single shard is always opened: the fan-out adds nothing and
            // `shards(1)` stays bit-identical to the plain single tree.
            // Bounds ascend and `d_k` never increases, so after the first
            // k-NN skip every later shard skips too.
            let opened = p.bound <= cutoff || idxs.len() == 1;
            let cost = if opened {
                fetch(p.shard, &mut |hits| match kind {
                    QueryKind::Knn(k) => merge_hits(merged, p.shard, hits, k),
                    QueryKind::Range(_) => merged.extend(hits.iter().map(|&h| (p.shard, h))),
                })
            } else {
                prune_charge(idxs[p.shard])
            };
            total.merge(&cost);
            outcomes[base + p.shard] = ShardOutcome {
                opened,
                bound: p.bound,
                cost,
            };
        }
        if let QueryKind::Range(_) = kind {
            // The single tree's contract is "stable by shard id, then
            // stable by distance". Entries were appended in bound order,
            // but any two entries of the same shard were appended
            // contiguously in the shard's own hit order, so an unstable
            // index sort keyed (distance, shard id, append position)
            // reproduces that double stable sort without its buffers.
            order.clear();
            reserve_counted(order, merged.len(), grows);
            order.extend(0..merged.len() as u32);
            order.sort_unstable_by(|&i, &j| {
                let (sa, ha) = &merged[i as usize];
                let (sb, hb) = &merged[j as usize];
                ha.dist.total_cmp(&hb.dist).then(sa.cmp(sb)).then(i.cmp(&j))
            });
            merged_tmp.clear();
            reserve_counted(merged_tmp, merged.len(), grows);
            merged_tmp.extend(order.iter().map(|&i| merged[i as usize]));
            std::mem::swap(merged, merged_tmp);
        }
        total
    }
}

/// Reusable fan-out arena: the per-tree [`QueryScratch`] plus every buffer
/// the shard-level protocol needs (visit plan, merged result list, sort
/// permutation, outcomes). A warmed-up arena makes a sequential fan-out
/// allocation-free end to end (`tests/query_alloc.rs`); the long-lived
/// workers of the serve pool each converge on their own via
/// [`with_shard_scratch`].
#[derive(Default)]
pub struct ShardScratch {
    tree: QueryScratch,
    replay: Replay,
    outcomes: Vec<ShardOutcome>,
}

impl ShardScratch {
    /// An empty arena (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    const fn empty() -> Self {
        Self {
            tree: QueryScratch::empty(),
            replay: Replay::empty(),
            outcomes: Vec::new(),
        }
    }

    /// The shard-tagged hits of the last `*_into` fan-out, ascending by
    /// distance.
    pub fn hits(&self) -> &[(usize, Hit)] {
        &self.replay.merged
    }

    /// Per-shard outcomes of the last `*_into` fan-out, in shard-id order.
    pub fn outcomes(&self) -> &[ShardOutcome] {
        &self.outcomes
    }

    /// Number of buffer growth events since construction — stops moving
    /// once the arena reaches its high-water mark.
    pub fn grow_events(&self) -> u64 {
        self.replay.grows + self.tree.grow_events()
    }
}

thread_local! {
    static SHARD_SCRATCH: RefCell<ShardScratch> = const { RefCell::new(ShardScratch::empty()) };
}

/// Runs `f` with this thread's fan-out arena; reentrant calls fall back to
/// a fresh local arena.
pub fn with_shard_scratch<R>(f: impl FnOnce(&mut ShardScratch) -> R) -> R {
    SHARD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => f(&mut s),
        Err(_) => f(&mut ShardScratch::empty()),
    })
}

/// Bound-ordered fan-out of one k-NN or range query over independent shard
/// indexes (the protocol in the module docs). Public for experiments and
/// benchmarks; [`ShardedDatabase::query`] is the production entry point.
///
/// Returns the merged hits (shard-tagged, ascending by distance: the best
/// `k`, or everything within the radius), the total logical cost, and the
/// per-shard outcomes in shard-id order.
pub fn sharded_query(
    idxs: &[&Idx],
    query: &[Point2],
    kind: QueryKind,
    threads: Threads,
) -> (Vec<(usize, Hit)>, QueryCost, Vec<ShardOutcome>) {
    with_shard_scratch(|scratch| {
        let cost = sharded_query_into(idxs, query, kind, threads, scratch);
        (scratch.hits().to_vec(), cost, scratch.outcomes().to_vec())
    })
}

/// [`sharded_query`] into a caller-owned arena: the merged hits land in
/// [`ShardScratch::hits`], the per-shard outcomes in
/// [`ShardScratch::outcomes`]; returns the total logical cost.
/// Sequentially each opened shard is searched lazily, straight into the
/// arena's tree scratch — skipped shards cost nothing and a warmed-up arena
/// allocates nothing. With more than one worker every shard is searched
/// speculatively in parallel (allocating) and the replay consumes the
/// precomputed results.
pub fn sharded_query_into(
    idxs: &[&Idx],
    query: &[Point2],
    kind: QueryKind,
    threads: Threads,
    scratch: &mut ShardScratch,
) -> QueryCost {
    let ShardScratch {
        tree,
        replay,
        outcomes,
    } = scratch;
    outcomes.clear();
    let threads = Threads::Fixed(threads.resolve());
    if !threads.is_sequential() {
        let prefetched = par_map(idxs, threads, |idx| {
            let mut tree = QueryScratch::new();
            let (hits, cost) = idx.search_into(query, kind, Scope::All, &mut tree);
            (hits.to_vec(), cost)
        });
        replay.run(idxs, query, kind, outcomes, |s, sink| {
            sink(&prefetched[s].0);
            prefetched[s].1
        })
    } else {
        replay.run(idxs, query, kind, outcomes, |s, sink| {
            let (hits, cost) = idxs[s].search_into(query, kind, Scope::All, tree);
            sink(hits);
            cost
        })
    }
}

/// N independent STRG-Index shards behind deterministic hash-of-name
/// routing, answering global queries with the bound-ordered fan-out
/// described in the module docs.
///
/// OG ids come from one shared allocator claimed under the owning shard's
/// store lock, so ids are assigned in global ingest order and hit lists
/// are identical at any shard count.
pub struct ShardedDatabase {
    opts: DbOptions,
    shards: Vec<VideoDatabase>,
    alloc: Arc<AtomicU64>,
    recorder: Recorder,
    /// Clip names in global ingest order (each clip's shard is `route` of
    /// its name). Background matching scans roots in this order so ties
    /// resolve exactly as the single tree's root-order scan does.
    order: RwLock<Vec<String>>,
}

impl ShardedDatabase {
    /// Creates an empty sharded database with `opts.shards` shards
    /// (clamped to ≥ 1). All shards share one metric [`Recorder`] and one
    /// OG id allocator.
    pub fn new(mut opts: DbOptions) -> Self {
        opts.shards = opts.shards.max(1);
        let recorder = Recorder::new();
        let alloc = Arc::new(AtomicU64::new(0));
        let shards = (0..opts.shards)
            .map(|_| VideoDatabase::new_internal(opts, recorder.clone(), Some(alloc.clone())))
            .collect();
        recorder.add("shard.count", opts.shards as u64);
        Self {
            opts,
            shards,
            alloc,
            recorder,
            order: RwLock::new(Vec::new()),
        }
    }

    /// The options the database was built with (`shards` reflects the
    /// actual shard count).
    pub fn options(&self) -> &DbOptions {
        &self.opts
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Aggregate persistence provenance: the *oldest* shard-file format
    /// across shards, and [`ReopenMode::Fast`] if any shard was loaded.
    pub fn persist_info(&self) -> PersistInfo {
        let mut info = PersistInfo::fresh();
        for s in &self.shards {
            let p = s.persist_info();
            info.loaded_format = match (info.loaded_format, p.loaded_format) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            if p.reopen == ReopenMode::Fast {
                info.reopen = ReopenMode::Fast;
            }
        }
        info
    }

    /// The database's metric recorder (shared by every shard).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Per-shard statistics, in shard order.
    pub fn shard_stats(&self) -> Vec<DbStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// Aggregate statistics over every shard.
    pub fn stats(&self) -> DbStats {
        let mut total = DbStats::default();
        for s in self.shards.iter().map(|s| s.stats()) {
            total.clips += s.clips;
            total.objects += s.objects;
            total.clusters += s.clusters;
            total.strg_bytes += s.strg_bytes;
            total.index_bytes += s.index_bytes;
        }
        total
    }

    /// Ingests a sequence of frames as one clip, routed to its shard.
    pub fn ingest_frames(&self, name: &str, frames: &[Frame]) -> IngestReport {
        let s = route(name, self.shards.len());
        let report = self.shards[s].ingest_frames(name, frames);
        self.order.write().push(name.to_string());
        self.recorder.add(&format!("shard.{s}.clips"), 1);
        report
    }

    /// Names of all ingested clips, in global ingest order.
    pub fn clip_names(&self) -> Vec<String> {
        self.order.read().clone()
    }

    /// The stored Object Graph with id `id`, wherever it lives.
    pub fn og(&self, id: u64) -> Option<ObjectGraph> {
        self.shards.iter().find_map(|s| s.og(id))
    }

    /// Removes a clip from its shard. Returns the number of OGs removed,
    /// or `None` if the clip is unknown.
    pub fn remove_clip(&self, name: &str) -> Option<usize> {
        let s = route(name, self.shards.len());
        let removed = self.shards[s].remove_clip(name)?;
        let mut order = self.order.write();
        if let Some(pos) = order.iter().position(|c| c == name) {
            order.remove(pos);
        }
        Some(removed)
    }

    /// Executes a [`Query`]: clip-scoped queries delegate to the owning
    /// shard; global and background-matched queries run the bound-ordered
    /// fan-out. Costs are recorded under `query.knn.*` / `query.range.*`
    /// with per-shard rows under `shard.<i>.query.*`.
    pub fn query(&self, q: Query<'_>) -> QueryResult {
        if let Some(name) = &q.clip {
            // The clip lives wholly inside one shard; delegating gives
            // byte-identical hits and costs to the single tree (including
            // the unknown-name miss, which routes to *some* shard and
            // misses there).
            let s = route(name, self.shards.len());
            return self.shards[s].query(q);
        }
        let start = std::time::Instant::now();
        // Background extraction happens before any index lock, as in the
        // single tree.
        let bg = q.background.map(|frames| {
            let rags = frames_to_rags(frames, &self.opts.segment, self.opts.threads);
            let strg = build_strg(rags, &self.opts.tracker);
            decompose(&strg, &self.opts.decompose).background
        });
        // Root ids in global ingest order, gathered before the index
        // locks (lock order: clips before index, per shard).
        let scan_roots: Vec<(usize, u32)> = if bg.is_some() {
            let order = self.order.read();
            order
                .iter()
                .filter_map(|name| {
                    let s = route(name, self.shards.len());
                    let clips = self.shards[s].clips.read();
                    clips
                        .iter()
                        .find(|c| c.name == *name)
                        .map(|c| (s, c.root_id))
                })
                .collect()
        } else {
            Vec::new()
        };

        // Index read locks are taken in shard order; every writer touches
        // a single shard, so the cross-shard read set cannot deadlock.
        let guards: Vec<_> = self.shards.iter().map(|s| s.index.read()).collect();
        let idxs: Vec<&Idx> = guards.iter().map(|g| &**g).collect();
        let threads = self.opts.index.threads;

        let (tagged, mut cost, outcomes) = match &bg {
            None => sharded_query(&idxs, q.trajectory, q.kind, threads),
            Some(bg) => {
                // Algorithm 3's background match over every shard's
                // roots, in global ingest order so similarity ties pick
                // the same segment the single tree's scan does (the last
                // maximum wins, as in `StrgIndex::match_root`).
                let total_roots: u64 = idxs.iter().map(|i| i.roots().len() as u64).sum();
                let mut best: Option<(usize, u32, f64)> = None;
                for &(s, root_id) in &scan_roots {
                    if let Some(r) = idxs[s].roots().iter().find(|r| r.id == root_id) {
                        let sim = background_similarity(bg, &r.bg, &self.opts.tracker.compat);
                        if best.is_none_or(|(_, _, b)| sim >= b) {
                            best = Some((s, root_id, sim));
                        }
                    }
                }
                let mut total = QueryCost {
                    node_accesses: total_roots,
                    ..QueryCost::default()
                };
                match best {
                    Some((s, root, sim)) if sim >= 0.5 => {
                        let (hits, inner) = idxs[s].search(q.trajectory, q.kind, Scope::Root(root));
                        total.merge(&inner);
                        let tagged = hits.into_iter().map(|h| (s, h)).collect();
                        (tagged, total, Vec::new())
                    }
                    _ => {
                        let (tagged, inner, outcomes) =
                            sharded_query(&idxs, q.trajectory, q.kind, threads);
                        total.merge(&inner);
                        (tagged, total, outcomes)
                    }
                }
            }
        };
        drop(guards);

        let hits = self.resolve_tagged(&tagged);
        cost.elapsed = start.elapsed();
        self.record_fan_out(q.kind, &cost, &outcomes);
        QueryResult {
            hits,
            cost: q.want_cost.then_some(cost),
        }
    }

    /// Records one global query's `query.*` cost and per-shard
    /// `shard.*` open/skip rows.
    fn record_fan_out(&self, kind: QueryKind, cost: &QueryCost, outcomes: &[ShardOutcome]) {
        self.recorder.record_cost(kind.metric_prefix(), cost);
        for (s, o) in outcomes.iter().enumerate() {
            if o.opened {
                self.recorder.add("shard.opened", 1);
                self.recorder
                    .record_cost(&format!("shard.{s}.query"), &o.cost);
            } else {
                self.recorder.add("shard.pruned_whole", 1);
                self.recorder.add(&format!("shard.{s}.pruned_whole"), 1);
            }
        }
    }

    /// Resolves shard-tagged hits to clip provenance in their merged order,
    /// taking each contributing shard's store guards once (lock order
    /// `ogs → clips`). Shards with no hit in the answer are not locked, so
    /// an ingest there cannot stall this query.
    fn resolve_tagged(&self, tagged: &[(usize, Hit)]) -> Vec<QueryHit> {
        let mut resolved: Vec<Option<QueryHit>> = vec![None; tagged.len()];
        for (s, shard) in self.shards.iter().enumerate() {
            if tagged.iter().all(|(t, _)| *t != s) {
                continue;
            }
            let ogs = shard.ogs.read();
            let clips = shard.clips.read();
            for ((t, h), slot) in tagged.iter().zip(&mut resolved) {
                if *t == s {
                    *slot = resolve_hit(&ogs, &clips, h);
                }
            }
        }
        resolved.into_iter().flatten().collect()
    }

    /// Serializes the database to the directory `dir`: one `MANIFEST`
    /// (shard count, next OG id, global clip order) plus one ordinary
    /// STRGDB v2 segment file per shard.
    ///
    /// The manifest holds one clip name per line, so a name containing a
    /// line break fails with [`io::ErrorKind::InvalidInput`] before anything
    /// is written: `dir` keeps whatever loadable state it had.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        let mut manifest = String::from("STRG-SHARDS v2\n");
        manifest.push_str(&format!("shards {}\n", self.shards.len()));
        manifest.push_str(&format!("next_og {}\n", self.alloc.load(Ordering::SeqCst)));
        for name in self.order.read().iter() {
            if name.contains(['\n', '\r']) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "clip name {name:?} contains a line break: the manifest cannot hold it"
                    ),
                ));
            }
            manifest.push_str(&format!("clip {name}\n"));
        }
        fs::create_dir_all(dir)?;
        fs::write(dir.join("MANIFEST"), manifest)?;
        for (i, shard) in self.shards.iter().enumerate() {
            shard.save(dir.join(format!("shard-{i:03}.strgdb")))?;
        }
        Ok(())
    }

    /// Loads a database saved by [`ShardedDatabase::save`]. The manifest's
    /// shard count wins over `opts.shards` (clips are already routed).
    pub fn load(dir: &Path, mut opts: DbOptions) -> io::Result<Self> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let manifest = fs::read_to_string(dir.join("MANIFEST"))?;
        let mut lines = manifest.lines();
        if lines.next() != Some("STRG-SHARDS v2") {
            return Err(bad("not a STRG-SHARDS v2 manifest"));
        }
        let mut shards_n = 0usize;
        let mut next_og = 0u64;
        let mut order = Vec::new();
        for line in lines {
            if let Some(rest) = line.strip_prefix("shards ") {
                shards_n = rest.parse().map_err(|_| bad("bad shard count"))?;
            } else if let Some(rest) = line.strip_prefix("next_og ") {
                next_og = rest.parse().map_err(|_| bad("bad next_og"))?;
            } else if let Some(name) = line.strip_prefix("clip ") {
                order.push(name.to_string());
            } else if !line.trim().is_empty() {
                return Err(bad("unrecognized manifest line"));
            }
        }
        if shards_n == 0 {
            return Err(bad("manifest declares zero shards"));
        }
        opts.shards = shards_n;
        let recorder = Recorder::new();
        let alloc = Arc::new(AtomicU64::new(0));
        let mut shards = Vec::with_capacity(shards_n);
        for i in 0..shards_n {
            let db = VideoDatabase::new_internal(opts, recorder.clone(), Some(alloc.clone()));
            let db = VideoDatabase::load_into(db, &dir.join(format!("shard-{i:03}.strgdb")))?;
            shards.push(db);
        }
        // Never hand out an id that is already stored, even against a
        // stale manifest.
        let max_stored = shards
            .iter()
            .filter_map(|s| s.ogs.read().last().map(|o| o.id + 1))
            .max()
            .unwrap_or(0);
        alloc.store(next_og.max(max_stored), Ordering::SeqCst);
        recorder.add("shard.count", shards_n as u64);
        Ok(Self {
            opts,
            shards,
            alloc,
            recorder,
            order: RwLock::new(order),
        })
    }
}

impl Database for ShardedDatabase {
    fn ingest_frames(&self, name: &str, frames: &[Frame]) -> IngestReport {
        ShardedDatabase::ingest_frames(self, name, frames)
    }
    fn query(&self, q: Query<'_>) -> QueryResult {
        ShardedDatabase::query(self, q)
    }
    fn stats(&self) -> DbStats {
        ShardedDatabase::stats(self)
    }
    fn shard_count(&self) -> usize {
        ShardedDatabase::shard_count(self)
    }
    fn shard_stats(&self) -> Vec<DbStats> {
        ShardedDatabase::shard_stats(self)
    }
    fn clip_names(&self) -> Vec<String> {
        ShardedDatabase::clip_names(self)
    }
    fn og(&self, id: u64) -> Option<ObjectGraph> {
        ShardedDatabase::og(self, id)
    }
    fn remove_clip(&self, name: &str) -> Option<usize> {
        ShardedDatabase::remove_clip(self, name)
    }
    fn recorder(&self) -> &Recorder {
        ShardedDatabase::recorder(self)
    }
    fn persist_info(&self) -> PersistInfo {
        ShardedDatabase::persist_info(self)
    }
    fn save(&self, path: &Path) -> io::Result<()> {
        ShardedDatabase::save(self, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_spreads() {
        let a = route("lobby-cam", 4);
        for _ in 0..8 {
            assert_eq!(route("lobby-cam", 4), a);
        }
        // FNV-1a spreads short names across 4 shards reasonably: at least
        // two distinct shards among ten names.
        let names = [
            "a", "b", "c", "d", "cam-1", "cam-2", "cam-3", "lobby", "dock", "yard",
        ];
        let mut seen: Vec<usize> = names.iter().map(|n| route(n, 4)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() >= 2, "routing collapsed to one shard: {seen:?}");
        assert!(seen.iter().all(|&s| s < 4));
    }

    #[test]
    fn route_handles_zero_shards() {
        assert_eq!(route("x", 0), 0);
        assert_eq!(route("x", 1), 0);
    }

    #[test]
    fn empty_sharded_database_answers_empty() {
        let db = ShardedDatabase::new(DbOptions::new().shards(3));
        assert_eq!(db.shard_count(), 3);
        let t = [Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)];
        let r = db.query(Query::knn(5).trajectory(&t).with_cost());
        assert!(r.hits.is_empty());
        let cost = r.cost.unwrap();
        // Empty shards have empty (infinite-bound) envelopes; with no
        // hits the cutoff stays infinite, so every shard is opened and
        // does zero work. Conservation holds trivially.
        assert_eq!(cost.distance_calls + cost.pruned + cost.lb_pruned, 0);
        assert_eq!(db.stats().objects, 0);
    }
}

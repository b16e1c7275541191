//! The inputs: the fixed clip corpus, the fixed synthetic trajectory set,
//! and the seeded request streams drawn against them.
//!
//! The two data sets are the benchmark's *definition* and never change:
//! object counts, file sizes and pruning behaviour depend on which clips
//! are stored, and a corpus redrawn per seed moved every count by ±10 %,
//! which would drown any change to the program. `--seed` draws what a
//! client varies from run to run — the query trajectories, their `k`
//! mix, and which of them get checked against the brute-force scan.

use std::sync::Arc;

use strg::core::shard::ShardedDatabase;
use strg::prelude::*;
use strg::serve::wire::{self, QuerySpec};
use strg::synth::{generate_total, SynthConfig};

use crate::env::{DB_THREADS, LIB_INDEX_THREADS, SHARDS};
use crate::rng::Rng;

/// Seed of the two fixed data sets (the paper's SIGMOD 2005 opening day,
/// the default `--seed` too).
pub const CORPUS_SEED: u64 = 20050614;
pub const FRAME_W: f64 = 160.0;
pub const FRAME_H: f64 = 120.0;
pub const CLIP_FRAMES: usize = 24;
pub const CLIP_ACTORS: usize = 4;

/// Sizes of one run. `full` is what `BENCHMARK.json` measures; `smoke`
/// runs the same code on a corpus small enough for a CI leg.
#[derive(Clone, Debug)]
pub struct Scale {
    pub smoke: bool,
    /// Clips in the shared corpus (one root each).
    pub clips: usize,
    /// Trajectories / clusters of the `lib_index` data set.
    pub lib_objects: usize,
    pub lib_k: usize,
    pub lib_em_iters: usize,
    /// Held-out `lib_index` queries. More than `stream`: query cost there
    /// depends on the pattern a query falls in, and with few queries the
    /// median moved by a quarter from seed to seed.
    pub lib_queries: usize,
    /// Distinct queries per request stream.
    pub stream: usize,
    /// Operations per client discarded before timing.
    pub warmup: usize,
    /// Queries per workload compared with the brute-force scan.
    pub checked: usize,
    /// Operations per type replayed under tracing.
    pub trace_ops: usize,
    /// Ingest replays under tracing (each costs a render + segment).
    pub trace_ingests: usize,
    /// `serve_mixed`: clips the writer ingests. A fixed count, so every
    /// run ends on the same database whatever `--seconds` says; sized to
    /// keep the writer busy for about `RUN_SECONDS` at ~85 ms per ingest.
    pub ingests: usize,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            smoke: false,
            clips: 150,
            lib_objects: 600,
            lib_k: 48,
            lib_em_iters: 10,
            lib_queries: 400,
            stream: 150,
            warmup: 20,
            checked: 32,
            trace_ops: 100,
            trace_ingests: 24,
            ingests: 120,
        }
    }

    pub fn smoke() -> Self {
        Scale {
            smoke: true,
            clips: 12,
            lib_objects: 96,
            lib_k: 16,
            lib_em_iters: 3,
            lib_queries: 24,
            stream: 24,
            warmup: 3,
            checked: 8,
            trace_ops: 8,
            trace_ingests: 2,
            ingests: 6,
        }
    }
}

pub fn db_options() -> DbOptions {
    DbOptions::new().threads(Threads::Fixed(DB_THREADS))
}

/// Clip `i` of the corpus: alternating `lab` / `traffic`, 4 actors, 24
/// frames, clip seed `CORPUS_SEED + i` — many small roots, the shape a
/// deployment fed by cameras has.
pub fn corpus_clip(i: usize) -> (VideoClip, u64) {
    clip_named(&format!("clip-{i:04}"), i)
}

/// A clip with the corpus parameters under another name (`serve_mixed`
/// ingests clips `corpus.len()..` this way).
pub fn clip_named(name: &str, i: usize) -> (VideoClip, u64) {
    let seed = CORPUS_SEED + i as u64;
    let clip = wire::make_clip(scene_of(i), name, CLIP_ACTORS, CLIP_FRAMES, seed)
        .expect("lab and traffic are known scenes");
    (clip, seed)
}

pub fn scene_of(i: usize) -> &'static str {
    if i.is_multiple_of(2) {
        "lab"
    } else {
        "traffic"
    }
}

/// Renders and ingests the corpus into `db`, exactly as `strg-serve`'s
/// `ingest` verb does per clip; `between_clips` runs before each clip
/// (the host-speed probe of a timed set-up).
pub fn ingest_corpus(db: &dyn Database, clips: usize, between_clips: &mut dyn FnMut()) {
    for i in 0..clips {
        between_clips();
        let (clip, seed) = corpus_clip(i);
        db.ingest_clip(&clip, seed);
    }
}

pub fn build_single(clips: usize, between_clips: &mut dyn FnMut()) -> Arc<VideoDatabase> {
    let db = VideoDatabase::new(db_options());
    ingest_corpus(&db, clips, between_clips);
    Arc::new(db)
}

pub fn build_sharded(clips: usize, between_clips: &mut dyn FnMut()) -> Arc<ShardedDatabase> {
    let db = ShardedDatabase::new(db_options().shards(SHARDS));
    ingest_corpus(&db, clips, between_clips);
    Arc::new(db)
}

/// Every stored trajectory of a database, by OG id. Ids are dense from 0
/// because nothing is ever removed here.
pub fn stored_series(db: &dyn Database) -> Vec<(u64, Vec<Point2>)> {
    let want = db.stats().objects;
    let mut out = Vec::with_capacity(want);
    let mut id = 0u64;
    // A gap would mean ids are no longer dense; stop rather than spin.
    let mut misses = 0;
    while out.len() < want && misses < 1024 {
        match db.og(id) {
            Some(og) => {
                out.push((id, og.centroid_series()));
                misses = 0;
            }
            None => misses += 1,
        }
        id += 1;
    }
    out
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// `n` all-scope k-NN specs: seeded random `from`/`to` in the frame,
/// `steps: 30`, `k` cycling through `ks`. Coordinates are rounded to
/// three decimals so the wire text and the in-process value are the same
/// `f64`.
pub fn knn_specs(rng: &mut Rng, n: usize, ks: &[usize]) -> Vec<QuerySpec> {
    (0..n)
        .map(|i| QuerySpec {
            from: Point2::new(round3(rng.unit() * FRAME_W), round3(rng.unit() * FRAME_H)),
            to: Point2::new(round3(rng.unit() * FRAME_W), round3(rng.unit() * FRAME_H)),
            steps: 30,
            radius: None,
            k: ks[i % ks.len()],
            clip: None,
        })
        .collect()
}

/// The request line `strg-serve` receives for a spec.
pub fn query_line(id: u64, s: &QuerySpec) -> String {
    let shape = match s.radius {
        Some(r) => format!("\"radius\":{r}"),
        None => format!("\"k\":{}", s.k),
    };
    format!(
        "{{\"id\":{id},\"method\":\"query\",\"params\":{{\"from\":\"{},{}\",\"to\":\"{},{}\",\
         \"steps\":{},{shape}}}}}",
        s.from.x, s.from.y, s.to.x, s.to.y, s.steps
    )
}

/// One request line per spec, the list position as request id.
pub fn query_lines(specs: &[QuerySpec]) -> Vec<String> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| query_line(i as u64, s))
        .collect()
}

pub fn ingest_line(id: u64, name: &str, i: usize) -> String {
    format!(
        "{{\"id\":{id},\"method\":\"ingest\",\"params\":{{\"name\":\"{name}\",\"scene\":\"{}\",\
         \"actors\":{CLIP_ACTORS},\"frames\":{CLIP_FRAMES},\"seed\":{}}}}}",
        scene_of(i),
        CORPUS_SEED + i as u64
    )
}

pub type LibIndex = StrgIndex<Point2, EgedMetric<Point2>>;

/// The `lib_index` data: `n` `strg-synth` trajectories over the paper's
/// 48 patterns, outlier noise 0.10.
pub fn lib_items(n: usize) -> Vec<(u64, Vec<Point2>)> {
    generate_total(n, &SynthConfig::with_noise(0.10), CORPUS_SEED + 1)
        .series()
        .into_iter()
        .enumerate()
        .map(|(i, s)| (i as u64, s))
        .collect()
}

/// Held-out queries for `lib_index`, drawn from the same generator.
pub fn lib_queries(seed: u64, n: usize) -> Vec<Vec<Point2>> {
    generate_total(n, &SynthConfig::with_noise(0.10), seed ^ 0x5EED_0F0D).series()
}

/// The paper-shaped index configuration: fixed `K`, one EM start. The
/// data set is fixed, so the fit takes the same iterations in every run.
pub fn lib_index_config(scale: &Scale) -> StrgIndexConfig {
    let mut cfg =
        StrgIndexConfig::with_k(scale.lib_k).with_threads(Threads::Fixed(LIB_INDEX_THREADS));
    cfg.seed = CORPUS_SEED;
    cfg.em_max_iters = scale.lib_em_iters;
    cfg.em_n_init = 1;
    cfg
}

/// All objects in **one** root (Fig 7's shape). Returns the index and the
/// seconds `add_segment` took.
pub fn build_lib_index(scale: &Scale, items: Vec<(u64, Vec<Point2>)>) -> (LibIndex, f64) {
    let mut idx = StrgIndex::new(EgedMetric::<Point2>::new(), lib_index_config(scale));
    let t = std::time::Instant::now();
    idx.add_segment(BackgroundGraph::default(), items);
    let secs = t.elapsed().as_secs_f64();
    (idx, secs)
}

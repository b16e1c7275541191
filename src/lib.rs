//! # strg — STRG-Index for large video databases
//!
//! A from-scratch Rust reproduction of *STRG-Index: Spatio-Temporal Region
//! Graph Indexing for Large Video Databases* (Lee, Oh & Hwang, SIGMOD
//! 2005). This facade crate re-exports the whole workspace:
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`graph`] | §2 | RAG, STRG, neighborhood stars (one matcher for isomorphism and `SimGraph`), tracking, ORG/OG/BG decomposition |
//! | [`video`] | §2.1 / §6.4 | synthetic camera + EDISON-stand-in segmentation |
//! | [`distance`] | §3 | EGED (non-metric + metric), DTW, LCS, call counting |
//! | [`cluster`] | §4 | EM / K-Means / K-Harmonic-Means, BIC model selection |
//! | [`mtree`] | §6.3 | the M-tree baseline (MT-RA / MT-SA) |
//! | [`obs`] | §6.3 cost model | lock-free metrics: counters, histograms, spans, `QueryCost` |
//! | [`parallel`] | — | deterministic fork/join helpers (`par_map`, the `STRG_THREADS` knob) |
//! | [`rtree`] | §1 | the 3DR-tree baseline (time as a third R-tree dimension) |
//! | [`synth`] | §6.1 | the 48-pattern synthetic trajectory workload |
//! | [`core`] | §5 | the STRG-Index tree and [`prelude::VideoDatabase`], one struct over N ≥ 1 tree shards |
//! | [`serve`] | — | the concurrent k-NN query server (newline-delimited JSON over TCP) |
//!
//! ## Quickstart
//!
//! ```
//! use strg::prelude::*;
//!
//! // Build a tiny synthetic surveillance clip and index it.
//! let db = VideoDatabase::new(DbOptions::new());
//! let clip = VideoClip {
//!     name: "demo".into(),
//!     scene: lab_scene(&ScenarioConfig { n_actors: 2, frames: 40, seed: 7, ..Default::default() }),
//!     fps: 30.0,
//! };
//! let report = db.ingest_clip(&clip, 1);
//! assert!(report.objects >= 1);
//!
//! // Query by trajectory: the stored object finds itself.
//! let og = db.og(0).unwrap();
//! let result = db.query(Query::knn(1).trajectory(&og.centroid_series()).with_cost());
//! assert_eq!(result.hits[0].og_id, 0);
//! assert!(result.cost.unwrap().distance_calls >= 1);
//! ```

#![forbid(unsafe_code)]

pub use strg_cluster as cluster;
pub use strg_core as core;
pub use strg_distance as distance;
pub use strg_graph as graph;
pub use strg_mtree as mtree;
pub use strg_obs as obs;
pub use strg_parallel as parallel;
pub use strg_rtree as rtree;
pub use strg_serve as serve;
pub use strg_synth as synth;
pub use strg_video as video;

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use strg_cluster::{
        bic_sweep, clustering_error_rate, Clusterer, Clustering, EmClusterer, EmConfig, HardConfig,
        KHarmonicMeans, KMeans,
    };
    pub use strg_core::{
        open, Database, DbOptions, Hit, IngestReport, PersistInfo, Query, QueryCost, QueryHit,
        QueryKind, QueryResult, Recorder, ReopenMode, Scope, ShardedDatabase, Snapshot, StrgIndex,
        StrgIndexConfig, VideoDatabase, FORMAT_VERSION,
    };
    pub use strg_distance::{
        CountingDistance, Dtw, Eged, EgedMetric, Lcs, MetricDistance, SeqSummary, SequenceDistance,
    };
    pub use strg_graph::{
        decompose, BackgroundGraph, DecomposeConfig, ObjectGraph, Point2, Rag, Rgb, Strg,
        TrackerConfig,
    };
    pub use strg_mtree::{MTree, MTreeConfig, PromotePolicy};
    pub use strg_parallel::{par_map, par_map_with, Threads};
    pub use strg_rtree::{Aabb3, RTree3};
    pub use strg_synth::{generate, generate_total, SynthConfig};
    pub use strg_video::{
        frames_to_rags, frames_to_rags_with_stats, lab_scene, segment, segment_into, table1_clips,
        traffic_scene, ExtractStats, Frame, Pixel, ScenarioConfig, SegScratch, SegmentConfig,
        Segmentation, VideoClip,
    };
}

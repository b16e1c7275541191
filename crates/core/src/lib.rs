//! # strg-core
//!
//! The paper's primary contribution: the **STRG-Index** (Section 5) and the
//! end-to-end video database built on it.
//!
//! * [`index::StrgIndex`] — the three-level tree (root = Background
//!   Graphs, cluster nodes = centroid OGs from EM clustering, leaves =
//!   member OGs keyed by metric EGED), with Algorithm 2 construction,
//!   BIC-gated node splits (§5.3) and Algorithm 3 k-NN search;
//! * [`pipeline::VideoDatabase`] — frames → segmentation → RAG → STRG →
//!   decomposition → clustering → index → queries, in one struct over
//!   N ≥ 1 index shards (one by default: the paper's single tree);
//! * [`shard`] — the deterministic hash-of-name routing of clips to
//!   shards and the fan-out that answers every global query: search every
//!   shard, merge the hits.
//!
//! The database takes the [`options::DbOptions`] builder and implements
//! the object-safe [`options::Database`] trait; [`options::open`] loads
//! whatever is on disk.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;
pub mod options;
pub mod persist;
pub mod pipeline;
pub mod query;
pub mod shard;

pub use index::{
    with_query_scratch, BatchScratch, ClusterRecord, Hit, LeafNode, LeafRecord, QueryScratch,
    RootRecord, Scope, StrgIndex, StrgIndexConfig,
};
pub use options::{open, Database, DbOptions};
pub use persist::{PersistInfo, ReopenMode, FORMAT_VERSION};
pub use pipeline::{DbStats, IngestReport, QueryHit, VideoDatabase};
pub use query::{Query, QueryKind, QueryResult};
pub use shard::{
    route, sharded_query, sharded_query_into, with_shard_scratch, ShardScratch, ShardedDatabase,
};
pub use strg_obs::{QueryCost, Recorder, Snapshot};
pub use strg_parallel::Threads;

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
//!   decomposition → clustering → index → queries, in one facade;
//! * [`shard::ShardedDatabase`] — N independent index shards behind
//!   deterministic hash-of-name routing, queried with a bound-ordered
//!   parallel fan-out sharing one best-k cutoff.
//!
//! Both database flavors take the same [`options::DbOptions`] builder and
//! implement the [`options::Database`] trait; [`options::open`] picks the
//! flavor from what is on disk.

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
pub use options::{open, Database, DbOptions, Metric};
pub use persist::{PersistInfo, ReopenMode, FORMAT_VERSION};
pub use pipeline::{ClipMeta, DbStats, IngestReport, QueryHit, StoredOg, VideoDatabase};
pub use query::{Query, QueryKind, QueryResult};
pub use shard::{
    route, sharded_query, sharded_query_into, with_shard_scratch, ShardOutcome, ShardScratch,
    ShardedDatabase,
};
pub use strg_obs::{QueryCost, Recorder, Snapshot};
pub use strg_parallel::Threads;

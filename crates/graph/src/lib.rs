//! # strg-graph
//!
//! Graph data structures and algorithms of the STRG-Index paper
//! (*STRG-Index: Spatio-Temporal Region Graph Indexing for Large Video
//! Databases*, SIGMOD 2005), Section 2 plus the matching machinery it
//! relies on:
//!
//! * [`rag::Rag`] — Region Adjacency Graphs (Definition 1),
//! * [`strg::Strg`] — Spatio-Temporal Region Graphs (Definition 2),
//! * [`mcs::Star`] — neighborhood graphs (Definition 7) and their most
//!   common subgraph (Definition 6), which decides both isomorphism
//!   (Definition 4) and `SimGraph` (Eq. 1); [`mcs`] also holds Background
//!   Graph matching,
//! * [`tracking`] — graph-based tracking (Algorithm 1),
//! * [`mod@decompose`] — ORG/OG/BG decomposition (§2.3, Theorem 1),
//! * [`og`] — the Object Graph / Background Graph value types.
//!
//! ```
//! use strg_graph::{
//!     build_strg, decompose, DecomposeConfig, FrameId, NodeAttr, NodeId,
//!     Point2, Rag, Rgb, TrackerConfig,
//! };
//!
//! // Two frames with one moving region and one static one.
//! let frame = |id: u32, x: f64| {
//!     let mover = NodeAttr::new(60, Rgb::new(200.0, 0.0, 0.0), Point2::new(x, 20.0));
//!     let wall = NodeAttr::new(900, Rgb::new(90.0, 90.0, 90.0), Point2::new(80.0, 60.0));
//!     Rag::from_pairs(FrameId(id), vec![mover, wall], [(NodeId(0), NodeId(1))])
//! };
//! let frames: Vec<Rag> = (0..6).map(|m| frame(m, 10.0 + 5.0 * m as f64)).collect();
//!
//! // Algorithm 1 tracking links corresponding regions across frames...
//! let strg = build_strg(frames, &TrackerConfig::default());
//! assert_eq!(strg.temporal_edge_count(), 10);
//!
//! // ...and §2.3 decomposition separates the moving object from the wall.
//! let d = decompose(&strg, &DecomposeConfig::default());
//! assert_eq!(d.objects.len(), 1);
//! assert!((d.objects[0].mean_velocity() - 5.0).abs() < 1e-9);
//! assert_eq!(d.background.rag.node_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod decompose;
pub mod geom;
pub mod mcs;
pub mod og;
pub mod rag;
pub mod strg;
pub mod tracking;

pub use attr::{CompatParams, NodeAttr, SpatialEdgeAttr, TemporalEdgeAttr};
pub use decompose::{decompose, DecomposeConfig, Decomposition};
pub use geom::{Point2, Rgb};
pub use mcs::{background_similarity, greedy_attr_match, Star};
pub use og::{BackgroundGraph, ObjectGraph, Org, OrgSample};
pub use rag::{FrameId, NodeId, Rag};
pub use strg::{Strg, TemporalEdge};
pub use tracking::{build_strg, track_pair, TrackerConfig};

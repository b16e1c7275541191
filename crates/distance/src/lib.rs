//! # strg-distance
//!
//! Sequence distance functions of the STRG-Index paper (Section 3):
//!
//! * [`Eged`] — the non-metric Extended Graph Edit Distance with the
//!   midpoint gap, used for clustering Object Graphs;
//! * [`EgedMetric`] — the metric EGED (fixed constant gap, Theorem 2), the
//!   key function of the STRG-Index and of the M-tree baseline;
//! * [`Dtw`], [`Lcs`] — the baselines of the paper's clustering
//!   evaluation (Figure 5);
//! * [`CountingDistance`] — instrumentation for the paper's cost model
//!   (number of distance evaluations, §6.3);
//! * [`resample`] — the linear resampling the cluster centroids use.
//!
//! Everything is generic over [`SeqValue`] so the same code measures 1-D
//! scalarized Object Graphs and 2-D centroid trajectories.
//!
//! ```
//! use strg_distance::{Eged, EgedMetric, SequenceDistance};
//!
//! // The paper's §3.1 example: with the fixed gap g = 0 the metric EGED
//! // obeys the triangle inequality (Theorem 2).
//! let (r, s, t) = ([0.0], [1.0, 1.0], [2.0, 2.0, 3.0]);
//! let m = EgedMetric::<f64>::new();
//! assert_eq!(m.distance(&r, &t), 7.0);
//! assert_eq!(m.distance(&r, &s), 2.0);
//! assert_eq!(m.distance(&s, &t), 5.0);
//! assert!(m.distance(&r, &t) <= m.distance(&r, &s) + m.distance(&s, &t));
//!
//! // The non-metric EGED absorbs local time shifting for free.
//! let a = [1.0, 5.0, 9.0];
//! let b = [1.0, 5.0, 5.0, 9.0];
//! assert_eq!(Eged.distance(&a, &b), 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounded;
mod counting;
mod dtw;
mod eged;
mod lcs;
mod resample;
mod scratch;
mod traits;
mod value;

pub use bounded::{BoundedDistance, LowerBound, SeqSummary};
pub use counting::CountingDistance;
pub use dtw::Dtw;
pub use eged::{Eged, EgedMetric, EgedRepeatGap, GapPolicy};
pub use lcs::Lcs;
pub use resample::{resample, Lerp};
pub use traits::{MetricDistance, SequenceDistance};
pub use value::SeqValue;

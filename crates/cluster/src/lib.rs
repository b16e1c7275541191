//! # strg-cluster
//!
//! Clustering of Object Graphs (Section 4 of the STRG-Index paper):
//!
//! * [`EmClusterer`] — EM with the distance-based 1-D Gaussian mixture
//!   (Equations 3–7); `O(KM)` distance evaluations per iteration;
//! * [`KMeans`], [`KHarmonicMeans`] — the hard baselines of Figures 5/6;
//! * [`mod@bic`] — Bayesian Information Criterion model selection (Equation 8,
//!   §4.2) and the BIC sweep behind Figure 8;
//! * [`metrics`] — clustering error rate (Equation 11) and distortion.
//!
//! All clusterers are generic over the sequence distance, which is how the
//! paper's EM-EGED / EM-LCS / EM-DTW (etc.) grid is realized.
//!
//! ```
//! use strg_cluster::{clustering_error_rate, Clusterer, EmClusterer, EmConfig};
//! use strg_distance::Eged;
//!
//! // Two obvious groups of scalar sequences.
//! let mut data = Vec::new();
//! for i in 0..6 {
//!     data.push(vec![i as f64 * 0.1, 1.0]);
//!     data.push(vec![100.0 + i as f64 * 0.1, 101.0]);
//! }
//! let labels: Vec<u32> = (0..12).map(|i| (i % 2) as u32).collect();
//!
//! let em = EmClusterer::new(Eged, EmConfig::new(2).with_seed(7));
//! let clustering = em.fit(&data);
//! assert_eq!(clustering_error_rate(&clustering.assignments, &labels, 2), 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bic;
pub mod centroid;
pub mod em;
pub mod init;
pub mod khm;
pub mod kmeans;
pub mod metrics;
pub mod model;

pub use bic::{bic, bic_sweep, bic_sweep_threads, num_params, BicPoint};
pub use centroid::{median_length, member_centroid, weighted_centroid, ClusterValue};
pub use em::{EmClusterer, EmConfig};
pub use init::distance_matrix;
pub use khm::KHarmonicMeans;
pub use kmeans::{HardConfig, KMeans};
pub use metrics::{
    clustering_error_rate, distortion, majority_labels, normalized_mutual_information,
};
pub use model::{Clusterer, Clustering};
pub use strg_parallel::Threads;

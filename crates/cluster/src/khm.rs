//! K-Harmonic-Means over sequences (Hamerly & Elkan \[12\]), the second hard
//! baseline of Figures 5 and 6.
//!
//! KHM replaces K-Means' winner-takes-all assignment with soft memberships
//! derived from the harmonic mean of distances, which makes it much less
//! sensitive to initialization:
//!
//! ```text
//! m(c_k | y_j) = d_jk^(-p-2) / sum_l d_jl^(-p-2)
//! w(y_j)       = sum_l d_jl^(-p-2) / (sum_l d_jl^(-p))^2
//! c_k          = sum_j m(c_k|y_j) w(y_j) y_j / sum_j m(c_k|y_j) w(y_j)
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use strg_distance::SequenceDistance;
use strg_obs::Recorder;
use strg_parallel::par_map;

use crate::centroid::{median_length, weighted_centroid, ClusterValue};
use crate::init::{distance_matrix, kmeans_pp_seeds};
use crate::kmeans::{empty_clustering, HardConfig};
use crate::model::{Clusterer, Clustering};

/// K-Harmonic-Means clustering driven by an arbitrary sequence distance
/// (KHM-EGED / KHM-LCS / KHM-DTW in the paper's experiments).
#[derive(Clone, Debug)]
pub struct KHarmonicMeans<D> {
    /// Distance used in the harmonic performance function.
    pub dist: D,
    /// Fitting parameters.
    pub cfg: HardConfig,
    recorder: Option<Recorder>,
}

impl<D> KHarmonicMeans<D> {
    /// Creates a KHM clusterer.
    pub fn new(dist: D, cfg: HardConfig) -> Self {
        Self {
            dist,
            cfg,
            recorder: None,
        }
    }

    /// Records fit statistics (`cluster.khm.fits`, `cluster.khm.iterations`)
    /// into `recorder`. The fit is bit-identical at any thread count, so
    /// these counters are deterministic.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }
}

/// Avoids division by zero for exact centroid hits.
const D_FLOOR: f64 = 1e-6;

/// The harmonic exponent `p` (>= 2; the literature default is 3.5, 3.0
/// behaved robustly on trajectory data).
const P: f64 = 3.0;

impl<V: ClusterValue, D: SequenceDistance<V> + Sync> Clusterer<V> for KHarmonicMeans<D> {
    fn fit(&self, data: &[Vec<V>]) -> Clustering<V> {
        let m = data.len();
        let k = self.cfg.k.max(1).min(m.max(1));
        if m == 0 {
            return empty_clustering();
        }
        let target_len = median_length(data).max(1);
        let threads = self.cfg.threads;
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        // The seeding's distances are the first iteration's matrix.
        let (idx, mut dists) = kmeans_pp_seeds(data, k, &self.dist, &mut rng, threads);
        let mut centroids: Vec<Vec<V>> = idx.iter().map(|&i| data[i].clone()).collect();
        let mut iterations = 0;

        for iter in 0..self.cfg.max_iters {
            iterations = iter + 1;
            // The O(KM) distance matrix, rows fanned out in item order,
            // floored against exact centroid hits.
            if iter > 0 {
                dists = distance_matrix(data, &centroids, &self.dist, threads);
            }
            for d in dists.iter_mut().flatten() {
                *d = d.max(D_FLOOR);
            }
            // Per-item membership * weight coefficients.
            let mut coeffs = vec![vec![0.0f64; k]; m];
            for j in 0..m {
                let dmin = dists[j].iter().cloned().fold(f64::INFINITY, f64::min);
                // Normalize by dmin to avoid overflow of d^(-p-2).
                let inv_p2: Vec<f64> = dists[j].iter().map(|&d| (dmin / d).powf(P + 2.0)).collect();
                let inv_p: Vec<f64> = dists[j].iter().map(|&d| (dmin / d).powf(P)).collect();
                let s_p2: f64 = inv_p2.iter().sum();
                let s_p: f64 = inv_p.iter().sum();
                // m_jk = inv_p2[c] / s_p2; w_j = (s_p2 / s_p^2) * dmin^(p-2)
                // — the dmin factors cancel inside the centroid ratio, so we
                // only need relative coefficients per item... but weights
                // compare *across* items, so keep the dmin scaling:
                let w_j = s_p2 / (s_p * s_p) * dmin.powf(P - 2.0);
                for c in 0..k {
                    coeffs[j][c] = inv_p2[c] / s_p2 * w_j;
                }
            }
            let mut moved = 0.0f64;
            for c in 0..k {
                let w_col: Vec<f64> = coeffs.iter().map(|r| r[c]).collect();
                let mu = weighted_centroid(data, &w_col, target_len);
                if !mu.is_empty() {
                    moved = moved.max(self.dist.distance(&mu, &centroids[c]));
                    centroids[c] = mu;
                }
            }
            if moved < self.cfg.tol {
                break;
            }
        }

        if let Some(r) = &self.recorder {
            r.add("cluster.khm.fits", 1);
            r.add("cluster.khm.iterations", iterations as u64);
        }

        // Hard assignment for evaluation: nearest centroid (parallel scan,
        // per-item tie-breaking identical to the sequential `min_by`).
        let assignments: Vec<usize> = par_map(data, threads, |y| {
            (0..k)
                .map(|c| (c, self.dist.distance(y, &centroids[c])))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(c, _)| c)
                .unwrap_or(0)
        });

        Clustering {
            assignments,
            weights: vec![1.0 / k as f64; k],
            sigmas: vec![0.0; k],
            centroids,
            log_likelihood: f64::NAN,
            iterations,
        }
    }

    fn name(&self) -> &'static str {
        "KHM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strg_distance::Eged;

    fn two_groups() -> Vec<Vec<f64>> {
        let mut data = Vec::new();
        for i in 0..6 {
            data.push(vec![i as f64 * 0.1, 1.0, 2.0]);
        }
        for i in 0..6 {
            data.push(vec![80.0 + i as f64 * 0.1, 81.0, 82.0]);
        }
        data
    }

    #[test]
    fn separates_groups() {
        let khm = KHarmonicMeans::new(Eged, HardConfig::new(2).with_seed(4));
        let c = khm.fit(&two_groups());
        let a0 = c.assignments[0];
        assert!(c.assignments[..6].iter().all(|&a| a == a0));
        assert!(c.assignments[6..].iter().all(|&a| a != a0));
    }

    #[test]
    fn robust_to_bad_seed() {
        // KHM's soft memberships recover even when both initial centroids
        // fall in the same group; try several seeds.
        let data = two_groups();
        for seed in 0..5u64 {
            let khm = KHarmonicMeans::new(Eged, HardConfig::new(2).with_seed(seed));
            let c = khm.fit(&data);
            let a0 = c.assignments[0];
            assert!(
                c.assignments[6..].iter().all(|&a| a != a0),
                "seed {seed} failed to separate"
            );
        }
    }

    #[test]
    fn deterministic() {
        let khm = KHarmonicMeans::new(Eged, HardConfig::new(2).with_seed(1));
        let data = two_groups();
        assert_eq!(khm.fit(&data).assignments, khm.fit(&data).assignments);
    }

    #[test]
    fn parallel_fit_matches_sequential() {
        use strg_parallel::Threads;
        let data = two_groups();
        let cfg = HardConfig::new(2).with_seed(3);
        let seq = KHarmonicMeans::new(Eged, cfg.with_threads(Threads::Fixed(1))).fit(&data);
        for threads in [2, 8] {
            let par =
                KHarmonicMeans::new(Eged, cfg.with_threads(Threads::Fixed(threads))).fit(&data);
            assert_eq!(seq.assignments, par.assignments);
            assert_eq!(seq.iterations, par.iterations);
        }
    }

    #[test]
    fn each_iteration_pays_one_matrix_and_k_moves() {
        use strg_distance::CountingDistance;
        let data = two_groups();
        let (n, k, m) = (4, 2, data.len());
        let mut cfg = HardConfig::new(k).with_seed(4);
        cfg.max_iters = n;
        // No centroid moves less than zero: the fit runs all n.
        cfg.tol = 0.0;
        let khm = KHarmonicMeans::new(CountingDistance::new(Eged), cfg);
        let c = khm.fit(&data);
        assert_eq!(c.iterations, n);
        // The seeding's matrix is the first iteration's; the final hard
        // assignment scans one more.
        assert_eq!(khm.dist.count(), (n * k * m + n * k + k * m) as u64);
    }

    #[test]
    fn empty_data() {
        let khm = KHarmonicMeans::new(Eged, HardConfig::new(2));
        let c = khm.fit(&Vec::<Vec<f64>>::new());
        assert!(c.assignments.is_empty());
    }
}

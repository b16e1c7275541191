//! K-Means over sequences, one of the two hard-clustering baselines of
//! Figure 5/6 (Hamerly & Elkan \[12\] describe the family).
//!
//! Lloyd iterations with an arbitrary sequence distance for assignment and
//! the resampled weighted mean ([`crate::centroid`]) for the centroid
//! update.

use rand::rngs::StdRng;
use rand::SeedableRng;
use strg_distance::SequenceDistance;
use strg_obs::Recorder;
use strg_parallel::{par_map_indexed, Threads};

use crate::centroid::{median_length, weighted_centroid, ClusterValue};
use crate::init::{distance_matrix, kmeans_pp_seeds};
use crate::model::{Clusterer, Clustering};

/// Configuration shared by the hard clusterers (KM and KHM).
#[derive(Copy, Clone, Debug)]
pub struct HardConfig {
    /// Number of clusters.
    pub k: usize,
    /// Iteration cap.
    pub max_iters: usize,
    /// Convergence threshold on centroid movement (measured with the
    /// clusterer's own distance).
    pub tol: f64,
    /// RNG seed for initialization.
    pub seed: u64,
    /// Worker count for the per-iteration distance scans. The parallel
    /// path merges per-item results in item order, so the fit is identical
    /// to the sequential one (`Threads::Fixed(1)`) at any thread count.
    pub threads: Threads,
}

impl HardConfig {
    /// Default configuration for `k` clusters.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iters: 60,
            tol: 1e-4,
            seed: 0,
            threads: Threads::Auto,
        }
    }

    /// Same configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Same configuration with a different worker-count policy.
    pub fn with_threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }
}

/// K-Means clustering driven by an arbitrary sequence distance
/// (KM-EGED / KM-LCS / KM-DTW in the paper's experiments).
#[derive(Clone, Debug)]
pub struct KMeans<D> {
    /// Assignment distance.
    pub dist: D,
    /// Fitting parameters.
    pub cfg: HardConfig,
    recorder: Option<Recorder>,
}

impl<D> KMeans<D> {
    /// Creates a K-Means clusterer.
    pub fn new(dist: D, cfg: HardConfig) -> Self {
        Self {
            dist,
            cfg,
            recorder: None,
        }
    }

    /// Records fit statistics (`cluster.km.fits`, `cluster.km.iterations`,
    /// `cluster.km.reseeds`) into `recorder`. The fit is bit-identical at
    /// any thread count, so these counters are deterministic.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }
}

impl<V: ClusterValue, D: SequenceDistance<V> + Sync> Clusterer<V> for KMeans<D> {
    fn fit(&self, data: &[Vec<V>]) -> Clustering<V> {
        let m = data.len();
        let k = self.cfg.k.max(1).min(m.max(1));
        if m == 0 {
            return empty_clustering();
        }
        let target_len = median_length(data).max(1);
        let threads = self.cfg.threads;
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        // The seeding's distances are the first assignment step's.
        let (idx, mut dists) = kmeans_pp_seeds(data, k, &self.dist, &mut rng, threads);
        let mut centroids: Vec<Vec<V>> = idx.iter().map(|&i| data[i].clone()).collect();
        let mut assignments = vec![0usize; m];
        let mut iterations = 0;
        let mut reseeds = 0u64;

        for iter in 0..self.cfg.max_iters {
            iterations = iter + 1;
            // Assignment step: each item's nearest centroid. The matrix's
            // rows fan out and come back in item order; the per-item
            // `min_by` ties break exactly as in the sequential loop.
            if iter > 0 {
                dists = distance_matrix(data, &centroids, &self.dist, threads);
            }
            let mut changed = false;
            for (j, row) in dists.iter().enumerate() {
                let best = row
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(c, _)| c)
                    .unwrap_or(0);
                if assignments[j] != best {
                    assignments[j] = best;
                    changed = true;
                }
            }
            // Update step.
            let mut moved = 0.0f64;
            for c in 0..k {
                let w: Vec<f64> = assignments
                    .iter()
                    .map(|&a| if a == c { 1.0 } else { 0.0 })
                    .collect();
                let mu = weighted_centroid(data, &w, target_len);
                if mu.is_empty() {
                    reseeds += 1;
                    // Empty cluster: re-seed on the item farthest from its
                    // centroid. Distances fan out; the `max_by` over them
                    // runs on this thread in item order (keeping its
                    // last-max-wins tie behavior identical).
                    let d_own = par_map_indexed(data, threads, |j, y| {
                        self.dist.distance(y, &centroids[assignments[j]])
                    });
                    let far = d_own
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1))
                        .map(|(j, _)| j)
                        .unwrap_or(0);
                    centroids[c] = data[far].clone();
                    assignments[far] = c;
                    moved = f64::INFINITY;
                } else {
                    moved = moved.max(self.dist.distance(&mu, &centroids[c]));
                    centroids[c] = mu;
                }
            }
            if !changed && moved < self.cfg.tol {
                break;
            }
        }

        if let Some(r) = &self.recorder {
            r.add("cluster.km.fits", 1);
            r.add("cluster.km.iterations", iterations as u64);
            r.add("cluster.km.reseeds", reseeds);
        }

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
        "KM"
    }
}

pub(crate) fn empty_clustering<V>() -> Clustering<V> {
    Clustering {
        assignments: vec![],
        centroids: vec![],
        weights: vec![],
        sigmas: vec![],
        log_likelihood: f64::NAN,
        iterations: 0,
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
            data.push(vec![50.0 + i as f64 * 0.1, 51.0, 52.0]);
        }
        data
    }

    #[test]
    fn separates_groups() {
        let km = KMeans::new(Eged, HardConfig::new(2).with_seed(4));
        let c = km.fit(&two_groups());
        let a0 = c.assignments[0];
        assert!(c.assignments[..6].iter().all(|&a| a == a0));
        assert!(c.assignments[6..].iter().all(|&a| a != a0));
    }

    #[test]
    fn converges_quickly_on_easy_data() {
        let km = KMeans::new(Eged, HardConfig::new(2).with_seed(4));
        let c = km.fit(&two_groups());
        assert!(c.iterations < 20);
    }

    #[test]
    fn deterministic() {
        let km = KMeans::new(Eged, HardConfig::new(2).with_seed(8));
        let data = two_groups();
        assert_eq!(km.fit(&data).assignments, km.fit(&data).assignments);
    }

    #[test]
    fn parallel_fit_matches_sequential() {
        let data = two_groups();
        for seed in 0..4u64 {
            let cfg = HardConfig::new(3).with_seed(seed);
            let seq = KMeans::new(Eged, cfg.with_threads(Threads::Fixed(1))).fit(&data);
            for threads in [2, 8] {
                let par = KMeans::new(Eged, cfg.with_threads(Threads::Fixed(threads))).fit(&data);
                assert_eq!(seq.assignments, par.assignments, "seed {seed}");
                assert_eq!(seq.iterations, par.iterations, "seed {seed}");
            }
        }
    }

    #[test]
    fn empty_data() {
        let km = KMeans::new(Eged, HardConfig::new(2));
        let c = km.fit(&Vec::<Vec<f64>>::new());
        assert!(c.assignments.is_empty());
    }

    #[test]
    fn recorder_counts_iterations() {
        let r = Recorder::new();
        let km = KMeans::new(Eged, HardConfig::new(2).with_seed(4)).with_recorder(r.clone());
        let c = km.fit(&two_groups());
        let s = r.snapshot();
        assert_eq!(s.counter("cluster.km.fits"), Some(1));
        assert_eq!(
            s.counter("cluster.km.iterations"),
            Some(c.iterations as u64)
        );
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
        let rec = Recorder::new();
        let km = KMeans::new(CountingDistance::new(Eged), cfg).with_recorder(rec.clone());
        let c = km.fit(&data);
        assert_eq!(c.iterations, n);
        assert_eq!(rec.snapshot().counter("cluster.km.reseeds"), Some(0));
        // The seeding's matrix is the first assignment step's.
        assert_eq!(km.dist.count(), (n * k * m + n * k) as u64);
    }

    #[test]
    fn k_one_groups_everything() {
        let km = KMeans::new(Eged, HardConfig::new(1));
        let c = km.fit(&two_groups());
        assert!(c.assignments.iter().all(|&a| a == 0));
    }
}

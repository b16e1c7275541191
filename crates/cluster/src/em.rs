//! Expectation–Maximization clustering with a distance-based 1-D Gaussian
//! mixture (Section 4 of the paper).
//!
//! The usual d-dimensional Gaussian mixture breaks down on Object Graphs
//! (variable lengths, singular covariances); the paper therefore replaces
//! the Mahalanobis distance with EGED, reducing each component to the
//! one-dimensional density of Equation (3):
//!
//! ```text
//! p(Y_j | Theta) = sum_k w_k / (sqrt(2 pi) sigma_k) * exp(-EGED(Y_j, mu_k)^2 / (2 sigma_k^2))
//! ```
//!
//! E-step: responsibilities per Equation (5); M-step: weights, centroids
//! and sigma per Equation (6); assignment per Equation (7). One iteration
//! costs `O(K M)` distance evaluations, the complexity the paper claims.
//! Responsibilities are computed in the log domain so long sequences (large
//! distances) do not underflow.
//!
//! All components share one sigma (a homoscedastic mixture), capped at
//! its starting value. Equation (3) carries a per-component `sigma_k`, but
//! with free variances the distance-kernel mixture is degenerate: one
//! component inflates its variance until its flat density swallows the
//! whole data set (observed as every item collapsing into one cluster).
//! A shared, bounded variance keeps the component competition about
//! centroid proximity, which is what clustering OGs needs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use strg_distance::SequenceDistance;
use strg_obs::Recorder;
use strg_parallel::{par_map_range, Threads};

use crate::centroid::{median_length, weighted_centroid, ClusterValue};
use crate::init::{distance_matrix, kmeans_pp_seeds};
use crate::model::{Clusterer, Clustering};

/// Configuration of the EM clusterer.
#[derive(Copy, Clone, Debug)]
pub struct EmConfig {
    /// Number of mixture components `K`.
    pub k: usize,
    /// Iteration cap.
    pub max_iters: usize,
    /// Convergence threshold on the largest weight change (the paper stops
    /// "when `w_k` is converged for all `k`").
    pub tol: f64,
    /// RNG seed for centroid initialization.
    pub seed: u64,
    /// Number of k-means++-seeded restarts; the run with the best final
    /// log-likelihood wins.
    pub n_init: usize,
    /// Worker count for the distance matrix and E-step. The parallel path
    /// is bit-identical to the sequential one (`Threads::Fixed(1)`): rows
    /// are merged in item order and the log-likelihood is reduced
    /// sequentially, so the thread count never changes the fit.
    pub threads: Threads,
}

impl EmConfig {
    /// A default configuration for `k` clusters.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iters: 60,
            tol: 1e-4,
            seed: 0,
            n_init: 3,
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

/// EM clustering driven by an arbitrary sequence distance (the paper's
/// EM-EGED; the Figure 5 baselines instantiate it with LCS and DTW).
#[derive(Clone, Debug)]
pub struct EmClusterer<D> {
    /// The distance used in the Gaussian kernel (non-metric allowed).
    pub dist: D,
    /// Fitting parameters.
    pub cfg: EmConfig,
    recorder: Option<Recorder>,
}

impl<D> EmClusterer<D> {
    /// Creates an EM clusterer.
    pub fn new(dist: D, cfg: EmConfig) -> Self {
        Self {
            dist,
            cfg,
            recorder: None,
        }
    }

    /// Records fit statistics (`cluster.em.fits`, `cluster.em.iterations`,
    /// `cluster.em.reseeds`, and `cluster.em.distance_calls`: `K · M` per
    /// distance matrix, the seeding's included) into `recorder`. The fit is
    /// bit-identical at any thread count, so these counters are
    /// deterministic.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }
}

/// Floor for sigma to keep densities proper.
const SIGMA_FLOOR: f64 = 1e-3;

/// The shared sigma starts at this multiple of the initial within-cluster
/// scale and never rises above its start. Below 1 it sharpens the
/// component competition, which helps when within-cluster and
/// between-cluster distances are of the same order (long noisy
/// trajectories concentrate distances).
const SIGMA_SCALE: f64 = 0.5;

impl<D> EmClusterer<D> {
    /// Runs EM and additionally returns the per-item responsibilities
    /// (`h_jk` of Equation 5) of the final iteration.
    pub fn fit_full<V>(&self, data: &[Vec<V>]) -> (Clustering<V>, Vec<Vec<f64>>)
    where
        V: ClusterValue,
        D: SequenceDistance<V> + Sync,
    {
        let mut best: Option<(Clustering<V>, Vec<Vec<f64>>)> = None;
        for r in 0..self.cfg.n_init.max(1) as u64 {
            let run = self.fit_once(data, self.cfg.seed.wrapping_add(r));
            let better = match &best {
                None => true,
                Some((b, _)) => {
                    run.0.log_likelihood > b.log_likelihood || !b.log_likelihood.is_finite()
                }
            };
            if better {
                best = Some(run);
            }
        }
        best.expect("n_init >= 1")
    }

    /// One EM run from a single k-means++ seeding.
    fn fit_once<V>(&self, data: &[Vec<V>], seed: u64) -> (Clustering<V>, Vec<Vec<f64>>)
    where
        V: ClusterValue,
        D: SequenceDistance<V> + Sync,
    {
        let m = data.len();
        let k = self.cfg.k.max(1).min(m.max(1));
        if m == 0 {
            return (
                Clustering {
                    assignments: vec![],
                    centroids: vec![],
                    weights: vec![],
                    sigmas: vec![],
                    log_likelihood: f64::NAN,
                    iterations: 0,
                },
                vec![],
            );
        }
        let target_len = median_length(data).max(1);
        let threads = self.cfg.threads;
        let mut rng = StdRng::seed_from_u64(seed);

        // Init: k-means++ seeded centroids. Seeding measured every item's
        // distance to every seed, which is the first iteration's matrix.
        let (idx, mut dists) = kmeans_pp_seeds(data, k, &self.dist, &mut rng, threads);
        let mut matrices = 1u64;
        let mut centroids: Vec<Vec<V>> = idx.iter().map(|&i| data[i].clone()).collect();
        let mut weights = vec![1.0 / k as f64; k];

        // The shared sigma, set from the mean distance to the initial
        // centroids in the first iteration.
        let mut sigma = 0.0f64;
        let mut sigma_cap = f64::INFINITY;
        let mut iterations = 0;
        let mut reseeds = 0u64;
        let mut resp = vec![vec![0.0f64; k]; m];
        let mut log_likelihood = f64::NEG_INFINITY;

        for iter in 0..self.cfg.max_iters {
            iterations = iter + 1;
            // Distances (the O(KM) work of one iteration), rows fanned out
            // across the workers and merged back in item order.
            if iter > 0 {
                dists = distance_matrix(data, &centroids, &self.dist, threads);
                matrices += 1;
            }
            if iter == 0 {
                // Initialize sigma at the *within-cluster* scale: the mean
                // distance from each item to its nearest centroid. A
                // global-scale sigma flattens the responsibilities and
                // collapses the mixture onto the grand mean.
                let mean_min = dists
                    .iter()
                    .map(|row| row.iter().cloned().fold(f64::INFINITY, f64::min))
                    .sum::<f64>()
                    / m as f64;
                sigma_cap = (mean_min * SIGMA_SCALE).max(SIGMA_FLOOR);
                sigma = sigma_cap;
            }

            // E-step (log domain). Rows are independent, so they run on the
            // workers; each returns its responsibility row plus its additive
            // log-likelihood term. The terms are then summed on this thread
            // in item order — the same accumulation order as the sequential
            // loop, so the total cannot drift with the thread count.
            let s = sigma.max(SIGMA_FLOOR);
            let rows = par_map_range(m, threads, |j| {
                let mut logs = vec![0.0f64; k];
                for c in 0..k {
                    let d = dists[j][c];
                    logs[c] = weights[c].max(1e-300).ln()
                        - s.ln()
                        - 0.5 * (2.0 * std::f64::consts::PI).ln()
                        - d * d / (2.0 * s * s);
                }
                let mx = logs.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
                let sum: f64 = logs.iter().map(|l| (l - mx).exp()).sum();
                let row: Vec<f64> = logs.iter().map(|l| (l - mx).exp() / sum).collect();
                (row, mx + sum.ln())
            });
            log_likelihood = 0.0;
            for (j, (row, term)) in rows.into_iter().enumerate() {
                resp[j] = row;
                log_likelihood += term;
            }

            // M-step.
            let mut max_dw = 0.0f64;
            let mut var_num = 0.0f64;
            for c in 0..k {
                let nk: f64 = resp.iter().map(|r| r[c]).sum();
                let new_w = nk / m as f64;
                max_dw = max_dw.max((new_w - weights[c]).abs());
                weights[c] = new_w;
                if nk < 1e-9 {
                    // Empty component: re-seed on a pseudo-random item.
                    reseeds += 1;
                    let j = (iter * 31 + c * 7) % m;
                    centroids[c] = data[j].clone();
                    continue;
                }
                let w_col: Vec<f64> = resp.iter().map(|r| r[c]).collect();
                let mu = weighted_centroid(data, &w_col, target_len);
                if !mu.is_empty() {
                    centroids[c] = mu;
                }
                var_num += resp
                    .iter()
                    .enumerate()
                    .map(|(j, r)| r[c] * dists[j][c] * dists[j][c])
                    .sum::<f64>();
            }
            sigma = (var_num / m as f64).sqrt().clamp(SIGMA_FLOOR, sigma_cap);

            if max_dw < self.cfg.tol {
                break;
            }
        }

        if let Some(r) = &self.recorder {
            r.add("cluster.em.fits", 1);
            r.add("cluster.em.iterations", iterations as u64);
            r.add("cluster.em.reseeds", reseeds);
            r.add("cluster.em.distance_calls", matrices * (k * m) as u64);
        }

        // Final assignment (Equation 7: maximum posterior responsibility).
        let assignments: Vec<usize> = resp
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(c, _)| c)
                    .unwrap_or(0)
            })
            .collect();

        (
            Clustering {
                assignments,
                centroids,
                weights,
                sigmas: vec![sigma; k],
                log_likelihood,
                iterations,
            },
            resp,
        )
    }
}

impl<V: ClusterValue, D: SequenceDistance<V> + Sync> Clusterer<V> for EmClusterer<D> {
    fn fit(&self, data: &[Vec<V>]) -> Clustering<V> {
        self.fit_full(data).0
    }
    fn name(&self) -> &'static str {
        "EM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strg_distance::Eged;

    /// Two well-separated groups of scalar sequences.
    fn two_groups() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..8 {
            let off = 0.1 * i as f64;
            data.push(vec![0.0 + off, 1.0 + off, 2.0 + off]);
            labels.push(0);
        }
        for i in 0..8 {
            let off = 0.1 * i as f64;
            data.push(vec![100.0 + off, 101.0 + off, 102.0 + off]);
            labels.push(1);
        }
        (data, labels)
    }

    #[test]
    fn separates_two_obvious_groups() {
        let (data, labels) = two_groups();
        let em = EmClusterer::new(Eged, EmConfig::new(2).with_seed(1));
        let c = em.fit(&data);
        assert_eq!(c.k(), 2);
        // All members of a ground-truth group share a cluster, and the two
        // groups differ.
        let a0 = c.assignments[0];
        for (j, &l) in labels.iter().enumerate() {
            if l == 0 {
                assert_eq!(c.assignments[j], a0);
            } else {
                assert_ne!(c.assignments[j], a0);
            }
        }
    }

    #[test]
    fn weights_sum_to_one() {
        let (data, _) = two_groups();
        let em = EmClusterer::new(Eged, EmConfig::new(3).with_seed(5));
        let c = em.fit(&data);
        let sum: f64 = c.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(c.sigmas.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn responsibilities_are_distributions() {
        let (data, _) = two_groups();
        let em = EmClusterer::new(Eged, EmConfig::new(2).with_seed(2));
        let (_, resp) = em.fit_full(&data);
        for row in &resp {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(row.iter().all(|&h| (0.0..=1.0 + 1e-12).contains(&h)));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (data, _) = two_groups();
        let em = EmClusterer::new(Eged, EmConfig::new(2).with_seed(3));
        let a = em.fit(&data);
        let b = em.fit(&data);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_sequential() {
        let (data, _) = two_groups();
        let cfg = EmConfig::new(3).with_seed(9);
        let seq = EmClusterer::new(Eged, cfg.with_threads(Threads::Fixed(1))).fit_full(&data);
        for threads in [2, 8] {
            let par =
                EmClusterer::new(Eged, cfg.with_threads(Threads::Fixed(threads))).fit_full(&data);
            assert_eq!(seq.0.assignments, par.0.assignments);
            assert_eq!(seq.0.iterations, par.0.iterations);
            assert_eq!(
                seq.0.log_likelihood.to_bits(),
                par.0.log_likelihood.to_bits(),
                "log-likelihood must not drift with the thread count"
            );
            for (a, b) in seq.0.weights.iter().zip(&par.0.weights) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in seq.1.iter().flatten().zip(par.1.iter().flatten()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn recorder_counts_fits_and_iterations() {
        let (data, _) = two_groups();
        let r = Recorder::new();
        let em = EmClusterer::new(Eged, EmConfig::new(2).with_seed(1)).with_recorder(r.clone());
        let c = em.fit(&data);
        let s = r.snapshot();
        // n_init = 3 restarts, each one recorded fit.
        assert_eq!(s.counter("cluster.em.fits"), Some(3));
        assert!(s.counter("cluster.em.iterations").unwrap() >= c.iterations as u64);
        assert!(s.counter("cluster.em.reseeds").is_some());
    }

    #[test]
    fn each_restart_pays_one_matrix_per_iteration() {
        use strg_distance::CountingDistance;
        let (data, _) = two_groups();
        let (r, n, k, m) = (2, 4, 3, data.len());
        let mut cfg = EmConfig::new(k).with_seed(6);
        cfg.n_init = r;
        cfg.max_iters = n;
        // No weight change is below zero: every restart runs all n.
        cfg.tol = 0.0;
        let rec = Recorder::new();
        let em = EmClusterer::new(CountingDistance::new(Eged), cfg).with_recorder(rec.clone());
        let c = em.fit(&data);
        assert_eq!(c.iterations, n);
        // The seeding's matrix is the first iteration's: r · n · K · M.
        let calls = (r * n * k * m) as u64;
        assert_eq!(em.dist.count(), calls);
        assert_eq!(
            rec.snapshot().counter("cluster.em.distance_calls"),
            Some(calls)
        );
    }

    #[test]
    fn k_capped_by_data_size() {
        let data = vec![vec![1.0], vec![2.0]];
        let em = EmClusterer::new(Eged, EmConfig::new(10));
        let c = em.fit(&data);
        assert!(c.k() <= 2);
    }

    #[test]
    fn empty_data() {
        let em = EmClusterer::new(Eged, EmConfig::new(3));
        let c = em.fit(&Vec::<Vec<f64>>::new());
        assert!(c.assignments.is_empty());
        assert_eq!(c.iterations, 0);
    }

    #[test]
    fn single_cluster_loglik_increases_with_fit() {
        let (data, _) = two_groups();
        let em1 = EmClusterer::new(Eged, EmConfig::new(1).with_seed(0));
        let em2 = EmClusterer::new(Eged, EmConfig::new(2).with_seed(0));
        let c1 = em1.fit(&data);
        let c2 = em2.fit(&data);
        assert!(
            c2.log_likelihood > c1.log_likelihood,
            "2 components must fit 2 groups better: {} vs {}",
            c2.log_likelihood,
            c1.log_likelihood
        );
    }
}

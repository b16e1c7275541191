//! The labeled synthetic data-set generator of §6.1.
//!
//! Trajectories are drawn around the 48 moving patterns: uniform-speed
//! sampling along the pattern polyline with per-instance time-length
//! jitter, Gaussian position noise (`sigma = 5`, Pelleg-style \[24\]) and a
//! configurable fraction of outlier points (Vlachos-style \[28\], 5%–30% in
//! the paper's six data sets).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use strg_graph::{ObjectGraph, Point2, Rgb};

use crate::noise::{gaussian_jitter, outlier_noise};
use crate::patterns::{all_patterns, MotionPattern};

/// Parameters of the synthetic workload generator.
#[derive(Copy, Clone, Debug)]
pub struct SynthConfig {
    /// Gaussian position noise sigma (the paper uses 5).
    pub sigma: f64,
    /// Fraction of points replaced by outliers ("variance of noise" axis of
    /// Figure 5: 0.05 to 0.30).
    pub noise_frac: f64,
    /// Outlier amplitude in pixels.
    pub noise_amp: f64,
    /// Relative jitter of trajectory length per instance (0.2 means
    /// +/- 20% around the pattern's base length).
    pub len_jitter: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            sigma: 5.0,
            noise_frac: 0.0,
            noise_amp: 60.0,
            len_jitter: 0.2,
        }
    }
}

impl SynthConfig {
    /// The paper's configuration at a given outlier-noise fraction.
    pub fn with_noise(noise_frac: f64) -> Self {
        Self {
            noise_frac,
            ..Self::default()
        }
    }
}

/// One generated trajectory with its ground-truth pattern label.
#[derive(Clone, Debug)]
pub struct LabeledTrajectory {
    /// Ground-truth cluster: the pattern id in `0..48`.
    pub label: u32,
    /// The noisy 2-D trajectory.
    pub points: Vec<Point2>,
}

/// A labeled synthetic data set.
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    /// The generated trajectories.
    pub items: Vec<LabeledTrajectory>,
}

impl Dataset {
    /// Number of trajectories.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the data set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Ground-truth labels, parallel to `items`.
    pub fn labels(&self) -> Vec<u32> {
        self.items.iter().map(|t| t.label).collect()
    }

    /// The trajectories as 2-D point series, parallel to `items`.
    pub fn series(&self) -> Vec<Vec<Point2>> {
        self.items.iter().map(|t| t.points.clone()).collect()
    }

    /// Converts every trajectory into the Object Graph (temporal subgraph)
    /// format, as §6.1's final step. Colors encode the label so that
    /// round-trips are inspectable; the OG id is the item index.
    pub fn to_ogs(&self) -> Vec<ObjectGraph> {
        self.items
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let hue = (t.label as f64 / 48.0) * 255.0;
                ObjectGraph::from_centroids(
                    i as u32,
                    0,
                    &t.points,
                    20 + t.label,
                    Rgb::new(hue, 255.0 - hue, 128.0),
                )
            })
            .collect()
    }
}

/// Generates `per_cluster` trajectories around each of the 48 patterns
/// (deterministically from `seed`).
pub fn generate(per_cluster: usize, cfg: &SynthConfig, seed: u64) -> Dataset {
    generate_for_patterns(&all_patterns(), per_cluster, cfg, seed)
}

/// Generates a data set of exactly `total` trajectories, spreading items
/// over the 48 patterns round-robin (used for the database-size sweeps of
/// Figure 7).
pub fn generate_total(total: usize, cfg: &SynthConfig, seed: u64) -> Dataset {
    let patterns = all_patterns();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut items = Vec::with_capacity(total);
    for i in 0..total {
        let p = &patterns[i % patterns.len()];
        items.push(sample_instance(p, cfg, &mut rng));
    }
    Dataset { items }
}

/// Generates around an explicit pattern set.
pub fn generate_for_patterns(
    patterns: &[MotionPattern],
    per_cluster: usize,
    cfg: &SynthConfig,
    seed: u64,
) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut items = Vec::with_capacity(patterns.len() * per_cluster);
    for p in patterns {
        for _ in 0..per_cluster {
            items.push(sample_instance(p, cfg, &mut rng));
        }
    }
    Dataset { items }
}

fn sample_instance(p: &MotionPattern, cfg: &SynthConfig, rng: &mut StdRng) -> LabeledTrajectory {
    let jitter = 1.0 + cfg.len_jitter * (rng.gen::<f64>() * 2.0 - 1.0);
    let len = ((p.base_len as f64 * jitter).round() as usize).max(4);
    let mut points = p.ideal(len);
    gaussian_jitter(rng, &mut points, cfg.sigma);
    outlier_noise(rng, &mut points, cfg.noise_frac, cfg.noise_amp);
    LabeledTrajectory {
        label: p.id,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_per_cluster_counts() {
        let ds = generate(3, &SynthConfig::default(), 1);
        assert_eq!(ds.len(), 48 * 3);
        for label in 0..48u32 {
            assert_eq!(ds.labels().iter().filter(|&&l| l == label).count(), 3);
        }
    }

    #[test]
    fn generate_total_exact_count() {
        let ds = generate_total(100, &SynthConfig::default(), 1);
        assert_eq!(ds.len(), 100);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = generate(2, &SynthConfig::default(), 99);
        let b = generate(2, &SynthConfig::default(), 99);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.items.iter().zip(&b.items) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.points, y.points);
        }
        let c = generate(2, &SynthConfig::default(), 100);
        assert!(a
            .items
            .iter()
            .zip(&c.items)
            .any(|(x, y)| x.points != y.points));
    }

    #[test]
    fn lengths_jitter_around_base() {
        let ds = generate(5, &SynthConfig::default(), 5);
        let pats = all_patterns();
        for t in &ds.items {
            let base = pats[t.label as usize].base_len as f64;
            let len = t.points.len() as f64;
            assert!(
                len >= base * 0.75 && len <= base * 1.25,
                "len {len} base {base}"
            );
        }
    }

    #[test]
    fn noise_increases_spread() {
        let clean = generate(4, &SynthConfig::with_noise(0.0), 11);
        let noisy = generate(4, &SynthConfig::with_noise(0.3), 11);
        let spread = |ds: &Dataset| -> f64 {
            let pats = all_patterns();
            ds.items
                .iter()
                .map(|t| {
                    let ideal = pats[t.label as usize].ideal(t.points.len());
                    t.points
                        .iter()
                        .zip(&ideal)
                        .map(|(a, b)| a.dist(*b))
                        .sum::<f64>()
                        / t.points.len() as f64
                })
                .sum::<f64>()
                / ds.len() as f64
        };
        assert!(spread(&noisy) > spread(&clean) * 1.3);
    }

    #[test]
    fn to_ogs_preserves_trajectories() {
        let ds = generate(1, &SynthConfig::default(), 2);
        let ogs = ds.to_ogs();
        assert_eq!(ogs.len(), ds.len());
        for (og, t) in ogs.iter().zip(&ds.items) {
            assert_eq!(og.centroid_series(), t.points);
            assert_eq!(og.len(), t.points.len());
        }
    }
}

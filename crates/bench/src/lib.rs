//! # strg-bench
//!
//! The experiment harness regenerating every table and figure of the
//! STRG-Index paper's evaluation (Section 6). Each `figN` module exposes a
//! `run(&Scale)` function returning typed rows; the `figures` binary prints
//! them in the paper's layout and writes CSV files under `results/`.
//!
//! Absolute numbers are machine-dependent; what must reproduce is the
//! *shape*: who wins, by roughly what factor, where the curves cross. See
//! EXPERIMENTS.md for paper-vs-measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod report;

/// Experiment scale. `paper()` mirrors the paper's parameters where
/// feasible on a laptop; `quick()` is a smoke-test scale used by the
/// integration tests.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Take every `patterns_step`-th of the 48 patterns (1 = all).
    pub patterns_step: usize,
    /// Instances generated per pattern for the clustering figures.
    pub per_cluster: usize,
    /// Outlier-noise levels of Figure 5/6 (fractions).
    pub noise_levels: Vec<f64>,
    /// Database sizes of Figure 7a.
    pub db_sizes: Vec<usize>,
    /// `k` values of Figure 7b.
    pub ks: Vec<usize>,
    /// Number of held-out queries for Figure 7b/7c.
    pub queries: usize,
    /// Database size for Figure 7b/7c.
    pub query_db_size: usize,
    /// Frame budget multiplier for the Figure 8 / Table 1-2 videos
    /// (1.0 = the scaled clip lengths in `table1_clips`).
    pub video_scale: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Scale {
    /// Paper-shaped scale (minutes of compute).
    pub fn paper() -> Self {
        Self {
            patterns_step: 1,
            per_cluster: 10,
            noise_levels: vec![0.05, 0.10, 0.15, 0.20, 0.25, 0.30],
            db_sizes: vec![1_000, 2_000, 4_000, 6_000, 8_000, 10_000],
            ks: vec![5, 10, 15, 20, 25, 30],
            queries: 30,
            query_db_size: 4_000,
            video_scale: 1.0,
            seed: 20050614, // SIGMOD 2005 opening day
        }
    }

    /// Reduced paper scale: same sweeps and shapes at roughly a third of
    /// the compute — the scale the recorded artifacts in `results/` were
    /// produced at (the reproduction environment has a single CPU).
    pub fn reduced() -> Self {
        Self {
            patterns_step: 1,
            per_cluster: 5,
            noise_levels: vec![0.05, 0.10, 0.15, 0.20, 0.25, 0.30],
            db_sizes: vec![500, 1_000, 2_000, 4_000],
            ks: vec![5, 10, 15, 20, 25, 30],
            queries: 12,
            query_db_size: 2_000,
            video_scale: 1.0,
            seed: 20050614,
        }
    }

    /// Smoke-test scale (seconds of compute).
    pub fn quick() -> Self {
        Self {
            patterns_step: 8,
            per_cluster: 4,
            noise_levels: vec![0.05, 0.30],
            db_sizes: vec![200, 400],
            ks: vec![5, 10],
            queries: 5,
            query_db_size: 300,
            video_scale: 0.3,
            seed: 7,
        }
    }

    /// The pattern subset selected by `patterns_step`.
    pub fn patterns(&self) -> Vec<strg_synth::MotionPattern> {
        strg_synth::all_patterns()
            .into_iter()
            .step_by(self.patterns_step.max(1))
            .collect()
    }
}

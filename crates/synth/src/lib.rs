//! # strg-synth
//!
//! The synthetic trajectory workload of the STRG-Index paper's evaluation
//! (§6.1): 48 moving patterns (12 vertical, 12 horizontal, 8 diagonal,
//! 16 U-turn) sampled with Gaussian sigma = 5 position noise and 5%–30%
//! outlier point noise, then converted to Object Graphs.
//!
//! The generator is fully deterministic given a seed, so every figure of
//! the benchmark harness is reproducible run-to-run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generate;
pub mod noise;
pub mod patterns;

pub use generate::{
    generate, generate_for_patterns, generate_total, Dataset, LabeledTrajectory, SynthConfig,
};
pub use patterns::{all_patterns, MotionPattern, PatternKind, CANVAS_H, CANVAS_W};

//! The host-speed probe: how fast this machine was while an operation ran.
//!
//! The 2-vCPU VM the benchmark is sized on has two speeds, about 1.27×
//! apart, and stays in one for 5–20 s — longer than a run measures — so
//! ten runs of the same code split between the two and a plain latency
//! spreads by more than any bound allows. The CPU-bound workloads
//! (`lib_index`, `lib_shards`, `reopen`: one caller, nothing waits on a
//! timer) therefore run a small fixed kernel between their operations and
//! divide every latency by the host-speed factor of the half second it
//! fell in: the kernel's median time there over [`REFERENCE_SECS`]. What
//! they report is the time the operation takes on a host on which the
//! kernel takes the reference time, and the factor is printed beside it
//! (`host_speed_factor`), with the measured values under `raw.*`. A
//! corpus set-up runs the kernel between its clips and divides its
//! seconds by the median factor.
//!
//! The kernel is the benchmark's own (an edit-distance recurrence over
//! two fixed 48-point curves, 2 KB of data), not a call into the library:
//! a change to the library cannot move it.

use std::time::Instant;

use crate::stats::median;

/// What one kernel run takes on the quiet host the benchmark was sized on.
pub const REFERENCE_SECS: f64 = 17.5e-6;
/// Factors are taken per bucket of this length.
const BUCKET_SECS: f64 = 0.5;
/// A group of kernel runs follows an operation once this much time has
/// passed since the last group (about 1 % of the phase goes to the probe).
const GROUP_EVERY_SECS: f64 = 0.008;
const RUNS_PER_GROUP: usize = 4;
const POINTS: usize = 48;

/// Runs the kernel between a workload's operations and keeps its timings.
pub struct HostSpeed {
    a: Vec<(f64, f64)>,
    b: Vec<(f64, f64)>,
    row: Vec<f64>,
    start: Instant,
    last_group: f64,
    /// `(seconds since start, kernel seconds)`.
    samples: Vec<(f64, f64)>,
}

impl HostSpeed {
    /// Starts the clock every time in this module is read from.
    pub fn start() -> Self {
        let curve = |step: f64, phase: f64, amp: f64| -> Vec<(f64, f64)> {
            (0..POINTS)
                .map(|i| (i as f64 * step, (i as f64 * phase).sin() * amp))
                .collect()
        };
        let mut probe = HostSpeed {
            a: curve(1.7, 0.37, 40.0),
            b: curve(1.9, 0.29, 35.0),
            row: vec![0.0; POINTS + 1],
            start: Instant::now(),
            last_group: f64::NEG_INFINITY,
            samples: Vec::new(),
        };
        for _ in 0..64 {
            probe.kernel();
        }
        probe
    }

    /// Seconds since [`HostSpeed::start`].
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn kernel(&mut self) -> f64 {
        let t = Instant::now();
        for (j, cell) in self.row.iter_mut().enumerate() {
            *cell = j as f64;
        }
        for (i, &(ax, ay)) in self.a.iter().enumerate() {
            let mut diag = self.row[0];
            self.row[0] = (i + 1) as f64;
            for (j, &(bx, by)) in self.b.iter().enumerate() {
                let best = diag.min(self.row[j]).min(self.row[j + 1]);
                diag = self.row[j + 1];
                self.row[j + 1] = best + (ax - bx).hypot(ay - by);
            }
        }
        std::hint::black_box(self.row[POINTS]);
        t.elapsed().as_secs_f64()
    }

    /// Call between two operations, outside their timed regions: runs a
    /// group of kernels if the last group is old enough.
    pub fn between_operations(&mut self) {
        let now = self.now();
        if now - self.last_group < GROUP_EVERY_SECS {
            return;
        }
        self.last_group = now;
        for _ in 0..RUNS_PER_GROUP {
            let took = self.kernel();
            self.samples.push((now, took));
        }
    }

    /// Median factor over every kernel run so far (`host_speed_factor`,
    /// and what a set-up's seconds are divided by).
    pub fn median_factor(&self) -> f64 {
        let took: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        if took.is_empty() {
            1.0
        } else {
            median(&took) / REFERENCE_SECS
        }
    }

    /// The factor of every bucket; one without a sample takes its
    /// predecessor's (the first, its successor's).
    pub fn factors(&self) -> Factors {
        let buckets = self
            .samples
            .last()
            .map_or(0, |s| (s.0 / BUCKET_SECS) as usize + 1);
        let mut by_bucket: Vec<Vec<f64>> = vec![Vec::new(); buckets];
        for &(t, took) in &self.samples {
            by_bucket[(t / BUCKET_SECS) as usize].push(took);
        }
        let first = by_bucket
            .iter()
            .find(|b| !b.is_empty())
            .map_or(1.0, |b| median(b) / REFERENCE_SECS);
        let mut last = first;
        let factors = by_bucket
            .iter()
            .map(|b| {
                if !b.is_empty() {
                    last = median(b) / REFERENCE_SECS;
                }
                last
            })
            .collect();
        Factors(factors)
    }
}

/// Host-speed factor by half second of a measured phase: above 1 where
/// the host was slower than the reference.
pub struct Factors(Vec<f64>);

impl Factors {
    fn at(&self, t: f64) -> f64 {
        let i = ((t / BUCKET_SECS) as usize).min(self.0.len().saturating_sub(1));
        self.0.get(i).copied().unwrap_or(1.0)
    }

    /// `took` seconds measured from `start` (on the probe's clock), as
    /// they would be on the reference host.
    pub fn normalise(&self, start: f64, took: f64) -> f64 {
        took / self.at(start + took / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bucket without a kernel run takes the factor before it, and a
    /// latency is divided by the factor at its midpoint.
    #[test]
    fn factors_fill_gaps_and_normalise() {
        let mut host = HostSpeed::start();
        host.samples = vec![
            (0.1, REFERENCE_SECS),
            (1.2, 2.0 * REFERENCE_SECS),
            (1.3, 2.0 * REFERENCE_SECS),
        ];
        let f = host.factors();
        assert_eq!(f.0, vec![1.0, 1.0, 2.0]);
        assert_eq!(f.normalise(0.0, 0.2), 0.2);
        assert_eq!(f.normalise(1.1, 0.2), 0.1);
        assert_eq!(f.normalise(9.0, 0.2), 0.1);
        assert_eq!(host.median_factor(), 2.0);
    }
}

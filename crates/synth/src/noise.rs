//! Noise models for the synthetic workload: Gaussian jitter around the
//! ideal trajectory (Pelleg-style, sigma = 5) and Vlachos-style outlier
//! point noise at a controlled fraction.

use rand::Rng;
use strg_graph::Point2;

/// Samples a standard normal variate via the Box–Muller transform.
/// (Implemented here because only `rand` itself is vendored, not
/// `rand_distr`.)
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// Samples a normal variate with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    mean + sigma * standard_normal(rng)
}

/// Adds i.i.d. Gaussian jitter of the given sigma to every point.
pub fn gaussian_jitter<R: Rng + ?Sized>(rng: &mut R, points: &mut [Point2], sigma: f64) {
    for p in points {
        p.x += sigma * standard_normal(rng);
        p.y += sigma * standard_normal(rng);
    }
}

/// Replaces a `frac` fraction of the points with uniform outliers within
/// `amp` pixels of their true position (the Vlachos data set's noise
/// model \[28\]).
pub fn outlier_noise<R: Rng + ?Sized>(rng: &mut R, points: &mut [Point2], frac: f64, amp: f64) {
    for p in points {
        if rng.gen::<f64>() < frac {
            p.x += rng.gen_range(-amp..=amp);
            p.y += rng.gen_range(-amp..=amp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 10.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn jitter_perturbs_all_points_boundedly() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut pts = vec![Point2::new(100.0, 100.0); 200];
        gaussian_jitter(&mut rng, &mut pts, 5.0);
        let moved = pts
            .iter()
            .filter(|p| p.dist(Point2::new(100.0, 100.0)) > 1e-12)
            .count();
        assert!(moved > 190);
        // 6-sigma sanity bound.
        assert!(pts
            .iter()
            .all(|p| p.dist(Point2::new(100.0, 100.0)) < 6.0 * 5.0 * 1.5));
    }

    #[test]
    fn outlier_fraction_respected() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut pts = vec![Point2::ZERO; 10_000];
        outlier_noise(&mut rng, &mut pts, 0.2, 50.0);
        let moved = pts.iter().filter(|p| p.norm() > 1e-12).count();
        let frac = moved as f64 / pts.len() as f64;
        assert!((frac - 0.2).abs() < 0.03, "frac {frac}");
        assert!(pts.iter().all(|p| p.x.abs() <= 50.0 && p.y.abs() <= 50.0));
    }

    #[test]
    fn zero_noise_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut pts = vec![Point2::new(5.0, 5.0); 10];
        outlier_noise(&mut rng, &mut pts, 0.0, 50.0);
        assert!(pts.iter().all(|p| *p == Point2::new(5.0, 5.0)));
        gaussian_jitter(&mut rng, &mut pts, 0.0);
        assert!(pts.iter().all(|p| *p == Point2::new(5.0, 5.0)));
    }
}

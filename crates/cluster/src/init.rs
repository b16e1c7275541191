//! Centroid seeding.
//!
//! All three clusterers seed with k-means++ (distance-weighted) sampling:
//! the first centroid is a uniform random item, each further centroid is
//! drawn with probability proportional to the squared distance to the
//! nearest already-chosen centroid. This is the standard remedy for the
//! local optima that plain random seeding falls into on well-separated
//! groups, and it keeps the EM-vs-KM comparison about the *distance
//! function and model*, not the seeding luck.

use rand::rngs::StdRng;
use rand::Rng;
use strg_distance::{SeqValue, SequenceDistance};
use strg_parallel::{par_map, Threads};

/// k-means++ seeding that keeps what it measured: the chosen indices, and
/// the `m x k` matrix of every item's distance to every chosen seed.
/// `k` is clamped to the data size.
///
/// Each round scans `dist(data[j], data[seed])` for every item `j` — the
/// same function on the same arguments in the same order as
/// [`distance_matrix`] over the seeds — so the matrix is bit-identical to
/// `distance_matrix(data, seeds, dist, threads)`, and a clusterer's first
/// iteration takes it instead of paying its `k · m` calls twice.
pub(crate) fn kmeans_pp_seeds<V: SeqValue, D: SequenceDistance<V> + Sync>(
    data: &[Vec<V>],
    k: usize,
    dist: &D,
    rng: &mut StdRng,
    threads: Threads,
) -> (Vec<usize>, Vec<Vec<f64>>) {
    let m = data.len();
    let k = k.min(m);
    if k == 0 {
        return (Vec::new(), vec![Vec::new(); m]);
    }
    let column = |seed: usize| par_map(data, threads, |y| dist.distance(y, &data[seed]));
    let mut chosen = Vec::with_capacity(k);
    chosen.push(rng.gen_range(0..m));
    let mut columns = vec![column(chosen[0])];
    let mut best_d2: Vec<f64> = columns[0].iter().map(|d| d * d).collect();
    while chosen.len() < k {
        let total: f64 = best_d2.iter().sum();
        let next = if total <= 0.0 {
            // All remaining items coincide with a centroid; fall back to an
            // arbitrary unchosen index.
            (0..m).find(|i| !chosen.contains(i)).unwrap_or(0)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut pick = m - 1;
            for (i, &d2) in best_d2.iter().enumerate() {
                if target < d2 {
                    pick = i;
                    break;
                }
                target -= d2;
            }
            pick
        };
        chosen.push(next);
        let col = column(next);
        for (b, d) in best_d2.iter_mut().zip(&col) {
            *b = b.min(d * d);
        }
        columns.push(col);
    }
    let rows = (0..m)
        .map(|j| columns.iter().map(|col| col[j]).collect())
        .collect();
    (chosen, rows)
}

/// The `m x k` matrix of distances from every item to every centroid, rows
/// fanned out over `threads` workers.
///
/// Row `j` holds `dist(data[j], centroids[c])` for each `c`; rows come back
/// in item order and each row is filled in centroid order, so the matrix is
/// identical to the sequential double loop at any thread count. This is the
/// `O(KM)` hot loop shared by EM, K-Means and K-Harmonic-Means.
pub fn distance_matrix<V: SeqValue, D: SequenceDistance<V> + Sync>(
    data: &[Vec<V>],
    centroids: &[Vec<V>],
    dist: &D,
    threads: Threads,
) -> Vec<Vec<f64>> {
    par_map(data, threads, |y| {
        centroids.iter().map(|mu| dist.distance(y, mu)).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use strg_distance::Eged;

    /// The indices k-means++ picks on one thread.
    fn indices(data: &[Vec<f64>], k: usize, rng: &mut StdRng) -> Vec<usize> {
        kmeans_pp_seeds(data, k, &Eged, rng, Threads::Fixed(1)).0
    }

    fn groups() -> Vec<Vec<f64>> {
        let mut data = Vec::new();
        for i in 0..10 {
            data.push(vec![i as f64 * 0.01]);
        }
        for i in 0..10 {
            data.push(vec![500.0 + i as f64 * 0.01]);
        }
        data
    }

    #[test]
    fn picks_k_distinct_indices() {
        let data = groups();
        let mut rng = StdRng::seed_from_u64(0);
        let idx = indices(&data, 2, &mut rng);
        assert_eq!(idx.len(), 2);
        assert_ne!(idx[0], idx[1]);
    }

    #[test]
    fn spreads_across_separated_groups() {
        let data = groups();
        // Over many seeds, k-means++ must almost always straddle the two
        // groups (probability of failing is ~1e-5 per draw).
        let mut straddles = 0;
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let idx = indices(&data, 2, &mut rng);
            let g = |i: usize| i / 10;
            if g(idx[0]) != g(idx[1]) {
                straddles += 1;
            }
        }
        assert!(straddles >= 19, "straddled only {straddles}/20");
    }

    #[test]
    fn k_clamped_and_degenerate() {
        let data = vec![vec![1.0], vec![1.0]];
        let mut rng = StdRng::seed_from_u64(0);
        let idx = indices(&data, 5, &mut rng);
        assert_eq!(idx.len(), 2);
        let idx = indices(&[], 3, &mut rng);
        assert!(idx.is_empty());
    }

    #[test]
    fn threaded_seeding_matches_sequential() {
        let data = groups();
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let seq = indices(&data, 4, &mut rng);
            for threads in [2, 8] {
                let mut rng = StdRng::seed_from_u64(seed);
                let par = kmeans_pp_seeds(&data, 4, &Eged, &mut rng, Threads::Fixed(threads)).0;
                assert_eq!(seq, par, "seed {seed} threads {threads}");
            }
        }
    }

    /// Four groups of 10 integer-valued sequences of 3–7 elements.
    fn banded() -> Vec<Vec<f64>> {
        (0..40usize)
            .map(|i| {
                (0..3 + i % 5)
                    .map(|t| ((i * 7 + t * 3) % 11) as f64 + (i / 10) as f64 * 20.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn seeding_distances_are_the_seeds_distance_matrix() {
        let data = banded();
        // The indices this seeding chose before it kept its distances.
        for (seed, pinned) in [
            (11u64, [15, 6, 31, 24, 4, 17]),
            (12, [25, 16, 38, 9, 11, 8]),
        ] {
            for threads in [Threads::Fixed(1), Threads::Fixed(8)] {
                let mut rng = StdRng::seed_from_u64(seed);
                let (idx, dists) = kmeans_pp_seeds(&data, 6, &Eged, &mut rng, threads);
                assert_eq!(idx, pinned, "seed {seed} {threads:?}");
                let seeds: Vec<Vec<f64>> = idx.iter().map(|&i| data[i].clone()).collect();
                let want = distance_matrix(&data, &seeds, &Eged, threads);
                let bits = |m: &[Vec<f64>]| -> Vec<Vec<u64>> {
                    m.iter()
                        .map(|r| r.iter().map(|d| d.to_bits()).collect())
                        .collect()
                };
                assert_eq!(bits(&dists), bits(&want), "seed {seed} {threads:?}");
            }
        }
    }

    #[test]
    fn distance_matrix_matches_double_loop() {
        let data = groups();
        let centroids = vec![data[0].clone(), data[15].clone()];
        let seq = distance_matrix(&data, &centroids, &Eged, Threads::Fixed(1));
        let par = distance_matrix(&data, &centroids, &Eged, Threads::Fixed(8));
        for (a, b) in seq.iter().zip(&par) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn identical_items_fall_back_to_unchosen() {
        let data = vec![vec![2.0], vec![2.0], vec![2.0]];
        let mut rng = StdRng::seed_from_u64(1);
        let idx = indices(&data, 3, &mut rng);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "all distinct despite zero distances");
    }
}

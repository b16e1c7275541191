//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **EGED gap policy** — midpoint vs DTW-gap vs constant gap, as the
//!    clustering distance (does the non-metric midpoint gap actually help?);
//! 2. **Index search variant** — exact best-first vs the literal
//!    Algorithm 3 single-cluster descent (cost vs accuracy);
//! 3. **Leaf split policy** — BIC-gated splits vs never-split vs
//!    always-split, measured by query distance computations;
//! 4. **EM restarts** — n_init = 1 vs 3 (how much does seeding luck cost?).
//!
//! ```text
//! cargo run --release -p strg-bench --bin ablation [-- --quick]
//! ```

#![forbid(unsafe_code)]

use strg_bench::report::write_csv;
use strg_bench::Scale;
use strg_cluster::{clustering_error_rate, Clusterer, EmClusterer, EmConfig};
use strg_core::{StrgIndex, StrgIndexConfig};
use strg_distance::{CountingDistance, Dtw, Eged, EgedMetric, SeqValue, SequenceDistance};
use strg_graph::{BackgroundGraph, Point2};
use strg_synth::{generate_for_patterns, generate_total, SynthConfig};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reduced = std::env::args().any(|a| a == "--reduced");
    let scale = if quick {
        Scale::quick()
    } else if reduced {
        Scale::reduced()
    } else {
        Scale::paper()
    };
    gap_policy_ablation(&scale);
    search_variant_ablation(&scale);
    split_policy_ablation(&scale);
    restart_ablation(&scale);
    rtree_similarity_ablation(&scale);
}

/// A named gap policy wrapper so the three variants share one code path.
/// The DTW gap (`g_i` = the opposite node) is DTW itself (DESIGN.md §5).
#[derive(Copy, Clone)]
enum Gap {
    Midpoint,
    Dtw,
    Constant,
}

impl<V: SeqValue> SequenceDistance<V> for Gap {
    fn distance(&self, a: &[V], b: &[V]) -> f64 {
        match self {
            Gap::Midpoint => Eged.distance(a, b),
            Gap::Dtw => Dtw.distance(a, b),
            Gap::Constant => EgedMetric::new().distance(a, b),
        }
    }
    fn name(&self) -> &'static str {
        match self {
            Gap::Midpoint => "midpoint",
            Gap::Dtw => "dtw-gap",
            Gap::Constant => "constant",
        }
    }
}

fn gap_policy_ablation(scale: &Scale) {
    println!("\n=== Ablation 1: EGED gap policy (EM clustering error rate %) ===");
    let patterns = scale.patterns();
    let k = patterns.len();
    let mut rows = Vec::new();
    print!("  {:>8}", "noise %");
    for g in [Gap::Midpoint, Gap::Dtw, Gap::Constant] {
        print!(" {:>10}", SequenceDistance::<Point2>::name(&g));
    }
    println!();
    for &noise in &scale.noise_levels {
        let ds = generate_for_patterns(
            &patterns,
            scale.per_cluster,
            &SynthConfig::with_noise(noise),
            scale.seed,
        );
        let data = ds.series();
        let labels: Vec<u32> = ds
            .items
            .iter()
            .map(|t| patterns.iter().position(|p| p.id == t.label).unwrap() as u32)
            .collect();
        print!("  {:>8.0}", noise * 100.0);
        for g in [Gap::Midpoint, Gap::Dtw, Gap::Constant] {
            let em = EmClusterer::new(g, EmConfig::new(k).with_seed(scale.seed));
            let c = em.fit(&data);
            let err = clustering_error_rate(&c.assignments, &labels, c.k());
            print!(" {:>10.1}", err);
            rows.push(format!(
                "{},{:.0},{:.2}",
                SequenceDistance::<Point2>::name(&g),
                noise * 100.0,
                err
            ));
        }
        println!();
    }
    let p = write_csv(
        "ablation_gap_policy.csv",
        "gap,noise_pct,error_rate_pct",
        &rows,
    );
    println!("  -> {}", p.display());
}

type CountedIndex = (
    StrgIndex<Point2, CountingDistance<EgedMetric<Point2>>>,
    CountingDistance<EgedMetric<Point2>>,
);

fn build_index(
    items: &[(u64, Vec<Point2>)],
    k: usize,
    split_threshold: usize,
    seed: u64,
) -> CountedIndex {
    let cd = CountingDistance::new(EgedMetric::<Point2>::new());
    let mut cfg = StrgIndexConfig::with_k(k);
    cfg.seed = seed;
    cfg.em_max_iters = 10;
    cfg.em_n_init = 1;
    cfg.leaf_split_threshold = split_threshold;
    let mut idx = StrgIndex::new(cd.clone(), cfg);
    idx.add_segment(BackgroundGraph::default(), items.to_vec());
    (idx, cd)
}

fn search_variant_ablation(scale: &Scale) {
    println!("\n=== Ablation 2: exact best-first vs Algorithm-3 single-cluster ===");
    let db = generate_total(
        scale.query_db_size,
        &SynthConfig::with_noise(0.10),
        scale.seed,
    );
    let items: Vec<(u64, Vec<Point2>)> = db
        .series()
        .into_iter()
        .enumerate()
        .map(|(i, s)| (i as u64, s))
        .collect();
    let queries = generate_total(
        scale.queries,
        &SynthConfig::with_noise(0.10),
        scale.seed + 999,
    );
    let (idx, cd) = build_index(&items, 48.min(items.len()), usize::MAX, scale.seed);

    println!(
        "  {:>4} {:>16} {:>16} {:>12}",
        "k", "exact calls", "alg3 calls", "alg3 overlap"
    );
    let mut rows = Vec::new();
    for &k in &scale.ks {
        let mut exact_calls = 0u64;
        let mut alg3_calls = 0u64;
        let mut overlap = 0.0;
        for q in queries.series() {
            cd.reset();
            let exact = idx.knn(&q, k);
            exact_calls += cd.count();
            cd.reset();
            let alg3 = idx.knn_single_cluster(&q, k);
            alg3_calls += cd.count();
            let exact_ids: Vec<u64> = exact.iter().map(|h| h.og_id).collect();
            let inter = alg3.iter().filter(|h| exact_ids.contains(&h.og_id)).count();
            overlap += inter as f64 / k as f64;
        }
        let nq = queries.len() as u64;
        println!(
            "  {:>4} {:>16.1} {:>16.1} {:>11.1}%",
            k,
            exact_calls as f64 / nq as f64,
            alg3_calls as f64 / nq as f64,
            100.0 * overlap / nq as f64
        );
        rows.push(format!(
            "{},{:.1},{:.1},{:.3}",
            k,
            exact_calls as f64 / nq as f64,
            alg3_calls as f64 / nq as f64,
            overlap / nq as f64
        ));
    }
    let p = write_csv(
        "ablation_search_variant.csv",
        "k,exact_calls,alg3_calls,alg3_overlap",
        &rows,
    );
    println!("  -> {}", p.display());
}

fn split_policy_ablation(scale: &Scale) {
    println!("\n=== Ablation 3: leaf split policy (insert-built index, k = 10) ===");
    let n = scale.query_db_size;
    let db = generate_total(n, &SynthConfig::with_noise(0.10), scale.seed + 5);
    let items: Vec<(u64, Vec<Point2>)> = db
        .series()
        .into_iter()
        .enumerate()
        .map(|(i, s)| (i as u64, s))
        .collect();
    let queries = generate_total(
        scale.queries,
        &SynthConfig::with_noise(0.10),
        scale.seed + 1234,
    );

    println!(
        "  {:>14} {:>10} {:>14}",
        "policy", "clusters", "calls/query"
    );
    let mut rows = Vec::new();
    for (name, threshold) in [
        ("never-split", usize::MAX),
        ("bic-32", 32usize),
        ("bic-64", 64usize),
        ("bic-128", 128usize),
    ] {
        // Insert-built: start from one seed cluster, insert everything.
        let cd = CountingDistance::new(EgedMetric::<Point2>::new());
        let mut cfg = StrgIndexConfig::with_k(1);
        cfg.seed = scale.seed;
        cfg.em_max_iters = 8;
        cfg.em_n_init = 1;
        cfg.leaf_split_threshold = threshold;
        let mut idx = StrgIndex::new(cd.clone(), cfg);
        let root = idx.add_segment(BackgroundGraph::default(), Vec::new());
        for (id, s) in &items {
            idx.insert(root, *id, s.clone());
        }
        cd.reset();
        for q in queries.series() {
            let _ = idx.knn(&q, 10);
        }
        let calls = cd.count() as f64 / queries.len() as f64;
        println!("  {:>14} {:>10} {:>14.1}", name, idx.cluster_count(), calls);
        rows.push(format!("{},{},{:.1}", name, idx.cluster_count(), calls));
    }
    let p = write_csv(
        "ablation_split_policy.csv",
        "policy,clusters,calls_per_query",
        &rows,
    );
    println!("  -> {}", p.display());
}

fn restart_ablation(scale: &Scale) {
    println!("\n=== Ablation 4: EM restarts (n_init) ===");
    let patterns = scale.patterns();
    let k = patterns.len();
    let ds = generate_for_patterns(
        &patterns,
        scale.per_cluster,
        &SynthConfig::with_noise(0.15),
        scale.seed,
    );
    let data = ds.series();
    let labels: Vec<u32> = ds
        .items
        .iter()
        .map(|t| patterns.iter().position(|p| p.id == t.label).unwrap() as u32)
        .collect();
    println!(
        "  {:>7} {:>12} {:>14}",
        "n_init", "error %", "log-likelihood"
    );
    let mut rows = Vec::new();
    for n_init in [1usize, 2, 3, 5] {
        let mut cfg = EmConfig::new(k).with_seed(scale.seed);
        cfg.n_init = n_init;
        let em = EmClusterer::new(Eged, cfg);
        let c = em.fit(&data);
        let err = clustering_error_rate(&c.assignments, &labels, c.k());
        println!("  {:>7} {:>12.1} {:>14.1}", n_init, err, c.log_likelihood);
        rows.push(format!("{},{:.2},{:.2}", n_init, err, c.log_likelihood));
    }
    let p = write_csv(
        "ablation_em_restarts.csv",
        "n_init,error_rate_pct,log_likelihood",
        &rows,
    );
    println!("  -> {}", p.display());
}

/// Ablation 5 — the paper's related-work claim: a 3DR-tree (time as a
/// third R-tree dimension) "cannot capture the characteristics of moving
/// objects". We rank database trajectories for each query by (a) 3DR-tree
/// minimum box distance from the query's mid-trajectory point and (b)
/// exact EGED k-NN on the STRG-Index, and compare precision@k against the
/// ground-truth motion patterns.
fn rtree_similarity_ablation(scale: &Scale) {
    use strg_rtree::RTree3;
    println!("\n=== Ablation 5: 3DR-tree box distance vs STRG-Index EGED (precision@k) ===");
    let db = generate_total(
        scale.query_db_size,
        &SynthConfig::with_noise(0.10),
        scale.seed + 9,
    );
    let items: Vec<(u64, Vec<Point2>)> = db
        .series()
        .into_iter()
        .enumerate()
        .map(|(i, s)| (i as u64, s))
        .collect();
    let queries = generate_total(
        scale.queries,
        &SynthConfig::with_noise(0.10),
        scale.seed + 4242,
    );

    // 3DR-tree over all trajectories (all clips start at t = 0, as a
    // similarity query has no anchored wall-clock time).
    let mut rt = RTree3::new();
    for (id, s) in &items {
        let pts: Vec<(f64, f64)> = s.iter().map(|p| (p.x, p.y)).collect();
        rt.insert_trajectory(*id, &pts, 0.0);
    }
    let (strg, _) = build_index(&items, 48.min(items.len()), usize::MAX, scale.seed);

    println!("  {:>4} {:>12} {:>12}", "k", "3DR-tree", "STRG-Index");
    let mut rows = Vec::new();
    for &k in &scale.ks {
        let mut p_rt = 0.0;
        let mut p_strg = 0.0;
        for q in &queries.items {
            let mid = q.points[q.points.len() / 2];
            let t_mid = (q.points.len() / 2) as f64;
            let rt_ids = rt.nearest_ids([mid.x, mid.y, t_mid], k);
            let hit = rt_ids
                .iter()
                .filter(|(id, _)| db.items[*id as usize].label == q.label)
                .count();
            p_rt += hit as f64 / k as f64;
            let strg_ids = strg.knn(&q.points, k);
            let hit = strg_ids
                .iter()
                .filter(|h| db.items[h.og_id as usize].label == q.label)
                .count();
            p_strg += hit as f64 / k as f64;
        }
        let nq = queries.len() as f64;
        println!("  {:>4} {:>12.3} {:>12.3}", k, p_rt / nq, p_strg / nq);
        rows.push(format!("{},{:.4},{:.4}", k, p_rt / nq, p_strg / nq));
    }
    let p = write_csv(
        "ablation_rtree_similarity.csv",
        "k,precision_rtree,precision_strg_index",
        &rows,
    );
    println!("  -> {}", p.display());
}

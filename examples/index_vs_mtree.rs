//! STRG-Index vs M-tree (the Figure 7 comparison, in miniature): index the
//! same synthetic Object Graphs in both structures — with the same metric
//! EGED — and compare the number of distance computations per k-NN query.
//!
//! Run with: `cargo run --release --example index_vs_mtree`

#![forbid(unsafe_code)]

use strg::core::StrgIndex;
use strg::graph::BackgroundGraph;
use strg::prelude::*;

fn main() {
    let n = 1_200;
    println!("generating {n} synthetic object graphs (48 motion patterns)...");
    let ds = generate_total(n, &SynthConfig::with_noise(0.10), 11);
    let items: Vec<(u64, Vec<Point2>)> = ds
        .series()
        .into_iter()
        .enumerate()
        .map(|(i, s)| (i as u64, s))
        .collect();

    // STRG-Index with counted metric EGED.
    let cd = CountingDistance::new(EgedMetric::<Point2>::new());
    let mut cfg = StrgIndexConfig::with_k(48);
    cfg.em_max_iters = 10; // clustering quality saturates early here
    cfg.em_n_init = 1;
    let mut strg_index = StrgIndex::new(cd.clone(), cfg);
    strg_index.add_segment(BackgroundGraph::default(), items.clone());
    let build_calls_strg = cd.count();

    // M-tree baselines under the *same* counted metric.
    let cd_ra = CountingDistance::new(EgedMetric::<Point2>::new());
    let mt_ra = MTree::bulk_insert(cd_ra.clone(), MTreeConfig::random(1), items.clone());
    let build_calls_ra = cd_ra.count();
    let cd_sa = CountingDistance::new(EgedMetric::<Point2>::new());
    let mt_sa = MTree::bulk_insert(cd_sa.clone(), MTreeConfig::sampling(1), items.clone());
    let build_calls_sa = cd_sa.count();

    println!("\nbuild cost (distance computations):");
    println!("  STRG-Index : {build_calls_strg:>9}");
    println!("  MT-RA      : {build_calls_ra:>9}");
    println!("  MT-SA      : {build_calls_sa:>9}");

    // Queries: held-out trajectories.
    let queries = generate_total(20, &SynthConfig::with_noise(0.10), 999);
    println!("\nmean distance computations per k-NN query (20 queries):");
    println!(
        "  {:>4}  {:>12} {:>10} {:>10} {:>12}",
        "k", "STRG-Index", "MT-RA", "MT-SA", "linear scan"
    );
    for k in [5usize, 10, 20, 30] {
        let mut c_strg = 0u64;
        let mut c_ra = 0u64;
        let mut c_sa = 0u64;
        for q in queries.series() {
            cd.reset();
            let _ = strg_index.knn(&q, k);
            c_strg += cd.count();
            cd_ra.reset();
            let _ = mt_ra.knn(&q, k);
            c_ra += cd_ra.count();
            cd_sa.reset();
            let _ = mt_sa.knn(&q, k);
            c_sa += cd_sa.count();
        }
        let m = queries.len() as u64;
        println!(
            "  {:>4}  {:>12} {:>10} {:>10} {:>12}",
            k,
            c_strg / m,
            c_ra / m,
            c_sa / m,
            n
        );
    }

    // Sanity: all three return the same nearest neighbor.
    let q = queries.series()[0].clone();
    let a = strg_index.knn(&q, 1)[0].og_id;
    let b = mt_ra.knn(&q, 1)[0].id;
    let c = mt_sa.knn(&q, 1)[0].id;
    println!("\nnearest neighbor agreement: STRG-Index #{a}, MT-RA #{b}, MT-SA #{c}");
}

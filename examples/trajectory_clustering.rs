//! Trajectory clustering: the Section 4 machinery on the paper's synthetic
//! workload. Generates the 48-pattern data set at two noise levels, runs
//! EM / K-Means / K-Harmonic-Means with EGED, DTW and LCS, reports
//! clustering error rates (Equation 11), and finds the number of clusters
//! with the BIC sweep (§4.2).
//!
//! Run with: `cargo run --release --example trajectory_clustering`

#![forbid(unsafe_code)]

use strg::cluster::Clusterer;
use strg::prelude::*;
use strg::synth::all_patterns;

fn main() {
    // A reduced pattern set keeps the example fast (full sweeps live in
    // the bench harness: `cargo run --release -p strg-bench --bin figures`).
    let patterns: Vec<_> = all_patterns().into_iter().step_by(6).collect();
    let k = patterns.len();
    println!("clustering {k} trajectory patterns, 8 instances each\n");

    for noise in [0.05, 0.25] {
        let ds =
            strg::synth::generate_for_patterns(&patterns, 8, &SynthConfig::with_noise(noise), 1);
        let data = ds.series();
        // Labels must be dense 0..k for the error-rate metric.
        let labels: Vec<u32> = ds
            .items
            .iter()
            .map(|t| patterns.iter().position(|p| p.id == t.label).unwrap() as u32)
            .collect();

        println!("noise {:>2.0}%:", noise * 100.0);
        let em = EmClusterer::new(Eged, EmConfig::new(k).with_seed(3));
        let km = KMeans::new(Eged, HardConfig::new(k).with_seed(3));
        let khm = KHarmonicMeans::new(Eged, HardConfig::new(k).with_seed(3));
        report("EM-EGED ", em.fit(&data), &labels);
        report("KM-EGED ", km.fit(&data), &labels);
        report("KHM-EGED", khm.fit(&data), &labels);
        let em_dtw = EmClusterer::new(Dtw, EmConfig::new(k).with_seed(3));
        let em_lcs = EmClusterer::new(Lcs::new(15.0), EmConfig::new(k).with_seed(3));
        report("EM-DTW  ", em_dtw.fit(&data), &labels);
        report("EM-LCS  ", em_lcs.fit(&data), &labels);
        println!();
    }

    // BIC model selection on a small, well-separated subset.
    let patterns: Vec<_> = all_patterns().into_iter().step_by(12).collect();
    let truth = patterns.len();
    let ds = strg::synth::generate_for_patterns(&patterns, 10, &SynthConfig::with_noise(0.05), 2);
    let (best_k, curve) = bic_sweep(&ds.series(), &Eged, 1..=8, 5);
    println!("BIC sweep over K = 1..8 ({truth} true patterns):");
    for p in &curve {
        let marker = if p.k == best_k { "  <== max" } else { "" };
        println!("  K = {:<2} BIC = {:>12.1}{marker}", p.k, p.bic);
    }
}

fn report(name: &str, c: Clustering<Point2>, labels: &[u32]) {
    let err = clustering_error_rate(&c.assignments, labels, c.k());
    println!(
        "  {name}  error rate {:>5.1}%  ({} iterations)",
        err, c.iterations
    );
}

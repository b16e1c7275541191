//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p strg-bench --bin figures -- all
//! cargo run --release -p strg-bench --bin figures -- fig5 fig7 --quick
//! ```
//!
//! Targets: `fig5 fig6 fig7 fig8 table1 table2 all`. `--quick` runs the
//! smoke-test scale and `--reduced` the reduced paper scale (same sweeps,
//! ~1/3 compute). CSVs are written under `results/`.

#![forbid(unsafe_code)]

use strg_bench::{fig5, fig6, fig7, fig8, report::write_csv, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let reduced = args.iter().any(|a| a == "--reduced");
    let scale = if quick {
        Scale::quick()
    } else if reduced {
        Scale::reduced()
    } else {
        Scale::paper()
    };
    let mut targets: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if targets.is_empty() || targets.contains(&"all") {
        targets = vec!["fig5", "fig6", "fig7", "fig8", "table1", "table2"];
    }

    // fig8/table1/table2 share one expensive video run.
    let needs_video = targets
        .iter()
        .any(|t| matches!(*t, "fig8" | "table1" | "table2"));
    let video = needs_video.then(|| fig8::run(&scale));

    for t in &targets {
        match *t {
            "fig5" => run_fig5(&scale),
            "fig6" => run_fig6(&scale),
            "fig7" => run_fig7(&scale),
            "fig8" => print_fig8(video.as_ref().unwrap()),
            "table1" => print_table1(video.as_ref().unwrap()),
            "table2" => print_table2(video.as_ref().unwrap()),
            other => eprintln!("unknown target: {other}"),
        }
    }
}

fn run_fig5(scale: &Scale) {
    println!("\n=== Figure 5: clustering error rate vs noise ===");
    let rows = fig5::run(scale);
    for algo in fig5::ALGOS {
        println!("\n  ({algo}-EGED vs {algo}-LCS vs {algo}-DTW)");
        print!("  {:>10}", "noise %");
        for d in fig5::DISTS {
            print!(" {:>10}", format!("{algo}-{d}"));
        }
        println!();
        let mut noises: Vec<f64> = rows
            .iter()
            .filter(|r| r.algo == algo)
            .map(|r| r.noise_pct)
            .collect();
        noises.sort_by(f64::total_cmp);
        noises.dedup();
        for n in noises {
            print!("  {:>10.0}", n);
            for d in fig5::DISTS {
                let e = rows
                    .iter()
                    .find(|r| r.algo == algo && r.dist == d && r.noise_pct == n)
                    .map_or(f64::NAN, |r| r.error_rate);
                print!(" {:>10.1}", e);
            }
            println!();
        }
    }
    let csv: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{},{},{:.0},{:.2}",
                r.algo, r.dist, r.noise_pct, r.error_rate
            )
        })
        .collect();
    let p = write_csv(
        "fig5_error_rates.csv",
        "algo,dist,noise_pct,error_rate_pct",
        &csv,
    );
    println!("\n  -> {}", p.display());
}

fn run_fig6(scale: &Scale) {
    println!("\n=== Figure 6: EM-EGED vs KM-EGED vs KHM-EGED ===");
    let f = fig6::run(scale);

    println!("\n  (a) clustering error rate (%) vs noise");
    print_noise_grid(&f.noise, |r| r.error_rate);
    println!("\n  (c) distortion (pixels) vs noise");
    print_noise_grid(&f.noise, |r| r.distortion);

    println!("\n  (b) cluster building time (s) vs iterations");
    print!("  {:>6}", "iters");
    for a in fig6::ALGOS {
        print!(" {:>10}", a);
    }
    println!();
    let mut iters: Vec<usize> = f.time.iter().map(|r| r.iterations).collect();
    iters.sort_unstable();
    iters.dedup();
    for i in iters {
        print!("  {:>6}", i);
        for a in fig6::ALGOS {
            let s = f
                .time
                .iter()
                .find(|r| r.algo == a && r.iterations == i)
                .map_or(f64::NAN, |r| r.seconds);
            print!(" {:>10.3}", s);
        }
        println!();
    }

    let csv: Vec<String> = f
        .noise
        .iter()
        .map(|r| {
            format!(
                "{},{:.0},{:.2},{:.2}",
                r.algo, r.noise_pct, r.error_rate, r.distortion
            )
        })
        .collect();
    write_csv(
        "fig6_noise.csv",
        "algo,noise_pct,error_rate_pct,distortion_px",
        &csv,
    );
    let csv: Vec<String> = f
        .time
        .iter()
        .map(|r| format!("{},{},{:.4}", r.algo, r.iterations, r.seconds))
        .collect();
    let p = write_csv("fig6_time.csv", "algo,iterations,seconds", &csv);
    println!("\n  -> {} (+ fig6_noise.csv)", p.display());
}

fn print_noise_grid(rows: &[fig6::NoiseRow], get: impl Fn(&fig6::NoiseRow) -> f64) {
    print!("  {:>10}", "noise %");
    for a in fig6::ALGOS {
        print!(" {:>10}", format!("{a}-EGED"));
    }
    println!();
    let mut noises: Vec<f64> = rows.iter().map(|r| r.noise_pct).collect();
    noises.sort_by(f64::total_cmp);
    noises.dedup();
    for n in noises {
        print!("  {:>10.0}", n);
        for a in fig6::ALGOS {
            let v = rows
                .iter()
                .find(|r| r.algo == a && r.noise_pct == n)
                .map_or(f64::NAN, &get);
            print!(" {:>10.1}", v);
        }
        println!();
    }
}

fn run_fig7(scale: &Scale) {
    println!("\n=== Figure 7: STRG-Index vs MT-RA vs MT-SA ===");
    let f = fig7::run(scale);

    println!("\n  (a) index building time (s) [distance calls] vs database size");
    print!("  {:>8}", "|DB|");
    for m in fig7::METHODS {
        print!(" {:>24}", m);
    }
    println!();
    let mut sizes: Vec<usize> = f.build.iter().map(|r| r.db_size).collect();
    sizes.sort_unstable();
    sizes.dedup();
    for n in sizes {
        print!("  {:>8}", n);
        for m in fig7::METHODS {
            let r = f
                .build
                .iter()
                .find(|r| r.method == m && r.db_size == n)
                .expect("row");
            print!(" {:>15.2}s [{:>7}]", r.seconds, r.dist_calls);
        }
        println!();
    }

    println!("\n  (b) mean distance computations per k-NN query");
    print!("  {:>6}", "k");
    for m in fig7::METHODS {
        print!(" {:>12}", m);
    }
    println!();
    for &k in &scale.ks {
        print!("  {:>6}", k);
        for m in fig7::METHODS {
            let r = f
                .knn
                .iter()
                .find(|r| r.method == m && r.k == k)
                .expect("row");
            print!(" {:>12.1}", r.dist_calls);
        }
        println!();
    }

    println!("\n  (c) precision@k / recall (cluster-membership relevance)");
    print!("  {:>6}", "k");
    for m in fig7::METHODS {
        print!(" {:>17}", m);
    }
    println!();
    for &k in &scale.ks {
        print!("  {:>6}", k);
        for m in fig7::METHODS {
            let r =
                f.pr.iter()
                    .find(|r| r.method == m && r.k == k)
                    .expect("row");
            print!("   P {:>4.2} R {:>4.2} ", r.precision, r.recall);
        }
        println!();
    }

    let csv: Vec<String> = f
        .build
        .iter()
        .map(|r| {
            format!(
                "{},{},{:.4},{}",
                r.method, r.db_size, r.seconds, r.dist_calls
            )
        })
        .collect();
    write_csv("fig7a_build.csv", "method,db_size,seconds,dist_calls", &csv);
    let csv: Vec<String> = f
        .knn
        .iter()
        .map(|r| format!("{},{},{:.1}", r.method, r.k, r.dist_calls))
        .collect();
    write_csv("fig7b_knn.csv", "method,k,dist_calls_per_query", &csv);
    let csv: Vec<String> =
        f.pr.iter()
            .map(|r| format!("{},{},{:.4},{:.4}", r.method, r.k, r.recall, r.precision))
            .collect();
    let p = write_csv("fig7c_pr.csv", "method,k,recall,precision", &csv);
    println!("\n  -> {} (+ fig7a_build.csv, fig7b_knn.csv)", p.display());
}

fn print_fig8(v: &fig8::VideoRows) {
    println!("\n=== Figure 8: BIC vs number of clusters per video ===");
    let names: Vec<&str> = v.table1.iter().map(|r| r.name.as_str()).collect();
    print!("  {:>4}", "K");
    for n in &names {
        print!(" {:>12}", n);
    }
    println!();
    let mut ks: Vec<usize> = v.bic.iter().map(|r| r.k).collect();
    ks.sort_unstable();
    ks.dedup();
    for k in ks {
        print!("  {:>4}", k);
        for n in &names {
            let b = v
                .bic
                .iter()
                .find(|r| r.name == *n && r.k == k)
                .map_or(f64::NAN, |r| r.bic);
            print!(" {:>12.1}", b);
        }
        println!();
    }
    let csv: Vec<String> = v
        .bic
        .iter()
        .map(|r| format!("{},{},{:.3}", r.name, r.k, r.bic))
        .collect();
    let p = write_csv("fig8_bic.csv", "video,k,bic", &csv);
    println!("\n  -> {}", p.display());
}

fn print_table1(v: &fig8::VideoRows) {
    println!("\n=== Table 1: description of (synthetic) video data ===");
    println!(
        "  {:<10} {:>8} {:>8} {:>12}",
        "Video", "# OGs", "frames", "duration"
    );
    let mut total_ogs = 0;
    let mut total_secs = 0.0;
    for r in &v.table1 {
        println!(
            "  {:<10} {:>8} {:>8} {:>9.1} s",
            r.name, r.n_ogs, r.frames, r.duration_secs
        );
        total_ogs += r.n_ogs;
        total_secs += r.duration_secs;
    }
    println!(
        "  {:<10} {:>8} {:>8} {:>9.1} s",
        "Total", total_ogs, "", total_secs
    );
    let csv: Vec<String> = v
        .table1
        .iter()
        .map(|r| format!("{},{},{},{:.1}", r.name, r.n_ogs, r.frames, r.duration_secs))
        .collect();
    let p = write_csv(
        "table1_videos.csv",
        "video,n_ogs,frames,duration_secs",
        &csv,
    );
    println!("\n  -> {}", p.display());
}

fn print_table2(v: &fig8::VideoRows) {
    println!("\n=== Table 2: error rate, cluster counts and index size ===");
    println!(
        "  {:<10} {:>9} {:>9} {:>7} {:>12} {:>12} {:>7}",
        "Video", "EM-EGED", "optimal", "found", "STRG", "STRG-Idx", "ratio"
    );
    for r in &v.table2 {
        println!(
            "  {:<10} {:>8.1}% {:>9} {:>7} {:>10} B {:>10} B {:>6.1}x",
            r.name,
            r.em_error_pct,
            r.optimal_k,
            r.found_k,
            r.strg_bytes,
            r.index_bytes,
            r.strg_bytes as f64 / r.index_bytes.max(1) as f64
        );
    }
    let csv: Vec<String> = v
        .table2
        .iter()
        .map(|r| {
            format!(
                "{},{:.2},{},{},{},{}",
                r.name, r.em_error_pct, r.optimal_k, r.found_k, r.strg_bytes, r.index_bytes
            )
        })
        .collect();
    let p = write_csv(
        "table2_clustering_size.csv",
        "video,em_error_pct,optimal_k,found_k,strg_bytes,index_bytes",
        &csv,
    );
    println!("\n  -> {}", p.display());
}

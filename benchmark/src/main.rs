//! The STRG-Index benchmark: five workloads (socket-level, library-level,
//! persistence), a brute-force answer check, and a per-layer time budget.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--repeat N]
//! ```
//!
//! The benchmark driver appends `--workload W --seed N --seconds S
//! --trace 0|1` to `BENCHMARK.json`'s `command`, which is why `--seconds`
//! and the valued form of `--trace` exist.
//!
//! Each workload prints its metrics by name with unit and sample count,
//! then one JSON object on a line of its own (`correct`, `attempted`,
//! `failed`, `metrics`), which is the last line of a single-workload run.
//! See `benchmark/README.md` for what every name means.

mod client;
mod corpus;
mod env;
mod hostspeed;
mod layers;
mod oracle;
mod report;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use corpus::{Scale, CORPUS_SEED};
use report::Outcome;
use workloads::{Ctx, Workload};

/// Length of one measured phase; `BENCHMARK.json`'s `run_seconds`.
const RUN_SECONDS: f64 = 10.0;

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
    format!(
        "usage: strg-benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] \
         [--smoke] [--repeat N]\n  workloads: {}",
        names.join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: CORPUS_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
    };
    let mut it = argv.iter().peekable();
    let value = |flag: &str, it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload", &mut it)?;
                let w = workloads::ALL
                    .iter()
                    .find(|w| w.name == name)
                    .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?;
                args.workloads.push(w);
            }
            "--seed" => {
                let v = value("--seed", &mut it)?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: not a number: {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds", &mut it)?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds: not a number: {v:?}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {v}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // Bare `--trace` turns tracing on; the driver passes 0 or 1.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            "--repeat" => {
                let v = value("--repeat", &mut it)?;
                args.repeat = v
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or_else(|| format!("--repeat must be 1..=100, got {v:?}"))?;
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = workloads::ALL.iter().collect();
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Err(msg) = env::refuse_hatches() {
        eprintln!("{msg}");
        return ExitCode::from(2);
    }

    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 1.0 } else { RUN_SECONDS });
    let fingerprint = env::Fingerprint::collect(args.seed, seconds, args.smoke);
    fingerprint.print();
    println!(
        "corpus: {} clips (fixed, seed {CORPUS_SEED}); lib_index: {} trajectories, K={}; \
         request streams drawn from --seed",
        scale.clips, scale.lib_objects, scale.lib_k
    );

    let mut outcomes: Vec<Outcome> = Vec::new();
    for rep in 0..args.repeat {
        for w in &args.workloads {
            let cx = Ctx {
                scale: &scale,
                // Repeats differ in their request streams, as the
                // driver's runs do.
                seed: args.seed.wrapping_add(rep as u64),
                seconds,
                trace: args.trace,
            };
            let outcome = (w.run)(&cx);
            outcome.print();
            let missing = outcome.missing();
            if !missing.is_empty() {
                eprintln!("error: {} did not report {}", w.name, missing.join(", "));
                return ExitCode::from(3);
            }
            println!("{}", outcome.result_line());
            outcomes.push(outcome);
        }
    }

    report::write_latest(&fingerprint, &outcomes);
    report::append_trajectory(&fingerprint, &outcomes);
    if args.repeat > 1 {
        let flagged = report::print_repeat_summary(&outcomes);
        println!("{flagged} metric(s) with a spread above their bound");
    }
    let incorrect: Vec<&str> = outcomes
        .iter()
        .filter(|o| !o.correct())
        .map(|o| o.workload)
        .collect();
    if !incorrect.is_empty() {
        eprintln!(
            "error: wrong, failed or refused operations on {}",
            incorrect.join(", ")
        );
        return ExitCode::from(1);
    }
    // A single-workload run ends on its result line (the driver reads it);
    // anything printed after a multi-workload run is a summary.
    if outcomes.len() > 1 && args.repeat == 1 {
        let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
        println!(
            "all {} workloads correct: {attempted} operations attempted, 0 failed",
            outcomes.len()
        );
    }
    ExitCode::SUCCESS
}

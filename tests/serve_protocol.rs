//! Protocol suite: boots `strg-serve` on an ephemeral port and drives
//! ingest → query → stats over real sockets.
//!
//! Pins the determinism-over-the-wire contract (DESIGN.md §11): a server
//! `result` body is **byte-identical** to the one-shot CLI `--json`
//! output for the same database and parameters — the wall-clock
//! `elapsed_ns` field (normalized by `wire::zero_elapsed_ns`) and the
//! process-local `metrics` snapshot are the only exceptions. CI runs
//! this suite under `STRG_THREADS=1` and `STRG_THREADS=8`.

mod serve_util;

use serve_util::*;
use strg::prelude::*;
use strg::serve::protocol::result_slice;
use strg::serve::{json_parse, wire, ServeConfig};

fn v(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn temp_path(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("strg_serve_proto_{name}_{}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// The full lifecycle over one real TCP connection: ingest, duplicate
/// rejection, k-NN and range queries, stats, server metrics, shutdown.
#[test]
fn ingest_query_stats_over_real_sockets() {
    let db = VideoDatabase::new(DbOptions::new());
    let (handle, join) = boot(db, ServeConfig::default());
    let mut c = Client::connect(handle.addr());

    let r = c.send(
        r#"{"id":1,"method":"ingest","params":{"name":"cam1","scene":"lab","actors":2,"frames":50,"seed":3}}"#,
    );
    assert!(r.starts_with(r#"{"ok":true,"id":1,"#), "{r}");
    let body = result_slice(&r).expect("ingest result");
    assert!(body.starts_with(r#"{"clip":"cam1","frames":"#), "{body}");
    assert!(body.contains(r#""objects":"#), "{body}");

    // Duplicate clip names are rejected with a structured `invalid` error.
    let r = c.send(r#"{"id":2,"method":"ingest","params":{"name":"cam1","scene":"lab"}}"#);
    assert!(r.starts_with(r#"{"ok":false,"id":2,"#), "{r}");
    assert!(r.contains(r#""code":"invalid""#), "{r}");
    assert!(r.contains("already exists"), "{r}");

    // k-NN query: hits plus the per-request cost record.
    let r = c.send(r#"{"id":3,"method":"query","params":{"from":"0,80","to":"160,80","k":3}}"#);
    let body = result_slice(&r).expect("query result");
    assert!(body.starts_with(r#"{"hits":["#), "{body}");
    assert!(body.contains(r#""clip":"cam1""#), "{body}");
    for field in [
        "distance_calls",
        "node_accesses",
        "pruned",
        "lb_pruned",
        "early_abandoned",
        "elapsed_ns",
    ] {
        assert!(body.contains(&format!("\"{field}\":")), "{field} in {body}");
    }

    // Range query: same body shape, radius instead of k.
    let r =
        c.send(r#"{"id":4,"method":"query","params":{"from":"0,80","to":"160,80","radius":1e9}}"#);
    let body = result_slice(&r).expect("range result");
    assert!(body.contains(r#""clip":"cam1""#), "{body}");

    let r = c.send(r#"{"id":5,"method":"stats"}"#);
    let body = result_slice(&r).expect("stats result");
    assert!(body.starts_with(r#"{"clips":1,"#), "{body}");

    // The server's own recorder: connection/request/method counters.
    let r = c.send(r#"{"id":6,"method":"metrics"}"#);
    let body = result_slice(&r).expect("metrics result");
    let metrics = json_parse::parse(body).expect("metrics parse");
    let counters = obj_get(&metrics, "counters");
    assert!(as_u64(obj_get(counters, "serve.requests")) >= 6, "{body}");
    assert!(
        as_u64(obj_get(counters, "serve.method.query")) == 2,
        "{body}"
    );

    let r = c.send(r#"{"id":7,"method":"shutdown"}"#);
    assert!(r.contains("shutting down"), "{r}");
    join.join().unwrap().unwrap();
}

/// Regression: `parse_point` took whatever `f64::from_str` does and `steps`
/// had no upper bound, so `nan`/`inf`/`1e999` coordinates reached the
/// distance kernel and `"steps":100000000000` asked for a 1.6 TB trajectory
/// (aborting the server). Each is refused with `invalid` — alone and as one
/// member of a `query_batch` — and the connection keeps answering; so is a
/// radius that overflows to infinity.
#[test]
fn non_finite_and_unbounded_query_input_is_refused() {
    let (handle, join) = boot(two_clip_db(), ServeConfig::default());
    let mut c = Client::connect(handle.addr());
    let good = r#"{"from":"0,80","to":"160,80","k":3}"#;
    let bad = [
        r#"{"from":"nan,0","to":"160,80","k":3}"#,
        r#"{"from":"inf,0","to":"160,80","k":3}"#,
        r#"{"from":"0,80","to":"1e999,0","k":3}"#,
        r#"{"from":"0,80","to":"160,80","steps":100000000000,"k":3}"#,
        r#"{"from":"0,80","to":"160,80","steps":4097,"k":3}"#,
        r#"{"from":"0,80","to":"160,80","radius":1e999}"#,
        r#"{"from":"0,80","to":"160,80","radius":-1e999}"#,
    ];
    for (i, params) in bad.iter().enumerate() {
        let r = c.send(&format!(
            r#"{{"id":{i},"method":"query","params":{params}}}"#
        ));
        assert!(r.starts_with(r#"{"ok":false,"#), "{params}: {r}");
        assert!(r.contains(r#""code":"invalid""#), "{params}: {r}");
        let r = c.send(&format!(
            r#"{{"id":{i},"method":"query_batch","params":{{"queries":[{good},{params}]}}}}"#
        ));
        assert!(r.starts_with(r#"{"ok":false,"#), "batch {params}: {r}");
        assert!(r.contains(r#""code":"invalid""#), "batch {params}: {r}");
        // The same connection still answers a valid query.
        let r = c.send(&format!(r#"{{"id":99,"method":"query","params":{good}}}"#));
        let body = result_slice(&r).expect("query result after a refusal");
        assert!(body.starts_with(r#"{"hits":[{"#), "{body}");
    }
    // The bound itself is accepted.
    let r = c.send(
        r#"{"id":7,"method":"query","params":{"from":"0,80","to":"160,80","steps":4096,"k":1}}"#,
    );
    assert!(result_slice(&r).is_some(), "{r}");
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// `"frames":100000000000` asked the allocator for 3.5 TB of scene and
/// `"actors":100000000000` for one sprite path each (both aborted the
/// server); a clip name with a line break would split the CLI's
/// one-hit-per-line output. Each is refused with `invalid` before anything
/// is built or saved, and the same connection still answers `ping`.
#[test]
fn unbounded_and_unnameable_ingests_are_refused() {
    let srv_db = temp_path("refused_ingest");
    let _ = std::fs::remove_file(&srv_db);
    let (handle, join) = boot(
        VideoDatabase::new(DbOptions::new()),
        ServeConfig {
            db_path: Some(srv_db.clone()),
            ..ServeConfig::default()
        },
    );
    let mut c = Client::connect(handle.addr());
    let long_name = format!(r#""name":"{}","frames":24"#, "n".repeat(256));
    let bad = [
        r#""name":"x","frames":100000000000"#,
        r#""name":"x","frames":4097"#,
        r#""name":"x","frames":0"#,
        r#""name":"x","frames":24,"actors":100000000000"#,
        r#""name":"x","frames":24,"actors":65"#,
        r#""name":"cam\nshards 0","frames":24"#,
        r#""name":"cam\r","frames":24"#,
        r#""name":"cam\u0000","frames":24"#,
        r#""name":"","frames":24"#,
        long_name.as_str(),
    ];
    for (i, params) in bad.iter().enumerate() {
        let r = c.send(&format!(
            r#"{{"id":{i},"method":"ingest","params":{{"scene":"lab",{params}}}}}"#
        ));
        assert!(r.starts_with(r#"{"ok":false,"#), "{params}: {r}");
        assert!(r.contains(r#""code":"invalid""#), "{params}: {r}");
        let r = c.send(r#"{"id":99,"method":"ping"}"#);
        assert_eq!(result_slice(&r), Some(r#""pong""#), "after {params}: {r}");
    }
    let r = c.send(r#"{"id":100,"method":"stats"}"#);
    let body = result_slice(&r).expect("stats result");
    assert!(body.starts_with(r#"{"clips":0,"#), "{body}");
    assert!(
        !std::path::Path::new(&srv_db).exists(),
        "a refused ingest saved"
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// The determinism-over-the-wire contract, byte for byte:
/// * an ingest body from the server equals the CLI `--json` output for
///   the same parameters (metrics stripped — it is process-local);
/// * query bodies for a database *loaded from the CLI's own file* equal
///   the CLI's, with only `elapsed_ns` normalized;
/// * the database the server saved on ingest round-trips to the same
///   stats as the CLI's file.
#[test]
fn server_bodies_match_cli_json_byte_for_byte() {
    let cli_db = temp_path("cli");
    let srv_db = temp_path("srv");
    let _ = std::fs::remove_file(&cli_db);
    let _ = std::fs::remove_file(&srv_db);

    // CLI side: two clips into a file database, all outputs captured.
    let cli_ing1 = strg_cli::run(&v(&[
        "ingest", "--db", &cli_db, "--scene", "lab", "--name", "cam0", "--actors", "2", "--frames",
        "50", "--seed", "3", "--json",
    ]))
    .expect("cli ingest cam0");
    strg_cli::run(&v(&[
        "ingest", "--db", &cli_db, "--scene", "traffic", "--name", "cam1", "--actors", "2",
        "--frames", "50", "--seed", "7", "--json",
    ]))
    .expect("cli ingest cam1");
    let cli_knn = strg_cli::run(&v(&[
        "query", "--db", &cli_db, "--from", "0,80", "--to", "160,80", "-k", "4", "--json",
    ]))
    .expect("cli knn");
    let cli_range = strg_cli::run(&v(&[
        "query", "--db", &cli_db, "--from", "0,80", "--to", "160,80", "--radius", "900", "--json",
    ]))
    .expect("cli range");
    let cli_clip = strg_cli::run(&v(&[
        "query", "--db", &cli_db, "--from", "0,80", "--to", "160,80", "-k", "2", "--clip", "cam0",
        "--json",
    ]))
    .expect("cli clip query");
    let cli_stats = strg_cli::run(&v(&["stats", "--db", &cli_db, "--json"])).expect("cli stats");

    // Server A: fresh database, same ingest over the socket; the body
    // must match the CLI's ingest output (metrics stripped).
    let (handle, join) = boot(
        VideoDatabase::new(DbOptions::new()),
        ServeConfig {
            db_path: Some(srv_db.clone()),
            ..Default::default()
        },
    );
    let mut c = Client::connect(handle.addr());
    let r = c.send(
        r#"{"id":1,"method":"ingest","params":{"name":"cam0","scene":"lab","actors":2,"frames":50,"seed":3}}"#,
    );
    let srv_ing1 = result_slice(&r).expect("ingest body").to_string();
    assert_eq!(
        strip_metrics(&srv_ing1),
        strip_metrics(&cli_ing1),
        "ingest body: server vs CLI"
    );
    c.send(
        r#"{"id":2,"method":"ingest","params":{"name":"cam1","scene":"traffic","actors":2,"frames":50,"seed":7}}"#,
    );
    c.send(r#"{"method":"shutdown"}"#);
    join.join().unwrap().unwrap();

    // The file the server saved holds the same database as the CLI's.
    let srv_stats = strg_cli::run(&v(&["stats", "--db", &srv_db, "--json"]))
        .expect("stats over the server-saved file");
    assert_eq!(
        strip_metrics(&srv_stats),
        strip_metrics(&cli_stats),
        "server-saved file vs CLI file"
    );

    // Server B: serves the CLI's own file; query bodies must be the very
    // same bytes the CLI printed (elapsed_ns normalized).
    let db = VideoDatabase::load(&cli_db, DbOptions::new()).expect("load cli db");
    let (handle, join) = boot(db, ServeConfig::default());
    let mut c = Client::connect(handle.addr());
    for (req, cli_out, what) in [
        (
            r#"{"id":10,"method":"query","params":{"from":"0,80","to":"160,80","k":4}}"#,
            &cli_knn,
            "knn",
        ),
        (
            r#"{"id":11,"method":"query","params":{"from":"0,80","to":"160,80","radius":900}}"#,
            &cli_range,
            "range",
        ),
        (
            r#"{"id":12,"method":"query","params":{"from":"0,80","to":"160,80","k":2,"clip":"cam0"}}"#,
            &cli_clip,
            "clip-filtered",
        ),
    ] {
        let r = c.send(req);
        let body = result_slice(&r).unwrap_or_else(|| panic!("{what}: no result in {r}"));
        assert_eq!(
            wire::zero_elapsed_ns(body),
            wire::zero_elapsed_ns(cli_out),
            "{what} body: server vs CLI"
        );
    }
    let r = c.send(r#"{"id":13,"method":"stats"}"#);
    let body = result_slice(&r).expect("stats body");
    assert_eq!(
        strip_metrics(body),
        strip_metrics(&cli_stats),
        "stats body: server vs CLI"
    );
    c.send(r#"{"method":"shutdown"}"#);
    join.join().unwrap().unwrap();

    let _ = std::fs::remove_file(&cli_db);
    let _ = std::fs::remove_file(&srv_db);
}

/// Query bodies (hits *and* every cost work field) are bit-identical
/// whether the database and the server pool run 1 thread or 8.
#[test]
fn query_bodies_identical_across_thread_counts() {
    let body_at = |n: usize| {
        let db = VideoDatabase::new(DbOptions::new().threads(Threads::Fixed(n)));
        ingest_scene(&db, "lab", "cam0", 3);
        ingest_scene(&db, "traffic", "cam1", 7);
        let (handle, join) = boot(
            db,
            ServeConfig {
                threads: Threads::Fixed(n),
                ..Default::default()
            },
        );
        let r = call(
            handle.addr(),
            r#"{"id":1,"method":"query","params":{"from":"0,80","to":"160,80","k":5}}"#,
        );
        let body = wire::zero_elapsed_ns(result_slice(&r).expect("query body"));
        call(handle.addr(), r#"{"method":"shutdown"}"#);
        join.join().unwrap().unwrap();
        body
    };
    assert_eq!(body_at(1), body_at(8), "1-thread vs 8-thread wire bytes");
}

//! Command implementations of the `strgdb` CLI.
//!
//! The binary is a thin wrapper over these functions so that every command
//! is unit-testable. The database file format is `strg-core`'s STRGDB
//! (see `strg_core::persist`).
//!
//! JSON output goes through `strg_serve::wire` — the same renderers the
//! query server uses — so `--json` bodies and server `result` bodies are
//! byte-identical by construction (DESIGN.md §11). `serve` runs the
//! long-lived server; `send` is the matching one-shot client for
//! scripting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::path::Path;

use strg_core::{Database, DbOptions, Query, VideoDatabase};
use strg_graph::Point2;
use strg_serve::{wire, ServeConfig, Server};

/// A CLI error: message for the user, non-zero exit.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("i/o error: {e}"))
    }
}

/// Result alias for command functions; `Ok` carries the text to print.
pub type CmdResult = Result<String, CliError>;

/// Usage text.
pub const USAGE: &str = "\
strgdb — STRG-Index video database CLI

USAGE:
  strgdb ingest --db <path> --scene <lab|traffic> --name <name>
                [--actors N] [--frames N] [--seed N] [--shards N] [--json]
  strgdb query  --db <path> --from <x,y> --to <x,y> [--steps N]
                [-k N | --radius R] [--clip <name>] [--json]
  strgdb query  --db <path> --batch-file <file> [--json]
  strgdb stats  --db <path> [--json]
  strgdb clips  --db <path>
  strgdb remove --db <path> --clip <name>
  strgdb serve  --db <path> [--port N] [--max-queue N] [--port-file <file>]
                [--shards N] [--coalesce-ms N] [--max-batch N]
  strgdb send   --addr <host:port> --req '<json request line>'

Creates <path> on first ingest; later commands load and (for mutations)
rewrite it. `--frames N` bounds when the scene's actors may start, not
the clip's length: the clip ends when the last actor leaves the scene,
so it may be shorter or longer than N frames (`ingest` reports its
length). `--shards N` (first ingest/serve on a fresh path, N > 1)
creates a sharded database — N independent STRG-Index trees behind
deterministic hash-of-name clip routing, saved as a directory holding
one STRGDB file; an existing database keeps its on-disk layout (a file
stays a file) and shard count. `--json` switches ingest/query/stats to
machine-readable output, including the per-query cost record and the
database's metrics snapshot (same serialization as
`VideoDatabase::metrics_snapshot`). `serve` answers the same shapes over
newline-delimited JSON on TCP (port 0 picks an ephemeral port;
`--port-file` records the bound address); `send` writes one request line
and prints the response. `--batch-file` executes many queries in one
call, identical ones once: one JSON object per line (`{\"from\":\"x,y\",
\"to\":\"x,y\",\"steps\":N,\"k\":N|\"radius\":R,\"clip\":name}` — the
same grammar as the server's `query_batch` elements; blank lines and
`#` comments skipped), each answered byte-identically to running it
alone. `serve --coalesce-ms N` groups single queries arriving within the
window into one batch (`--max-batch` caps the width).";

/// Simple `--flag value` argument map.
pub struct Args<'a> {
    rest: &'a [String],
}

/// True when `s` is a flag token rather than a value: `--long` or a short
/// `-x` switch. A lone `-` and negative numbers (`-5,3`) are values.
fn looks_like_flag(s: &str) -> bool {
    s.starts_with("--") || (s.len() > 1 && s.starts_with('-') && !s.as_bytes()[1].is_ascii_digit())
}

impl<'a> Args<'a> {
    /// Wraps the argument slice (without the subcommand).
    pub fn new(rest: &'a [String]) -> Self {
        Self { rest }
    }

    /// The value after `flag`. Absence is `Ok(None)`; a flag that is
    /// present but has nothing after it — or is followed by another flag
    /// token rather than a value (`serve --port --max-queue 5`) — is an
    /// error, not a silent absence (otherwise `strgdb query ... -k` would
    /// quietly fall back to the default instead of telling the user their
    /// value went missing).
    pub fn get(&self, flag: &str) -> Result<Option<&'a str>, CliError> {
        match self.rest.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => match self.rest.get(i + 1) {
                Some(v) if !looks_like_flag(v) => Ok(Some(v.as_str())),
                _ => Err(CliError(format!("flag {flag} expects a value"))),
            },
        }
    }

    /// True when the bare switch `flag` appears (no value expected).
    pub fn has(&self, flag: &str) -> bool {
        self.rest.iter().any(|a| a == flag)
    }

    /// Required flag value.
    pub fn require(&self, flag: &str) -> Result<&'a str, CliError> {
        self.get(flag)?
            .ok_or_else(|| CliError(format!("missing required flag {flag}")))
    }

    /// Parsed optional flag with default.
    pub fn parse_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        match self.get(flag)? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("bad value for {flag}: {v:?}"))),
        }
    }
}

/// Opens (or creates) the database at `path` via [`strg_core::open`]: a
/// STRGDB file, or the one file of a database directory, loads with the
/// shard count it stores, and a fresh path creates `--shards` shards.
fn open_db(path: &str, args: &Args) -> Result<VideoDatabase, CliError> {
    let shards: usize = args.parse_or("--shards", 1)?;
    strg_core::open(path, DbOptions::new().shards(shards))
        .map_err(|e| CliError(format!("cannot open {path}: {e}")))
}

fn parse_point(s: &str) -> Result<Point2, CliError> {
    wire::parse_point(s).map_err(CliError)
}

/// `strgdb ingest`.
pub fn cmd_ingest(args: &Args) -> CmdResult {
    let db_path = args.require("--db")?;
    let scene_kind = args.require("--scene")?;
    let name = args.require("--name")?;
    let actors: usize = args.parse_or("--actors", 4)?;
    let frames: usize = args.parse_or("--frames", 120)?;
    let seed: u64 = args.parse_or("--seed", 0)?;

    let clip = wire::make_clip(scene_kind, name, actors, frames, seed).map_err(CliError)?;
    let db = open_db(db_path, args)?;
    if db.clip_names().iter().any(|n| n == name) {
        return Err(CliError(format!("clip {name:?} already exists")));
    }
    let report = db.ingest_clip(&clip, seed);
    db.save(Path::new(db_path))?;
    if args.has("--json") {
        return Ok(wire::ingest_json(
            name,
            clip.frame_count(),
            &report,
            db.metrics_snapshot().to_json(),
        )
        .render());
    }
    Ok(format!(
        "ingested {:?}: {} frames, {} objects, background {} regions -> {}",
        name,
        clip.frame_count(),
        report.objects,
        report.background_nodes,
        db_path
    ))
}

/// `strgdb query` with `--batch-file`: many queries, one
/// [`Database::query_batch`] call. The file holds one query-spec object per
/// line — the same grammar as the server's `query_batch` elements, parsed
/// by the same [`wire::parse_query_spec`] — so `--json` output is
/// byte-identical to the server's `query_batch` result body.
fn cmd_query_batch(args: &Args, db_path: &str, file: &str) -> CmdResult {
    for flag in ["--from", "--to", "--steps", "-k", "--radius", "--clip"] {
        if args.has(flag) {
            return Err(CliError(format!(
                "{flag} cannot be combined with --batch-file (put it in the file)"
            )));
        }
    }
    let text =
        std::fs::read_to_string(file).map_err(|e| CliError(format!("cannot read {file}: {e}")))?;
    let mut specs = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parsed = strg_serve::json_parse::parse(line)
            .map_err(|e| CliError(format!("{file}:{}: {e}", ln + 1)))?;
        let strg_obs::Json::Object(pairs) = parsed else {
            return Err(CliError(format!(
                "{file}:{}: each line must be a JSON object",
                ln + 1
            )));
        };
        let spec = wire::parse_query_spec(&strg_serve::protocol::Params::new(&pairs))
            .map_err(|e| CliError(format!("{file}:{}: {}", ln + 1, e.message)))?;
        specs.push(spec);
    }
    if specs.is_empty() {
        return Err(CliError(format!("{file} holds no queries")));
    }
    let db = open_db(db_path, args)?;
    let trajectories: Vec<_> = specs.iter().map(|s| s.trajectory()).collect();
    let queries: Vec<Query<'_>> = specs
        .iter()
        .zip(&trajectories)
        .map(|(s, t)| s.to_query(t))
        .collect();
    let results = db.query_batch(&queries);
    if args.has("--json") {
        return Ok(wire::query_batch_json(&results).render());
    }
    let mut out = String::new();
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let _ = writeln!(out, "query {}:", i + 1);
        if r.hits.is_empty() {
            let _ = writeln!(out, "  no results");
        } else {
            for h in &r.hits {
                let _ = writeln!(out, "  {:<12} {:>6} {:>12.1}", h.clip, h.og_id, h.dist);
            }
        }
        let cost = r.cost.as_ref().expect("batch queries request cost");
        let _ = writeln!(
            out,
            "  ({} distance calls, {} node accesses, {} pruned, {} batch-shared)",
            cost.distance_calls, cost.node_accesses, cost.pruned, cost.batch_shared_accesses
        );
    }
    Ok(out.trim_end().to_string())
}

/// `strgdb query`.
pub fn cmd_query(args: &Args) -> CmdResult {
    let db_path = args.require("--db")?;
    if let Some(file) = args.get("--batch-file")? {
        return cmd_query_batch(args, db_path, file);
    }
    let from = parse_point(args.require("--from")?)?;
    let to = parse_point(args.require("--to")?)?;
    let steps = wire::check_steps(args.parse_or("--steps", 30u64)?)
        .map_err(|e| CliError(format!("--{e}")))?;
    let radius = match args.get("--radius")? {
        None => None,
        Some(v) => {
            let r: f64 = v
                .parse()
                .map_err(|_| CliError(format!("bad value for --radius: {v:?}")))?;
            Some(wire::check_radius(r).map_err(|e| CliError(format!("--{e}")))?)
        }
    };
    if radius.is_some() && args.get("-k")?.is_some() {
        return Err(CliError(
            "give -k (knn) or --radius (range), not both".into(),
        ));
    }
    let k: usize = args.parse_or("-k", 5)?;

    let db = open_db(db_path, args)?;
    let query = wire::lerp_trajectory(from, to, steps);
    let mut q = match radius {
        Some(r) => Query::range(r),
        None => Query::knn(k),
    }
    .trajectory(&query)
    .with_cost();
    if let Some(clip) = args.get("--clip")? {
        q = q.in_clip(clip);
    }
    let result = db.query(q);
    if args.has("--json") {
        return Ok(wire::query_json(&result).render());
    }
    if result.hits.is_empty() {
        return Ok("no results".into());
    }
    let mut out = String::new();
    let _ = writeln!(out, "{:<12} {:>6} {:>12}", "clip", "og", "distance");
    for h in &result.hits {
        let _ = writeln!(out, "{:<12} {:>6} {:>12.1}", h.clip, h.og_id, h.dist);
    }
    let cost = result.cost.expect("with_cost() requested it");
    let _ = write!(
        out,
        "({} distance calls, {} node accesses, {} pruned, {} lb-pruned, {} early-abandoned)",
        cost.distance_calls, cost.node_accesses, cost.pruned, cost.lb_pruned, cost.early_abandoned
    );
    Ok(out.trim_end().to_string())
}

/// `strgdb stats`.
pub fn cmd_stats(args: &Args) -> CmdResult {
    let db_path = args.require("--db")?;
    let db = open_db(db_path, args)?;
    let s = db.stats();
    if args.has("--json") {
        return Ok(wire::stats_json(
            &s,
            &db.shard_stats(),
            &db.persist_info(),
            db.metrics_snapshot().to_json(),
        )
        .render());
    }
    // Cumulative kernel counters for this process's queries (counters are
    // in-memory, so a freshly loaded database reports zeros).
    let snap = db.metrics_snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let calls = c("query.knn.distance_calls") + c("query.range.distance_calls");
    let lb = c("query.knn.lb_pruned") + c("query.range.lb_pruned");
    let ea = c("query.knn.early_abandoned") + c("query.range.early_abandoned");
    let p = db.persist_info();
    let mut out = format!(
        "clips {}  objects {}  clusters {}  raw-STRG {} B  index {} B ({:.1}x smaller)\n\
         persist: format v{} reopen {}\n\
         kernels: {} distance calls, {} lb-pruned, {} early-abandoned (cumulative)",
        s.clips,
        s.objects,
        s.clusters,
        s.strg_bytes,
        s.index_bytes,
        s.strg_bytes as f64 / s.index_bytes.max(1) as f64,
        p.format(),
        p.reopen.as_str(),
        calls,
        lb,
        ea,
    );
    // A sharded database also reports its per-shard breakdown.
    if db.shard_count() > 1 {
        for (i, ss) in db.shard_stats().iter().enumerate() {
            let _ = write!(
                out,
                "\nshard {i}: clips {}  objects {}  clusters {}",
                ss.clips, ss.objects, ss.clusters
            );
        }
    }
    Ok(out)
}

/// `strgdb clips`.
pub fn cmd_clips(args: &Args) -> CmdResult {
    let db_path = args.require("--db")?;
    let db = open_db(db_path, args)?;
    let names = db.clip_names();
    if names.is_empty() {
        return Ok("no clips".into());
    }
    Ok(names.join("\n"))
}

/// `strgdb remove`.
pub fn cmd_remove(args: &Args) -> CmdResult {
    let db_path = args.require("--db")?;
    let clip = args.require("--clip")?;
    let db = open_db(db_path, args)?;
    match db.remove_clip(clip) {
        Some(n) => {
            db.save(Path::new(db_path))?;
            Ok(format!("removed {clip:?} ({n} objects)"))
        }
        None => Err(CliError(format!("unknown clip {clip:?}"))),
    }
}

/// `strgdb serve`: the long-running query server (DESIGN.md §11).
///
/// Binds `127.0.0.1:<--port>` (default 4321; port 0 picks an ephemeral
/// port), optionally records the bound address into `--port-file` for
/// scripting, prints a banner, and blocks until a `shutdown` request
/// arrives. Worker-pool size follows `STRG_THREADS`.
pub fn cmd_serve(args: &Args) -> CmdResult {
    let db_path = args.require("--db")?;
    let port: u16 = args.parse_or("--port", 4321)?;
    let max_queue: usize = args.parse_or("--max-queue", 64)?;
    if max_queue == 0 {
        return Err(CliError("--max-queue must be at least 1".into()));
    }
    let max_batch: usize = args.parse_or("--max-batch", 256)?;
    if max_batch == 0 {
        return Err(CliError("--max-batch must be at least 1".into()));
    }
    let coalesce_ms: u64 = args.parse_or("--coalesce-ms", 0)?;
    let db = open_db(db_path, args)?;
    let cfg = ServeConfig {
        max_queue,
        db_path: Some(db_path.to_string()),
        max_batch,
        coalesce_window: (coalesce_ms > 0).then(|| std::time::Duration::from_millis(coalesce_ms)),
        ..Default::default()
    };
    let server = Server::bind(("127.0.0.1", port), db, cfg)
        .map_err(|e| CliError(format!("cannot bind 127.0.0.1:{port}: {e}")))?;
    let addr = server.local_addr();
    if let Some(path) = args.get("--port-file")? {
        std::fs::write(path, format!("{addr}\n"))?;
    }
    // Print before blocking so scripts piping stdout learn the address.
    let mut stdout = std::io::stdout();
    let _ = writeln!(stdout, "strgdb serving {db_path} on {addr}");
    let _ = stdout.flush();
    server.run()?;
    Ok("server stopped".into())
}

/// `strgdb send`: one-shot protocol client — writes one request line to a
/// running server and prints the response line.
pub fn cmd_send(args: &Args) -> CmdResult {
    let addr = args.require("--addr")?;
    let req = args.require("--req")?;
    if req.contains('\n') {
        return Err(CliError("--req must be a single line".into()));
    }
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| CliError(format!("cannot connect to {addr}: {e}")))?;
    // One segment, sent at once: a separate newline write would wait on
    // Nagle's algorithm for the server's delayed ACK.
    stream.set_nodelay(true)?;
    stream.write_all(format!("{req}\n").as_bytes())?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    if line.is_empty() {
        return Err(CliError(
            "server closed the connection without a response".into(),
        ));
    }
    Ok(line.trim_end().to_string())
}

/// Dispatches a full argument vector (without `argv[0]`).
pub fn run(argv: &[String]) -> CmdResult {
    let Some(cmd) = argv.first() else {
        return Err(CliError(USAGE.into()));
    };
    let args = Args::new(&argv[1..]);
    match cmd.as_str() {
        "ingest" => cmd_ingest(&args),
        "query" => cmd_query(&args),
        "stats" => cmd_stats(&args),
        "clips" => cmd_clips(&args),
        "remove" => cmd_remove(&args),
        "serve" => cmd_serve(&args),
        "send" => cmd_send(&args),
        "help" | "--help" | "-h" => Ok(USAGE.into()),
        other => Err(CliError(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn temp_db(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("strgdb_cli_{name}_{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn args_parsing() {
        let raw = v(&["--db", "x.db", "-k", "7", "--json"]);
        let a = Args::new(&raw);
        assert_eq!(a.get("--db").unwrap(), Some("x.db"));
        assert_eq!(a.parse_or("-k", 5).unwrap(), 7);
        assert_eq!(a.parse_or("--steps", 30).unwrap(), 30);
        assert!(a.require("--nope").is_err());
        assert!(a.parse_or::<usize>("--db", 1).is_err());
        assert!(a.has("--json"));
        assert!(!a.has("--quiet"));
    }

    /// Regression: a flag sitting at the end of the argument list with no
    /// value used to be indistinguishable from an absent flag, so
    /// `parse_or` silently returned the default. It must be an error.
    #[test]
    fn trailing_flag_without_value_is_an_error() {
        let raw = v(&["--db", "x.db", "-k"]);
        let a = Args::new(&raw);
        assert!(a.get("-k").is_err());
        assert!(a.parse_or("-k", 5usize).is_err());
        assert!(a.require("-k").is_err());
        // A present-and-valued flag still parses.
        assert_eq!(a.require("--db").unwrap(), "x.db");
        // And a genuinely absent flag still falls back to the default.
        assert_eq!(a.parse_or("--steps", 30usize).unwrap(), 30);
    }

    /// Regression (PR 6): serve-mode flags must share that error path. A
    /// flag directly followed by *another flag* used to swallow the flag
    /// token as its value (`serve --port --max-queue 5` parsed as
    /// `--port="--max-queue"`); it must be the same "expects a value"
    /// error as the trailing case.
    #[test]
    fn flag_followed_by_flag_is_an_error() {
        let raw = v(&["--db", "x.db", "--port", "--max-queue", "5"]);
        let a = Args::new(&raw);
        let err = a.get("--port").unwrap_err();
        assert!(err.0.contains("--port expects a value"), "{err}");
        assert_eq!(a.parse_or("--max-queue", 64usize).unwrap(), 5);
        // Negative numbers are values, not flags.
        let raw = v(&["--from", "-5,3", "--to", "-1,-2"]);
        let a = Args::new(&raw);
        assert_eq!(a.get("--from").unwrap(), Some("-5,3"));
        assert_eq!(a.get("--to").unwrap(), Some("-1,-2"));
        // A lone dash is a value (conventionally stdin), `-k` is a flag.
        assert!(!looks_like_flag("-"));
        assert!(looks_like_flag("-k"));
        assert!(looks_like_flag("--radius"));
        assert!(!looks_like_flag("-9"));
    }

    #[test]
    fn serve_flag_validation() {
        // The serve flags go through the same strict Args layer.
        assert!(run(&v(&["serve", "--db", "x.db", "--port"])).is_err());
        assert!(run(&v(&["serve", "--db", "x.db", "--port", "70000"])).is_err());
        assert!(run(&v(&["serve", "--db", "x.db", "--max-queue", "0"])).is_err());
        assert!(run(&v(&["send", "--addr"])).is_err());
        assert!(run(&v(&["send", "--addr", "127.0.0.1:1", "--req", "a\nb"])).is_err());
    }

    /// Regression: `--from nan,0`, `--from inf,0` and an absurd `--steps`
    /// used to reach the distance kernel (or a 1.6 TB allocation); each is
    /// an argument error before the database is even opened.
    #[test]
    fn query_flag_validation() {
        let query = |from: &str, steps: &str| {
            run(&v(&[
                "query",
                "--db",
                "no-such.db",
                "--from",
                from,
                "--to",
                "160,60",
                "--steps",
                steps,
            ]))
        };
        for from in ["nan,0", "inf,0", "1e999,0"] {
            let err = query(from, "30").unwrap_err();
            assert!(err.0.contains("must be finite"), "{err}");
        }
        let err = query("0,60", "100000000000").unwrap_err();
        assert!(err.0.contains("--steps must be <= 4096"), "{err}");
        let err = query("0,60", "1").unwrap_err();
        assert!(err.0.contains("--steps must be at least 2"), "{err}");
        for radius in ["nan", "inf", "1e999"] {
            let err = run(&v(&[
                "query",
                "--db",
                "no-such.db",
                "--from",
                "0,60",
                "--to",
                "160,60",
                "--radius",
                radius,
            ]))
            .unwrap_err();
            assert!(err.0.contains("--radius must be finite"), "{radius}: {err}");
        }
        // In range: a missing database answers "no results", not an error.
        assert_eq!(query("0,60", "4096").unwrap(), "no results");
    }

    #[test]
    fn parse_points() {
        assert_eq!(parse_point("3,4").unwrap(), Point2::new(3.0, 4.0));
        assert_eq!(parse_point(" 3.5 , -4 ").unwrap(), Point2::new(3.5, -4.0));
        assert!(parse_point("35").is_err());
        assert!(parse_point("a,b").is_err());
    }

    #[test]
    fn full_cli_lifecycle() {
        let db = temp_db("lifecycle");
        let _ = std::fs::remove_file(&db);

        let out = run(&v(&[
            "ingest", "--db", &db, "--scene", "lab", "--name", "cam1", "--actors", "2", "--frames",
            "50", "--seed", "3",
        ]))
        .expect("ingest");
        assert!(out.contains("ingested"), "{out}");

        let out = run(&v(&["stats", "--db", &db])).expect("stats");
        assert!(out.contains("clips 1"), "{out}");

        let out = run(&v(&["clips", "--db", &db])).expect("clips");
        assert_eq!(out, "cam1");

        let out = run(&v(&[
            "query", "--db", &db, "--from", "0,80", "--to", "160,80", "-k", "3",
        ]))
        .expect("query");
        assert!(out.contains("cam1"), "{out}");
        assert!(out.contains("lb-pruned"), "{out}");
        assert!(out.contains("early-abandoned"), "{out}");

        // Duplicate name rejected.
        assert!(run(&v(&[
            "ingest", "--db", &db, "--scene", "lab", "--name", "cam1",
        ]))
        .is_err());

        // JSON mode: structured output with the query cost and metrics.
        let out = run(&v(&[
            "query", "--db", &db, "--from", "0,80", "--to", "160,80", "-k", "3", "--json",
        ]))
        .expect("query --json");
        assert!(out.starts_with('{'), "{out}");
        assert!(out.contains("\"hits\""), "{out}");
        assert!(out.contains("\"distance_calls\""), "{out}");
        assert!(out.contains("\"lb_pruned\""), "{out}");
        assert!(out.contains("\"early_abandoned\""), "{out}");

        let out = run(&v(&["stats", "--db", &db])).expect("stats text");
        assert!(out.contains("kernels:"), "{out}");

        let out = run(&v(&["stats", "--db", &db, "--json"])).expect("stats --json");
        assert!(out.contains("\"clips\":1"), "{out}");
        assert!(out.contains("\"metrics\""), "{out}");

        let out = run(&v(&["remove", "--db", &db, "--clip", "cam1"])).expect("remove");
        assert!(out.contains("removed"), "{out}");
        let out = run(&v(&["clips", "--db", &db])).expect("clips");
        assert_eq!(out, "no clips");

        let _ = std::fs::remove_file(&db);
    }

    #[test]
    fn range_query_mode() {
        let db = temp_db("range");
        let _ = std::fs::remove_file(&db);
        run(&v(&[
            "ingest", "--db", &db, "--scene", "lab", "--name", "cam1", "--actors", "2", "--frames",
            "50", "--seed", "3",
        ]))
        .expect("ingest");

        // A huge radius catches everything; the JSON shape matches knn's.
        let out = run(&v(&[
            "query", "--db", &db, "--from", "0,80", "--to", "160,80", "--radius", "1e9", "--json",
        ]))
        .expect("query --radius");
        assert!(out.starts_with("{\"hits\":["), "{out}");
        assert!(out.contains("\"cost\""), "{out}");
        assert!(out.contains("cam1"), "{out}");

        // knn and range are mutually exclusive.
        let err = run(&v(&[
            "query", "--db", &db, "--from", "0,80", "--to", "160,80", "-k", "3", "--radius", "10",
        ]));
        assert!(err.is_err());

        let _ = std::fs::remove_file(&db);
    }

    #[test]
    fn serve_and_send_roundtrip() {
        let db = temp_db("serve");
        let pf = temp_db("serve_port");
        let _ = std::fs::remove_file(&db);
        let _ = std::fs::remove_file(&pf);

        let db2 = db.clone();
        let pf2 = pf.clone();
        let server = std::thread::spawn(move || {
            run(&v(&[
                "serve",
                "--db",
                &db2,
                "--port",
                "0",
                "--max-queue",
                "4",
                "--port-file",
                &pf2,
            ]))
        });
        // Wait for the port file to appear.
        let addr = {
            let mut addr = String::new();
            for _ in 0..500 {
                if let Ok(s) = std::fs::read_to_string(&pf) {
                    if s.trim().parse::<std::net::SocketAddr>().is_ok() {
                        addr = s.trim().to_string();
                        break;
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            assert!(!addr.is_empty(), "server never wrote its port file");
            addr
        };

        let out = run(&v(&[
            "send",
            "--addr",
            &addr,
            "--req",
            r#"{"id":9,"method":"ping"}"#,
        ]))
        .expect("send ping");
        assert_eq!(out, r#"{"ok":true,"id":9,"result":"pong"}"#);

        let out = run(&v(&[
            "send",
            "--addr",
            &addr,
            "--req",
            r#"{"method":"shutdown"}"#,
        ]))
        .expect("send shutdown");
        assert!(out.contains("shutting down"), "{out}");

        let stopped = server
            .join()
            .unwrap()
            .expect("serve returns after shutdown");
        assert_eq!(stopped, "server stopped");
        let _ = std::fs::remove_file(&db);
        let _ = std::fs::remove_file(&pf);
    }

    #[test]
    fn unknown_command_and_usage() {
        assert!(run(&v(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
        assert!(run(&v(&["help"])).unwrap().contains("USAGE"));
    }

    #[test]
    fn bad_scene_rejected() {
        let db = temp_db("badscene");
        let err = run(&v(&[
            "ingest", "--db", &db, "--scene", "mars", "--name", "x",
        ]));
        assert!(err.is_err());
    }
}

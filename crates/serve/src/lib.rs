//! # strg-serve
//!
//! A long-running, concurrent k-NN query server for the STRG-Index video
//! database — the piece that turns the library + one-shot CLI into a
//! service (ROADMAP: "Query service: serve k-NN to concurrent clients").
//!
//! ## Shape
//!
//! * **Transport** — a hand-rolled [`std::net`] TCP server (the workspace
//!   is dependency-free by design): one connection per client, one
//!   newline-delimited JSON request per line, one response line per
//!   request, in order. See [`protocol`] for the grammar and DESIGN.md
//!   §11 for the full specification.
//! * **Wire format** — request/response bodies reuse the CLI `--json`
//!   shapes via the shared renderers in [`wire`], so a server `result`
//!   body is byte-identical to the one-shot CLI output for the same
//!   database (the wall-clock `elapsed_ns` field and the `metrics`
//!   snapshot excepted — the *determinism-over-the-wire* contract pinned
//!   by `tests/serve_protocol.rs`).
//! * **Execution** — requests are dispatched to a bounded worker [`pool`]
//!   sized by [`strg_parallel::Threads`] (the `STRG_THREADS` knob).
//!   Queries run with per-request [`strg_core::QueryCost`] accounting,
//!   whose work fields are bit-identical at any thread count.
//! * **Admission control** — the queue is bounded ([`ServeConfig::
//!   max_queue`]); a full queue yields a structured `overloaded` error
//!   immediately instead of unbounded buffering.
//! * **Observability** — the server keeps its own [`Recorder`] (separate
//!   from the database's, so database metrics keep their CLI meaning):
//!   request/connection/method counters, a `serve.queue_depth` histogram,
//!   a `serve.request_latency_ns` histogram, and a volatile
//!   `serve.rejects` counter. The `metrics` method returns a snapshot.
//!
//! ## Methods
//!
//! `ingest`, `query` (k-NN or range), `query_batch` (many queries in one
//! request, identical ones answered once — each element byte-identical to
//! `query` run alone), `stats`, `metrics`, `ping` (optionally
//! `{"delay_ms":N}` — a latency/queue probe), `shutdown`.
//!
//! ## Coalescing
//!
//! With [`ServeConfig::coalesce_window`] set (opt-in), single `query`
//! requests arriving within the window are grouped and executed through
//! one [`Database::query_batch`] call: the first arrival schedules a
//! flush job that sleeps the window, drains everything pending, and
//! answers each request individually — what the window buys is that
//! identical queries in it run once. Responses stay byte-identical to
//! the unbatched path except the `batch_shared_accesses` cost field
//! (`node_accesses` for a query answered from an identical neighbor's
//! result, 0 otherwise; normalized by [`wire::zero_batch_shared`]). Batch sizes land in the
//! `serve.batch.width` histogram, pending depths in `serve.batch.depth`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json_parse;
pub mod pool;
pub mod protocol;
pub mod wire;

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use strg_core::{Database, Query};
use strg_obs::{Json, Recorder};
use strg_parallel::Threads;

use pool::{Pool, SubmitError};
use protocol::{render_err, render_ok, ErrorCode, Request, WireError};

/// Upper bound accepted for `ping`'s `delay_ms` parameter.
pub const MAX_PING_DELAY_MS: u64 = 10_000;

/// Upper bound accepted for a query's `steps` (the length of the
/// interpolated query trajectory), on the wire and in `strgdb query`.
pub const MAX_QUERY_STEPS: u64 = 4096;

/// Upper bound accepted for an ingest's `frames` (every frame is rendered,
/// segmented and tracked), on the wire and in `strgdb ingest`.
pub const MAX_INGEST_FRAMES: usize = 4096;

/// Upper bound accepted for an ingest's `actors` (the scene scripts one
/// sprite path per actor), on the wire and in `strgdb ingest`.
pub const MAX_INGEST_ACTORS: usize = 64;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker-pool size policy (default: `STRG_THREADS`, else the
    /// machine's available parallelism).
    pub threads: Threads,
    /// Bounded request-queue depth; a full queue rejects with
    /// `overloaded` (default 64, clamped to at least 1).
    pub max_queue: usize,
    /// Request-line size cap in bytes; an oversized line yields a
    /// `too_large` error and closes the connection (default 1 MiB).
    pub max_line_bytes: usize,
    /// When set, every successful ingest persists the database here
    /// (one STRGDB file), mirroring the CLI's save-on-mutation
    /// behavior.
    pub db_path: Option<String>,
    /// Largest accepted `query_batch` width, which also bounds how many
    /// coalesced queries one window may hold (default 256, clamped to at
    /// least 1). An oversized batch is rejected with `invalid`; a full
    /// coalescing window rejects the overflowing query with `overloaded`.
    pub max_batch: usize,
    /// When set, single `query` requests arriving within this window are
    /// coalesced into one [`Database::query_batch`] execution (see the
    /// module docs). `None` (the default) answers each query immediately.
    pub coalesce_window: Option<std::time::Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: Threads::Auto,
            max_queue: 64,
            max_line_bytes: 1 << 20,
            db_path: None,
            max_batch: 256,
            coalesce_window: None,
        }
    }
}

/// One query parked in the coalescing window, waiting for the flush.
struct Pending {
    spec: wire::QuerySpec,
    id: Option<u64>,
    tx: mpsc::Sender<String>,
}

struct Ctx {
    db: Arc<dyn Database>,
    cfg: ServeConfig,
    pool: Pool,
    recorder: Recorder,
    stop: AtomicBool,
    addr: SocketAddr,
    conns: Mutex<Vec<(u64, TcpStream)>>,
    next_conn: AtomicU64,
    /// Serializes ingest's check-then-insert (and the save that follows),
    /// so two concurrent ingests cannot race a duplicate clip name past
    /// the existence check.
    ingest_lock: Mutex<()>,
    /// Queries parked in the coalescing window. The push that makes the
    /// list non-empty schedules the flush job.
    coalesce: Mutex<Vec<Pending>>,
}

impl Ctx {
    fn initiate_shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return; // someone else already did
        }
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A handle for stopping a running server from another thread (tests,
/// signal handlers). Obtained via [`Server::handle`].
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates a graceful shutdown: stop accepting, drain admitted
    /// requests, close connections. [`Server::run`] then returns.
    pub fn shutdown(&self) {
        self.ctx.initiate_shutdown();
    }
}

/// The query server. Construct with [`Server::bind`], then call
/// [`Server::run`] (blocking) — typically on a dedicated thread.
pub struct Server {
    listener: TcpListener,
    ctx: Arc<Ctx>,
}

impl Server {
    /// Binds the server (port 0 picks an ephemeral port) over `db`.
    pub fn bind<D: Database + 'static>(
        addr: impl ToSocketAddrs,
        db: impl Into<Arc<D>>,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        let db: Arc<dyn Database> = db.into();
        Self::bind_shared(addr, db, cfg)
    }

    /// [`Server::bind`] over an already-shared, type-erased database.
    pub fn bind_shared(
        addr: impl ToSocketAddrs,
        db: Arc<dyn Database>,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let workers = cfg.threads.resolve();
        let ctx = Arc::new(Ctx {
            db,
            pool: Pool::new(workers, cfg.max_queue),
            cfg,
            recorder: Recorder::new(),
            stop: AtomicBool::new(false),
            addr: local,
            conns: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(0),
            ingest_lock: Mutex::new(()),
            coalesce: Mutex::new(Vec::new()),
        });
        Ok(Server { listener, ctx })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.ctx.addr
    }

    /// The server's own metric recorder (`serve.*` names).
    pub fn recorder(&self) -> &Recorder {
        &self.ctx.recorder
    }

    /// A handle that can stop this server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.ctx.addr,
            ctx: Arc::clone(&self.ctx),
        }
    }

    /// Serves until a `shutdown` request arrives (or
    /// [`ServerHandle::shutdown`] is called): accept loop, one handler
    /// thread per connection, bounded worker pool for execution. On
    /// shutdown, admitted requests are drained and answered before open
    /// connections are closed.
    pub fn run(self) -> io::Result<()> {
        let Server { listener, ctx } = self;
        thread::scope(|scope| {
            for stream in listener.incoming() {
                if ctx.stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let id = ctx.next_conn.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    ctx.conns.lock().expect("conn list").push((id, clone));
                }
                let ctx = Arc::clone(&ctx);
                scope.spawn(move || {
                    handle_conn(stream, &ctx);
                    ctx.conns
                        .lock()
                        .expect("conn list")
                        .retain(|(cid, _)| *cid != id);
                });
            }
            // Finish everything already admitted, then unblock any
            // handler thread still parked in a read.
            ctx.pool.shutdown();
            for (_, c) in ctx.conns.lock().expect("conn list").drain(..) {
                let _ = c.shutdown(Shutdown::Both);
            }
        });
        Ok(())
    }
}

enum LineRead {
    /// A complete line (without the trailing newline).
    Line(Vec<u8>),
    /// The peer closed the connection (a partial unterminated line — a
    /// mid-request disconnect — is folded in here: there is nothing valid
    /// to answer, so the connection closes cleanly).
    Eof,
    /// The line exceeded the cap before a newline arrived.
    TooLong,
}

fn read_line_capped(r: &mut impl BufRead, cap: usize) -> io::Result<LineRead> {
    let mut out = Vec::new();
    loop {
        let (consumed, done) = {
            let buf = r.fill_buf()?;
            if buf.is_empty() {
                return Ok(LineRead::Eof);
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    out.extend_from_slice(&buf[..pos]);
                    (pos + 1, true)
                }
                None => {
                    out.extend_from_slice(buf);
                    (buf.len(), false)
                }
            }
        };
        r.consume(consumed);
        if out.len() > cap {
            return Ok(LineRead::TooLong);
        }
        if done {
            return Ok(LineRead::Line(out));
        }
    }
}

fn write_line(w: &mut impl Write, line: &str) -> io::Result<()> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Most bytes [`drain_unread`] discards before it gives up and closes.
const DRAIN_MAX_BYTES: usize = 1 << 20;
/// Longest [`drain_unread`] waits for the next input.
const DRAIN_IDLE: Duration = Duration::from_millis(50);
/// Longest [`drain_unread`] keeps draining in all.
const DRAIN_TOTAL: Duration = Duration::from_millis(500);

/// Reads and discards input until the peer closes, goes quiet for
/// [`DRAIN_IDLE`], or [`DRAIN_MAX_BYTES`] / [`DRAIN_TOTAL`] run out —
/// so a close after an early reply leaves nothing unread to trigger an
/// RST, and a client that keeps sending cannot hold the thread.
fn drain_unread(reader: &mut BufReader<TcpStream>) {
    let start = Instant::now();
    if reader.get_ref().set_read_timeout(Some(DRAIN_IDLE)).is_err() {
        return;
    }
    let mut buf = [0u8; 8192];
    let mut drained = 0;
    while drained < DRAIN_MAX_BYTES && start.elapsed() < DRAIN_TOTAL {
        match reader.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => drained += n,
        }
    }
}

fn handle_conn(stream: TcpStream, ctx: &Arc<Ctx>) {
    ctx.recorder.add("serve.connections", 1);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let bytes = match read_line_capped(&mut reader, ctx.cfg.max_line_bytes) {
            Ok(LineRead::Line(b)) => b,
            Ok(LineRead::Eof) => return,
            Ok(LineRead::TooLong) => {
                // Framing is lost mid-line; answer once and hang up.
                let err = WireError::new(
                    ErrorCode::TooLarge,
                    format!(
                        "request line exceeds {} bytes; closing connection",
                        ctx.cfg.max_line_bytes
                    ),
                );
                let _ = write_line(&mut writer, &render_err(None, &err));
                // Closing with input still unread makes the kernel send an
                // RST, which can overtake the error line. Send FIN first,
                // then read off what the client already sent.
                let _ = writer.shutdown(Shutdown::Write);
                drain_unread(&mut reader);
                return;
            }
            Err(_) => return,
        };
        let reply = respond_to_line(&bytes, ctx);
        match reply {
            LineOutcome::Silent => {}
            LineOutcome::Reply(line) => {
                if write_line(&mut writer, &line).is_err() {
                    return;
                }
            }
            LineOutcome::ReplyThenClose(line) => {
                let _ = write_line(&mut writer, &line);
                return;
            }
            LineOutcome::ReplyThenShutdown(line) => {
                // Answer first: initiating shutdown closes every open
                // connection, including this one.
                let _ = write_line(&mut writer, &line);
                ctx.initiate_shutdown();
                return;
            }
        }
    }
}

enum LineOutcome {
    /// Blank line: nothing to answer.
    Silent,
    Reply(String),
    ReplyThenClose(String),
    /// Write the reply, then initiate server shutdown.
    ReplyThenShutdown(String),
}

fn respond_to_line(bytes: &[u8], ctx: &Arc<Ctx>) -> LineOutcome {
    let Ok(text) = std::str::from_utf8(bytes) else {
        ctx.recorder.add("serve.malformed", 1);
        return LineOutcome::Reply(render_err(
            None,
            &WireError::new(ErrorCode::Parse, "request is not valid UTF-8"),
        ));
    };
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return LineOutcome::Silent; // blank keep-alive line
    }
    ctx.recorder.add("serve.requests", 1);
    let _latency = ctx.recorder.span("serve.request_latency");
    let parsed = match json_parse::parse(trimmed) {
        Ok(v) => v,
        Err(e) => {
            ctx.recorder.add("serve.malformed", 1);
            return LineOutcome::Reply(render_err(
                None,
                &WireError::new(ErrorCode::Parse, e.to_string()),
            ));
        }
    };
    let req = match Request::from_json(parsed) {
        Ok(r) => r,
        Err(e) => {
            ctx.recorder.add("serve.malformed", 1);
            return LineOutcome::Reply(render_err(None, &e));
        }
    };
    let id = req.id;
    match req.method.as_str() {
        "shutdown" => {
            ctx.recorder.add("serve.method.shutdown", 1);
            LineOutcome::ReplyThenShutdown(render_ok(id, Json::str("shutting down")))
        }
        "query" if ctx.cfg.coalesce_window.is_some() => {
            ctx.recorder.add("serve.method.query", 1);
            coalesce_query(ctx, &req)
        }
        "ingest" | "query" | "query_batch" | "stats" | "metrics" | "ping" => {
            ctx.recorder.add(&format!("serve.method.{}", req.method), 1);
            let (tx, rx) = mpsc::channel::<String>();
            let job_ctx = Arc::clone(ctx);
            let job = Box::new(move || {
                let reply = match dispatch(&job_ctx, &req) {
                    Ok(result) => render_ok(id, result),
                    Err(e) => render_err(id, &e),
                };
                let _ = tx.send(reply);
            });
            match ctx.pool.try_submit(job) {
                Ok(depth) => {
                    ctx.recorder
                        .histogram("serve.queue_depth")
                        .record(depth as u64);
                    match rx.recv() {
                        Ok(reply) => LineOutcome::Reply(reply),
                        // Sender dropped: the handler panicked (worker
                        // survives) or the pool closed mid-drain.
                        Err(_) => LineOutcome::Reply(render_err(
                            id,
                            &WireError::new(ErrorCode::Internal, "request handler failed"),
                        )),
                    }
                }
                Err(SubmitError::Full) => {
                    ctx.recorder.volatile_add("serve.rejects", 1);
                    LineOutcome::Reply(render_err(
                        id,
                        &WireError::new(
                            ErrorCode::Overloaded,
                            format!(
                                "request queue full ({} waiting); retry later",
                                ctx.cfg.max_queue
                            ),
                        ),
                    ))
                }
                Err(SubmitError::Closed) => LineOutcome::ReplyThenClose(render_err(
                    id,
                    &WireError::new(ErrorCode::Shutdown, "server is shutting down"),
                )),
            }
        }
        other => {
            ctx.recorder.add("serve.malformed", 1);
            LineOutcome::Reply(render_err(
                id,
                &WireError::new(
                    ErrorCode::UnknownMethod,
                    format!("unknown method {other:?}"),
                ),
            ))
        }
    }
}

/// Parks a `query` request in the coalescing window. The push that makes
/// the window non-empty schedules the flush job; everyone waits on their
/// own reply channel. Parse errors answer immediately (they never enter
/// the window).
fn coalesce_query(ctx: &Arc<Ctx>, req: &Request) -> LineOutcome {
    let id = req.id;
    let spec = match wire::parse_query_spec(&req.params()) {
        Ok(s) => s,
        Err(e) => return LineOutcome::Reply(render_err(id, &e)),
    };
    let (tx, rx) = mpsc::channel::<String>();
    let schedule = {
        let mut pending = ctx.coalesce.lock().expect("coalesce lock");
        if pending.len() >= ctx.cfg.max_batch {
            ctx.recorder.volatile_add("serve.rejects", 1);
            return LineOutcome::Reply(render_err(
                id,
                &WireError::new(
                    ErrorCode::Overloaded,
                    format!(
                        "coalescing window full ({} waiting); retry later",
                        ctx.cfg.max_batch
                    ),
                ),
            ));
        }
        pending.push(Pending { spec, id, tx });
        ctx.recorder
            .histogram("serve.batch.depth")
            .record(pending.len() as u64);
        pending.len() == 1
    };
    if schedule {
        let window = ctx.cfg.coalesce_window.expect("coalescing enabled");
        let job_ctx = Arc::clone(ctx);
        let job = Box::new(move || {
            thread::sleep(window);
            flush_coalesced(&job_ctx);
        });
        match ctx.pool.try_submit(job) {
            Ok(depth) => {
                ctx.recorder
                    .histogram("serve.queue_depth")
                    .record(depth as u64);
            }
            Err(e) => {
                // Nobody will flush: fail the whole window (ours plus any
                // request that raced in behind us counting on this job).
                let drained: Vec<Pending> = ctx
                    .coalesce
                    .lock()
                    .expect("coalesce lock")
                    .drain(..)
                    .collect();
                let err = match e {
                    SubmitError::Full => {
                        ctx.recorder
                            .volatile_add("serve.rejects", drained.len() as u64);
                        WireError::new(
                            ErrorCode::Overloaded,
                            format!(
                                "request queue full ({} waiting); retry later",
                                ctx.cfg.max_queue
                            ),
                        )
                    }
                    SubmitError::Closed => {
                        WireError::new(ErrorCode::Shutdown, "server is shutting down")
                    }
                };
                for p in drained {
                    let _ = p.tx.send(render_err(p.id, &err));
                }
            }
        }
    }
    match rx.recv() {
        Ok(reply) => LineOutcome::Reply(reply),
        Err(_) => LineOutcome::Reply(render_err(
            id,
            &WireError::new(ErrorCode::Internal, "request handler failed"),
        )),
    }
}

/// Drains the coalescing window and answers every parked query from one
/// [`Database::query_batch`] execution.
fn flush_coalesced(ctx: &Ctx) {
    let drained: Vec<Pending> = ctx
        .coalesce
        .lock()
        .expect("coalesce lock")
        .drain(..)
        .collect();
    if drained.is_empty() {
        return;
    }
    ctx.recorder
        .histogram("serve.batch.width")
        .record(drained.len() as u64);
    ctx.recorder.add("serve.coalesced", drained.len() as u64);
    let trajectories: Vec<_> = drained.iter().map(|p| p.spec.trajectory()).collect();
    let queries: Vec<Query<'_>> = drained
        .iter()
        .zip(&trajectories)
        .map(|(p, t)| p.spec.to_query(t))
        .collect();
    let results = ctx.db.query_batch(&queries);
    for (p, r) in drained.iter().zip(&results) {
        let _ = p.tx.send(render_ok(p.id, wire::query_json(r)));
    }
}

fn dispatch(ctx: &Ctx, req: &Request) -> Result<Json, WireError> {
    let db = &*ctx.db;
    let p = req.params();
    match req.method.as_str() {
        "ping" => {
            let delay = p.u64_or("delay_ms", 0)?;
            if delay > MAX_PING_DELAY_MS {
                return Err(WireError::invalid(format!(
                    "delay_ms must be <= {MAX_PING_DELAY_MS}"
                )));
            }
            if delay > 0 {
                thread::sleep(std::time::Duration::from_millis(delay));
            }
            Ok(Json::str("pong"))
        }
        "ingest" => {
            let name = p.str_req("name")?;
            let scene = p.str_req("scene")?;
            // A count too large for `usize` saturates and is refused by
            // `make_clip`'s bounds like any other oversized one.
            let actors = usize::try_from(p.u64_or("actors", 4)?).unwrap_or(usize::MAX);
            let frames = usize::try_from(p.u64_or("frames", 120)?).unwrap_or(usize::MAX);
            let seed = p.u64_or("seed", 0)?;
            let clip =
                wire::make_clip(scene, name, actors, frames, seed).map_err(WireError::invalid)?;
            let _serial = ctx.ingest_lock.lock().expect("ingest lock");
            if db.clip_names().iter().any(|n| n == name) {
                return Err(WireError::invalid(format!("clip {name:?} already exists")));
            }
            let report = db.ingest_clip(&clip, seed);
            if let Some(path) = &ctx.cfg.db_path {
                db.save(std::path::Path::new(path)).map_err(|e| {
                    WireError::new(ErrorCode::Io, format!("cannot save {path}: {e}"))
                })?;
            }
            Ok(wire::ingest_json(
                name,
                clip.frame_count(),
                &report,
                db.metrics_snapshot().to_json(),
            ))
        }
        "query" => {
            let spec = wire::parse_query_spec(&p)?;
            let trajectory = spec.trajectory();
            Ok(wire::query_json(&db.query(spec.to_query(&trajectory))))
        }
        "query_batch" => {
            let specs = match p.get("queries") {
                Some(Json::Array(items)) if !items.is_empty() => items
                    .iter()
                    .map(|v| match v {
                        Json::Object(pairs) => {
                            wire::parse_query_spec(&protocol::Params::new(pairs))
                        }
                        _ => Err(WireError::invalid("each query must be an object")),
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                Some(_) => return Err(WireError::invalid("queries must be a non-empty array")),
                None => {
                    return Err(WireError::invalid("missing required param \"queries\""));
                }
            };
            if specs.len() > ctx.cfg.max_batch {
                return Err(WireError::invalid(format!(
                    "batch of {} exceeds max_batch {}",
                    specs.len(),
                    ctx.cfg.max_batch
                )));
            }
            let trajectories: Vec<_> = specs.iter().map(|s| s.trajectory()).collect();
            let queries: Vec<Query<'_>> = specs
                .iter()
                .zip(&trajectories)
                .map(|(s, t)| s.to_query(t))
                .collect();
            ctx.recorder
                .histogram("serve.batch.width")
                .record(queries.len() as u64);
            let results = db.query_batch(&queries);
            Ok(wire::query_batch_json(&results))
        }
        "stats" => Ok(wire::stats_json(
            &db.stats(),
            &db.shard_stats(),
            &db.persist_info(),
            db.metrics_snapshot().to_json(),
        )),
        "metrics" => Ok(ctx.recorder.snapshot().to_json()),
        other => Err(WireError::new(
            ErrorCode::UnknownMethod,
            format!("unknown method {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strg_core::{DbOptions, VideoDatabase};

    fn boot(cfg: ServeConfig) -> (ServerHandle, thread::JoinHandle<io::Result<()>>) {
        let db = VideoDatabase::new(DbOptions::new());
        let server = Server::bind("127.0.0.1:0", db, cfg).expect("bind");
        let handle = server.handle();
        let join = thread::spawn(move || server.run());
        (handle, join)
    }

    fn call(addr: SocketAddr, line: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write_line(&mut stream, line).expect("send");
        let mut reader = BufReader::new(stream);
        let mut out = String::new();
        reader.read_line(&mut out).expect("recv");
        out.trim_end().to_string()
    }

    #[test]
    fn ping_stats_shutdown_lifecycle() {
        let (handle, join) = boot(ServeConfig {
            threads: Threads::Fixed(2),
            ..Default::default()
        });
        let addr = handle.addr();
        assert_eq!(
            call(addr, r#"{"id":1,"method":"ping"}"#),
            r#"{"ok":true,"id":1,"result":"pong"}"#
        );
        let stats = call(addr, r#"{"method":"stats"}"#);
        assert!(stats.contains(r#""clips":0"#), "{stats}");
        let bye = call(addr, r#"{"method":"shutdown"}"#);
        assert!(bye.contains("shutting down"), "{bye}");
        join.join().unwrap().unwrap();
    }

    #[test]
    fn handle_shutdown_unblocks_run() {
        let (handle, join) = boot(ServeConfig {
            threads: Threads::Fixed(1),
            ..Default::default()
        });
        // An idle connection must not prevent shutdown.
        let _idle = TcpStream::connect(handle.addr()).expect("connect");
        handle.shutdown();
        join.join().unwrap().unwrap();
    }
}

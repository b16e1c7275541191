//! Shared socket-level helpers for the `serve_*` integration suites.
//!
//! Every read goes through a hard timeout: a test that would block
//! forever (a wedged worker, a dropped response) panics with a clear
//! message instead of hanging CI.

#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use strg::obs::Json;
use strg::prelude::*;
use strg::serve::{wire, ServeConfig, Server, ServerHandle};

/// Generous upper bound — only reached when the server is wedged.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Boots a server on an ephemeral port and runs it on its own thread.
pub fn boot(
    db: impl Into<Arc<VideoDatabase>>,
    cfg: ServeConfig,
) -> (ServerHandle, thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", db, cfg).expect("bind ephemeral port");
    let handle = server.handle();
    let join = thread::spawn(move || server.run());
    (handle, join)
}

/// A small synthetic database: one lab clip and one traffic clip.
pub fn two_clip_db() -> VideoDatabase {
    let db = VideoDatabase::new(DbOptions::new());
    ingest_scene(&db, "lab", "cam0", 3);
    ingest_scene(&db, "traffic", "cam1", 7);
    db
}

/// Ingests one synthetic scenario clip (2 actors, 50 frames).
pub fn ingest_scene(db: &VideoDatabase, scene: &str, name: &str, seed: u64) {
    let clip = wire::make_clip(scene, name, 2, 50, seed).expect("known scene");
    db.ingest_clip(&clip, seed);
}

/// One protocol connection: newline-delimited request/response pairs.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect");
        writer
            .set_read_timeout(Some(IO_TIMEOUT))
            .expect("read timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Client { reader, writer }
    }

    /// Sends one request line and waits for its response line. The line
    /// and its newline go out as one write: two small writes would leave
    /// the newline to Nagle's algorithm, which holds it until the server's
    /// delayed ACK (about 40 ms) and charges every request that stall.
    pub fn send(&mut self, line: &str) -> String {
        self.send_raw(format!("{line}\n").as_bytes());
        self.recv()
            .unwrap_or_else(|| panic!("connection closed instead of answering {line:?}"))
    }

    /// Writes raw bytes without framing (for fault injection).
    pub fn send_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("send");
        self.writer.flush().expect("flush");
    }

    /// Reads one response line; `None` means the server closed the
    /// connection. Panics (instead of hanging) after [`IO_TIMEOUT`].
    pub fn recv(&mut self) -> Option<String> {
        let mut out = String::new();
        match self.reader.read_line(&mut out) {
            Ok(0) => None,
            Ok(_) => Some(out.trim_end().to_string()),
            Err(e) => panic!("server did not answer within {IO_TIMEOUT:?}: {e}"),
        }
    }
}

/// One-shot request on a fresh connection.
pub fn call(addr: SocketAddr, line: &str) -> String {
    Client::connect(addr).send(line)
}

/// The value under `key` of a JSON object (panics when absent).
pub fn obj_get<'a>(j: &'a Json, key: &str) -> &'a Json {
    match j {
        Json::Object(pairs) => pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no key {key:?} in {}", j.render())),
        other => panic!("expected object, got {}", other.render()),
    }
}

/// Unwraps a `Json::U64`.
pub fn as_u64(j: &Json) -> u64 {
    match j {
        Json::U64(n) => *n,
        other => panic!("expected unsigned integer, got {}", other.render()),
    }
}

/// Everything before the trailing `,"metrics":{..}` of an ingest/stats
/// body. The metrics snapshot is process-local (in-memory counters), so
/// byte-comparisons across database instances strip it; all other fields
/// stay under byte equality.
pub fn strip_metrics(body: &str) -> &str {
    match body.find(",\"metrics\":") {
        Some(i) => &body[..i],
        None => body,
    }
}

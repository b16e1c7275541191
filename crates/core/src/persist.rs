//! Database persistence: the STRGDB file format (version 6, magic
//! `STRGDB2`).
//!
//! # One file per database
//!
//! [`VideoDatabase::save`] writes one STRGDB file at any shard count: to
//! `path` itself when `path` is an existing file, or for a one-shard
//! database whose `path` is not an existing directory (the default
//! configuration); else to `db.strgdb` inside the directory `path`.
//! [`VideoDatabase::load`] reads either. META stores the
//! shard count, which wins over [`DbOptions::shards`] on load, and the
//! OG-id counter; the CLIP records follow in global ingest order, and the
//! loader appends each one to the shard [`crate::route`] sends its name to.
//! So every shard's clip order, the global order and the counter come from
//! one file, and nothing has to agree across files. A save encodes the
//! file under one read guard of the database's state.
//!
//! # The file
//!
//! A file holds one record per clip: its Object Graphs, its Background
//! Graph and the **built index** below its root — the cluster centroids
//! and, in leaf order, each member's `(key, og_id)`. That is the paper's
//! leaf record `(Key, OG_mem, ptr)`: an entry points at an OG of its clip,
//! whose samples the file holds once. The loader rebuilds the entry's
//! sequence as that OG's `centroid_series()` and its summary with the index
//! metric — the values `add_segment` computed — and reassembles the tree
//! with [`crate::StrgIndex::from_parts`]: no clustering and no distance
//! evaluations, so a reopened database serves its first k-NN in
//! milliseconds (`benchmark/`'s `reopen` workload and `core.persist.*` rows
//! measure it). A file that does not begin with the `STRGDB2\0` magic is
//! refused with one [`io::ErrorKind::InvalidData`] error.
//!
//! # The record grammar (DESIGN.md §14)
//!
//! ```text
//! file    := header record* trailer
//! header  := magic[8]="STRGDB2\0" version:u32=6 flags:u32
//! record  := tag:u32 len:u64 crc:u32 payload[len]        # crc = CRC-32 (IEEE) of payload
//! trailer := magic[8]="STRG2END"
//! META    := clips:u64 next_og:u64 shards:u64
//! CLIP    := frames:u64 name_len:u32 name first_og:u64 ogs:u64 og* bg clusters:u64 cluster*
//! og      := start_frame:u64 nodes:u64 node[44]*
//! bg      := frames_covered:u32 nodes:u64 node[44]* edges:u64 edge[8]*
//! node    := size:u32 r:f64 g:f64 b:f64 x:f64 y:f64
//! cluster := points:u64 point[16]* entries:u64 (key:f64 og_id:u64)*
//! ```
//!
//! All integers are little-endian; every `f64` is stored as its IEEE bit
//! pattern (`f64::to_bits`), so round-trips are lossless. A file of any
//! other version is refused. Nothing a load can derive is stored: an OG
//! sample is its region node, the one node codec a Background Graph uses
//! too, and its motion is derived from consecutive centroids; `ingest`
//! gives a clip one contiguous block of OG ids and `decompose` numbers its
//! OGs `0..n`, so OG `i` of a clip is number `i` with id `first_og + i`; and
//! Equation (9)'s STRG size is summed from the stored OGs and Background
//! Graphs. The loader refuses a block that does not start at or past the
//! end of the previous clip's (ids are handed out in ingest order, from one
//! counter), a counter that does not lie past the last block, a leaf entry
//! naming an id outside its clip's block, two entries naming one OG, and
//! an OG no entry names: a database removes only whole clips, so every
//! stored OG has exactly one leaf entry. The deterministic band makes the
//! in-memory index byte-identical at any `STRG_THREADS`, so the serialized
//! bytes are too, and `save → load → save` is a byte-identity (pinned by
//! tests here and in `tests/persist_equivalence.rs`).
//!
//! # Speed
//!
//! Both directions run at memory speed over the whole file, so the fixed
//! cost of `save` and `load` is the file's size, not per-field work:
//!
//! - [`crc32`] is table-driven slicing-by-16 (sixteen 256-entry tables,
//!   16 KiB, built at compile time; sixteen bytes per step, the bytewise
//!   recurrence over the tail), bit-identical to the byte-at-a-time loop
//!   the unit tests keep as its reference.
//! - The writer encodes each payload straight into the file image and
//!   fills in its length and CRC afterwards.
//! - The loader decodes fixed-width *runs* — region nodes (OG samples and
//!   Background Graph nodes), Background Graph edges, centroid points,
//!   leaf entries — with one bounds check per run: a count is first
//!   bounded against the bytes that remain (before anything is
//!   allocated), then the run is taken once and every item decoded from
//!   its slice.
//! - The loader frames the records on the calling thread, then checks
//!   every CRC and decodes every CLIP on the database's workers
//!   ([`DbOptions::threads`]; at one worker, the plain loop). What needs
//!   file order stays on the calling thread: META, the OG-id blocks,
//!   routing, and which error a damaged file reports — every checksum
//!   mismatch first, then a framing error, then record by record its
//!   header, its OG block and its body — so a load's result and its error
//!   are the same at every thread count.
//!
//! # Equivalence
//!
//! `tests/persist_equivalence.rs` pins the fast load to the originally
//! built database in hits, costs, stats, and re-saved bytes, at one shard
//! and at three.

use std::fs;
use std::io;
use std::path::Path;

use strg_distance::{EgedMetric, MetricDistance};
use strg_graph::{BackgroundGraph, FrameId, NodeAttr, NodeId, ObjectGraph, Point2, Rag, Rgb};
use strg_obs::Recorder;
use strg_parallel::{par_map_with, Threads};

use crate::index::{ClusterRecord, LeafNode, LeafRecord, RootRecord};
use crate::options::DbOptions;
use crate::pipeline::{clip_positions, index_metric, ClipMeta, Shard, State, VideoDatabase};
use crate::shard::route;

/// Leading magic.
const MAGIC: &[u8; 8] = b"STRGDB2\0";
/// Trailing magic (the last 8 bytes of every well-formed file).
const END_MAGIC: &[u8; 8] = b"STRG2END";

/// The format version [`VideoDatabase::save`] writes and
/// [`VideoDatabase::load`] reads.
pub const FORMAT_VERSION: u32 = 6;

/// The file's name inside a database directory.
const DIR_FILE: &str = "db.strgdb";

/// The largest shard count a load accepts: it builds one tree per shard
/// before reading any clip, so an absurd META count is refused first.
const MAX_SHARDS: u64 = 1 << 16;

/// How a database came to hold its in-memory index when it was opened.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReopenMode {
    /// Created empty — nothing was loaded.
    Fresh,
    /// Deserialized from stored index extents — no clustering on load.
    Fast,
}

impl ReopenMode {
    /// Stable lowercase name (`fresh` / `fast`) for wire and CLI output.
    pub fn as_str(&self) -> &'static str {
        match self {
            ReopenMode::Fresh => "fresh",
            ReopenMode::Fast => "fast",
        }
    }
}

/// Where a database's contents came from, surfaced through
/// [`crate::Database::persist_info`] and the `stats` wire body.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PersistInfo {
    /// How the in-memory index came to be.
    pub reopen: ReopenMode,
}

impl PersistInfo {
    /// The info of a freshly created (unloaded) database.
    pub const fn fresh() -> Self {
        Self {
            reopen: ReopenMode::Fresh,
        }
    }

    /// The on-disk format version this database speaks:
    /// [`FORMAT_VERSION`], the only one a load reads and a save writes.
    pub fn format(&self) -> u32 {
        FORMAT_VERSION
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected 0xEDB88320) — hand-rolled, no crates.
// ---------------------------------------------------------------------------

/// Slicing-by-16 tables: `T[0]` is the classic byte-at-a-time table, and
/// `T[s][i]` is the CRC state of byte `i` followed by `s` zero bytes, so
/// sixteen lookups advance the register over sixteen input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

/// 16 KiB, evaluated at compile time.
static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC-32 (IEEE) of `data`: sixteen bytes per step (slicing-by-16), then
/// the byte-at-a-time recurrence over the tail. Bit-identical to the
/// bytewise loop, which the tests keep as the reference.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let mut block: [u8; 16] = chunk.try_into().expect("chunks_exact(16) yields 16 bytes");
        // The register overlaps the first four bytes of the block.
        for (b, r) in block.iter_mut().zip(crc.to_le_bytes()) {
            *b ^= r;
        }
        crc = 0;
        for (k, &b) in block.iter().enumerate() {
            crc ^= CRC_TABLES[15 - k][b as usize];
        }
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Record tags.
// ---------------------------------------------------------------------------

/// Database-wide fields: `clips, next_og, shards`.
const TAG_META: u32 = u32::from_le_bytes(*b"META");
/// One clip: frames, name, Object Graphs, Background Graph, clusters.
const TAG_CLIP: u32 = u32::from_le_bytes(*b"CLIP");

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_point(out: &mut Vec<u8>, p: Point2) {
    put_f64(out, p.x);
    put_f64(out, p.y);
}

/// A 44-byte region node, `size:u32, r, g, b, x, y`: a Background Graph
/// node or an OG sample.
fn put_node(out: &mut Vec<u8>, node: &NodeAttr) {
    put_u32(out, node.size);
    put_f64(out, node.color.r);
    put_f64(out, node.color.g);
    put_f64(out, node.color.b);
    put_point(out, node.centroid);
}

/// Record header size: tag (4) + len (8) + crc (4).
const REC_HEADER: usize = 16;

/// Appends one record: `payload` writes its bytes straight into `out`, and
/// the header's length and CRC are filled in after it.
fn push_record(out: &mut Vec<u8>, tag: u32, payload: impl FnOnce(&mut Vec<u8>)) {
    let head = out.len();
    put_u32(out, tag);
    out.extend_from_slice(&[0; REC_HEADER - 4]);
    payload(out);
    let body = &out[head + REC_HEADER..];
    let (len, crc) = (body.len() as u64, crc32(body));
    out[head + 4..head + 12].copy_from_slice(&len.to_le_bytes());
    out[head + 12..head + REC_HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// One clip's CLIP payload: its OG-id block and Object Graphs, then its
/// root's Background Graph and clusters, each leaf entry naming its OG by
/// id.
fn encode_clip(out: &mut Vec<u8>, clip: &ClipMeta, root: &RootRecord<Point2>) {
    put_u64(out, clip.frames as u64);
    put_u32(out, clip.name.len() as u32);
    out.extend_from_slice(clip.name.as_bytes());
    put_u64(out, clip.first_og);
    put_u64(out, clip.ogs.len() as u64);
    for og in &clip.ogs {
        put_u64(out, og.start_frame as u64);
        put_u64(out, og.samples.len() as u64);
        for node in &og.samples {
            put_node(out, node);
        }
    }
    let BackgroundGraph {
        rag,
        frames_covered,
    } = &root.bg;
    put_u32(out, *frames_covered);
    put_u64(out, rag.node_count() as u64);
    for node in rag.node_attrs() {
        put_node(out, node);
    }
    put_u64(out, rag.edge_count() as u64);
    for (u, v, _) in rag.edges() {
        put_u32(out, u.0);
        put_u32(out, v.0);
    }
    put_u64(out, root.clusters.len() as u64);
    for cl in &root.clusters {
        put_u64(out, cl.centroid.len() as u64);
        for &p in &cl.centroid {
            put_point(out, p);
        }
        put_u64(out, cl.leaf.records.len() as u64);
        for rec in &cl.leaf.records {
            put_f64(out, rec.key);
            put_u64(out, rec.og_id);
        }
    }
}

/// The database as one STRGDB file image: META, then one CLIP record per
/// clip in global ingest order.
fn encode(state: &State) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 * 1024);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, 0); // flags (reserved)
    push_record(&mut out, TAG_META, |p| {
        put_u64(p, state.order.len() as u64);
        put_u64(p, state.next_og);
        put_u64(p, state.shards.len() as u64);
    });
    for (s, p) in clip_positions(&state.order, state.shards.len()) {
        let shard = &state.shards[s];
        push_record(&mut out, TAG_CLIP, |out| {
            encode_clip(out, &shard.clips[p], &shard.index.roots()[p]);
        });
    }
    out.extend_from_slice(END_MAGIC);
    out
}

impl VideoDatabase {
    /// Serializes the database to one file: `path` itself when it is an
    /// existing file or for a one-shard database whose `path` is not an
    /// existing directory, else `db.strgdb` inside the directory `path`
    /// (module docs). `save → load → save` is a byte-identity.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        // One read guard keeps ingests and removals out of the encoding.
        let bytes = encode(&self.state.read());
        if path.is_file() || (self.shard_count() == 1 && !path.is_dir()) {
            return fs::write(path, bytes);
        }
        fs::create_dir_all(path)?;
        fs::write(path.join(DIR_FILE), bytes)
    }

    /// Loads a database from a file, or from the file a database directory
    /// holds, deserializing every built index ([`ReopenMode::Fast`]). The
    /// file's shard count wins over `opts.shards`. Anything malformed is an
    /// [`io::ErrorKind::InvalidData`] error.
    pub fn load(path: impl AsRef<Path>, opts: DbOptions) -> io::Result<Self> {
        let path = path.as_ref();
        let bytes = if path.is_dir() {
            let file = path.join(DIR_FILE);
            fs::read(&file)
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", file.display())))?
        } else {
            fs::read(path)?
        };
        let (parts, order, next_og) = parse_file(&bytes, opts.threads)?;
        let recorder = Recorder::new();
        let shards = parts
            .into_iter()
            .map(|(roots, clips)| Shard::new(&opts, &recorder, roots, clips))
            .collect();
        let persist = PersistInfo {
            reopen: ReopenMode::Fast,
        };
        Ok(Self::assemble(
            opts, shards, order, next_og, recorder, persist,
        ))
    }
}

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over a record payload. Every getter
/// returns a structured error instead of panicking, so arbitrarily corrupt
/// input can never take the process down.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], what: &'static str) -> Self {
        Self { buf, pos: 0, what }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(bad(format!(
                "truncated {} (need {n} bytes, have {})",
                self.what,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32_at(self.take(4)?, 0))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64_at(self.take(8)?, 0))
    }

    /// A count of `min_size`-byte items that must fit in the remaining
    /// payload — rejects absurd counts *before* any allocation, so an
    /// oversized length field yields an error, not an OOM abort.
    fn count(&mut self, min_size: usize) -> io::Result<usize> {
        let n = self.u64()?;
        if n > (self.remaining() / min_size) as u64 {
            return Err(bad(format!(
                "oversized count {n} in {} ({} bytes remain)",
                self.what,
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// A counted run of fixed-width `W`-byte items, taken with one bounds
    /// check: once [`Cursor::count`] has bounded the count, the items are
    /// decoded straight from the slice by the `*_at` readers instead of
    /// one `Result` per field.
    fn run<const W: usize>(
        &mut self,
    ) -> io::Result<impl ExactSizeIterator<Item = &'a [u8; W]> + Clone> {
        let n = self.count(W)?;
        Ok(self
            .take(n * W)?
            .chunks_exact(W)
            .map(|item| item.try_into().expect("chunks_exact(W) yields W bytes")))
    }

    /// Refuses bytes left over after the last field.
    fn finish(self) -> io::Result<()> {
        if self.remaining() != 0 {
            return Err(bad(format!("{} has trailing bytes", self.what)));
        }
        Ok(())
    }
}

// Little-endian field readers at a fixed offset of a slice the caller has
// already bounds-checked (the result of a `take`, or one item of a run).

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("a 4-byte field"))
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("an 8-byte field"))
}

fn f64_at(b: &[u8], at: usize) -> f64 {
    f64::from_bits(u64_at(b, at))
}

fn point_at(b: &[u8], at: usize) -> Point2 {
    Point2::new(f64_at(b, at), f64_at(b, at + 8))
}

/// The 44-byte region node [`put_node`] writes.
fn node_at(b: &[u8; 44]) -> NodeAttr {
    NodeAttr::new(
        u32_at(b, 0),
        Rgb::new(f64_at(b, 4), f64_at(b, 12), f64_at(b, 20)),
        point_at(b, 28),
    )
}

/// A counted run of region nodes: an OG's samples or a Background Graph's
/// nodes.
fn read_nodes(cur: &mut Cursor<'_>) -> io::Result<Vec<NodeAttr>> {
    Ok(cur.run::<44>()?.map(node_at).collect())
}

/// One framed record: where it starts in the file, its tag, its stored
/// CRC and its payload.
struct Frame<'a> {
    offset: usize,
    tag: u32,
    crc: u32,
    payload: &'a [u8],
}

/// Checks the header and trailer magics, the version and the flags, and
/// frames the records between them: every record whose length fits the
/// file, in file order, then the framing error that stopped the walk, if
/// any. The list is allocated once, at its final size.
fn split_records(bytes: &[u8]) -> io::Result<(Vec<Frame<'_>>, io::Result<()>)> {
    if !bytes.starts_with(MAGIC) {
        return Err(bad("not a STRGDB file (missing the STRGDB2 magic)"));
    }
    if bytes.len() < 16 + END_MAGIC.len() {
        return Err(bad("file too short for a STRGDB2 header and trailer"));
    }
    let version = u32_at(bytes, 8);
    if version != FORMAT_VERSION {
        return Err(bad(format!(
            "unsupported STRGDB2 version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    let flags = u32_at(bytes, 12);
    if flags != 0 {
        return Err(bad(format!("unsupported STRGDB2 flags {flags:#x}")));
    }
    if !bytes.ends_with(END_MAGIC) {
        return Err(bad("missing STRG2END trailer (truncated file?)"));
    }
    let body_end = bytes.len() - END_MAGIC.len();
    let walk = || {
        let mut pos = 16usize;
        std::iter::from_fn(move || {
            if pos >= body_end {
                return None;
            }
            // An error ends the walk: `pos` stays at the end.
            let offset = std::mem::replace(&mut pos, body_end);
            if body_end - offset < REC_HEADER {
                return Some(Err(bad("truncated record header")));
            }
            let len = u64_at(bytes, offset + 4);
            if len > (body_end - offset - REC_HEADER) as u64 {
                return Some(Err(bad(format!(
                    "record length {len} overruns the file (offset {offset})"
                ))));
            }
            pos = offset + REC_HEADER + len as usize;
            Some(Ok(Frame {
                offset,
                tag: u32_at(bytes, offset),
                crc: u32_at(bytes, offset + 12),
                payload: &bytes[offset + REC_HEADER..pos],
            }))
        })
    };
    let mut frames = Vec::with_capacity(walk().take_while(Result::is_ok).count());
    let framing = walk().try_for_each(|frame| frame.map(|f| frames.push(f)));
    Ok((frames, framing))
}

fn decode_bg(cur: &mut Cursor<'_>) -> io::Result<BackgroundGraph> {
    let frames_covered = cur.u32()?;
    let nodes = read_nodes(cur)?;
    let edges = cur
        .run::<8>()?
        .map(|edge| (u32_at(edge, 0), u32_at(edge, 4)));
    // `save` writes each edge once as `u < v`, in `(u, v)` order; anything
    // else is refused, so the RAG takes the list without sorting it.
    let mut last = None;
    for (u, v) in edges.clone() {
        if u as usize >= nodes.len() || v as usize >= nodes.len() {
            return Err(bad("Background Graph edge references unknown node"));
        }
        if u >= v || last >= Some((u, v)) {
            return Err(bad("Background Graph edges not strictly increasing"));
        }
        last = Some((u, v));
    }
    let rag = Rag::from_pairs(
        FrameId(0),
        nodes,
        edges.map(|(u, v)| (NodeId(u), NodeId(v))),
    );
    Ok(BackgroundGraph {
        rag,
        frames_covered,
    })
}

/// A CLIP payload's fields ahead of its Object Graphs. The loader reads
/// them on its own thread too, to check the OG-id blocks in file order.
struct ClipHead<'a> {
    frames: usize,
    name: &'a str,
    first_og: u64,
    ogs: usize,
}

impl<'a> ClipHead<'a> {
    fn read(cur: &mut Cursor<'a>) -> io::Result<Self> {
        let frames = cur.u64()? as usize;
        let name_len = cur.u32()? as usize;
        let name =
            std::str::from_utf8(cur.take(name_len)?).map_err(|_| bad("clip name is not UTF-8"))?;
        Ok(Self {
            frames,
            name,
            first_og: cur.u64()?,
            ogs: cur.count(16)?,
        })
    }
}

/// Decodes one CLIP record into the clip and its root. Each leaf entry is
/// resolved to the OG it names: its sequence is that OG's centroid series
/// and its summary is `metric`'s, the values `add_segment` computed.
/// `named` is scratch space, one flag per OG, reused from clip to clip.
fn decode_clip(
    payload: &[u8],
    metric: &EgedMetric<Point2>,
    named: &mut Vec<bool>,
) -> io::Result<(ClipMeta, RootRecord<Point2>)> {
    let mut cur = Cursor::new(payload, "CLIP record");
    let head = ClipHead::read(&mut cur)?;
    let (first_og, n_ogs) = (head.first_og, head.ogs);
    let mut ogs = Vec::with_capacity(n_ogs);
    for i in 0..n_ogs {
        let start_frame = cur.u64()? as usize;
        ogs.push(ObjectGraph {
            id: i as u32,
            start_frame,
            samples: read_nodes(&mut cur)?,
        });
    }
    let bg = decode_bg(&mut cur)?;
    // Each cluster holds at least its two counts.
    let n_clusters = cur.count(16)?;
    let mut clusters = Vec::with_capacity(n_clusters);
    named.clear();
    named.resize(n_ogs, false);
    for _ in 0..n_clusters {
        let centroid = cur.run::<16>()?.map(|p| point_at(p, 0)).collect();
        let entries = cur.run::<16>()?;
        let mut records = Vec::with_capacity(entries.len());
        for entry in entries {
            let (key, og_id) = (f64_at(entry, 0), u64_at(entry, 8));
            let i = og_id
                .checked_sub(first_og)
                .filter(|&i| i < n_ogs as u64)
                .ok_or_else(|| {
                    bad(format!(
                        "leaf entry names OG {og_id}, which its clip does not hold"
                    ))
                })? as usize;
            if std::mem::replace(&mut named[i], true) {
                return Err(bad(format!("OG {og_id} is named by two leaf entries")));
            }
            let seq = ogs[i].centroid_series();
            records.push(LeafRecord {
                key,
                og_id,
                summary: metric.summarize(&seq),
                seq,
            });
        }
        clusters.push(ClusterRecord {
            centroid,
            leaf: LeafNode { records },
        });
    }
    if let Some(i) = named.iter().position(|&n| !n) {
        return Err(bad(format!(
            "OG {} is named by no leaf entry",
            first_og + i as u64
        )));
    }
    cur.finish()?;
    let clip = ClipMeta {
        name: head.name.to_string(),
        frames: head.frames,
        first_og,
        ogs,
    };
    Ok((clip, RootRecord { bg, clusters }))
}

/// One shard's parts as a file holds them: its roots and its clips, both
/// in the shard's order.
type ShardParts = (Vec<RootRecord<Point2>>, Vec<ClipMeta>);

/// Parses a file into every shard's parts, the global clip order and the
/// OG-id counter: each CLIP is appended to the shard its name routes to.
/// The records' CRCs and the CLIPs' decodes run on `threads` workers; what
/// needs file order runs on the calling thread.
fn parse_file(bytes: &[u8], threads: Threads) -> io::Result<(Vec<ShardParts>, Vec<String>, u64)> {
    let (frames, framing) = split_records(bytes)?;
    let metric = index_metric();
    let (checked, _) = par_map_with(&frames, threads, Vec::new, |named, _, f| {
        let intact = crc32(f.payload) == f.crc;
        let clip = (intact && f.tag == TAG_CLIP).then(|| decode_clip(f.payload, &metric, named));
        (intact, clip)
    });
    if let Some((f, _)) = frames.iter().zip(&checked).find(|(_, (intact, _))| !intact) {
        return Err(bad(format!(
            "checksum mismatch in record at offset {}",
            f.offset
        )));
    }
    framing?;
    let Some((meta, rest)) = frames.split_first().filter(|(m, _)| m.tag == TAG_META) else {
        return Err(bad("the first record is not META"));
    };
    let mut cur = Cursor::new(meta.payload, "META record");
    let n_clips = cur.u64()?;
    let next_og = cur.u64()?;
    let n_shards = cur.u64()?;
    cur.finish()?;
    if n_clips != rest.len() as u64 {
        return Err(bad(format!(
            "META counts {n_clips} clips, the file holds {} CLIP records",
            rest.len()
        )));
    }
    if !(1..=MAX_SHARDS).contains(&n_shards) {
        return Err(bad(format!(
            "META shard count {n_shards} is not in 1..={MAX_SHARDS}"
        )));
    }
    let n_shards = n_shards as usize;
    let mut shards: Vec<ShardParts> = (0..n_shards).map(|_| Default::default()).collect();
    let mut order = Vec::with_capacity(rest.len());
    let mut free = 0;
    for (f, (_, clip)) in rest.iter().zip(checked.into_iter().skip(1)) {
        let Some(decoded) = clip else {
            return Err(bad(format!("unexpected record tag {:#010x}", f.tag)));
        };
        // The header's errors and the block checks come before the body's.
        let head = ClipHead::read(&mut Cursor::new(f.payload, "CLIP record"))?;
        if head.first_og < free {
            return Err(bad(format!(
                "OG block of clip {:?} starts at {}, inside the previous clip's (ids below {free} are taken)",
                head.name, head.first_og
            )));
        }
        free = head
            .first_og
            .checked_add(head.ogs as u64)
            .ok_or_else(|| bad("OG id block overflows the id space"))?;
        let (clip, root) = decoded?;
        let (roots, clips) = &mut shards[route(&clip.name, n_shards)];
        order.push(clip.name.clone());
        roots.push(root);
        clips.push(clip);
    }
    if free > next_og {
        return Err(bad("META next OG id does not lie past every stored id"));
    }
    Ok((shards, order, next_og))
}

#[cfg(test)]
mod tests {
    use super::*;
    use strg_video::{lab_scene, ScenarioConfig, VideoClip};

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("strgdb_test_{name}_{}", std::process::id()))
    }

    fn sample_db() -> VideoDatabase {
        let db = VideoDatabase::new(DbOptions::new());
        for (i, actors) in [(0u64, 2usize), (1, 1)] {
            let clip = VideoClip {
                name: format!("clip-{i} with spaces"),
                scene: lab_scene(&ScenarioConfig {
                    n_actors: actors,
                    frames: 50,
                    seed: 60 + i,
                    ..Default::default()
                }),
                fps: 30.0,
            };
            db.ingest_clip(&clip, i);
        }
        db
    }

    #[test]
    fn save_load_roundtrip() {
        let db = sample_db();
        let path = temp_path("roundtrip");
        db.save(&path).expect("save");
        let loaded = VideoDatabase::load(&path, DbOptions::new()).expect("load");

        let a = db.stats();
        let b = loaded.stats();
        assert_eq!(a.clips, b.clips);
        assert_eq!(a.objects, b.objects);
        assert_eq!(a.clusters, b.clusters);
        assert_eq!(a.strg_bytes, b.strg_bytes);
        assert_eq!(a.index_bytes, b.index_bytes);
        assert_eq!(db.clip_names(), loaded.clip_names());
        assert_eq!(
            loaded.persist_info(),
            PersistInfo {
                reopen: ReopenMode::Fast
            }
        );

        // OGs round-trip losslessly.
        for id in 0..a.objects as u64 {
            let x = db.og(id).unwrap();
            let y = loaded.og(id).unwrap();
            assert_eq!(x.start_frame, y.start_frame);
            assert_eq!(x.samples, y.samples);
        }

        // Queries agree bit for bit (the index was deserialized, not
        // approximated).
        let q = db.og(0).unwrap().centroid_series();
        let ha = db.query(crate::Query::knn(3).trajectory(&q)).hits;
        let hb = loaded.query(crate::Query::knn(3).trajectory(&q)).hits;
        assert_eq!(ha.len(), hb.len());
        for (x, y) in ha.iter().zip(&hb) {
            assert_eq!(x.og_id, y.og_id);
            assert_eq!(x.dist.to_bits(), y.dist.to_bits());
        }

        // save → load → save is a byte identity.
        let path2 = temp_path("roundtrip2");
        loaded.save(&path2).expect("save again");
        let first = std::fs::read(&path).unwrap();
        let second = std::fs::read(&path2).unwrap();
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&path2);
        assert_eq!(first, second, "save → load → save changed bytes");
    }

    #[test]
    fn load_rejects_garbage() {
        let path = temp_path("garbage");
        std::fs::write(&path, "not a database\n").unwrap();
        let err = VideoDatabase::load(&path, DbOptions::new());
        let _ = std::fs::remove_file(&path);
        assert!(err.is_err());
    }

    #[test]
    fn load_rejects_truncated() {
        let db = sample_db();
        let path = temp_path("trunc");
        db.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = VideoDatabase::load(&path, DbOptions::new());
        let _ = std::fs::remove_file(&path);
        assert!(err.is_err());
    }

    #[test]
    fn empty_database_roundtrips() {
        let db = VideoDatabase::new(DbOptions::new());
        assert_eq!(db.persist_info(), PersistInfo::fresh());
        let path = temp_path("empty");
        db.save(&path).unwrap();
        let loaded = VideoDatabase::load(&path, DbOptions::new()).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded.stats().clips, 0);
        assert_eq!(loaded.stats().objects, 0);
        assert_eq!(loaded.persist_info().reopen, ReopenMode::Fast);
    }

    /// The byte-at-a-time CRC-32 the sliced kernel must reproduce.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_sliced_matches_bytewise() {
        // Seeded xorshift bytes: every length 0..=257 (no block, blocks
        // with every tail length) at every start offset 0..16.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..(1 << 20) + 16)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        for start in 0..16 {
            for len in 0..=257 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
        let mib = &buf[..1 << 20];
        assert_eq!(crc32(mib), crc32_bytewise(mib), "1 MiB");
    }
}

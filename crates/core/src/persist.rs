//! Database persistence: the STRGDB segment-file format (version 4, magic
//! `STRGDB2`) and the shard directory layout.
//!
//! # Layouts
//!
//! [`VideoDatabase::save`] picks one of two layouts, and
//! [`VideoDatabase::load`] reads both:
//!
//! - **a single file** — one segment file, for a one-shard database saved
//!   to a path that is not an existing directory (the default
//!   configuration). Its META record stores the OG-id counter, and a load
//!   starts the counter there.
//! - **a directory** — a `MANIFEST` plus one segment file per shard
//!   (`shard-000.strgdb`, `shard-001.strgdb`, …), for every other case.
//!   The manifest is text: the line `STRG-SHARDS v2`, then
//!   `shards <N>`, `next_og <id>`, and one `clip <name>` line per clip in
//!   global ingest order. Its shard count wins over
//!   [`DbOptions::shards`] on load. A load refuses a manifest that
//!   disagrees with its shard files: for every shard `s`, the clip lines
//!   whose names route to `s`, in manifest order, must name exactly shard
//!   `s`'s clips, in their order. Every shard file stores the counter too,
//!   and a load starts it at the largest of the manifest's and the files'.
//!
//! Every file's counter must lie past every OG id it stores, so no loaded
//! id is handed out again.
//!
//! A save encodes the manifest and every shard file under one read guard
//! of the database's state, so they describe one state.
//!
//! # The segment file
//!
//! A segment file holds one record per clip: its Object Graphs, its
//! Background Graph and the **built index** below its root — the cluster
//! centroids and, in leaf order, each member's `(key, og_id)`. That is the
//! paper's leaf record `(Key, OG_mem, ptr)`: an entry points at an OG of
//! its clip, whose samples the file holds once. The loader rebuilds the
//! entry's sequence as that OG's `centroid_series()` and its summary with
//! the index metric — the values `add_segment` computed — and reassembles
//! the tree with [`crate::StrgIndex::from_parts`]: no clustering and no
//! distance evaluations, so a reopened database serves its first k-NN in
//! milliseconds (`benchmark/`'s `reopen` workload and `core.persist.*`
//! rows measure it). A file that does not begin with the `STRGDB2\0` magic
//! is refused with one [`io::ErrorKind::InvalidData`] error.
//!
//! # The record grammar (DESIGN.md §14)
//!
//! ```text
//! file    := header record* trailer
//! header  := magic[8]="STRGDB2\0" version:u32=4 flags:u32
//! record  := tag:u32 len:u64 crc:u32 payload[len]        # crc = CRC-32 (IEEE) of payload
//! trailer := magic[8]="STRG2END"
//! META    := clips:u64 next_og:u64 strg_bytes:u64
//! CLIP    := frames:u64 name_len:u32 name ogs:u64 og* bg clusters:u64 cluster*
//! og      := id:u64 og_id:u32 start_frame:u64 samples:u64 sample[60]*
//! bg      := frames_covered:u32 nodes:u64 node[44]* edges:u64 edge[8]*
//! cluster := points:u64 point[16]* entries:u64 (key:f64 og_id:u64)*
//! ```
//!
//! All integers are little-endian; every `f64` is stored as its IEEE bit
//! pattern (`f64::to_bits`), so round-trips are lossless. A file is one
//! META record, then one CLIP record per clip in the shard's order — clip
//! `i` owns root `i` — so the writer renumbers nothing. A file of any
//! other version is refused. The loader refuses OG ids that do not
//! increase through the file (`ingest` hands them out from one counter),
//! a leaf entry naming an OG its clip does not hold, two entries naming
//! one OG, and an OG no entry names: a database removes only whole clips,
//! so every stored OG has exactly one leaf entry. The deterministic band
//! makes the in-memory index byte-identical at any `STRG_THREADS`, so the
//! serialized bytes are too, and `save → load → save` is a byte-identity
//! (pinned by tests here and in `tests/persist_equivalence.rs`).
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
//! - The loader decodes fixed-width *runs* — OG samples, Background Graph
//!   nodes and edges, centroid points, leaf entries — with one bounds
//!   check per run: a count is first bounded against the bytes that
//!   remain (before anything is allocated), then the run is taken once
//!   and every item decoded from its slice.
//!
//! # Equivalence
//!
//! `tests/persist_equivalence.rs` pins the fast load to the originally
//! built database in hits, costs, stats, and re-saved bytes, in both
//! layouts.

use std::fs;
use std::io;
use std::path::Path;

use strg_distance::{EgedMetric, MetricDistance};
use strg_graph::{
    BackgroundGraph, FrameId, NodeAttr, NodeId, ObjectGraph, OgSample, Point2, Rag, Rgb,
};
use strg_obs::Recorder;

use crate::index::{ClusterRecord, LeafNode, LeafRecord, RootRecord};
use crate::options::DbOptions;
use crate::pipeline::{clip_positions, index_metric, ClipMeta, Shard, VideoDatabase};

/// Leading magic.
const MAGIC: &[u8; 8] = b"STRGDB2\0";
/// Trailing magic (the last 8 bytes of every well-formed file).
const END_MAGIC: &[u8; 8] = b"STRG2END";

/// The format version [`VideoDatabase::save`] writes.
pub const FORMAT_VERSION: u32 = 4;

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
    /// Format version of the file(s) the database was loaded from; `None`
    /// for a freshly created database.
    pub loaded_format: Option<u32>,
    /// How the in-memory index came to be.
    pub reopen: ReopenMode,
}

impl PersistInfo {
    /// The info of a freshly created (unloaded) database.
    pub const fn fresh() -> Self {
        Self {
            loaded_format: None,
            reopen: ReopenMode::Fresh,
        }
    }

    /// The on-disk format version this database speaks: the loaded version,
    /// or the version a save will write for a fresh database.
    pub fn format(&self) -> u32 {
        self.loaded_format.unwrap_or(FORMAT_VERSION)
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

/// Database-wide fields: `clips, next_og, strg_bytes`.
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

/// `size:u32, r, g, b, x, y` — the 44-byte head shared by a Background
/// Graph node and an OG sample.
fn put_region(out: &mut Vec<u8>, size: u32, color: Rgb, centroid: Point2) {
    put_u32(out, size);
    put_f64(out, color.r);
    put_f64(out, color.g);
    put_f64(out, color.b);
    put_point(out, centroid);
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

/// One clip's CLIP payload: its Object Graphs, then its root's Background
/// Graph and clusters, each leaf entry naming its OG by id.
fn encode_clip(out: &mut Vec<u8>, clip: &ClipMeta, root: &RootRecord<Point2>) {
    put_u64(out, clip.frames as u64);
    put_u32(out, clip.name.len() as u32);
    out.extend_from_slice(clip.name.as_bytes());
    put_u64(out, clip.ogs.len() as u64);
    for (&id, og) in clip.og_ids.iter().zip(&clip.ogs) {
        put_u64(out, id);
        put_u32(out, og.id);
        put_u64(out, og.start_frame as u64);
        put_u64(out, og.samples.len() as u64);
        for s in &og.samples {
            put_region(out, s.size, s.color, s.centroid);
            put_f64(out, s.velocity);
            put_f64(out, s.direction);
        }
    }
    let BackgroundGraph {
        rag,
        frames_covered,
    } = &root.bg;
    put_u32(out, *frames_covered);
    put_u64(out, rag.node_count() as u64);
    for a in rag.node_attrs() {
        put_region(out, a.size, a.color, a.centroid);
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

/// The file name of shard `i` inside a database directory.
fn shard_file(i: usize) -> String {
    format!("shard-{i:03}.strgdb")
}

impl VideoDatabase {
    /// Serializes the database to `path`: one file for a one-shard
    /// database whose `path` is not an existing directory, else a shard
    /// directory (module docs, "Layouts"). `save → load → save` is a
    /// byte-identity in either layout. A clip name with a line break cannot
    /// go into a manifest: the directory layout then fails with
    /// [`io::ErrorKind::InvalidInput`] before anything is written.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        // One read guard keeps ingests and removals out, so the manifest
        // and every shard file agree.
        let state = self.state.read();
        if state.shards.len() == 1 && !path.is_dir() {
            return fs::write(path, encode_shard(&state.shards[0], state.next_og));
        }
        let mut manifest = String::from("STRG-SHARDS v2\n");
        manifest.push_str(&format!("shards {}\n", state.shards.len()));
        manifest.push_str(&format!("next_og {}\n", state.next_og));
        for name in &state.order {
            if name.contains(['\n', '\r']) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "clip name {name:?} contains a line break: the manifest cannot hold it"
                    ),
                ));
            }
            manifest.push_str(&format!("clip {name}\n"));
        }
        fs::create_dir_all(path)?;
        fs::write(path.join("MANIFEST"), manifest)?;
        for (i, shard) in state.shards.iter().enumerate() {
            fs::write(path.join(shard_file(i)), encode_shard(shard, state.next_og))?;
        }
        Ok(())
    }

    /// Loads a database from a file or a shard directory (whose shard
    /// count wins over `opts.shards`), deserializing every built index
    /// ([`ReopenMode::Fast`]). Anything malformed is an
    /// [`io::ErrorKind::InvalidData`] error.
    pub fn load(path: impl AsRef<Path>, mut opts: DbOptions) -> io::Result<Self> {
        let path = path.as_ref();
        let recorder = Recorder::new();
        let (shards, order, next_og) = if path.is_dir() {
            let (count, mut next_og, order) = read_manifest(path)?;
            opts.shards = count;
            let mut shards = Vec::with_capacity(count);
            for i in 0..count {
                let (shard, shard_next_og) =
                    read_shard(&path.join(shard_file(i)), &opts, &recorder)?;
                next_og = next_og.max(shard_next_og);
                shards.push(shard);
            }
            check_manifest(&order, &shards)?;
            (shards, order, next_og)
        } else {
            let (shard, next_og) = read_shard(path, &opts, &recorder)?;
            let order = shard.clips.iter().map(|c| c.name.clone()).collect();
            (vec![shard], order, next_og)
        };
        let persist = PersistInfo {
            loaded_format: Some(FORMAT_VERSION),
            reopen: ReopenMode::Fast,
        };
        Ok(Self::assemble(
            opts, shards, order, next_og, recorder, persist,
        ))
    }
}

/// Parses a database directory's `MANIFEST`: shard count, next OG id and
/// the global clip order.
fn read_manifest(dir: &Path) -> io::Result<(usize, u64, Vec<String>)> {
    let manifest = fs::read_to_string(dir.join("MANIFEST"))?;
    let mut lines = manifest.lines();
    if lines.next() != Some("STRG-SHARDS v2") {
        return Err(bad("not a STRG-SHARDS v2 manifest"));
    }
    let mut count = 0usize;
    let mut next_og = 0u64;
    let mut order = Vec::new();
    for line in lines {
        if let Some(rest) = line.strip_prefix("shards ") {
            count = rest.parse().map_err(|_| bad("bad shard count"))?;
        } else if let Some(rest) = line.strip_prefix("next_og ") {
            next_og = rest.parse().map_err(|_| bad("bad next_og"))?;
        } else if let Some(name) = line.strip_prefix("clip ") {
            order.push(name.to_string());
        } else if !line.trim().is_empty() {
            return Err(bad("unrecognized manifest line"));
        }
    }
    if count == 0 {
        return Err(bad("manifest declares zero shards"));
    }
    Ok((count, next_og, order))
}

/// Refuses a directory whose `MANIFEST` disagrees with its shard files:
/// the clip lines that route to shard `s`, in manifest order, must be
/// shard `s`'s clips in order — the walk background matching makes (a
/// name the library let two clips share still round-trips). A crash
/// between writing the manifest and the shard files leaves such a
/// directory.
fn check_manifest(order: &[String], shards: &[Shard]) -> io::Result<()> {
    for (name, (s, p)) in order.iter().zip(clip_positions(order, shards.len())) {
        if shards[s].clips.get(p).map(|c| &c.name) != Some(name) {
            return Err(bad(format!(
                "MANIFEST clip {name:?} is not clip {p} of shard {s} (missing, extra, duplicated or reordered clip)"
            )));
        }
    }
    // Every line matched a distinct stored clip, so equal totals leave none
    // unlisted.
    if order.len() != shards.iter().map(|s| s.clips.len()).sum::<usize>() {
        return Err(bad("MANIFEST lists fewer clips than the shard files hold"));
    }
    Ok(())
}

/// One shard as a STRGDB file image; `next_og` is the database's OG-id
/// counter, which every shard file records.
fn encode_shard(shard: &Shard, next_og: u64) -> Vec<u8> {
    let Shard {
        index,
        clips,
        strg_bytes,
    } = shard;
    let mut out = Vec::with_capacity(64 * 1024);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, 0); // flags (reserved)
    push_record(&mut out, TAG_META, |p| {
        put_u64(p, clips.len() as u64);
        put_u64(p, next_og);
        put_u64(p, *strg_bytes as u64);
    });
    // Clip `i` owns root `i`.
    for (clip, root) in clips.iter().zip(index.roots()) {
        push_record(&mut out, TAG_CLIP, |p| encode_clip(p, clip, root));
    }
    out.extend_from_slice(END_MAGIC);
    out
}

/// Reads one STRGDB file as a shard and the OG-id counter it records,
/// deserializing its index with [`StrgIndex::from_parts`] — no clustering,
/// no distance evaluations.
fn read_shard(path: &Path, opts: &DbOptions, recorder: &Recorder) -> io::Result<(Shard, u64)> {
    let bytes = fs::read(path)?;
    if !bytes.starts_with(MAGIC) {
        return Err(bad("not a STRGDB file (missing the STRGDB2 magic)"));
    }
    let parsed = parse_file(&bytes)?;
    let shard = Shard::new(
        opts,
        recorder,
        parsed.roots,
        parsed.clips,
        parsed.strg_bytes,
    );
    Ok((shard, parsed.next_og))
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

/// The 44-byte head [`put_region`] writes.
fn region_at(b: &[u8]) -> (u32, Rgb, Point2) {
    (
        u32_at(b, 0),
        Rgb::new(f64_at(b, 4), f64_at(b, 12), f64_at(b, 20)),
        point_at(b, 28),
    )
}

/// Splits a file into its records' `(tag, payload)`: the header and
/// trailer magics, the version and flags, and every record's length bound
/// and CRC are checked here, so the decoders below only see intact
/// payloads.
fn split_records(bytes: &[u8]) -> io::Result<Vec<(u32, &[u8])>> {
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
    let mut records = Vec::new();
    let mut pos = 16usize;
    while pos < body_end {
        if body_end - pos < REC_HEADER {
            return Err(bad("truncated record header"));
        }
        let (tag, len, crc) = (
            u32_at(bytes, pos),
            u64_at(bytes, pos + 4),
            u32_at(bytes, pos + 12),
        );
        if len > (body_end - pos - REC_HEADER) as u64 {
            return Err(bad(format!(
                "record length {len} overruns the file (offset {pos})"
            )));
        }
        let payload = &bytes[pos + REC_HEADER..pos + REC_HEADER + len as usize];
        if crc32(payload) != crc {
            return Err(bad(format!("checksum mismatch in record at offset {pos}")));
        }
        records.push((tag, payload));
        pos += REC_HEADER + len as usize;
    }
    Ok(records)
}

fn decode_bg(cur: &mut Cursor<'_>) -> io::Result<BackgroundGraph> {
    let frames_covered = cur.u32()?;
    let nodes: Vec<NodeAttr> = cur
        .run::<44>()?
        .map(|node| {
            let (size, color, centroid) = region_at(node);
            NodeAttr::new(size, color, centroid)
        })
        .collect();
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

/// Decodes one CLIP record into the clip and its root. Each leaf entry is
/// resolved to the OG it names: its sequence is that OG's centroid series
/// and its summary is `metric`'s, the values `add_segment` computed.
/// `last_id` carries the previous clip's largest OG id: ids increase
/// through the file, so an entry finds its OG by binary search. `named`
/// is scratch space, one flag per OG, reused from clip to clip.
fn decode_clip(
    payload: &[u8],
    metric: &EgedMetric<Point2>,
    last_id: &mut Option<u64>,
    named: &mut Vec<bool>,
) -> io::Result<(ClipMeta, RootRecord<Point2>)> {
    let mut cur = Cursor::new(payload, "CLIP record");
    let frames = cur.u64()? as usize;
    let name_len = cur.u32()? as usize;
    let name = std::str::from_utf8(cur.take(name_len)?)
        .map_err(|_| bad("clip name is not UTF-8"))?
        .to_string();
    let n_ogs = cur.count(28)?;
    let mut og_ids = Vec::with_capacity(n_ogs);
    let mut ogs = Vec::with_capacity(n_ogs);
    for _ in 0..n_ogs {
        let id = cur.u64()?;
        if last_id.is_some_and(|last| id <= last) {
            return Err(bad(format!(
                "OG id {id} does not increase through the file (duplicated or out of order)"
            )));
        }
        *last_id = Some(id);
        let og_id = cur.u32()?;
        let start_frame = cur.u64()? as usize;
        let samples = cur
            .run::<60>()?
            .map(|s| {
                let (size, color, centroid) = region_at(s);
                OgSample {
                    size,
                    color,
                    centroid,
                    velocity: f64_at(s, 44),
                    direction: f64_at(s, 52),
                }
            })
            .collect();
        og_ids.push(id);
        ogs.push(ObjectGraph {
            id: og_id,
            start_frame,
            samples,
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
            let i = og_ids.binary_search(&og_id).map_err(|_| {
                bad(format!(
                    "leaf entry names OG {og_id}, which its clip does not hold"
                ))
            })?;
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
        return Err(bad(format!("OG {} is named by no leaf entry", og_ids[i])));
    }
    cur.finish()?;
    let clip = ClipMeta {
        name,
        frames,
        og_ids,
        ogs,
    };
    Ok((clip, RootRecord { bg, clusters }))
}

/// Everything parsed out of a file, before index assembly.
struct Parsed {
    clips: Vec<ClipMeta>,
    roots: Vec<RootRecord<Point2>>,
    strg_bytes: usize,
    next_og: u64,
}

fn parse_file(bytes: &[u8]) -> io::Result<Parsed> {
    let records = split_records(bytes)?;
    let Some((&(TAG_META, meta), rest)) = records.split_first() else {
        return Err(bad("the first record is not META"));
    };
    let mut cur = Cursor::new(meta, "META record");
    let n_clips = cur.u64()?;
    let next_og = cur.u64()?;
    let strg_bytes = cur.u64()? as usize;
    cur.finish()?;
    if n_clips != rest.len() as u64 {
        return Err(bad(format!(
            "META counts {n_clips} clips, the file holds {} CLIP records",
            rest.len()
        )));
    }
    let metric = index_metric();
    let mut clips = Vec::with_capacity(rest.len());
    let mut roots = Vec::with_capacity(rest.len());
    let (mut last_id, mut named) = (None, Vec::new());
    for &(tag, payload) in rest {
        if tag != TAG_CLIP {
            return Err(bad(format!("unexpected record tag {tag:#010x}")));
        }
        let (clip, root) = decode_clip(payload, &metric, &mut last_id, &mut named)?;
        clips.push(clip);
        roots.push(root);
    }
    if last_id.is_some_and(|max| max >= next_og) {
        return Err(bad("META next OG id does not lie past every stored id"));
    }
    Ok(Parsed {
        clips,
        roots,
        strg_bytes,
        next_og,
    })
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
                loaded_format: Some(FORMAT_VERSION),
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

//! Database persistence: the STRGDB segment-file format (version 3, magic
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
//! A segment file serializes the data — clips, Background Graphs, and Object
//! Graphs — together with the **built index**: cluster centroids, leaf
//! records with their metric keys, and the precomputed [`SeqSummary`]
//! sidecars, in fixed-width checksummed binary records. Loading reassembles
//! the tree with [`crate::StrgIndex::from_parts`] — no clustering, no distance
//! evaluations — so a reopened database serves its first k-NN in
//! milliseconds (`benchmark/`'s `reopen` workload and `core.persist.*` rows
//! measure it). A file that does not begin with the `STRGDB2\0` magic is
//! refused with one [`io::ErrorKind::InvalidData`] error.
//!
//! # The record grammar (DESIGN.md §14)
//!
//! ```text
//! file    := header record* toc trailer
//! header  := magic[8]="STRGDB2\0" version:u32=3 flags:u32
//! record  := tag:u32 len:u64 crc:u32 payload[len]        # crc = CRC-32 (IEEE) of payload
//! trailer := toc_offset:u64 magic[8]="STRG2END"
//! ```
//!
//! All integers are little-endian; every `f64` is stored as its IEEE bit
//! pattern (`f64::to_bits`), so round-trips are lossless. Records appear
//! in one canonical order (META, one CLIP per clip, then per segment one
//! ROOT followed by its CLUS/LEAF/SUMS extents per cluster, one OGS extent
//! per clip, TOC). META holds five `u64`s: clip count, OG count, the OG-id
//! counter, `strg_bytes` and the leaf-record count. A SUMS row is a leaf
//! record's [`SeqSummary`]: `len:u64 gap_mass:f64 min_gap:f64`, 24 bytes.
//! A file of any other version is refused. A shard's clips, roots and OG
//! extents are one list in memory and in the file — clip `i` owns root `i`
//! and OGS extent `i` — so the writer renumbers nothing. The deterministic band makes the
//! in-memory index byte-identical at any `STRG_THREADS`, so the serialized
//! bytes are too, and `save → load → save` is a byte-identity (pinned by
//! tests here and in `tests/persist_equivalence.rs`).
//!
//! The TOC footer lists every record's `(tag, root, cluster, offset,
//! len)`. Leaf sequences are self-contained inside their offset-addressed
//! LEAF extents, so a follow-up can demand-page leaves straight from the
//! TOC instead of slurping the file; today the loader reads everything and
//! only uses the TOC as an end-to-end structural cross-check.
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
//! - The loader decodes fixed-width *runs* — centroid and leaf points,
//!   summaries, OG samples, Background Graph nodes and edges, OG id lists,
//!   TOC rows — with one bounds check per run: a count is first bounded
//!   against the bytes that remain (before anything is allocated), then
//!   the run is taken once and every item decoded from its slice. Every
//!   magic, version, CRC, length, count, arity and TOC check stands.
//!
//! # Equivalence
//!
//! `tests/persist_equivalence.rs` pins the fast load to the originally
//! built database in hits, costs, stats, and re-saved bytes, in both
//! layouts.

use std::fs;
use std::io;
use std::path::Path;

use strg_distance::SeqSummary;
use strg_graph::{
    BackgroundGraph, FrameId, NodeAttr, NodeId, ObjectGraph, OgSample, Point2, Rag, Rgb,
};
use strg_obs::Recorder;

use crate::index::{ClusterRecord, LeafNode, LeafRecord, RootRecord};
use crate::options::DbOptions;
use crate::pipeline::{clip_positions, ClipMeta, Shard, VideoDatabase};

/// Leading magic.
const MAGIC: &[u8; 8] = b"STRGDB2\0";
/// Trailing magic (the last 8 bytes of every well-formed file).
const END_MAGIC: &[u8; 8] = b"STRG2END";

/// The format version [`VideoDatabase::save`] writes.
pub const FORMAT_VERSION: u32 = 3;

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

/// Database-wide counts: `clips, ogs, next_og, strg_bytes, index_len`.
const TAG_META: u32 = u32::from_le_bytes(*b"META");
/// One clip's metadata: frames, root position, name, OG ids.
const TAG_CLIP: u32 = u32::from_le_bytes(*b"CLIP");
/// One segment root: Background Graph nodes/edges + cluster count.
const TAG_ROOT: u32 = u32::from_le_bytes(*b"ROOT");
/// One cluster record: the EM centroid sequence.
const TAG_CLUS: u32 = u32::from_le_bytes(*b"CLUS");
/// One leaf extent: every member record of one cluster (key, OG id, seq).
const TAG_LEAF: u32 = u32::from_le_bytes(*b"LEAF");
/// One summary sidecar: the [`SeqSummary`] of each record of one leaf.
const TAG_SUMS: u32 = u32::from_le_bytes(*b"SUMS");
/// One OG extent: the stored Object Graphs of one clip.
const TAG_OGS: u32 = u32::from_le_bytes(*b"OGS\0");
/// The table-of-contents footer.
const TAG_TOC: u32 = u32::from_le_bytes(*b"TOC\0");

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

/// One TOC row: `(tag, root, cluster, offset, len)` — `offset` addresses
/// the record header, `len` covers header + payload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct TocEntry {
    tag: u32,
    a: u32,
    b: u32,
    offset: u64,
    len: u64,
}

/// Record header size: tag (4) + len (8) + crc (4).
const REC_HEADER: usize = 16;

fn push_record(
    out: &mut Vec<u8>,
    toc: &mut Vec<TocEntry>,
    tag: u32,
    a: u32,
    b: u32,
    payload: &[u8],
) {
    toc.push(TocEntry {
        tag,
        a,
        b,
        offset: out.len() as u64,
        len: (REC_HEADER + payload.len()) as u64,
    });
    put_u32(out, tag);
    put_u64(out, payload.len() as u64);
    put_u32(out, crc32(payload));
    out.extend_from_slice(payload);
}

fn encode_bg(payload: &mut Vec<u8>, bg: &BackgroundGraph, n_clusters: usize) {
    let rag = &bg.rag;
    put_u32(payload, bg.frames_covered);
    put_u64(payload, rag.node_count() as u64);
    put_u64(payload, rag.edge_count() as u64);
    put_u64(payload, n_clusters as u64);
    for v in rag.node_ids() {
        let a = rag.attr(v);
        put_u32(payload, a.size);
        put_f64(payload, a.color.r);
        put_f64(payload, a.color.g);
        put_f64(payload, a.color.b);
        put_point(payload, a.centroid);
    }
    for (u, v, _) in rag.edges() {
        put_u32(payload, u.0);
        put_u32(payload, v.0);
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
    let mut toc: Vec<TocEntry> = Vec::new();

    // META.
    let index_len: usize = index.len();
    let mut payload = Vec::new();
    let n_ogs: usize = clips.iter().map(|c| c.ogs.len()).sum();
    put_u64(&mut payload, clips.len() as u64);
    put_u64(&mut payload, n_ogs as u64);
    put_u64(&mut payload, next_og);
    put_u64(&mut payload, *strg_bytes as u64);
    put_u64(&mut payload, index_len as u64);
    push_record(&mut out, &mut toc, TAG_META, 0, 0, &payload);

    // CLIP records, in ingest order, each with its root's position.
    for (ci, c) in clips.iter().enumerate() {
        payload.clear();
        put_u64(&mut payload, c.frames as u64);
        put_u32(&mut payload, ci as u32);
        put_u32(&mut payload, c.name.len() as u32);
        payload.extend_from_slice(c.name.as_bytes());
        put_u64(&mut payload, c.og_ids.len() as u64);
        for &id in &c.og_ids {
            put_u64(&mut payload, id);
        }
        push_record(&mut out, &mut toc, TAG_CLIP, ci as u32, 0, &payload);
    }

    // Per segment: ROOT, then (CLUS, LEAF, SUMS) per cluster.
    for (ri, root) in (0u32..).zip(index.roots()) {
        payload.clear();
        encode_bg(&mut payload, &root.bg, root.clusters.len());
        push_record(&mut out, &mut toc, TAG_ROOT, ri, 0, &payload);

        for (cl_i, cl) in (0u32..).zip(&root.clusters) {
            payload.clear();
            put_u64(&mut payload, cl.centroid.len() as u64);
            for &p in &cl.centroid {
                put_point(&mut payload, p);
            }
            push_record(&mut out, &mut toc, TAG_CLUS, ri, cl_i, &payload);

            payload.clear();
            put_u64(&mut payload, cl.leaf.records.len() as u64);
            for rec in &cl.leaf.records {
                put_f64(&mut payload, rec.key);
                put_u64(&mut payload, rec.og_id);
                put_u64(&mut payload, rec.seq.len() as u64);
                for &p in &rec.seq {
                    put_point(&mut payload, p);
                }
            }
            push_record(&mut out, &mut toc, TAG_LEAF, ri, cl_i, &payload);

            payload.clear();
            put_u64(&mut payload, cl.leaf.records.len() as u64);
            for rec in &cl.leaf.records {
                put_u64(&mut payload, rec.summary.len as u64);
                put_f64(&mut payload, rec.summary.gap_mass);
                put_f64(&mut payload, rec.summary.min_gap);
            }
            push_record(&mut out, &mut toc, TAG_SUMS, ri, cl_i, &payload);
        }
    }

    // One OGS extent per clip, in clip order.
    for (ci, c) in clips.iter().enumerate() {
        payload.clear();
        put_u64(&mut payload, c.ogs.len() as u64);
        for (&id, og) in c.og_ids.iter().zip(&c.ogs) {
            put_u64(&mut payload, id);
            put_u32(&mut payload, og.id);
            put_u64(&mut payload, og.start_frame as u64);
            put_u64(&mut payload, og.samples.len() as u64);
            for smp in &og.samples {
                put_u32(&mut payload, smp.size);
                put_f64(&mut payload, smp.color.r);
                put_f64(&mut payload, smp.color.g);
                put_f64(&mut payload, smp.color.b);
                put_point(&mut payload, smp.centroid);
                put_f64(&mut payload, smp.velocity);
                put_f64(&mut payload, smp.direction);
            }
        }
        push_record(&mut out, &mut toc, TAG_OGS, ci as u32, 0, &payload);
    }

    // TOC footer (lists every record above, not itself) + trailer.
    payload.clear();
    put_u64(&mut payload, toc.len() as u64);
    for e in &toc {
        put_u32(&mut payload, e.tag);
        put_u32(&mut payload, e.a);
        put_u32(&mut payload, e.b);
        put_u64(&mut payload, e.offset);
        put_u64(&mut payload, e.len);
    }
    let toc_offset = out.len() as u64;
    let mut toc_sink = Vec::new();
    push_record(&mut out, &mut toc_sink, TAG_TOC, 0, 0, &payload);
    put_u64(&mut out, toc_offset);
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

/// Bounds-checked little-endian reader over a record payload (or the whole
/// file). Every getter returns a structured error instead of panicking, so
/// arbitrarily corrupt input can never take the process down.
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

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64_at(self.take(8)?, 0))
    }

    /// A count of `min_size`-byte items that must fit in the remaining
    /// payload — rejects absurd counts *before* any allocation, so an
    /// oversized length field yields an error, not an OOM abort.
    fn count(&mut self, min_size: usize) -> io::Result<usize> {
        let n = self.u64()?;
        if n > (self.remaining() / min_size.max(1)) as u64 {
            return Err(bad(format!(
                "oversized count {n} in {} ({} bytes remain)",
                self.what,
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// A run of `n` fixed-width `W`-byte items, taken with one bounds
    /// check: once [`Cursor::count`] has bounded `n`, the items are decoded
    /// straight from the slice by the `*_at` readers instead of one
    /// `Result` per field.
    fn run<const W: usize>(
        &mut self,
        n: usize,
    ) -> io::Result<impl Iterator<Item = &'a [u8; W]> + Clone> {
        let len = n
            .checked_mul(W)
            .ok_or_else(|| bad(format!("oversized count {n} in {}", self.what)))?;
        Ok(self
            .take(len)?
            .chunks_exact(W)
            .map(|item| item.try_into().expect("chunks_exact(W) yields W bytes")))
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

/// `size:u32, r, g, b, x, y` — the 44-byte head shared by a Background
/// Graph node and an OG sample.
fn region_at(b: &[u8]) -> (u32, Rgb, Point2) {
    (
        u32_at(b, 0),
        Rgb::new(f64_at(b, 4), f64_at(b, 12), f64_at(b, 20)),
        point_at(b, 28),
    )
}

/// One decoded record: tag, `(a, b)` addressing, payload slice, and its
/// file offset/length for the TOC cross-check.
struct RawRecord<'a> {
    tag: u32,
    a_hint: TocEntry,
    payload: &'a [u8],
}

/// Splits a file into validated records: header and trailer magics,
/// version, per-record length bounds and CRC, and the TOC footer are all
/// checked here, so the assembly stage below only sees intact payloads.
fn split_records(bytes: &[u8]) -> io::Result<Vec<RawRecord<'_>>> {
    // Header.
    if bytes.len() < 16 + 16 {
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
    // Trailer.
    let trailer = &bytes[bytes.len() - 16..];
    if &trailer[8..] != END_MAGIC {
        return Err(bad("missing STRG2END trailer (truncated file?)"));
    }
    let toc_offset = u64_at(trailer, 0);
    let body_end = bytes.len() - 16;
    if toc_offset < 16 || toc_offset as usize >= body_end {
        return Err(bad("TOC offset out of bounds"));
    }
    let toc_offset = toc_offset as usize;

    // Walk records from the header to the trailer.
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
        records.push(RawRecord {
            tag,
            a_hint: TocEntry {
                tag,
                a: 0,
                b: 0,
                offset: pos as u64,
                len: (REC_HEADER + len as usize) as u64,
            },
            payload,
        });
        pos += REC_HEADER + len as usize;
    }
    if pos != body_end {
        return Err(bad("trailing bytes between last record and trailer"));
    }

    // The last record must be the TOC, sitting exactly at toc_offset; its
    // rows must describe every preceding record (the structural
    // cross-check a future demand-pager relies on).
    let toc_rec = records.pop().ok_or_else(|| bad("empty STRGDB2 file"))?;
    if toc_rec.tag != TAG_TOC || toc_rec.a_hint.offset != toc_offset as u64 {
        return Err(bad("trailer does not point at the TOC record"));
    }
    let mut cur = Cursor::new(toc_rec.payload, "TOC");
    let n = cur.count(28)?;
    if n != records.len() {
        return Err(bad(format!(
            "TOC lists {n} records, file holds {}",
            records.len()
        )));
    }
    // Row: tag:u32 a:u32 b:u32 offset:u64 len:u64 (a, b unchecked).
    for (rec, row) in records.iter().zip(cur.run::<28>(n)?) {
        let (tag, offset, len) = (u32_at(row, 0), u64_at(row, 12), u64_at(row, 20));
        if tag != rec.tag || offset != rec.a_hint.offset || len != rec.a_hint.len {
            return Err(bad("TOC row disagrees with record layout"));
        }
    }
    Ok(records)
}

fn decode_bg(cur: &mut Cursor<'_>) -> io::Result<(BackgroundGraph, usize)> {
    let frames_covered = cur.u32()?;
    let n_nodes = cur.count(44)?;
    let n_edges = cur.u64()?;
    let n_clusters = cur.u64()? as usize;
    let nodes: Vec<NodeAttr> = cur
        .run::<44>(n_nodes)?
        .map(|node| {
            let (size, color, centroid) = region_at(node);
            NodeAttr::new(size, color, centroid)
        })
        .collect();
    if n_edges > (cur.remaining() / 8) as u64 {
        return Err(bad("oversized edge count in ROOT record"));
    }
    let edges = cur
        .run::<8>(n_edges as usize)?
        .map(|edge| (u32_at(edge, 0), u32_at(edge, 4)));
    // `save` writes each edge once as `u < v`, in `(u, v)` order; anything
    // else is refused, so the RAG takes the list without sorting it.
    let mut last = None;
    for (u, v) in edges.clone() {
        if u as usize >= n_nodes || v as usize >= n_nodes {
            return Err(bad("ROOT edge references unknown node"));
        }
        if u >= v || last >= Some((u, v)) {
            return Err(bad("ROOT edges not strictly increasing"));
        }
        last = Some((u, v));
    }
    let rag = Rag::from_pairs(
        FrameId(0),
        nodes,
        edges.map(|(u, v)| (NodeId(u), NodeId(v))),
    );
    Ok((
        BackgroundGraph {
            rag,
            frames_covered,
        },
        n_clusters,
    ))
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
    let mut it = records.iter();

    // META first.
    let meta = it.next().ok_or_else(|| bad("missing META record"))?;
    if meta.tag != TAG_META {
        return Err(bad("first record is not META"));
    }
    let mut cur = Cursor::new(meta.payload, "META");
    let n_clips = cur.u64()? as usize;
    let n_ogs = cur.u64()? as usize;
    let next_og = cur.u64()?;
    let strg_bytes = cur.u64()? as usize;
    let index_len = cur.u64()? as usize;

    // Every clip, root and cluster has a record of its own, so no count
    // read from the file reserves more than the records it holds.
    let cap = records.len();
    let mut clips: Vec<ClipMeta> = Vec::with_capacity(n_clips.min(cap));
    let mut roots: Vec<RootRecord<Point2>> = Vec::with_capacity(n_clips.min(cap));
    // Cluster count declared by each ROOT, checked off by CLUS records.
    let mut declared_clusters: Vec<usize> = Vec::new();
    // OGS extents seen: extent `i` holds clip `i`'s Object Graphs.
    let mut og_extents = 0usize;

    for rec in it {
        let mut cur = Cursor::new(rec.payload, "record payload");
        match rec.tag {
            TAG_CLIP => {
                let frames = cur.u64()? as usize;
                let root_id = cur.u32()?;
                if root_id as usize != clips.len() {
                    return Err(bad("CLIP records out of order"));
                }
                let name_len = cur.u32()? as usize;
                let name = std::str::from_utf8(cur.take(name_len)?)
                    .map_err(|_| bad("clip name is not UTF-8"))?
                    .to_string();
                let n = cur.count(8)?;
                let og_ids = cur.run::<8>(n)?.map(|id| u64_at(id, 0)).collect();
                clips.push(ClipMeta {
                    name,
                    frames,
                    og_ids,
                    ogs: Vec::new(),
                });
            }
            TAG_ROOT => {
                let (bg, n_clusters) = decode_bg(&mut cur)?;
                declared_clusters.push(n_clusters);
                roots.push(RootRecord {
                    bg,
                    clusters: Vec::with_capacity(n_clusters.min(cap)),
                });
            }
            TAG_CLUS => {
                let root = roots.last_mut().ok_or_else(|| bad("CLUS before ROOT"))?;
                let n = cur.count(16)?;
                let centroid = cur.run::<16>(n)?.map(|p| point_at(p, 0)).collect();
                root.clusters.push(ClusterRecord {
                    centroid,
                    leaf: LeafNode::default(),
                });
            }
            TAG_LEAF => {
                let root = roots.last_mut().ok_or_else(|| bad("LEAF before ROOT"))?;
                let cl = root
                    .clusters
                    .last_mut()
                    .ok_or_else(|| bad("LEAF before CLUS"))?;
                if !cl.leaf.records.is_empty() {
                    return Err(bad("duplicate LEAF extent for cluster"));
                }
                let n = cur.count(24)?;
                let mut recs = Vec::with_capacity(n);
                for _ in 0..n {
                    let key = cur.f64()?;
                    let og_id = cur.u64()?;
                    let seq_len = cur.count(16)?;
                    let seq = cur.run::<16>(seq_len)?.map(|p| point_at(p, 0)).collect();
                    recs.push(LeafRecord {
                        key,
                        og_id,
                        seq,
                        // Placeholder until the SUMS sidecar lands.
                        summary: SeqSummary {
                            len: 0,
                            gap_mass: 0.0,
                            min_gap: 0.0,
                        },
                    });
                }
                cl.leaf.records = recs;
            }
            TAG_SUMS => {
                let root = roots.last_mut().ok_or_else(|| bad("SUMS before ROOT"))?;
                let cl = root
                    .clusters
                    .last_mut()
                    .ok_or_else(|| bad("SUMS before CLUS"))?;
                let n = cur.count(24)?;
                if n != cl.leaf.records.len() {
                    return Err(bad("SUMS sidecar arity disagrees with LEAF extent"));
                }
                for (rec, s) in cl.leaf.records.iter_mut().zip(cur.run::<24>(n)?) {
                    rec.summary = SeqSummary {
                        len: u64_at(s, 0) as usize,
                        gap_mass: f64_at(s, 8),
                        min_gap: f64_at(s, 16),
                    };
                }
            }
            TAG_OGS => {
                // Extent `i` belongs to clip `i` and must carry exactly the
                // ids its CLIP record lists, in that order.
                let clip = clips
                    .get_mut(og_extents)
                    .ok_or_else(|| bad("OGS extent without a clip"))?;
                og_extents += 1;
                let n = cur.count(28)?;
                if n != clip.og_ids.len() {
                    return Err(bad("OGS extent disagrees with its clip's OG ids"));
                }
                for &id in &clip.og_ids {
                    if cur.u64()? != id {
                        return Err(bad("OGS extent disagrees with its clip's OG ids"));
                    }
                    let og_id = cur.u32()?;
                    let start_frame = cur.u64()? as usize;
                    let n_samples = cur.count(60)?;
                    let samples = cur
                        .run::<60>(n_samples)?
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
                    clip.ogs.push(ObjectGraph {
                        id: og_id,
                        start_frame,
                        samples,
                    });
                }
            }
            TAG_TOC => return Err(bad("TOC record before end of file")),
            other => {
                return Err(bad(format!("unknown record tag {other:#010x}")));
            }
        }
        if cur.remaining() != 0 {
            return Err(bad("record payload has trailing bytes"));
        }
    }

    if clips.len() != n_clips {
        return Err(bad("CLIP record count disagrees with META"));
    }
    if roots.len() != n_clips {
        return Err(bad("ROOT record count disagrees with META"));
    }
    for (root, &declared) in roots.iter().zip(&declared_clusters) {
        if root.clusters.len() != declared {
            return Err(bad("CLUS record count disagrees with ROOT header"));
        }
        for cl in &root.clusters {
            for rec in &cl.leaf.records {
                if rec.summary.len != rec.seq.len() {
                    return Err(bad("summary sidecar missing or stale for leaf record"));
                }
            }
        }
    }
    if og_extents != n_clips {
        return Err(bad("OGS extent count disagrees with META"));
    }
    if clips.iter().map(|c| c.ogs.len()).sum::<usize>() != n_ogs {
        return Err(bad("stored OG count disagrees with META"));
    }
    let mut ids: Vec<u64> = clips
        .iter()
        .flat_map(|c| c.og_ids.iter().copied())
        .collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err(bad("duplicate OG id across clips"));
    }
    if ids.last().is_some_and(|&max| max >= next_og) {
        return Err(bad("META next OG id does not lie past every stored id"));
    }
    let leaf_total: usize = roots
        .iter()
        .flat_map(|r| &r.clusters)
        .map(|c| c.leaf.records.len())
        .sum();
    if leaf_total != index_len {
        return Err(bad("leaf record count disagrees with META index length"));
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
                loaded_format: Some(3),
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

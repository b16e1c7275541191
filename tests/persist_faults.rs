//! Persistence fault-injection suite: a corrupt STRGDB file must always
//! yield a structured `io::Error` — never a panic, an abort (oversized
//! allocation), or a partially-populated database.
//!
//! The loader's defenses under test: leading/trailing magic and version
//! checks, per-record CRC-32, length-bounds checks before any slice or
//! allocation, count-vs-remaining-bytes caps, the META clip count against
//! the CLIP records and its shard count, canonical edge order, OG-id blocks
//! that follow each other and the OG-id counter, and every leaf entry
//! naming a distinct OG of its own clip's block.

use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use strg::prelude::*;

/// A fresh path per call: the tests of this file run on parallel threads
/// of one process, and two of them sharing a path delete each other's file.
fn temp_path(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "strg_persist_faults_{name}_{}_{unique}",
        std::process::id()
    ))
}

/// A small but structurally complete database: multiple clips, clusters,
/// leaf records, OGs, edges.
fn sample_bytes() -> Vec<u8> {
    let db = VideoDatabase::new(DbOptions::new());
    for seed in [2u64, 6] {
        let clip = VideoClip {
            name: format!("clip-{seed}"),
            scene: lab_scene(&ScenarioConfig {
                n_actors: 2,
                frames: 36,
                seed,
                ..Default::default()
            }),
            fps: 30.0,
        };
        db.ingest_clip(&clip, seed);
    }
    let path = temp_path("sample");
    db.save(&path).expect("save");
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

/// Loads `bytes` as a database file; returns the error, failing the test
/// if the load unexpectedly succeeds or the error is not structured.
fn must_reject(bytes: &[u8], ctx: &str) -> std::io::Error {
    let path = temp_path("case");
    std::fs::write(&path, bytes).unwrap();
    let result = VideoDatabase::load(&path, DbOptions::new());
    let _ = std::fs::remove_file(&path);
    match result {
        Ok(db) => panic!(
            "{ctx}: corrupt file loaded as a database ({} clips, {} objects)",
            db.stats().clips,
            db.stats().objects
        ),
        Err(e) => {
            assert_structured(&e, ctx);
            e
        }
    }
}

/// Loads the database directory `dir`, which must fail with a structured
/// error.
fn must_reject_dir(dir: &Path, ctx: &str) -> std::io::Error {
    match VideoDatabase::load(dir, DbOptions::new()) {
        Ok(db) => panic!("{ctx}: loaded as {:?}", db.clip_names()),
        Err(e) => {
            assert_structured(&e, ctx);
            e
        }
    }
}

/// One actor's 30 lab frames, for the directory cases.
fn one_actor_frames() -> Vec<Frame> {
    let scene = lab_scene(&ScenarioConfig {
        n_actors: 1,
        frames: 30,
        seed: 4,
        ..Default::default()
    });
    let name = "cam".into();
    VideoClip {
        name,
        scene,
        fps: 30.0,
    }
    .render_all(4)
}

/// Structured means `InvalidData` from the format validators (not a panic,
/// not an allocation abort, not a propagated parse artifact).
fn assert_structured(e: &std::io::Error, ctx: &str) {
    assert_eq!(e.kind(), ErrorKind::InvalidData, "{ctx}: {e}");
}

#[test]
fn truncations_are_rejected_everywhere() {
    let bytes = sample_bytes();
    assert!(bytes.len() > 600, "sample too small to exercise truncation");
    // Every prefix length in a spread across the file, plus the exact
    // boundaries that historically go wrong.
    // Inside / just past the header, then the trailer shaved.
    let mut cuts: Vec<usize> = (0..bytes.len()).step_by(211).collect();
    cuts.extend([0, 1, 7, 8, 15, 16]);
    cuts.extend([1, 8, 9, 16, 17].map(|n| bytes.len() - n));
    for cut in cuts {
        must_reject(&bytes[..cut], &format!("truncate at {cut}"));
    }
}

#[test]
fn flipped_bytes_are_rejected_everywhere() {
    let bytes = sample_bytes();
    // Flip one byte at a time across the whole file — header, record
    // headers, payloads, CRCs, trailer. Every single-byte corruption
    // must be caught (payloads by CRC-32, structure by the validators).
    for pos in (0..bytes.len()).step_by(37) {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0xFF;
        must_reject(&corrupt, &format!("flip at {pos}"));
    }
}

#[test]
fn garbage_and_bad_headers_are_rejected() {
    for (name, bytes) in [
        ("empty", Vec::new()),
        ("short", b"STRG".to_vec()),
        ("text garbage", b"not a database at all\n".to_vec()),
        ("v1 header only", b"STRGDB v1\n".to_vec()),
        ("v1 bad counts", b"STRGDB v1\nclips notanumber\n".to_vec()),
        (
            "binary garbage",
            (0..4096u32).flat_map(|i| i.to_le_bytes()).collect(),
        ),
        // Non-UTF-8 that is also not v2 magic.
        ("non-utf8", vec![0xFF, 0xFE, 0x00, 0x01, 0x80]),
    ] {
        let e = must_reject(&bytes, name);
        assert!(
            e.to_string().contains("STRGDB2"),
            "{name}: error should name the STRGDB2 magic: {e}"
        );
    }
}

#[test]
fn unsupported_version_is_rejected() {
    // Version field lives at offset 8..12. Version 2 is the retired layout
    // with 56-byte summary rows, version 3 the one that stored every leaf
    // sequence a second time beside a summary sidecar and a TOC, version 4
    // the one that stored two ids per OG and the STRG size, one file per
    // shard; 6 is from the future.
    for version in [2u32, 3, 4, 6] {
        let mut bytes = sample_bytes();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let ctx = format!("version {version}");
        let e = must_reject(&bytes, &ctx);
        assert!(
            e.to_string().contains(&ctx),
            "error should name the version: {e}"
        );
    }
}

/// Offsets of each record header (tag, len, crc) walked from the file
/// layout itself.
fn record_offsets(bytes: &[u8]) -> Vec<(usize, u64)> {
    let mut out = Vec::new();
    let mut pos = 16usize;
    let body_end = bytes.len() - 8;
    while pos < body_end {
        let len = u64_at(bytes, pos + 4);
        out.push((pos, len));
        pos += 16 + len as usize;
    }
    out
}

#[test]
fn zero_length_and_oversized_length_fields_are_rejected() {
    let bytes = sample_bytes();
    for (i, (off, len)) in record_offsets(&bytes).iter().enumerate() {
        // Oversized: a length claiming more bytes than the file holds must
        // be caught by the bounds check before any slicing or allocation.
        let mut oversized = bytes.clone();
        oversized[off + 4..off + 12].copy_from_slice(&u64::MAX.to_le_bytes());
        must_reject(&oversized, &format!("record {i} len=u64::MAX"));

        // Zero: collapsing a non-empty record desynchronizes the walk; the
        // CRC, length or tag check must refuse the file.
        if *len > 0 {
            let mut zeroed = bytes.clone();
            zeroed[off + 4..off + 12].copy_from_slice(&0u64.to_le_bytes());
            must_reject(&zeroed, &format!("record {i} len=0"));
        }
    }
}

#[test]
fn oversized_internal_counts_are_rejected_without_allocating() {
    // META holds clips, next_og, shards — all u64. Claim 2^60 clips
    // and re-seal the CRC so the count check itself (not the checksum)
    // has to reject it. `Vec::with_capacity(2^60)` would abort the
    // process, so surviving this case proves counts are capped before
    // allocation.
    let mut evil = split_records(&sample_bytes());
    evil[0].1[..8].copy_from_slice(&(1u64 << 60).to_le_bytes());
    must_reject(&assemble(&evil), "META clips=2^60");
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// One record of a file: `(tag, payload)`.
type Record = (u32, Vec<u8>);

/// Splits a well-formed file into its records: META, then one CLIP per
/// clip.
fn split_records(bytes: &[u8]) -> Vec<Record> {
    record_offsets(bytes)
        .into_iter()
        .map(|(off, len)| {
            let tag = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
            (tag, bytes[off + 16..off + 16 + len as usize].to_vec())
        })
        .collect()
}

/// Writes `records` back as a complete file — header, CRC-sealed
/// records, trailer — so a tampered payload passes every framing check
/// and reaches its record decoder.
fn assemble(records: &[Record]) -> Vec<u8> {
    let mut out = b"STRGDB2\0".to_vec();
    out.extend(FORMAT_VERSION.to_le_bytes());
    out.extend(0u32.to_le_bytes());
    for (tag, payload) in records {
        out.extend(tag.to_le_bytes());
        out.extend((payload.len() as u64).to_le_bytes());
        out.extend(crc32_of(payload).to_le_bytes());
        out.extend(payload);
    }
    out.extend(b"STRG2END");
    out
}

/// Where the `u64` count of each run of a CLIP payload sits, walked by
/// the grammar in `strg_core::persist`'s docs.
struct ClipLayout {
    /// The clip's first OG id; its OG count follows it.
    first_og: usize,
    ogs: usize,
    /// The first OG's sample count.
    samples: usize,
    nodes: usize,
    edges: usize,
    clusters: usize,
    /// Per cluster: its centroid's point count and its leaf-entry count.
    cluster_runs: Vec<(usize, usize)>,
}

fn clip_layout(p: &[u8]) -> ClipLayout {
    let count = |at: usize| u64_at(p, at) as usize;
    let first_og = 12 + u32::from_le_bytes(p[8..12].try_into().unwrap()) as usize;
    let ogs = first_og + 8;
    let mut at = ogs + 8;
    for _ in 0..count(ogs) {
        at += 16 + 60 * count(at + 8);
    }
    let nodes = at + 4;
    let edges = nodes + 8 + 44 * count(nodes);
    let clusters = edges + 8 + 8 * count(edges);
    let mut at = clusters + 8;
    let cluster_runs = (0..count(clusters))
        .map(|_| {
            let entries = at + 8 + 16 * count(at);
            let runs = (at, entries);
            at = entries + 8 + 16 * count(entries);
            runs
        })
        .collect();
    assert_eq!(at, p.len(), "the walk must cover the payload");
    ClipLayout {
        first_og,
        ogs,
        samples: ogs + 16,
        nodes,
        edges,
        clusters,
        cluster_runs,
    }
}

/// META and a CLIP cut short inside each of its sections (and re-framed,
/// so the cut reaches the decoders): every cut is a structured error.
#[test]
fn truncated_payloads_are_rejected_by_their_decoders() {
    let bytes = sample_bytes();
    let records = split_records(&bytes);
    assert_eq!(
        assemble(&records),
        bytes,
        "the test's writer must round-trip"
    );
    let clip = clip_layout(&records[1].1);
    let (points, entries) = clip.cluster_runs[0];
    let len = records[1].1.len();
    // 13 bytes into each section: past its count, inside its first item.
    let inside = [clip.samples, clip.nodes, clip.edges, points, entries].map(|at| at + 13);
    for (pos, cuts) in [
        (0, vec![0, 7, 8, 23]),
        (1, [0, 7, 9, len / 2, len - 8, len - 1].into()),
        (1, inside.into()),
    ] {
        for cut in cuts {
            let mut evil = records.clone();
            evil[pos].1.truncate(cut);
            must_reject(&assemble(&evil), &format!("record {pos} cut to {cut}"));
        }
    }
}

/// Oversized OG, sample, node, edge, cluster, point and leaf-entry counts,
/// each re-sealed with a valid CRC so the count check itself must refuse
/// it before allocating; and an edge naming a node the Background Graph
/// does not hold.
#[test]
fn oversized_run_counts_and_unknown_edge_nodes_are_rejected() {
    let records = split_records(&sample_bytes());
    let clip = clip_layout(&records[1].1);
    let (points, entries) = clip.cluster_runs[0];
    let n_nodes = u64_at(&records[1].1, clip.nodes) as usize;
    let n_edges = u64_at(&records[1].1, clip.edges);
    assert!(
        n_nodes > 1 && n_edges > 0,
        "sample BG needs nodes and edges"
    );
    let fields = [
        (clip.ogs, "OGs"),
        (clip.samples, "first OG's samples"),
        (clip.nodes, "BG nodes"),
        (clip.edges, "BG edges"),
        (clip.clusters, "clusters"),
        (points, "centroid points"),
        (entries, "leaf entries"),
    ];
    let len = records[1].1.len();
    for (at, what) in fields {
        // Every item is at least 8 bytes, so `len / 8 + 1` never fits.
        for n in [u64::MAX, 1 << 60, len as u64 / 8 + 1] {
            let mut evil = records.clone();
            evil[1].1[at..at + 8].copy_from_slice(&n.to_le_bytes());
            must_reject(&assemble(&evil), &format!("{what} = {n}"));
        }
    }
    let first_edge = clip.edges + 8;
    for u in [n_nodes as u32, u32::MAX] {
        let mut evil = records.clone();
        evil[1].1[first_edge..first_edge + 4].copy_from_slice(&u.to_le_bytes());
        let e = must_reject(&assemble(&evil), "edge to unknown node");
        assert!(e.to_string().contains("unknown node"), "{e}");
    }
}

/// `save` writes a Background Graph's edges once each, as `u < v`, in
/// `(u, v)` order. A duplicate, reversed, self-loop or out-of-order edge is
/// refused rather than repaired, so the loader can build the graph
/// without sorting.
#[test]
fn root_edges_out_of_canonical_order_are_rejected() {
    let records = split_records(&sample_bytes());
    let payload = &records[1].1;
    let at = clip_layout(payload).edges;
    assert!(u64_at(payload, at) >= 2, "sample BG needs two edges");
    let edge = |i: usize| payload[at + 8 + 8 * i..at + 16 + 8 * i].to_vec();
    let (e0, e1) = (edge(0), edge(1));
    let mut reversed = e0[4..].to_vec();
    reversed.extend(&e0[..4]);
    let mut self_loop = e0[..4].to_vec();
    self_loop.extend(&e0[..4]);
    let cases = [
        ("duplicate", [e0.clone(), e0.clone()]),
        ("reversed", [reversed, e1.clone()]),
        ("self-loop", [self_loop, e1.clone()]),
        ("unsorted", [e1, e0]),
    ];
    for (what, [first, second]) in cases {
        let mut evil = records.clone();
        evil[1].1[at + 8..at + 16].copy_from_slice(&first);
        evil[1].1[at + 16..at + 24].copy_from_slice(&second);
        let e = must_reject(&assemble(&evil), what);
        assert!(
            e.to_string().contains("edges not strictly increasing"),
            "{what}: {e}"
        );
    }
}

/// Every stored OG has exactly one leaf entry, in its own clip: an entry
/// naming another clip's OG, two entries naming one OG, and an OG no entry
/// names are each refused (a database removes only whole clips).
#[test]
fn leaf_entries_must_name_each_of_their_clips_ogs_once() {
    let records = split_records(&sample_bytes());
    let clip = clip_layout(&records[1].1);
    let (_, first) = clip.cluster_runs[0];
    let (_, last) = *clip.cluster_runs.last().unwrap();
    let foreign = u64_at(&records[2].1, clip_layout(&records[2].1).first_og);
    let (n, len) = (u64_at(&records[1].1, last), records[1].1.len());
    let mut cases = [
        ("foreign", "which its clip does not hold"),
        ("twice", "named by two leaf entries"),
        ("unnamed", "named by no leaf entry"),
    ]
    .map(|(what, text)| (what, text, records.clone()));
    cases[0].2[1].1[first + 16..first + 24].copy_from_slice(&foreign.to_le_bytes());
    // The last entry ends the payload: repeat it, or drop it.
    let last_entry = records[1].1[len - 16..].to_vec();
    cases[1].2[1].1.extend(last_entry);
    cases[1].2[1].1[last..last + 8].copy_from_slice(&(n + 1).to_le_bytes());
    cases[2].2[1].1.truncate(len - 16);
    cases[2].2[1].1[last..last + 8].copy_from_slice(&(n - 1).to_le_bytes());
    for (what, text, evil) in cases {
        let e = must_reject(&assemble(&evil), what);
        assert!(e.to_string().contains(text), "{what}: {e}");
    }
}

/// Each clip's OG ids are one block, and the blocks follow each other in
/// the file: a block that starts inside the previous clip's, or one whose
/// end overflows the id space, is refused.
#[test]
fn og_blocks_must_follow_each_other() {
    let records = split_records(&sample_bytes());
    let (a, b) = (clip_layout(&records[1].1), clip_layout(&records[2].1));
    let first_a = u64_at(&records[1].1, a.first_og);
    assert!(
        u64_at(&records[1].1, a.ogs) > 0,
        "the first clip stores OGs"
    );
    for (what, first_b, text) in [
        ("overlapping", first_a, "inside the previous clip's"),
        ("overflowing", u64::MAX, "overflows"),
    ] {
        let mut evil = records.clone();
        evil[2].1[b.first_og..b.first_og + 8].copy_from_slice(&first_b.to_le_bytes());
        let e = must_reject(&assemble(&evil), what);
        assert!(e.to_string().contains(text), "{what}: {e}");
    }
}

/// META's OG-id counter (its second field) must lie past every stored id:
/// a counter at or below one would hand a live id out again.
#[test]
fn next_og_behind_a_stored_id_is_rejected() {
    let records = split_records(&sample_bytes());
    assert_eq!(records[0].0, u32::from_le_bytes(*b"META"));
    let next_og = u64_at(&records[0].1, 8);
    assert!(next_og > 0, "the sample stores objects");
    for n in [0, next_og - 1] {
        let mut evil = records.clone();
        evil[0].1[8..16].copy_from_slice(&n.to_le_bytes());
        let ctx = format!("META next_og = {n} of {next_og}");
        let e = must_reject(&assemble(&evil), &ctx);
        assert!(e.to_string().contains("next OG id"), "{ctx}: {e}");
    }
}

/// Local bitwise CRC-32 (IEEE) mirror so the test can re-seal a record
/// after tampering with its payload.
fn crc32_of(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// META's shard count (its third field) must be at least one, and small
/// enough that building one empty tree per shard cannot exhaust memory.
#[test]
fn meta_shard_count_out_of_range_is_rejected() {
    let records = split_records(&sample_bytes());
    for n in [0, u64::MAX] {
        let mut evil = records.clone();
        evil[0].1[16..24].copy_from_slice(&n.to_le_bytes());
        let ctx = format!("META shards = {n}");
        let e = must_reject(&assemble(&evil), &ctx);
        assert!(e.to_string().contains("shard count"), "{ctx}: {e}");
    }
}

/// The one regular file a database directory holds.
fn the_file(dir: &Path) -> PathBuf {
    let files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "a database directory holds one file");
    files.into_iter().next().unwrap()
}

/// A directory is a database only through the one file `save` writes into
/// it: that file corrupt, or missing, fails the load.
#[test]
fn corrupt_shard_file_fails_the_whole_load() {
    let db = ShardedDatabase::new(DbOptions::new().shards(2));
    db.ingest_frames("only", &one_actor_frames());
    let dir = temp_path("shard_corrupt");
    db.save(&dir).unwrap();
    // Flip a byte in the middle of the directory's file.
    let file = the_file(&dir);
    let mut bytes = std::fs::read(&file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&file, &bytes).unwrap();
    must_reject_dir(&dir, "corrupt shard");
    std::fs::remove_file(&file).unwrap();
    let result = VideoDatabase::load(&dir, DbOptions::new());
    let _ = std::fs::remove_dir_all(&dir);
    let e = result.err().expect("a directory without its file loaded");
    assert_eq!(e.kind(), ErrorKind::NotFound, "{e}");
}

/// Names the library does not refuse (the CLI and the server do) round-trip
/// through a sharded save: one with a line break, and one name given to
/// two clips, whose shard keeps both in ingest order.
#[test]
fn sharded_save_refuses_a_name_the_manifest_cannot_hold() {
    let frames = one_actor_frames();
    for names in [&["good", "a\nb"], &["twin", "twin"]] {
        let db = ShardedDatabase::new(DbOptions::new().shards(3));
        for name in names {
            db.ingest_frames(name, &frames);
        }
        let dir = temp_path("sharded_names");
        db.save(&dir).unwrap();
        let reloaded = ShardedDatabase::load(&dir, DbOptions::new());
        let _ = std::fs::remove_dir_all(&dir);
        let reloaded = reloaded.expect("the saved names load");
        assert_eq!(reloaded.clip_names(), names, "{names:?}");
        assert_eq!(reloaded.stats().objects, db.stats().objects, "{names:?}");
    }
}

//! Persistence fault-injection suite: a corrupt STRGDB file must always
//! yield a structured `io::Error` — never a panic, an abort (oversized
//! allocation), or a partially-populated database.
//!
//! The v2 loader's defenses under test: leading/trailing magic and version
//! checks, per-record CRC-32, length-bounds checks before any slice or
//! allocation, count-vs-remaining-bytes caps, arity cross-checks between
//! META / CLIP / ROOT / CLUS / LEAF / SUMS / OGS records, and the TOC
//! structural cross-check.

use std::io::ErrorKind;
use std::path::PathBuf;
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
/// if the load unexpectedly succeeds.
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
        Err(e) => e,
    }
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
    let mut cuts: Vec<usize> = (0..bytes.len()).step_by(211).collect();
    cuts.extend([
        0,
        1,
        7,
        8,
        15,
        16, // inside / just past the header
        bytes.len() - 1,
        bytes.len() - 8,
        bytes.len() - 16, // trailer shaved
        bytes.len() - 17,
    ]);
    for cut in cuts {
        let e = must_reject(&bytes[..cut], &format!("truncate at {cut}"));
        assert_structured(&e, &format!("truncate at {cut}"));
    }
}

#[test]
fn flipped_bytes_are_rejected_everywhere() {
    let bytes = sample_bytes();
    // Flip one byte at a time across the whole file — header, record
    // headers, payloads, CRCs, TOC, trailer. Every single-byte corruption
    // must be caught (payloads by CRC-32, structure by the validators).
    for pos in (0..bytes.len()).step_by(37) {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0xFF;
        let e = must_reject(&corrupt, &format!("flip at {pos}"));
        assert_structured(&e, &format!("flip at {pos}"));
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
        assert_structured(&e, name);
        assert!(
            e.to_string().contains("STRGDB2"),
            "{name}: error should name the STRGDB2 magic: {e}"
        );
    }
}

#[test]
fn unsupported_version_is_rejected() {
    // Version field lives at offset 8..12. Version 2 is the retired
    // layout with 56-byte summary rows; 4 is from the future.
    for version in [2u32, 4] {
        let mut bytes = sample_bytes();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let ctx = format!("version {version}");
        let e = must_reject(&bytes, &ctx);
        assert_structured(&e, &ctx);
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
    let body_end = bytes.len() - 16;
    while pos < body_end {
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
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
        let e = must_reject(&oversized, &format!("record {i} len=u64::MAX"));
        assert_structured(&e, &format!("record {i} len=u64::MAX"));

        // Zero: collapsing a non-empty record desynchronizes the walk; the
        // CRC, tag, or TOC cross-check must refuse the file.
        if *len > 0 {
            let mut zeroed = bytes.clone();
            zeroed[off + 4..off + 12].copy_from_slice(&0u64.to_le_bytes());
            let e = must_reject(&zeroed, &format!("record {i} len=0"));
            assert_structured(&e, &format!("record {i} len=0"));
        }
    }
}

#[test]
fn oversized_internal_counts_are_rejected_without_allocating() {
    let bytes = sample_bytes();
    // The META payload starts right after the first record header at 16:
    // clips, ogs, next_og, strg_bytes, index_len — all u64. Claim 2^60 clips
    // and fix up the CRC so the count check itself (not the checksum) has
    // to reject it. `Vec::with_capacity(2^60)` would abort the process, so
    // surviving this case proves counts are capped before allocation.
    let meta_payload = 32usize;
    let mut evil = bytes.clone();
    evil[meta_payload..meta_payload + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
    let len = u64::from_le_bytes(bytes[20..28].try_into().unwrap()) as usize;
    let crc = crc32_of(&evil[meta_payload..meta_payload + len]);
    evil[28..32].copy_from_slice(&crc.to_le_bytes());
    let e = must_reject(&evil, "META clips=2^60");
    assert_structured(&e, "META clips=2^60");
}

/// One record of a v2 file: `(tag, a, b, payload)`, `a`/`b` from its TOC row.
type Record = (u32, u32, u32, Vec<u8>);

fn tag(name: &[u8; 4]) -> u32 {
    u32::from_le_bytes(*name)
}

/// Splits a well-formed v2 file into its records (the TOC excluded).
fn split_records(bytes: &[u8]) -> Vec<Record> {
    let offsets = record_offsets(bytes);
    let (&(toc_off, _), body) = offsets.split_last().expect("a TOC record");
    let rows = &bytes[toc_off + 16 + 8..];
    body.iter()
        .enumerate()
        .map(|(i, &(off, len))| {
            let row = &rows[i * 28..];
            (
                u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()),
                u32::from_le_bytes(row[4..8].try_into().unwrap()),
                u32::from_le_bytes(row[8..12].try_into().unwrap()),
                bytes[off + 16..off + 16 + len as usize].to_vec(),
            )
        })
        .collect()
}

/// Writes `records` back as a complete v2 file — header, CRC-sealed
/// records, a TOC that agrees with them, trailer — so a tampered payload
/// passes every framing check and reaches its record decoder.
fn assemble(records: &[Record]) -> Vec<u8> {
    let mut out = b"STRGDB2\0".to_vec();
    out.extend(FORMAT_VERSION.to_le_bytes());
    out.extend(0u32.to_le_bytes());
    let push = |out: &mut Vec<u8>, tag: u32, payload: &[u8]| {
        out.extend(tag.to_le_bytes());
        out.extend((payload.len() as u64).to_le_bytes());
        out.extend(crc32_of(payload).to_le_bytes());
        out.extend(payload);
    };
    let mut toc = (records.len() as u64).to_le_bytes().to_vec();
    for (tag, a, b, payload) in records {
        toc.extend(tag.to_le_bytes());
        toc.extend(a.to_le_bytes());
        toc.extend(b.to_le_bytes());
        toc.extend((out.len() as u64).to_le_bytes());
        toc.extend((16 + payload.len() as u64).to_le_bytes());
        push(&mut out, *tag, payload);
    }
    let toc_offset = out.len() as u64;
    push(&mut out, tag(b"TOC\0"), &toc);
    out.extend(toc_offset.to_le_bytes());
    out.extend(b"STRG2END");
    out
}

/// A record of every kind cut short inside its payload (and re-framed, so
/// the cut reaches the run decoders): every cut is a structured error.
#[test]
fn truncated_payloads_are_rejected_by_their_decoders() {
    let bytes = sample_bytes();
    let records = split_records(&bytes);
    assert_eq!(
        assemble(&records),
        bytes,
        "the test's writer must round-trip"
    );
    for name in [b"ROOT", b"CLUS", b"LEAF", b"SUMS", b"OGS\0"] {
        let pos = records
            .iter()
            .position(|r| r.0 == tag(name))
            .expect("sample holds every record kind");
        let name = String::from_utf8_lossy(name);
        let len = records[pos].3.len();
        assert!(len > 16, "{name} payload too short to cut");
        for cut in [0, 7, 8, 9, len / 2, len - 8, len - 1] {
            let mut evil = records.clone();
            evil[pos].3.truncate(cut);
            let ctx = format!("{name} cut to {cut} of {len}");
            let e = must_reject(&assemble(&evil), &ctx);
            assert_structured(&e, &ctx);
        }
    }
}

/// Oversized point, sample, node, edge and cluster counts, each re-sealed
/// with a valid CRC so the count check itself must refuse it before
/// allocating; and a ROOT edge naming a node the record does not hold.
#[test]
fn oversized_run_counts_and_unknown_edge_nodes_are_rejected() {
    let bytes = sample_bytes();
    let records = split_records(&bytes);
    let first = |name: &[u8; 4]| records.iter().position(|r| r.0 == tag(name)).unwrap();
    let root = first(b"ROOT");
    let n_nodes = u64::from_le_bytes(records[root].3[4..12].try_into().unwrap()) as usize;
    let n_edges = u64::from_le_bytes(records[root].3[12..20].try_into().unwrap());
    assert!(
        n_nodes > 1 && n_edges > 0,
        "sample BG needs nodes and edges"
    );
    // (record, byte offset of the u64 count in its payload, what it counts)
    let fields = [
        (first(b"CLUS"), 0, "centroid points"),
        (first(b"LEAF"), 24, "first leaf sequence's points"),
        (first(b"SUMS"), 0, "summaries"),
        (first(b"OGS\0"), 28, "first OG's samples"),
        (root, 4, "BG nodes"),
        (root, 12, "BG edges"),
        (root, 20, "clusters"),
    ];
    for (pos, at, what) in fields {
        let len = records[pos].3.len();
        assert!(len >= at + 8, "{what}: payload holds no such count");
        // Every item is at least 8 bytes, so `len / 8 + 1` never fits.
        for n in [u64::MAX, 1 << 60, len as u64 / 8 + 1] {
            let mut evil = records.clone();
            evil[pos].3[at..at + 8].copy_from_slice(&n.to_le_bytes());
            let ctx = format!("{what} = {n}");
            let e = must_reject(&assemble(&evil), &ctx);
            assert_structured(&e, &ctx);
        }
    }
    let first_edge = 28 + 44 * n_nodes;
    for u in [n_nodes as u32, u32::MAX] {
        let mut evil = records.clone();
        evil[root].3[first_edge..first_edge + 4].copy_from_slice(&u.to_le_bytes());
        let e = must_reject(&assemble(&evil), "edge to unknown node");
        assert_structured(&e, "edge to unknown node");
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
    let root = records.iter().position(|r| r.0 == tag(b"ROOT")).unwrap();
    let payload = &records[root].3;
    let n_nodes = u64::from_le_bytes(payload[4..12].try_into().unwrap()) as usize;
    let n_edges = u64::from_le_bytes(payload[12..20].try_into().unwrap());
    assert!(n_edges >= 2, "sample BG needs two edges");
    let at = 28 + 44 * n_nodes;
    let edge = |i: usize| payload[at + 8 * i..at + 8 * i + 8].to_vec();
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
        evil[root].3[at..at + 8].copy_from_slice(&first);
        evil[root].3[at + 8..at + 16].copy_from_slice(&second);
        let e = must_reject(&assemble(&evil), what);
        assert_structured(&e, what);
        assert!(
            e.to_string().contains("ROOT edges not strictly increasing"),
            "{what}: {e}"
        );
    }
}

/// META's OG-id counter (its third field) must lie past every stored id:
/// a counter at or below one would hand a live id out again.
#[test]
fn next_og_behind_a_stored_id_is_rejected() {
    let records = split_records(&sample_bytes());
    assert_eq!(records[0].0, tag(b"META"));
    let next_og = u64::from_le_bytes(records[0].3[16..24].try_into().unwrap());
    assert!(next_og > 0, "the sample stores objects");
    for n in [0, next_og - 1] {
        let mut evil = records.clone();
        evil[0].3[16..24].copy_from_slice(&n.to_le_bytes());
        let ctx = format!("META next_og = {n} of {next_og}");
        let e = must_reject(&assemble(&evil), &ctx);
        assert_structured(&e, &ctx);
        assert!(e.to_string().contains("next OG id"), "{ctx}: {e}");
    }
}

/// Local CRC-32 (IEEE) mirror so the test can re-seal a record after
/// tampering with its payload.
fn crc32_of(data: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, t) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *t = c;
    }
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[test]
fn sharded_manifest_faults_are_rejected() {
    // A missing shard file referenced by an otherwise valid manifest.
    let dir = temp_path("shard_missing");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("MANIFEST"),
        "STRG-SHARDS v2\nshards 2\nnext_og 0\n",
    )
    .unwrap();
    let r = ShardedDatabase::load(&dir, DbOptions::new());
    assert!(r.is_err(), "missing shard files accepted");

    // Garbage manifests: an unknown version, and the retired v1 stamp.
    for header in ["STRG-SHARDS v9", "STRG-SHARDS v1"] {
        std::fs::write(dir.join("MANIFEST"), format!("{header}\nshards 1\n")).unwrap();
        let Err(e) = ShardedDatabase::load(&dir, DbOptions::new()) else {
            panic!("{header} manifest accepted");
        };
        assert_eq!(e.kind(), ErrorKind::InvalidData, "{header}: {e}");
    }

    // Zero shards.
    std::fs::write(dir.join("MANIFEST"), "STRG-SHARDS v2\nshards 0\n").unwrap();
    let Err(e) = ShardedDatabase::load(&dir, DbOptions::new()) else {
        panic!("zero-shard manifest accepted");
    };
    assert_eq!(e.kind(), ErrorKind::InvalidData, "{e}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_shard_file_fails_the_whole_load() {
    let db = ShardedDatabase::new(DbOptions::new().shards(2));
    let clip = VideoClip {
        name: "only".into(),
        scene: lab_scene(&ScenarioConfig {
            n_actors: 1,
            frames: 30,
            seed: 4,
            ..Default::default()
        }),
        fps: 30.0,
    };
    db.ingest_clip(&clip, 4);
    let dir = temp_path("shard_corrupt");
    db.save(&dir).unwrap();
    // Flip a byte in the middle of shard 0's file.
    let shard0 = dir.join("shard-000.strgdb");
    let mut bytes = std::fs::read(&shard0).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&shard0, &bytes).unwrap();
    let r = ShardedDatabase::load(&dir, DbOptions::new());
    let _ = std::fs::remove_dir_all(&dir);
    let Err(e) = r else {
        panic!("corrupt shard accepted");
    };
    assert_eq!(e.kind(), ErrorKind::InvalidData, "{e}");
}

/// A clip name with a line break, ingested through the library (no front
/// end to refuse it), cannot go into the one-name-per-line manifest: `save`
/// fails with `InvalidInput` before touching the directory, so the state
/// saved before it still loads.
#[test]
fn sharded_save_refuses_a_name_the_manifest_cannot_hold() {
    let db = ShardedDatabase::new(DbOptions::new().shards(2));
    let scene = lab_scene(&ScenarioConfig {
        n_actors: 1,
        frames: 30,
        seed: 4,
        ..Default::default()
    });
    let frames = VideoClip {
        name: "good".into(),
        scene,
        fps: 30.0,
    }
    .render_all(4);
    db.ingest_frames("good", &frames);
    let dir = temp_path("shard_newline_name");
    db.save(&dir).unwrap();
    let manifest = std::fs::read(dir.join("MANIFEST")).unwrap();

    db.ingest_frames("a\nb", &frames);
    let e = db
        .save(&dir)
        .expect_err("a manifest with a split line was written");
    assert_eq!(e.kind(), ErrorKind::InvalidInput, "{e}");
    assert_eq!(std::fs::read(dir.join("MANIFEST")).unwrap(), manifest);
    let reloaded = ShardedDatabase::load(&dir, DbOptions::new()).expect("previous state loads");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(reloaded.clip_names(), ["good"]);
}

/// A `MANIFEST` that disagrees with its shard files is refused, not loaded
/// as a different database: a clip missing from it, an extra or a
/// duplicated clip line, or a clip stored in a shard its name does not
/// route to. `save` writes the manifest before the shard files, so a crash
/// between the two leaves such a directory.
#[test]
fn manifest_disagreeing_with_its_shard_files_is_rejected() {
    let db = VideoDatabase::new(DbOptions::new().shards(3));
    let frames = VideoClip {
        name: "cam".into(),
        scene: lab_scene(&ScenarioConfig {
            n_actors: 1,
            frames: 30,
            seed: 4,
            ..Default::default()
        }),
        fps: 30.0,
    }
    .render_all(4);
    for name in ["cam1", "cam2"] {
        db.ingest_frames(name, &frames);
    }
    let dir = temp_path("manifest_mismatch");
    db.save(&dir).unwrap();
    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).unwrap();
    VideoDatabase::load(&dir, DbOptions::new()).expect("the saved directory loads");

    for (what, text) in [
        ("missing clip", manifest.replace("clip cam1\n", "")),
        ("extra clip", format!("{manifest}clip ghost\n")),
        ("duplicated clip", format!("{manifest}clip cam2\n")),
    ] {
        std::fs::write(dir.join("MANIFEST"), text).unwrap();
        let Err(e) = VideoDatabase::load(&dir, DbOptions::new()) else {
            panic!("{what}: an inconsistent manifest loaded");
        };
        assert_structured(&e, what);
    }

    // Wrong shard: cam1's shard file and the next one trade places.
    std::fs::write(dir.join("MANIFEST"), &manifest).unwrap();
    let s = strg::core::route("cam1", 3);
    let a = dir.join(format!("shard-{s:03}.strgdb"));
    let b = dir.join(format!("shard-{:03}.strgdb", (s + 1) % 3));
    let (bytes_a, bytes_b) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    std::fs::write(&a, bytes_b).unwrap();
    std::fs::write(&b, bytes_a).unwrap();
    let r = VideoDatabase::load(&dir, DbOptions::new());
    let _ = std::fs::remove_dir_all(&dir);
    let Err(e) = r else {
        panic!("a clip in the wrong shard loaded");
    };
    assert_structured(&e, "wrong shard");

    // The library does not refuse a repeated name (the CLI and the server
    // do), so a manifest listing a name twice is consistent when its shard
    // holds two clips of that name, and it loads.
    let twins = VideoDatabase::new(DbOptions::new().shards(3));
    twins.ingest_frames("twin", &frames);
    twins.ingest_frames("twin", &frames);
    let dir = temp_path("manifest_twins");
    twins.save(&dir).unwrap();
    let r = VideoDatabase::load(&dir, DbOptions::new());
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        r.expect("repeated name loads").clip_names(),
        ["twin", "twin"]
    );
}

/// Two clips of one shard whose `MANIFEST` lines trade places: every name
/// and count still agrees, but the manifest's order is not the shard's
/// root order, so the load is refused rather than reporting the swap.
#[test]
fn manifest_reordering_clips_of_one_shard_is_rejected() {
    let db = VideoDatabase::new(DbOptions::new().shards(3));
    let frames = VideoClip {
        name: "cam".into(),
        scene: lab_scene(&ScenarioConfig {
            n_actors: 1,
            frames: 30,
            seed: 4,
            ..Default::default()
        }),
        fps: 30.0,
    }
    .render_all(4);
    // Four names over three shards: two of them share a shard.
    let names: Vec<String> = (0..4).map(|i| format!("cam{i}")).collect();
    let (a, b) = names
        .iter()
        .enumerate()
        .find_map(|(i, a)| {
            let s = strg::core::route(a, 3);
            let b = names[i + 1..]
                .iter()
                .find(|b| strg::core::route(b, 3) == s)?;
            Some((a.clone(), b.clone()))
        })
        .expect("pigeonhole");
    for name in &names {
        db.ingest_frames(name, &frames);
    }
    let dir = temp_path("manifest_reordered");
    db.save(&dir).unwrap();
    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).unwrap();
    let (line_a, line_b) = (format!("clip {a}\n"), format!("clip {b}\n"));
    let swapped = manifest
        .replace(&line_a, "@A@")
        .replace(&line_b, &line_a)
        .replace("@A@", &line_b);
    assert_ne!(swapped, manifest);
    std::fs::write(dir.join("MANIFEST"), swapped).unwrap();
    let r = VideoDatabase::load(&dir, DbOptions::new());
    let _ = std::fs::remove_dir_all(&dir);
    match r {
        Ok(db) => panic!("a reordered manifest loaded: {:?}", db.clip_names()),
        Err(e) => assert_structured(&e, "reordered clips"),
    }
}

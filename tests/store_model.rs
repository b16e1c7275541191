//! A seeded model check of the clip store: one fixed sequence of ingests
//! (one name repeated), removals of the oldest, a middle and the newest
//! clip, and save → load round trips through a file and through a
//! directory, run at 1 and 3 shards against a `Vec` model of `(name, OG
//! ids)` in global ingest order.
//!
//! After every step the database must agree with the model: its clip
//! names; which OG ids resolve (every live one, to the series it was
//! ingested with, and no removed one); every clip in the shard its name
//! routes to, before and after a reload;
//! every clip's `in_clip` k-NN and the global k-NN against `tests/oracle`'s
//! scan over the model's objects, each hit named after the clip that owns
//! it; and `save → load → save` must reproduce its bytes.

mod oracle;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use oracle::{assert_matches, scan, Corpus};
use strg::core::shard::route;
use strg::prelude::*;

/// A fresh path per call: both shard counts run on parallel test threads.
fn temp_path(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "strg_store_model_{name}_{}_{unique}",
        std::process::id()
    ))
}

#[derive(Copy, Clone, Debug)]
enum At {
    Oldest,
    Middle,
    Newest,
}

#[derive(Copy, Clone, Debug, PartialEq)]
enum Layout {
    File,
    Dir,
}

#[derive(Copy, Clone, Debug)]
enum Step {
    /// Ingest the clip rendered from `seed` under `name`.
    Ingest(&'static str, u64),
    /// `remove_clip` of the name of the clip at this place in the model,
    /// which removes the *first* clip of that name.
    Remove(At),
    /// Save, then continue with what loads back.
    Reopen(Layout),
}

use Step::{Ingest, Remove, Reopen};

/// The fixed sequence: `a` is ingested twice and stays twinned for five
/// steps, `d` twice with the first removed in between; after the
/// single-file reopen that follows removing the newest clip, the next
/// ingest still takes fresh ids (every file stores the id counter).
const STEPS: [Step; 18] = [
    Ingest("a", 1),
    Ingest("b", 2),
    Ingest("c", 3),
    Ingest("a", 4),
    Reopen(Layout::File),
    Remove(At::Middle),
    Ingest("d", 5),
    Remove(At::Oldest),
    Reopen(Layout::Dir),
    Ingest("e", 6),
    Remove(At::Newest),
    Reopen(Layout::File),
    Ingest("f", 7),
    Ingest("d", 8),
    Remove(At::Middle),
    Reopen(Layout::Dir),
    Remove(At::Newest),
    Ingest("g", 9),
];

/// One live clip of the model.
struct Clip {
    name: &'static str,
    ids: Vec<u64>,
    series: Vec<Vec<Point2>>,
}

#[derive(Default)]
struct Model {
    clips: Vec<Clip>,
    /// The next OG id the database hands out.
    next: u64,
    /// Ids removed; none is ever handed out again.
    removed: Vec<u64>,
}

/// The objects of `clips`, as the oracle scans them.
fn objects(clips: &[&Clip]) -> Corpus {
    clips
        .iter()
        .flat_map(|c| c.ids.iter().copied().zip(c.series.iter().cloned()))
        .collect()
}

impl Model {
    fn owner(&self, id: u64) -> &str {
        self.clips
            .iter()
            .find(|c| c.ids.contains(&id))
            .map(|c| c.name)
            .expect("every hit is a live object")
    }
}

fn frames(seed: u64) -> Vec<Frame> {
    VideoClip {
        name: String::new(),
        scene: lab_scene(&ScenarioConfig {
            n_actors: 1 + (seed as usize % 2),
            frames: 30,
            seed,
            ..Default::default()
        }),
        fps: 30.0,
    }
    .render_all(seed)
}

/// Every file of a database directory, by name.
fn read_dir(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let bytes = std::fs::read(e.path()).unwrap();
            (e.file_name().to_string_lossy().into_owned(), bytes)
        })
        .collect();
    files.sort_by(|a, b| a.0.cmp(&b.0));
    files
}

/// Saves into a fresh directory (the directory layout at any shard count).
fn save_dir(db: &VideoDatabase, name: &str) -> PathBuf {
    let dir = temp_path(name);
    std::fs::create_dir_all(&dir).unwrap();
    db.save(&dir).expect("save");
    dir
}

fn check(db: &VideoDatabase, model: &Model, shards: usize, ctx: &str) {
    let names: Vec<&str> = model.clips.iter().map(|c| c.name).collect();
    assert_eq!(db.clip_names(), names, "{ctx}: clip names");
    for c in &model.clips {
        for (&id, series) in c.ids.iter().zip(&c.series) {
            let stored = db.og(id).map(|og| og.centroid_series());
            assert_eq!(
                stored.as_ref(),
                Some(series),
                "{ctx}: og {id} of {}",
                c.name
            );
        }
    }
    for &id in &model.removed {
        assert!(db.og(id).is_none(), "{ctx}: removed og {id} resolves");
    }

    // save → load → save reproduces the bytes, and both databases hold
    // every clip in the shard its name routes to.
    let first = save_dir(db, "first");
    let loaded = VideoDatabase::load(&first, DbOptions::new()).expect("load");
    let second = save_dir(&loaded, "second");
    assert_eq!(read_dir(&first), read_dir(&second), "{ctx}: re-saved bytes");
    for (which, d) in [("built", db), ("loaded", &loaded)] {
        for (s, stats) in d.shard_stats().iter().enumerate() {
            let clips = names.iter().filter(|n| route(n, shards) == s).count();
            assert_eq!(stats.clips, clips, "{ctx}: {which} shard {s} clips");
        }
    }
    let _ = std::fs::remove_dir_all(&first);
    let _ = std::fs::remove_dir_all(&second);

    // k-NN against the scan, globally and in every clip (an `in_clip` name
    // searches the first clip of that name).
    let all: Vec<&Clip> = model.clips.iter().collect();
    let everything = objects(&all);
    let line: Vec<Point2> = (0..25).map(|i| Point2::new(5.0 * i as f64, 60.0)).collect();
    let mut queries = vec![line];
    queries.extend(everything.first().map(|o| o.1.clone()));
    for (qi, q) in queries.iter().enumerate() {
        let k = 3;
        let hits = db.query(Query::knn(k).trajectory(q)).hits;
        let pairs: Vec<(u64, f64)> = hits.iter().map(|h| (h.og_id, h.dist)).collect();
        let ctx = format!("{ctx}: q{qi} global");
        assert_matches(&scan(&everything, q), &pairs, QueryKind::Knn(k), &ctx);
        for h in &hits {
            assert_eq!(h.clip, model.owner(h.og_id), "{ctx}: hit {} clip", h.og_id);
        }
        for c in &model.clips {
            let first = model.clips.iter().find(|x| x.name == c.name).unwrap();
            let hits = db.query(Query::knn(k).trajectory(q).in_clip(c.name)).hits;
            let pairs: Vec<(u64, f64)> = hits.iter().map(|h| (h.og_id, h.dist)).collect();
            let ctx = format!("{ctx}: in_clip {}", c.name);
            let truth = scan(&objects(&[first]), q);
            assert_matches(&truth, &pairs, QueryKind::Knn(k), &ctx);
            assert!(hits.iter().all(|h| h.clip == c.name), "{ctx}: {hits:?}");
        }
    }
}

fn run_model(shards: usize) {
    let rendered: Vec<(u64, Vec<Frame>)> = STEPS
        .iter()
        .filter_map(|s| match s {
            Ingest(_, seed) => Some((*seed, frames(*seed))),
            _ => None,
        })
        .collect();
    let mut db = VideoDatabase::new(DbOptions::new().shards(shards));
    let mut model = Model::default();
    for (i, &step) in STEPS.iter().enumerate() {
        match step {
            Ingest(name, seed) => {
                let frames = &rendered.iter().find(|r| r.0 == seed).unwrap().1;
                let objects = db.ingest_frames(name, frames).objects;
                let ids: Vec<u64> = (model.next..).take(objects).collect();
                model.next += objects as u64;
                let series = ids
                    .iter()
                    .map(|&id| db.og(id).expect("a fresh id resolves").centroid_series())
                    .collect();
                model.clips.push(Clip { name, ids, series });
            }
            Remove(at) => {
                let n = model.clips.len();
                let place = match at {
                    At::Oldest => 0,
                    At::Middle => n / 2,
                    At::Newest => n - 1,
                };
                let name = model.clips[place].name;
                let first = model.clips.iter().position(|c| c.name == name).unwrap();
                let gone = model.clips.remove(first);
                assert_eq!(db.remove_clip(name), Some(gone.ids.len()), "step {i}");
                model.removed.extend(gone.ids);
            }
            Reopen(layout) => {
                let path = match layout {
                    Layout::File => {
                        let path = temp_path("file");
                        db.save(&path).expect("save");
                        path
                    }
                    Layout::Dir => save_dir(&db, "dir"),
                };
                db = VideoDatabase::load(&path, DbOptions::new()).expect("load");
                if path.is_dir() {
                    let _ = std::fs::remove_dir_all(&path);
                } else {
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        assert_eq!(db.shard_count(), shards);
        check(
            &db,
            &model,
            shards,
            &format!("{shards} shards, step {i} {step:?}"),
        );
    }
    assert!(
        !model.removed.is_empty() && model.clips.len() == 4,
        "the sequence removes and keeps clips"
    );
}

#[test]
fn one_shard_follows_the_model() {
    run_model(1);
}

#[test]
fn three_shards_follow_the_model() {
    run_model(3);
}

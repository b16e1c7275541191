//! Environment pinning: the fingerprint printed with every output and
//! the refusal to run with an escape hatch set.

use std::process::Command;

use strg::obs::Json;

/// Worker counts every layer is pinned to — never `Threads::Auto`, so a
/// result does not depend on `STRG_THREADS` or the host's core count.
pub const DB_THREADS: usize = 2;
pub const POOL_THREADS: usize = 2;
pub const LIB_INDEX_THREADS: usize = 1;
pub const CLIENTS: usize = 2;
pub const SHARDS: usize = 4;

/// Every `STRG_*` variable switches the measured program onto another
/// code path (`STRG_SCALAR`, `STRG_NO_LB`, `STRG_PERSIST_V1`, ...), so a
/// run with one set would not measure what the names claim.
pub fn refuse_hatches() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("STRG_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run: {} is set; STRG_* variables change the program being measured \
             (unset them and run again)",
            set.join(", ")
        ))
    }
}

fn capture(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and how a run was made.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    pub nproc: usize,
    pub git_rev: String,
    pub git_dirty: Option<bool>,
    pub rustc: String,
    pub profile: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub unix_time: u64,
}

impl Fingerprint {
    pub fn collect(seed: u64, seconds: f64, smoke: bool) -> Self {
        // A checkout exported without `.git` has no revision; say so.
        let git_rev = capture("git", &["rev-parse", "--short=12", "HEAD"])
            .unwrap_or_else(|| "unknown".to_string());
        let git_dirty = capture("git", &["status", "--porcelain", "--untracked-files=no"])
            .map(|s| !s.is_empty());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            git_rev,
            git_dirty,
            rustc: capture("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            seed,
            seconds,
            smoke,
            unix_time: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("nproc", Json::U64(self.nproc as u64)),
            ("git_rev", Json::str(&self.git_rev)),
            ("git_dirty", self.git_dirty.map_or(Json::Null, Json::Bool)),
            ("rustc", Json::str(&self.rustc)),
            ("profile", Json::str(self.profile)),
            ("seed", Json::U64(self.seed)),
            ("seconds", Json::F64(self.seconds)),
            ("smoke", Json::Bool(self.smoke)),
            ("unix_time", Json::U64(self.unix_time)),
            (
                "threads",
                Json::obj(vec![
                    ("db", Json::U64(DB_THREADS as u64)),
                    ("serve_pool", Json::U64(POOL_THREADS as u64)),
                    ("lib_index", Json::U64(LIB_INDEX_THREADS as u64)),
                    ("clients", Json::U64(CLIENTS as u64)),
                    ("shards", Json::U64(SHARDS as u64)),
                ]),
            ),
        ])
    }

    pub fn print(&self) {
        println!(
            "fingerprint: nproc={} git={}{} {} profile={} seed={} seconds={} smoke={} \
             threads: db=Fixed({}) serve_pool=Fixed({}) lib_index=Fixed({}) clients={} shards={}",
            self.nproc,
            self.git_rev,
            match self.git_dirty {
                Some(true) => "+dirty",
                Some(false) => "",
                None => "(no git)",
            },
            self.rustc,
            self.profile,
            self.seed,
            self.seconds,
            self.smoke,
            DB_THREADS,
            POOL_THREADS,
            LIB_INDEX_THREADS,
            CLIENTS,
            SHARDS,
        );
    }
}

//! The shared wire format: one set of JSON renderers for the CLI's
//! `--json` output and the server's `result` bodies.
//!
//! The determinism-over-the-wire contract (DESIGN.md §11) is enforced *by
//! construction*: `strg-cli` and `strg-serve` both render through these
//! functions, so a server response body and the one-shot CLI output for
//! the same database and parameters are the same bytes (the wall-clock
//! `elapsed_ns` cost field and the `metrics` snapshot are the only
//! documented exceptions; [`zero_elapsed_ns`] normalizes the former for
//! byte comparisons).

use strg_core::{DbStats, IngestReport, PersistInfo, Query, QueryResult};
use strg_graph::Point2;
use strg_obs::Json;
use strg_video::{lab_scene, traffic_scene, ScenarioConfig, VideoClip};

use crate::protocol::{Params, WireError};
use crate::{MAX_INGEST_ACTORS, MAX_INGEST_FRAMES, MAX_QUERY_STEPS};

/// Parses `"x,y"` into a [`Point2`] (the CLI `--from`/`--to` format).
/// Coordinates must be finite: `f64::from_str` also accepts `nan`, `inf`
/// and literals that overflow to infinity (`1e999`), none of which is a
/// position, and non-finite elements are outside the distance kernels'
/// contract (`strg_distance::SeqValue`).
pub fn parse_point(s: &str) -> Result<Point2, String> {
    let (x, y) = s
        .split_once(',')
        .ok_or_else(|| format!("expected x,y — got {s:?}"))?;
    let x: f64 = x
        .trim()
        .parse()
        .map_err(|_| format!("bad x coordinate {x:?}"))?;
    let y: f64 = y
        .trim()
        .parse()
        .map_err(|_| format!("bad y coordinate {y:?}"))?;
    if !(x.is_finite() && y.is_finite()) {
        return Err(format!("coordinates must be finite — got {s:?}"));
    }
    Ok(Point2::new(x, y))
}

/// Validates an interpolation step count: `2..=`[`MAX_QUERY_STEPS`]. The
/// trajectory is allocated from it and every candidate's lattice has that
/// many rows, so it is bounded before either happens.
pub fn check_steps(steps: u64) -> Result<usize, String> {
    if steps < 2 {
        Err("steps must be at least 2".into())
    } else if steps > MAX_QUERY_STEPS {
        Err(format!("steps must be <= {MAX_QUERY_STEPS}"))
    } else {
        Ok(steps as usize)
    }
}

/// The query trajectory both front ends build from `--from`/`--to`:
/// `steps` points linearly interpolated between the endpoints (callers
/// validate `steps` with [`check_steps`]).
pub fn lerp_trajectory(from: Point2, to: Point2, steps: usize) -> Vec<Point2> {
    (0..steps)
        .map(|i| from.lerp(to, i as f64 / (steps - 1) as f64))
        .collect()
}

/// One parsed query specification — the shared grammar of the `query`
/// verb's params, each element of the `query_batch` verb's `queries`
/// array, and each line of the CLI's `--batch-file`. One parser feeding
/// one [`Query`] builder keeps the three entry points byte-identical by
/// construction.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// Trajectory start (`"x,y"` on the wire).
    pub from: Point2,
    /// Trajectory end.
    pub to: Point2,
    /// Interpolation steps between the endpoints (`2..=MAX_QUERY_STEPS`,
    /// default 30).
    pub steps: usize,
    /// `Some(radius)` selects a range query; `None` selects k-NN.
    pub radius: Option<f64>,
    /// `k` for k-NN (default 5; rejected alongside `radius`).
    pub k: usize,
    /// Optional clip scope ([`Query::in_clip`]).
    pub clip: Option<String>,
}

/// Parses one query specification from a `params`-shaped object.
pub fn parse_query_spec(p: &Params<'_>) -> Result<QuerySpec, WireError> {
    let from = parse_point(p.str_req("from")?).map_err(WireError::invalid)?;
    let to = parse_point(p.str_req("to")?).map_err(WireError::invalid)?;
    let steps = check_steps(p.u64_or("steps", 30)?).map_err(WireError::invalid)?;
    let radius = p.f64_opt("radius")?;
    if radius.is_some() && p.get("k").is_some() {
        return Err(WireError::invalid(
            "give k (knn) or radius (range), not both",
        ));
    }
    let k = p.u64_or("k", 5)? as usize;
    let clip = p.str_opt("clip")?.map(str::to_string);
    Ok(QuerySpec {
        from,
        to,
        steps,
        radius,
        k,
        clip,
    })
}

impl QuerySpec {
    /// The interpolated query trajectory ([`lerp_trajectory`]).
    pub fn trajectory(&self) -> Vec<Point2> {
        lerp_trajectory(self.from, self.to, self.steps)
    }

    /// Builds the [`Query`] over a trajectory from
    /// [`QuerySpec::trajectory`] (borrowed separately so the query can
    /// outlive the spec's stack frame). Always requests the cost, as both
    /// front ends do.
    pub fn to_query<'a>(&self, trajectory: &'a [Point2]) -> Query<'a> {
        let mut q = match self.radius {
            Some(r) => Query::range(r),
            None => Query::knn(self.k),
        }
        .trajectory(trajectory)
        .with_cost();
        if let Some(clip) = &self.clip {
            q = q.in_clip(clip.clone());
        }
        q
    }
}

/// Builds a named synthetic scenario clip from the ingest parameters of
/// either front end, which arrive from outside the program and are checked
/// here before anything is sized from them: `frames` in
/// `1..=`[`MAX_INGEST_FRAMES`], `actors` in `0..=`[`MAX_INGEST_ACTORS`], and
/// a `name` of 1 to 255 bytes without control characters (the shard
/// manifest stores one clip name per line).
pub fn make_clip(
    scene_kind: &str,
    name: &str,
    actors: usize,
    frames: usize,
    seed: u64,
) -> Result<VideoClip, String> {
    if name.is_empty() || name.len() > 255 {
        return Err(format!(
            "clip name must be 1 to 255 bytes — got {}",
            name.len()
        ));
    }
    if name.chars().any(char::is_control) {
        return Err(format!(
            "clip name must not contain control characters — got {name:?}"
        ));
    }
    if !(1..=MAX_INGEST_FRAMES).contains(&frames) {
        return Err(format!("frames must be in 1..={MAX_INGEST_FRAMES}"));
    }
    if actors > MAX_INGEST_ACTORS {
        return Err(format!("actors must be <= {MAX_INGEST_ACTORS}"));
    }
    let cfg = ScenarioConfig {
        n_actors: actors,
        frames,
        seed,
        ..Default::default()
    };
    let scene = match scene_kind {
        "lab" => lab_scene(&cfg),
        "traffic" => traffic_scene(&cfg),
        other => return Err(format!("unknown scene {other:?} (lab|traffic)")),
    };
    Ok(VideoClip {
        name: name.to_string(),
        scene,
        fps: 30.0,
    })
}

/// The ingest report body: `{"clip":..,"frames":..,"objects":..,
/// "background_nodes":..,"strg_bytes":..,"metrics":{..}}`.
pub fn ingest_json(name: &str, frames: usize, report: &IngestReport, metrics: Json) -> Json {
    Json::obj(vec![
        ("clip", Json::str(name)),
        ("frames", Json::U64(frames as u64)),
        ("objects", Json::U64(report.objects as u64)),
        (
            "background_nodes",
            Json::U64(report.background_nodes as u64),
        ),
        ("strg_bytes", Json::U64(report.strg_bytes as u64)),
        ("metrics", metrics),
    ])
}

/// The query result body: `{"hits":[{"clip":..,"og_id":..,"distance":..}
/// ,..],"cost":{..}}`. The result must carry its cost
/// ([`strg_core::Query::with_cost`]); both front ends always request it.
pub fn query_json(result: &QueryResult) -> Json {
    let hits = result
        .hits
        .iter()
        .map(|h| {
            Json::obj(vec![
                ("clip", Json::str(&h.clip)),
                ("og_id", Json::U64(h.og_id)),
                ("distance", Json::F64(h.dist)),
            ])
        })
        .collect();
    let cost = result.cost.as_ref().expect("wire queries request cost");
    Json::obj(vec![("hits", Json::Array(hits)), ("cost", cost.to_json())])
}

/// The query-batch result body: one [`query_json`] element per query, in
/// request order — shared by the `query_batch` verb and the CLI's
/// `--batch-file` output.
pub fn query_batch_json(results: &[QueryResult]) -> Json {
    Json::Array(results.iter().map(query_json).collect())
}

fn stats_fields(s: &DbStats) -> Vec<(&'static str, Json)> {
    vec![
        ("clips", Json::U64(s.clips as u64)),
        ("objects", Json::U64(s.objects as u64)),
        ("clusters", Json::U64(s.clusters as u64)),
        ("strg_bytes", Json::U64(s.strg_bytes as u64)),
        ("index_bytes", Json::U64(s.index_bytes as u64)),
    ]
}

/// The persistence provenance body:
/// `{"format":N,"reopen":"fresh"|"fast"}`
/// ([`strg_core::Database::persist_info`]).
pub fn persist_json(p: &PersistInfo) -> Json {
    Json::obj(vec![
        ("format", Json::U64(p.format() as u64)),
        ("reopen", Json::str(p.reopen.as_str())),
    ])
}

/// The stats body: `{"clips":..,"objects":..,"clusters":..,"strg_bytes":..,
/// "index_bytes":..,"persist":{..},"metrics":{..}}`.
///
/// `shards` is [`strg_core::Database::shard_stats`]: a sharded database
/// (more than one entry) additionally reports `"shards":N` and
/// `"shard_stats":[{..},..]` in shard order. `persist` reports the on-disk
/// format version and how the index was (re)opened — see [`persist_json`].
pub fn stats_json(s: &DbStats, shards: &[DbStats], persist: &PersistInfo, metrics: Json) -> Json {
    let mut fields = stats_fields(s);
    if shards.len() > 1 {
        fields.push(("shards", Json::U64(shards.len() as u64)));
        fields.push((
            "shard_stats",
            Json::Array(shards.iter().map(|s| Json::obj(stats_fields(s))).collect()),
        ));
    }
    fields.push(("persist", persist_json(persist)));
    fields.push(("metrics", metrics));
    Json::obj(fields)
}

fn zero_u64_field(s: &str, key: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find(key) {
        let after = i + key.len();
        out.push_str(&rest[..after]);
        out.push('0');
        rest = rest[after..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Rewrites every `"elapsed_ns":<digits>` to `"elapsed_ns":0`.
///
/// `elapsed_ns` is the one wall-clock field inside a query cost; zeroing
/// it turns the determinism contract into plain byte equality. Used by
/// the socket-level equivalence suites.
pub fn zero_elapsed_ns(s: &str) -> String {
    zero_u64_field(s, "\"elapsed_ns\":")
}

/// Rewrites every `"batch_shared_accesses":<digits>` to `0`.
///
/// `batch_shared_accesses` reports *physical* sharing and is exempt from
/// the logical identity contract (like `elapsed_ns`): a query answered
/// from a coalesced batch may carry a non-zero value where the same query
/// run alone carries zero. Zeroing it (together with [`zero_elapsed_ns`])
/// restores plain byte equality for the coalescing equivalence suites.
pub fn zero_batch_shared(s: &str) -> String {
    zero_u64_field(s, "\"batch_shared_accesses\":")
}

#[cfg(test)]
mod tests {
    use super::*;
    use strg_obs::QueryCost;

    #[test]
    fn point_parsing() {
        assert_eq!(parse_point("3,4").unwrap(), Point2::new(3.0, 4.0));
        assert_eq!(parse_point(" 3.5 , -4 ").unwrap(), Point2::new(3.5, -4.0));
        assert!(parse_point("35").is_err());
        assert!(parse_point("a,b").is_err());
        for bad in ["nan,0", "0,NaN", "inf,0", "0,-inf", "1e999,0", "0,-1e999"] {
            assert!(parse_point(bad).is_err(), "{bad}");
        }
        assert!(parse_point("1e300,-1e300").is_ok());
    }

    #[test]
    fn step_counts_are_bounded_on_both_sides() {
        assert!(check_steps(0).is_err());
        assert!(check_steps(1).is_err());
        assert_eq!(check_steps(2), Ok(2));
        assert_eq!(check_steps(MAX_QUERY_STEPS), Ok(MAX_QUERY_STEPS as usize));
        assert!(check_steps(MAX_QUERY_STEPS + 1).is_err());
        assert!(check_steps(100_000_000_000).is_err());
    }

    #[test]
    fn trajectory_endpoints() {
        let t = lerp_trajectory(Point2::new(0.0, 0.0), Point2::new(10.0, 0.0), 5);
        assert_eq!(t.len(), 5);
        assert_eq!(t[0], Point2::new(0.0, 0.0));
        assert_eq!(t[4], Point2::new(10.0, 0.0));
    }

    #[test]
    fn unknown_scene_rejected() {
        assert!(make_clip("mars", "x", 1, 10, 0).is_err());
        assert!(make_clip("lab", "x", 1, 10, 0).is_ok());
    }

    #[test]
    fn ingest_parameters_are_bounded() {
        assert!(make_clip("lab", "x", 0, 1, 0).is_ok());
        assert!(make_clip("lab", "x", MAX_INGEST_ACTORS, MAX_INGEST_FRAMES, 0).is_ok());
        for (actors, frames) in [
            (1, 0),
            (1, MAX_INGEST_FRAMES + 1),
            (1, usize::MAX),
            (MAX_INGEST_ACTORS + 1, 10),
            (usize::MAX, 10),
        ] {
            let err = make_clip("lab", "x", actors, frames, 0).unwrap_err();
            assert!(err.contains("must be"), "{actors} {frames}: {err}");
        }
    }

    #[test]
    fn clip_names_must_fit_one_manifest_line() {
        assert!(make_clip("lab", &"n".repeat(255), 1, 10, 0).is_ok());
        assert!(make_clip("lab", "caméra 1", 1, 10, 0).is_ok());
        let long = "n".repeat(256);
        for bad in ["", "a\nb", "a\rb", "a\0b", "tab\there", long.as_str()] {
            assert!(make_clip("lab", bad, 1, 10, 0).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn query_body_shape() {
        let result = QueryResult {
            hits: vec![],
            cost: Some(QueryCost::default()),
        };
        let s = query_json(&result).render();
        assert!(s.starts_with(r#"{"hits":[],"cost":{"#), "{s}");
    }

    #[test]
    fn zeroing_elapsed() {
        let s = r#"{"a":{"elapsed_ns":12345},"b":{"elapsed_ns":0},"c":7}"#;
        assert_eq!(
            zero_elapsed_ns(s),
            r#"{"a":{"elapsed_ns":0},"b":{"elapsed_ns":0},"c":7}"#
        );
        assert_eq!(zero_elapsed_ns("no key"), "no key");
    }
}

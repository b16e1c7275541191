//! The unified query builder.
//!
//! One entry point for every search a database answers — plain,
//! clip-scoped or background-matched, k-NN or range:
//!
//! ```
//! use strg_core::{DbOptions, Query, VideoDatabase};
//! use strg_graph::Point2;
//!
//! let db = VideoDatabase::new(DbOptions::new());
//! let trajectory = [Point2::new(1.0, 2.0), Point2::new(3.0, 4.0)];
//! let result = db.query(Query::knn(5).trajectory(&trajectory).with_cost());
//! assert!(result.hits.is_empty()); // empty database
//! let cost = result.cost.expect("with_cost() requested it");
//! assert_eq!(cost.distance_calls, 0);
//! ```
//!
//! Scope modifiers compose: [`Query::in_clip`] restricts the search to one
//! ingested clip, [`Query::with_background`] runs Algorithm 3's background
//! matching over the query's own frames. When both are given, the explicit
//! clip wins (it is the stronger statement of intent). An unknown clip name
//! yields empty hits rather than an error.

use strg_graph::Point2;
use strg_obs::QueryCost;
use strg_video::Frame;

use crate::pipeline::QueryHit;

/// What a search asks for: the `k` nearest, or everything within a radius.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum QueryKind {
    /// k-nearest-neighbor search.
    Knn(usize),
    /// Range search with a fixed radius.
    Range(f64),
}

impl QueryKind {
    /// The metric prefix this kind's [`QueryCost`] is recorded under.
    pub(crate) fn metric_prefix(self) -> &'static str {
        match self {
            QueryKind::Knn(_) => "query.knn",
            QueryKind::Range(_) => "query.range",
        }
    }
}

/// A database query, built fluently and executed by
/// [`crate::VideoDatabase::query`].
#[derive(Clone, Debug)]
pub struct Query<'a> {
    pub(crate) kind: QueryKind,
    pub(crate) trajectory: &'a [Point2],
    pub(crate) clip: Option<String>,
    pub(crate) background: Option<&'a [Frame]>,
    pub(crate) want_cost: bool,
}

impl<'a> Query<'a> {
    fn new(kind: QueryKind) -> Self {
        Self {
            kind,
            trajectory: &[],
            clip: None,
            background: None,
            want_cost: false,
        }
    }

    /// A k-nearest-neighbor query.
    pub fn knn(k: usize) -> Self {
        Self::new(QueryKind::Knn(k))
    }

    /// A range query: every OG within `radius` of the trajectory.
    pub fn range(radius: f64) -> Self {
        Self::new(QueryKind::Range(radius))
    }

    /// The query trajectory (centroid series to match against).
    pub fn trajectory(mut self, trajectory: &'a [Point2]) -> Self {
        self.trajectory = trajectory;
        self
    }

    /// Restricts the search to one ingested clip. An unknown name yields
    /// empty hits. Takes precedence over [`Query::with_background`].
    pub fn in_clip(mut self, name: impl Into<String>) -> Self {
        self.clip = Some(name.into());
        self
    }

    /// Runs Algorithm 3's background matching: the Background Graph is
    /// extracted from these query frames and matched against the root
    /// records; the search is then restricted to the best-matching segment
    /// (falling back to a global search when nothing is similar enough).
    pub fn with_background(mut self, frames: &'a [Frame]) -> Self {
        self.background = Some(frames);
        self
    }

    /// Asks for the [`QueryCost`] in the result. Costs are recorded into
    /// the database's metrics either way; this flag only controls whether
    /// the per-query record is returned to the caller.
    pub fn with_cost(mut self) -> Self {
        self.want_cost = true;
        self
    }

    /// Whether `other` is the same search — kind, trajectory content and
    /// clip scope — so one answer serves both. Background-matched queries
    /// never compare equal: their scope is only known after extraction.
    pub(crate) fn same_search(&self, other: &Query<'_>) -> bool {
        self.background.is_none()
            && other.background.is_none()
            && self.kind == other.kind
            && self.clip == other.clip
            && self.trajectory == other.trajectory
    }
}

/// What a [`Query`] returns.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Matching OGs, resolved to clip provenance, ascending by distance.
    pub hits: Vec<QueryHit>,
    /// The query's cost record — `Some` iff [`Query::with_cost`] was set.
    pub cost: Option<QueryCost>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let t = [Point2::new(0.0, 0.0)];
        let q = Query::knn(3).trajectory(&t).in_clip("lobby").with_cost();
        assert_eq!(q.kind, QueryKind::Knn(3));
        assert_eq!(q.trajectory.len(), 1);
        assert_eq!(q.clip.as_deref(), Some("lobby"));
        assert!(q.background.is_none());
        assert!(q.want_cost);

        let q = Query::range(12.5);
        assert_eq!(q.kind, QueryKind::Range(12.5));
        assert!(!q.want_cost);
    }
}

//! The distance-function abstraction shared by clustering and indexing.

use crate::value::SeqValue;

/// A (dis)similarity function between two sequences.
///
/// Lower is more similar; `0` means identical under the function's notion
/// of equality. Implementations need not be metrics — the paper explicitly
/// uses the *non-metric* EGED for clustering and the *metric* EGED for
/// indexing; [`MetricDistance`] separates the two.
pub trait SequenceDistance<V: SeqValue> {
    /// Distance between sequences `a` and `b`.
    fn distance(&self, a: &[V], b: &[V]) -> f64;

    /// Short human-readable name (for experiment output, e.g. `"EGED"`).
    fn name(&self) -> &'static str;
}

/// The index metric: a [`SequenceDistance`] that satisfies the metric
/// axioms (non-negativity, identity, symmetry, triangle inequality), and
/// may therefore drive metric access methods — the STRG-Index leaf keys
/// and the M-tree both rely on the triangle inequality to prune.
///
/// Search code also evaluates it in two cheaper ways, both exact:
///
/// * [`MetricDistance::distance_upto`] runs the distance with a cutoff and
///   abandons as soon as no alignment can finish at or below it;
/// * [`MetricDistance::lower_bound`] bounds the distance from below using
///   two O(1)-size [`SeqSummary`] values precomputed by
///   [`MetricDistance::summarize`], so a candidate whose bound already
///   exceeds the cutoff is skipped without touching its sequence.
pub trait MetricDistance<V: SeqValue>: SequenceDistance<V> {
    /// Evaluates the distance with early abandoning at `cutoff`.
    ///
    /// Returns `Some(d)` iff `d <= cutoff`, with `d` bit-identical to what
    /// [`SequenceDistance::distance`] would return; `None` iff the distance
    /// exceeds `cutoff`. Search code may therefore substitute it for
    /// `distance` wherever a current best (`d_k`, or a range radius) is
    /// known, without changing a single result.
    fn distance_upto(&self, a: &[V], b: &[V], cutoff: f64) -> Option<f64>;

    /// Summarizes a sequence for later [`MetricDistance::lower_bound`]
    /// calls.
    fn summarize(&self, seq: &[V]) -> SeqSummary;

    /// Admissible lower bound on `distance(query, candidate)` given both
    /// summaries: never above the distance of any candidate summarized as
    /// `candidate`.
    fn lower_bound(&self, query: &[V], query_summary: &SeqSummary, candidate: &SeqSummary) -> f64;
}

/// O(1)-size summary of a sequence, precomputed once per stored record so
/// query-time lower bounds never touch the sequence itself.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SeqSummary {
    /// Number of elements.
    pub len: usize,
    /// Total gap mass `Σ dist(vᵢ, g)` — the distance to the empty sequence
    /// under a constant-gap edit distance.
    pub gap_mass: f64,
    /// Minimum single-element gap cost `min dist(vᵢ, g)` (zero when empty).
    pub min_gap: f64,
}

impl SeqSummary {
    /// Summarizes `seq` relative to the gap element `g`.
    pub fn of<V: SeqValue>(seq: &[V], g: &V) -> Self {
        let mut gap_mass = 0.0;
        let mut min_gap = f64::INFINITY;
        for v in seq {
            let d = v.dist(g);
            gap_mass += d;
            min_gap = min_gap.min(d);
        }
        if seq.is_empty() {
            min_gap = 0.0;
        }
        Self {
            len: seq.len(),
            gap_mass,
            min_gap,
        }
    }
}

impl<V: SeqValue, D: SequenceDistance<V> + ?Sized> SequenceDistance<V> for &D {
    fn distance(&self, a: &[V], b: &[V]) -> f64 {
        (**self).distance(a, b)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

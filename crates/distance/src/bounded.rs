//! Bounded evaluation: early-abandoning kernels and admissible lower
//! bounds (filter-and-refine, after Chen & Ng's ERP and the LB_Keogh
//! envelope line of work).
//!
//! Two orthogonal capabilities, both exact:
//!
//! * [`BoundedDistance::distance_upto`] runs the distance DP with a cutoff
//!   and abandons as soon as no alignment can finish at or below it. The
//!   contract is strict: `Some(d)` iff `d <= cutoff`, with `d` bit-identical
//!   to [`SequenceDistance::distance`]; `None` iff the distance exceeds the
//!   cutoff. Search code may therefore substitute `distance_upto` for
//!   `distance` wherever a current best (`d_k`, or a range radius) is known,
//!   without changing a single result.
//! * [`LowerBound`] computes an admissible lower bound on the distance from
//!   two O(1)-size per-sequence summaries ([`SeqSummary`]), precomputed at
//!   build time. A candidate whose bound already exceeds the cutoff can be
//!   skipped without touching its sequence at all.
//!
//! Analytic bounds are deflated by a tiny relative margin before use (see
//! [`deflate`]): the summary sums are accumulated in a different order than
//! the DP's own arithmetic, so an exactly-tight bound could round a hair
//! above the true distance. The margin keeps every bound robustly
//! admissible at a cost of ~1e-9 of pruning power.

use crate::dtw::{dtw_upto, Dtw};
use crate::eged::{eged_dp_upto, Eged, EgedMetric, EgedRepeatGap, GapPolicy};
use crate::lcs::Lcs;
use crate::traits::SequenceDistance;
use crate::value::SeqValue;

/// Deflates an analytic bound by a small relative + absolute margin so that
/// floating-point rounding in the summary arithmetic can never push it
/// above the true distance. Clamped at zero (bounds are non-negative).
fn deflate(bound: f64) -> f64 {
    (bound - bound * 1e-9 - 1e-9).max(0.0)
}

/// O(1)-size summary of a sequence, precomputed once per stored record so
/// query-time lower bounds never touch the sequence itself.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SeqSummary<V> {
    /// Number of elements.
    pub len: usize,
    /// Total gap mass `Σ dist(vᵢ, g)` — the distance to the empty sequence
    /// under a constant-gap edit distance.
    pub gap_mass: f64,
    /// Minimum single-element gap cost `min dist(vᵢ, g)` (zero when empty).
    pub min_gap: f64,
    /// Componentwise minimum of the elements (origin when empty).
    pub lo: V,
    /// Componentwise maximum of the elements (origin when empty).
    pub hi: V,
}

impl<V: SeqValue> SeqSummary<V> {
    /// Summarizes `seq` relative to the gap element `g`.
    pub fn of(seq: &[V], g: &V) -> Self {
        let mut gap_mass = 0.0;
        let mut min_gap = f64::INFINITY;
        let mut lo = seq.first().copied().unwrap_or_else(V::origin);
        let mut hi = lo;
        for v in seq {
            let d = v.dist(g);
            gap_mass += d;
            min_gap = min_gap.min(d);
            lo = lo.component_min(v);
            hi = hi.component_max(v);
        }
        if seq.is_empty() {
            min_gap = 0.0;
        }
        Self {
            len: seq.len(),
            gap_mass,
            min_gap,
            lo,
            hi,
        }
    }
}

/// O(1)-size aggregate of many [`SeqSummary`]s — the shard-granularity
/// envelope. Where a `SeqSummary` lets a metric bound the distance to *one*
/// stored sequence, a `SummaryEnvelope` bounds the distance to *every*
/// sequence it aggregates, so a whole shard can be skipped with a single
/// comparison. Built incrementally at ingest; order-independent (all fields
/// are mins/maxes), so the envelope is identical for any ingest
/// interleaving of the same records.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SummaryEnvelope<V> {
    /// Number of summaries aggregated.
    pub count: usize,
    /// Range of member lengths.
    pub min_len: usize,
    /// See [`SummaryEnvelope::min_len`].
    pub max_len: usize,
    /// Range of member gap masses.
    pub min_gap_mass: f64,
    /// See [`SummaryEnvelope::min_gap_mass`].
    pub max_gap_mass: f64,
    /// Minimum over members of their minimum single-element gap cost.
    pub min_min_gap: f64,
    /// Componentwise minimum over every member's `lo`.
    pub lo: V,
    /// Componentwise maximum over every member's `hi`.
    pub hi: V,
}

impl<V: SeqValue> Default for SummaryEnvelope<V> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<V: SeqValue> SummaryEnvelope<V> {
    /// The empty envelope (aggregates nothing; bounds are `+inf`).
    pub fn empty() -> Self {
        Self {
            count: 0,
            min_len: usize::MAX,
            max_len: 0,
            min_gap_mass: f64::INFINITY,
            max_gap_mass: f64::NEG_INFINITY,
            min_min_gap: f64::INFINITY,
            lo: V::origin(),
            hi: V::origin(),
        }
    }

    /// Whether the envelope aggregates no summaries.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds one member summary into the envelope.
    pub fn add(&mut self, s: &SeqSummary<V>) {
        if self.count == 0 {
            self.lo = s.lo;
            self.hi = s.hi;
        } else {
            self.lo = self.lo.component_min(&s.lo);
            self.hi = self.hi.component_max(&s.hi);
        }
        self.count += 1;
        self.min_len = self.min_len.min(s.len);
        self.max_len = self.max_len.max(s.len);
        self.min_gap_mass = self.min_gap_mass.min(s.gap_mass);
        self.max_gap_mass = self.max_gap_mass.max(s.gap_mass);
        self.min_min_gap = self.min_min_gap.min(s.min_gap);
    }
}

/// Distance of `x` to the closed interval `[lo, hi]` (zero inside).
fn dist_to_range(x: f64, lo: f64, hi: f64) -> f64 {
    if x < lo {
        lo - x
    } else if x > hi {
        x - hi
    } else {
        0.0
    }
}

/// A distance that supports exact cutoff-bounded evaluation.
pub trait BoundedDistance<V: SeqValue>: SequenceDistance<V> {
    /// Evaluates the distance with early abandoning at `cutoff`.
    ///
    /// Returns `Some(d)` iff `d <= cutoff`, with `d` bit-identical to what
    /// [`SequenceDistance::distance`] would return; `None` iff the distance
    /// exceeds `cutoff`. The default computes the full distance and
    /// compares — correct for any kernel, abandoning for none.
    fn distance_upto(&self, a: &[V], b: &[V], cutoff: f64) -> Option<f64> {
        let d = self.distance(a, b);
        if d <= cutoff {
            Some(d)
        } else {
            None
        }
    }
}

/// A distance with an admissible summary-based lower bound:
/// `lower_bound(q, qs, cs) <= distance(q, c)` for every candidate `c`
/// summarized as `cs`.
pub trait LowerBound<V: SeqValue>: SequenceDistance<V> {
    /// Summarizes a sequence for later [`LowerBound::lower_bound`] calls.
    /// The default summarizes against the origin gap.
    fn summarize(&self, seq: &[V]) -> SeqSummary<V> {
        SeqSummary::of(seq, &V::origin())
    }

    /// Admissible lower bound on `distance(query, candidate)` given both
    /// summaries. The default is the trivial bound `0.0` (never prunes),
    /// which is what non-analyzable kernels fall back to.
    fn lower_bound(
        &self,
        query: &[V],
        query_summary: &SeqSummary<V>,
        candidate: &SeqSummary<V>,
    ) -> f64 {
        let _ = (query, query_summary, candidate);
        0.0
    }

    /// Admissible lower bound on `min over members m of distance(query, m)`
    /// for every sequence aggregated into `envelope` — i.e. a bound no
    /// member of the shard can beat. The default is `0.0` (never prunes a
    /// shard) except for the empty envelope, which no query can hit at any
    /// distance and is therefore always prunable.
    fn envelope_bound(
        &self,
        query: &[V],
        query_summary: &SeqSummary<V>,
        envelope: &SummaryEnvelope<V>,
    ) -> f64 {
        let _ = (query, query_summary);
        if envelope.is_empty() {
            f64::INFINITY
        } else {
            0.0
        }
    }
}

impl<V: SeqValue, D: BoundedDistance<V> + ?Sized> BoundedDistance<V> for &D {
    fn distance_upto(&self, a: &[V], b: &[V], cutoff: f64) -> Option<f64> {
        (**self).distance_upto(a, b, cutoff)
    }
}

impl<V: SeqValue, D: LowerBound<V> + ?Sized> LowerBound<V> for &D {
    fn summarize(&self, seq: &[V]) -> SeqSummary<V> {
        (**self).summarize(seq)
    }
    fn lower_bound(
        &self,
        query: &[V],
        query_summary: &SeqSummary<V>,
        candidate: &SeqSummary<V>,
    ) -> f64 {
        (**self).lower_bound(query, query_summary, candidate)
    }
    fn envelope_bound(
        &self,
        query: &[V],
        query_summary: &SeqSummary<V>,
        envelope: &SummaryEnvelope<V>,
    ) -> f64 {
        (**self).envelope_bound(query, query_summary, envelope)
    }
}

impl<V: SeqValue> BoundedDistance<V> for EgedMetric<V> {
    fn distance_upto(&self, a: &[V], b: &[V], cutoff: f64) -> Option<f64> {
        eged_dp_upto(a, b, &GapPolicy::Constant(self.gap), cutoff)
    }
}

impl<V: SeqValue> LowerBound<V> for EgedMetric<V> {
    fn summarize(&self, seq: &[V]) -> SeqSummary<V> {
        SeqSummary::of(seq, &self.gap)
    }

    /// Two admissible bounds, combined by `max`:
    ///
    /// * **Gap mass** — `EGED_M` is a metric (Theorem 2) and the distance
    ///   to the empty sequence is the gap mass, so the triangle inequality
    ///   through `∅` gives `d(a, b) >= |gm(a) - gm(b)|` (Chen & Ng's ERP
    ///   bound with a general gap constant).
    /// * **Length surplus** — transforming the longer sequence into the
    ///   shorter one forces at least `|len(a) - len(b)|` deletions, each
    ///   costing at least the longer side's minimum single-element gap.
    fn lower_bound(&self, _query: &[V], a: &SeqSummary<V>, b: &SeqSummary<V>) -> f64 {
        let mass = (a.gap_mass - b.gap_mass).abs();
        let surplus = if a.len >= b.len {
            (a.len - b.len) as f64 * a.min_gap
        } else {
            (b.len - a.len) as f64 * b.min_gap
        };
        deflate(mass.max(surplus))
    }

    /// Both per-record bounds relaxed over the envelope's ranges, so the
    /// result lower-bounds the distance to *every* member:
    ///
    /// * **Gap mass** — `|gm(q) - gm(m)| >= dist(gm(q), [min_gm, max_gm])`
    ///   for every member `m`.
    /// * **Length surplus** — if `len(q) >= max_len`, every member forces
    ///   at least `len(q) - max_len` deletions at cost `min_gap(q)` each;
    ///   if `len(q) <= min_len`, at least `min_len - len(q)` deletions at
    ///   cost `min over members of min_gap`. Overlapping lengths bound
    ///   nothing.
    fn envelope_bound(&self, _query: &[V], qs: &SeqSummary<V>, env: &SummaryEnvelope<V>) -> f64 {
        if env.is_empty() {
            return f64::INFINITY;
        }
        let mass = dist_to_range(qs.gap_mass, env.min_gap_mass, env.max_gap_mass);
        let surplus = if qs.len >= env.max_len {
            (qs.len - env.max_len) as f64 * qs.min_gap
        } else if qs.len <= env.min_len {
            (env.min_len - qs.len) as f64 * env.min_min_gap
        } else {
            0.0
        };
        deflate(mass.max(surplus))
    }
}

impl<V: SeqValue> BoundedDistance<V> for Eged {
    fn distance_upto(&self, a: &[V], b: &[V], cutoff: f64) -> Option<f64> {
        eged_dp_upto(a, b, &GapPolicy::Midpoint, cutoff)
    }
}

// Non-metric: no triangle inequality, so only the trivial bound is sound.
impl<V: SeqValue> LowerBound<V> for Eged {}

impl<V: SeqValue> BoundedDistance<V> for EgedRepeatGap {
    fn distance_upto(&self, a: &[V], b: &[V], cutoff: f64) -> Option<f64> {
        eged_dp_upto(a, b, &GapPolicy::Opposite, cutoff)
    }
}

impl<V: SeqValue> LowerBound<V> for EgedRepeatGap {}

impl<V: SeqValue> BoundedDistance<V> for Dtw {
    fn distance_upto(&self, a: &[V], b: &[V], cutoff: f64) -> Option<f64> {
        dtw_upto(a, b, cutoff)
    }
}

impl<V: SeqValue> LowerBound<V> for Dtw {
    /// LB_Keogh-style envelope bound: an unconstrained warping path visits
    /// every query element at least once and matches it against *some*
    /// candidate element, which lies inside the candidate's bounding box —
    /// so `Σᵢ dist_to_box(qᵢ, box(c)) <= DTW(q, c)`. Against an empty side
    /// the DTW convention is the origin mass, which both summaries carry.
    fn lower_bound(&self, query: &[V], qs: &SeqSummary<V>, c: &SeqSummary<V>) -> f64 {
        if qs.len == 0 || c.len == 0 {
            return deflate((qs.gap_mass - c.gap_mass).abs());
        }
        let env: f64 = query.iter().map(|v| v.dist_to_box(&c.lo, &c.hi)).sum();
        deflate(env)
    }

    /// The per-record box bound against the union box of every member (a
    /// superset box only shrinks `dist_to_box`, so the bound stays
    /// admissible for each member). Members that may be empty force the
    /// union box to include the origin (their summaries carry the origin
    /// box), which the aggregation already guarantees.
    fn envelope_bound(&self, query: &[V], qs: &SeqSummary<V>, env: &SummaryEnvelope<V>) -> f64 {
        if env.is_empty() {
            return f64::INFINITY;
        }
        if qs.len == 0 {
            return deflate(dist_to_range(
                qs.gap_mass,
                env.min_gap_mass,
                env.max_gap_mass,
            ));
        }
        let b: f64 = query.iter().map(|v| v.dist_to_box(&env.lo, &env.hi)).sum();
        // An empty member is at distance gm(q), which the box sum may
        // exceed only if no member can be empty (min_len > 0 keeps b).
        let b = if env.min_len == 0 {
            b.min(qs.gap_mass)
        } else {
            b
        };
        deflate(b)
    }
}

impl<V: SeqValue> BoundedDistance<V> for Lcs {}
impl<V: SeqValue> LowerBound<V> for Lcs {}

#[cfg(test)]
mod tests {
    use super::*;
    use strg_graph::Point2;

    #[test]
    fn cutoff_contract_eged_metric() {
        let m = EgedMetric::<f64>::new();
        let a = [0.0, 3.0, 1.0];
        let b = [2.0, 2.0];
        let d = m.distance(&a, &b);
        assert_eq!(m.distance_upto(&a, &b, d), Some(d));
        assert_eq!(m.distance_upto(&a, &b, f64::INFINITY), Some(d));
        assert_eq!(m.distance_upto(&a, &b, d * 0.99), None);
        assert_eq!(m.distance_upto(&a, &b, 0.0), None);
    }

    #[test]
    fn cutoff_contract_degenerate() {
        let m = EgedMetric::<f64>::new();
        let e: [f64; 0] = [];
        assert_eq!(m.distance_upto(&e, &e, 0.0), Some(0.0));
        assert_eq!(m.distance_upto(&e, &[2.0, 2.0, 3.0], 6.0), None);
        assert_eq!(m.distance_upto(&e, &[2.0, 2.0, 3.0], 7.0), Some(7.0));
    }

    #[test]
    fn abandoning_triggers_on_far_sequences() {
        // Far apart; a tight cutoff must abandon, an infinite one must not.
        let m = EgedMetric::<f64>::new();
        let a: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..64).map(|i| 1000.0 + i as f64).collect();
        assert_eq!(m.distance_upto(&a, &b, 10.0), None);
        let d = m.distance(&a, &b);
        assert_eq!(m.distance_upto(&a, &b, d), Some(d));
    }

    #[test]
    fn mass_bound_is_admissible_and_useful() {
        let m = EgedMetric::<f64>::new();
        let a = [10.0, 10.0, 10.0];
        let b = [1.0];
        let (sa, sb) = (m.summarize(&a), m.summarize(&b));
        let lb = m.lower_bound(&a, &sa, &sb);
        let d = m.distance(&a, &b);
        assert!(lb <= d, "{lb} vs {d}");
        assert!(lb > 20.0, "mass bound should nearly reach {d}: {lb}");
        // Symmetric in the summaries.
        assert_eq!(lb, m.lower_bound(&b, &sb, &sa));
    }

    #[test]
    fn length_surplus_bound_kicks_in_with_nonzero_gap() {
        // Same mass difference zero, but a length mismatch with a gap far
        // from every element forces deletions.
        let m = EgedMetric::with_gap(100.0);
        let a = [99.0, 101.0, 99.0, 101.0];
        let b = [99.0, 101.0];
        let (sa, sb) = (m.summarize(&a), m.summarize(&b));
        let lb = m.lower_bound(&a, &sa, &sb);
        let d = m.distance(&a, &b);
        assert!(lb <= d, "{lb} vs {d}");
        assert!(lb >= 1.9, "two forced deletions at cost ~1: {lb}");
    }

    #[test]
    fn dtw_envelope_bound_admissible() {
        let a = [
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(2.0, 0.0),
        ];
        let b = [Point2::new(10.0, 10.0), Point2::new(11.0, 10.0)];
        let (sa, sb) = (
            LowerBound::<Point2>::summarize(&Dtw, &a),
            LowerBound::<Point2>::summarize(&Dtw, &b),
        );
        let lb = Dtw.lower_bound(&a, &sa, &sb);
        let d = SequenceDistance::<Point2>::distance(&Dtw, &a, &b);
        assert!(lb <= d, "{lb} vs {d}");
        assert!(lb > 0.0, "well-separated envelopes must produce a bound");
    }

    #[test]
    fn envelope_bound_admissible_for_every_member() {
        let m = EgedMetric::<f64>::new();
        let members: [&[f64]; 4] = [&[1.0, 2.0], &[10.0, 10.0, 10.0], &[5.0], &[3.0, 3.0, 3.0]];
        let mut env = SummaryEnvelope::empty();
        for s in members {
            env.add(&m.summarize(s));
        }
        for q in [
            &[0.5_f64][..],
            &[100.0, 100.0, 100.0, 100.0],
            &[1.0, 2.0],
            &[][..],
        ] {
            let qs = m.summarize(q);
            let eb = m.envelope_bound(q, &qs, &env);
            for s in members {
                let d = m.distance(q, s);
                assert!(eb <= d, "envelope {eb} vs member distance {d}");
            }
        }
    }

    #[test]
    fn envelope_bound_separates_far_query() {
        let m = EgedMetric::<f64>::new();
        let mut env = SummaryEnvelope::empty();
        env.add(&m.summarize(&[1.0, 2.0]));
        env.add(&m.summarize(&[2.0, 1.0]));
        let q = [100.0, 100.0];
        let qs = m.summarize(&q);
        assert!(m.envelope_bound(&q, &qs, &env) > 100.0);
    }

    #[test]
    fn empty_envelope_always_prunable() {
        let m = EgedMetric::<f64>::new();
        let env = SummaryEnvelope::<f64>::empty();
        assert!(env.is_empty());
        let q = [1.0];
        let qs = m.summarize(&q);
        assert_eq!(m.envelope_bound(&q, &qs, &env), f64::INFINITY);
    }

    #[test]
    fn envelope_is_order_independent() {
        let m = EgedMetric::<f64>::new();
        let a = m.summarize(&[1.0, 2.0][..]);
        let b = m.summarize(&[7.0][..]);
        let c = m.summarize(&[][..]);
        let mut e1 = SummaryEnvelope::empty();
        let mut e2 = SummaryEnvelope::empty();
        for s in [&a, &b, &c] {
            e1.add(s);
        }
        for s in [&c, &b, &a] {
            e2.add(s);
        }
        assert_eq!(e1, e2);
    }

    #[test]
    fn dtw_aggregate_envelope_bound_admissible() {
        let members: [&[Point2]; 2] = [
            &[Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)],
            &[Point2::new(2.0, 0.0)],
        ];
        let mut env = SummaryEnvelope::empty();
        for s in members {
            env.add(&LowerBound::<Point2>::summarize(&Dtw, s));
        }
        let q = [Point2::new(10.0, 10.0), Point2::new(11.0, 10.0)];
        let qs = LowerBound::<Point2>::summarize(&Dtw, &q);
        let eb = Dtw.envelope_bound(&q, &qs, &env);
        assert!(eb > 0.0);
        for s in members {
            let d = SequenceDistance::<Point2>::distance(&Dtw, &q, s);
            assert!(eb <= d, "{eb} vs {d}");
        }
    }

    #[test]
    fn deflate_never_negative() {
        assert_eq!(deflate(0.0), 0.0);
        assert!(deflate(1.0) < 1.0);
        assert!(deflate(1.0) > 0.999_999);
    }
}

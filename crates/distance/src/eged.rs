//! Extended Graph Edit Distance (Definition 9, Theorem 2).
//!
//! EGED computes the minimum cost of node edit operations (replace, delete,
//! add) transforming one Object Graph's node-value sequence into another.
//! The cost of deleting or adding a node is its ground distance to a *gap*
//! element `g_i`; the gap policy decides the space:
//!
//! * `g_i = (v_{i-1} + v_i) / 2` (midpoint) handles local time shifting but
//!   breaks the triangle inequality — the **non-metric** EGED used for
//!   clustering ([`Eged`]). An edit against the midpoint costs
//!   `dist(v, (v + o) / 2)`, which is `dist(v, o) / 2` for a norm, so the
//!   kernel prices it as half the substitution it already computed;
//! * `g_i = v_{i-1}` (repeat-previous) reproduces DTW's cost model, so it
//!   is not a policy here: DTW is [`crate::Dtw`];
//! * `g_i = g` fixed makes EGED a **metric** (Theorem 2) — [`EgedMetric`],
//!   used for index keys. With `g = 0` this coincides with Chen's ERP,
//!   which is exactly the lineage the paper cites.
//!
//! One kernel evaluates both policies, for either value type
//! (`eged_dp_upto_wavefront`): safe Rust that fills the edit lattice four
//! rows at a time along its anti-diagonals, bit-identical to the textbook
//! double loop kept as the unit tests' reference (DESIGN.md §13).

use crate::traits::{MetricDistance, SeqSummary, SequenceDistance};
use crate::value::SeqValue;

/// Gap policy of the EGED recurrence.
///
/// The paper defines the gap `g_i` relative to "the previous node" of the
/// alignment; concretely, editing out a node is priced against the node the
/// *other* sequence currently sits at:
///
/// * with `g_i` equal to that node the recurrence collapses to DTW's —
///   exactly the paper's remark that "when `g_i = v_{i-1}`, the cost
///   function is the same as one in DTW" — so that case is [`crate::Dtw`];
/// * with `g_i` the *midpoint* between the edited node and the opposite
///   node ([`GapPolicy::Midpoint`]) deletions/additions cost half the
///   ground distance (`0.5 · dist(v, o)`, exactly how it is computed),
///   which absorbs local time shifting more cheaply than a substitution
///   while still penalizing genuinely different content;
/// * with a *fixed constant* `g` ([`GapPolicy::Constant`]) the cost of an
///   edit no longer depends on alignment context, which is what restores
///   the triangle inequality (Theorem 2).
#[derive(Copy, Clone, Debug, PartialEq)]
pub(crate) enum GapPolicy<V> {
    /// `g_i = (opposite + v_i) / 2`, priced `0.5 · dist(v_i, opposite)`:
    /// non-metric, tolerant to local time shifting (the paper's clustering
    /// configuration).
    Midpoint,
    /// Fixed constant gap: the metric configuration of Theorem 2.
    Constant(V),
}

/// Full EGED dynamic program over the `(m + 1) x (n + 1)` edit lattice.
///
/// `D[i][0]` / `D[0][j]` accumulate pure deletions/additions (the paper's
/// `m = 0` / `n = 0` rows, which its metric variant requires); interior
/// cells take the minimum of replace / delete / add per Definition 9.
pub(crate) fn eged_dp<V: SeqValue>(a: &[V], b: &[V], policy: &GapPolicy<V>) -> f64 {
    // With an infinite cutoff the bounded DP never abandons and performs
    // exactly the unbounded recurrence, so the value is bit-identical.
    eged_dp_upto(a, b, policy, f64::INFINITY).expect("infinite cutoff never abandons")
}

/// Cutoff-bounded EGED: `Some(d)` iff `d <= cutoff` (with `d` bit-identical
/// to [`eged_dp`]), `None` iff the distance exceeds `cutoff`.
///
/// Early abandoning is exact: every edit cost is non-negative, so each DP
/// cell is `>=` some cell of the previous row and the final value is `>=`
/// the minimum of any row. Once a row's minimum exceeds `cutoff`, the true
/// distance must too. Floating point preserves the argument — adding a
/// non-negative `f64` never rounds below the addend, and `min` is exact.
///
/// The lattice is filled by [`eged_dp_upto_wavefront`]: four rows at a
/// time along anti-diagonals, every cell the textbook
/// `(replace.min(delete)).min(add)` on the textbook operands, so the value
/// and the `Some`/`None` decision are bit-identical to the double loop
/// (`eged_dp_upto_scalar`, kept as the unit tests' reference; DESIGN.md
/// §13).
pub(crate) fn eged_dp_upto<V: SeqValue>(
    a: &[V],
    b: &[V],
    policy: &GapPolicy<V>,
    cutoff: f64,
) -> Option<f64> {
    crate::scratch::with_dp_scratch(|s| eged_dp_upto_wavefront(a, b, policy, cutoff, s))
}

/// Cost of deleting `v` when the other sequence is positioned at `opp`
/// (None when the other sequence is empty).
#[inline]
fn edit_cost<V: SeqValue>(v: &V, opp: Option<&V>, policy: &GapPolicy<V>) -> f64 {
    match policy {
        GapPolicy::Constant(g) => v.dist(g),
        GapPolicy::Midpoint => match opp {
            Some(o) => v.dist(o) * 0.5,
            None => v.dist(&V::origin()),
        },
    }
}

/// Rows per strip of the wavefront, and lanes per step.
const LANES: usize = 4;

/// The lattice `min`. Spelled as a compare-and-select so it lowers to one
/// `minpd` per lane pair; `f64::min`'s NaN rule would cost a compare and a
/// blend more, and cannot be observed: lattice cells are sums of
/// non-negative ground distances, never NaN for finite elements
/// ([`SeqValue`]) and never `-0.0`, and on everything else the two agree.
#[inline(always)]
fn lmin(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// The four lanes of one strip of the wavefront, lane `k` walking strip
/// row `3 - k` (lane 3 the top row, lane 0 the bottom).
struct Strip<V> {
    /// The strip's elements of `a`, bottom row first.
    av: [V; LANES],
    /// `dist(av[k], g)`: the lanes' deletion costs under the constant gap
    /// (unused by the midpoint gap).
    del_const: [f64; LANES],
    /// Each lane's latest cell: its row's column-0 cell before the lane
    /// starts, its row's last cell once it has finished.
    cur: [f64; LANES],
    /// Last step's `delete` operands, which are this step's `replace`
    /// operands.
    diag: [f64; LANES],
    /// Each row's running minimum, column 0 included.
    mins: [f64; LANES],
}

impl<V: SeqValue> Strip<V> {
    /// Every step of the strip under one gap policy, the constant gap if
    /// `CONST_GAP` and the midpoint gap otherwise: each policy gets a loop
    /// of its own, so no step branches on (or computes both arms of) it.
    #[inline(always)]
    fn walk<const CONST_GAP: bool>(&mut self, b: &[V], ins: &[f64], row: &mut [f64]) {
        let n = b.len();
        for s in 0..LANES - 1 {
            self.step::<true, CONST_GAP>(s, b, ins, row);
        }
        for s in LANES - 1..n {
            self.step::<false, CONST_GAP>(s, b, ins, row);
        }
        for s in n..n + LANES - 1 {
            self.step::<true, CONST_GAP>(s, b, ins, row);
        }
    }

    /// Step `s`: lane `k` computes the cell of column `s - 3 + k`. In `EDGE`
    /// steps (the first and last three of a strip) some of those columns
    /// are outside `0..n`: such a lane clamps its index into `b` and keeps
    /// its state. A full step reads `b[s-3..=s]` as one slice.
    #[inline(always)]
    fn step<const EDGE: bool, const CONST_GAP: bool>(
        &mut self,
        s: usize,
        b: &[V],
        ins: &[f64],
        row: &mut [f64],
    ) {
        let n = b.len();
        let av = &self.av;
        let bv: [V; LANES] = if EDGE {
            std::array::from_fn(|k| b[(s + k).saturating_sub(LANES - 1).min(n - 1)])
        } else {
            *<&[V; LANES]>::try_from(&b[s + 1 - LANES..=s]).expect("four columns")
        };
        let sub = V::dist_pairs(av, &bv);
        let (del, add) = if CONST_GAP {
            (
                self.del_const,
                *<&[f64; LANES]>::try_from(&ins[s..s + LANES]).expect("four costs"),
            )
        } else {
            let half = sub.map(|d| d * 0.5);
            (half, half)
        };
        // The row above lane 3 is the row above the strip.
        let up = [self.cur[1], self.cur[2], self.cur[3], row[(s + 1).min(n)]];
        for k in 0..LANES {
            let cell = lmin(
                lmin(self.diag[k] + sub[k], up[k] + del[k]),
                self.cur[k] + add[k],
            );
            if !EDGE || (s + k >= LANES - 1 && s + k < n + LANES - 1) {
                self.cur[k] = cell;
                self.mins[k] = lmin(self.mins[k], cell);
            }
        }
        self.diag = up;
        // The bottom lane's cell, three columns behind the read above.
        if s >= LANES - 1 {
            row[s + 2 - LANES] = self.cur[0];
        }
    }
}

/// The EGED lattice as an anti-diagonal wavefront over strips of
/// [`LANES`] rows, one body for every gap policy and value type.
///
/// `row` holds lattice row `i0` on entry to a strip and row `i0 + 4` on
/// exit. Inside the strip, lane `k` walks row `i0 + 4 - k`, and at step `s`
/// it sits at column `s - 3 + k` (0-based into `b`): each row trails the
/// row above by one column, so the four cells of a step lie on one
/// anti-diagonal and the four columns they touch are the forward slice
/// `b[s-3..=s]`. A cell's three inputs are then all in registers:
///
/// * `add`     — `D[i][j-1]`: the lane's own value one step ago (`cur[k]`);
/// * `delete`  — `D[i-1][j]`: the lane above one step ago (`cur[k + 1]`,
///   and for lane 3 the row above the strip, `row[s + 1]`);
/// * `replace` — `D[i-1][j-1]`: the lane above two steps ago, which is last
///   step's `delete` operand (`diag`).
///
/// A lane that has not started holds its row's column-0 cell (the running
/// `Σ edit(aᵢ)` in row order), which is exactly the operand its own first
/// `add` and the next lane's first `replace` need. The bottom lane writes
/// its cells back into `row` three columns behind where the top lane
/// reads, so one row of storage is both the strip's input and its output.
///
/// Rows left over after the last full strip, and every row when `b` is
/// shorter than a step is wide, take the textbook recurrence on the same
/// `row`. Each lane (and each leftover row) keeps its row's running
/// minimum; a strip abandons at its end if any of its four minima exceeds
/// `cutoff` — the scalar kernel's decision, at most three rows later.
fn eged_dp_upto_wavefront<V: SeqValue>(
    a: &[V],
    b: &[V],
    policy: &GapPolicy<V>,
    cutoff: f64,
    scratch: &mut crate::scratch::DpScratch,
) -> Option<f64> {
    let n = b.len();
    let row = scratch.prev.sized(n + 1);
    // Constant gap only: `ins[c + 3] = dist(b[c], g)`, staged once per call
    // with three cells of padding on either side, so that every step — edge
    // steps included — reads its four insertion costs as the one slice
    // `ins[s..s + 4]`. The padding is never initialised: only idle lanes
    // read it, and their results are discarded.
    const PAD: usize = LANES - 1;
    let ins = scratch.cost.sized(n + 2 * PAD);

    // Row 0: pure insertions.
    if let GapPolicy::Constant(g) = policy {
        for (bj, cost) in b.iter().zip(&mut ins[PAD..PAD + n]) {
            *cost = g.dist(bj);
        }
    }
    row[0] = 0.0;
    for j in 1..=n {
        row[j] = row[j - 1] + edit_cost(&b[j - 1], a.first(), policy);
    }

    let strips = if n < LANES { 0 } else { a.len() / LANES };
    let (full, rest) = a.split_at(strips * LANES);
    for rows in full.chunks_exact(LANES) {
        let av: [V; LANES] = std::array::from_fn(|k| rows[LANES - 1 - k]);
        let del_const = match policy {
            GapPolicy::Constant(g) => V::dist_pairs(&av, &[*g; LANES]),
            _ => [0.0; LANES],
        };
        // Column 0 of the strip's rows, top to bottom; `row[0]` moves on to
        // the bottom row's once the top lane's first `replace` has it.
        let diag = [row[0]; LANES];
        let mut cur = [0.0; LANES];
        for k in (0..LANES).rev() {
            row[0] += edit_cost(&av[k], b.first(), policy);
            cur[k] = row[0];
        }
        let mut strip = Strip {
            av,
            del_const,
            cur,
            diag,
            mins: cur,
        };
        match policy {
            GapPolicy::Constant(_) => strip.walk::<true>(b, ins, row),
            GapPolicy::Midpoint => strip.walk::<false>(b, ins, row),
        }
        if strip.mins.iter().any(|&m| m > cutoff) {
            return None;
        }
    }

    for ai in rest {
        let mut diag = row[0];
        row[0] += edit_cost(ai, b.first(), policy);
        let mut row_min = row[0];
        for j in 1..=n {
            let bj = &b[j - 1];
            let replace = diag + ai.dist(bj);
            let delete = row[j] + edit_cost(ai, Some(bj), policy);
            let add = row[j - 1] + edit_cost(bj, Some(ai), policy);
            diag = row[j];
            row[j] = lmin(lmin(replace, delete), add);
            row_min = lmin(row_min, row[j]);
        }
        if row_min > cutoff {
            return None;
        }
    }

    let d = row[n];
    if d <= cutoff {
        Some(d)
    } else {
        None
    }
}

/// The non-metric EGED with the midpoint gap `g_i = (v_{i-1} + v_i) / 2`
/// (the paper's clustering distance).
#[derive(Copy, Clone, Debug, Default)]
pub struct Eged;

impl<V: SeqValue> SequenceDistance<V> for Eged {
    fn distance(&self, a: &[V], b: &[V]) -> f64 {
        eged_dp(a, b, &GapPolicy::Midpoint)
    }
    fn name(&self) -> &'static str {
        "EGED"
    }
}

/// The metric EGED (`EGED_M`): fixed constant gap, satisfying the triangle
/// inequality (Theorem 2). This is the key function of the STRG-Index and
/// the distance the M-tree baseline is driven with.
#[derive(Copy, Clone, Debug)]
pub struct EgedMetric<V> {
    /// The fixed gap constant `g`.
    pub gap: V,
}

impl<V: SeqValue> Default for EgedMetric<V> {
    fn default() -> Self {
        Self { gap: V::origin() }
    }
}

impl<V: SeqValue> EgedMetric<V> {
    /// Metric EGED with gap constant `g = origin` (Chen's ERP choice).
    pub fn new() -> Self {
        Self::default()
    }

    /// Metric EGED with an explicit gap constant.
    pub fn with_gap(gap: V) -> Self {
        Self { gap }
    }
}

impl<V: SeqValue> SequenceDistance<V> for EgedMetric<V> {
    fn distance(&self, a: &[V], b: &[V]) -> f64 {
        eged_dp(a, b, &GapPolicy::Constant(self.gap))
    }
    fn name(&self) -> &'static str {
        "EGED_M"
    }
}

/// Deflates an analytic bound by a small relative + absolute margin so that
/// floating-point rounding in the summary arithmetic can never push it
/// above the true distance: the summary sums are accumulated in a different
/// order than the DP's own arithmetic, so an exactly-tight bound could
/// round a hair above it. Costs ~1e-9 of pruning power. Clamped at zero.
fn deflate(bound: f64) -> f64 {
    (bound - bound * 1e-9 - 1e-9).max(0.0)
}

impl<V: SeqValue> MetricDistance<V> for EgedMetric<V> {
    fn distance_upto(&self, a: &[V], b: &[V], cutoff: f64) -> Option<f64> {
        eged_dp_upto(a, b, &GapPolicy::Constant(self.gap), cutoff)
    }

    fn summarize(&self, seq: &[V]) -> SeqSummary {
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
    fn lower_bound(&self, _query: &[V], a: &SeqSummary, b: &SeqSummary) -> f64 {
        let mass = (a.gap_mass - b.gap_mass).abs();
        let surplus = if a.len >= b.len {
            (a.len - b.len) as f64 * a.min_gap
        } else {
            (b.len - a.len) as f64 * b.min_gap
        };
        deflate(mass.max(surplus))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook scalar DP: the reference `wavefront_matches_scalar_bitwise`
    /// pins the kernel to.
    fn eged_dp_upto_scalar<V: SeqValue>(
        a: &[V],
        b: &[V],
        policy: &GapPolicy<V>,
        cutoff: f64,
    ) -> Option<f64> {
        let m = a.len();
        let n = b.len();
        let edit = |v: &V, opp: Option<&V>| edit_cost(v, opp, policy);

        // Two-row DP; rows indexed by j over b.
        let mut prev = vec![0.0f64; n + 1];
        let mut cur = vec![0.0f64; n + 1];
        for j in 1..=n {
            prev[j] = prev[j - 1] + edit(&b[j - 1], a.first());
        }
        for i in 1..=m {
            cur[0] = prev[0] + edit(&a[i - 1], b.first());
            let mut row_min = cur[0];
            for j in 1..=n {
                let replace = prev[j - 1] + a[i - 1].dist(&b[j - 1]);
                let delete = prev[j] + edit(&a[i - 1], Some(&b[j - 1]));
                let add = cur[j - 1] + edit(&b[j - 1], Some(&a[i - 1]));
                cur[j] = replace.min(delete).min(add);
                row_min = row_min.min(cur[j]);
            }
            if row_min > cutoff {
                return None;
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        let d = prev[n];
        if d <= cutoff {
            Some(d)
        } else {
            None
        }
    }

    /// The midpoint element `(v + o) / 2` the midpoint gap is defined by.
    trait Midpoint: SeqValue {
        fn midpoint(&self, other: &Self) -> Self;
    }

    impl Midpoint for f64 {
        fn midpoint(&self, other: &f64) -> f64 {
            (self + other) / 2.0
        }
    }

    impl Midpoint for strg_graph::Point2 {
        fn midpoint(&self, other: &Self) -> Self {
            (*self + *other) * 0.5
        }
    }

    /// The midpoint-gap EGED by its definition: a textbook DP whose edit
    /// cost is the distance to the midpoint element,
    /// `dist(v, midpoint(v, o))`, where the kernel computes
    /// `0.5 · dist(v, o)`. The two are equal in exact arithmetic.
    fn eged_midpoint_element<V: Midpoint>(a: &[V], b: &[V]) -> f64 {
        let edit = |v: &V, opp: Option<&V>| match opp {
            Some(o) => v.dist(&v.midpoint(o)),
            None => v.dist(&V::origin()),
        };
        let mut prev: Vec<f64> = vec![0.0; b.len() + 1];
        for j in 1..=b.len() {
            prev[j] = prev[j - 1] + edit(&b[j - 1], a.first());
        }
        for ai in a {
            let mut cur = vec![prev[0] + edit(ai, b.first()); b.len() + 1];
            for (j, bj) in b.iter().enumerate() {
                let replace = prev[j] + ai.dist(bj);
                let delete = prev[j + 1] + edit(ai, Some(bj));
                let add = cur[j] + edit(bj, Some(ai));
                cur[j + 1] = replace.min(delete).min(add);
            }
            prev = cur;
        }
        prev[b.len()]
    }

    /// A random walk of 0–39 steps inside a 160 × 120 frame.
    fn walk(rng: &mut rand::rngs::StdRng) -> Vec<strg_graph::Point2> {
        use rand::Rng;
        use strg_graph::Point2;
        let len = rng.gen_range(0..40usize);
        let mut p = Point2::new(rng.gen_range(0.0..160.0), rng.gen_range(0.0..120.0));
        (0..len)
            .map(|_| {
                p = p + Point2::new(rng.gen_range(-4.0..4.0), rng.gen_range(-4.0..4.0));
                p
            })
            .collect()
    }

    fn eged(a: &[f64], b: &[f64]) -> f64 {
        SequenceDistance::distance(&Eged, a, b)
    }

    fn eged_m(a: &[f64], b: &[f64]) -> f64 {
        SequenceDistance::distance(&EgedMetric::<f64>::new(), a, b)
    }

    #[test]
    fn identical_sequences_have_zero_distance() {
        let s = [1.0, 2.0, 3.0, 2.0];
        assert_eq!(eged(&s, &s), 0.0);
        assert_eq!(eged_m(&s, &s), 0.0);
    }

    #[test]
    fn empty_sequences() {
        assert_eq!(eged_m(&[], &[]), 0.0);
        // Against empty: pure additions at |v - 0| each.
        assert_eq!(eged_m(&[], &[2.0, 2.0, 3.0]), 7.0);
        assert_eq!(eged_m(&[1.0, 1.0], &[]), 2.0);
    }

    #[test]
    fn paper_example_metric_values() {
        // §3.1: OGr = {0}, OGs = {1,1}, OGt = {2,2,3} with g = 0:
        // EGED_M(r,t) = 7, EGED_M(r,s) = 2, EGED_M(s,t) = 5, and
        // 7 <= 2 + 5 (triangle inequality).
        let r = [0.0];
        let s = [1.0, 1.0];
        let t = [2.0, 2.0, 3.0];
        assert_eq!(eged_m(&r, &t), 7.0);
        assert_eq!(eged_m(&r, &s), 2.0);
        assert_eq!(eged_m(&s, &t), 5.0);
        assert!(eged_m(&r, &t) <= eged_m(&r, &s) + eged_m(&s, &t));
    }

    #[test]
    fn non_metric_midpoint_gap_is_cheaper_on_time_shift() {
        // A local time shift (one repeated sample) should cost less under
        // the midpoint gap than under the constant gap.
        let a = [1.0, 5.0, 9.0];
        let b = [1.0, 5.0, 5.0, 9.0];
        let non_metric = eged(&a, &b);
        let metric = eged_m(&a, &b);
        assert!(non_metric < metric);
        // Deleting the duplicated 5 against midpoint(5,5) = 5 is free.
        assert_eq!(non_metric, 0.0);
    }

    #[test]
    fn midpoint_gap_is_the_distance_to_the_midpoint_element() {
        use rand::SeedableRng;
        use strg_graph::Point2;
        // Integer-valued elements: `(v + o) / 2` and `|v - o| / 2` are both
        // exact, and `sqrt(x / 4) = sqrt(x) / 2` is too, so the two
        // formulas agree to the bit.
        let ints: [&[f64]; 6] = [
            &[1.0, 5.0, 9.0],
            &[1.0, 5.0, 5.0, 9.0],
            &[0.0, 3.0, 1.0],
            &[2.0, 2.0],
            &[0.0, 7.0, -3.0, 4.0, 4.0, 11.0],
            &[],
        ];
        for a in ints {
            for b in ints {
                let e = eged(a, b);
                assert_eq!(e.to_bits(), eged_midpoint_element(a, b).to_bits());
                let pa: Vec<Point2> = a.iter().map(|&x| Point2::new(x, 2.0 * x - 1.0)).collect();
                let pb: Vec<Point2> = b.iter().map(|&x| Point2::new(-x, x + 3.0)).collect();
                assert_eq!(
                    SequenceDistance::distance(&Eged, &pa, &pb).to_bits(),
                    eged_midpoint_element(&pa, &pb).to_bits(),
                    "{a:?} {b:?}"
                );
            }
        }
        // Random walks: the midpoint element's coordinates round, so the
        // two differ in the last bits of each edit cost, never by more.
        let mut rng = rand::rngs::StdRng::seed_from_u64(20050615);
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-12 * got.max(want);
        for _ in 0..1000 {
            let (a, b) = (walk(&mut rng), walk(&mut rng));
            let (got, want) = (
                SequenceDistance::distance(&Eged, &a, &b),
                eged_midpoint_element(&a, &b),
            );
            assert!(close(got, want), "Point2 {got} vs {want}");
            let (fa, fb): (Vec<f64>, Vec<f64>) = (
                a.iter().map(|p| p.x).collect(),
                b.iter().map(|p| p.y).collect(),
            );
            let (got, want) = (eged(&fa, &fb), eged_midpoint_element(&fa, &fb));
            assert!(close(got, want), "f64 {got} vs {want}");
        }
    }

    #[test]
    fn metric_symmetry() {
        let a = [0.0, 3.0, 1.0];
        let b = [2.0, 2.0];
        assert_eq!(eged_m(&a, &b), eged_m(&b, &a));
        assert_eq!(eged(&a, &b), eged(&b, &a));
    }

    #[test]
    fn substitution_bounded_by_pointwise_costs() {
        let a = [1.0, 2.0];
        let b = [1.5, 2.5];
        // Direct replacement costs 1.0; EGED can't exceed it.
        assert!(eged_m(&a, &b) <= 1.0 + 1e-12);
    }

    #[test]
    fn custom_gap_constant() {
        let d = EgedMetric::with_gap(10.0);
        // Adding 12 against gap 10 costs 2.
        assert_eq!(d.distance(&[], &[12.0]), 2.0);
    }

    #[test]
    fn works_on_points() {
        use strg_graph::Point2;
        let a = [Point2::new(0.0, 0.0), Point2::new(1.0, 0.0)];
        let b = [
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
        ];
        let d = EgedMetric::<Point2>::new();
        // Best: match both, add (1,1) at |(1,1)| = sqrt(2).
        assert!((d.distance(&a, &b) - 2.0f64.sqrt()).abs() < 1e-12);
    }

    /// The largest float below a positive `d`.
    fn just_below(d: f64) -> f64 {
        f64::from_bits(d.to_bits() - 1)
    }

    fn wavefront<V: SeqValue>(a: &[V], b: &[V], p: &GapPolicy<V>, cutoff: f64) -> Option<f64> {
        crate::scratch::with_dp_scratch(|sc| eged_dp_upto_wavefront(a, b, p, cutoff, sc))
    }

    /// Every shape on both sides of the strip height (rows) and the step
    /// width (columns), every policy, and the cutoffs around the value.
    fn check_table<V: SeqValue>(lift_a: impl Fn(f64) -> V, lift_b: impl Fn(f64) -> V, gap: V) {
        let mut shapes: Vec<(usize, usize)> =
            (0..=9).flat_map(|m| (0..=9).map(move |n| (m, n))).collect();
        shapes.extend([(23, 17), (64, 20), (20, 64)]);
        for (m, n) in shapes {
            let a: Vec<V> = (0..m)
                .map(|i| lift_a((i as f64 * 0.7).sin() * 5.0))
                .collect();
            let b: Vec<V> = (0..n)
                .map(|i| lift_b((i as f64 * 0.3).cos() * 4.0))
                .collect();
            for policy in [GapPolicy::Midpoint, GapPolicy::Constant(gap)] {
                let d = eged_dp_upto_scalar(&a, &b, &policy, f64::INFINITY).unwrap();
                let mut cutoffs = vec![f64::INFINITY, d, d / 2.0, 0.0];
                if d > 0.0 {
                    cutoffs.push(just_below(d));
                }
                for cutoff in cutoffs {
                    assert_eq!(
                        wavefront(&a, &b, &policy, cutoff).map(f64::to_bits),
                        eged_dp_upto_scalar(&a, &b, &policy, cutoff).map(f64::to_bits),
                        "{policy:?} m={m} n={n} cutoff={cutoff} d={d}"
                    );
                }
            }
        }
    }

    #[test]
    fn wavefront_matches_scalar_bitwise() {
        use strg_graph::Point2;
        check_table(|x| x, |x| x, 0.5);
        check_table(
            |x| Point2::new(x, 1.5 - 0.25 * x),
            |x| Point2::new(0.5 * x, x),
            Point2::new(0.25, -0.5),
        );
    }

    #[test]
    fn upto_is_some_iff_within_cutoff() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use strg_graph::Point2;
        let mut rng = StdRng::seed_from_u64(20050614);
        let metric = EgedMetric::<Point2>::new();
        let (mut within, mut beyond) = (0, 0);
        for _ in 0..1000 {
            let (a, b) = (walk(&mut rng), walk(&mut rng));
            let d = metric.distance(&a, &b);
            let e = SequenceDistance::distance(&Eged, &a, &b);
            // Cutoffs from well below to well above the value, and the value.
            let f = [0.0, 0.5, 0.9, 1.0, 1.1, 2.0][rng.gen_range(0..6usize)];
            for (got, full, c) in [
                (metric.distance_upto(&a, &b, d * f), d, d * f),
                (eged_dp_upto(&a, &b, &GapPolicy::Midpoint, e * f), e, e * f),
            ] {
                if full <= c {
                    assert_eq!(got.map(f64::to_bits), Some(full.to_bits()));
                    within += 1;
                } else {
                    assert_eq!(got, None, "distance {full} cutoff {c}");
                    beyond += 1;
                }
            }
        }
        assert!(
            within > 400 && beyond > 400,
            "{within} within, {beyond} beyond"
        );
    }

    #[test]
    fn finite_inputs_never_produce_nan() {
        use strg_graph::Point2;
        // Huge, tiny and mixed magnitudes: squares overflow to +inf or
        // underflow to 0, and neither may turn into NaN on the way out.
        let mags = [1e200, -1e200, 1e-200, -1e-200, 0.0, 3.5, f64::MAX, f64::MIN];
        let seq = |start: usize, len: usize| -> Vec<Point2> {
            (0..len)
                .map(|i| Point2::new(mags[(start + i) % 8], mags[(start + 3 * i + 1) % 8]))
                .collect()
        };
        for (m, n) in [(0, 3), (1, 1), (3, 9), (4, 4), (9, 5), (13, 11)] {
            for start in 0..8 {
                let (a, b) = (seq(start, m), seq(start + 5, n));
                let fa: Vec<f64> = a.iter().map(|p| p.x).collect();
                let fb: Vec<f64> = b.iter().map(|p| p.y).collect();
                for policy in [GapPolicy::Midpoint, GapPolicy::Constant(Point2::ZERO)] {
                    let d = eged_dp(&a, &b, &policy);
                    assert!(!d.is_nan(), "{policy:?} m={m} n={n} start={start}");
                    assert_eq!(
                        eged_dp_upto(&a, &b, &policy, f64::INFINITY).map(f64::to_bits),
                        Some(d.to_bits())
                    );
                }
                for policy in [GapPolicy::Midpoint, GapPolicy::Constant(0.0)] {
                    assert!(!eged_dp(&fa, &fb, &policy).is_nan(), "f64 {policy:?}");
                }
            }
        }
        let far = [Point2::new(1e200, -1e200); 5];
        let near = [Point2::new(1.0, 2.0); 6];
        let m = EgedMetric::<Point2>::new();
        assert_eq!(m.distance(&far, &near), f64::INFINITY);
        assert_eq!(
            m.distance_upto(&far, &near, f64::INFINITY),
            Some(f64::INFINITY)
        );
        assert_eq!(m.distance_upto(&far, &near, 1e300), None);
    }

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
    fn deflate_never_negative() {
        assert_eq!(deflate(0.0), 0.0);
        assert!(deflate(1.0) < 1.0);
        assert!(deflate(1.0) > 0.999_999);
    }

    #[test]
    fn names() {
        assert_eq!(SequenceDistance::<f64>::name(&Eged), "EGED");
        assert_eq!(
            SequenceDistance::<f64>::name(&EgedMetric::<f64>::new()),
            "EGED_M"
        );
    }
}

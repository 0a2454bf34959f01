//! Monotone-refinement acceleration: directions, score intervals, and
//! parent handles.
//!
//! Every strategy walks the refinement lattice of Definition 3.7 search.
//! A *specialization* step (add an atom, bind a constant to a variable,
//! merge two variables, move a predicate down the Hasse diagram) produces
//! a query that homomorphically maps into its parent, so each certain
//! answer of the child is a certain answer of the parent: on any fixed
//! border view the child's [`MatchBits`](crate::matcher::MatchBits) are a
//! subset of the parent's. A *generalization* step (drop an atom, replace
//! a constant with a fresh variable, move a predicate up) is the exact
//! dual: the parent's answers are preserved, so the child's bits are a
//! superset.
//!
//! Two optimizations fall out, both wired through
//! [`ScoringEngine`](crate::engine::ScoringEngine):
//!
//! 1. **Parent-delta evaluation** — a specialization child only needs the
//!    evaluator run on tuples the parent matched (the rest are provably
//!    unmatched); a generalization child only on tuples the parent missed
//!    (the rest are inherited). See
//!    [`PreparedLabels::match_bits_restricted`](crate::matcher::PreparedLabels::match_bits_restricted).
//! 2. **Admissible bound pruning** — what is known of a candidate's match
//!    counts is a [`CountBox`]: `[0, p̂] × [0, n̂]` under a specialize
//!    parent, `[p̂, P] × [n̂, N]` under a generalize parent, the union box
//!    of two disjuncts, or the box an evaluation has narrowed so far.
//!    [`Criterion::range_over`](crate::criteria::Criterion::range_over) and
//!    interval evaluation of the Z expression
//!    ([`Scoring::bound_over`](crate::score::Scoring::bound_over)) turn a
//!    box into a score no point inside it can exceed. A candidate whose
//!    bound cannot reach the current selection cut is skipped before
//!    compilation, and an evaluation whose box falls below the cut stops
//!    (`cutoff`).
//!
//! Both are *exact* accelerations: the engine falls back to a full
//! evaluation whenever the parent's entry is not cached (or compilation of
//! the parent failed), and pruning only ever drops candidates that are
//! provably outside the returned ranking, so the incremental path returns
//! byte-identical output to the baseline.

use crate::explain::Explanation;
use crate::matcher::MatchStats;
use obx_query::{Cutoff, OntoCq};

/// Direction of a refinement step in the lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineDir {
    /// The child entails the parent (downward step): every certain answer
    /// of the child is one of the parent, so child bits ⊆ parent bits.
    Specialize,
    /// The parent entails the child (upward step): child bits ⊇ parent
    /// bits.
    Generalize,
}

/// A closed interval `[lo, hi]` over scores or criterion values.
///
/// Infinite endpoints encode one-sided or absent knowledge; the
/// conservative element is [`Interval::UNKNOWN`] = `(-∞, +∞)`, which
/// disables pruning wherever it appears (its `hi` is `+∞`, which no floor
/// can beat). Arithmetic is standard interval arithmetic with one twist:
/// any `NaN` endpoint (e.g. `0 · ∞` corners) widens to `UNKNOWN` rather
/// than poisoning comparisons — `NaN < x` is false, so a `NaN` bound
/// could never prune anyway, but widening keeps `lo`/`hi` meaningful.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower endpoint (may be `-∞`).
    pub lo: f64,
    /// Upper endpoint (may be `+∞`).
    pub hi: f64,
}

impl Interval {
    /// The interval carrying no information: `(-∞, +∞)`.
    pub const UNKNOWN: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// The interval `[lo, hi]`.
    pub fn new(lo: f64, hi: f64) -> Self {
        Self::sane(lo, hi)
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: f64) -> Self {
        Self::sane(v, v)
    }

    /// Replaces `NaN` endpoints with the conservative infinity.
    fn sane(lo: f64, hi: f64) -> Self {
        Interval {
            lo: if lo.is_nan() { f64::NEG_INFINITY } else { lo },
            hi: if hi.is_nan() { f64::INFINITY } else { hi },
        }
    }

    /// Interval sum: `[a.lo + b.lo, a.hi + b.hi]`.
    // Named like the scalar ops it mirrors; `std::ops` impls would force
    // trait imports on every internal call site for no gain.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Interval) -> Interval {
        Self::sane(self.lo + other.lo, self.hi + other.hi)
    }

    /// Interval product: min/max over the four endpoint products.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Interval) -> Interval {
        let corners = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ];
        if corners.iter().any(|c| c.is_nan()) {
            return Interval::UNKNOWN;
        }
        let lo = corners.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = corners.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self::sane(lo, hi)
    }

    /// Scaling by a constant: `k · [lo, hi]` (endpoints swap for `k < 0`);
    /// the product with `[k, k]` without its four-corner search.
    pub fn scale(self, k: f64) -> Interval {
        let (a, b) = (self.lo * k, self.hi * k);
        if a.is_nan() || b.is_nan() {
            Interval::UNKNOWN
        } else if k >= 0.0 {
            Self::sane(a, b)
        } else {
            Self::sane(b, a)
        }
    }

    /// Interval quotient under [`ScoreExpr::eval`](crate::score::ScoreExpr)'s
    /// convention that a zero denominator yields zero. A denominator
    /// interval strictly on one side of zero divides pointwise; exactly
    /// `[0, 0]` yields `[0, 0]`; anything straddling (or touching) zero
    /// admits unboundedly large quotients and widens to `UNKNOWN`.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, denom: Interval) -> Interval {
        if denom.lo == 0.0 && denom.hi == 0.0 {
            return Interval::point(0.0);
        }
        if denom.lo > 0.0 || denom.hi < 0.0 {
            let corners = [
                self.lo / denom.lo,
                self.lo / denom.hi,
                self.hi / denom.lo,
                self.hi / denom.hi,
            ];
            if corners.iter().any(|c| c.is_nan()) {
                return Interval::UNKNOWN;
            }
            let lo = corners.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = corners.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            return Self::sane(lo, hi);
        }
        Interval::UNKNOWN
    }

    /// Pointwise minimum: `[min(a.lo, b.lo), min(a.hi, b.hi)]`.
    pub fn min_with(self, other: Interval) -> Interval {
        Self::sane(self.lo.min(other.lo), self.hi.min(other.hi))
    }

    /// Pointwise maximum: `[max(a.lo, b.lo), max(a.hi, b.hi)]`.
    pub fn max_with(self, other: Interval) -> Interval {
        Self::sane(self.lo.max(other.lo), self.hi.max(other.hi))
    }

    /// Whether `v` lies inside the interval.
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }
}

/// Where a candidate's match counts can lie: between `pos_lo` and
/// `pos_hi` of the `pos_total` positives matched, between `neg_lo` and
/// `neg_hi` of the `neg_total` negatives. Every bound the engine prunes
/// with is [`Scoring::bound_over`](crate::score::Scoring::bound_over) a
/// box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountBox {
    /// Fewest positives the candidate can match.
    pub pos_lo: usize,
    /// Most positives the candidate can match.
    pub pos_hi: usize,
    /// `|λ⁺|`.
    pub pos_total: usize,
    /// Fewest negatives the candidate can match.
    pub neg_lo: usize,
    /// Most negatives the candidate can match.
    pub neg_hi: usize,
    /// `|λ⁻|`.
    pub neg_total: usize,
}

impl CountBox {
    /// The box holding exactly `s`.
    pub fn point(s: &MatchStats) -> Self {
        CountBox {
            pos_lo: s.pos_matched,
            pos_hi: s.pos_matched,
            pos_total: s.pos_total,
            neg_lo: s.neg_matched,
            neg_hi: s.neg_matched,
            neg_total: s.neg_total,
        }
    }

    /// The box of every `dir`-refinement of a query matching `s`: a
    /// specialization keeps a subset of its matches (`[0, p̂] × [0, n̂]`),
    /// a generalization a superset (`[p̂, P] × [n̂, N]`).
    pub fn refining(dir: RefineDir, s: &MatchStats) -> Self {
        match dir {
            RefineDir::Specialize => CountBox {
                pos_lo: 0,
                neg_lo: 0,
                ..Self::point(s)
            },
            RefineDir::Generalize => CountBox {
                pos_hi: s.pos_total,
                neg_hi: s.neg_total,
                ..Self::point(s)
            },
        }
    }

    /// The box of the union of two queries matching `a` and `b`: match
    /// sets OR together, so each count is in `[max(a, b), min(total,
    /// a + b)]`.
    pub fn union(a: &MatchStats, b: &MatchStats) -> Self {
        CountBox {
            pos_lo: a.pos_matched.max(b.pos_matched),
            pos_hi: (a.pos_matched + b.pos_matched).min(a.pos_total),
            pos_total: a.pos_total,
            neg_lo: a.neg_matched.max(b.neg_matched),
            neg_hi: (a.neg_matched + b.neg_matched).min(a.neg_total),
            neg_total: a.neg_total,
        }
    }
}

/// The [`Cutoff`] that stops an evaluation once its box provably scores
/// below `floor`, or `None` when `start` already does (prune without
/// evaluating). `bound` is the candidate's bound over a box.
///
/// Positives are goals `0..pos_total` and count their final misses;
/// negatives count their hits. Each side gets a budget: the most events
/// that keep `bound` at or above `floor` with the other side as in
/// `start`. Interval bounds only shrink as a box does, so `bound` falls
/// monotonically along each side and a binary search finds the budget in
/// `O(log n)` bound calls per evaluation, none per goal. Per-side budgets
/// are conservative: a mix of misses and hits that would prune together
/// runs on, which costs time, never output.
pub(crate) fn cutoff(
    start: &CountBox,
    floor: f64,
    bound: impl Fn(&CountBox) -> f64,
) -> Option<Cutoff> {
    if floor == f64::NEG_INFINITY {
        return Some(Cutoff::NONE);
    }
    if bound(start) < floor {
        return None;
    }
    let misses = budget(start.pos_hi - start.pos_lo, |m| {
        bound(&CountBox {
            pos_hi: start.pos_hi - m,
            ..*start
        }) >= floor
    });
    let hits = budget(start.neg_hi - start.neg_lo, |h| {
        bound(&CountBox {
            neg_lo: start.neg_lo + h,
            ..*start
        }) >= floor
    });
    Some(Cutoff {
        split: start.pos_total,
        misses,
        hits,
    })
}

/// The largest `k` in `0..=max` with `ok(k)`, given `ok(0)` and `ok`
/// monotone (true, then false); `usize::MAX` when `ok(max)`.
fn budget(max: usize, ok: impl Fn(usize) -> bool) -> usize {
    if ok(max) {
        return usize::MAX;
    }
    let (mut lo, mut hi) = (0, max);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if ok(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Refinement provenance for a candidate: the parent's canonical cache
/// key plus the statistics that bound every descendant's score.
///
/// A handle is only built from single-disjunct parents: a generalization
/// child of one disjunct need not contain a *union's* answers, so union
/// statistics would make the upward bound inadmissible (and the downward
/// delta mask wrong). [`ParentHandle::from_explanation`] returns `None`
/// for multi-disjunct parents, which simply falls back to full evaluation.
#[derive(Debug, Clone)]
pub struct ParentHandle {
    key: OntoCq,
    dir: RefineDir,
    stats: MatchStats,
}

impl ParentHandle {
    /// Builds a handle from the parent's canonical key and match stats.
    pub fn new(dir: RefineDir, key: OntoCq, stats: MatchStats) -> Self {
        ParentHandle {
            key: key.canonical(),
            dir,
            stats,
        }
    }

    /// Builds a handle from a scored parent explanation, or `None` when
    /// the explanation is a union (see the type-level docs).
    pub fn from_explanation(dir: RefineDir, e: &Explanation) -> Option<Self> {
        match e.query.disjuncts() {
            [d] => Some(Self::new(dir, d.clone(), e.stats)),
            _ => None,
        }
    }

    /// The parent's canonical cache key.
    pub fn key(&self) -> &OntoCq {
        &self.key
    }

    /// Which way the refinement step went.
    pub fn dir(&self) -> RefineDir {
        self.dir
    }

    /// The parent's confusion counts.
    pub fn stats(&self) -> &MatchStats {
        &self.stats
    }

    /// The box every child in the handle's direction lies in
    /// ([`CountBox::refining`]).
    pub fn count_box(&self) -> CountBox {
        CountBox::refining(self.dir, &self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_arithmetic_covers_the_true_range() {
        let a = Interval::new(0.2, 0.8);
        let b = Interval::new(-1.0, 0.5);
        let s = a.add(b);
        assert_eq!((s.lo, s.hi), (-0.8, 1.3));
        let p = a.mul(b);
        assert!(p.lo <= -0.2 && p.hi >= 0.8 * 0.5);
        let n = a.scale(-2.0);
        assert_eq!((n.lo, n.hi), (-1.6, -0.4));
    }

    #[test]
    fn product_with_infinite_and_zero_widens_to_unknown() {
        let z = Interval::point(0.0);
        let u = Interval::UNKNOWN;
        let p = z.mul(u);
        assert_eq!(p, Interval::UNKNOWN);
    }

    #[test]
    fn division_respects_the_zero_denominator_convention() {
        let a = Interval::new(1.0, 2.0);
        // Strictly positive denominator: pointwise quotients.
        let q = a.div(Interval::new(0.5, 1.0));
        assert_eq!((q.lo, q.hi), (1.0, 4.0));
        // Exactly zero: eval clamps to 0.
        assert_eq!(a.div(Interval::point(0.0)), Interval::point(0.0));
        // Straddling zero: unbounded.
        assert_eq!(a.div(Interval::new(-1.0, 1.0)), Interval::UNKNOWN);
    }

    #[test]
    fn nan_endpoints_never_produce_a_finite_bound() {
        let nan = Interval::new(f64::NAN, f64::NAN);
        assert_eq!(nan.lo, f64::NEG_INFINITY);
        assert_eq!(nan.hi, f64::INFINITY);
    }

    fn stats(pos: usize, neg: usize) -> MatchStats {
        MatchStats {
            pos_matched: pos,
            pos_total: 6,
            neg_matched: neg,
            neg_total: 4,
        }
    }

    #[test]
    fn count_boxes_of_refinements_and_unions() {
        let s = stats(3, 1);
        let down = CountBox::refining(RefineDir::Specialize, &s);
        assert_eq!(
            (down.pos_lo, down.pos_hi, down.neg_lo, down.neg_hi),
            (0, 3, 0, 1)
        );
        let up = CountBox::refining(RefineDir::Generalize, &s);
        assert_eq!((up.pos_lo, up.pos_hi, up.neg_lo, up.neg_hi), (3, 6, 1, 4));
        let u = CountBox::union(&s, &stats(5, 3));
        assert_eq!((u.pos_lo, u.pos_hi, u.neg_lo, u.neg_hi), (5, 6, 3, 4));
        assert_eq!(
            CountBox::point(&s),
            CountBox {
                pos_lo: 3,
                neg_lo: 1,
                ..down
            }
        );
    }

    /// The budgets are the largest event counts that keep the bound at or
    /// above the floor: one more crosses it.
    #[test]
    fn cutoff_budgets_sit_just_before_the_floor() {
        // bound = matched positives possible − matched negatives certain.
        let bound = |b: &CountBox| b.pos_hi as f64 - b.neg_lo as f64;
        let start = CountBox::refining(RefineDir::Generalize, &stats(0, 0));
        assert_eq!(cutoff(&start, f64::NEG_INFINITY, bound), Some(Cutoff::NONE));
        assert_eq!(cutoff(&start, 6.5, bound), None, "already below the floor");
        let c = cutoff(&start, 3.0, bound).unwrap();
        assert_eq!((c.split, c.misses, c.hits), (6, 3, 3));
        let c = cutoff(&start, -10.0, bound).unwrap();
        assert_eq!(
            (c.misses, c.hits),
            (usize::MAX, usize::MAX),
            "never crosses"
        );
        for floor in [0.0, 1.0, 2.5, 5.0, 6.0] {
            let c = cutoff(&start, floor, bound).unwrap();
            let ok = |m: usize, h: usize| {
                bound(&CountBox {
                    pos_hi: 6 - m,
                    neg_lo: h,
                    ..start
                }) >= floor
            };
            assert!(c.misses == usize::MAX || (ok(c.misses, 0) && !ok(c.misses + 1, 0)));
            assert!(c.hits == usize::MAX || (ok(0, c.hits) && !ok(0, c.hits + 1)));
        }
    }
}

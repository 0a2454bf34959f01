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
//! 2. **Admissible bound pruning** — the same monotonicity bounds every
//!    criterion value any descendant can reach ([`Criterion::range_under`]),
//!    and interval evaluation of the Z expression
//!    ([`Scoring::optimistic_bound`]) turns those into a score no
//!    descendant can exceed. Children whose bound cannot beat the current
//!    selection floors are skipped before PerfectRef ever sees them.
//!
//! Both are *exact* accelerations: the engine falls back to a full
//! evaluation whenever the parent's entry is not cached (or compilation of
//! the parent failed), and pruning only ever drops candidates that are
//! provably outside the returned ranking, so the incremental path returns
//! byte-identical output to the baseline.

use crate::criteria::CriterionCtx;
use crate::explain::Explanation;
use crate::matcher::MatchStats;
use crate::score::Scoring;
use obx_query::OntoCq;

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

    /// Scaling by a constant: `k · [lo, hi]` (endpoints swap for `k < 0`).
    pub fn scale(self, k: f64) -> Interval {
        self.mul(Interval::point(k))
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
    num_atoms: usize,
    num_disjuncts: usize,
}

impl ParentHandle {
    /// Builds a handle from the parent's canonical key and match stats.
    pub fn new(dir: RefineDir, key: OntoCq, stats: MatchStats, num_atoms: usize) -> Self {
        ParentHandle {
            key: key.canonical(),
            dir,
            stats,
            num_atoms,
            num_disjuncts: 1,
        }
    }

    /// Builds a handle from a scored parent explanation, or `None` when
    /// the explanation is a union (see the type-level docs).
    pub fn from_explanation(dir: RefineDir, e: &Explanation) -> Option<Self> {
        match e.query.disjuncts() {
            [d] => Some(Self::new(dir, d.clone(), e.stats, d.num_atoms())),
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

    /// The best Z-score any refinement descendant of this parent can
    /// reach under `scoring`. Admissible: never less than the true score
    /// of any child, grandchild, … in the handle's direction.
    pub fn bound(&self, scoring: &Scoring) -> f64 {
        let ctx = CriterionCtx {
            stats: &self.stats,
            num_atoms: self.num_atoms,
            num_disjuncts: self.num_disjuncts,
        };
        scoring.optimistic_bound(self.dir, &ctx)
    }

    /// The best Z-score a *specific* child CQ with `child_atoms` body
    /// atoms can reach under `scoring` — [`ParentHandle::bound`] tightened
    /// with the child's known atom count: δ5 collapses to the exact value
    /// the scorer will compute (`score_cq_with_parent` scores the child
    /// with its own `num_atoms` and a single disjunct), δ6 to `1`. The
    /// label-criteria ranges still come from the parent's cached match
    /// statistics. Admissible for this child's own score, which is the
    /// only score batch pruning ever compares against its floors.
    pub fn bound_for(&self, scoring: &Scoring, child_atoms: usize) -> f64 {
        let ctx = CriterionCtx {
            stats: &self.stats,
            num_atoms: self.num_atoms,
            num_disjuncts: self.num_disjuncts,
        };
        scoring.optimistic_bound_for(self.dir, &ctx, child_atoms, 1)
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
}

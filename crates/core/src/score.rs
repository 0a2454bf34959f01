//! The expression `Z` and the Z-score `Z_F(q)` (§3).
//!
//! `Z` is "a mathematical expression having a variable `z_δ` for each
//! criterion δ ∈ Δ"; instantiating each `z_δ` with `f^{J,r}_{δ,λ}(q)`
//! yields the query's Z-score, and Definition 3.7 asks for a query
//! maximizing it. [`ScoreExpr`] is a small arithmetic AST over criterion
//! variables; [`Scoring`] pairs the criteria list with an expression.
//! The paper's Example 3.8 instantiation — the weighted average
//! `(α·z_{δ1} + β·z_{δ4} + γ·z_{δ5}) / (α+β+γ)` — has a dedicated
//! constructor.

use crate::criteria::{Criterion, CriterionCtx};
use crate::prune::{CountBox, Interval};
use std::fmt;
use std::str::FromStr;

/// The search objective: what "best explanation" means (ROADMAP 4(a),
/// after the QDEF approximations of Cima, Croce & Lenzerini 2021).
///
/// * [`ExplainMode::Fscore`] — the paper's Z-score ranking, unchanged.
/// * [`ExplainMode::Sound`] — prefer *sound* explanations (zero λ⁻
///   hits), then higher recall, then fewer atoms.
/// * [`ExplainMode::Complete`] — prefer *complete* explanations (every
///   λ⁺ tuple covered), then higher precision, then fewer atoms.
///
/// The lexicographic orders are encoded as single `f64` Z-scores (see
/// [`Scoring::sound`] / [`Scoring::complete`]), so ranking, pool floors,
/// and admissible bound pruning all run unmodified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExplainMode {
    /// Maximize the configured Z-score (the default; today's behavior).
    #[default]
    Fscore,
    /// Best sound explanation: (λ⁻ hits = 0, recall, parsimony).
    Sound,
    /// Best complete explanation: (λ⁺ misses = 0, precision, parsimony).
    Complete,
}

impl ExplainMode {
    /// Every mode, in wire order.
    pub const ALL: [ExplainMode; 3] = [
        ExplainMode::Fscore,
        ExplainMode::Sound,
        ExplainMode::Complete,
    ];

    /// The canonical lowercase name used on the CLI and the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            ExplainMode::Fscore => "fscore",
            ExplainMode::Sound => "sound",
            ExplainMode::Complete => "complete",
        }
    }
}

impl fmt::Display for ExplainMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for ExplainMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fscore" => Ok(ExplainMode::Fscore),
            "sound" => Ok(ExplainMode::Sound),
            "complete" => Ok(ExplainMode::Complete),
            other => Err(format!(
                "unknown mode '{other}' (expected fscore, sound, or complete)"
            )),
        }
    }
}

/// An arithmetic expression over criterion variables `z_δ`.
#[derive(Debug, Clone)]
pub enum ScoreExpr {
    /// `z_{Δ[i]}` — the value of the i-th criterion in the criteria list.
    Var(usize),
    /// A numeric constant.
    Const(f64),
    /// Sum of sub-expressions.
    Sum(Vec<ScoreExpr>),
    /// Product of sub-expressions.
    Product(Vec<ScoreExpr>),
    /// `k · e`.
    Scale(f64, Box<ScoreExpr>),
    /// `a / b` (0 when `b` is 0, keeping scores finite).
    Div(Box<ScoreExpr>, Box<ScoreExpr>),
    /// Minimum of sub-expressions (∞-identity: empty = +∞ clamped to 0).
    Min(Vec<ScoreExpr>),
    /// Maximum of sub-expressions (empty = 0).
    Max(Vec<ScoreExpr>),
}

impl ScoreExpr {
    /// Evaluates with `values[i]` bound to `Var(i)`.
    ///
    /// # Panics
    /// Panics if a `Var` index is out of range (a mis-built [`Scoring`]).
    pub fn eval(&self, values: &[f64]) -> f64 {
        match self {
            ScoreExpr::Var(i) => values[*i],
            ScoreExpr::Const(k) => *k,
            ScoreExpr::Sum(es) => es.iter().map(|e| e.eval(values)).sum(),
            ScoreExpr::Product(es) => es.iter().map(|e| e.eval(values)).product(),
            ScoreExpr::Scale(k, e) => k * e.eval(values),
            ScoreExpr::Div(a, b) => {
                let d = b.eval(values);
                if d == 0.0 {
                    0.0
                } else {
                    a.eval(values) / d
                }
            }
            ScoreExpr::Min(es) => es
                .iter()
                .map(|e| e.eval(values))
                .fold(f64::INFINITY, f64::min),
            ScoreExpr::Max(es) => es
                .iter()
                .map(|e| e.eval(values))
                .fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Interval extension of [`ScoreExpr::eval`]: with `ranges[i]`
    /// enclosing every value `Var(i)` can take, the result encloses every
    /// value the expression can take. Shares `eval`'s conventions (a zero
    /// denominator yields zero; empty `Min`/`Max` fold from ±∞), so the
    /// enclosure is sound for the engine's admissible bound pruning. `Z`
    /// itself need not be monotone in any criterion — interval arithmetic
    /// needs no such assumption.
    ///
    /// # Panics
    /// Panics if a `Var` index is out of range (a mis-built [`Scoring`]).
    pub fn eval_interval(&self, ranges: &[Interval]) -> Interval {
        match self {
            ScoreExpr::Var(i) => ranges[*i],
            ScoreExpr::Const(k) => Interval::point(*k),
            ScoreExpr::Sum(es) => es
                .iter()
                .map(|e| e.eval_interval(ranges))
                .fold(Interval::point(0.0), Interval::add),
            ScoreExpr::Product(es) => es
                .iter()
                .map(|e| e.eval_interval(ranges))
                .fold(Interval::point(1.0), Interval::mul),
            ScoreExpr::Scale(k, e) => e.eval_interval(ranges).scale(*k),
            ScoreExpr::Div(a, b) => a.eval_interval(ranges).div(b.eval_interval(ranges)),
            ScoreExpr::Min(es) => es
                .iter()
                .map(|e| e.eval_interval(ranges))
                .fold(Interval::point(f64::INFINITY), Interval::min_with),
            ScoreExpr::Max(es) => es
                .iter()
                .map(|e| e.eval_interval(ranges))
                .fold(Interval::point(f64::NEG_INFINITY), Interval::max_with),
        }
    }

    /// The weighted average `Σ wᵢ·zᵢ / Σ wᵢ` over the first `weights.len()`
    /// criteria — the paper's Example 3.8 expression.
    pub fn weighted_average(weights: &[f64]) -> ScoreExpr {
        let total: f64 = weights.iter().sum();
        let terms = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| ScoreExpr::Scale(w, Box::new(ScoreExpr::Var(i))))
            .collect();
        ScoreExpr::Scale(
            if total == 0.0 { 0.0 } else { 1.0 / total },
            Box::new(ScoreExpr::Sum(terms)),
        )
    }
}

/// A complete scoring configuration: the criteria `Δ` (with `F`) and `Z`.
#[derive(Debug, Clone)]
pub struct Scoring {
    criteria: Vec<Criterion>,
    expr: ScoreExpr,
}

impl Scoring {
    /// Builds a scoring configuration. `Var(i)` in `expr` refers to
    /// `criteria[i]`.
    pub fn new(criteria: Vec<Criterion>, expr: ScoreExpr) -> Self {
        Self { criteria, expr }
    }

    /// The paper's Example 3.8 setup: `Δ = {δ1, δ4, δ5}` with the weighted
    /// average `(α·z_{δ1} + β·z_{δ4} + γ·z_{δ5})/(α+β+γ)`.
    pub fn paper_weighted(alpha: f64, beta: f64, gamma: f64) -> Self {
        Self::new(
            vec![
                Criterion::PosCoverage,
                Criterion::NegHitPenalty,
                Criterion::AtomParsimony,
            ],
            ScoreExpr::weighted_average(&[alpha, beta, gamma]),
        )
    }

    /// A balanced default for search experiments: coverage, avoidance,
    /// and both parsimony criteria, equally weighted.
    pub fn balanced() -> Self {
        Self::new(
            vec![
                Criterion::PosCoverage,
                Criterion::NegHitPenalty,
                Criterion::AtomParsimony,
                Criterion::DisjunctParsimony,
            ],
            ScoreExpr::weighted_average(&[1.0, 1.0, 1.0, 1.0]),
        )
    }

    /// An accuracy-focused scoring (coverage and avoidance only), used
    /// when fidelity to λ matters more than parsimony (experiment E5).
    pub fn accuracy() -> Self {
        Self::new(
            vec![Criterion::PosCoverage, Criterion::NegHitPenalty],
            ScoreExpr::weighted_average(&[1.0, 1.0]),
        )
    }

    /// The best-*sound* objective (QDEF approximation): lexicographic
    /// (λ⁻ hits = 0, then recall, then fewer atoms), encoded as the single
    /// score `Z = 2·z_δS + z_δ1 + ε·z_δ5` with `ε = 0.5 / max(|λ⁺|, 1)`.
    ///
    /// The encoding is exact, not heuristic: recall values are quantized
    /// to multiples of `1/|λ⁺|`, so two candidates with different recall
    /// differ by at least `1/|λ⁺|` in `z_δ1`, while the parsimony term
    /// contributes at most `ε = 0.5/|λ⁺|` — it can break recall ties but
    /// never flip a recall comparison. Likewise the indicator's weight 2
    /// exceeds the secondary terms' maximum `1 + ε ≤ 1.5`, so any sound
    /// candidate outranks every unsound one. All criteria carry real
    /// [`Criterion::range_over`] intervals, so bound pruning keeps
    /// firing (an unsound parent's generalize-cone is dead on arrival).
    pub fn sound(pos_total: usize) -> Self {
        let eps = 0.5 / pos_total.max(1) as f64;
        Self::new(
            vec![
                Criterion::SoundIndicator,
                Criterion::PosCoverage,
                Criterion::AtomParsimony,
            ],
            ScoreExpr::Sum(vec![
                ScoreExpr::Scale(2.0, Box::new(ScoreExpr::Var(0))),
                ScoreExpr::Var(1),
                ScoreExpr::Scale(eps, Box::new(ScoreExpr::Var(2))),
            ]),
        )
    }

    /// The best-*complete* objective (QDEF approximation): lexicographic
    /// (λ⁺ misses = 0, then precision, then fewer atoms), encoded as
    /// `Z = 2·z_δC + z_δP + ε·z_δ5` with `ε = 0.5 / max(|λ⁺|+|λ⁻|, 1)²`.
    ///
    /// Distinct precisions are ratios `p/(p+n)` with denominators at most
    /// `|λ⁺|+|λ⁻|`, so they differ by at least `1/(|λ⁺|+|λ⁻|)²`; the
    /// parsimony term stays strictly below that, and the indicator weight
    /// strictly above the rest, making the encoding lexicographically
    /// exact (see [`Scoring::sound`]).
    pub fn complete(pos_total: usize, neg_total: usize) -> Self {
        let denom = (pos_total + neg_total).max(1) as f64;
        let eps = 0.5 / (denom * denom);
        Self::new(
            vec![
                Criterion::CompleteIndicator,
                Criterion::Precision,
                Criterion::AtomParsimony,
            ],
            ScoreExpr::Sum(vec![
                ScoreExpr::Scale(2.0, Box::new(ScoreExpr::Var(0))),
                ScoreExpr::Var(1),
                ScoreExpr::Scale(eps, Box::new(ScoreExpr::Var(2))),
            ]),
        )
    }

    /// The mode-appropriate scoring: [`Scoring::sound`] /
    /// [`Scoring::complete`] sized to the label sets, or `fscore()` for
    /// [`ExplainMode::Fscore`].
    pub fn for_mode(
        mode: ExplainMode,
        fscore: impl FnOnce() -> Scoring,
        pos_total: usize,
        neg_total: usize,
    ) -> Self {
        match mode {
            ExplainMode::Fscore => fscore(),
            ExplainMode::Sound => Self::sound(pos_total),
            ExplainMode::Complete => Self::complete(pos_total, neg_total),
        }
    }

    /// The criteria `Δ`.
    pub fn criteria(&self) -> &[Criterion] {
        &self.criteria
    }

    /// The expression `Z`.
    pub fn expr(&self) -> &ScoreExpr {
        &self.expr
    }

    /// Per-criterion values `f_δ(q)` for a candidate.
    pub fn values(&self, ctx: &CriterionCtx<'_>) -> Vec<f64> {
        self.criteria.iter().map(|c| c.value(ctx)).collect()
    }

    /// The Z-score `Z_F(q)`.
    pub fn score(&self, ctx: &CriterionCtx<'_>) -> f64 {
        self.expr.eval(&self.values(ctx))
    }

    /// The enclosure of `Z` over per-criterion value ranges (one per
    /// criterion, in the criteria's order).
    pub fn range(&self, ranges: &[Interval]) -> Interval {
        self.expr.eval_interval(ranges)
    }

    /// The best Z-score any candidate with match counts in `b` and shape
    /// `num_atoms` / `num_disjuncts` can reach: [`Criterion::range_over`]
    /// per criterion, then [`ScoreExpr::eval_interval`] over `Z`. An
    /// admissible upper bound, and `+∞` (never prunes) whenever a
    /// [`Criterion::Custom`] appears in the criteria. A smaller box never
    /// gets a larger bound, which is what lets an evaluation stop on a
    /// precomputed budget (`prune::cutoff`).
    pub fn bound_over(&self, b: &CountBox, num_atoms: usize, num_disjuncts: usize) -> f64 {
        // An evaluation's cutoff takes a few dozen bounds, so the usual
        // handful of criteria stay off the heap.
        const INLINE: usize = 8;
        let range = |c: &Criterion| c.range_over(b, num_atoms, num_disjuncts);
        let n = self.criteria.len();
        if n <= INLINE {
            let mut ranges = [Interval::UNKNOWN; INLINE];
            for (r, c) in ranges.iter_mut().zip(&self.criteria) {
                *r = range(c);
            }
            self.expr.eval_interval(&ranges[..n]).hi
        } else {
            let ranges: Vec<Interval> = self.criteria.iter().map(range).collect();
            self.expr.eval_interval(&ranges).hi
        }
    }
}

impl fmt::Display for Scoring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Z over {{{}}}",
            self.criteria
                .iter()
                .map(Criterion::name)
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::MatchStats;

    fn q_ctx(stats: &MatchStats, atoms: usize) -> CriterionCtx<'_> {
        CriterionCtx {
            stats,
            num_atoms: atoms,
            num_disjuncts: 1,
        }
    }

    /// The exact numbers of the paper's Example 3.8 (up to its erratum on
    /// Z1(q2); see EXPERIMENTS.md).
    #[test]
    fn example_3_8_scores() {
        let s1 = MatchStats {
            pos_matched: 3,
            pos_total: 4,
            neg_matched: 0,
            neg_total: 1,
        };
        let s2 = MatchStats {
            pos_matched: 2,
            pos_total: 4,
            neg_matched: 1,
            neg_total: 1,
        };
        let s3 = MatchStats {
            pos_matched: 2,
            pos_total: 4,
            neg_matched: 0,
            neg_total: 1,
        };
        let z1 = Scoring::paper_weighted(1.0, 1.0, 1.0);
        let z2 = Scoring::paper_weighted(3.0, 1.0, 1.0);

        let z1_q1 = z1.score(&q_ctx(&s1, 3));
        let z1_q2 = z1.score(&q_ctx(&s2, 1));
        let z1_q3 = z1.score(&q_ctx(&s3, 1));
        assert!((z1_q1 - 0.6944).abs() < 1e-3, "paper prints 0.693: {z1_q1}");
        assert!((z1_q3 - 0.8333).abs() < 1e-3, "paper prints 0.833: {z1_q3}");
        // The paper prints 0.333 for Z1(q2); with its own F the value is
        // (0.5 + 0 + 1)/3 = 0.5 — see the erratum note. Either way q3 wins.
        assert!((z1_q2 - 0.5).abs() < 1e-12);
        assert!(z1_q3 > z1_q1 && z1_q1 > z1_q2, "winner under Z1 is q3");

        let z2_q1 = z2.score(&q_ctx(&s1, 3));
        let z2_q2 = z2.score(&q_ctx(&s2, 1));
        let z2_q3 = z2.score(&q_ctx(&s3, 1));
        assert!((z2_q1 - 0.7166).abs() < 1e-3, "paper prints 0.716: {z2_q1}");
        assert!((z2_q2 - 0.5).abs() < 1e-12, "paper prints 0.5");
        assert!((z2_q3 - 0.7).abs() < 1e-12, "paper prints 0.7");
        assert!(z2_q1 > z2_q3 && z2_q3 > z2_q2, "winner under Z2 is q1");
    }

    #[test]
    fn weighted_average_normalizes() {
        let e = ScoreExpr::weighted_average(&[2.0, 2.0]);
        assert!((e.eval(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
        assert!((e.eval(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        // Zero total weight yields 0, not NaN.
        let z = ScoreExpr::weighted_average(&[0.0, 0.0]);
        assert_eq!(z.eval(&[1.0, 1.0]), 0.0);
    }

    #[test]
    fn expression_algebra() {
        let vals = [0.25, 0.5];
        assert_eq!(ScoreExpr::Const(3.0).eval(&vals), 3.0);
        assert_eq!(
            ScoreExpr::Sum(vec![ScoreExpr::Var(0), ScoreExpr::Var(1)]).eval(&vals),
            0.75
        );
        assert_eq!(
            ScoreExpr::Product(vec![ScoreExpr::Var(0), ScoreExpr::Var(1)]).eval(&vals),
            0.125
        );
        assert_eq!(
            ScoreExpr::Div(Box::new(ScoreExpr::Var(1)), Box::new(ScoreExpr::Var(0))).eval(&vals),
            2.0
        );
        assert_eq!(
            ScoreExpr::Div(Box::new(ScoreExpr::Var(1)), Box::new(ScoreExpr::Const(0.0)))
                .eval(&vals),
            0.0,
            "division by zero clamps to 0"
        );
        assert_eq!(
            ScoreExpr::Min(vec![ScoreExpr::Var(0), ScoreExpr::Var(1)]).eval(&vals),
            0.25
        );
        assert_eq!(
            ScoreExpr::Max(vec![ScoreExpr::Var(0), ScoreExpr::Var(1)]).eval(&vals),
            0.5
        );
    }

    #[test]
    fn product_expressions_enforce_hard_constraints() {
        // Z = z_δ4 × average(z_δ1, z_δ5): any λ⁻ hit zeroes the score.
        let z = Scoring::new(
            vec![
                Criterion::NegHitPenalty,
                Criterion::PosCoverage,
                Criterion::AtomParsimony,
            ],
            ScoreExpr::Product(vec![
                ScoreExpr::Var(0),
                ScoreExpr::Scale(
                    0.5,
                    Box::new(ScoreExpr::Sum(vec![ScoreExpr::Var(1), ScoreExpr::Var(2)])),
                ),
            ]),
        );
        let bad = MatchStats {
            pos_matched: 4,
            pos_total: 4,
            neg_matched: 1,
            neg_total: 1,
        };
        assert_eq!(z.score(&q_ctx(&bad, 1)), 0.0);
        let good = MatchStats {
            pos_matched: 4,
            pos_total: 4,
            neg_matched: 0,
            neg_total: 1,
        };
        assert_eq!(z.score(&q_ctx(&good, 1)), 1.0);
    }

    #[test]
    fn display_lists_criteria() {
        let z = Scoring::paper_weighted(1.0, 1.0, 1.0);
        assert_eq!(format!("{z}"), "Z over {δ1, δ4, δ5}");
    }

    #[test]
    fn eval_interval_encloses_pointwise_eval() {
        use crate::prune::Interval;
        // Exercise every AST node against a grid of points inside the
        // variable ranges: the interval must contain each point value.
        let exprs = vec![
            ScoreExpr::weighted_average(&[3.0, 1.0]),
            ScoreExpr::Product(vec![ScoreExpr::Var(0), ScoreExpr::Var(1)]),
            ScoreExpr::Div(Box::new(ScoreExpr::Var(0)), Box::new(ScoreExpr::Var(1))),
            ScoreExpr::Min(vec![ScoreExpr::Var(0), ScoreExpr::Const(0.4)]),
            ScoreExpr::Max(vec![
                ScoreExpr::Var(1),
                ScoreExpr::Scale(-1.0, Box::new(ScoreExpr::Var(0))),
            ]),
            ScoreExpr::Sum(vec![
                ScoreExpr::Var(0),
                ScoreExpr::Scale(0.5, Box::new(ScoreExpr::Var(1))),
            ]),
        ];
        let r0 = Interval::new(0.1, 0.9);
        let r1 = Interval::new(0.25, 0.75);
        for e in &exprs {
            let enc = e.eval_interval(&[r0, r1]);
            for i in 0..=8 {
                for j in 0..=8 {
                    let v0 = r0.lo + (r0.hi - r0.lo) * i as f64 / 8.0;
                    let v1 = r1.lo + (r1.hi - r1.lo) * j as f64 / 8.0;
                    let v = e.eval(&[v0, v1]);
                    assert!(
                        enc.contains(v),
                        "{e:?} at ({v0}, {v1}) = {v} escapes [{}, {}]",
                        enc.lo,
                        enc.hi
                    );
                }
            }
        }
        // Empty Min/Max keep eval's ±∞ identities.
        assert_eq!(
            ScoreExpr::Min(vec![]).eval_interval(&[]),
            Interval::point(f64::INFINITY)
        );
        assert_eq!(
            ScoreExpr::Max(vec![]).eval_interval(&[]),
            Interval::point(f64::NEG_INFINITY)
        );
    }

    /// Every point inside a random count box scores at most the box's
    /// bound under each built-in scoring — exactly, with no tolerance,
    /// since the engine cuts with a strict `<` — and a custom criterion
    /// disables the bound.
    mod bound_over {
        use super::*;
        use crate::prune::CountBox;
        use proptest::prelude::*;

        fn scorings(pos_total: usize, neg_total: usize) -> Vec<Scoring> {
            vec![
                Scoring::paper_weighted(1.0, 1.0, 1.0),
                Scoring::paper_weighted(3.0, 1.0, 1.0),
                Scoring::balanced(),
                Scoring::accuracy(),
                Scoring::sound(pos_total),
                Scoring::complete(pos_total, neg_total),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 256 })]

            #[test]
            fn every_point_in_a_box_scores_at_most_its_bound(
                pos_total in 0usize..9,
                neg_total in 0usize..9,
                pos in (0usize..9, 0usize..9),
                neg in (0usize..9, 0usize..9),
                atoms in 1usize..5,
                disjuncts in 1usize..4,
            ) {
                let ends = |(a, b): (usize, usize), total: usize| {
                    let (a, b) = (a.min(total), b.min(total));
                    (a.min(b), a.max(b))
                };
                let (pos_lo, pos_hi) = ends(pos, pos_total);
                let (neg_lo, neg_hi) = ends(neg, neg_total);
                let b = CountBox { pos_lo, pos_hi, pos_total, neg_lo, neg_hi, neg_total };
                for scoring in scorings(pos_total, neg_total) {
                    let bound = scoring.bound_over(&b, atoms, disjuncts);
                    for p in pos_lo..=pos_hi {
                        for n in neg_lo..=neg_hi {
                            let stats = MatchStats {
                                pos_matched: p,
                                pos_total,
                                neg_matched: n,
                                neg_total,
                            };
                            let ctx = CriterionCtx { stats: &stats, num_atoms: atoms, num_disjuncts: disjuncts };
                            let z = scoring.score(&ctx);
                            prop_assert!(z <= bound, "{} at ({}, {}) scores {} > bound {} of {:?}", scoring, p, n, z, bound, b);
                        }
                    }
                }
            }
        }

        #[test]
        fn custom_criteria_disable_the_bound() {
            let opaque = Scoring::new(
                vec![Criterion::Custom {
                    name: "opaque",
                    f: std::sync::Arc::new(|_| 0.5),
                }],
                ScoreExpr::Var(0),
            );
            let stats = MatchStats {
                pos_matched: 1,
                pos_total: 2,
                neg_matched: 0,
                neg_total: 1,
            };
            assert_eq!(
                opaque.bound_over(&CountBox::point(&stats), 1, 1),
                f64::INFINITY
            );
        }

        #[test]
        fn a_smaller_box_never_bounds_higher() {
            let parent = MatchStats {
                pos_matched: 3,
                pos_total: 5,
                neg_matched: 2,
                neg_total: 4,
            };
            let outer = CountBox::refining(crate::prune::RefineDir::Specialize, &parent);
            for scoring in scorings(5, 4) {
                for pos_hi in 0..=outer.pos_hi {
                    for neg_lo in 0..=outer.neg_hi {
                        let inner = CountBox {
                            pos_hi,
                            neg_lo,
                            ..outer
                        };
                        assert!(
                            scoring.bound_over(&inner, 2, 1) <= scoring.bound_over(&outer, 2, 1)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn explain_mode_round_trips_and_rejects_garbage() {
        for mode in ExplainMode::ALL {
            assert_eq!(mode.as_str().parse::<ExplainMode>(), Ok(mode));
            assert_eq!(format!("{mode}").parse::<ExplainMode>(), Ok(mode));
        }
        assert_eq!(ExplainMode::default(), ExplainMode::Fscore);
        assert!("precise".parse::<ExplainMode>().is_err());
        assert!(
            "SOUND".parse::<ExplainMode>().is_err(),
            "names are lowercase"
        );
    }

    /// The scalar encodings implement the lexicographic orders *exactly*:
    /// enumerating every (pos, neg, atoms) candidate shape over small
    /// label sets, the f64 comparison must agree with the explicit
    /// lexicographic triple comparison.
    #[test]
    fn mode_scores_are_lexicographic() {
        let (pos_total, neg_total) = (7usize, 5usize);
        let sound = Scoring::sound(pos_total);
        let complete = Scoring::complete(pos_total, neg_total);
        let mut candidates = Vec::new();
        for pos in 0..=pos_total {
            for neg in 0..=neg_total {
                for atoms in 1..=3 {
                    let stats = MatchStats {
                        pos_matched: pos,
                        pos_total,
                        neg_matched: neg,
                        neg_total,
                    };
                    candidates.push((stats, atoms));
                }
            }
        }
        for (sa, atoms_a) in &candidates {
            for (sb, atoms_b) in &candidates {
                let ctx_a = q_ctx(sa, *atoms_a);
                let ctx_b = q_ctx(sb, *atoms_b);
                // Sound: (neg_matched == 0, recall, 1/atoms) descending.
                let key = |s: &MatchStats, atoms: usize| {
                    (
                        (s.neg_matched == 0) as u32,
                        s.pos_matched,
                        std::cmp::Reverse(atoms),
                    )
                };
                let (za, zb) = (sound.score(&ctx_a), sound.score(&ctx_b));
                match key(sa, *atoms_a).cmp(&key(sb, *atoms_b)) {
                    std::cmp::Ordering::Less => assert!(za < zb),
                    std::cmp::Ordering::Equal => assert!((za - zb).abs() < 1e-12),
                    std::cmp::Ordering::Greater => assert!(za > zb),
                }
                // Complete: (pos_matched == total, precision, 1/atoms).
                // Compare precisions as cross-multiplied integers to keep
                // the reference order exact.
                let ckey = |s: &MatchStats| (s.pos_matched == s.pos_total) as u32;
                let (pa, na) = (sa.pos_matched as u64, sa.neg_matched as u64);
                let (pb, nb) = (sb.pos_matched as u64, sb.neg_matched as u64);
                // p_a/(p_a+n_a) vs p_b/(p_b+n_b), 0/0 ↦ 0.
                let lhs = if pa + na == 0 {
                    0
                } else {
                    pa * (pb + nb).max(1)
                };
                let rhs = if pb + nb == 0 {
                    0
                } else {
                    pb * (pa + na).max(1)
                };
                let cmp = ckey(sa)
                    .cmp(&ckey(sb))
                    .then(lhs.cmp(&rhs))
                    .then(atoms_b.cmp(atoms_a));
                let (za, zb) = (complete.score(&ctx_a), complete.score(&ctx_b));
                match cmp {
                    std::cmp::Ordering::Less => assert!(
                        za < zb,
                        "{sa:?}/{atoms_a} vs {sb:?}/{atoms_b}: {za} !< {zb}"
                    ),
                    std::cmp::Ordering::Equal => assert!((za - zb).abs() < 1e-12),
                    std::cmp::Ordering::Greater => assert!(
                        za > zb,
                        "{sa:?}/{atoms_a} vs {sb:?}/{atoms_b}: {za} !> {zb}"
                    ),
                }
            }
        }
    }
}

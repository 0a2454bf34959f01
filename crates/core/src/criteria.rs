//! The criteria set `Δ` and its functions `F` (§3 of the paper).
//!
//! Each criterion `δ ∈ Δ` comes with a function `f^{J,r}_{δ,λ}(q)` scoring
//! how well `q` meets `δ`; all functions share the codomain `[0, 1]` ("we
//! can obviously consider all such functions to have the same range"). The
//! paper lists δ1–δ4 (coverage of λ⁺ / avoidance of λ⁻) plus the
//! language-dependent δ5 (few atoms, for CQs) and δ6 (few disjuncts, for
//! UCQs); arbitrary additional criteria plug in through
//! [`Criterion::Custom`].

use crate::matcher::MatchStats;
use crate::prune::{CountBox, Interval};
use std::fmt;
use std::sync::Arc;

/// Everything a criterion function may inspect about a candidate query.
#[derive(Debug, Clone, Copy)]
pub struct CriterionCtx<'a> {
    /// Match statistics of the query against λ (w.r.t. Σ and radius r).
    pub stats: &'a MatchStats,
    /// Total number of body atoms across disjuncts (δ5 measures this).
    pub num_atoms: usize,
    /// Number of UCQ disjuncts (δ6 measures this; 1 for a CQ).
    pub num_disjuncts: usize,
}

/// A criterion `δ` with its scoring function `f_δ`.
#[derive(Clone)]
pub enum Criterion {
    /// δ1: "are there many tuples of λ⁺ that `q` J-matches?" —
    /// `f = |matched⁺| / |λ⁺|`.
    PosCoverage,
    /// δ2: "are there few tuples of λ⁺ that `q` does **not** J-match?" —
    /// `f = 1 − |unmatched⁺| / |λ⁺|` (extensionally equal to δ1; kept
    /// separate for fidelity to the paper's list).
    PosMissPenalty,
    /// δ3: "are there many tuples of λ⁻ that `q` does not J-match?" —
    /// `f = |unmatched⁻| / |λ⁻|`.
    NegAvoidance,
    /// δ4: "are there few tuples of λ⁻ that `q` J-matches?" —
    /// `f = 1 − |matched⁻| / |λ⁻|` (the paper's `f_{δ4}`).
    NegHitPenalty,
    /// δ5: "are there few atoms used by the query?" — `f = 1 / #atoms`.
    AtomParsimony,
    /// δ6: "are there few disjuncts used by the query?" —
    /// `f = 1 / #disjuncts`.
    DisjunctParsimony,
    /// δS: the *soundness* indicator of the QDEF approximations (Cima,
    /// Croce, Lenzerini 2021) — `f = 1` iff the query J-matches **no**
    /// tuple of λ⁻ (it is precision-perfect), else `0`.
    SoundIndicator,
    /// δC: the *completeness* indicator — `f = 1` iff the query J-matches
    /// **every** tuple of λ⁺ (it is recall-perfect), else `0`.
    CompleteIndicator,
    /// δP: precision `|matched⁺| / (|matched⁺| + |matched⁻|)` (0 when the
    /// query matches nothing), the tie-breaker of complete mode.
    Precision,
    /// A user-supplied criterion (must map into `[0, 1]` like the rest).
    Custom {
        /// Short name shown in reports.
        name: &'static str,
        /// The scoring function.
        f: Arc<dyn Fn(&CriterionCtx<'_>) -> f64 + Send + Sync>,
    },
}

impl Criterion {
    /// A short identifier (`δ1` … `δ6`, or the custom name).
    pub fn name(&self) -> &str {
        match self {
            Criterion::PosCoverage => "δ1",
            Criterion::PosMissPenalty => "δ2",
            Criterion::NegAvoidance => "δ3",
            Criterion::NegHitPenalty => "δ4",
            Criterion::AtomParsimony => "δ5",
            Criterion::DisjunctParsimony => "δ6",
            Criterion::SoundIndicator => "δS",
            Criterion::CompleteIndicator => "δC",
            Criterion::Precision => "δP",
            Criterion::Custom { name, .. } => name,
        }
    }

    /// Evaluates `f_δ` on a candidate. All built-ins return values in
    /// `[0, 1]`; empty λ⁺/λ⁻ degrade gracefully (coverage of an empty set
    /// is 0, avoidance of an empty set is 1).
    pub fn value(&self, ctx: &CriterionCtx<'_>) -> f64 {
        let s = ctx.stats;
        match self {
            Criterion::PosCoverage | Criterion::PosMissPenalty => s.pos_fraction(),
            Criterion::NegAvoidance | Criterion::NegHitPenalty => 1.0 - s.neg_fraction(),
            Criterion::AtomParsimony => {
                if ctx.num_atoms == 0 {
                    0.0
                } else {
                    1.0 / ctx.num_atoms as f64
                }
            }
            Criterion::DisjunctParsimony => {
                if ctx.num_disjuncts == 0 {
                    0.0
                } else {
                    1.0 / ctx.num_disjuncts as f64
                }
            }
            Criterion::SoundIndicator => {
                if s.neg_matched == 0 {
                    1.0
                } else {
                    0.0
                }
            }
            Criterion::CompleteIndicator => {
                if s.pos_matched == s.pos_total {
                    1.0
                } else {
                    0.0
                }
            }
            Criterion::Precision => s.precision(),
            Criterion::Custom { f, .. } => f(ctx),
        }
    }

    /// The range of values `f_δ` can take over every candidate whose match
    /// counts lie in `b` and whose shape is `num_atoms` body atoms in
    /// `num_disjuncts` disjuncts — the one bound every pruning decision
    /// goes through (a refinement parent's box, a union's box, or the box
    /// an evaluation has narrowed so far; see [`CountBox`]).
    ///
    /// Coverage is monotone in the matched positives and avoidance in the
    /// matched negatives, so their ranges are the box's ends; δ5/δ6 are
    /// the candidate's exact point values; the indicators are pinned as
    /// soon as the box decides them; precision `p/(p+n)` rises in `p` and
    /// falls in `n`, so it is extremized at the box's corners (0/0 ↦ 0,
    /// as in the point evaluation). [`Criterion::Custom`] has no structure
    /// the engine can trust and yields [`Interval::UNKNOWN`], which
    /// disables bound pruning for any scoring that uses it (delta
    /// evaluation still applies).
    pub fn range_over(&self, b: &CountBox, num_atoms: usize, num_disjuncts: usize) -> Interval {
        let frac = |num: usize, den: usize| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let recip = |n: usize| Interval::point(if n == 0 { 0.0 } else { 1.0 / n as f64 });
        let pin = |v: bool| Interval::point(if v { 1.0 } else { 0.0 });
        match self {
            Criterion::PosCoverage | Criterion::PosMissPenalty => {
                Interval::new(frac(b.pos_lo, b.pos_total), frac(b.pos_hi, b.pos_total))
            }
            Criterion::NegAvoidance | Criterion::NegHitPenalty => Interval::new(
                1.0 - frac(b.neg_hi, b.neg_total),
                1.0 - frac(b.neg_lo, b.neg_total),
            ),
            Criterion::AtomParsimony => recip(num_atoms),
            Criterion::DisjunctParsimony => recip(num_disjuncts),
            Criterion::SoundIndicator if b.neg_hi == 0 || b.neg_lo > 0 => pin(b.neg_hi == 0),
            Criterion::CompleteIndicator if b.pos_lo == b.pos_total || b.pos_hi < b.pos_total => {
                pin(b.pos_lo == b.pos_total)
            }
            Criterion::SoundIndicator | Criterion::CompleteIndicator => Interval::new(0.0, 1.0),
            Criterion::Precision => Interval::new(
                frac(b.pos_lo, b.pos_lo + b.neg_hi),
                frac(b.pos_hi, b.pos_hi + b.neg_lo),
            ),
            Criterion::Custom { .. } => Interval::UNKNOWN,
        }
    }
}

impl fmt::Debug for Criterion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Criterion({})", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(stats: &MatchStats, atoms: usize, disjuncts: usize) -> CriterionCtx<'_> {
        CriterionCtx {
            stats,
            num_atoms: atoms,
            num_disjuncts: disjuncts,
        }
    }

    #[test]
    fn paper_example_3_8_values() {
        // q1: 3/4 of λ⁺, 0 of λ⁻, 3 atoms.
        let s1 = MatchStats {
            pos_matched: 3,
            pos_total: 4,
            neg_matched: 0,
            neg_total: 1,
        };
        let c1 = ctx(&s1, 3, 1);
        assert!((Criterion::PosCoverage.value(&c1) - 0.75).abs() < 1e-12);
        assert!((Criterion::NegHitPenalty.value(&c1) - 1.0).abs() < 1e-12);
        assert!((Criterion::AtomParsimony.value(&c1) - 1.0 / 3.0).abs() < 1e-12);
        // q2: 2/4 of λ⁺, all of λ⁻, 1 atom.
        let s2 = MatchStats {
            pos_matched: 2,
            pos_total: 4,
            neg_matched: 1,
            neg_total: 1,
        };
        let c2 = ctx(&s2, 1, 1);
        assert!((Criterion::PosCoverage.value(&c2) - 0.5).abs() < 1e-12);
        assert!((Criterion::NegHitPenalty.value(&c2) - 0.0).abs() < 1e-12);
        assert!((Criterion::AtomParsimony.value(&c2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn delta2_equals_delta1_and_delta3_equals_delta4() {
        let s = MatchStats {
            pos_matched: 1,
            pos_total: 3,
            neg_matched: 2,
            neg_total: 5,
        };
        let c = ctx(&s, 2, 1);
        assert_eq!(
            Criterion::PosCoverage.value(&c),
            Criterion::PosMissPenalty.value(&c)
        );
        assert_eq!(
            Criterion::NegAvoidance.value(&c),
            Criterion::NegHitPenalty.value(&c)
        );
    }

    #[test]
    fn empty_label_sets_degrade() {
        let s = MatchStats::default();
        let c = ctx(&s, 1, 1);
        assert_eq!(Criterion::PosCoverage.value(&c), 0.0);
        assert_eq!(Criterion::NegHitPenalty.value(&c), 1.0);
    }

    #[test]
    fn parsimony_guards_against_zero() {
        let s = MatchStats::default();
        assert_eq!(Criterion::AtomParsimony.value(&ctx(&s, 0, 0)), 0.0);
        assert_eq!(Criterion::DisjunctParsimony.value(&ctx(&s, 0, 0)), 0.0);
        assert_eq!(Criterion::DisjunctParsimony.value(&ctx(&s, 4, 2)), 0.5);
    }

    #[test]
    fn custom_criterion() {
        let s = MatchStats {
            pos_matched: 4,
            pos_total: 4,
            neg_matched: 0,
            neg_total: 2,
        };
        let perfect = Criterion::Custom {
            name: "perfect-separation",
            f: Arc::new(|ctx| if ctx.stats.perfect() { 1.0 } else { 0.0 }),
        };
        assert_eq!(perfect.value(&ctx(&s, 2, 1)), 1.0);
        assert_eq!(perfect.name(), "perfect-separation");
        assert!(format!("{perfect:?}").contains("perfect-separation"));
    }

    #[test]
    fn range_over_contains_every_value_in_the_box() {
        use crate::prune::RefineDir;
        let parent = MatchStats {
            pos_matched: 3,
            pos_total: 4,
            neg_matched: 1,
            neg_total: 2,
        };
        let built_ins = [
            Criterion::PosCoverage,
            Criterion::PosMissPenalty,
            Criterion::NegAvoidance,
            Criterion::NegHitPenalty,
            Criterion::AtomParsimony,
            Criterion::DisjunctParsimony,
            Criterion::SoundIndicator,
            Criterion::CompleteIndicator,
            Criterion::Precision,
        ];
        for dir in [RefineDir::Specialize, RefineDir::Generalize] {
            let b = CountBox::refining(dir, &parent);
            for pos in b.pos_lo..=b.pos_hi {
                for neg in b.neg_lo..=b.neg_hi {
                    let child = MatchStats {
                        pos_matched: pos,
                        neg_matched: neg,
                        ..parent
                    };
                    for atoms in 1..=4 {
                        let cctx = ctx(&child, atoms, 1);
                        for c in &built_ins {
                            let r = c.range_over(&b, atoms, 1);
                            assert!(
                                r.contains(c.value(&cctx)),
                                "{dir:?}: {} value {} outside [{}, {}]",
                                c.name(),
                                c.value(&cctx),
                                r.lo,
                                r.hi
                            );
                        }
                    }
                }
            }
        }
        // Custom criteria carry no structure: the range is unbounded.
        let custom = Criterion::Custom {
            name: "opaque",
            f: Arc::new(|_| 0.5),
        };
        assert_eq!(
            custom.range_over(&CountBox::point(&parent), 1, 1),
            Interval::UNKNOWN
        );
    }

    #[test]
    fn mode_indicators_and_precision_values() {
        let sound = MatchStats {
            pos_matched: 2,
            pos_total: 4,
            neg_matched: 0,
            neg_total: 3,
        };
        let complete = MatchStats {
            pos_matched: 4,
            pos_total: 4,
            neg_matched: 2,
            neg_total: 3,
        };
        let c_sound = ctx(&sound, 2, 1);
        let c_complete = ctx(&complete, 2, 1);
        assert_eq!(Criterion::SoundIndicator.value(&c_sound), 1.0);
        assert_eq!(Criterion::SoundIndicator.value(&c_complete), 0.0);
        assert_eq!(Criterion::CompleteIndicator.value(&c_sound), 0.0);
        assert_eq!(Criterion::CompleteIndicator.value(&c_complete), 1.0);
        assert_eq!(Criterion::Precision.value(&c_sound), 1.0);
        assert!((Criterion::Precision.value(&c_complete) - 4.0 / 6.0).abs() < 1e-12);
        // A matchless query has precision 0 by convention.
        let nothing = MatchStats {
            pos_matched: 0,
            pos_total: 4,
            neg_matched: 0,
            neg_total: 3,
        };
        assert_eq!(Criterion::Precision.value(&ctx(&nothing, 1, 1)), 0.0);
        // ... and is vacuously sound.
        assert_eq!(Criterion::SoundIndicator.value(&ctx(&nothing, 1, 1)), 1.0);
    }

    #[test]
    fn mode_indicator_ranges_pin_dead_branches() {
        use crate::prune::RefineDir;
        let under =
            |c: &Criterion, dir, s: &MatchStats| c.range_over(&CountBox::refining(dir, s), 2, 1);
        // An unsound parent kills every generalize-descendant in sound
        // mode (δS pinned to 0)...
        let unsound = MatchStats {
            pos_matched: 2,
            pos_total: 4,
            neg_matched: 1,
            neg_total: 3,
        };
        assert_eq!(
            under(&Criterion::SoundIndicator, RefineDir::Generalize, &unsound),
            Interval::point(0.0)
        );
        // ...while a sound parent pins every specialize-descendant sound.
        let sound = MatchStats {
            neg_matched: 0,
            ..unsound
        };
        assert_eq!(
            under(&Criterion::SoundIndicator, RefineDir::Specialize, &sound),
            Interval::point(1.0)
        );
        // An incomplete parent kills every specialize-descendant in
        // complete mode (δC pinned to 0).
        assert_eq!(
            under(&Criterion::CompleteIndicator, RefineDir::Specialize, &sound),
            Interval::point(0.0)
        );
        let complete = MatchStats {
            pos_matched: 4,
            ..unsound
        };
        assert_eq!(
            under(
                &Criterion::CompleteIndicator,
                RefineDir::Generalize,
                &complete
            ),
            Interval::point(1.0)
        );
        // A union box decides δS exactly: clean iff both sides are clean.
        let dirty = MatchStats {
            neg_matched: 2,
            ..unsound
        };
        let union = |a: &MatchStats, b: &MatchStats| {
            Criterion::SoundIndicator.range_over(&CountBox::union(a, b), 2, 2)
        };
        assert_eq!(union(&sound, &sound), Interval::point(1.0));
        assert_eq!(union(&sound, &dirty), Interval::point(0.0));
    }
}

//! Property tests on the explanation framework's invariants.

use obx_core::criteria::CriterionCtx;
use obx_core::matcher::MatchStats;
use obx_core::score::{ScoreExpr, Scoring};
use obx_srcdb::{border, border_layers, Database, Schema};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random small database over a fixed binary schema.
fn random_db(seed: u64, n_consts: usize, n_atoms: usize) -> Database {
    let mut schema = Schema::new();
    for name in ["R", "S", "T"] {
        schema.declare(name, 2).unwrap();
    }
    let mut db = Database::new(schema);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..n_atoms {
        let rel = ["R", "S", "T"][rng.gen_range(0usize..3)];
        let a = format!("c{}", rng.gen_range(0..n_consts));
        let b = format!("c{}", rng.gen_range(0..n_consts));
        db.insert_named(rel, &[&a, &b]).unwrap();
    }
    db
}

proptest! {
    /// B_{t,r} ⊆ B_{t,r+1} (the containment behind Proposition 3.5), and
    /// layers are pairwise disjoint.
    #[test]
    fn border_monotone_and_layers_disjoint(
        seed in 0u64..10_000,
        n_consts in 2usize..20,
        n_atoms in 1usize..60,
        radius in 0usize..5,
    ) {
        let mut db = random_db(seed, n_consts, n_atoms);
        let t = db.constant("c0");
        let small = border(&db, &[t], radius);
        let large = border(&db, &[t], radius + 1);
        prop_assert!(small.is_subset(&large));

        let mut seen = obx_util::FxHashSet::default();
        for layer in border_layers(&db, &[t], radius + 1) {
            for id in &layer {
                prop_assert!(seen.insert(id), "atom {id} in two layers");
            }
        }
        // The union of layers is the border.
        prop_assert_eq!(seen.len(), large.len());
        prop_assert!(seen.iter().all(|&id| large.contains(id)));
    }

    /// The weighted average Z lies in [0, 1] for criteria values in [0, 1]
    /// and is monotone in each criterion value.
    #[test]
    fn weighted_average_is_bounded_and_monotone(
        w in proptest::collection::vec(0.01f64..10.0, 1..5),
        vals in proptest::collection::vec(0.0f64..=1.0, 5),
        bump_idx in 0usize..5,
        bump in 0.0f64..0.5,
    ) {
        let expr = ScoreExpr::weighted_average(&w);
        let vals = &vals[..w.len().min(vals.len())];
        if vals.len() < w.len() { return Ok(()); }
        let z = expr.eval(vals);
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&z), "z = {z}");
        let idx = bump_idx % vals.len();
        let mut bumped = vals.to_vec();
        bumped[idx] = (bumped[idx] + bump).min(1.0);
        prop_assert!(expr.eval(&bumped) + 1e-12 >= z);
    }

    /// Definition 3.7's winner is invariant under positive affine
    /// transformations of Z: argmax(a·Z + b) = argmax(Z).
    #[test]
    fn winner_invariant_under_positive_affine_rescaling(
        stats in proptest::collection::vec((0usize..10, 0usize..10), 2..8),
        a in 0.1f64..5.0,
        b in -3.0f64..3.0,
    ) {
        let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
        let scaled = Scoring::new(
            scoring.criteria().to_vec(),
            ScoreExpr::Sum(vec![
                ScoreExpr::Scale(a, Box::new(scoring.expr().clone())),
                ScoreExpr::Const(b),
            ]),
        );
        let mk = |pos: usize, neg: usize| MatchStats {
            pos_matched: pos,
            pos_total: 10,
            neg_matched: neg,
            neg_total: 10,
        };
        let score_all = |s: &Scoring| -> Vec<f64> {
            stats
                .iter()
                .map(|&(p, n)| {
                    let st = mk(p, n);
                    s.score(&CriterionCtx { stats: &st, num_atoms: 2, num_disjuncts: 1 })
                })
                .collect()
        };
        let argmax = |v: &[f64]| {
            v.iter()
                .enumerate()
                .max_by(|x, y| x.1.partial_cmp(y.1).unwrap())
                .unwrap()
                .0
        };
        let plain = score_all(&scoring);
        let transformed = score_all(&scaled);
        prop_assert_eq!(argmax(&plain), argmax(&transformed));
    }

    /// Adding a disjunct to a UCQ never decreases coverage counts (union
    /// semantics), checked through the paper-example matcher.
    #[test]
    fn ucq_coverage_monotone_in_disjuncts(pick in 0usize..3) {
        let ex = obx_core::paper_example::PaperExample::new();
        let prepared = ex.prepared();
        let queries = [&ex.q1, &ex.q2, &ex.q3];
        let single = queries[pick];
        let mut union = single.clone();
        for q in &queries {
            for d in q.disjuncts() {
                union.push(d.clone());
            }
        }
        let s_single = prepared.stats_of(single).unwrap();
        let s_union = prepared.stats_of(&union).unwrap();
        prop_assert!(s_union.pos_matched >= s_single.pos_matched);
        prop_assert!(s_union.neg_matched >= s_single.neg_matched);
    }
}

/// Criteria values of the built-ins always land in [0, 1] for arbitrary
/// stats (deterministic sweep, no proptest needed).
#[test]
fn criteria_codomain_is_unit_interval() {
    use obx_core::criteria::Criterion;
    let criteria = [
        Criterion::PosCoverage,
        Criterion::PosMissPenalty,
        Criterion::NegAvoidance,
        Criterion::NegHitPenalty,
        Criterion::AtomParsimony,
        Criterion::DisjunctParsimony,
    ];
    for pos_total in 0..4usize {
        for pos_matched in 0..=pos_total {
            for neg_total in 0..4usize {
                for neg_matched in 0..=neg_total {
                    let stats = MatchStats {
                        pos_matched,
                        pos_total,
                        neg_matched,
                        neg_total,
                    };
                    for atoms in 0..4 {
                        for disjuncts in 0..3 {
                            let ctx = CriterionCtx {
                                stats: &stats,
                                num_atoms: atoms,
                                num_disjuncts: disjuncts,
                            };
                            for c in &criteria {
                                let v = c.value(&ctx);
                                assert!((0.0..=1.0).contains(&v), "{} out of range: {v}", c.name());
                            }
                        }
                    }
                }
            }
        }
    }
}

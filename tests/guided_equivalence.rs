//! Output equivalence of the constraint-guided evaluator with the legacy
//! backtracking evaluator.
//!
//! The guided join (`obx_query::eval::guided`) claims to be a pure
//! performance substitution: flipping the process-wide [`eval::set_mode`]
//! switch must not move a single byte of ranked output. Two layers pin
//! that claim:
//!
//! * **End-to-end**: every built-in strategy is run twice on the same
//!   task — once with the legacy evaluator, once with the guided one —
//!   over the paper's example, the university scenario, randomized
//!   scenarios, and the skewed (power-law) scenario the `guided` bench
//!   uses as its flagship. Ranked queries, Z-score bits, per-query stats,
//!   and criterion values must be identical.
//! * **Evaluator-level**: property tests compare the mode-independent
//!   entry points ([`guided::answers`] vs [`eval::answers_legacy`] and
//!   friends) on random databases and random CQs/UCQs, where query shapes
//!   (repeated variables, constant-only guards, cross products) are wilder
//!   than anything the refinement lattice emits.
//!
//! The mode switch is process-global, so the end-to-end tests serialize
//! their flips behind a mutex and always restore the previous mode.

use obx_core::explain::{ExplainReport, ExplainTask, SearchLimits, Strategy};
use obx_core::labels::Labels;
use obx_core::score::Scoring;
use obx_core::strategies::{BeamSearch, BottomUpGeneralize, ExhaustiveSearch, GreedyUcq};
use obx_datagen::{
    random_scenario, skewed_scenario, university_scenario, RandomParams, SkewedParams,
    UniversityParams,
};
use obx_obdm::example_3_6_system;
use obx_query::eval::{self, guided, EvalMode};
use obx_query::{SrcAtom, SrcCq, SrcUcq, Term, VarId};
use obx_srcdb::{Database, Schema, View};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// The paper's five labelled students.
const PAPER_LABELS: &str = "+ A10\n+ B80\n+ C12\n+ D50\n- E25";

/// Serializes evaluator-mode flips: [`eval::set_mode`] is process-global,
/// and the test harness runs `#[test]` functions on multiple threads.
static MODE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the evaluator forced to `m`, restoring the previous mode
/// afterwards (even across concurrent tests — the lock spans the call).
fn with_mode<T>(m: EvalMode, f: impl FnOnce() -> T) -> T {
    let _guard = MODE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let prev = eval::mode();
    eval::set_mode(m);
    let out = f();
    eval::set_mode(prev);
    out
}

/// Every built-in strategy, with limits light enough that running each one
/// twice per scenario stays in test-suite time.
fn strategies() -> Vec<Box<dyn Strategy>> {
    vec![
        Box::new(BeamSearch),
        Box::new(BottomUpGeneralize {
            max_seeds: 2,
            max_seed_atoms: 6,
        }),
        Box::new(GreedyUcq {
            base: Box::new(BeamSearch),
            max_disjuncts: 3,
            base_pool: 8,
        }),
        Box::new(ExhaustiveSearch {
            max_candidates: 500,
        }),
    ]
}

/// Runs `strategy` once per evaluator mode on the same task.
fn run_both_modes(
    task: &ExplainTask<'_>,
    strategy: &dyn Strategy,
) -> (ExplainReport, ExplainReport) {
    let legacy = with_mode(EvalMode::Legacy, || {
        strategy
            .explain_with_status(task)
            .expect("legacy run succeeds")
    });
    let guided = with_mode(EvalMode::Guided, || {
        strategy
            .explain_with_status(task)
            .expect("guided run succeeds")
    });
    (legacy, guided)
}

/// Field-by-field identity of the two ranked reports: same queries in the
/// same order, bit-identical Z-scores and criterion values, equal stats.
fn assert_reports_identical(ctx: &str, legacy: &ExplainReport, guided: &ExplainReport) {
    assert_eq!(
        legacy.explanations.len(),
        guided.explanations.len(),
        "{ctx}: explanation counts diverge"
    );
    for (i, (a, b)) in legacy
        .explanations
        .iter()
        .zip(guided.explanations.iter())
        .enumerate()
    {
        assert_eq!(a.query, b.query, "{ctx}: rank {i} queries diverge");
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "{ctx}: rank {i} Z-scores diverge ({} vs {})",
            a.score,
            b.score
        );
        assert_eq!(a.stats, b.stats, "{ctx}: rank {i} stats diverge");
        assert_eq!(
            a.criterion_values.len(),
            b.criterion_values.len(),
            "{ctx}: rank {i} criterion counts diverge"
        );
        for (j, (x, y)) in a
            .criterion_values
            .iter()
            .zip(b.criterion_values.iter())
            .enumerate()
        {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: rank {i} criterion {j} diverges"
            );
        }
    }
}

#[test]
fn paper_example_identical_across_evaluators_for_every_strategy() {
    let mut sys = example_3_6_system();
    let labels = Labels::parse(sys.db_mut(), PAPER_LABELS).unwrap();
    let scoring = Scoring::accuracy();
    let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
    for strategy in strategies() {
        let (legacy, guided) = run_both_modes(&task, strategy.as_ref());
        assert_reports_identical(&format!("paper / {}", strategy.name()), &legacy, &guided);
    }
}

#[test]
fn university_scenario_identical_across_evaluators() {
    let scenario = university_scenario(UniversityParams {
        n_students: 40,
        ..UniversityParams::default()
    });
    let scoring = Scoring::accuracy();
    let limits = SearchLimits {
        beam_width: 8,
        top_k: 5,
        ..SearchLimits::default()
    };
    let task = ExplainTask::new(&scenario.system, &scenario.labels, 1, &scoring, limits).unwrap();
    for strategy in strategies() {
        let (legacy, guided) = run_both_modes(&task, strategy.as_ref());
        assert_reports_identical(
            &format!("university / {}", strategy.name()),
            &legacy,
            &guided,
        );
    }
}

/// The skewed power-law scenario is the one where the two evaluators take
/// genuinely different paths (the guided bench's flagship), so identical
/// output here is the least vacuous of the deterministic checks.
#[test]
fn skewed_scenario_identical_across_evaluators() {
    let scenario = skewed_scenario(SkewedParams {
        n_students: 60,
        ..SkewedParams::default()
    });
    let scoring = Scoring::accuracy();
    let limits = SearchLimits {
        beam_width: 8,
        top_k: 5,
        ..SearchLimits::default()
    };
    let task = ExplainTask::new(&scenario.system, &scenario.labels, 1, &scoring, limits).unwrap();
    for strategy in strategies() {
        let (legacy, guided) = run_both_modes(&task, strategy.as_ref());
        assert_reports_identical(&format!("skewed / {}", strategy.name()), &legacy, &guided);
    }
}

/// The size-gated [`EvalMode::Auto`] dispatch (the default mode) is pure
/// routing: whichever side of the gate a view lands on, ranked output must
/// be byte-identical to both forced modes. Exercised with the gate pushed
/// to each extreme — everything-legacy and everything-guided — plus the
/// measured default, on the scenario where the evaluators' paths diverge
/// the most.
#[test]
fn auto_mode_matches_forced_modes_end_to_end() {
    let scenario = skewed_scenario(SkewedParams {
        n_students: 60,
        ..SkewedParams::default()
    });
    let scoring = Scoring::accuracy();
    let limits = SearchLimits {
        beam_width: 8,
        top_k: 5,
        ..SearchLimits::default()
    };
    let task = ExplainTask::new(&scenario.system, &scenario.labels, 1, &scoring, limits).unwrap();
    for strategy in light_strategies() {
        let (legacy, guided) = run_both_modes(&task, strategy.as_ref());
        assert_reports_identical(
            &format!("legacy vs guided / {}", strategy.name()),
            &legacy,
            &guided,
        );
        for gate in [0usize, eval::guided_min_view(), usize::MAX] {
            let auto = with_mode(EvalMode::Auto, || {
                let prev = eval::guided_min_view();
                eval::set_guided_min_view(gate);
                let report = strategy
                    .explain_with_status(&task)
                    .expect("auto run succeeds");
                eval::set_guided_min_view(prev);
                report
            });
            assert_reports_identical(
                &format!("auto(gate={gate}) vs legacy / {}", strategy.name()),
                &legacy,
                &auto,
            );
        }
    }
}

/// Lighter strategy set for the randomized end-to-end sweep (random
/// borders are dense; each case runs every strategy twice).
fn light_strategies() -> Vec<Box<dyn Strategy>> {
    vec![
        Box::new(BeamSearch),
        Box::new(BottomUpGeneralize {
            max_seeds: 2,
            max_seed_atoms: 6,
        }),
        Box::new(GreedyUcq {
            base: Box::new(BeamSearch),
            max_disjuncts: 3,
            base_pool: 8,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Randomized scenarios: every lattice strategy returns byte-identical
    /// ranked output under both evaluators.
    #[test]
    fn randomized_scenarios_identical_across_evaluators(seed in 0u64..500) {
        let s = random_scenario(RandomParams {
            seed,
            n_individuals: 16,
            n_concept_facts: 22,
            n_role_facts: 26,
            n_concepts: 4,
            n_roles: 3,
            ..RandomParams::default()
        });
        let scoring = Scoring::accuracy();
        let limits = SearchLimits {
            max_atoms: 2,
            max_vars: 3,
            beam_width: 4,
            max_rounds: 3,
            top_k: 4,
            ..SearchLimits::default()
        };
        let task = ExplainTask::new(&s.system, &s.labels, 1, &scoring, limits).unwrap();
        for strategy in light_strategies() {
            let (legacy, guided) = run_both_modes(&task, strategy.as_ref());
            assert_reports_identical(
                &format!("random seed {seed} / {}", strategy.name()),
                &legacy,
                &guided,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Evaluator-level property tests: guided vs legacy on random CQs/UCQs.
// These call the mode-independent entry points directly, so they need no
// mode flips and run concurrently with everything else.
// ---------------------------------------------------------------------------

fn prop_schema() -> Schema {
    let mut s = Schema::new();
    s.declare("R", 2).unwrap();
    s.declare("S", 2).unwrap();
    s.declare("A", 1).unwrap();
    s
}

fn random_db(seed: u64, n_consts: usize, n_atoms: usize) -> Database {
    let mut db = Database::new(prop_schema());
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..n_atoms {
        let c = |rng: &mut StdRng| format!("c{}", rng.gen_range(0..n_consts));
        match rng.gen_range(0..3) {
            0 => {
                let (a, b) = (c(&mut rng), c(&mut rng));
                db.insert_named("R", &[&a, &b]).unwrap();
            }
            1 => {
                let (a, b) = (c(&mut rng), c(&mut rng));
                db.insert_named("S", &[&a, &b]).unwrap();
            }
            _ => {
                let a = c(&mut rng);
                db.insert_named("A", &[&a]).unwrap();
            }
        }
    }
    db
}

/// A random CQ over the fixed schema, with repeated variables and
/// constants drawn from the database's pool so they can actually match.
fn random_cq(db: &mut Database, seed: u64, n_atoms: usize) -> SrcCq {
    let mut rng = StdRng::seed_from_u64(seed);
    let rels = [
        (db.schema().rel("R").unwrap(), 2usize),
        (db.schema().rel("S").unwrap(), 2),
        (db.schema().rel("A").unwrap(), 1),
    ];
    let mut body = Vec::with_capacity(n_atoms);
    for _ in 0..n_atoms.max(1) {
        let (rel, arity) = rels[rng.gen_range(0..rels.len())];
        let args: Vec<Term> = (0..arity)
            .map(|_| {
                if rng.gen_bool(0.75) {
                    Term::Var(VarId(rng.gen_range(0..4u32)))
                } else {
                    Term::Const(db.constant(&format!("c{}", rng.gen_range(0..6))))
                }
            })
            .collect();
        body.push(SrcAtom::new(rel, args));
    }
    let head_var = body
        .iter()
        .flat_map(|a| a.args.iter())
        .find_map(|t| t.as_var());
    let head_var = match head_var {
        Some(v) => v,
        None => {
            let (rel, _) = rels[2];
            body.push(SrcAtom::new(rel, [Term::Var(VarId(0))]));
            VarId(0)
        }
    };
    SrcCq::new(vec![head_var], body).expect("head var occurs in body")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// `guided::answers` agrees with the legacy evaluator on random
    /// databases and random queries, on the full view and on a masked one
    /// (masks are where the guided access-path choice actually differs).
    #[test]
    fn guided_answers_agree_with_legacy(
        db_seed in 0u64..100_000,
        q_seed in 0u64..100_000,
        n_consts in 1usize..8,
        n_atoms_db in 0usize..25,
        n_atoms_q in 1usize..4,
    ) {
        let mut db = random_db(db_seed, n_consts, n_atoms_db);
        let cq = random_cq(&mut db, q_seed, n_atoms_q);
        let view = View::full(&db);
        prop_assert_eq!(
            guided::answers(view, &cq),
            eval::answers_legacy(view, &cq),
            "full view: query {:?} over db of {} atoms", &cq, db.len()
        );
        // Mask down to every other atom — the shape the matcher's border
        // views have (sparse, index slices mostly invisible).
        let mask = obx_srcdb::AtomSet::from_ids(
            db.len(),
            db.atom_ids().filter(|id| id.index() % 2 == 0),
        );
        let masked = View::masked(&db, &mask);
        prop_assert_eq!(
            guided::answers(masked, &cq),
            eval::answers_legacy(masked, &cq),
            "masked view: query {:?}", &cq
        );
    }

    /// Goal-directed membership agrees tuple-by-tuple, and witnesses exist
    /// on exactly the same tuples. The two evaluators may ground a body
    /// with *different* witnesses, so the guided witness is checked for
    /// validity (right relations, visible atoms) rather than equality.
    #[test]
    fn guided_satisfies_and_witness_agree_with_legacy(
        db_seed in 0u64..100_000,
        q_seed in 0u64..100_000,
    ) {
        let mut db = random_db(db_seed, 5, 20);
        let cq = random_cq(&mut db, q_seed, 2);
        let view = View::full(&db);
        let answers = eval::answers_legacy(view, &cq);
        for t in &answers {
            prop_assert!(guided::satisfies(view, &cq, t), "answer rejected: {:?}", t);
            let w = guided::witness(view, &cq, t);
            prop_assert!(w.is_some(), "answer without guided witness");
            let w = w.unwrap();
            prop_assert_eq!(w.len(), cq.body().len());
            for (atom, id) in cq.body().iter().zip(&w) {
                prop_assert_eq!(db.atom(*id).rel, atom.rel);
                prop_assert!(view.visible(*id), "witness atom outside the view");
            }
        }
        // Probe some non-answers: every unary constant tuple not in the
        // answer set must be rejected by both (only checkable for arity 1).
        if cq.arity() == 1 {
            for k in 0..6 {
                if let Some(c) = db.consts().get(&format!("c{k}")) {
                    let t = [c];
                    let is_answer = answers.contains(&t.to_vec().into_boxed_slice());
                    prop_assert_eq!(guided::satisfies(view, &cq, &t), is_answer);
                    prop_assert_eq!(guided::witness(view, &cq, &t).is_some(), is_answer);
                }
            }
        }
    }

    /// UCQ entry points agree disjunct-for-disjunct under both modes.
    #[test]
    fn ucq_answers_agree_across_modes(
        db_seed in 0u64..100_000,
        q1_seed in 0u64..100_000,
        q2_seed in 0u64..100_000,
    ) {
        let mut db = random_db(db_seed, 6, 20);
        let q1 = random_cq(&mut db, q1_seed, 2);
        let q2 = random_cq(&mut db, q2_seed, 2);
        // UCQ disjuncts must share one arity; pad with a fresh unary CQ
        // only when the draws happen to agree — otherwise test q1 alone.
        let disjuncts = if q1.arity() == q2.arity() {
            vec![q1, q2]
        } else {
            vec![q1]
        };
        let ucq: SrcUcq = disjuncts.into_iter().collect();
        let view = View::full(&db);
        let legacy = with_mode(EvalMode::Legacy, || eval::answers_ucq(view, &ucq));
        let guided = with_mode(EvalMode::Guided, || eval::answers_ucq(view, &ucq));
        prop_assert_eq!(&legacy, &guided);
        for t in &legacy {
            let sat = with_mode(EvalMode::Guided, || eval::satisfies_ucq(view, &ucq, t));
            prop_assert!(sat);
            let w = with_mode(EvalMode::Guided, || eval::witness_ucq(view, &ucq, t));
            prop_assert!(w.is_some(), "UCQ answer without witness");
        }
    }
}

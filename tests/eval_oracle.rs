//! The join evaluator (`obx_query::eval`) checked against independent
//! oracles, at two layers:
//!
//! * **Evaluator-level**: property tests compare `answers`, `satisfies`,
//!   `witness` and the UCQ entry points with a naive nested-loop
//!   reference (every visible atom tried for every body atom, in body
//!   order, no indexes) on random databases and random CQs/UCQs — on the
//!   full view and on random masked views, with repeated variables (in
//!   bodies and heads), constant-only guard atoms and cross products.
//!   Witnesses are checked for validity rather than equality: one
//!   visible atom per body atom, in body order, and jointly consistent
//!   with the goal tuple. The batched `satisfies_ucq_each` is checked
//!   against one `satisfies_ucq` call per goal, each goal with its own
//!   mask.
//! * **End-to-end**: every built-in strategy runs on the paper's example,
//!   the university scenario, the skewed (power-law) scenario and
//!   randomized scenarios. For each reported explanation, the per-tuple
//!   J-matches computed through the evaluator (rewrite + unfold + join
//!   over the tuple's border) must equal the chase engine's certain
//!   answers over that same border view, and the reported confusion
//!   counts must equal the counts the chase implies.

use obx_core::explain::{ExplainReport, ExplainTask, SearchLimits, Strategy};
use obx_core::labels::Labels;
use obx_core::matcher::MatchBits;
use obx_core::score::{ExplainMode, Scoring};
use obx_core::strategies::{BeamSearch, BottomUpGeneralize, ExhaustiveSearch, GreedyUcq};
use obx_datagen::{
    random_scenario, skewed_scenario, university_scenario, RandomParams, SkewedParams,
    UniversityParams,
};
use obx_obdm::{example_3_6_system, ChaseConfig, ObdmSystem};
use obx_query::eval;
use obx_query::{Goal, SrcAtom, SrcCq, SrcUcq, Term, VarId};
use obx_srcdb::{AtomId, AtomSet, Const, Database, Schema, View};
use obx_util::{FxHashMap, FxHashSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// End-to-end: reported explanations vs the chase over each border.
// ---------------------------------------------------------------------------

/// The paper's five labelled students.
const PAPER_LABELS: &str = "+ A10\n+ B80\n+ C12\n+ D50\n- E25";

/// Every built-in strategy, with limits light enough for the test suite;
/// exhaustive enumeration stops after `exhaustive_cap` candidates.
fn strategies(exhaustive_cap: usize) -> Vec<Box<dyn Strategy>> {
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
            max_candidates: exhaustive_cap,
        }),
    ]
}

/// The chase oracle's match bits for `query` against the task's labelled
/// tuples: tuple `t` matches iff it is a certain answer of `query` over
/// the virtual ABox of `t`'s border, materialized by the chase.
fn chase_bits(task: &ExplainTask<'_>, query: &obx_query::OntoUcq) -> MatchBits {
    let prepared = task.prepared();
    let sys = task.system();
    let mut bits = MatchBits::empty(prepared.num_pos(), prepared.num_neg());
    for (i, (t, border)) in prepared.pos().iter().chain(prepared.neg()).enumerate() {
        let certain = sys.certain_answers_materialized(
            query,
            View::masked(sys.db(), border),
            ChaseConfig::for_ucq(query),
        );
        if certain.contains(t) {
            bits.set(i);
        }
    }
    bits
}

/// Checks every explanation of `report` against the chase oracle.
/// `oracle` caches chase bits per rendered query across the strategies of
/// one task (they often report the same queries).
fn assert_matches_chase(
    ctx: &str,
    task: &ExplainTask<'_>,
    report: &ExplainReport,
    oracle: &mut FxHashMap<String, MatchBits>,
) {
    let sys: &ObdmSystem = task.system();
    assert!(
        !report.explanations.is_empty(),
        "{ctx}: no explanation reported"
    );
    for (rank, e) in report.explanations.iter().enumerate() {
        let rendered = e.render(sys);
        let compiled = sys
            .spec()
            .compile(&e.query)
            .expect("reported explanations compile");
        let evaluated = task.prepared().match_bits(&compiled);
        let chased = oracle
            .entry(rendered.clone())
            .or_insert_with(|| chase_bits(task, &e.query));
        assert_eq!(
            &evaluated, chased,
            "{ctx}: rank {rank} `{rendered}` J-matches differ from the chase"
        );
        assert_eq!(
            e.stats,
            chased.stats(),
            "{ctx}: rank {rank} `{rendered}` reported stats differ from the chase"
        );
    }
}

/// The exhaustive cap on the generated scenarios, whose first candidates
/// already reach the evaluator.
const EXHAUSTIVE_CAP: usize = 500;

/// The exhaustive cap on the paper's example: its first 5,000 candidates
/// are all data-dead, so a lower cap would check no evaluated query.
const PAPER_EXHAUSTIVE_CAP: usize = 10_000;

/// Runs every strategy in each of `modes` on one scenario and checks all
/// reported explanations against the chase.
fn check_scenario(
    name: &str,
    sys: &ObdmSystem,
    labels: &Labels,
    radius: usize,
    limits: SearchLimits,
    modes: &[ExplainMode],
    exhaustive_cap: usize,
) {
    let mut oracle: FxHashMap<String, MatchBits> = FxHashMap::default();
    for &mode in modes {
        let scoring = Scoring::for_mode(
            mode,
            Scoring::accuracy,
            labels.pos().len(),
            labels.neg().len(),
        );
        let task = ExplainTask::new(sys, labels, radius, &scoring, limits).unwrap();
        for strategy in strategies(exhaustive_cap) {
            let report = strategy
                .explain_with_status(&task)
                .expect("strategy run succeeds");
            assert_matches_chase(
                &format!("{name} / {mode:?} / {}", strategy.name()),
                &task,
                &report,
                &mut oracle,
            );
        }
    }
}

#[test]
fn paper_example_matches_chase_oracle_for_every_strategy() {
    let mut sys = example_3_6_system();
    let labels = Labels::parse(sys.db_mut(), PAPER_LABELS).unwrap();
    check_scenario(
        "paper",
        &sys,
        &labels,
        1,
        SearchLimits::default(),
        &ExplainMode::ALL,
        PAPER_EXHAUSTIVE_CAP,
    );
}

#[test]
fn university_scenario_matches_chase_oracle() {
    let scenario = university_scenario(UniversityParams {
        n_students: 40,
        ..UniversityParams::default()
    });
    let limits = SearchLimits {
        beam_width: 8,
        top_k: 5,
        ..SearchLimits::default()
    };
    check_scenario(
        "university",
        &scenario.system,
        &scenario.labels,
        1,
        limits,
        &ExplainMode::ALL,
        EXHAUSTIVE_CAP,
    );
}

/// The skewed scenario puts hub constants inside radius-1 borders, so
/// guard scans there read long index slices through sparse masks.
#[test]
fn skewed_scenario_matches_chase_oracle() {
    let scenario = skewed_scenario(SkewedParams {
        n_students: 60,
        ..SkewedParams::default()
    });
    let limits = SearchLimits {
        beam_width: 8,
        top_k: 5,
        ..SearchLimits::default()
    };
    check_scenario(
        "skewed",
        &scenario.system,
        &scenario.labels,
        1,
        limits,
        &[ExplainMode::Fscore],
        EXHAUSTIVE_CAP,
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Randomized DL-Lite scenarios: every strategy's reported
    /// explanations agree with the chase tuple by tuple.
    #[test]
    fn randomized_scenarios_match_chase_oracle(seed in 0u64..500) {
        let s = random_scenario(RandomParams {
            seed,
            n_individuals: 16,
            n_concept_facts: 22,
            n_role_facts: 26,
            n_concepts: 4,
            n_roles: 3,
            ..RandomParams::default()
        });
        let limits = SearchLimits {
            max_atoms: 2,
            max_vars: 3,
            beam_width: 4,
            max_rounds: 3,
            top_k: 4,
            ..SearchLimits::default()
        };
        check_scenario(
            &format!("random seed {seed}"),
            &s.system,
            &s.labels,
            1,
            limits,
            &[ExplainMode::Fscore],
            EXHAUSTIVE_CAP,
        );
    }
}

// ---------------------------------------------------------------------------
// Evaluator-level: the evaluator vs a naive nested-loop reference.
// ---------------------------------------------------------------------------

/// A partial assignment of the query's variables (by index).
type Assignment = Vec<Option<Const>>;

/// Extends `binding` so that `atom` maps onto the database atom `id`, or
/// returns `None` when a constant or an already-bound variable disagrees.
fn unify(db: &Database, atom: &SrcAtom, id: AtomId, binding: &Assignment) -> Option<Assignment> {
    let fact = db.atom(id);
    if fact.rel != atom.rel || fact.args.len() != atom.args.len() {
        return None;
    }
    let mut out = binding.clone();
    for (&t, &c) in atom.args.iter().zip(fact.args.iter()) {
        match t {
            Term::Const(qc) if qc != c => return None,
            Term::Const(_) => {}
            Term::Var(v) => match out[v.index()] {
                Some(b) if b != c => return None,
                Some(_) => {}
                None => out[v.index()] = Some(c),
            },
        }
    }
    Some(out)
}

fn num_vars(cq: &SrcCq) -> usize {
    cq.max_var().map_or(0, |m| m as usize + 1)
}

/// Every embedding of `cq`'s body into the visible atoms, body atom by
/// body atom, each tried against every visible atom of the database.
fn naive_embeddings(view: View<'_>, cq: &SrcCq) -> Vec<Assignment> {
    let db = view.db();
    let mut partial = vec![vec![None; num_vars(cq)]];
    for atom in cq.body() {
        let mut next = Vec::new();
        for binding in &partial {
            for id in db.atom_ids().filter(|&id| view.visible(id)) {
                next.extend(unify(db, atom, id, binding));
            }
        }
        partial = next;
    }
    partial
}

/// The reference answer set: head tuples of every embedding.
fn naive_answers(view: View<'_>, cq: &SrcCq) -> FxHashSet<Box<[Const]>> {
    naive_embeddings(view, cq)
        .into_iter()
        .map(|b| {
            cq.head()
                .iter()
                .map(|v| b[v.index()].expect("safe heads are bound by every embedding"))
                .collect()
        })
        .collect()
}

/// A witness is valid when it names one visible atom per body atom, in
/// body order, and those atoms embed the body consistently with the head
/// bound to `tuple`.
fn witness_is_valid(view: View<'_>, cq: &SrcCq, tuple: &[Const], w: &[AtomId]) -> bool {
    if w.len() != cq.body().len() || !w.iter().all(|&id| view.visible(id)) {
        return false;
    }
    let mut binding: Assignment = vec![None; num_vars(cq)];
    for (&v, &c) in cq.head().iter().zip(tuple) {
        match binding[v.index()] {
            Some(b) if b != c => return false,
            _ => binding[v.index()] = Some(c),
        }
    }
    for (atom, &id) in cq.body().iter().zip(w) {
        match unify(view.db(), atom, id, &binding) {
            Some(b) => binding = b,
            None => return false,
        }
    }
    true
}

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

/// A random CQ over the fixed schema with `head_arity` head variables
/// (drawn with repetition from the body's variables). Four variables over
/// up to three atoms give repeated variables, disconnected atoms (cross
/// products) and, with constants drawn from the database's pool, atoms
/// with no variable at all (guards).
fn random_cq(db: &mut Database, seed: u64, n_atoms: usize, head_arity: usize) -> SrcCq {
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
                if rng.gen_bool(0.7) {
                    Term::Var(VarId(rng.gen_range(0..4u32)))
                } else {
                    Term::Const(db.constant(&format!("c{}", rng.gen_range(0..6))))
                }
            })
            .collect();
        body.push(SrcAtom::new(rel, args));
    }
    let mut body_vars: Vec<VarId> = body
        .iter()
        .flat_map(|a| a.args.iter())
        .filter_map(|t| t.as_var())
        .collect();
    body_vars.sort_unstable();
    body_vars.dedup();
    if body_vars.is_empty() {
        body.push(SrcAtom::new(rels[2].0, [Term::Var(VarId(0))]));
        body_vars.push(VarId(0));
    }
    let head = (0..head_arity.max(1))
        .map(|_| body_vars[rng.gen_range(0..body_vars.len())])
        .collect();
    SrcCq::new(head, body).expect("head vars occur in the body")
}

/// A random mask keeping each atom with probability one half.
fn random_mask(db: &Database, seed: u64) -> AtomSet {
    let mut rng = StdRng::seed_from_u64(seed);
    AtomSet::from_ids(db.len(), db.atom_ids().filter(|_| rng.gen_bool(0.5)))
}

/// Every tuple of `arity` over the constants `c0..c5` that exist in the
/// database: the probe set for goal-directed checks.
fn probe_tuples(db: &Database, arity: usize) -> Vec<Vec<Const>> {
    let consts: Vec<Const> = (0..6)
        .filter_map(|k| db.consts().get(&format!("c{k}")))
        .collect();
    let mut tuples = vec![Vec::new()];
    for _ in 0..arity {
        tuples = tuples
            .into_iter()
            .flat_map(|t| {
                consts.iter().map(move |&c| {
                    let mut t = t.clone();
                    t.push(c);
                    t
                })
            })
            .collect();
    }
    tuples
}

/// `satisfies` and `witness` agree with the reference on every probe
/// tuple and every reference answer, and reject wrong arities.
fn check_goal_directed(view: View<'_>, cq: &SrcCq, reference: &FxHashSet<Box<[Const]>>) {
    let mut probes = probe_tuples(view.db(), cq.arity());
    probes.extend(reference.iter().map(|t| t.to_vec()));
    for t in &probes {
        let expected = reference.contains(t.as_slice());
        prop_assert_eq!(eval::satisfies(view, cq, t), expected, "satisfies {:?}", t);
        match eval::witness(view, cq, t) {
            Some(w) => {
                prop_assert!(expected, "witness for a non-answer {:?}", t);
                prop_assert!(witness_is_valid(view, cq, t, &w), "invalid witness {:?}", w);
            }
            None => prop_assert!(!expected, "answer {:?} without a witness", t),
        }
    }
    if let Some(t) = probes.first() {
        let mut too_long = t.clone();
        too_long.push(t[0]);
        prop_assert!(!eval::satisfies(view, cq, &too_long));
        prop_assert!(eval::witness(view, cq, &too_long).is_none());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// `answers` equals the naive reference on the full view and on a
    /// random masked view.
    #[test]
    fn answers_match_naive_reference(
        db_seed in 0u64..100_000,
        q_seed in 0u64..100_000,
        mask_seed in 0u64..100_000,
        n_consts in 1usize..8,
        n_atoms_db in 0usize..25,
        n_atoms_q in 1usize..4,
        head_arity in 1usize..3,
    ) {
        let mut db = random_db(db_seed, n_consts, n_atoms_db);
        let cq = random_cq(&mut db, q_seed, n_atoms_q, head_arity);
        let full = View::full(&db);
        prop_assert_eq!(
            eval::answers(full, &cq),
            naive_answers(full, &cq),
            "full view: query {:?} over db of {} atoms", &cq, db.len()
        );
        let mask = random_mask(&db, mask_seed);
        let masked = View::masked(&db, &mask);
        prop_assert_eq!(
            eval::answers(masked, &cq),
            naive_answers(masked, &cq),
            "masked view: query {:?}", &cq
        );
    }

    /// Goal-directed membership and witnesses agree with the reference
    /// answer set tuple by tuple, on the full view and a masked one.
    #[test]
    fn satisfies_and_witness_match_naive_reference(
        db_seed in 0u64..100_000,
        q_seed in 0u64..100_000,
        mask_seed in 0u64..100_000,
        n_atoms_q in 1usize..4,
        head_arity in 1usize..3,
    ) {
        let mut db = random_db(db_seed, 5, 20);
        let cq = random_cq(&mut db, q_seed, n_atoms_q, head_arity);
        let full = View::full(&db);
        check_goal_directed(full, &cq, &naive_answers(full, &cq));
        let mask = random_mask(&db, mask_seed);
        let masked = View::masked(&db, &mask);
        check_goal_directed(masked, &cq, &naive_answers(masked, &cq));
    }

    /// The UCQ entry points agree with the union of the disjuncts'
    /// reference answers; `witness_ucq` names the first disjunct the
    /// tuple satisfies, with a valid witness for it.
    #[test]
    fn ucq_entry_points_match_naive_reference(
        db_seed in 0u64..100_000,
        q_seeds in proptest::collection::vec(0u64..100_000, 1..4),
        mask_seed in 0u64..100_000,
        head_arity in 1usize..3,
    ) {
        let mut db = random_db(db_seed, 6, 20);
        let ucq: SrcUcq = q_seeds
            .iter()
            .map(|&s| random_cq(&mut db, s, 2, head_arity))
            .collect();
        // Collecting may drop duplicate disjuncts; index what is kept.
        let disjuncts = ucq.disjuncts();
        let mask = random_mask(&db, mask_seed);
        for view in [View::full(&db), View::masked(&db, &mask)] {
            let per_disjunct: Vec<_> = disjuncts.iter().map(|cq| naive_answers(view, cq)).collect();
            let union: FxHashSet<Box<[Const]>> = per_disjunct.iter().flatten().cloned().collect();
            prop_assert_eq!(eval::answers_ucq(view, &ucq), union.clone());
            let mut probes = probe_tuples(&db, head_arity);
            probes.extend(union.iter().map(|t| t.to_vec()));
            for t in &probes {
                let first = per_disjunct.iter().position(|a| a.contains(t.as_slice()));
                prop_assert_eq!(eval::satisfies_ucq(view, &ucq, t), first.is_some());
                let w = eval::witness_ucq(view, &ucq, t);
                prop_assert_eq!(w.as_ref().map(|(i, _)| *i), first, "disjunct for {:?}", t);
                if let Some((i, w)) = w {
                    prop_assert!(witness_is_valid(view, &disjuncts[i], t, &w));
                }
            }
        }
    }
}

/// Batch goals for [`batched_membership_equals_per_goal_satisfies`]: each
/// is absent (`None`), or a tuple with its own random mask. Tuples are
/// drawn from the full view's answers and from the probe constants, and
/// about one in six has the wrong arity.
fn random_goals(
    db: &Database,
    ucq: &SrcUcq,
    head_arity: usize,
    seed: u64,
    n: usize,
) -> Vec<Option<(Vec<Const>, AtomSet)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let answers: Vec<Box<[Const]>> = {
        let mut a: Vec<_> = eval::answers_ucq(View::full(db), ucq).into_iter().collect();
        a.sort();
        a
    };
    let probes = probe_tuples(db, head_arity);
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.15) {
                return None;
            }
            let mut tuple = if !answers.is_empty() && rng.gen_bool(0.5) {
                answers[rng.gen_range(0..answers.len())].to_vec()
            } else {
                probes[rng.gen_range(0..probes.len())].clone()
            };
            if rng.gen_bool(0.15) {
                // Wrong arity: one constant too many, or none at all.
                if rng.gen_bool(0.5) {
                    tuple.push(tuple[0]);
                } else {
                    tuple.clear();
                }
            }
            Some((tuple, random_mask(db, rng.gen_range(0..100_000u64))))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// One batched call equals one `satisfies_ucq` per goal over that
    /// goal's own masked view, on multi-disjunct UCQs that include a
    /// disjunct with a repeated head variable and a constant-only guard,
    /// with wrong-arity and absent goals mixed in.
    #[test]
    fn batched_membership_equals_per_goal_satisfies(
        db_seed in 0u64..100_000,
        q_seeds in proptest::collection::vec(0u64..100_000, 1..4),
        goal_seed in 0u64..100_000,
        guard in (0usize..6, 0usize..6),
        head_arity in 1usize..3,
        n_goals in 0usize..24,
    ) {
        let mut db = random_db(db_seed, 6, 20);
        let mut disjuncts: Vec<SrcCq> = q_seeds
            .iter()
            .map(|&s| random_cq(&mut db, s, 2, head_arity))
            .collect();
        // q(x0, …, x0) :- A(x0), R(c_i, c_j): repeated head variable and a
        // guard that holds or not depending on the goal's mask.
        let (a, r) = (db.schema().rel("A").unwrap(), db.schema().rel("R").unwrap());
        let (ci, cj) = (db.constant(&format!("c{}", guard.0)), db.constant(&format!("c{}", guard.1)));
        disjuncts.push(
            SrcCq::new(
                vec![VarId(0); head_arity],
                vec![
                    SrcAtom::new(a, [Term::Var(VarId(0))]),
                    SrcAtom::new(r, [Term::Const(ci), Term::Const(cj)]),
                ],
            )
            .unwrap(),
        );
        let ucq: SrcUcq = disjuncts.into_iter().collect();
        let goals = random_goals(&db, &ucq, head_arity, goal_seed, n_goals);
        // Random masks are not borders, so no goal is complete and every
        // disjunct keeps its masks.
        let batched = eval::satisfies_ucq_each(&db, &ucq, 1, goals.len(), |i| {
            goals[i].as_ref().map(|(t, m)| Goal { tuple: t, border: m, complete: false })
        });
        prop_assert_eq!(batched.certified, 0);
        let batched = batched.hits;
        prop_assert_eq!(batched.len(), goals.len());
        for (i, goal) in goals.iter().enumerate() {
            let expected = goal
                .as_ref()
                .is_some_and(|(t, m)| eval::satisfies_ucq(View::masked(&db, m), &ucq, t));
            prop_assert_eq!(batched[i], expected, "goal {} {:?} of {:?}", i, goal.as_ref().map(|g| &g.0), &ucq);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96 })]

    /// A cutoff only ever stops a batched call early, never changes an
    /// answer: every goal a stopped call settled agrees with the full
    /// call, a call that ran through returns exactly the full call, and a
    /// call stops iff the final misses below `split` or the hits from
    /// `split` on exceed their budgets.
    #[test]
    fn cutoffs_stop_calls_without_changing_settled_goals(
        db_seed in 0u64..100_000,
        q_seeds in proptest::collection::vec(0u64..100_000, 1..4),
        goal_seed in 0u64..100_000,
        n_goals in 0usize..24,
        split in 0usize..24,
        budgets in (0usize..6, 0usize..6),
        complete in 0u8..2,
    ) {
        let mut db = random_db(db_seed, 6, 20);
        let ucq: SrcUcq = q_seeds.iter().map(|&s| random_cq(&mut db, s, 2, 1)).collect();
        let goals = random_goals(&db, &ucq, 1, goal_seed, n_goals);
        // Goals marked complete let certified disjuncts take the
        // certified path (both calls take the same one).
        let complete = complete == 1;
        let goal = |i: usize| goals[i].as_ref().map(|(t, m)| Goal { tuple: t, border: m, complete });
        let full = eval::satisfies_ucq_each(&db, &ucq, 1, goals.len(), goal);
        let cutoff = eval::Cutoff { split, misses: budgets.0, hits: budgets.1 };
        let cut = eval::satisfies_ucq_until(&db, &ucq, 1, goals.len(), goal, cutoff);
        let asked = |i: usize| goals[i].is_some();
        for i in 0..goals.len() {
            prop_assert_eq!(full.missed[i], asked(i) && !full.hits[i]);
            prop_assert!(!cut.hits[i] || full.hits[i], "goal {} hit only under the cutoff", i);
            prop_assert!(!cut.missed[i] || full.missed[i], "goal {} missed only under the cutoff", i);
        }
        let misses = (0..goals.len()).filter(|&i| i < split && cut.missed[i]).count();
        let hits = (0..goals.len()).filter(|&i| i >= split && cut.hits[i]).count();
        if cut.stopped {
            prop_assert!(misses > budgets.0 || hits > budgets.1);
        } else {
            prop_assert_eq!(&cut.hits, &full.hits);
            prop_assert_eq!(&cut.missed, &full.missed);
            prop_assert_eq!(cut.nodes, full.nodes);
            prop_assert!(misses <= budgets.0 && hits <= budgets.1);
        }
    }
}

/// A random database whose five columns (`R.0`, `R.1`, `S.0`, `S.1`,
/// `A.0`) each draw from their own random subset of `c0..c5`, so some
/// pairs of columns share no constant, as typed columns do in real data.
fn typed_db(seed: u64, n_atoms: usize) -> Database {
    let mut db = Database::new(prop_schema());
    let mut rng = StdRng::seed_from_u64(seed);
    let pools: Vec<Vec<String>> = (0..5)
        .map(|_| {
            let pool: Vec<String> = (0..6)
                .filter(|_| rng.gen_bool(0.35))
                .map(|k| format!("c{k}"))
                .collect();
            if pool.is_empty() {
                vec![format!("c{}", rng.gen_range(0..6))]
            } else {
                pool
            }
        })
        .collect();
    for _ in 0..n_atoms {
        let pick =
            |rng: &mut StdRng, col: usize| pools[col][rng.gen_range(0..pools[col].len())].clone();
        match rng.gen_range(0..3) {
            0 => {
                let (a, b) = (pick(&mut rng, 0), pick(&mut rng, 1));
                db.insert_named("R", &[&a, &b]).unwrap();
            }
            1 => {
                let (a, b) = (pick(&mut rng, 2), pick(&mut rng, 3));
                db.insert_named("S", &[&a, &b]).unwrap();
            }
            _ => {
                let a = pick(&mut rng, 4);
                db.insert_named("A", &[&a]).unwrap();
            }
        }
    }
    db
}

/// Whether some body atom of `cq` has an empty index slice in `db`: the
/// atom rule of `eval::data_dead`, restated so the join rule can be told
/// apart.
fn atom_dead(db: &Database, cq: &SrcCq) -> bool {
    cq.body().iter().any(|atom| {
        db.atoms_of(atom.rel).is_empty()
            || atom.args.iter().enumerate().any(|(pos, t)| {
                matches!(t, Term::Const(c) if db.atoms_with(atom.rel, pos, *c).is_empty())
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    /// `data_dead` is sound: a query it flags has no answer on the full
    /// database (so none on any view of it), by the naive reference and
    /// by the evaluator. Typed databases make the join rule fire.
    #[test]
    fn data_dead_queries_have_no_answers(
        db_seed in 0u64..100_000,
        q_seed in 0u64..100_000,
        typed in 0u8..2,
        n_atoms_db in 0usize..25,
        n_atoms_q in 1usize..4,
        head_arity in 1usize..3,
    ) {
        let mut db = if typed == 1 {
            typed_db(db_seed, n_atoms_db)
        } else {
            random_db(db_seed, 6, n_atoms_db)
        };
        let cq = random_cq(&mut db, q_seed, n_atoms_q, head_arity);
        if eval::data_dead(&db, &cq) {
            let full = View::full(&db);
            prop_assert!(naive_answers(full, &cq).is_empty(), "dead query {:?} has answers", &cq);
            prop_assert!(eval::answers(full, &cq).is_empty());
        }
    }
}

/// The oracle above is not vacuous: over fixed seeds the join rule alone
/// flags queries (every atom has facts, yet a variable's columns share
/// no constant), and it leaves queries with answers alone.
#[test]
fn data_dead_join_rule_fires_on_typed_databases() {
    let (mut join_only, mut live_with_answers) = (0, 0);
    for seed in 0..300u64 {
        let mut db = typed_db(seed, 20);
        let cq = random_cq(&mut db, seed ^ 0x5eed, 2, 1);
        let dead = eval::data_dead(&db, &cq);
        join_only += usize::from(dead && !atom_dead(&db, &cq));
        live_with_answers += usize::from(!dead && !eval::answers(View::full(&db), &cq).is_empty());
    }
    assert!(join_only >= 10, "join rule fired {join_only} times");
    assert!(
        live_with_answers >= 10,
        "{live_with_answers} live queries with answers"
    );
}

/// A path-shaped CQ over `R`/`S`: `len` binary atoms chained from the
/// head variable `x0` through fresh variables, each atom in a random
/// direction, the last one ending on a constant half of the time. Its
/// deepest atom has layer depth `len - 1`.
fn chain_cq(db: &mut Database, seed: u64, len: usize) -> SrcCq {
    let mut rng = StdRng::seed_from_u64(seed);
    let rels = [db.schema().rel("R").unwrap(), db.schema().rel("S").unwrap()];
    let end = rng
        .gen_bool(0.5)
        .then(|| Term::Const(db.constant(&format!("c{}", rng.gen_range(0..12usize)))));
    let body = (0..len)
        .map(|i| {
            let from = Term::Var(VarId(i as u32));
            let to = match end {
                Some(c) if i + 1 == len => c,
                _ => Term::Var(VarId(i as u32 + 1)),
            };
            let rel = rels[rng.gen_range(0..2usize)];
            if rng.gen_bool(0.5) {
                SrcAtom::new(rel, [from, to])
            } else {
                SrcAtom::new(rel, [to, from])
            }
        })
        .collect();
    SrcCq::new(vec![VarId(0)], body).expect("x0 occurs in the first atom")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96 })]

    /// Border certification (`eval::certified`): on random sparse
    /// databases at radii 1–3, a certified CQ has the same answers over
    /// each tuple's border as over the whole database, and the batched
    /// call over complete borders (which takes the certified path where
    /// it applies) equals one masked `satisfies` per tuple. Chains one
    /// atom too deep for the radius make under-counting the depth by one
    /// fail here.
    #[test]
    fn certified_disjuncts_ignore_their_border_masks(
        db_seed in 0u64..100_000,
        q_seed in 0u64..100_000,
        radius in 1usize..4,
        len in 1usize..6,
        shape in 0u8..2,
    ) {
        let mut db = random_db(db_seed, 12, 24);
        let cq = if shape == 0 {
            chain_cq(&mut db, q_seed, len)
        } else {
            random_cq(&mut db, q_seed, len.min(3), 1)
        };
        let ucq = SrcUcq::from_cq(cq.clone());
        let consts: Vec<Const> = (0..12).filter_map(|k| db.consts().get(&format!("c{k}"))).collect();
        let borders: Vec<AtomSet> = consts.iter().map(|&c| obx_srcdb::border(&db, &[c], radius)).collect();
        let certified = eval::certified(&cq, radius);
        for (c, b) in consts.iter().zip(&borders) {
            let over_border = eval::satisfies(View::masked(&db, b), &cq, &[*c]);
            if certified {
                prop_assert_eq!(
                    over_border,
                    eval::satisfies(View::full(&db), &cq, &[*c]),
                    "certified {:?} at radius {} differs over {:?}'s border", &cq, radius, c
                );
            }
        }
        let batched = eval::satisfies_ucq_each(&db, &ucq, radius, consts.len(), |i| {
            Some(Goal { tuple: std::slice::from_ref(&consts[i]), border: &borders[i], complete: true })
        });
        for (i, c) in consts.iter().enumerate() {
            let expected = eval::satisfies(View::masked(&db, &borders[i]), &cq, &[*c]);
            prop_assert_eq!(batched.hits[i], expected, "batched {:?} at radius {} for {:?}", &cq, radius, c);
        }
    }
}

/// Depths and certification on fixed shapes: a chain's depth is its
/// length minus one, a constant shared with a head atom connects a
/// guard, and an unconnected guard, radius 0 or an empty head never
/// certify.
#[test]
fn head_depth_counts_border_layers() {
    let mut db = random_db(3, 4, 8);
    let r = db.schema().rel("R").unwrap();
    let a = db.schema().rel("A").unwrap();
    let v = |i: u32| Term::Var(VarId(i));
    let c1 = Term::Const(db.constant("c1"));
    let c2 = Term::Const(db.constant("c2"));
    let cq = |head: Vec<VarId>, body: Vec<SrcAtom>| SrcCq::new(head, body).unwrap();
    let chain3 = cq(
        vec![VarId(0)],
        vec![
            SrcAtom::new(r, [v(2), v(3)]),
            SrcAtom::new(r, [v(0), v(1)]),
            SrcAtom::new(r, [v(1), v(2)]),
        ],
    );
    assert_eq!(eval::head_depth(&chain3), Some(2));
    assert!(!eval::certified(&chain3, 1));
    assert!(eval::certified(&chain3, 2));
    let shared_const = cq(
        vec![VarId(0)],
        vec![SrcAtom::new(r, [v(0), c1]), SrcAtom::new(r, [c1, c2])],
    );
    assert_eq!(eval::head_depth(&shared_const), Some(1));
    let unconnected = cq(
        vec![VarId(0)],
        vec![SrcAtom::new(a, [v(0)]), SrcAtom::new(r, [c2, c2])],
    );
    assert_eq!(eval::head_depth(&unconnected), None);
    assert!(!eval::certified(&unconnected, 3));
    let single = cq(vec![VarId(0)], vec![SrcAtom::new(a, [v(0)])]);
    assert_eq!(eval::head_depth(&single), Some(0));
    assert!(!eval::certified(&single, 0));
    assert!(eval::certified(&single, 1));
    let boolean = cq(vec![], vec![SrcAtom::new(a, [v(0)])]);
    assert_eq!(eval::head_depth(&boolean), None);
}

/// The query shapes the generator only hits by chance, pinned once each
/// against the reference: a pure cross product, true and false
/// constant-only guards, a repeated variable inside an atom, and a head
/// repeating one variable.
#[test]
fn fixed_shapes_match_naive_reference() {
    let mut db = random_db(7, 4, 24);
    db.insert_named("R", &["c1", "c1"]).unwrap();
    db.insert_named("A", &["c2"]).unwrap();
    let r = db.schema().rel("R").unwrap();
    let s = db.schema().rel("S").unwrap();
    let a = db.schema().rel("A").unwrap();
    let v = |i: u32| Term::Var(VarId(i));
    let c1 = Term::Const(db.constant("c1"));
    let c2 = Term::Const(db.constant("c2"));
    let absent = Term::Const(db.constant("never"));
    let shapes = [
        // Cross product of two disconnected atoms.
        SrcCq::new(
            vec![VarId(0), VarId(1)],
            vec![SrcAtom::new(a, [v(0)]), SrcAtom::new(s, [v(1), v(2)])],
        ),
        // A true guard (R(c1, c1) is in the database)…
        SrcCq::new(
            vec![VarId(0)],
            vec![SrcAtom::new(a, [v(0)]), SrcAtom::new(r, [c1, c1])],
        ),
        // …and a false one.
        SrcCq::new(
            vec![VarId(0)],
            vec![SrcAtom::new(a, [v(0)]), SrcAtom::new(r, [c2, absent])],
        ),
        // Repeated variable inside one atom.
        SrcCq::new(vec![VarId(0)], vec![SrcAtom::new(r, [v(0), v(0)])]),
        // Head repeating one variable.
        SrcCq::new(
            vec![VarId(0), VarId(0)],
            vec![SrcAtom::new(r, [v(0), v(1)]), SrcAtom::new(a, [v(1)])],
        ),
    ];
    let mask = random_mask(&db, 11);
    for cq in shapes {
        let cq = cq.unwrap();
        for view in [View::full(&db), View::masked(&db, &mask)] {
            let reference = naive_answers(view, &cq);
            assert_eq!(eval::answers(view, &cq), reference, "{cq:?}");
            check_goal_directed(view, &cq, &reference);
        }
    }
}

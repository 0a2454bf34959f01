//! Equivalence of the shared scoring engine with the uncached matcher.
//!
//! The [`ScoringEngine`] memoizes match bitsets keyed by each disjunct's
//! compiled source query and derives UCQ stats by OR-ing per-disjunct
//! match bitsets. These
//! tests pin the contract that makes those shortcuts sound: on Example 3.6
//! and on randomized generated scenarios, the engine's `MatchStats` are
//! bit-identical to the uncached [`PreparedLabels`] path — including
//! unions assembled purely from cached bitsets, parent-delta refinements,
//! candidates whose bits came from the source-keyed match memo, and
//! candidates whose source disjuncts are all data-dead (a constant no
//! fact holds, or a variable in two columns that share no constant) —
//! and Proposition 3.5's radius monotonicity survives the caching layer.

use obx_core::matcher::PreparedLabels;
use obx_core::paper_example::PaperExample;
use obx_core::{
    ExplainTask, ParentHandle, PlannedCq, RefineDir, Scoring, ScoringEngine, SearchLimits,
};
use obx_datagen::random_scenario::random_query;
use obx_datagen::Scenario;
use obx_datagen::{random_scenario, university_scenario, RandomParams, UniversityParams};
use obx_query::{OntoAtom, OntoCq, OntoUcq, SrcCq, Term, VarId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::Arc;

/// Engine stats equal uncached stats on the paper's three queries, and on
/// every pairwise union of them (exercising bitset OR-composition).
#[test]
fn example_3_6_engine_matches_uncached() {
    let ex = PaperExample::new();
    let prepared = ex.prepared();
    let engine = ScoringEngine::new();

    for (name, q) in ex.queries() {
        let cached = engine.stats_ucq(&prepared, q).unwrap();
        let plain = prepared.stats_of(q).unwrap();
        assert_eq!(cached, plain, "stats diverge on {name}");
    }
    for (na, qa) in ex.queries() {
        for (nb, qb) in ex.queries() {
            let mut union = qa.clone();
            for d in qb.disjuncts() {
                union.push(d.clone());
            }
            let cached = engine.stats_ucq(&prepared, &union).unwrap();
            let plain = prepared.stats_of(&union).unwrap();
            assert_eq!(cached, plain, "union stats diverge on {na} ∪ {nb}");
        }
    }
    // Every disjunct was already cached by the singleton passes, so the
    // union passes above ran entirely on bitset ORs: no new evaluations.
    let evals_after_unions = engine.eval_calls();
    for (_, q) in ex.queries() {
        engine.stats_ucq(&prepared, q).unwrap();
    }
    assert_eq!(
        engine.eval_calls(),
        evals_after_unions,
        "re-scoring cached queries must not re-evaluate"
    );
    assert!(engine.cache_hits() > 0);
}

fn scenario_params(seed: u64) -> RandomParams {
    RandomParams {
        seed,
        n_individuals: 16,
        n_concept_facts: 22,
        n_role_facts: 26,
        n_concepts: 4,
        n_roles: 3,
        ..RandomParams::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// On randomized scenarios (well past the ≥3 required), engine stats —
    /// singleton and OR-composed — are identical to the uncached path.
    #[test]
    fn randomized_scenarios_engine_matches_uncached(seed in 0u64..500, atoms in 1usize..4) {
        let s = random_scenario(scenario_params(seed));
        let prepared = PreparedLabels::new(&s.system, &s.labels, 1);
        let engine = ScoringEngine::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xeeee);
        let mut queries: Vec<OntoUcq> = Vec::new();
        for _ in 0..4 {
            queries.push(random_query(&s.system, &mut rng, atoms));
        }
        if let Some(truth) = &s.ground_truth {
            queries.push(truth.clone());
        }

        for q in &queries {
            let (Ok(cached), Ok(plain)) =
                (engine.stats_ucq(&prepared, q), prepared.stats_of(q))
            else {
                // Rewrite-budget failures must agree between the paths.
                prop_assert!(
                    engine.stats_ucq(&prepared, q).is_err()
                        && prepared.stats_of(q).is_err()
                );
                continue;
            };
            prop_assert_eq!(cached, plain, "seed {} query {:?}", seed, q);
        }
        // OR-composition over the whole pool: the union's stats must come
        // out identical whether derived from cached bitsets or recomputed.
        let mut union = OntoUcq::default();
        for q in &queries {
            for d in q.disjuncts() {
                union.push(d.clone());
            }
        }
        if let (Ok(cached), Ok(plain)) =
            (engine.stats_ucq(&prepared, &union), prepared.stats_of(&union))
        {
            prop_assert_eq!(cached, plain, "union diverges on seed {}", seed);
        }

        // Second pass over the pool is pure cache: zero new evaluations.
        let evals = engine.eval_calls();
        for q in &queries {
            let _ = engine.stats_ucq(&prepared, q);
        }
        prop_assert_eq!(engine.eval_calls(), evals);
    }
}

/// A constant interned in every refinement scenario but held by no fact.
const ABSENT: &str = "absent";

/// The random scenario of `seed`, with [`ABSENT`] interned.
fn scenario(seed: u64) -> Scenario {
    let mut s = random_scenario(scenario_params(seed));
    s.system.db_mut().consts_mut().intern(ABSENT);
    s
}

/// A small university scenario of `seed`, with [`ABSENT`] interned. Its
/// columns are typed (students, subjects, universities, cities), so a
/// refinement that puts one variable at two of them compiles to
/// disjuncts the join rule drops.
fn typed_scenario(seed: u64) -> Scenario {
    let mut s = university_scenario(UniversityParams {
        n_students: 24,
        seed,
        ..UniversityParams::default()
    });
    s.system.db_mut().consts_mut().intern(ABSENT);
    s
}

/// A small scenario of `seed` whose mapping puts constants in assertion
/// heads (`H(x) ~> r(x, "home")`, `H(x) ~> s("home", x)`), with
/// [`ABSENT`] interned. Unfolding drops a disjunct that binds an answer
/// variable to such a constant, so an atom's query with a head can
/// compile empty where the same atom, existential in a candidate, is
/// live.
fn head_constant_scenario(seed: u64) -> Scenario {
    use rand::Rng;
    let n = 12;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4e4d);
    let mut facts = String::new();
    let mut labels = String::new();
    for i in 0..n {
        facts += &format!("Q(ind{i}, ind{})\n", rng.gen_range(0..n));
        let p = rng.gen_bool(0.5);
        let h = rng.gen_bool(0.5);
        if p {
            facts += &format!("P(ind{i})\n");
        }
        if h {
            facts += &format!("H(ind{i})\n");
        }
        labels += &format!("{} ind{i}\n", if p && h { '+' } else { '-' });
    }
    let schema = obx_srcdb::parse_schema("P/1 H/1 Q/2").unwrap();
    let mut db = obx_srcdb::parse_database(schema, &facts).unwrap();
    let tbox = obx_ontology::parse_tbox("concept A B\nrole r s\nA < B").unwrap();
    let (schema, consts) = db.schema_and_consts_mut();
    let mapping = obx_mapping::parse_mapping(
        schema,
        tbox.vocab(),
        consts,
        "P(x) ~> A(x)\nH(x) ~> B(x)\nQ(x, y) ~> r(x, y)\n\
         H(x) ~> r(x, \"home\")\nH(x) ~> s(\"home\", x)",
    )
    .unwrap();
    db.consts_mut().intern(ABSENT);
    let mut system = obx_obdm::ObdmSystem::new(obx_obdm::ObdmSpec::new(tbox, mapping), db);
    let labels = obx_core::Labels::parse(system.db_mut(), &labels).unwrap();
    Scenario {
        system,
        labels,
        ground_truth: None,
        description: format!("head constants({seed})"),
    }
}

/// Whether a body atom of `d` has an empty index slice in `db`: the atom
/// rule of `obx_query::eval::data_dead`, restated to tell its join rule
/// apart.
fn atom_dead(db: &obx_srcdb::Database, d: &SrcCq) -> bool {
    d.body().iter().any(|atom| {
        db.atoms_of(atom.rel).is_empty()
            || atom.args.iter().enumerate().any(|(pos, t)| {
                matches!(t, Term::Const(c) if db.atoms_with(atom.rel, pos, *c).is_empty())
            })
    })
}

/// Whether `cq`'s own compile on `system` leaves a source disjunct that
/// is not data-dead; `None` when the compile fails.
fn compiles_live(system: &obx_obdm::ObdmSystem, cq: &OntoCq) -> Option<bool> {
    let compiled = system.spec().compile_cq(cq).ok()?;
    let db = system.db();
    Some(
        compiled
            .src()
            .disjuncts()
            .iter()
            .any(|d| !obx_query::eval::data_dead(db, d)),
    )
}

/// The engine's liveness table, restated: whether a lookup of `cq`
/// answers it with the empty source query and no compile. On a spec
/// that compiles on the saturated route, a canonical form of two atoms
/// or more is read atom by atom, each with its variables renamed by
/// first occurrence, as a boolean query; the first atom whose query has
/// no live disjunct answers it, and the first one that fails to compile
/// ends the reading with no verdict.
fn table_dead(system: &obx_obdm::ObdmSystem, cq: &OntoCq) -> bool {
    let canon = cq.canonical();
    if canon.num_atoms() < 2 || system.spec().saturated_mapping().is_none() {
        return false;
    }
    for atom in canon.body() {
        let mut vars: Vec<VarId> = Vec::new();
        let mut rename = |t: Term| match t {
            Term::Var(v) => Term::Var(VarId(vars.iter().position(|&w| w == v).unwrap_or_else(|| {
                vars.push(v);
                vars.len() - 1
            }) as u32)),
            c => c,
        };
        let renamed = match *atom {
            OntoAtom::Concept(c, t) => OntoAtom::Concept(c, rename(t)),
            OntoAtom::Role(r, s, o) => {
                let s = rename(s);
                OntoAtom::Role(r, s, rename(o))
            }
        };
        let alone = OntoCq::new(Vec::new(), vec![renamed]).expect("one atom");
        match compiles_live(system, &alone) {
            Some(true) => {}
            Some(false) => return true,
            None => return false,
        }
    }
    false
}

/// The one-atom refinements of `root`, each with the direction it moves
/// in: a concept atom on the answer variable per concept, and per role a
/// role atom to a fresh variable, one from a fresh variable, one to
/// [`ABSENT`] and one to the individual `ind0` (Specialize), and every
/// safe one-atom drop (Generalize). Adding a superconcept of a
/// concept already in the body leaves the minimized rewriting, hence the
/// compiled source UCQ, unchanged: such a child is a source-equal
/// sibling of its parent. A role atom to [`ABSENT`] makes every source
/// disjunct data-dead, so those children share the empty source key; on
/// typed columns, a role atom that puts the answer variable where the
/// data holds other kinds of constant makes them join-dead.
fn refinements(system: &obx_obdm::ObdmSystem, root: &OntoCq) -> Vec<(RefineDir, OntoCq)> {
    let vocab = system.spec().tbox().vocab();
    let constants: Vec<Term> = [ABSENT, "ind0"]
        .into_iter()
        .filter_map(|name| system.db().consts().get(name))
        .map(Term::Const)
        .collect();
    let x = Term::Var(VarId(0));
    let fresh = Term::Var(VarId(root.max_var().map_or(1, |v| v + 1)));
    let mut out = Vec::new();
    let mut specialize = |atom: OntoAtom| {
        let mut body = root.body().to_vec();
        body.push(atom);
        if let Ok(cq) = OntoCq::new(root.head().to_vec(), body) {
            out.push((RefineDir::Specialize, cq));
        }
    };
    for c in vocab.concept_ids() {
        specialize(OntoAtom::Concept(c, x));
    }
    for r in vocab.role_ids() {
        specialize(OntoAtom::Role(r, x, fresh));
        specialize(OntoAtom::Role(r, fresh, x));
        for &k in &constants {
            specialize(OntoAtom::Role(r, x, k));
        }
    }
    for skip in 0..root.num_atoms() {
        let mut body = root.body().to_vec();
        body.remove(skip);
        if let Ok(cq) = OntoCq::new(root.head().to_vec(), body) {
            out.push((RefineDir::Generalize, cq));
        }
    }
    out
}

/// What a [`check_refinements_against_uncached`] run saw.
#[derive(Default)]
struct PoolCounts {
    /// Candidates whose compiled source UCQ an earlier candidate with
    /// another ontology key already had (source-equal siblings).
    siblings: u64,
    /// Source disjuncts the sequential incremental engine dropped as
    /// data-dead.
    dead: u64,
    /// Candidates the engine's liveness table answered uncompiled.
    table: u64,
    /// Source disjuncts of the candidates' own compiles that the join
    /// rule alone kills: every atom has facts, yet one variable's columns
    /// share no constant.
    join_dead: u64,
    /// The part of `join_dead` in candidates the table answered, which
    /// the engine never compiles.
    table_join_dead: u64,
}

/// Scores random roots and their refinements on scenario `s`, in full
/// and with parent-delta evaluation, and checks every candidate's engine
/// stats against the uncached matcher and its hits against the model's.
/// Returns what the run saw ([`PoolCounts`]).
fn check_refinements_against_uncached(s: &Scenario, seed: u64, atoms: usize) -> PoolCounts {
    let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
    let base = ExplainTask::new(&s.system, &s.labels, 1, &scoring, SearchLimits::default())
        .expect("the scenario labels tuples");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let roots: Vec<OntoCq> = (0..3)
        .map(|_| random_query(&s.system, &mut rng, atoms).disjuncts()[0].clone())
        .collect();

    // Hits, counted the way the engine keys: a lookup whose sorted
    // canonical source disjuncts that are not data-dead (by either rule)
    // were already seen, from a repeated ontology key or from a
    // source-equal sibling (a new ontology key). A candidate the
    // liveness table answers has the empty key and is not compiled; the
    // others compile, and their dropped disjuncts are what the engine
    // counts as dead. The count does not depend on the scoring order. A
    // root that neither compiles nor is table-dead is not refined below,
    // so its refinements are not counted.
    let compile = |cq: &OntoCq| s.system.spec().compile(&OntoUcq::from_cq(cq.canonical()));
    let scores = |cq: &OntoCq| table_dead(&s.system, cq) || compile(cq).is_ok();
    let mut onto_keys = HashSet::new();
    let mut src_keys = HashSet::new();
    let mut hits = 0u64;
    let mut dead = 0u64;
    let mut counts = PoolCounts::default();
    for root in roots.iter().filter(|r| scores(r)) {
        let pool = refinements(&s.system, root).into_iter().map(|(_, cq)| cq);
        for cq in std::iter::once(root.clone()).chain(pool) {
            let new_key = onto_keys.insert(cq.canonical());
            let db = s.system.db();
            let join_dead = |src: &[SrcCq]| {
                let dead = src.iter().filter(|d| obx_query::eval::data_dead(db, d));
                dead.filter(|d| !atom_dead(db, d)).count() as u64
            };
            let mut src: Vec<SrcCq> = if table_dead(&s.system, &cq) {
                counts.table += 1;
                if let Ok(compiled) = compile(&cq) {
                    let n = join_dead(compiled.src().disjuncts());
                    counts.join_dead += n;
                    counts.table_join_dead += n;
                }
                Vec::new()
            } else {
                let Ok(compiled) = compile(&cq) else {
                    continue;
                };
                counts.join_dead += join_dead(compiled.src().disjuncts());
                compiled.src().disjuncts().to_vec()
            };
            src.retain(|d| {
                let data_dead = obx_query::eval::data_dead(db, d);
                dead += u64::from(data_dead);
                !data_dead
            });
            src.sort();
            if !src_keys.insert(src) {
                hits += 1;
                counts.siblings += u64::from(new_key);
            }
        }
    }

    for incremental in [false, true] {
        let engine = Arc::new(ScoringEngine::with_config(incremental));
        let task = base.with_engine(Arc::clone(&engine));
        for root in &roots {
            let Ok(parent) = task.score_cq(root) else {
                continue;
            };
            let planned: Vec<PlannedCq> = refinements(&s.system, root)
                .into_iter()
                .map(|(dir, cq)| PlannedCq {
                    cq,
                    parent: ParentHandle::from_explanation(dir, &parent),
                })
                .collect();
            let expected = planned.iter().filter(|p| scores(&p.cq)).count();
            let out = engine.score_batch_planned(&task, planned, usize::MAX, usize::MAX, &[]);
            assert_eq!(
                out.explanations.len(),
                expected,
                "seed {seed}: a candidate was lost"
            );
            for e in std::iter::once(&parent).chain(&out.explanations) {
                let plain = task.prepared().stats_of(&e.query).expect("scored above");
                assert_eq!(
                    e.stats, plain,
                    "seed {seed}, incremental {incremental}: {:?}",
                    e.query
                );
            }
        }
        assert_eq!(engine.cache_hits(), hits, "seed {seed}");
        assert_eq!(engine.dead_candidates(), counts.table, "seed {seed}");
        assert_eq!(engine.dead_disjuncts(), dead, "seed {seed}");
        if incremental {
            counts.dead = engine.dead_disjuncts();
        }
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Parent-delta and full scoring give the uncached stats for every refinement, source-memo hits included.
    #[test]
    fn refinements_and_source_siblings_match_uncached(seed in 0u64..500, atoms in 1usize..4) {
        check_refinements_against_uncached(&scenario(seed), seed, atoms);
        check_refinements_against_uncached(&typed_scenario(seed), seed, atoms);
        check_refinements_against_uncached(&head_constant_scenario(seed), seed, atoms);
    }
}

/// Scores random roots' one- and two-step refinements one lookup at a
/// time and checks every candidate the liveness table answered: the
/// uncached matcher finds it matches no labelled tuple, and its own
/// compile would have left no live disjunct either, so the table changes
/// no bit and no memo key. Returns how many the table answered.
fn check_table_answers(s: &Scenario, seed: u64, atoms: usize) -> u64 {
    let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
    let task = ExplainTask::new(&s.system, &s.labels, 1, &scoring, SearchLimits::default())
        .expect("the scenario labels tuples")
        .with_engine(Arc::new(ScoringEngine::new()));
    let engine = task.engine();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7ab1e);
    let mut answered = 0;
    for _ in 0..2 {
        let root = random_query(&s.system, &mut rng, atoms).disjuncts()[0].clone();
        let children = refinements(&s.system, &root)
            .into_iter()
            .filter(|(dir, _)| *dir == RefineDir::Specialize);
        for (_, child) in children {
            let grandchildren = refinements(&s.system, &child).into_iter().map(|(_, cq)| cq);
            for cq in std::iter::once(child.clone()).chain(grandchildren) {
                let before = engine.dead_candidates();
                let Ok(e) = task.score_cq(&cq) else {
                    continue;
                };
                if engine.dead_candidates() == before {
                    continue;
                }
                answered += 1;
                let Ok(plain) = task.prepared().stats_of(&OntoUcq::from_cq(cq.clone())) else {
                    continue;
                };
                assert_eq!(
                    (plain.pos_matched, plain.neg_matched),
                    (0, 0),
                    "seed {seed}: the table answered a matching {cq:?}"
                );
                assert_eq!(e.stats, plain, "seed {seed}: {cq:?}");
                assert_ne!(
                    compiles_live(&s.system, &cq.canonical()),
                    Some(true),
                    "seed {seed}: {cq:?} compiles to a live disjunct"
                );
            }
        }
    }
    answered
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// The liveness table answers only candidates that match nothing.
    #[test]
    fn table_answered_candidates_match_nothing(seed in 0u64..500, atoms in 1usize..3) {
        check_table_answers(&scenario(seed), seed, atoms);
        check_table_answers(&typed_scenario(seed), seed, atoms);
        check_table_answers(&head_constant_scenario(seed), seed, atoms);
    }
}

/// The property above is not vacuous: on fixed seeds the table answers
/// refinements of both kinds of scenario.
#[test]
fn the_liveness_table_answers_refinements() {
    let random: u64 = (0..4)
        .map(|seed| check_table_answers(&scenario(seed), seed, 1))
        .sum();
    let typed: u64 = (0..2)
        .map(|seed| check_table_answers(&typed_scenario(seed), seed, 1))
        .sum();
    let head_constant: u64 = (0..2)
        .map(|seed| check_table_answers(&head_constant_scenario(seed), seed, 1))
        .sum();
    assert!(
        random > 0,
        "the table answered no random-scenario refinement"
    );
    assert!(typed > 0, "the table answered no typed-scenario refinement");
    assert!(
        head_constant > 0,
        "the table answered no head-constant-scenario refinement"
    );
}

/// Scores random roots' refinement batches with finite floors — a
/// selection window of 3, a pool of 4 holding the root's score — and
/// against a baseline engine that prunes nothing: every baseline
/// candidate that reaches the final cut must be among the floored
/// batch's explanations with its exact stats. Returns (pruned, cutoffs)
/// summed over the batches.
fn check_floored_batches(seed: u64, atoms: usize, scoring: &Scoring) -> (usize, u64) {
    const WINDOW: usize = 3;
    const CAP: usize = 4;
    let s = scenario(seed);
    let base = ExplainTask::new(&s.system, &s.labels, 1, scoring, SearchLimits::default())
        .expect("the scenario labels tuples");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf100);
    let roots: Vec<OntoCq> = (0..3)
        .map(|_| random_query(&s.system, &mut rng, atoms).disjuncts()[0].clone())
        .collect();
    // One batch over every root's refinements, as a beam round mixes the
    // children of several parents; the pool holds the roots' scores.
    let run =
        |incremental: bool| {
            let engine = Arc::new(ScoringEngine::with_config(incremental));
            let task = base.with_engine(Arc::clone(&engine));
            let mut pool = Vec::new();
            let mut planned = Vec::new();
            for root in &roots {
                let Ok(parent) = task.score_cq(root) else {
                    continue;
                };
                pool.push(parent.score);
                planned.extend(refinements(&s.system, root).into_iter().map(|(dir, cq)| {
                    PlannedCq {
                        cq,
                        parent: ParentHandle::from_explanation(dir, &parent),
                    }
                }));
            }
            let mut seen = HashSet::new();
            planned.retain(|p| seen.insert(p.cq.canonical()));
            let out = engine.score_batch_planned(&task, planned, WINDOW, CAP, &pool);
            let rows: Vec<_> = out
                .explanations
                .iter()
                .map(|e| (e.query.clone(), e.score.to_bits(), e.stats))
                .collect();
            (pool, rows, out.pruned, engine.cutoffs())
        };
    let (pool, kept, pruned, cutoffs) = run(true);
    let (_, all, none, _) = run(false);
    assert_eq!(none, 0, "the baseline engine never prunes");
    assert_eq!(
        kept.len() + pruned,
        all.len(),
        "seed {seed}: a candidate was lost"
    );
    let mut batch: Vec<f64> = all.iter().map(|r| f64::from_bits(r.1)).collect();
    batch.sort_by(|a, b| b.total_cmp(a));
    let mut ranked = batch.iter().chain(&pool).copied().collect::<Vec<_>>();
    ranked.sort_by(|a, b| b.total_cmp(a));
    let nth = |v: &[f64], k: usize| v.get(k - 1).copied().unwrap_or(f64::NEG_INFINITY);
    let cut = nth(&batch, WINDOW).min(nth(&ranked, CAP));
    for row in all.iter().filter(|r| f64::from_bits(r.1) >= cut) {
        assert!(
            kept.contains(row),
            "seed {seed}: {:?} reaches the cut but was pruned",
            row.0
        );
    }
    (pruned, cutoffs)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Rising floors and in-evaluation cutoffs never drop a candidate
    /// that could rank.
    #[test]
    fn floored_batches_are_thread_independent_and_exact(seed in 0u64..500, atoms in 1usize..4) {
        check_floored_batches(seed, atoms, &Scoring::paper_weighted(1.0, 1.0, 1.0));
        let s = random_scenario(scenario_params(seed));
        let complete = Scoring::complete(s.labels.pos().len(), s.labels.neg().len());
        check_floored_batches(seed, atoms, &complete);
    }
}

/// The property above is not vacuous: on fixed seeds the floors prune,
/// and some of the pruning happens mid-evaluation.
#[test]
fn floored_batches_prune_before_and_during_evaluation() {
    let (mut pruned, mut cutoffs) = (0, 0);
    for seed in 0..4 {
        let s = random_scenario(scenario_params(seed));
        let complete = Scoring::complete(s.labels.pos().len(), s.labels.neg().len());
        for scoring in [Scoring::paper_weighted(1.0, 1.0, 1.0), complete] {
            let (p, c) = check_floored_batches(seed, 2, &scoring);
            pruned += p;
            cutoffs += c;
        }
    }
    assert!(
        pruned as u64 > cutoffs,
        "no candidate was pruned before compilation"
    );
    assert!(cutoffs > 0, "no evaluation was cut off");
}

/// The property above is not vacuous: on fixed seeds, the random
/// refinement pools contain source-equal siblings, so the source memo
/// answers some of them, and data-dead disjuncts, so the engine drops
/// some; the typed pools contain disjuncts only the join rule drops,
/// and the engine drops each of them at compile unless the liveness
/// table answered its candidate uncompiled.
#[test]
fn source_equal_siblings_occur_in_refinement_pools() {
    let (siblings, dead) = (0..4)
        .map(|seed| check_refinements_against_uncached(&scenario(seed), seed, 2))
        .fold((0, 0), |(s, d), c| (s + c.siblings, d + c.dead));
    assert!(siblings > 0, "no refinement reached the source memo");
    assert!(dead > 0, "no refinement had a data-dead disjunct");
    let typed: Vec<PoolCounts> = (0..2)
        .map(|seed| check_refinements_against_uncached(&typed_scenario(seed), seed, 2))
        .collect();
    assert!(
        typed.iter().any(|c| c.join_dead > c.table_join_dead),
        "no compiled refinement had a disjunct only the join rule drops"
    );
    assert!(typed
        .iter()
        .all(|c| c.dead + c.table_join_dead >= c.join_dead));
}

/// Proposition 3.5 through the engine: growing the border radius never
/// loses a J-match, so matched counts are monotone non-decreasing in `r` —
/// and at every radius the engine agrees with the uncached matcher.
#[test]
fn radius_monotonicity_survives_the_engine() {
    let s = random_scenario(scenario_params(7));
    let truth = s.ground_truth.as_ref().expect("scenario plants a query");
    let mut prev_pos = 0;
    let mut prev_neg = 0;
    for r in 0..=4 {
        let prepared = PreparedLabels::new(&s.system, &s.labels, r);
        let engine = ScoringEngine::new();
        let cached = engine.stats_ucq(&prepared, truth).unwrap();
        let plain = prepared.stats_of(truth).unwrap();
        assert_eq!(cached, plain, "engine diverges at radius {r}");
        assert!(
            cached.pos_matched >= prev_pos && cached.neg_matched >= prev_neg,
            "match counts shrank from radius {} to {r}",
            r.max(1) - 1,
        );
        prev_pos = cached.pos_matched;
        prev_neg = cached.neg_matched;
    }
}

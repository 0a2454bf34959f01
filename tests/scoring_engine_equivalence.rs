//! Equivalence of the shared scoring engine with the uncached matcher.
//!
//! The [`ScoringEngine`] memoizes compiled disjuncts keyed by canonical
//! form and derives UCQ stats by OR-ing per-disjunct match bitsets. These
//! tests pin the contract that makes those shortcuts sound: on Example 3.6
//! and on randomized generated scenarios, the engine's `MatchStats` are
//! bit-identical to the uncached [`PreparedLabels`] path — including
//! unions assembled purely from cached bitsets, parent-delta refinements,
//! and candidates whose bits came from the source-keyed match memo — and
//! Proposition 3.5's radius monotonicity survives the caching layer.

use obx_core::matcher::PreparedLabels;
use obx_core::paper_example::PaperExample;
use obx_core::{
    ExplainTask, ParentHandle, PlannedCq, RefineDir, Scoring, ScoringEngine, SearchLimits,
};
use obx_datagen::random_scenario::random_query;
use obx_datagen::{random_scenario, RandomParams};
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

/// The one-atom refinements of `root`, each with the direction it moves
/// in: a concept atom on the answer variable per concept and a role atom
/// to a fresh variable per role (Specialize), and every safe one-atom
/// drop (Generalize). Adding a superconcept of a concept already in the
/// body leaves the minimized rewriting, hence the compiled source UCQ,
/// unchanged: such a child is a source-equal sibling of its parent.
fn refinements(system: &obx_obdm::ObdmSystem, root: &OntoCq) -> Vec<(RefineDir, OntoCq)> {
    let vocab = system.spec().tbox().vocab();
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

/// Scores random roots and their refinements on one scenario, in full and
/// with parent-delta evaluation, on one and two scoring threads, and
/// checks every candidate's engine stats against the uncached matcher.
/// Returns the candidates whose compiled source UCQ an earlier candidate
/// with another ontology key already had (source-equal siblings).
fn check_refinements_against_uncached(seed: u64, atoms: usize) -> u64 {
    let s = random_scenario(scenario_params(seed));
    let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
    let base = ExplainTask::new(&s.system, &s.labels, 1, &scoring, SearchLimits::default())
        .expect("the scenario labels tuples");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let roots: Vec<OntoCq> = (0..3)
        .map(|_| random_query(&s.system, &mut rng, atoms).disjuncts()[0].clone())
        .collect();

    // Siblings, counted the way the engine keys: a healthy ontology miss
    // whose sorted canonical source disjuncts were already seen. The
    // count does not depend on the scoring order. A root that fails to
    // compile is not refined below, so its refinements are not counted.
    let compile = |cq: &OntoCq| s.system.spec().compile(&OntoUcq::from_cq(cq.canonical()));
    let mut onto_keys = HashSet::new();
    let mut src_keys = HashSet::new();
    let mut siblings = 0u64;
    for root in roots.iter().filter(|r| compile(r).is_ok()) {
        let pool = refinements(&s.system, root).into_iter().map(|(_, cq)| cq);
        for cq in std::iter::once(root.clone()).chain(pool) {
            if !onto_keys.insert(cq.canonical()) {
                continue;
            }
            let Ok(compiled) = compile(&cq) else {
                continue;
            };
            let mut src: Vec<SrcCq> = compiled.src().disjuncts().to_vec();
            src.sort();
            if !src_keys.insert(src) {
                siblings += 1;
            }
        }
    }

    for incremental in [false, true] {
        let engines = [1, 2].map(|threads| {
            let engine = Arc::new(ScoringEngine::with_config(threads, incremental));
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
                let expected = planned.iter().filter(|p| compile(&p.cq).is_ok()).count();
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
                        "seed {seed}, {threads} threads, incremental {incremental}: {:?}",
                        e.query
                    );
                }
            }
            engine
        });
        let [one, two] = &engines;
        assert_eq!(one.src_hits(), siblings, "seed {seed}");
        // On the pool, a shared source is still evaluated by its first
        // candidate in batch order, so the evaluator work is the
        // sequential run's. (Two candidates with one ontology key may
        // both miss the ontology cache there; the second is then a source
        // hit instead of a cache hit.)
        let work = |e: &ScoringEngine| {
            (
                e.eval_calls(),
                e.batch_calls(),
                e.eval_nodes(),
                e.cache_hits() + e.src_hits(),
            )
        };
        assert_eq!(
            work(one),
            work(two),
            "seed {seed}, incremental {incremental}"
        );
    }
    siblings
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Parent-delta and full scoring, on one and two threads, give the
    /// uncached stats for every refinement, source-memo hits included.
    #[test]
    fn refinements_and_source_siblings_match_uncached(seed in 0u64..500, atoms in 1usize..4) {
        check_refinements_against_uncached(seed, atoms);
    }
}

/// The engine counters that must not depend on the thread count.
fn counters(e: &ScoringEngine) -> [u64; 6] {
    [
        e.eval_calls(),
        e.eval_nodes(),
        e.src_hits(),
        e.batch_calls(),
        e.cutoffs(),
        e.cache_misses(),
    ]
}

/// Scores random roots' refinement batches with finite floors — a
/// selection window of 3, a pool of 4 holding the root's score — on one
/// and on two scoring threads, and against a baseline engine that prunes
/// nothing. Both thread counts must return the same explanations and the
/// same `pruned`, `evals`, `eval_nodes`, `src_hits`, `batch_calls` and
/// cutoffs; every baseline candidate that reaches the final cut must be
/// among them with its exact stats. Returns (pruned, cutoffs) summed over
/// the batches.
fn check_floored_batches(seed: u64, atoms: usize, scoring: &Scoring) -> (usize, u64) {
    const WINDOW: usize = 3;
    const CAP: usize = 4;
    let s = random_scenario(scenario_params(seed));
    let base = ExplainTask::new(&s.system, &s.labels, 1, scoring, SearchLimits::default())
        .expect("the scenario labels tuples");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf100);
    let roots: Vec<OntoCq> = (0..3)
        .map(|_| random_query(&s.system, &mut rng, atoms).disjuncts()[0].clone())
        .collect();
    // One batch over every root's refinements, as a beam round mixes the
    // children of several parents; the pool holds the roots' scores.
    let run =
        |threads: usize, incremental: bool| {
            let engine = Arc::new(ScoringEngine::with_config(threads, incremental));
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
            ((pool, rows, out.pruned), counters(&engine))
        };
    let (one, one_counters) = run(1, true);
    let (two, two_counters) = run(2, true);
    assert_eq!(
        one, two,
        "seed {seed}: output or pruned differs across threads"
    );
    assert_eq!(
        one_counters, two_counters,
        "seed {seed}: counters differ across threads"
    );
    let (pool, kept, pruned) = one;
    let ((_, all, none), _) = run(1, false);
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
    (pruned, one_counters[4])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Rising floors and in-evaluation cutoffs are thread-count
    /// independent and never drop a candidate that could rank.
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

/// The property above is not vacuous: on fixed seeds, the refinement pools
/// contain source-equal siblings, so the source memo answers some of them.
#[test]
fn source_equal_siblings_occur_in_refinement_pools() {
    let siblings: u64 = (0..4)
        .map(|seed| check_refinements_against_uncached(seed, 2))
        .sum();
    assert!(siblings > 0, "no refinement reached the source memo");
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

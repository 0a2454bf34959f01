//! Refinement monotonicity: the lattice invariant behind delta evaluation.
//!
//! `crate::prune`'s whole argument rests on one structural fact about the
//! refinement operators of Definition 3.7 search: on a fixed set of
//! borders, every one-step *specialization* child J-matches a **subset**
//! of its parent's labelled tuples, and every one-step *generalization*
//! child a **superset**. These tests check that invariant directly on the
//! operators the strategies actually use
//! (`obx_core::strategies::refinement`), on the paper's example and on
//! randomized scenarios — and that the restricted (parent-delta) match
//! evaluation returns bit-identical results to full evaluation while
//! invoking the evaluator strictly fewer times whenever the parent's
//! bitset is not degenerate.

use obx_core::explain::{ExplainTask, SearchLimits};
use obx_core::labels::Labels;
use obx_core::prune::RefineDir;
use obx_core::score::Scoring;
use obx_core::ScoringEngine;
use obx_datagen::random_scenario::random_query;
use obx_datagen::{random_scenario, RandomParams};
use obx_obdm::example_3_6_system;
use obx_query::OntoCq;
use obx_util::Interrupt;
use proptest::prelude::*;
use rand::SeedableRng;

/// The paper's five labelled students.
const PAPER_LABELS: &str = "+ A10\n+ B80\n+ C12\n+ D50\n- E25";

/// For every one-step child of `cq` in direction `dir`: the subset (or
/// superset) invariant holds, and restricted evaluation against the
/// parent's bits equals full evaluation bit for bit. Returns how many
/// children were checked.
fn check_lattice_step(task: &ExplainTask<'_>, cq: &OntoCq, dir: RefineDir) -> usize {
    let engine = ScoringEngine::with_config(1, true);
    let prepared = task.prepared();
    let none = Interrupt::none();
    let parent = match engine.disjunct(prepared, cq, &none) {
        Ok(bits) => bits,
        // A parent the mapping cannot compile has no children to check.
        Err(_) => return 0,
    };
    let consts = prepared.relevant_constants(task.limits().max_constants);
    let children = match dir {
        RefineDir::Specialize => {
            obx_core::strategies::refinement::specializations(task, cq, &consts)
        }
        RefineDir::Generalize => obx_core::strategies::refinement::generalizations(task, cq),
    };
    let mut checked = 0;
    for child in &children {
        let (Ok(compiled), Ok(full)) = (
            task.system().spec().compile_cq(&child.canonical()),
            engine.disjunct(prepared, child, &none),
        ) else {
            continue;
        };
        match dir {
            RefineDir::Specialize => assert!(
                full.is_subset_of(&parent).unwrap(),
                "specialization child matched a tuple its parent missed: {child:?} ⊄ {cq:?}"
            ),
            RefineDir::Generalize => assert!(
                parent.is_subset_of(&full).unwrap(),
                "generalization child missed a tuple its parent matched: {child:?} ⊅ {cq:?}"
            ),
        }
        // Delta evaluation must reproduce the full bitset exactly, and
        // only ever touch the tuples the direction says are undecided.
        let (restricted, evaluated) = prepared
            .match_bits_restricted(&compiled, &parent, dir)
            .expect("the parent bitset is shaped for the same λ");
        assert_eq!(
            restricted, *full,
            "restricted evaluation diverges from full on {child:?}"
        );
        let undecided = match dir {
            RefineDir::Specialize => parent.stats().pos_matched + parent.stats().neg_matched,
            RefineDir::Generalize => {
                let s = parent.stats();
                (s.pos_total - s.pos_matched) + (s.neg_total - s.neg_matched)
            }
        };
        assert_eq!(
            evaluated, undecided,
            "restricted evaluation touched a decided tuple on {child:?}"
        );
        checked += 1;
    }
    checked
}

#[test]
fn paper_example_children_respect_monotonicity() {
    let mut sys = example_3_6_system();
    let labels = Labels::parse(sys.db_mut(), PAPER_LABELS).unwrap();
    let seed = sys.parse_cq("q(x) :- likes(x, y)").unwrap();
    let scoring = Scoring::accuracy();
    let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();

    // Walk two levels of the specialization lattice from the most general
    // start the beam strategy uses, checking each parent→child edge; then
    // generalize the deepest children back up and check the dual.
    let consts = task
        .prepared()
        .relevant_constants(task.limits().max_constants);
    let mut frontier: Vec<OntoCq> = vec![seed];
    let mut spec_edges = 0;
    for _ in 0..2 {
        let mut next = Vec::new();
        for cq in &frontier {
            spec_edges += check_lattice_step(&task, cq, RefineDir::Specialize);
            next.extend(obx_core::strategies::refinement::specializations(
                &task, cq, &consts,
            ));
        }
        next.truncate(12);
        frontier = next;
    }
    assert!(spec_edges > 0, "no specialization edges were checked");

    let mut gen_edges = 0;
    for cq in frontier.iter().take(8) {
        gen_edges += check_lattice_step(&task, cq, RefineDir::Generalize);
    }
    assert!(gen_edges > 0, "no generalization edges were checked");
}

fn scenario_params(seed: u64) -> RandomParams {
    RandomParams {
        seed,
        n_individuals: 14,
        n_concept_facts: 20,
        n_role_facts: 22,
        n_concepts: 4,
        n_roles: 3,
        ..RandomParams::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// On randomized scenarios and randomized starting queries, every
    /// one-step specialization stays a subset and every one-step
    /// generalization a superset, with restricted == full evaluation.
    #[test]
    fn randomized_children_respect_monotonicity(seed in 0u64..500, atoms in 1usize..3) {
        let s = random_scenario(scenario_params(seed));
        let scoring = Scoring::accuracy();
        let task = ExplainTask::new(
            &s.system, &s.labels, 1, &scoring, SearchLimits::default(),
        ).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xbeef);
        for _ in 0..3 {
            let q = random_query(&s.system, &mut rng, atoms);
            for cq in q.disjuncts() {
                check_lattice_step(&task, cq, RefineDir::Specialize);
                check_lattice_step(&task, cq, RefineDir::Generalize);
            }
        }
    }
}

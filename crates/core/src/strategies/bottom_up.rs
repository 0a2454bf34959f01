//! Bottom-up generalization from positive borders.
//!
//! For each (sampled) positive tuple `t`, the *most specific query* of `t`
//! is built from the virtual ABox of its border: every retrieved fact
//! becomes a body atom, `t`'s constants become the answer variables, and
//! all other individuals stay as constants. That query J-matches `t` by
//! construction (it is essentially `B_{t,r}` itself read through `M`).
//! The search then climbs the generalization lattice with three upward
//! operators — drop an atom, turn a constant into a fresh variable,
//! replace a predicate by a direct super-predicate (`studies ⇒ likes`) —
//! keeping a beam of the highest-scoring generalizations.
//!
//! This is the query-level analogue of bottom-up ILP (relative least
//! general generalization), and the only built-in strategy that supports
//! λ of arbitrary arity.

use super::{
    beam_window, dedup_candidates, dedup_planned, pool_cap, pool_floor_of, round_span,
    score_batch_outcome, score_batch_planned, select_beam,
};
use crate::engine::PlannedCq;
use crate::explain::{
    finalize_report, rank, ExplainError, ExplainReport, ExplainTask, Explanation, Strategy,
};
use crate::prune::{ParentHandle, RefineDir};
use obx_mapping::virtual_abox;
use obx_ontology::{BasicConcept, Role};
use obx_query::{OntoAtom, OntoCq, Term, VarId};
use obx_srcdb::{Const, View};
use obx_util::{FxHashMap, FxHashSet};

/// Bottom-up generalization (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct BottomUpGeneralize {
    /// How many positive tuples to seed from (the best seeds usually
    /// suffice; more seeds cost proportionally more).
    pub max_seeds: usize,
    /// Cap on the most-specific query's body (huge borders are truncated
    /// deterministically).
    pub max_seed_atoms: usize,
}

impl Default for BottomUpGeneralize {
    fn default() -> Self {
        Self {
            max_seeds: 4,
            max_seed_atoms: 16,
        }
    }
}

impl Strategy for BottomUpGeneralize {
    fn name(&self) -> &'static str {
        "bottom-up"
    }

    fn explain(&self, task: &ExplainTask<'_>) -> Result<Vec<Explanation>, ExplainError> {
        self.explain_with_status(task).map(|r| r.explanations)
    }

    fn explain_with_status(&self, task: &ExplainTask<'_>) -> Result<ExplainReport, ExplainError> {
        let limits = task.limits();
        let mut seeds: Vec<OntoCq> = Vec::new();
        for (tuple, border) in task.prepared().pos().iter().take(self.max_seeds) {
            if let Some(cq) = most_specific_query(task, tuple, border, self.max_seed_atoms) {
                seeds.push(cq);
            }
        }
        if seeds.is_empty() {
            return Err(ExplainError::NoLabels);
        }
        let seeds = dedup_candidates(seeds);
        let mut seen: FxHashSet<OntoCq> = seeds.iter().cloned().collect();
        let mut quarantined = 0usize;
        let mut pruned = 0usize;
        let cap = pool_cap(&limits);
        let outcome = score_batch_outcome(task, seeds);
        quarantined += outcome.quarantined;
        let scored = outcome.explanations;
        // Rank-truncate immediately so the per-round prune floor (the
        // cap-th pool score) is well defined from the first round.
        let mut pool = rank(scored.clone(), cap);
        let mut beam = select_beam(scored, limits.beam_width);

        // Generalization must be able to strip a full-size seed down to a
        // small query: one atom (or one constant) disappears per round, so
        // the round budget scales with the seed size rather than using the
        // top-down default.
        let rounds = limits.max_rounds.max(self.max_seed_atoms + 4);
        for _round in 0..rounds {
            // Budget checkpoint at round granularity (anytime contract):
            // return the best generalizations reached so far.
            if task.stop_reason().is_some() {
                break;
            }
            let mut next: Vec<PlannedCq> = Vec::new();
            for e in &beam {
                // Children are one-step generalizations: the parent's match
                // bits under-approximate each child's, which is the dual
                // monotonicity the engine's delta evaluation and bound
                // pruning need (crate::prune).
                let parent = ParentHandle::from_explanation(RefineDir::Generalize, e);
                for d in e.query.disjuncts() {
                    for cq in generalize(task, d) {
                        next.push(PlannedCq {
                            cq,
                            parent: parent.clone(),
                        });
                    }
                }
            }
            let fresh = dedup_planned(next, &mut seen);
            if fresh.is_empty() {
                break;
            }
            let floor = pool_floor_of(&pool, cap);
            let mut rsp = round_span(task, "bottom_up_round", _round, fresh.len(), floor);
            let outcome =
                score_batch_planned(task, fresh, beam_window(limits.beam_width), cap, &pool);
            rsp.count("pruned", outcome.pruned as u64);
            quarantined += outcome.quarantined;
            pruned += outcome.pruned;
            let scored = outcome.explanations;
            if scored.is_empty() {
                break;
            }
            pool.extend(scored.clone());
            pool = rank(pool, cap);
            beam = select_beam(scored, limits.beam_width);
        }
        Ok(finalize_report(
            task,
            pool,
            limits.top_k,
            quarantined,
            pruned,
        ))
    }
}

/// Builds the most specific query of `tuple` from its border's virtual
/// ABox. Returns `None` when the border retrieves nothing for the tuple
/// (no atom to anchor the answer variables).
fn most_specific_query(
    task: &ExplainTask<'_>,
    tuple: &[Const],
    border: &obx_srcdb::AtomSet,
    max_seed_atoms: usize,
) -> Option<OntoCq> {
    let system = task.system();
    let abox = virtual_abox(system.spec().mapping(), View::masked(system.db(), border));
    // Tuple constants ↦ answer variables; everything else stays constant.
    let var_of: FxHashMap<Const, VarId> = tuple
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, VarId(i as u32)))
        .collect();
    let term = |c: Const| -> Term {
        var_of
            .get(&c)
            .map(|&v| Term::Var(v))
            .unwrap_or(Term::Const(c))
    };
    let mut body: Vec<OntoAtom> = Vec::new();
    for (c, i) in abox.concept_assertions() {
        body.push(OntoAtom::Concept(c, term(i)));
    }
    for (r, s, o) in abox.role_assertions() {
        body.push(OntoAtom::Role(r, term(s), term(o)));
    }
    // Deterministic truncation: prefer atoms that mention answer
    // variables, then lexicographic.
    let mentions_head = |a: &OntoAtom| a.terms().any(|t| t.is_var());
    body.sort_by_key(|a| (!mentions_head(a), format!("{a:?}")));
    body.truncate(max_seed_atoms);
    let head: Vec<VarId> = (0..tuple.len() as u32).map(VarId).collect();
    OntoCq::new(head, body).ok()
}

/// All one-step generalizations of `cq`.
pub(super) fn generalize(task: &ExplainTask<'_>, cq: &OntoCq) -> Vec<OntoCq> {
    let reasoner = task.system().spec().reasoner();
    let mut out: Vec<OntoCq> = Vec::new();
    let fresh = VarId(cq.max_var().map_or(0, |m| m + 1));

    // 1. Drop one atom (head variables must stay bound).
    if cq.num_atoms() > 1 {
        for i in 0..cq.num_atoms() {
            let mut body = cq.body().to_vec();
            body.remove(i);
            if let Ok(q) = OntoCq::new(cq.head().to_vec(), body) {
                out.push(q);
            }
        }
    }

    // 2. Replace one constant (all its occurrences) by a fresh variable.
    let consts: FxHashSet<Const> = cq
        .body()
        .iter()
        .flat_map(|a| a.terms())
        .filter_map(Term::as_const)
        .collect();
    for c in consts {
        let body: Vec<OntoAtom> = cq
            .body()
            .iter()
            .map(|a| {
                let map = |t: Term| {
                    if t == Term::Const(c) {
                        Term::Var(fresh)
                    } else {
                        t
                    }
                };
                match *a {
                    OntoAtom::Concept(k, t) => OntoAtom::Concept(k, map(t)),
                    OntoAtom::Role(r, t1, t2) => OntoAtom::Role(r, map(t1), map(t2)),
                }
            })
            .collect();
        out.push(cq.with_body(body));
    }

    // 3. Replace one atom's predicate by a direct super-predicate.
    for (i, atom) in cq.body().iter().enumerate() {
        match *atom {
            OntoAtom::Concept(c, t) => {
                for sup in reasoner.direct_subsumers(BasicConcept::Atomic(c)) {
                    if let BasicConcept::Atomic(a) = sup {
                        let mut body = cq.body().to_vec();
                        body[i] = OntoAtom::Concept(a, t);
                        out.push(cq.with_body(body));
                    }
                }
            }
            OntoAtom::Role(r, t1, t2) => {
                for sup in reasoner.direct_role_subsumers(Role::direct(r)) {
                    let mut body = cq.body().to_vec();
                    body[i] = if sup.inverse {
                        OntoAtom::Role(sup.id, t2, t1)
                    } else {
                        OntoAtom::Role(sup.id, t1, t2)
                    };
                    out.push(cq.with_body(body));
                }
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::SearchLimits;
    use crate::labels::Labels;
    use crate::score::Scoring;
    use obx_obdm::example_3_6_system;

    #[test]
    fn most_specific_query_matches_its_seed_tuple() {
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), "+ A10\n- E25").unwrap();
        let scoring = Scoring::accuracy();
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let (tuple, border) = &task.prepared().pos()[0];
        let seed = most_specific_query(&task, tuple, border, 24).unwrap();
        let e = task.score_cq(&seed).unwrap();
        assert_eq!(e.stats.pos_matched, 1, "seed must J-match its own tuple");
    }

    #[test]
    fn generalization_reaches_a_good_explanation() {
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), "+ A10\n+ B80\n+ C12\n+ D50\n- E25").unwrap();
        let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
        let limits = SearchLimits {
            max_rounds: 10,
            beam_width: 16,
            ..SearchLimits::default()
        };
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, limits).unwrap();
        let result = BottomUpGeneralize::default().explain(&task).unwrap();
        assert!(!result.is_empty());
        assert!(
            result[0].score >= 0.6,
            "generalization stuck at {}",
            result[0].score
        );
    }

    #[test]
    fn supports_binary_labels() {
        let mut sys = example_3_6_system();
        // λ over (student, subject) pairs.
        let labels = Labels::parse(sys.db_mut(), "+ A10, Math\n- C12, Math").unwrap();
        let scoring = Scoring::accuracy();
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let result = BottomUpGeneralize::default().explain(&task).unwrap();
        assert!(!result.is_empty());
        let best = &result[0];
        assert_eq!(best.query.disjuncts()[0].arity(), 2);
        assert!(best.stats.pos_matched >= 1);
    }

    #[test]
    fn generalize_produces_super_predicates() {
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), "+ A10").unwrap();
        let scoring = Scoring::accuracy();
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let vocab = sys.spec().tbox().vocab();
        let studies = vocab.get_role("studies").unwrap();
        let likes = vocab.get_role("likes").unwrap();
        let cq = OntoCq::new(
            vec![VarId(0)],
            vec![OntoAtom::Role(
                studies,
                Term::Var(VarId(0)),
                Term::Var(VarId(1)),
            )],
        )
        .unwrap();
        let gens = generalize(&task, &cq);
        assert!(gens.iter().any(|g| g
            .body()
            .iter()
            .any(|a| matches!(a, OntoAtom::Role(r, _, _) if *r == likes))));
    }
}

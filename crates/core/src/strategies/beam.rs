//! Top-down beam search with a DL refinement operator.
//!
//! The search starts from the most general unary queries (`A(x)`,
//! `r(x, y)`, `r(y, x)` for every concept/role) and repeatedly
//! *specializes* the best `beam_width` candidates:
//!
//! 1. **add atom** — conjoin a concept or role atom connected to an
//!    existing variable (possibly introducing one fresh variable or a
//!    constant from the positive borders);
//! 2. **bind constant** — replace a non-answer variable by a relevant
//!    constant (how the paper's `locatedIn(z, "Rome")` arises);
//! 3. **specialize predicate** — move one atom down the ontology's Hasse
//!    diagram (concept to direct sub-concept, role to direct sub-role,
//!    concept to `∃r` when `∃r ⊑ A`);
//! 4. **merge variables** — identify two non-answer variables.
//!
//! This mirrors the downward refinement operators of the DL concept
//! learning literature the paper cites (DL-Learner, DL-FOIL), lifted from
//! concepts to conjunctive queries.

use super::{
    beam_window, dedup_candidates, dedup_planned, pool_cap, pool_floor_of, require_unary,
    round_span, score_batch_outcome, score_batch_planned, select_beam,
};
use crate::engine::PlannedCq;
use crate::explain::{
    finalize_report, rank, ExplainError, ExplainReport, ExplainTask, Explanation, Strategy,
};
use crate::prune::{ParentHandle, RefineDir};
use obx_ontology::{BasicConcept, Role};
use obx_query::{OntoAtom, OntoCq, Term, VarId};
use obx_srcdb::Const;
use obx_util::FxHashSet;

/// Top-down beam search (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct BeamSearch;

impl Strategy for BeamSearch {
    fn name(&self) -> &'static str {
        "beam"
    }

    fn explain(&self, task: &ExplainTask<'_>) -> Result<Vec<Explanation>, ExplainError> {
        self.explain_with_status(task).map(|r| r.explanations)
    }

    fn explain_with_status(&self, task: &ExplainTask<'_>) -> Result<ExplainReport, ExplainError> {
        require_unary(task, self.name())?;
        let limits = task.limits();
        let consts = task.prepared().relevant_constants(limits.max_constants);
        let mut seen: FxHashSet<OntoCq> = FxHashSet::default();
        let mut quarantined = 0usize;
        let mut pruned = 0usize;
        let cap = pool_cap(&limits);

        let starts = dedup_candidates(start_candidates(task));
        seen.extend(starts.iter().cloned());
        let outcome = score_batch_outcome(task, starts);
        quarantined += outcome.quarantined;
        let scored = outcome.explanations;
        // Rank the starting pool immediately: the per-round prune floor is
        // the cap-th pool score, so the pool must be rank-sorted from the
        // first round on. Starts are single-atom queries, which finalization
        // cannot lower, so the truncation is loss-free.
        let mut pool: Vec<Explanation> = rank(scored.clone(), cap);
        let mut beam: Vec<Explanation> = select_beam(scored, limits.beam_width);

        for _round in 1..limits.max_rounds {
            // Budget checkpoint at round granularity: the pool already
            // holds everything scored so far, so stopping here is exactly
            // the anytime contract (the batch loop below also stops at
            // candidate granularity for finer response).
            if task.stop_reason().is_some() {
                break;
            }
            let mut next: Vec<PlannedCq> = Vec::new();
            for e in &beam {
                // Every child below is a one-step specialization of `e`,
                // so `e`'s match bits over-approximate the child's and its
                // stats give an admissible optimistic bound (crate::prune).
                let parent = ParentHandle::from_explanation(RefineDir::Specialize, e);
                for d in e.query.disjuncts() {
                    for cq in refine(task, d, &consts) {
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
            // Floors before extending: a candidate that scores below both
            // the in-batch beam window and the pool's cap-th entry cannot
            // enter the beam or survive the pool truncation, so the engine
            // may skip it, or stop its evaluation, output-invariantly.
            let floor = pool_floor_of(&pool, cap);
            let mut rsp = round_span(task, "beam_round", _round, fresh.len(), floor);
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

/// Most general unary queries over the vocabulary.
// Each candidate is one atom that holds the answer variable `x`, so
// `OntoCq::new`'s safety and non-empty-body checks cannot fail.
#[allow(clippy::expect_used)]
fn start_candidates(task: &ExplainTask<'_>) -> Vec<OntoCq> {
    let vocab = task.system().spec().tbox().vocab();
    let x = Term::Var(VarId(0));
    let y = Term::Var(VarId(1));
    let mut out = Vec::new();
    for c in vocab.concept_ids() {
        out.push(OntoCq::new(vec![VarId(0)], vec![OntoAtom::Concept(c, x)]).expect("safe"));
    }
    for r in vocab.role_ids() {
        out.push(OntoCq::new(vec![VarId(0)], vec![OntoAtom::Role(r, x, y)]).expect("safe"));
        out.push(OntoCq::new(vec![VarId(0)], vec![OntoAtom::Role(r, y, x)]).expect("safe"));
    }
    out
}

fn vars_of(cq: &OntoCq) -> Vec<VarId> {
    let mut vs: Vec<VarId> = cq
        .body()
        .iter()
        .flat_map(|a| a.terms())
        .filter_map(Term::as_var)
        .collect();
    vs.sort();
    vs.dedup();
    vs
}

/// All one-step specializations of `cq`.
pub(super) fn refine(task: &ExplainTask<'_>, cq: &OntoCq, consts: &[Const]) -> Vec<OntoCq> {
    let limits = task.limits();
    let vocab = task.system().spec().tbox().vocab();
    let reasoner = task.system().spec().reasoner();
    let vars = vars_of(cq);
    let fresh = VarId(cq.max_var().map_or(0, |m| m + 1));
    let mut out: Vec<OntoCq> = Vec::new();

    // 1. Add atom.
    if cq.num_atoms() < limits.max_atoms {
        let can_fresh = vars.len() < limits.max_vars;
        // Concept atoms on existing variables.
        for c in vocab.concept_ids() {
            for &v in &vars {
                let mut body = cq.body().to_vec();
                body.push(OntoAtom::Concept(c, Term::Var(v)));
                out.push(cq.with_body(body));
            }
        }
        // Role atoms with at least one existing variable.
        let mut partners: Vec<Term> = vars.iter().map(|&v| Term::Var(v)).collect();
        if can_fresh {
            partners.push(Term::Var(fresh));
        }
        partners.extend(consts.iter().map(|&c| Term::Const(c)));
        for r in vocab.role_ids() {
            for &v in &vars {
                for &p in &partners {
                    let mut b1 = cq.body().to_vec();
                    b1.push(OntoAtom::Role(r, Term::Var(v), p));
                    out.push(cq.with_body(b1));
                    let mut b2 = cq.body().to_vec();
                    b2.push(OntoAtom::Role(r, p, Term::Var(v)));
                    out.push(cq.with_body(b2));
                }
            }
        }
    }

    // 2. Bind a non-answer variable to a constant.
    for &v in &vars {
        if cq.head().contains(&v) {
            continue;
        }
        for &c in consts {
            let mut subst = obx_util::FxHashMap::default();
            subst.insert(v, Term::Const(c));
            out.push(cq.substitute_body(&subst));
        }
    }

    // 3. Specialize one atom's predicate one Hasse step down.
    for (i, atom) in cq.body().iter().enumerate() {
        match *atom {
            OntoAtom::Concept(c, t) => {
                for sub in reasoner.subsumees(BasicConcept::Atomic(c)) {
                    if sub == BasicConcept::Atomic(c)
                        || !reasoner
                            .direct_subsumers(sub)
                            .contains(&BasicConcept::Atomic(c))
                    {
                        continue;
                    }
                    match sub {
                        BasicConcept::Atomic(a) => {
                            let mut body = cq.body().to_vec();
                            body[i] = OntoAtom::Concept(a, t);
                            out.push(cq.with_body(body));
                        }
                        BasicConcept::Exists(role) => {
                            if vars.len() < limits.max_vars {
                                let w = Term::Var(fresh);
                                let mut body = cq.body().to_vec();
                                body[i] = if role.inverse {
                                    OntoAtom::Role(role.id, w, t)
                                } else {
                                    OntoAtom::Role(role.id, t, w)
                                };
                                out.push(cq.with_body(body));
                            }
                        }
                    }
                }
            }
            OntoAtom::Role(r, t1, t2) => {
                for sub in reasoner.role_subsumees(Role::direct(r)) {
                    if sub == Role::direct(r)
                        || !reasoner
                            .direct_role_subsumers(sub)
                            .contains(&Role::direct(r))
                    {
                        continue;
                    }
                    let mut body = cq.body().to_vec();
                    body[i] = if sub.inverse {
                        OntoAtom::Role(sub.id, t2, t1)
                    } else {
                        OntoAtom::Role(sub.id, t1, t2)
                    };
                    out.push(cq.with_body(body));
                }
            }
        }
    }

    // 4. Merge two non-answer variables.
    for (i, &v1) in vars.iter().enumerate() {
        for &v2 in &vars[i + 1..] {
            if cq.head().contains(&v1) && cq.head().contains(&v2) {
                continue;
            }
            let (keep, gone) = if cq.head().contains(&v2) {
                (v2, v1)
            } else {
                (v1, v2)
            };
            let mut subst = obx_util::FxHashMap::default();
            subst.insert(gone, Term::Var(keep));
            out.push(cq.substitute_body(&subst));
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
    fn beam_finds_a_high_scoring_explanation_on_the_paper_example() {
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), "+ A10\n+ B80\n+ C12\n+ D50\n- E25").unwrap();
        let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let result = BeamSearch.explain(&task).unwrap();
        assert!(!result.is_empty());
        // Example 3.8 shows q3 reaches 0.833 under these weights; the beam
        // must do at least as well as the best of the paper's queries.
        assert!(
            result[0].score >= 0.833 - 1e-9,
            "best score {} below q3's 0.833",
            result[0].score
        );
        // Ranked descending.
        for w in result.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn beam_respects_atom_limit() {
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), "+ A10\n- E25").unwrap();
        let scoring = Scoring::balanced();
        let limits = SearchLimits {
            max_atoms: 1,
            max_rounds: 3,
            ..SearchLimits::default()
        };
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, limits).unwrap();
        let result = BeamSearch.explain(&task).unwrap();
        assert!(result
            .iter()
            .all(|e| e.query.disjuncts().iter().all(|d| d.num_atoms() <= 1)));
    }

    #[test]
    fn refinement_is_rejected_for_non_unary_labels() {
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), "+ A10, B80").unwrap();
        let scoring = Scoring::balanced();
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        assert!(matches!(
            BeamSearch.explain(&task),
            Err(ExplainError::UnsupportedArity { .. })
        ));
    }

    #[test]
    fn refine_generates_connected_specializations_only() {
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), "+ A10\n- E25").unwrap();
        let scoring = Scoring::balanced();
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let vocab = sys.spec().tbox().vocab();
        let studies = vocab.get_role("studies").unwrap();
        let cq = OntoCq::new(
            vec![VarId(0)],
            vec![OntoAtom::Role(
                studies,
                Term::Var(VarId(0)),
                Term::Var(VarId(1)),
            )],
        )
        .unwrap();
        let consts = task.prepared().relevant_constants(4);
        let refs = refine(&task, &cq, &consts);
        assert!(!refs.is_empty());
        // Every refinement keeps the head variable and stays within the
        // atom budget + 0/1 fresh variables.
        for r in &refs {
            assert!(r.head() == [VarId(0)]);
            assert!(r.num_atoms() <= task.limits().max_atoms);
        }
        // Constant binding of x1 must appear for every pool constant
        // (under discriminative ranking "Math" scores 0 here — it occurs in
        // both A10's and E25's borders — so we assert on the actual pool).
        assert!(!consts.is_empty());
        for &pc in &consts {
            assert!(
                refs.iter().any(|r| r
                    .body()
                    .iter()
                    .any(|a| matches!(a, OntoAtom::Role(_, _, Term::Const(c)) if *c == pc))),
                "no refinement binds {:?}",
                sys.db().consts().resolve(pc)
            );
        }
    }
}

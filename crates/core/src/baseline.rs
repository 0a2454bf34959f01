//! Data-level baseline: the same search *without* the ontology.
//!
//! The paper's motivation is that explanations phrased over raw source
//! tables are not human-meaningful and miss inferences (`studies ⊑ likes`).
//! To *measure* what OBDM buys (experiment E9), this module runs the same
//! beam search directly over the source schema: candidates are source CQs,
//! matching evaluates them over the borders with no rewriting, no
//! unfolding, no TBox. Comparing the achievable Z-scores — and the
//! vocabulary the winning queries are phrased in — quantifies the
//! ontology's contribution.

use crate::budget::Termination;
use crate::criteria::CriterionCtx;
use crate::explain::{ExplainError, ExplainTask};
use crate::matcher::MatchStats;
use obx_query::{SrcAtom, SrcCq, Term, VarId};
use obx_srcdb::Const;
use obx_util::FxHashSet;

/// A scored data-level explanation.
#[derive(Debug, Clone)]
pub struct SrcExplanation {
    /// The query over the *source* schema.
    pub query: SrcCq,
    /// `Z_F(q)` under the task's scoring.
    pub score: f64,
    /// Confusion counts.
    pub stats: MatchStats,
}

impl SrcExplanation {
    /// Renders with the system's schema/constants.
    pub fn render(&self, task: &ExplainTask<'_>) -> String {
        self.query
            .render(task.system().db().schema(), task.system().db().consts())
    }
}

/// Beam search over source CQs (the ontology-free ablation).
#[derive(Debug, Clone, Copy, Default)]
pub struct DataLevelBeam;

impl DataLevelBeam {
    /// The strategy's name for reports.
    pub fn name(&self) -> &'static str {
        "data-level"
    }

    /// Runs the ontology-free search, returning the ranked explanations
    /// only. Unary λ only (like the generate-and-test ontology
    /// strategies).
    pub fn explain(&self, task: &ExplainTask<'_>) -> Result<Vec<SrcExplanation>, ExplainError> {
        self.explain_with_status(task).map(|(pool, _)| pool)
    }

    /// Runs the ontology-free search under the task's budget, reporting
    /// how it ended. The budget is polled per round and per scored
    /// candidate; a stopped run returns its best explanations so far.
    pub fn explain_with_status(
        &self,
        task: &ExplainTask<'_>,
    ) -> Result<(Vec<SrcExplanation>, Termination), ExplainError> {
        if task.arity() != 1 {
            return Err(ExplainError::UnsupportedArity {
                strategy: self.name(),
                arity: task.arity(),
            });
        }
        let limits = task.limits();
        let consts = task.prepared().relevant_constants(limits.max_constants);
        let schema = task.system().db().schema();

        // Start: one atom per relation with the answer variable at each
        // position, fresh variables elsewhere.
        let mut starts: Vec<SrcCq> = Vec::new();
        for rel in schema.rel_ids() {
            let arity = schema.arity(rel);
            for pos in 0..arity {
                let mut next_fresh = 1u32;
                let args: Vec<Term> = (0..arity)
                    .map(|i| {
                        if i == pos {
                            Term::Var(VarId(0))
                        } else {
                            let v = Term::Var(VarId(next_fresh));
                            next_fresh += 1;
                            v
                        }
                    })
                    .collect();
                // One atom with the answer variable at `pos`: `SrcCq::new`'s
                // safety and non-empty-body checks cannot fail.
                #[allow(clippy::expect_used)]
                starts
                    .push(SrcCq::new(vec![VarId(0)], vec![SrcAtom::new(rel, args)]).expect("safe"));
            }
        }

        let mut seen: FxHashSet<SrcCq> = FxHashSet::default();
        let mut frontier: Vec<SrcExplanation> = Vec::new();
        for cq in starts {
            if task.stop_reason().is_some() {
                break;
            }
            let canon = cq.canonical();
            if seen.insert(canon.clone()) {
                frontier.push(self.score(task, canon));
            }
        }
        let mut pool = frontier.clone();
        sort(&mut frontier);
        frontier.truncate(limits.beam_width);

        for _round in 1..limits.max_rounds {
            if task.stop_reason().is_some() {
                break;
            }
            let mut fresh: Vec<SrcExplanation> = Vec::new();
            'frontier: for e in &frontier {
                for cand in refine(task, &e.query, &consts) {
                    if task.stop_reason().is_some() {
                        break 'frontier;
                    }
                    let canon = cand.canonical();
                    if seen.insert(canon.clone()) {
                        fresh.push(self.score(task, canon));
                    }
                }
            }
            if fresh.is_empty() {
                break;
            }
            pool.extend(fresh.iter().cloned());
            sort(&mut pool);
            pool.truncate((limits.top_k * 4).max(limits.beam_width * 2));
            sort(&mut fresh);
            fresh.truncate(limits.beam_width);
            frontier = fresh;
        }
        sort(&mut pool);
        pool.truncate(limits.top_k);
        Ok((pool, Termination::from_run(task.final_stop(), 0)))
    }

    fn score(&self, task: &ExplainTask<'_>, cq: SrcCq) -> SrcExplanation {
        let stats = task.prepared().stats_src_cq(&cq);
        let ctx = CriterionCtx {
            stats: &stats,
            num_atoms: cq.num_atoms(),
            num_disjuncts: 1,
        };
        let score = task.scoring().score(&ctx);
        SrcExplanation {
            query: cq,
            score,
            stats,
        }
    }
}

fn sort(v: &mut [SrcExplanation]) {
    v.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.query.num_atoms().cmp(&b.query.num_atoms()))
            .then_with(|| format!("{:?}", a.query).cmp(&format!("{:?}", b.query)))
    });
}

fn vars_of(cq: &SrcCq) -> Vec<VarId> {
    let mut vs: Vec<VarId> = cq
        .body()
        .iter()
        .flat_map(|a| a.args.iter().copied())
        .filter_map(Term::as_var)
        .collect();
    vs.sort();
    vs.dedup();
    vs
}

/// One-step specializations of a source CQ.
fn refine(task: &ExplainTask<'_>, cq: &SrcCq, consts: &[Const]) -> Vec<SrcCq> {
    let limits = task.limits();
    let schema = task.system().db().schema();
    let vars = vars_of(cq);
    let mut next_fresh = cq.max_var().map_or(0, |m| m + 1);
    let mut out: Vec<SrcCq> = Vec::new();

    // Bind a non-answer variable to a constant.
    for &v in &vars {
        if cq.head().contains(&v) {
            continue;
        }
        for &c in consts {
            let mut subst = obx_util::FxHashMap::default();
            subst.insert(v, Term::Const(c));
            let body = cq.body().iter().map(|a| a.substitute(&subst)).collect();
            if let Ok(q) = SrcCq::new(cq.head().to_vec(), body) {
                out.push(q);
            }
        }
    }

    // Merge two variables (keep answer variables).
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
            let body = cq.body().iter().map(|a| a.substitute(&subst)).collect();
            if let Ok(q) = SrcCq::new(cq.head().to_vec(), body) {
                out.push(q);
            }
        }
    }

    // Add an atom sharing one existing variable.
    if cq.num_atoms() < limits.max_atoms && vars.len() < limits.max_vars {
        for rel in schema.rel_ids() {
            let arity = schema.arity(rel);
            for &v in &vars {
                for pos in 0..arity {
                    let mut local_fresh = next_fresh;
                    let args: Vec<Term> = (0..arity)
                        .map(|i| {
                            if i == pos {
                                Term::Var(v)
                            } else {
                                let t = Term::Var(VarId(local_fresh));
                                local_fresh += 1;
                                t
                            }
                        })
                        .collect();
                    let mut body = cq.body().to_vec();
                    body.push(SrcAtom::new(rel, args));
                    if let Ok(q) = SrcCq::new(cq.head().to_vec(), body) {
                        out.push(q);
                    }
                }
            }
        }
        next_fresh += 8; // freshness is per-refinement; canonicalization renumbers
        let _ = next_fresh;
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
    fn data_level_beam_finds_the_math_enrolment_pattern() {
        let mut sys = example_3_6_system();
        // λ⁺ = Math students; data-level can nail this via ENR(x,"Math",z).
        let labels = Labels::parse(sys.db_mut(), "+ A10\n+ B80\n+ E25\n- C12\n- D50").unwrap();
        let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let result = DataLevelBeam.explain(&task).unwrap();
        assert!(!result.is_empty());
        let best = &result[0];
        assert_eq!(best.stats.pos_matched, 3, "{}", best.render(&task));
        assert_eq!(best.stats.neg_matched, 0);
        assert!(best.render(&task).contains("ENR"));
    }

    #[test]
    fn data_level_is_blind_to_role_inclusions() {
        // λ⁺ = "students who like Science" — at the data level there is no
        // `likes`; the best the baseline can do is the ENR(…,"Science",…)
        // pattern. It still separates, but the explanation is phrased in
        // source tables, not domain vocabulary (the E9 point: same stats,
        // different interpretability).
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), "+ C12\n+ D50\n- A10\n- B80\n- E25").unwrap();
        let scoring = Scoring::accuracy();
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let result = DataLevelBeam.explain(&task).unwrap();
        let best = &result[0];
        assert!(best.stats.perfect(), "{}", best.render(&task));
        assert!(best.render(&task).contains("ENR("));
    }

    #[test]
    fn non_unary_labels_are_rejected() {
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), "+ A10, Math").unwrap();
        let scoring = Scoring::accuracy();
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        assert!(matches!(
            DataLevelBeam.explain(&task),
            Err(ExplainError::UnsupportedArity { .. })
        ));
    }
}

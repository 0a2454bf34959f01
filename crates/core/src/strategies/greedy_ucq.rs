//! Greedy UCQ assembly.
//!
//! When λ⁺ is a union of heterogeneous clusters (the paper's Example 3.6
//! is exactly this: Rome-students plus Science-students), no single CQ
//! covers it well. `L_O = UCQ` (§3, criterion δ6) allows unions; this
//! strategy takes the CQ candidates of a base strategy and greedily adds
//! the disjunct that improves the UCQ's Z-score most, stopping when no
//! disjunct helps — classic greedy set cover, with the Z-expression (not
//! raw coverage) as the objective, so the δ6 parsimony criterion decides
//! when another disjunct stops paying for itself.

use super::{base_cqs, ucq_of};
use crate::explain::{
    finalize_report, ExplainError, ExplainReport, ExplainTask, Explanation, Strategy,
};
use crate::prune::CountBox;
use crate::strategies::BeamSearch;
use obx_query::OntoCq;

/// Greedy UCQ assembly over a base strategy's candidates.
pub struct GreedyUcq {
    /// The strategy producing the CQ candidate pool.
    pub base: Box<dyn Strategy>,
    /// Maximum number of disjuncts assembled.
    pub max_disjuncts: usize,
    /// How many base candidates to collect (the base strategy is run with
    /// `top_k` raised to this, so heterogeneous clusters each surface a
    /// covering CQ).
    pub base_pool: usize,
}

impl Default for GreedyUcq {
    fn default() -> Self {
        Self {
            base: Box::new(BeamSearch),
            max_disjuncts: 4,
            base_pool: 16,
        }
    }
}

impl Strategy for GreedyUcq {
    fn name(&self) -> &'static str {
        "greedy-ucq"
    }

    fn explain(&self, task: &ExplainTask<'_>) -> Result<Vec<Explanation>, ExplainError> {
        self.explain_with_status(task).map(|r| r.explanations)
    }

    fn explain_with_status(&self, task: &ExplainTask<'_>) -> Result<ExplainReport, ExplainError> {
        let mut base_limits = task.limits();
        base_limits.top_k = base_limits.top_k.max(self.base_pool);
        let base_task = task.with_limits(base_limits);
        // The base strategy already runs under the shared budget (the
        // budget travels with the task); its quarantine losses roll into
        // this run's count.
        let base_report = self.base.explain_with_status(&base_task)?;
        let mut quarantined = base_report.quarantined;
        let base = base_report.explanations;
        let candidates: Vec<OntoCq> = base_cqs(&base);
        if candidates.is_empty() {
            return Ok(finalize_report(
                task,
                base,
                task.limits().top_k,
                quarantined,
                base_report.pruned,
            ));
        }
        let engine = task.engine();
        let mut bound_skipped = 0usize;

        // Start from the best single CQ. A scoring failure here must not
        // abort the run — the base results are still a valid answer.
        let mut chosen: Vec<OntoCq> = vec![candidates[0].clone()];
        let mut best: Option<Explanation> = match task.score_ucq(&ucq_of(&chosen)) {
            Ok(e) => Some(e),
            Err(e) => {
                if !e.is_transient() {
                    quarantined += 1;
                }
                None
            }
        };
        while best.is_some() && chosen.len() < self.max_disjuncts {
            // Budget checkpoint per assembly step (anytime contract).
            if task.stop_reason().is_some() {
                break;
            }
            // One span per assembly step, all under one path: `trials`
            // counts unions actually scored, `bound_skipped` the interval
            // gate's rejections, `disjuncts` the deepest union reached.
            let mut sp = obx_util::span!(task.budget().recorder(), "greedy_step");
            sp.count_max("disjuncts", chosen.len() as u64);
            let mut improvement: Option<(OntoCq, Explanation)> = None;
            for cand in &candidates {
                if chosen.contains(cand) {
                    continue;
                }
                if task.stop_reason().is_some() {
                    break;
                }
                let mut trial = chosen.clone();
                trial.push(cand.clone());
                let threshold = match &improvement {
                    None => best.as_ref().map_or(f64::NEG_INFINITY, |b| b.score),
                    Some((_, cur)) => cur.score,
                };
                // Bound gate: union stats are exact bit ORs, so the trial's
                // matched counts live in a known interval around the chosen
                // union's and the candidate's cached stats. When even the
                // best Z in that interval cannot beat the acceptance
                // threshold, the trial provably fails `score > threshold`
                // and scoring it is pure waste. Skips are counted as
                // `pruned` in the report.
                if engine.incremental() {
                    if let (Some(b), Some(entry)) = (best.as_ref(), engine.cached_entry(cand)) {
                        let trial_atoms = trial.iter().map(OntoCq::num_atoms).sum();
                        let bound = task.scoring().bound_over(
                            &CountBox::union(&b.stats, &entry.bits.stats()),
                            trial_atoms,
                            trial.len(),
                        );
                        if bound <= threshold + 1e-12 {
                            bound_skipped += 1;
                            sp.count("bound_skipped", 1);
                            // Also under the uniform key every strategy's
                            // scoring spans use, so profile consumers can
                            // sum "pruned" without knowing the strategy.
                            sp.count("pruned", 1);
                            continue;
                        }
                    }
                }
                // A disjunct whose scoring fails must not abort the whole
                // assembly: skip it. Permanent failures are quarantined;
                // transient (budget-fired) ones count as "not reached".
                sp.count("trials", 1);
                let scored = match task.score_ucq(&ucq_of(&trial)) {
                    Ok(e) => e,
                    Err(e) => {
                        if !e.is_transient() {
                            quarantined += 1;
                        }
                        continue;
                    }
                };
                if scored.score > threshold + 1e-12 {
                    improvement = Some((cand.clone(), scored));
                }
            }
            match improvement {
                Some((cand, scored)) => {
                    chosen.push(cand);
                    best = Some(scored);
                }
                None => break,
            }
        }

        // Final ranking: the assembled UCQ plus the base results.
        let mut pool = base;
        pool.extend(best);
        Ok(finalize_report(
            task,
            pool,
            task.limits().top_k,
            quarantined,
            base_report.pruned + bound_skipped,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::Criterion;
    use crate::explain::SearchLimits;
    use crate::labels::Labels;
    use crate::score::{ScoreExpr, Scoring};
    use obx_obdm::example_3_6_system;

    /// With coverage weighted heavily and δ6 light, the union
    /// q1-like ∪ q3-like covering all of λ⁺ should win.
    #[test]
    fn greedy_union_covers_heterogeneous_positives() {
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), "+ A10\n+ B80\n+ C12\n+ D50\n- E25").unwrap();
        let scoring = Scoring::new(
            vec![
                Criterion::PosCoverage,
                Criterion::NegHitPenalty,
                Criterion::DisjunctParsimony,
            ],
            ScoreExpr::weighted_average(&[4.0, 4.0, 1.0]),
        );
        let limits = SearchLimits {
            max_rounds: 5,
            ..SearchLimits::default()
        };
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, limits).unwrap();
        let result = GreedyUcq::default().explain(&task).unwrap();
        let best = &result[0];
        assert_eq!(
            best.stats.pos_matched,
            4,
            "the union should cover all positives: {}",
            best.render(&sys)
        );
        assert_eq!(best.stats.neg_matched, 0);
        assert!(best.query.len() >= 2, "a single CQ cannot cover all of λ⁺");
    }

    #[test]
    fn greedy_stops_when_disjuncts_stop_paying() {
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), "+ A10\n+ B80\n+ C12\n+ D50\n- E25").unwrap();
        // δ6 dominates: additional disjuncts are punished hard, so greedy
        // must keep the union small.
        let scoring = Scoring::new(
            vec![
                Criterion::PosCoverage,
                Criterion::NegHitPenalty,
                Criterion::DisjunctParsimony,
            ],
            ScoreExpr::weighted_average(&[1.0, 1.0, 10.0]),
        );
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let result = GreedyUcq::default().explain(&task).unwrap();
        assert!(result[0].query.len() <= 2);
    }
}

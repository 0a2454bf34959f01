//! Exhaustive enumeration of small connected CQs.
//!
//! Complete up to its size limits (atoms, variables, constants), so it is
//! the reference point for the heuristic strategies in experiment E6 — on
//! spaces where it finishes, no strategy can beat its Z-score. The
//! candidate space is the set of *connected* conjunctive queries built
//! from the ontology vocabulary, variables `x0..x_{max_vars-1}` (with `x0`
//! the answer variable) and the relevant constants of the positive
//! borders.

use super::{pool_floor_of, require_unary, round_span, score_batch_planned};
use crate::engine::PlannedCq;
use crate::explain::{
    finalize_report, rank, ExplainError, ExplainReport, ExplainTask, Explanation, Strategy,
};
use crate::prune::{ParentHandle, RefineDir};
use obx_query::{OntoAtom, OntoCq, Term, VarId};
use obx_util::{FxHashMap, FxHashSet, Interrupt};

/// Exhaustive search (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct ExhaustiveSearch {
    /// Hard cap on generated candidates; enumeration stops (and the result
    /// is marked by the strategy having hit the cap) rather than running
    /// unbounded. 50k candidates ≈ seconds on the paper-scale systems.
    pub max_candidates: usize,
}

impl Default for ExhaustiveSearch {
    fn default() -> Self {
        Self {
            max_candidates: 50_000,
        }
    }
}

impl Strategy for ExhaustiveSearch {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn explain_with_status(&self, task: &ExplainTask<'_>) -> Result<ExplainReport, ExplainError> {
        require_unary(task, self.name())?;
        let limits = task.limits();
        let consts = task.prepared().relevant_constants(limits.max_constants);

        // Terms: x0 (answer), x1.., constants.
        let vars: Vec<Term> = (0..limits.max_vars as u32)
            .map(|i| Term::Var(VarId(i)))
            .collect();
        let mut terms: Vec<Term> = vars.clone();
        terms.extend(consts.iter().map(|&c| Term::Const(c)));

        // Atom pool over those terms.
        let vocab = task.system().spec().tbox().vocab();
        let mut pool: Vec<OntoAtom> = Vec::new();
        for c in vocab.concept_ids() {
            for &v in &vars {
                pool.push(OntoAtom::Concept(c, v));
            }
        }
        for r in vocab.role_ids() {
            for &t1 in &terms {
                for &t2 in &terms {
                    if t1.is_var() || t2.is_var() {
                        pool.push(OntoAtom::Role(r, t1, t2));
                    }
                }
            }
        }

        // Enumerate connected subsets containing x0, up to max_atoms.
        // Enumeration itself makes no evaluator calls, so only the
        // deadline/cancellation half of the budget can fire here; it is
        // polled every `TICK_MASK + 1` recursion steps.
        let mut candidates: Vec<(OntoCq, Option<OntoCq>)> = Vec::new();
        let mut stack: Vec<OntoAtom> = Vec::new();
        let mut poll = StopPoll::new(task.interrupt());
        enumerate(
            &pool,
            0,
            &mut stack,
            limits.max_atoms,
            self.max_candidates,
            &mut poll,
            None,
            &mut candidates,
        );
        // Dedup by canonical form; the first occurrence keeps its emitted
        // ancestor (the nearest connected prefix), which is a subset of the
        // body and hence a valid Specialize parent for delta evaluation.
        let mut seen: FxHashSet<OntoCq> = FxHashSet::default();
        let mut deduped: Vec<(OntoCq, Option<OntoCq>)> = Vec::with_capacity(candidates.len());
        for (cq, parent) in candidates {
            let canon = cq.canonical();
            if seen.insert(canon.clone()) {
                deduped.push((canon, parent));
            }
        }

        // Score in chunks, keeping a rank-truncated running pool. Chunking
        // lets later candidates (a) resolve their ancestor's already-memoized
        // match bits for delta evaluation and (b) be bound-pruned against
        // the pool floor. `window = 0` disables the in-batch beam guard —
        // exhaustive search has no beam; only provably-below-floor
        // candidates may be skipped. The truncation to `cap` is loss-free
        // for the final top-k because every minimized core finalization
        // could produce is itself an enumerated, scored candidate.
        const CHUNK: usize = 256;
        let cap = (limits.top_k * 4).max(1);
        let engine = task.engine();
        let mut ranked_pool: Vec<Explanation> = Vec::new();
        let mut quarantined = 0usize;
        let mut pruned = 0usize;
        for (ci, chunk) in deduped.chunks(CHUNK).enumerate() {
            // The batch loop below also stops at candidate granularity when
            // the budget fires; whatever scored by then is ranked and
            // returned anytime.
            if task.stop_reason().is_some() {
                break;
            }
            let mut rsp = round_span(
                task,
                "exhaustive_chunk",
                ci,
                chunk.len(),
                pool_floor_of(&ranked_pool, cap),
            );
            // Each distinct prefix is looked up once per chunk.
            let mut prefixes: FxHashMap<&OntoCq, Option<ParentHandle>> = FxHashMap::default();
            let planned: Vec<PlannedCq> = chunk
                .iter()
                .map(|(cq, parent)| PlannedCq {
                    cq: cq.clone(),
                    parent: parent.as_ref().and_then(|k| {
                        prefixes
                            .entry(k)
                            .or_insert_with(|| {
                                let bits = engine.ready_bits(task.prepared(), k)?;
                                Some(ParentHandle::new(RefineDir::Specialize, bits))
                            })
                            .clone()
                    }),
                })
                .collect();
            let outcome = score_batch_planned(task, planned, 0, cap, &ranked_pool);
            rsp.count("pruned", outcome.pruned as u64);
            quarantined += outcome.quarantined;
            pruned += outcome.pruned;
            ranked_pool.extend(outcome.explanations);
            ranked_pool = rank(ranked_pool, cap);
        }
        Ok(finalize_report(
            task,
            ranked_pool,
            limits.top_k,
            quarantined,
            pruned,
        ))
    }
}

fn mentions_var(atom: &OntoAtom, v: VarId) -> bool {
    atom.terms().any(|t| t == Term::Var(v))
}

fn connected_and_safe(body: &[OntoAtom]) -> bool {
    // x0 present?
    if !body.iter().any(|a| mentions_var(a, VarId(0))) {
        return false;
    }
    // Connectivity over shared variables/constants, seeded at the atoms
    // holding x0.
    let n = body.len();
    let mut reached = vec![false; n];
    let mut frontier: Vec<usize> = (0..n)
        .filter(|&i| mentions_var(&body[i], VarId(0)))
        .collect();
    for &i in &frontier {
        reached[i] = true;
    }
    while let Some(i) = frontier.pop() {
        for j in 0..n {
            if reached[j] {
                continue;
            }
            let shares = body[i].terms().any(|t| body[j].terms().any(|u| u == t));
            if shares {
                reached[j] = true;
                frontier.push(j);
            }
        }
    }
    reached.iter().all(|&r| r)
}

/// Periodic interrupt poller for the enumeration recursion: checks the
/// interrupt once per `TICK_MASK + 1` steps — cheap enough to bound
/// overrun at microseconds, coarse enough that the clock read stays
/// invisible next to candidate construction.
struct StopPoll<'a> {
    interrupt: &'a Interrupt,
    ticks: u32,
}

impl<'a> StopPoll<'a> {
    const TICK_MASK: u32 = 0x3FF;

    fn new(interrupt: &'a Interrupt) -> Self {
        Self {
            interrupt,
            ticks: 0,
        }
    }

    /// True when the interrupt fired (polled every `TICK_MASK + 1` calls).
    fn fired(&mut self) -> bool {
        self.ticks = self.ticks.wrapping_add(1);
        self.ticks & Self::TICK_MASK == 0 && self.interrupt.is_triggered()
    }
}

/// Enumerates bodies as ordered index combinations (i1 < i2 < …), pruning
/// by the candidate budget. Returns `false` when the interrupt fired and
/// the enumeration was abandoned early (candidates gathered so far stay
/// valid — the space is simply not fully covered).
///
/// Each emitted candidate is paired with its nearest emitted ancestor on
/// the recursion path (`parent`): the ancestor's body is a strict subset
/// of the candidate's, making it a sound Specialize parent for the
/// engine's delta evaluation and bound pruning.
#[allow(clippy::too_many_arguments)]
fn enumerate(
    pool: &[OntoAtom],
    from: usize,
    stack: &mut Vec<OntoAtom>,
    max_atoms: usize,
    budget: usize,
    poll: &mut StopPoll<'_>,
    parent: Option<&OntoCq>,
    out: &mut Vec<(OntoCq, Option<OntoCq>)>,
) -> bool {
    if poll.fired() {
        return false;
    }
    if out.len() >= budget {
        return true;
    }
    let mut this_level: Option<OntoCq> = None;
    if !stack.is_empty() && connected_and_safe(stack) {
        if let Ok(cq) = OntoCq::new(vec![VarId(0)], stack.clone()) {
            out.push((cq.clone(), parent.cloned()));
            this_level = Some(cq);
        }
    }
    if stack.len() == max_atoms {
        return true;
    }
    for i in from..pool.len() {
        stack.push(pool[i]);
        let keep_going = enumerate(
            pool,
            i + 1,
            stack,
            max_atoms,
            budget,
            poll,
            this_level.as_ref().or(parent),
            out,
        );
        stack.pop();
        if !keep_going {
            return false;
        }
        if out.len() >= budget {
            return true;
        }
    }
    true
}

/// Variable-normalized candidate count, exposed for the E6 table.
pub fn candidate_space_size(task: &ExplainTask<'_>) -> usize {
    let limits = task.limits();
    let consts = task.prepared().relevant_constants(limits.max_constants);
    let vocab = task.system().spec().tbox().vocab();
    let v = limits.max_vars;
    let t = v + consts.len();
    let atoms =
        vocab.num_concepts() * v + vocab.num_roles() * (t * t - consts.len() * consts.len());
    // Upper bound: subsets up to max_atoms.
    (0..=limits.max_atoms).map(|k| binom(atoms, k)).sum()
}

fn binom(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let mut r: usize = 1;
    for i in 0..k {
        r = r.saturating_mul(n - i) / (i + 1);
    }
    r
}

/// Dedup set type re-exported for tests.
#[allow(dead_code)]
type Seen = FxHashSet<OntoCq>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::SearchLimits;
    use crate::labels::Labels;
    use crate::score::Scoring;
    use obx_obdm::example_3_6_system;

    fn small_limits() -> SearchLimits {
        SearchLimits {
            max_atoms: 1,
            max_vars: 2,
            max_constants: 4,
            top_k: 10,
            ..SearchLimits::default()
        }
    }

    #[test]
    fn exhaustive_one_atom_finds_q3_like_query() {
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), "+ A10\n+ B80\n+ C12\n+ D50\n- E25").unwrap();
        let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, small_limits()).unwrap();
        let result = ExhaustiveSearch::default().explain(&task).unwrap();
        assert!(!result.is_empty());
        // The 1-atom optimum under Z1 is 0.833 (q3 in the paper, or the
        // equivalent studies(x, "Science")).
        assert!(
            (result[0].score - 0.8333).abs() < 1e-3,
            "{}",
            result[0].score
        );
    }

    #[test]
    fn connectivity_filter_rejects_disconnected_bodies() {
        let mut sys = example_3_6_system();
        let vocab = sys.spec().tbox().vocab();
        let studies = vocab.get_role("studies").unwrap();
        let likes = vocab.get_role("likes").unwrap();
        let connected = vec![
            OntoAtom::Role(studies, Term::Var(VarId(0)), Term::Var(VarId(1))),
            OntoAtom::Role(likes, Term::Var(VarId(1)), Term::Var(VarId(2))),
        ];
        assert!(connected_and_safe(&connected));
        let disconnected = vec![
            OntoAtom::Role(studies, Term::Var(VarId(0)), Term::Var(VarId(1))),
            OntoAtom::Role(likes, Term::Var(VarId(2)), Term::Var(VarId(3))),
        ];
        assert!(!connected_and_safe(&disconnected));
        let no_head = vec![OntoAtom::Role(
            studies,
            Term::Var(VarId(1)),
            Term::Var(VarId(2)),
        )];
        assert!(!connected_and_safe(&no_head));
        let _ = sys.db_mut();
    }

    #[test]
    fn candidate_budget_is_respected() {
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), "+ A10\n- E25").unwrap();
        let scoring = Scoring::balanced();
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let tiny = ExhaustiveSearch { max_candidates: 5 };
        let result = tiny.explain(&task).unwrap();
        assert!(result.len() <= task.limits().top_k);
    }

    #[test]
    fn space_size_estimate_is_positive() {
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), "+ A10\n- E25").unwrap();
        let scoring = Scoring::balanced();
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, small_limits()).unwrap();
        assert!(candidate_space_size(&task) > 0);
    }
}

//! The explanation task (Definition 3.7) and its strategy interface.

use crate::budget::{SearchBudget, Stop, Termination};
use crate::criteria::CriterionCtx;
use crate::engine::ScoringEngine;
use crate::labels::Labels;
use crate::matcher::{MatchBits, MatchStats, PreparedLabels};
use crate::score::Scoring;
use obx_obdm::{ObdmError, ObdmSystem};
use obx_query::{OntoCq, OntoUcq};
use obx_util::{Interrupt, PipelineProfile};
use std::fmt;
use std::sync::Arc;

/// Search failure.
#[derive(Debug)]
pub enum ExplainError {
    /// λ is empty — nothing to describe.
    NoLabels,
    /// Certain-answer machinery failed (budgets).
    Obdm(ObdmError),
    /// The strategy does not support the labels' arity.
    UnsupportedArity {
        /// The strategy's name.
        strategy: &'static str,
        /// The labels' arity.
        arity: usize,
    },
}

impl fmt::Display for ExplainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplainError::NoLabels => write!(f, "λ labels no tuple"),
            ExplainError::Obdm(e) => write!(f, "{e}"),
            ExplainError::UnsupportedArity { strategy, arity } => {
                write!(f, "strategy `{strategy}` does not support arity {arity}")
            }
        }
    }
}

impl ExplainError {
    /// Whether the failure is *transient* — caused by the search budget
    /// firing mid-computation (deadline/cancellation interrupting
    /// PerfectRef) rather than by anything wrong with the candidate
    /// itself. Transient failures are "not reached" under the anytime
    /// contract: they are skipped, not quarantined, and never memoized.
    pub fn is_transient(&self) -> bool {
        matches!(self, ExplainError::Obdm(e) if e.is_transient())
    }
}

impl std::error::Error for ExplainError {}

impl From<ObdmError> for ExplainError {
    fn from(e: ObdmError) -> Self {
        ExplainError::Obdm(e)
    }
}

/// Knobs bounding a search.
#[derive(Debug, Clone, Copy)]
pub struct SearchLimits {
    /// Maximum body atoms per CQ candidate.
    pub max_atoms: usize,
    /// Maximum distinct variables per CQ candidate.
    pub max_vars: usize,
    /// Maximum constants drawn from the positive borders.
    pub max_constants: usize,
    /// Beam width (beam/bottom-up strategies).
    pub beam_width: usize,
    /// Maximum refinement/generalization rounds.
    pub max_rounds: usize,
    /// How many top explanations to return.
    pub top_k: usize,
}

impl Default for SearchLimits {
    fn default() -> Self {
        Self {
            max_atoms: 3,
            max_vars: 4,
            max_constants: 8,
            beam_width: 24,
            max_rounds: 6,
            top_k: 5,
        }
    }
}

/// A scored explanation: the query, its Z-score, its match statistics,
/// and the per-criterion values that produced the score.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The query over the ontology (a UCQ; a plain CQ has one disjunct).
    pub query: OntoUcq,
    /// `Z_F(q)`.
    pub score: f64,
    /// The confusion counts behind the criteria.
    pub stats: MatchStats,
    /// `f_δ(q)` per criterion, in the scoring's criteria order.
    pub criterion_values: Vec<f64>,
    /// The match bits the engine scored a single-CQ query with: what its
    /// refinements are delta-evaluated against ([`ParentHandle`]).
    /// `None` for a query [`ExplainTask::score_ucq`] scored.
    ///
    /// [`ParentHandle`]: crate::prune::ParentHandle
    pub(crate) bits: Option<Arc<MatchBits>>,
}

impl Explanation {
    /// Renders the query with the system's vocabularies.
    pub fn render(&self, system: &ObdmSystem) -> String {
        let mut s = String::new();
        for (i, d) in self.query.disjuncts().iter().enumerate() {
            if i > 0 {
                s.push_str(" ∪ ");
            }
            s.push_str(&d.render(system.spec().tbox().vocab(), system.db().consts()));
        }
        s
    }
}

/// The result of one strategy run under the anytime contract: the ranked
/// explanations found, plus how the run ended.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// Best explanations found, ranked (best first). Non-empty whenever
    /// the run scored at least one healthy candidate, even on early stop.
    pub explanations: Vec<Explanation>,
    /// How the run ended (complete / budget stop / degraded).
    pub termination: Termination,
    /// Candidates quarantined (scoring panicked or failed permanently).
    /// Carried separately from [`Termination::Degraded`] so budget-stopped
    /// runs still report their losses.
    pub quarantined: usize,
    /// Candidates skipped by monotone bound pruning (`crate::prune`):
    /// their admissible score bound proved they cannot appear in this
    /// ranking, so they were never compiled or evaluated. Informational —
    /// pruning never changes the explanations above.
    pub pruned: usize,
    /// The run's observability snapshot: per-phase wall times and kernel
    /// counters, captured from the recorder riding on the task's budget
    /// ([`SearchBudget::with_recorder`]). Empty when no recorder was
    /// attached or observability is off (`OBX_OBS=0`). Informational —
    /// never consulted by the search itself.
    pub profile: PipelineProfile,
}

/// One fully-specified instance of the paper's Definition 3.7 problem:
/// find `q ∈ L_O` maximizing `Z_F(q)` w.r.t. `Σ`, `r`, `Δ`, `F`, `Z`.
#[derive(Clone)]
pub struct ExplainTask<'a> {
    prepared: PreparedLabels<'a>,
    scoring: &'a Scoring,
    limits: SearchLimits,
    arity: usize,
    engine: Arc<ScoringEngine>,
    budget: SearchBudget,
    /// Cached [`SearchBudget::interrupt`] projection, rebuilt whenever the
    /// budget changes, so the hot scoring path does not re-assemble it.
    interrupt: Interrupt,
}

impl<'a> ExplainTask<'a> {
    /// Prepares a task: computes every labelled tuple's border once. The
    /// budget is unlimited; see [`ExplainTask::new_with_budget`].
    pub fn new(
        system: &'a ObdmSystem,
        labels: &Labels,
        radius: usize,
        scoring: &'a Scoring,
        limits: SearchLimits,
    ) -> Result<Self, ExplainError> {
        Self::new_with_budget(
            system,
            labels,
            radius,
            scoring,
            limits,
            SearchBudget::unlimited(),
        )
    }

    /// [`ExplainTask::new`] under a [`SearchBudget`]: the budget's
    /// deadline/cancellation already govern border preparation (a huge
    /// dense neighbourhood BFS stops early, yielding truncated borders),
    /// and every subsequent scoring call checks it cooperatively.
    pub fn new_with_budget(
        system: &'a ObdmSystem,
        labels: &Labels,
        radius: usize,
        scoring: &'a Scoring,
        limits: SearchLimits,
        budget: SearchBudget,
    ) -> Result<Self, ExplainError> {
        labels.arity().ok_or(ExplainError::NoLabels)?;
        let prepared =
            PreparedLabels::new_interruptible(system, labels, radius, &budget.interrupt());
        Self::from_prepared(prepared, scoring, limits, budget)
    }

    /// A task over labels already prepared for it: the borders (and the
    /// constant ranking, once built) are shared with every other holder
    /// of `prepared`'s [`LabelBorders`](crate::matcher::LabelBorders),
    /// not recomputed. The scoring engine is fresh.
    pub fn from_prepared(
        prepared: PreparedLabels<'a>,
        scoring: &'a Scoring,
        limits: SearchLimits,
        budget: SearchBudget,
    ) -> Result<Self, ExplainError> {
        let arity = prepared.arity().ok_or(ExplainError::NoLabels)?;
        let interrupt = budget.interrupt();
        Ok(Self {
            prepared,
            scoring,
            limits,
            arity,
            engine: Arc::new(ScoringEngine::new()),
            budget,
            interrupt,
        })
    }

    /// The system Σ.
    pub fn system(&self) -> &'a ObdmSystem {
        self.prepared.system()
    }

    /// The prepared (border-cached) labels.
    pub fn prepared(&self) -> &PreparedLabels<'a> {
        &self.prepared
    }

    /// The scoring configuration (Δ, F, Z).
    pub fn scoring(&self) -> &Scoring {
        self.scoring
    }

    /// The search limits.
    pub fn limits(&self) -> SearchLimits {
        self.limits
    }

    /// The arity `n` of λ's tuples.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The shared scoring engine (its memo cache). Shared, not
    /// cloned, by [`ExplainTask::with_limits`], so meta-strategies reuse
    /// the base run's cache.
    pub fn engine(&self) -> &ScoringEngine {
        &self.engine
    }

    /// A copy of this task with different limits (borders are shared, not
    /// recomputed; the scoring engine — and hence its memo cache — is
    /// shared, and so is the budget). Used by meta-strategies that need a
    /// wider base pool.
    pub fn with_limits(&self, limits: SearchLimits) -> ExplainTask<'a> {
        ExplainTask {
            limits,
            ..self.clone()
        }
    }

    /// A copy of this task under a different budget (borders and engine
    /// are shared). Note the engine's evaluator counter is cumulative
    /// across sharing tasks, which is what a per-request eval cap wants.
    pub fn with_budget(&self, budget: SearchBudget) -> ExplainTask<'a> {
        ExplainTask {
            interrupt: budget.interrupt(),
            budget,
            ..self.clone()
        }
    }

    /// A copy of this task under a different scoring (borders, limits,
    /// engine, and budget are shared). This lets one expensive border
    /// preparation serve several objectives — the mode bench re-runs
    /// identical prepared borders under each [`crate::score::ExplainMode`]
    /// scoring.
    pub fn with_scoring(&self, scoring: &'a Scoring) -> ExplainTask<'a> {
        ExplainTask {
            scoring,
            ..self.clone()
        }
    }

    /// A copy of this task scoring through a different engine (fresh
    /// cache and counters; borders and budget are shared). This is the
    /// A/B hook: pair it with [`ScoringEngine::with_config`] to compare
    /// the incremental path against the baseline on identical borders
    /// without touching the process environment.
    pub fn with_engine(&self, engine: Arc<ScoringEngine>) -> ExplainTask<'a> {
        ExplainTask {
            engine,
            ..self.clone()
        }
    }

    /// The budget governing this task.
    pub fn budget(&self) -> &SearchBudget {
        &self.budget
    }

    /// The kernel-level deadline/cancellation projection of the budget.
    pub fn interrupt(&self) -> &Interrupt {
        &self.interrupt
    }

    /// Whether the budget has fired, and why. Strategies poll this at
    /// loop granularity (per batch, per round, per enumeration block) and
    /// switch to returning best-so-far when it fires.
    pub fn stop_reason(&self) -> Option<Stop> {
        self.budget.stop_reason(self.engine.eval_calls())
    }

    /// The stop to report for the finished run: a loop-halting
    /// [`stop_reason`](ExplainTask::stop_reason), or — when the loop ran
    /// to the end over guard-truncated kernels — the resource-guard trip.
    pub fn final_stop(&self) -> Option<Stop> {
        self.budget.final_stop(self.engine.eval_calls())
    }

    /// Scores one UCQ candidate end to end via the engine: one memoized
    /// compile + bitset per distinct disjunct, stats by bitset OR, then Z.
    pub fn score_ucq(&self, ucq: &OntoUcq) -> Result<Explanation, ExplainError> {
        let stats = self
            .engine
            .stats_ucq_interruptible(&self.prepared, ucq, &self.interrupt)?;
        let num_atoms = ucq.disjuncts().iter().map(OntoCq::num_atoms).sum();
        let ctx = CriterionCtx {
            stats: &stats,
            num_atoms,
            num_disjuncts: ucq.len(),
        };
        let criterion_values = self.scoring.values(&ctx);
        let score = self.scoring.expr().eval(&criterion_values);
        Ok(Explanation {
            query: ucq.clone(),
            score,
            stats,
            criterion_values,
            bits: None,
        })
    }

    /// Scores a single CQ candidate.
    pub fn score_cq(&self, cq: &OntoCq) -> Result<Explanation, ExplainError> {
        let bits = self.engine.disjunct(&self.prepared, cq, &self.interrupt)?;
        Ok(self.explanation_of(cq, bits))
    }

    /// [`ExplainTask::score_cq`] for a candidate of a batch
    /// ([`ScoringEngine::disjunct_at`]), delta-evaluated against its
    /// `parent`'s bits when it has them, that matters only if it scores
    /// at least `floor`: `Ok(None)` when the engine proved it cannot,
    /// before or during its evaluation.
    pub(crate) fn score_cq_at(
        &self,
        cq: &OntoCq,
        parent: Option<(&MatchBits, crate::prune::RefineDir)>,
        floor: f64,
    ) -> Result<Option<Explanation>, ExplainError> {
        let cut = crate::engine::Cut {
            floor,
            scoring: self.scoring,
            num_atoms: cq.num_atoms(),
        };
        let bits = self
            .engine
            .disjunct_at(&self.prepared, cq, &self.interrupt, parent, cut)?;
        Ok(bits.map(|bits| self.explanation_of(cq, bits)))
    }

    /// The explanation of a single CQ whose match bits are `bits`.
    fn explanation_of(&self, cq: &OntoCq, bits: Arc<MatchBits>) -> Explanation {
        let stats = bits.stats();
        let ctx = CriterionCtx {
            stats: &stats,
            num_atoms: cq.num_atoms(),
            num_disjuncts: 1,
        };
        let criterion_values = self.scoring.values(&ctx);
        let score = self.scoring.expr().eval(&criterion_values);
        Explanation {
            query: OntoUcq::from_cq(cq.clone()),
            score,
            stats,
            criterion_values,
            bits: Some(bits),
        }
    }

    /// Evidence for why `query` J-matches the labelled tuple `tuple`: the
    /// border atoms grounding the match, rendered (`ENR(A10, Math, TV)`,
    /// …). `Ok(None)` when the tuple is unlabelled or does not match —
    /// this is the per-answer provenance the paper's future work (its
    /// reference [10], explanation of query answers in DL-Lite) calls for.
    pub fn evidence(
        &self,
        query: &OntoUcq,
        tuple: &[obx_srcdb::Const],
    ) -> Result<Option<Vec<String>>, ExplainError> {
        let entry = self
            .prepared
            .pos()
            .iter()
            .chain(self.prepared.neg().iter())
            .find(|(t, _)| t.as_ref() == tuple);
        let Some((t, border)) = entry else {
            return Ok(None);
        };
        let db = self.system().db();
        // Per disjunct: matching distributes over the union.
        for d in query.disjuncts() {
            let compiled = self.system().spec().compile_cq(&d.canonical())?;
            if let Some((_, atoms)) = compiled.evidence(obx_srcdb::View::masked(db, border), t) {
                return Ok(Some(
                    atoms
                        .into_iter()
                        .map(|id| db.atom(id).render(db.schema(), db.consts()))
                        .collect(),
                ));
            }
        }
        Ok(None)
    }
}

/// A search strategy for Definition 3.7. Implementations return their best
/// explanations **sorted by descending score** (ties broken towards fewer
/// atoms, then deterministically).
///
/// Strategies honour the task's [`SearchBudget`] under the **anytime
/// contract**: when the budget fires mid-search they stop at the next
/// checkpoint and return the best explanations found so far, tagging the
/// report with the [`Termination`] reason instead of erroring.
pub trait Strategy {
    /// The strategy's name (used in reports and the E6 table).
    fn name(&self) -> &'static str;

    /// Runs the search and reports how it ended ([`ExplainReport`]).
    fn explain_with_status(&self, task: &ExplainTask<'_>) -> Result<ExplainReport, ExplainError>;

    /// Runs the search, returning the ranked explanations only.
    fn explain(&self, task: &ExplainTask<'_>) -> Result<Vec<Explanation>, ExplainError> {
        self.explain_with_status(task).map(|r| r.explanations)
    }
}

/// Final post-processing shared by all strategies: each explanation's
/// query is replaced by its **core** (equivalent subquery with redundant
/// atoms removed, [`obx_query::minimize_cq`]'s ontology variant) and
/// re-scored — parsimony (δ5) can only improve and matches are unchanged
/// — then the pool is ranked and truncated.
pub(crate) fn finalize(
    task: &ExplainTask<'_>,
    pool: Vec<Explanation>,
    top_k: usize,
) -> Vec<Explanation> {
    // When the budget has already fired (or a resource guard tripped),
    // skip core minimization: it can compile fresh (never-seen) core
    // queries, and an anytime return should not start new work — and
    // *must* not, for the cancellation cross-check that compares a
    // cancelled run's ranking against the uncancelled run's scores.
    let minimized: Vec<Explanation> = if task.final_stop().is_some() {
        pool
    } else {
        pool.into_iter()
            .map(|e| {
                let cores: OntoUcq = e
                    .query
                    .disjuncts()
                    .iter()
                    .map(obx_query::minimize_onto_cq)
                    .collect();
                if cores == e.query {
                    e
                } else {
                    task.score_ucq(&cores).unwrap_or(e)
                }
            })
            .collect()
    };
    // Minimization can collapse distinct candidates onto the same core;
    // keep the best-ranked representative of each.
    let ranked = rank(minimized, usize::MAX);
    let mut seen: obx_util::FxHashSet<OntoUcq> = obx_util::FxHashSet::default();
    let mut out = Vec::with_capacity(top_k);
    for e in ranked {
        if seen.insert(e.query.clone()) {
            out.push(e);
            if out.len() == top_k {
                break;
            }
        }
    }
    out
}

/// [`finalize`] plus the anytime envelope: tags the ranked pool with the
/// run's [`Termination`] (budget stop wins; otherwise quarantine losses;
/// otherwise complete). All built-in strategies return through here.
pub(crate) fn finalize_report(
    task: &ExplainTask<'_>,
    pool: Vec<Explanation>,
    top_k: usize,
    quarantined: usize,
    pruned: usize,
) -> ExplainReport {
    let explanations = finalize(task, pool, top_k);
    let profile = match task.budget().recorder() {
        Some(rec) if rec.is_enabled() => {
            // Cumulative engine totals are *gauges* (overwrite): a
            // meta-strategy finalizes twice (base run + its own) over one
            // shared engine, and additive merging would double-count.
            rec.gauge_in_phase("engine", "cache_hits", task.engine().cache_hits());
            rec.gauge_in_phase("engine", "cache_misses", task.engine().cache_misses());
            rec.gauge_in_phase("engine", "evals", task.engine().eval_calls());
            rec.gauge_in_phase("engine", "evals_saved", task.engine().evals_saved());
            rec.gauge_in_phase("engine", "batch_calls", task.engine().batch_calls());
            rec.gauge_in_phase("engine", "certified", task.engine().certified_disjuncts());
            rec.gauge_in_phase("engine", "masked", task.engine().masked_disjuncts());
            // Join work: the candidate atoms this engine's evaluator
            // calls inspected.
            rec.gauge_in_phase("engine", "eval_nodes", task.engine().eval_nodes());
            // Candidates pruned after reaching the engine: a cutoff
            // stopped their evaluation, or a dead source slot proved them
            // below the cut.
            rec.gauge_in_phase("engine", "cutoffs", task.engine().cutoffs());
            // Source disjuncts dropped at compile because no fact of the
            // database matches one of their atoms.
            rec.gauge_in_phase("engine", "dead_disjuncts", task.engine().dead_disjuncts());
            // Candidates answered with the empty source query, uncompiled:
            // one of their atoms compiles alone to data-dead disjuncts
            // only.
            rec.gauge_in_phase("engine", "dead_candidates", task.engine().dead_candidates());
            rec.profile()
        }
        _ => PipelineProfile::default(),
    };
    ExplainReport {
        explanations,
        termination: Termination::from_run(task.final_stop(), quarantined),
        quarantined,
        pruned,
        profile,
    }
}

/// Sorts + truncates a candidate pool into the final ranking. Ties on the
/// Z-score break towards higher positive coverage (keeps "in-progress"
/// conjunction chains alive in beam frontiers), then fewer atoms, then a
/// deterministic structural order.
///
/// Explanations with a non-finite score (a custom criterion expression
/// can produce NaN, e.g. `0/0`) are dropped *before* sorting: NaN makes
/// `partial_cmp` non-total, and a comparator that answers `Equal` for
/// incomparable pairs violates strict weak ordering — `sort_by` may then
/// produce an arbitrary (platform-dependent) permutation.
///
/// When `top_k` keeps fewer than all, the first `top_k` are selected
/// (`select_nth_unstable_by`) and only they are sorted. The comparator's
/// last tiebreak, [`cmp_ucq_structural`], is total on distinct queries,
/// so the result equals a full sort truncated to `top_k`.
pub(crate) fn rank(mut explanations: Vec<Explanation>, top_k: usize) -> Vec<Explanation> {
    explanations.retain(|e| e.score.is_finite());
    if top_k == 0 {
        explanations.clear();
    } else if top_k < explanations.len() {
        explanations.select_nth_unstable_by(top_k - 1, cmp_rank);
        explanations.truncate(top_k);
    }
    explanations.sort_by(cmp_rank);
    explanations
}

/// [`rank`]'s order on finite-score explanations, best first.
fn cmp_rank(a: &Explanation, b: &Explanation) -> std::cmp::Ordering {
    let atoms =
        |e: &Explanation| -> usize { e.query.disjuncts().iter().map(OntoCq::num_atoms).sum() };
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then_with(|| b.stats.pos_matched.cmp(&a.stats.pos_matched))
        .then_with(|| atoms(a).cmp(&atoms(b)))
        .then_with(|| cmp_ucq_structural(&a.query, &b.query))
}

/// Deterministic total order on UCQs for tie-breaking, comparing structure
/// directly (disjunct count, then per-disjunct heads and atoms) — replaces
/// an earlier `format!("{:?}")` comparison that allocated two strings per
/// comparator call, i.e. `O(n log n)` allocations per sort.
fn cmp_ucq_structural(a: &OntoUcq, b: &OntoUcq) -> std::cmp::Ordering {
    use obx_query::OntoAtom;
    use std::cmp::Ordering;
    fn cmp_atom(x: &OntoAtom, y: &OntoAtom) -> Ordering {
        match (x, y) {
            (OntoAtom::Concept(c1, t1), OntoAtom::Concept(c2, t2)) => {
                c1.cmp(c2).then_with(|| t1.cmp(t2))
            }
            (OntoAtom::Concept(..), OntoAtom::Role(..)) => Ordering::Less,
            (OntoAtom::Role(..), OntoAtom::Concept(..)) => Ordering::Greater,
            (OntoAtom::Role(r1, s1, o1), OntoAtom::Role(r2, s2, o2)) => {
                r1.cmp(r2).then_with(|| s1.cmp(s2)).then_with(|| o1.cmp(o2))
            }
        }
    }
    fn cmp_cq(x: &OntoCq, y: &OntoCq) -> Ordering {
        x.head()
            .cmp(y.head())
            .then_with(|| x.body().len().cmp(&y.body().len()))
            .then_with(|| {
                x.body()
                    .iter()
                    .zip(y.body())
                    .map(|(p, q)| cmp_atom(p, q))
                    .find(|o| *o != Ordering::Equal)
                    .unwrap_or(Ordering::Equal)
            })
    }
    a.disjuncts().len().cmp(&b.disjuncts().len()).then_with(|| {
        a.disjuncts()
            .iter()
            .zip(b.disjuncts())
            .map(|(p, q)| cmp_cq(p, q))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use obx_obdm::example_3_6_system;

    #[test]
    fn task_scores_the_papers_queries() {
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), "+ A10\n+ B80\n+ C12\n+ D50\n- E25").unwrap();
        let q1 = sys
            .parse_query(r#"q(x) :- studies(x, y), taughtIn(y, z), locatedIn(z, "Rome")"#)
            .unwrap();
        let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let e = task.score_ucq(&q1).unwrap();
        assert!((e.score - 0.6944).abs() < 1e-3);
        assert_eq!(e.stats.pos_matched, 3);
        assert_eq!(e.criterion_values.len(), 3);
        assert!(e.render(&sys).contains("studies"));
        assert_eq!(task.arity(), 1);
    }

    #[test]
    fn empty_labels_are_rejected() {
        let sys = example_3_6_system();
        let labels = Labels::new();
        let scoring = Scoring::balanced();
        let err = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default())
            .err()
            .expect("empty λ must fail");
        assert!(matches!(err, ExplainError::NoLabels));
    }

    #[test]
    fn evidence_grounds_a_match_in_border_atoms() {
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), "+ A10\n+ B80\n+ C12\n+ D50\n- E25").unwrap();
        let q1 = sys
            .parse_query(r#"q(x) :- studies(x, y), taughtIn(y, z), locatedIn(z, "Rome")"#)
            .unwrap();
        let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let a10 = sys.db().consts().get("A10").unwrap();
        let ev = task.evidence(&q1, &[a10]).unwrap().expect("A10 matches q1");
        // The grounding facts: A10's enrolment and the Rome location.
        assert!(ev.iter().any(|a| a == "ENR(A10, Math, TV)"), "{ev:?}");
        assert!(ev.iter().any(|a| a == "LOC(TV, Rome)"), "{ev:?}");
        // E25 does not match q1 inside its border: no evidence.
        let e25 = sys.db().consts().get("E25").unwrap();
        assert!(task.evidence(&q1, &[e25]).unwrap().is_none());
        // Unlabelled tuples have no border: no evidence either.
        let rome = sys.db().consts().get("Rome").unwrap();
        assert!(task.evidence(&q1, &[rome]).unwrap().is_none());
    }

    #[test]
    fn rank_drops_non_finite_scores_before_sorting() {
        // Regression: a custom criterion expression can produce NaN (0/0)
        // or ±inf. NaN makes `partial_cmp` non-total; a comparator that
        // maps incomparable pairs to Equal violates strict weak ordering,
        // and `sort_by` may then return an arbitrary permutation — the
        // "best" explanation of a run became platform-dependent. Non-finite
        // scores must be filtered out before sorting.
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), "+ A10\n- E25").unwrap();
        let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
        let q = sys.parse_query(r#"q(x) :- studies(x, "Math")"#).unwrap();
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let healthy = task.score_ucq(&q).unwrap();
        let poisoned = |s: f64| Explanation {
            score: s,
            ..healthy.clone()
        };
        let ranked = rank(
            vec![
                poisoned(f64::NAN),
                healthy.clone(),
                poisoned(f64::INFINITY),
                poisoned(f64::NEG_INFINITY),
                poisoned(f64::NAN),
            ],
            10,
        );
        assert_eq!(ranked.len(), 1, "only the finite-scored survivor remains");
        assert_eq!(ranked[0].score, healthy.score);
        // All-poisoned pools rank to empty rather than garbage.
        assert!(rank(vec![poisoned(f64::NAN)], 10).is_empty());
    }

    #[test]
    fn rank_orders_by_score_then_parsimony() {
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), "+ A10\n- E25").unwrap();
        let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
        let q_small = sys.parse_query(r#"q(x) :- studies(x, "Math")"#).unwrap();
        let q_big = sys
            .parse_query(r#"q(x) :- studies(x, "Math"), likes(x, "Math")"#)
            .unwrap();
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let e_small = task.score_ucq(&q_small).unwrap();
        let e_big = task.score_ucq(&q_big).unwrap();
        let ranked = rank(vec![e_big.clone(), e_small.clone()], 10);
        assert!(ranked[0].score >= ranked[1].score);
        // Same coverage: the smaller query must rank first via δ5.
        assert!(
            ranked[0].query.disjuncts()[0].num_atoms()
                <= ranked[1].query.disjuncts()[0].num_atoms()
        );
        // top_k truncation.
        assert_eq!(rank(vec![e_small, e_big], 1).len(), 1);
    }

    #[test]
    fn partial_rank_equals_a_full_sort_truncated() {
        // Twelve distinct queries over three scores and two positive
        // counts, so most pairs tie on the score and many on pos_matched
        // and the atom count too: only the structural tiebreak orders them.
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), "+ A10\n- E25").unwrap();
        let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
        let queries: Vec<OntoUcq> = [
            r#"q(x) :- studies(x, "Math")"#,
            r#"q(x) :- studies(x, "Science")"#,
            r#"q(x) :- likes(x, "Math")"#,
            r#"q(x) :- likes(x, "Science")"#,
            "q(x) :- studies(x, y)",
            "q(x) :- likes(x, y)",
            "q(x) :- studies(x, y), taughtIn(y, z)",
            "q(x) :- likes(x, y), taughtIn(y, z)",
            r#"q(x) :- studies(x, y), taughtIn(y, "TV")"#,
            r#"q(x) :- studies(x, "Math"), likes(x, "Math")"#,
            "q(x) :- taughtIn(x, y)",
            "q(x) :- locatedIn(x, y)",
        ]
        .into_iter()
        .map(|text| sys.parse_query(text).unwrap())
        .collect();
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let mut pool = Vec::new();
        for (i, query) in queries.iter().enumerate() {
            let mut e = task.score_ucq(query).unwrap();
            e.score = [0.5, 0.25, 0.5][i % 3];
            e.stats.pos_matched = i % 2;
            pool.push(e);
        }
        let key =
            |xs: &[Explanation]| -> Vec<OntoUcq> { xs.iter().map(|e| e.query.clone()).collect() };
        // Several input orders, a fixed linear-congruential shuffle each.
        let mut state = 7u64;
        for _ in 0..8 {
            for i in (1..pool.len()).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                pool.swap(i, (state >> 33) as usize % (i + 1));
            }
            let mut full = pool.clone();
            full.sort_by(cmp_rank);
            for k in 0..=pool.len() + 1 {
                let partial = rank(pool.clone(), k);
                let expected = &full[..k.min(full.len())];
                assert_eq!(key(&partial), key(expected), "top {k}");
            }
        }
    }
}

//! Search strategies for Definition 3.7.
//!
//! | Strategy | Direction | Completeness | Cost | Use when |
//! |---|---|---|---|---|
//! | [`ExhaustiveSearch`] | enumerate | complete up to its size limits | exponential | tiny vocabularies, ground truth for the others |
//! | [`BottomUpGeneralize`] | specific → general | heuristic | `O(border · rounds · beam)` | few positives with rich borders |
//! | [`BeamSearch`] | general → specific | heuristic | `O(rounds · beam · branching)` | the workhorse (DL-Learner-style) |
//! | [`GreedyUcq`] | assemble disjuncts | heuristic | base + `O(k²)` | λ⁺ is a union of heterogeneous clusters |
//!
//! All strategies score candidates through the task's shared
//! [`ScoringEngine`](crate::engine::ScoringEngine): each *distinct*
//! compiled source query is evaluated against the labelled borders
//! exactly once and memoized as a match bitset; unions are scored by
//! OR-ing memoized bitsets with no evaluator calls; and each batch
//! scores on the calling thread.
//!
//! Beam search and bottom-up generalization differ only in their first
//! batch and their one-step operator (specialization vs generalization);
//! both hand those to one round loop, `refinement_rounds`, which owns
//! the `seen` history, the rank / select / floor sequence, the per-round
//! span and the budget checkpoint.

mod beam;
mod bottom_up;
mod exhaustive;
mod greedy_ucq;

pub use beam::BeamSearch;
pub use bottom_up::BottomUpGeneralize;
pub use exhaustive::{candidate_space_size, ExhaustiveSearch};
pub use greedy_ucq::GreedyUcq;

use crate::engine::PlannedCq;
use crate::explain::{
    finalize_report, rank, ExplainError, ExplainReport, ExplainTask, Explanation,
};
use crate::matcher::MatchStats;
use crate::prune::{ParentHandle, RefineDir};
use obx_query::{OntoCq, OntoUcq};
use obx_util::FxHashSet;
use std::ops::Range;

/// Scores provenance-carrying candidates on the task's scoring engine,
/// with its monotone bound pruning against the caller's selection
/// `window` and its ranked `pool`, which the caller truncates to `cap`
/// after adding the batch (see
/// [`ScoringEngine::score_batch_planned`](crate::engine::ScoringEngine::score_batch_planned)).
pub(crate) fn score_batch_planned(
    task: &ExplainTask<'_>,
    planned: Vec<PlannedCq>,
    window: usize,
    cap: usize,
    pool: &[Explanation],
) -> crate::engine::BatchOutcome {
    let scores: Vec<f64> = pool.iter().map(|e| e.score).collect();
    task.engine()
        .score_batch_planned(task, planned, window, cap, &scores)
}

/// The refinement-round loop of [`BeamSearch`] and
/// [`BottomUpGeneralize`], which walk the refinement lattice in the two
/// directions of one containment order.
///
/// `first` (the starts or seeds) is deduplicated and scored without
/// provenance; its ranked pool and selected beam open the loop. Each
/// round of `rounds` (the round number is the span's `depth`) stops at
/// the budget checkpoint, expands every beam member's disjuncts with
/// `children` — one-step refinements in direction `dir`, so the member is
/// each child's parent for delta evaluation and bound pruning
/// (`crate::prune`) — drops what an earlier round already produced, and
/// scores the rest under the pool's and the beam window's floors. The
/// loop ends early once a round produces or scores nothing new.
pub(crate) fn refinement_rounds(
    task: &ExplainTask<'_>,
    first: Vec<OntoCq>,
    dir: RefineDir,
    rounds: Range<usize>,
    span: &str,
    children: impl Fn(&OntoCq) -> Vec<OntoCq>,
) -> ExplainReport {
    let limits = task.limits();
    let cap = pool_cap(&limits);
    let mut seen: FxHashSet<OntoCq> = FxHashSet::default();
    let first = first
        .into_iter()
        .map(|cq| PlannedCq { cq, parent: None })
        .collect();
    let first = dedup_planned(first, &mut seen);
    let outcome = score_batch_planned(task, first, usize::MAX, usize::MAX, &[]);
    let mut quarantined = outcome.quarantined;
    let mut pruned = outcome.pruned;
    // Rank the first pool immediately: the per-round prune floor is the
    // cap-th pool score, so the pool must be rank-sorted from the first
    // round on.
    let mut pool: Vec<Explanation> = rank(outcome.explanations.clone(), cap);
    let mut beam: Vec<Explanation> = select_beam(outcome.explanations, limits.beam_width);

    for round in rounds {
        // Budget checkpoint at round granularity: the pool already holds
        // everything scored so far, so stopping here is exactly the
        // anytime contract (the batch also stops at candidate granularity
        // for finer response).
        if task.stop_reason().is_some() {
            break;
        }
        let mut next: Vec<PlannedCq> = Vec::new();
        for e in &beam {
            let parent = ParentHandle::from_explanation(dir, e);
            for d in e.query.disjuncts() {
                for cq in children(d) {
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
        // Floors before extending: a candidate that scores below both the
        // in-batch beam window and the pool's cap-th entry cannot enter
        // the beam or survive the pool truncation, so the engine may skip
        // it, or stop its evaluation, output-invariantly.
        let floor = pool_floor_of(&pool, cap);
        let mut rsp = round_span(task, span, round, fresh.len(), floor);
        let outcome = score_batch_planned(task, fresh, beam_window(limits.beam_width), cap, &pool);
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
    finalize_report(task, pool, limits.top_k, quarantined, pruned)
}

/// Opens the per-round observability span of a round-loop strategy. All
/// rounds aggregate under one path per strategy (nested under the current
/// recorder phase, e.g. `"explain/search/beam_round"`): `candidates` sums
/// the batch sizes, `depth` is the deepest round reached, and the prune
/// floor's evolution is captured as `floor_milli` — the highest finite
/// floor seen, in thousandths of a score unit (span counters are
/// integers) — plus `floor_active`, the number of rounds the floor was
/// finite. Callers add `pruned` after scoring; dropping the span records
/// the round's wall time. A no-op when the task's budget carries no
/// recorder.
pub(crate) fn round_span<'t>(
    task: &'t ExplainTask<'_>,
    name: &str,
    round: usize,
    candidates: usize,
    floor: f64,
) -> obx_util::obs::Span<'t> {
    let mut sp = obx_util::span!(task.budget().recorder(), name);
    sp.count("candidates", candidates as u64);
    sp.count_max("depth", round as u64);
    if floor.is_finite() {
        sp.count("floor_active", 1);
        sp.count_max("floor_milli", (floor.max(0.0) * 1000.0) as u64);
    }
    sp
}

/// The number of ranked batch candidates beam selection may ever inspect
/// ([`select_beam`] truncates to this window); the engine's in-batch prune
/// guard is sized to match.
pub(crate) fn beam_window(width: usize) -> usize {
    width.saturating_mul(2)
}

/// The size the round-loop strategies rank-truncate their candidate pool
/// to between rounds (and before finalization).
pub(crate) fn pool_cap(limits: &crate::explain::SearchLimits) -> usize {
    (limits.top_k * 4).max(limits.beam_width * 2)
}

/// The score a new candidate must *strictly* beat to survive the ranked
/// pool's truncation at `cap`: the cap-th best score, or `-∞` while the
/// pool has not filled. `pool` must already be [`rank`]-sorted descending.
///
/// [`rank`]: crate::explain::rank
pub(crate) fn pool_floor_of(pool: &[Explanation], cap: usize) -> f64 {
    if pool.len() >= cap {
        pool[cap - 1].score
    } else {
        f64::NEG_INFINITY
    }
}

/// Beam selection with a diversity cap: at most a few candidates per
/// *signature* (multiset of predicates + confusion counts) enter the
/// frontier. Without this, plateaus of equal-scored rewordings of one idea
/// crowd out structurally different partial conjunctions (e.g. the
/// `studies∘taughtIn` chain that must survive two rounds before
/// `locatedIn(z, "Rome")` pays off in the paper's example).
pub(crate) fn select_beam(scored: Vec<Explanation>, width: usize) -> Vec<Explanation> {
    use obx_query::OntoAtom;
    // Selection only ever looks at the top `beam_window(width)` ranked
    // candidates (the diversity overflow refill included): making the
    // window explicit here is what lets the engine prune batch candidates
    // that provably rank below it without changing the selected beam.
    let ranked = crate::explain::rank(scored, beam_window(width));
    let per_sig = (width / 6).max(2);
    let mut counts: obx_util::FxHashMap<(Vec<u64>, usize, usize), usize> =
        obx_util::FxHashMap::default();
    let mut beam = Vec::with_capacity(width);
    let mut overflow = Vec::new();
    for e in ranked {
        if beam.len() == width {
            break;
        }
        let mut preds: Vec<u64> = e
            .query
            .disjuncts()
            .iter()
            .flat_map(|d| d.body().iter())
            .map(|a| match a {
                OntoAtom::Concept(c, _) => (c.0 .0 as u64) << 1,
                OntoAtom::Role(r, _, _) => ((r.0 .0 as u64) << 1) | 1,
            })
            .collect();
        preds.sort_unstable();
        let sig = (preds, e.stats.pos_matched, e.stats.neg_matched);
        let n = counts.entry(sig).or_insert(0);
        if *n < per_sig {
            *n += 1;
            beam.push(e);
        } else {
            overflow.push(e);
        }
    }
    // Fill any remaining width from the overflow, best first.
    for e in overflow {
        if beam.len() == width {
            break;
        }
        beam.push(e);
    }
    beam
}

/// Deduplicates provenance-carrying candidates by canonical form:
/// collapses canonical-form duplicates (first occurrence — and hence its
/// parent — wins) and filters out anything already in `seen`, inserting
/// the survivors. [`refinement_rounds`] keeps one `seen` across its
/// rounds, so the history and the batch-internal dedup agree bit for bit
/// between the incremental and the baseline engine.
pub(crate) fn dedup_planned(
    candidates: Vec<PlannedCq>,
    seen: &mut FxHashSet<OntoCq>,
) -> Vec<PlannedCq> {
    let mut out = Vec::with_capacity(candidates.len());
    for p in candidates {
        let canon = p.cq.canonical();
        if seen.insert(canon.clone()) {
            out.push(PlannedCq {
                cq: canon,
                parent: p.parent,
            });
        }
    }
    out
}

/// The refinement lattice's one-step operators, exposed for property
/// testing and tooling. The invariant the engine's delta evaluation and
/// bound pruning rest on (`crate::prune`): on any fixed set of borders,
/// every [`specializations`](refinement::specializations) child's match
/// bits are a **subset** of its parent's, and every
/// [`generalizations`](refinement::generalizations) child's a
/// **superset**.
pub mod refinement {
    use super::{beam, bottom_up};
    use crate::explain::ExplainTask;
    use obx_query::OntoCq;
    use obx_srcdb::Const;

    /// One-step specializations of `cq`: beam search's downward operator
    /// (add atom, bind constant, merge variables, Hasse-down), bounded by
    /// the task's limits. `consts` is the constant pool for binding.
    pub fn specializations(task: &ExplainTask<'_>, cq: &OntoCq, consts: &[Const]) -> Vec<OntoCq> {
        beam::refine(task, cq, consts)
    }

    /// One-step generalizations of `cq`: bottom-up's upward operator
    /// (drop atom, constant → fresh variable, Hasse-up).
    pub fn generalizations(task: &ExplainTask<'_>, cq: &OntoCq) -> Vec<OntoCq> {
        bottom_up::generalize(task, cq)
    }
}

/// The distinct single-CQ candidates of a base strategy's explanations
/// (the raw material for [`GreedyUcq`]), each with its match stats when
/// its explanation is that one CQ.
pub(crate) fn base_cqs(explanations: &[Explanation]) -> Vec<(OntoCq, Option<MatchStats>)> {
    let mut out = Vec::new();
    let mut seen: FxHashSet<OntoCq> = FxHashSet::default();
    for e in explanations {
        let stats = (e.query.len() == 1).then_some(e.stats);
        for d in e.query.disjuncts() {
            let canon = d.canonical();
            if seen.insert(canon.clone()) {
                out.push((canon, stats));
            }
        }
    }
    out
}

/// The union of `cqs`, in order: how [`GreedyUcq`] assembles a candidate
/// explanation from its chosen disjuncts.
pub(crate) fn ucq_of(cqs: &[OntoCq]) -> OntoUcq {
    cqs.iter().cloned().collect()
}

/// Returns an error when the task's labels are not unary; the generate-
/// and-test strategies currently synthesize unary (single-head-variable)
/// queries only. Bottom-up generalization supports any arity.
pub(crate) fn require_unary(
    task: &ExplainTask<'_>,
    strategy: &'static str,
) -> Result<(), ExplainError> {
    if task.arity() != 1 {
        Err(ExplainError::UnsupportedArity {
            strategy,
            arity: task.arity(),
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::SearchLimits;
    use crate::labels::Labels;
    use crate::score::Scoring;
    use obx_obdm::example_3_6_system;
    use obx_query::{OntoAtom, Term, VarId};

    #[test]
    fn score_batch_drops_nothing_on_well_formed_candidates() {
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), "+ A10\n- E25").unwrap();
        let scoring = Scoring::balanced();
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let vocab = sys.spec().tbox().vocab();
        let studies = vocab.get_role("studies").unwrap();
        let likes = vocab.get_role("likes").unwrap();
        let mk = |r| {
            OntoCq::new(
                vec![VarId(0)],
                vec![OntoAtom::Role(r, Term::Var(VarId(0)), Term::Var(VarId(1)))],
            )
            .unwrap()
        };
        let planned = vec![mk(studies), mk(likes)]
            .into_iter()
            .map(|cq| PlannedCq { cq, parent: None })
            .collect();
        let outcome = score_batch_planned(&task, planned, usize::MAX, usize::MAX, &[]);
        assert_eq!(outcome.explanations.len(), 2);
        assert_eq!(outcome.quarantined, 0);
        assert!(outcome.explanations.iter().all(|e| e.stats.pos_total == 1));
    }

    #[test]
    fn dedup_planned_collapses_renamings() {
        let mut sys = example_3_6_system();
        let vocab = sys.spec().tbox().vocab();
        let studies = vocab.get_role("studies").unwrap();
        let a = OntoCq::new(
            vec![VarId(0)],
            vec![OntoAtom::Role(
                studies,
                Term::Var(VarId(0)),
                Term::Var(VarId(1)),
            )],
        )
        .unwrap();
        let b = OntoCq::new(
            vec![VarId(3)],
            vec![OntoAtom::Role(
                studies,
                Term::Var(VarId(3)),
                Term::Var(VarId(7)),
            )],
        )
        .unwrap();
        let planned = vec![a, b]
            .into_iter()
            .map(|cq| PlannedCq { cq, parent: None })
            .collect();
        assert_eq!(dedup_planned(planned, &mut FxHashSet::default()).len(), 1);
        let _ = sys.db_mut();
    }

    #[test]
    fn require_unary_rejects_pairs() {
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), "+ A10, B80").unwrap();
        let scoring = Scoring::balanced();
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        assert!(matches!(
            require_unary(&task, "beam"),
            Err(ExplainError::UnsupportedArity { arity: 2, .. })
        ));
    }
}

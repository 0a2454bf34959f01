//! The shared scoring engine: one memo of match bitsets keyed by the
//! compiled source query, scoring each batch on the calling thread.
//!
//! Every strategy ultimately asks the same question — *what are the match
//! statistics of this candidate query against λ?* — and the answer
//! decomposes per disjunct: PerfectRef, unfolding, and certain-membership
//! all distribute over a UCQ's disjuncts, so a UCQ's statistics are fully
//! determined by which labelled tuples each disjunct J-matches. The
//! [`ScoringEngine`] exploits this four ways:
//!
//! 1. **One memo, keyed by the compiled source query.** A disjunct's
//!    [`MatchBits`] (one bit per labelled tuple, positives first) depend
//!    only on its compiled *source* UCQ: Definition 3.4 under a sound GAV
//!    mapping is decided by evaluating `unfold(PerfectRef(q))` on the
//!    prepared borders. So every lookup compiles the disjunct's canonical
//!    form ([`OntoCq::canonical`]), a couple of microseconds, drops the
//!    source disjuncts no fact of the database can match
//!    ([`obx_query::eval::data_dead`]: an atom with no fact, or a
//!    variable in two columns that share no constant; they match no
//!    border), and reads
//!    the memo under the sorted rest. A candidate of two atoms or more
//!    first reads a per-task *liveness table*: the pattern of each atom
//!    (predicate, constants, variables renamed by first occurrence) maps
//!    to whether the atom's own boolean query compiles to a live
//!    disjunct. One dead atom answers the candidate
//!    with the empty source query, uncompiled
//!    ([`ScoringEngine::dead_candidates`]): on the saturated compile route
//!    every source disjunct of the candidate holds an image of one of the
//!    dead atom's disjuncts, so its own compile would have left nothing
//!    live either (DESIGN §11, "Dead atoms before compile"). A missing
//!    entry is filled by that compile, under the candidate's interrupt
//!    and guard; a failed fill is not stored, and the candidate compiles
//!    itself. A guarded run is charged for fills instead of the compiles
//!    they save, so it can stop at another candidate than it would
//!    without the table. A generalization of a parent that matched some
//!    tuple matches it too, so it has a live disjunct: it skips the
//!    table. GAV unfolding is
//!    many-to-one (`likes(x, "Math")` and `studies(x, "Math")` both
//!    compile to `ENR(x, "Math", z)` on the paper's system), so each
//!    distinct source query is evaluated once per task. A lookup answered
//!    with bits is a [`ScoringEngine::cache_hits`], every other one a
//!    [`ScoringEngine::cache_misses`]. Compile failures are not memoized:
//!    a run does not look a failing candidate up twice (DESIGN §11).
//! 2. **Bitset algebra.** The stats of any UCQ are the popcounts of the
//!    OR of its disjuncts' bitsets. Once the disjuncts are memoized,
//!    scoring a union — the inner loop of [`GreedyUcq`]'s `O(k²)`
//!    assembly — is one compile per disjunct and bit operations, with
//!    **zero** evaluator calls (asserted by
//!    `ucq_assembly_makes_no_evaluator_calls_once_disjuncts_are_cached`
//!    below).
//! 3. **Refinement monotonicity** (`crate::prune`). Candidates arriving
//!    with a [`ParentHandle`] — the bits and stats the single-CQ
//!    explanation they were refined from was scored with — are
//!    **delta-evaluated**: only the tuples whose match status can differ
//!    from the parent's are run through the evaluator (the parent's bits
//!    settle the rest as a `Prior::refining`, and one
//!    `PreparedLabels::evaluate` call decides the tuples it leaves open).
//!    The parent is not compiled or looked up again. The same
//!    provenance puts each candidate's counts in a [`CountBox`] and
//!    bounds its score, and [`ScoringEngine::score_batch_planned`] scores
//!    a batch best bound first, in chunks, against a cut that rises with
//!    every chunk (the caller's selection window and ranked pool). A
//!    candidate whose bound is below the cut is skipped before compile;
//!    a scored one's evaluation stops once the box its settled tuples
//!    leave open bounds below the cut (a `Cut` turned into per-side
//!    miss and hit budgets by `prune::cutoff`). Both are exact:
//!    output is byte-identical to full evaluation, enforced by the
//!    equivalence property suites. Always on, except where
//!    [`ScoringEngine::with_config`] turns it off for an A/B comparison.
//! 4. **Dead slots.** A miss evaluates its source query, parent-delta
//!    or full (delta bits are full bits), and stores the bits. An
//!    evaluation a cutoff stopped stores what it settled as a *dead*
//!    slot, which later candidates with that source start from: pruned
//!    without an evaluator call when it already puts them below their
//!    cut, else evaluating the open tuples privately. A dead slot never
//!    turns ready; the bits such a private evaluation completes are
//!    returned unstored, and its explanation carries them to its
//!    children like any other.
//!
//! The memo, the liveness table, the counters and the fault hook are one
//! `State` behind one `Mutex`. Batches score on the calling thread, so
//! the lock is never contended; it keeps the engine `Sync`, so a task,
//! which holds its engine in an `Arc`, can be shared with other threads,
//! and [`ExplainTask::with_limits`] clones share the memo (a
//! meta-strategy's base run warms it for its assembly phase). The lock is
//! taken only between compiles and evaluations, never across one, and
//! never twice at once. A panic under it leaves the state whole (each
//! update is one insert or counter bump), so a poisoned lock is
//! recovered rather than propagated: the candidate that panicked is
//! quarantined (see [`ScoringEngine::score_batch_planned`]).
//!
//! [`GreedyUcq`]: crate::strategies::GreedyUcq
//! [`ExplainTask::with_limits`]: crate::explain::ExplainTask::with_limits

use crate::explain::{ExplainTask, Explanation};
use crate::matcher::{EvalWork, MatchBits, MatchStats, PreparedLabels, Prior};
use crate::prune::{CountBox, ParentHandle, RefineDir};
use crate::score::Scoring;
use obx_obdm::{CompiledQuery, ObdmError};
use obx_query::{Cutoff, OntoAtom, OntoCq, OntoUcq, SrcCq, SrcUcq, Term, VarId};
use obx_util::{FxHashMap, Interrupt};
use std::borrow::Cow;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Fault injection for the resilience test-suite: a **per-engine** hook
/// that makes the Nth scoring call from arming either fail (a permanent
/// [`ObdmError`]) or panic. Being per-engine (not a process-global) keeps
/// concurrently-running tests from tripping each other's faults. Compiled
/// only for `obx-core`'s own tests and under the `fault-injection`
/// feature (which the integration crate enables); release builds carry
/// none of it.
#[cfg(any(test, feature = "fault-injection"))]
pub mod fault {
    /// What the hook does when it fires.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultMode {
        /// Return a permanent `ObdmError` from the scoring call.
        Fail,
        /// Panic inside the scoring call.
        Panic,
    }

    impl FaultMode {
        /// Fires the hook in the scoring call: the error it fails with.
        pub(super) fn fire(self) -> obx_obdm::ObdmError {
            match self {
                FaultMode::Fail => obx_obdm::ObdmError::SchemaMismatch {
                    detail: "injected fault".into(),
                },
                FaultMode::Panic => panic!("injected fault: scoring call panicked"),
            }
        }
    }
}

/// The outcome of scoring one batch under the resilience contract: the
/// healthy explanations (input order), plus how many candidates were
/// quarantined — dropped because their scoring panicked or failed with a
/// permanent error. Transient interruptions (the budget firing
/// mid-compile) are *not* quarantine: those candidates were simply not
/// reached, exactly like the ones after a stop checkpoint.
#[derive(Debug, Default)]
pub struct BatchOutcome {
    /// Explanations of the candidates that scored cleanly.
    pub explanations: Vec<Explanation>,
    /// Candidates dropped by panic or permanent compile failure.
    pub quarantined: usize,
    /// Candidates skipped by monotone bound pruning: their admissible
    /// optimistic score bound proved they cannot enter the caller's
    /// selection window or ranked pool, so they were never compiled or
    /// evaluated. Always 0 on the non-incremental path.
    pub pruned: usize,
}

/// A batch candidate with optional refinement provenance. Candidates with
/// a parent are eligible for delta evaluation and bound pruning; those
/// without (search roots, seeds, candidates whose parent was a union) are
/// scored in full.
#[derive(Debug, Clone)]
pub struct PlannedCq {
    /// The candidate conjunctive query.
    pub cq: OntoCq,
    /// The single-CQ query this candidate was refined from: its bits and
    /// the step's direction.
    pub parent: Option<ParentHandle>,
}

/// The source disjuncts of `compiled` that may have an embedding into the
/// database, and how many were dropped. A data-dead disjunct
/// ([`obx_query::eval::data_dead`]: an atom no fact matches, or a
/// variable in two columns that share no constant) matches no border,
/// so dropping it changes no bit (DESIGN §11).
fn live_source(prepared: &PreparedLabels<'_>, compiled: CompiledQuery) -> (SrcUcq, usize) {
    let db = prepared.system().db();
    let mut src = compiled.into_src();
    let before = src.len();
    src.retain(|d| !obx_query::eval::data_dead(db, d));
    let dropped = before - src.len();
    (src, dropped)
}

/// The liveness table's key for `atom` (module docs, item 1): its
/// predicate and constants, its variables renamed `0, 1` by first
/// occurrence.
fn pattern(atom: OntoAtom) -> OntoAtom {
    let var = |i| Term::Var(VarId(i));
    match atom {
        OntoAtom::Concept(c, Term::Var(_)) => OntoAtom::Concept(c, var(0)),
        OntoAtom::Role(r, Term::Var(s), Term::Var(o)) => {
            OntoAtom::Role(r, var(0), var(u32::from(s != o)))
        }
        OntoAtom::Role(r, Term::Var(_), o) => OntoAtom::Role(r, var(0), o),
        OntoAtom::Role(r, s, Term::Var(_)) => OntoAtom::Role(r, s, var(0)),
        ground => ground,
    }
}

/// The memo's key: a query's live source disjuncts ([`live_source`]),
/// each already canonical ([`obx_query::SrcUcq::push`]), sorted so that
/// two unfoldings of one set in different orders share a key. Borrowed
/// when they are in order already, as a single disjunct always is. Every
/// query with no live disjunct has the empty key.
fn source_key(src: &SrcUcq) -> Cow<'_, [SrcCq]> {
    let disjuncts = src.disjuncts();
    if disjuncts.windows(2).all(|w| w[0] <= w[1]) {
        Cow::Borrowed(disjuncts)
    } else {
        let mut key = disjuncts.to_vec();
        key.sort_unstable();
        Cow::Owned(key)
    }
}

/// A memo entry: the bits, or what an evaluation a cutoff stopped had
/// settled.
enum SrcSlot {
    Ready(Arc<MatchBits>),
    /// The source's evaluation was stopped below its candidate's cut.
    /// Its settled outcomes are exact facts about the source, so a later
    /// candidate with this source starts from them: it is pruned with no
    /// evaluator call when they already put it below its own cut, and
    /// otherwise evaluates the still-open tuples privately. The slot is
    /// never replaced.
    Dead(Arc<Prior>),
}

/// What a lookup of one compiled candidate found.
enum Lookup<'k> {
    /// The source's bits, from a ready slot, or all zero for the empty
    /// source.
    Bits(Arc<MatchBits>),
    /// A miss: the key to store the source's outcome under when the memo
    /// had no slot for it (`None` after a dead slot, which stays), and
    /// what the candidate starts from — its parent's bits, narrowed by a
    /// dead slot's outcomes.
    Miss(Option<&'k [SrcCq]>, Prior),
}

/// A batch candidate's pruning cut: the score it must reach to matter
/// (`floor`), and what its bound over a [`CountBox`] needs — the task's
/// scoring and the candidate's atom count, a single disjunct, exactly as
/// [`ExplainTask::score_cq`] scores it.
#[derive(Clone, Copy)]
pub(crate) struct Cut<'s> {
    pub(crate) floor: f64,
    pub(crate) scoring: &'s Scoring,
    pub(crate) num_atoms: usize,
}

impl Cut<'_> {
    /// The evaluation cutoff for a candidate known to lie in `b`, or
    /// `None` when `b` already scores below the floor.
    fn cutoff(&self, b: &CountBox) -> Option<Cutoff> {
        crate::prune::cutoff(b, self.floor, |b| {
            self.scoring.bound_over(b, self.num_atoms, 1)
        })
    }
}

/// The engine's work counters, one per accessor of
/// [`ScoringEngine`] (`hits` is [`ScoringEngine::cache_hits`], `evals`
/// [`ScoringEngine::eval_calls`], …).
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    hits: u64,
    misses: u64,
    evals: u64,
    evals_saved: u64,
    batch_calls: u64,
    certified: u64,
    masked: u64,
    eval_nodes: u64,
    cutoffs: u64,
    dead_disjuncts: u64,
    dead_candidates: u64,
}

impl Counts {
    /// Charges one candidate's evaluation over `total` labelled tuples:
    /// the evaluator call's `work`, or, with none, what the candidate
    /// knew beforehand settled every tuple.
    fn charge(&mut self, total: usize, work: Option<&EvalWork>) {
        let Some(w) = work else {
            self.evals_saved += total as u64;
            return;
        };
        self.batch_calls += 1;
        self.certified += w.certified as u64;
        self.masked += w.masked as u64;
        self.eval_nodes += w.nodes;
        self.evals += w.evaluated as u64;
        self.evals_saved += (total - w.asked) as u64;
    }
}

/// Everything the engine remembers, behind its one lock (module docs).
#[derive(Default)]
struct State {
    memo: FxHashMap<Vec<SrcCq>, SrcSlot>,
    /// Whether each atom [`pattern`]'s own boolean query has a live
    /// source disjunct.
    live: FxHashMap<OntoAtom, bool>,
    counts: Counts,
    /// The armed fault hook: the fresh scoring calls it lets pass, and
    /// what the next one does.
    #[cfg(any(test, feature = "fault-injection"))]
    fault: Option<(u64, fault::FaultMode)>,
}

impl State {
    /// `bits` behind an `Arc`, stored ready under `store` first when the
    /// lookup left the source's slot to this candidate.
    fn publish(&mut self, store: Option<&[SrcCq]>, bits: MatchBits) -> Arc<MatchBits> {
        let bits = Arc::new(bits);
        if let Some(key) = store {
            let slot = SrcSlot::Ready(Arc::clone(&bits));
            self.memo.insert(key.to_vec(), slot);
        }
        bits
    }

    /// A candidate its cut pruned: counted, and what it settled stored as
    /// its source's dead slot when the lookup left the slot to it.
    fn prune(&mut self, store: Option<&[SrcCq]>, known: Prior) -> Option<Arc<MatchBits>> {
        self.counts.cutoffs += 1;
        if let Some(key) = store {
            self.memo
                .insert(key.to_vec(), SrcSlot::Dead(Arc::new(known)));
        }
        None
    }

    /// Counts one fresh scoring call against the armed hook: its mode
    /// when this call is the one it fires at, once per arming.
    #[cfg(any(test, feature = "fault-injection"))]
    fn fault_due(&mut self) -> Option<fault::FaultMode> {
        let (left, mode) = self.fault.as_mut()?;
        if *left > 0 {
            *left -= 1;
            return None;
        }
        let mode = *mode;
        self.fault = None;
        Some(mode)
    }
}

/// Decides `prior`'s open tuples against the source query `src` in one
/// evaluator call that `cutoff` may stop. Returns what is known after
/// it, whether the cutoff stopped it, and the call's work: `None` when
/// `prior` (a parent's bits or a dead slot) had settled every tuple, so
/// no call was made and the known hits are the bits.
fn evaluate(
    prepared: &PreparedLabels<'_>,
    src: &SrcUcq,
    prior: Prior,
    cutoff: Cutoff,
) -> (Prior, bool, Option<EvalWork>) {
    if prior.is_settled() {
        return (prior, false, None);
    }
    let e = prepared.evaluate(src, prior, cutoff);
    (e.known, e.stopped, Some(e.work))
}

/// Shared scoring state of one explanation task. See the module docs.
pub struct ScoringEngine {
    state: Mutex<State>,
    incremental: bool,
}

// The engine stays `Sync`, and so does a task holding it (module docs).
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<ScoringEngine>();
    send_sync::<ExplainTask<'static>>();
};

impl ScoringEngine {
    /// An empty engine with the incremental (delta + pruning) path on.
    pub fn new() -> Self {
        Self::with_config(true)
    }

    /// An empty engine with the incremental path on or off; off is the
    /// baseline of an A/B comparison.
    pub fn with_config(incremental: bool) -> Self {
        Self {
            state: Mutex::new(State::default()),
            incremental,
        }
    }

    /// The engine's state, locked. The one place a poisoned lock is
    /// recovered (module docs).
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn counts(&self) -> Counts {
        self.state().counts
    }

    /// Arms this engine's fault-injection hook: the `nth` (1-based)
    /// *fresh* scoring call from now — i.e. a memo miss whose candidate
    /// compiled; hits never reach the hook — fails or panics per `mode`.
    /// Test-only (`fault-injection` feature); see [`fault`].
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn arm_fault(&self, nth: u64, mode: fault::FaultMode) {
        self.state().fault = nth.checked_sub(1).map(|left| (left, mode));
    }

    /// The number of threads a batch is scored on: always 1, the
    /// calling thread.
    pub fn threads(&self) -> usize {
        1
    }

    /// Lookups the memo answered with their source query's bits, with no
    /// evaluator call. Candidates whose source disjuncts are all
    /// data-dead share the empty source's slot, so all but the first are
    /// hits.
    pub fn cache_hits(&self) -> u64 {
        self.counts().hits
    }

    /// Every other lookup that reached the engine: a compile failure, a
    /// source query seen first, or one whose slot is dead.
    pub fn cache_misses(&self) -> u64 {
        self.counts().misses
    }

    /// Total J-match evaluations (one per labelled tuple evaluated per
    /// cache miss that reached the evaluator). Cache hits — notably UCQ
    /// assembly over known disjuncts — leave this counter untouched, and
    /// so do data-dead source disjuncts: they are dropped before the
    /// evaluator, and a miss with none left makes no call.
    pub fn eval_calls(&self) -> u64 {
        self.counts().evals
    }

    /// Batched evaluator calls: one per cache miss that reached the
    /// evaluator with a live source disjunct, each covering every labelled
    /// tuple it evaluated ([`obx_query::eval::satisfies_ucq_each`]).
    /// `eval_calls / batch_calls` is the mean number of tuples one call
    /// checks.
    pub fn batch_calls(&self) -> u64 {
        self.counts().batch_calls
    }

    /// Source disjuncts the batched calls answered over the whole
    /// database, their border masks proven a no-op
    /// ([`obx_query::eval::certified`]).
    pub fn certified_disjuncts(&self) -> u64 {
        self.counts().certified
    }

    /// Source disjuncts the batched calls answered by searching
    /// border-masked views.
    pub fn masked_disjuncts(&self) -> u64 {
        self.counts().masked
    }

    /// Candidate atoms the batched evaluator calls of this engine
    /// inspected: its own join work, unlike the process-wide
    /// [`obx_query::eval::node_counts`] total.
    pub fn eval_nodes(&self) -> u64 {
        self.counts().eval_nodes
    }

    /// Candidates pruned after their cache miss: an evaluation a cutoff
    /// stopped below the candidate's cut, or a dead slot whose settled
    /// outcomes already put it there (module docs, items 3 and 4). Each
    /// is also in its batch's [`BatchOutcome::pruned`].
    pub fn cutoffs(&self) -> u64 {
        self.counts().cutoffs
    }

    /// Source disjuncts the lookups' compiles dropped as data-dead
    /// ([`obx_query::eval::data_dead`]), by either of its rules: no fact
    /// of the database matches one of their atoms, or one of their
    /// variables sits in two columns that share no constant. They were
    /// neither keyed nor evaluated.
    pub fn dead_disjuncts(&self) -> u64 {
        self.counts().dead_disjuncts
    }

    /// Candidates the liveness table answered with the empty source
    /// query, uncompiled: one of their atoms compiles alone to data-dead
    /// disjuncts only (module docs, item 1).
    pub fn dead_candidates(&self) -> u64 {
        self.counts().dead_candidates
    }

    /// Whether the incremental path (parent-delta evaluation + bound
    /// pruning) is enabled on this engine.
    pub fn incremental(&self) -> bool {
        self.incremental
    }

    /// Evaluator invocations *avoided* by parent-delta evaluation: for
    /// each delta-evaluated disjunct, the number of labelled tuples whose
    /// status was settled by monotonicity instead of the evaluator.
    pub fn evals_saved(&self) -> u64 {
        self.counts().evals_saved
    }

    /// Number of distinct source queries in the memo, ready or dead.
    pub fn cache_len(&self) -> usize {
        self.state().memo.len()
    }

    /// The match bits of one disjunct: from the memo when its compiled
    /// source query is ready there, else from one full evaluation that
    /// the memo then shares. A compile failure — transient (the
    /// interrupt firing mid-compile) or permanent (a budget overrun) —
    /// is returned and not memoized.
    pub fn disjunct(
        &self,
        prepared: &PreparedLabels<'_>,
        cq: &OntoCq,
        interrupt: &Interrupt,
    ) -> Result<Arc<MatchBits>, ObdmError> {
        let src = self.compile(prepared, cq, interrupt, false)?;
        let key = source_key(&src);
        let (store, prior) = match self.lookup(prepared, &key, None)? {
            Lookup::Bits(bits) => return Ok(bits),
            Lookup::Miss(store, prior) => (store, prior),
        };
        // Without a cutoff an evaluation settles every open tuple.
        let (known, _, work) = evaluate(prepared, &src, prior, Cutoff::NONE);
        let mut st = self.state();
        st.counts
            .charge(prepared.num_pos() + prepared.num_neg(), work.as_ref());
        Ok(st.publish(store, known.into_bits()))
    }

    /// [`ScoringEngine::disjunct`] for a candidate of a batch. With
    /// `parent`'s bits (refinement provenance, `crate::prune`) only the
    /// tuples whose status can differ from the parent's go through the
    /// evaluator, the rest accruing to [`ScoringEngine::evals_saved`], and
    /// its evaluation stops once its counts provably score below `cut`'s
    /// floor. `Ok(None)` is such a pruned
    /// candidate (counted by [`ScoringEngine::cutoffs`]): its source's
    /// slot keeps what it settled as a [`SrcSlot::Dead`] slot, and a
    /// later candidate that a dead slot's outcomes already put below its
    /// cut is pruned with no evaluator call.
    pub(crate) fn disjunct_at(
        &self,
        prepared: &PreparedLabels<'_>,
        cq: &OntoCq,
        interrupt: &Interrupt,
        parent: Option<(&MatchBits, RefineDir)>,
        cut: Cut<'_>,
    ) -> Result<Option<Arc<MatchBits>>, ObdmError> {
        // A generalization matches whatever its parent matched, so one
        // with a matching parent has a live disjunct.
        let live = matches!(parent, Some((bits, RefineDir::Generalize)) if bits.count_ones() > 0);
        let src = self.compile(prepared, cq, interrupt, live)?;
        let key = source_key(&src);
        let (store, prior) = match self.lookup(prepared, &key, parent)? {
            Lookup::Bits(bits) => return Ok(Some(bits)),
            Lookup::Miss(store, prior) => (store, prior),
        };
        // Without a finite floor nothing can be cut, and the box is not
        // worth counting.
        let cutoff = if cut.floor > f64::NEG_INFINITY {
            match cut.cutoff(&prior.count_box()) {
                Some(cutoff) => cutoff,
                None => return Ok(self.state().prune(store, prior)),
            }
        } else {
            Cutoff::NONE
        };
        let (known, stopped, work) = evaluate(prepared, &src, prior, cutoff);
        let mut st = self.state();
        st.counts
            .charge(prepared.num_pos() + prepared.num_neg(), work.as_ref());
        if stopped {
            return Ok(st.prune(store, known));
        }
        Ok(Some(st.publish(store, known.into_bits())))
    }

    /// The memoized bits of `cq`, when a lookup has stored them:
    /// compiled under an inert interrupt, so a query the run already
    /// compiled is not charged to its resource guard or profile again,
    /// keyed on its live disjuncts as a lookup keys it, and read with no
    /// evaluation and no counter. Exhaustive search resolves its
    /// candidates' prefixes through this.
    pub(crate) fn ready_bits(
        &self,
        prepared: &PreparedLabels<'_>,
        cq: &OntoCq,
    ) -> Option<Arc<MatchBits>> {
        let compiled = prepared.system().spec().compile_cq(&cq.canonical()).ok()?;
        let (src, _) = live_source(prepared, compiled);
        let st = self.state();
        match st.memo.get(source_key(&src).as_ref()) {
            Some(SrcSlot::Ready(bits)) => Some(Arc::clone(bits)),
            _ => None,
        }
    }

    /// Compiles `cq`'s canonical form and drops its data-dead source
    /// disjuncts ([`live_source`]); a failure counts as a miss. A
    /// candidate the liveness table proves dead is not compiled: its
    /// source query is the empty one. A candidate known to be `live`
    /// skips the table.
    fn compile(
        &self,
        prepared: &PreparedLabels<'_>,
        cq: &OntoCq,
        interrupt: &Interrupt,
        live: bool,
    ) -> Result<SrcUcq, ObdmError> {
        let canon = if cq.is_canonical() {
            Cow::Borrowed(cq)
        } else {
            Cow::Owned(cq.canonical())
        };
        if !live && self.dead_before_compile(prepared, &canon, interrupt) {
            self.state().counts.dead_candidates += 1;
            return Ok(SrcUcq::empty());
        }
        let compiled = prepared
            .system()
            .spec()
            .compile_cq_interruptible(&canon, interrupt)
            .inspect_err(|_| self.state().counts.misses += 1)?;
        let (src, dropped) = live_source(prepared, compiled);
        self.state().counts.dead_disjuncts += dropped as u64;
        Ok(src)
    }

    /// Whether the liveness table proves the canonical `cq` data-dead: it
    /// has two atoms or more, the spec compiles on the saturated route,
    /// and one atom's pattern is dead. Atoms are read in body order; the
    /// first pattern whose fill fails ends the reading with no verdict.
    fn dead_before_compile(
        &self,
        prepared: &PreparedLabels<'_>,
        cq: &OntoCq,
        interrupt: &Interrupt,
    ) -> bool {
        if cq.num_atoms() < 2 || prepared.system().spec().saturated_mapping().is_none() {
            return false;
        }
        for key in cq.body().iter().map(|&a| pattern(a)) {
            match self.is_live(prepared, key, interrupt) {
                Some(true) => {}
                Some(false) => return true,
                None => return false,
            }
        }
        false
    }

    /// Whether the boolean query of the atom pattern `key` — the atom
    /// alone, with an empty head — has a live source disjunct, from the
    /// table or from one compile under the candidate's `interrupt` (so a
    /// deadline stops it and the run's guard is charged for it). `None`
    /// when that compile fails; a failure is not stored. The head is
    /// empty because unfolding drops a disjunct that binds an answer
    /// variable to a mapping head's constant: a headed fill could be dead
    /// where the candidate, whose variable is existential, is live.
    fn is_live(
        &self,
        prepared: &PreparedLabels<'_>,
        key: OntoAtom,
        interrupt: &Interrupt,
    ) -> Option<bool> {
        let known = self.state().live.get(&key).copied();
        if known.is_some() {
            return known;
        }
        let query = OntoCq::new(Vec::new(), vec![key]).ok()?;
        let compiled = prepared
            .system()
            .spec()
            .compile_cq_interruptible(&query, interrupt)
            .ok()?;
        let live = !live_source(prepared, compiled).0.is_empty();
        self.state().live.insert(key, live);
        Some(live)
    }

    /// Looks up the source query `key` of a candidate refined from
    /// `parent`, if any.
    fn lookup<'k>(
        &self,
        prepared: &PreparedLabels<'_>,
        key: &'k [SrcCq],
        parent: Option<(&MatchBits, RefineDir)>,
    ) -> Result<Lookup<'k>, ObdmError> {
        let mut guard = self.state();
        let st = &mut *guard;
        let dead = match st.memo.get(key) {
            Some(SrcSlot::Ready(bits)) => {
                st.counts.hits += 1;
                return Ok(Lookup::Bits(Arc::clone(bits)));
            }
            Some(SrcSlot::Dead(known)) => Some(Arc::clone(known)),
            None => None,
        };
        let store = dead.is_none().then_some(key);
        st.counts.misses += 1;
        #[cfg(any(test, feature = "fault-injection"))]
        if let Some(mode) = st.fault_due() {
            drop(guard);
            return Err(mode.fire());
        }
        if key.is_empty() {
            // No live disjunct: no tuple matches, with no evaluator call.
            // The slot is stored ready, never dead, so every later
            // candidate with the empty source hits it.
            let bits = MatchBits::empty(prepared.num_pos(), prepared.num_neg());
            return Ok(Lookup::Bits(st.publish(store, bits)));
        }
        drop(guard);
        let mut prior = prepared.prior(parent)?;
        if let Some(known) = dead {
            prior.learn(&known)?;
        }
        Ok(Lookup::Miss(store, prior))
    }

    /// Match statistics of a UCQ: the popcounts of the OR of its
    /// disjuncts' memoized bitsets.
    pub fn stats_ucq(
        &self,
        prepared: &PreparedLabels<'_>,
        ucq: &OntoUcq,
    ) -> Result<MatchStats, ObdmError> {
        self.stats_ucq_interruptible(prepared, ucq, &Interrupt::none())
    }

    /// [`ScoringEngine::stats_ucq`] under a cooperative stop signal.
    pub fn stats_ucq_interruptible(
        &self,
        prepared: &PreparedLabels<'_>,
        ucq: &OntoUcq,
        interrupt: &Interrupt,
    ) -> Result<MatchStats, ObdmError> {
        let mut acc = MatchBits::empty(prepared.num_pos(), prepared.num_neg());
        for d in ucq.disjuncts() {
            let bits = self.disjunct(prepared, d, interrupt)?;
            // Every memoized bitset is shaped by `prepared`; a mismatch
            // means the engine was shared across label sets, and the
            // candidate fails with `LabelShape` like any other
            // permanently failing one.
            acc.union_with(&bits)?;
        }
        Ok(acc.stats())
    }

    /// Scores a batch of candidates carrying refinement provenance on the
    /// calling thread, with monotone bound pruning against floors that rise
    /// as the batch scores; order follows the input. This is the engine's
    /// one batch entry, and it keeps the full resilience contract:
    ///
    /// * every candidate is scored inside `catch_unwind`, so one panic
    ///   (e.g. a bug tickled by a pathological query) quarantines that
    ///   candidate and the batch continues;
    /// * the task's budget is polled per candidate — on stop, remaining
    ///   candidates are skipped and the partial batch is returned;
    /// * panics and permanent compile failures are tallied in
    ///   [`BatchOutcome::quarantined`].
    ///
    /// A batch with no provenance (`parent: None`), `window` and `cap`
    /// both `usize::MAX` and an empty `pool` scores every candidate and
    /// prunes nothing.
    ///
    /// `window` is the number of ranked batch candidates downstream
    /// selection can ever inspect (e.g. the beam's diversity window; 0
    /// when the caller selects on its pool alone); `cap` is the size the
    /// caller truncates its ranked pool ∪ this batch to; `pool` holds the
    /// pool's scores (any order). A candidate with a parent handle is
    /// delta-evaluated against the handle's bits, the others in full.
    ///
    /// Candidates score in order of their admissible bound, highest
    /// first (candidates without provenance have bound `+∞`; the sort is
    /// stable, so on the non-incremental path they score in input order),
    /// in chunks of `window` candidates — the whole batch when `window` is
    /// 0 (the caller's own chunk loop raises its pool between batches) or
    /// unbounded. Before each chunk the
    /// *cut* is the smaller of the `window`-th best batch score so far
    /// and the `cap`-th best score of the pool and the batch so far
    /// (`-∞` while either is unfilled; the first is `+∞` for `window` 0).
    /// A candidate whose score is strictly below the cut has at least
    /// `window` better batch candidates and at least `cap` better pool
    /// entries, so it can enter neither the selection nor the pool:
    ///
    /// * a candidate whose bound is below the cut is **pruned** before
    ///   compilation — and with it every later one, bounds being sorted;
    /// * a scored candidate's evaluation stops once its count box proves
    ///   it below the cut (`Cut`, `prune::cutoff`), and it is
    ///   pruned too ([`ScoringEngine::cutoffs`]).
    ///
    /// Pruned candidates score below every cut that could follow them, so
    /// leaving them out changes neither later cuts nor the output. Once
    /// the budget stops the batch, nothing more is pruned — the anytime
    /// contract is untouched.
    pub fn score_batch_planned(
        &self,
        task: &ExplainTask<'_>,
        planned: Vec<PlannedCq>,
        window: usize,
        cap: usize,
        pool: &[f64],
    ) -> BatchOutcome {
        let n = planned.len();
        let t0 = std::time::Instant::now();
        let mut sp = obx_util::span!(self.recorder_of(task), "score_batch");
        sp.count("candidates", n as u64);
        let bounds: Vec<f64> = planned
            .iter()
            .map(|p| match self.provenance(p) {
                // The parent's box with the candidate's own shape: its
                // atom count is exact (δ5), and it is one disjunct (δ6).
                Some(h) => task
                    .scoring()
                    .bound_over(&h.count_box(), p.cq.num_atoms(), 1),
                None => f64::INFINITY,
            })
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| bounds[b].total_cmp(&bounds[a]));
        let chunk = if window == 0 || !self.incremental {
            n.max(1)
        } else {
            window
        };
        let mut floors = Floors::new(window, cap, pool);
        let mut out = BatchOutcome::default();
        let mut floor_active = false;
        let mut next = 0;
        while next < n && task.stop_reason().is_none() {
            let cut = if self.incremental {
                floors.cut()
            } else {
                f64::NEG_INFINITY
            };
            floor_active |= cut.is_finite();
            // Bounds fall along `order`: the first one below the cut
            // prunes the rest of the batch.
            let end = next + order[next..].partition_point(|&i| bounds[i] >= cut);
            if end == next {
                out.pruned += n - next;
                break;
            }
            let stop = end.min(next.saturating_add(chunk));
            let scored = out.explanations.len();
            for &i in &order[next..stop] {
                if task.stop_reason().is_some() {
                    break;
                }
                let p = &planned[i];
                score_one(task, &p.cq, self.provenance(p), cut, &mut out);
            }
            floors.add(out.explanations[scored..].iter().map(|e| e.score));
            sp.count("chunks", 1);
            next = stop;
        }
        sp.count("floor_active", floor_active as u64);
        sp.count("scored", out.explanations.len() as u64);
        sp.count("pruned", out.pruned as u64);
        BATCH_NS.record_duration(t0.elapsed());
        out
    }

    /// `p`'s parent handle, which the baseline engine ignores.
    fn provenance<'p>(&self, p: &'p PlannedCq) -> Option<&'p ParentHandle> {
        p.parent.as_ref().filter(|_| self.incremental)
    }

    /// The recorder riding on `task`'s budget, if any — the hook every
    /// engine span goes through (absent recorder ⇒ all spans are no-ops).
    fn recorder_of<'t>(
        &self,
        task: &'t ExplainTask<'_>,
    ) -> Option<&'t std::sync::Arc<obx_util::obs::Recorder>> {
        task.budget().recorder()
    }
}

/// Scores one batch candidate against the pruning cut `cut`, inside
/// `catch_unwind`, delta-evaluating it against its `parent`'s bits, and
/// tallies it in `out`: its explanation, or one more pruned or
/// quarantined candidate. A transient error (the budget firing
/// mid-compile) tallies nothing.
fn score_one(
    task: &ExplainTask<'_>,
    cq: &OntoCq,
    parent: Option<&ParentHandle>,
    cut: f64,
    out: &mut BatchOutcome,
) {
    let parent = parent.map(|h| (h.bits(), h.dir()));
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        task.score_cq_at(cq, parent, cut)
    }));
    match attempt {
        Ok(Ok(Some(e))) => out.explanations.push(e),
        Ok(Ok(None)) => out.pruned += 1,
        Ok(Err(e)) if e.is_transient() => {}
        Ok(Err(_)) | Err(_) => out.quarantined += 1,
    }
}

/// The rising selection cut of one batch (see
/// [`ScoringEngine::score_batch_planned`]): the best `window` batch
/// scores so far, and the best `cap` of the caller's pool and the batch
/// so far, each sorted best first.
struct Floors {
    window: usize,
    cap: usize,
    batch: Vec<f64>,
    kept: Vec<f64>,
}

impl Floors {
    fn new(window: usize, cap: usize, pool: &[f64]) -> Self {
        let mut floors = Floors {
            window,
            cap,
            batch: Vec::new(),
            kept: Vec::new(),
        };
        floors
            .kept
            .extend(pool.iter().copied().filter(|s| s.is_finite()));
        floors.trim();
        floors
    }

    /// Adds scored candidates' scores. Non-finite scores never rank
    /// ([`crate::explain::rank`] drops them), so they never raise a floor.
    fn add(&mut self, scores: impl Iterator<Item = f64>) {
        for s in scores.filter(|s| s.is_finite()) {
            self.batch.push(s);
            self.kept.push(s);
        }
        self.trim();
    }

    fn trim(&mut self) {
        self.batch.sort_unstable_by(|a, b| b.total_cmp(a));
        self.batch.truncate(self.window);
        self.kept.sort_unstable_by(|a, b| b.total_cmp(a));
        self.kept.truncate(self.cap);
    }

    /// The score a candidate must reach to matter: `+∞` for a selection
    /// that keeps nothing, `-∞` while one is not full.
    fn cut(&self) -> f64 {
        let nth = |best: &[f64], k: usize| match k {
            0 => f64::INFINITY,
            k => best.get(k - 1).copied().unwrap_or(f64::NEG_INFINITY),
        };
        nth(&self.batch, self.window).min(nth(&self.kept, self.cap))
    }
}

/// Process-wide latency histogram of [`ScoringEngine::score_batch_planned`]
/// calls, in nanoseconds — the p50/p95/p99 line of `obx_util::obs::
/// metrics_json`. A relaxed atomic per sample; free when observability is
/// off.
static BATCH_NS: std::sync::LazyLock<&'static obx_util::obs::Histogram> =
    std::sync::LazyLock::new(|| obx_util::obs::histogram("obx.engine.batch_ns"));

impl Default for ScoringEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ScoringEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state();
        f.debug_struct("ScoringEngine")
            .field("memoized", &st.memo.len())
            .field("counts", &st.counts)
            .field("incremental", &self.incremental)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::SearchLimits;
    use crate::labels::Labels;
    use crate::score::Scoring;
    use obx_obdm::example_3_6_system;
    use obx_query::OntoUcq;

    fn paper_task(sys: &mut obx_obdm::ObdmSystem) -> (Labels, Scoring) {
        let labels = Labels::parse(sys.db_mut(), "+ A10\n+ B80\n+ C12\n+ D50\n- E25").unwrap();
        (labels, Scoring::paper_weighted(1.0, 1.0, 1.0))
    }

    #[test]
    fn cached_stats_match_uncached_on_the_paper_example() {
        let mut sys = example_3_6_system();
        let (labels, scoring) = paper_task(&mut sys);
        let queries = [
            r#"q(x) :- studies(x, y), taughtIn(y, z), locatedIn(z, "Rome")"#,
            r#"q(x) :- studies(x, "Math")"#,
            r#"q(x) :- likes(x, "Science")"#,
        ]
        .map(|q| sys.parse_query(q).unwrap());
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        for q in &queries {
            let cached = task.engine().stats_ucq(task.prepared(), q).unwrap();
            let uncached = task.prepared().stats_of(q).unwrap();
            assert_eq!(cached, uncached);
        }
        // Second pass is answered from the cache: no new evaluator calls.
        let evals = task.engine().eval_calls();
        for q in &queries {
            let _ = task.engine().stats_ucq(task.prepared(), q).unwrap();
        }
        assert_eq!(task.engine().eval_calls(), evals);
        assert!(task.engine().cache_hits() >= 3);
    }

    #[test]
    fn ucq_assembly_makes_no_evaluator_calls_once_disjuncts_are_cached() {
        // The GreedyUcq guarantee, by construction: scoring a union of
        // already-seen disjuncts is pure bit algebra.
        let mut sys = example_3_6_system();
        let (labels, scoring) = paper_task(&mut sys);
        let q2 = sys.parse_query(r#"q(x) :- studies(x, "Math")"#).unwrap();
        let q3 = sys.parse_query(r#"q(x) :- likes(x, "Science")"#).unwrap();
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let s2 = task.score_ucq(&q2).unwrap().stats;
        let s3 = task.score_ucq(&q3).unwrap().stats;
        let evals = task.engine().eval_calls();

        let union: OntoUcq = q2
            .disjuncts()
            .iter()
            .chain(q3.disjuncts().iter())
            .cloned()
            .collect();
        let su = task.score_ucq(&union).unwrap().stats;
        assert_eq!(
            task.engine().eval_calls(),
            evals,
            "assembly must be evaluator-free"
        );
        // q2 matches {A10, B80} + E25; q3 matches {C12, D50}. Their union
        // covers all of λ⁺ and still hits E25.
        assert_eq!((s2.pos_matched, s2.neg_matched), (2, 1));
        assert_eq!((s3.pos_matched, s3.neg_matched), (2, 0));
        assert_eq!((su.pos_matched, su.neg_matched), (4, 1));
    }

    #[test]
    fn source_equal_disjuncts_share_one_evaluation() {
        // `likes` has no mapping assertion, so PerfectRef's `studies ⊑
        // likes` disjunct is the only one that unfolds: both queries
        // compile to `ENR(x, "Math", z)`.
        let mut sys = example_3_6_system();
        let (labels, scoring) = paper_task(&mut sys);
        let likes = sys.parse_query(r#"q(x) :- likes(x, "Math")"#).unwrap();
        let studies = sys.parse_query(r#"q(x) :- studies(x, "Math")"#).unwrap();
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let engine = task.engine();
        let none = Interrupt::none();
        let first = engine
            .disjunct(task.prepared(), &likes.disjuncts()[0], &none)
            .unwrap();
        let (evals, calls) = (engine.eval_calls(), engine.batch_calls());
        assert_eq!((engine.cache_hits(), calls), (0, 1));
        let second = engine
            .disjunct(task.prepared(), &studies.disjuncts()[0], &none)
            .unwrap();
        assert_eq!((engine.cache_hits(), engine.cache_misses()), (1, 1));
        assert_eq!(
            (engine.eval_calls(), engine.batch_calls()),
            (evals, calls),
            "a hit makes no evaluator call"
        );
        assert!(Arc::ptr_eq(&first, &second), "one shared bitset");
        assert_eq!(second.stats(), task.prepared().stats_of(&studies).unwrap());
        assert_eq!(engine.cache_len(), 1);
        assert!(format!("{engine:?}").contains("hits: 1"));
    }

    #[test]
    fn data_dead_candidates_share_the_empty_slot_without_an_evaluator_call() {
        // No subject is called "Rome" and no city "Math": each query's
        // one source disjunct (`ENR(x, "Rome", z)`, `LOC(x, "Math")`) has
        // an atom no fact matches, so both have the empty source key.
        let mut sys = example_3_6_system();
        let (labels, scoring) = paper_task(&mut sys);
        let dead = [
            r#"q(x) :- studies(x, "Rome")"#,
            r#"q(x) :- locatedIn(x, "Math")"#,
        ]
        .map(|q| sys.parse_query(q).unwrap());
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let engine = task.engine();
        let none = Interrupt::none();
        let [first, second] = dead.each_ref().map(|q| {
            engine
                .disjunct(task.prepared(), &q.disjuncts()[0], &none)
                .unwrap()
        });
        assert_eq!(
            (engine.eval_calls(), engine.batch_calls()),
            (0, 0),
            "a dead candidate makes no evaluator call"
        );
        assert!(Arc::ptr_eq(&first, &second), "one shared slot");
        assert_eq!(
            (
                engine.cache_hits(),
                engine.cache_misses(),
                engine.cache_len()
            ),
            (1, 1, 1)
        );
        assert_eq!(first.count_ones(), 0);
        for q in &dead {
            assert_eq!(first.stats(), task.prepared().stats_of(q).unwrap());
        }
        assert_eq!(engine.dead_disjuncts(), 2);
        assert!(format!("{engine:?}").contains("dead_disjuncts: 2"));
    }

    #[test]
    fn the_liveness_table_answers_dead_atoms_uncompiled() {
        // No city is called "Math", so `locatedIn(y, "Math")` is dead
        // alone, and so is every candidate that holds it.
        let mut sys = example_3_6_system();
        let (labels, scoring) = paper_task(&mut sys);
        let dead = [
            r#"q(x) :- studies(x, y), locatedIn(y, "Math")"#,
            r#"q(x) :- likes(x, y), locatedIn(y, "Math")"#,
        ]
        .map(|q| sys.parse_query(q).unwrap());
        // Each atom is live alone, but `y` sits in a subject column and a
        // university column, which share no constant: the table has no
        // verdict, and the compile drops the one disjunct.
        let join_dead = sys
            .parse_query("q(x) :- studies(x, y), locatedIn(y, z)")
            .unwrap();
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let engine = task.engine();
        let none = Interrupt::none();
        for (i, q) in dead.iter().enumerate() {
            let bits = engine
                .disjunct(task.prepared(), &q.disjuncts()[0], &none)
                .unwrap();
            assert_eq!(bits.stats(), task.prepared().stats_of(q).unwrap());
            assert_eq!(bits.count_ones(), 0);
            assert_eq!(engine.dead_candidates(), i as u64 + 1);
        }
        assert_eq!(engine.dead_disjuncts(), 0, "nothing was compiled");
        let bits = engine.stats_ucq(task.prepared(), &join_dead).unwrap();
        assert_eq!(bits, task.prepared().stats_of(&join_dead).unwrap());
        assert_eq!((engine.dead_candidates(), engine.dead_disjuncts()), (2, 1));
        // All three share the empty slot: one miss stored it, two hit it.
        assert_eq!((engine.cache_hits(), engine.cache_misses()), (2, 1));
        assert_eq!(engine.batch_calls(), 0);
        assert!(format!("{engine:?}").contains("dead_candidates: 2"));
    }

    #[test]
    fn a_mapping_head_constant_does_not_kill_an_atom_in_the_table() {
        // Unfolding drops a disjunct that binds an answer variable to a
        // mapping head's constant: `q(x) :- r(y, x)` compiles empty here,
        // and so would `r`'s and `s`'s atoms with their first variable
        // as the head. Both atoms are live in the candidates below, where
        // that variable is existential.
        let schema = obx_srcdb::parse_schema("R/1").unwrap();
        let mut db = obx_srcdb::parse_database(schema, "R(a)").unwrap();
        let tbox = obx_ontology::parse_tbox("concept A\nrole r s").unwrap();
        let (schema, consts) = db.schema_and_consts_mut();
        let mapping = obx_mapping::parse_mapping(
            schema,
            tbox.vocab(),
            consts,
            "R(x) ~> r(x, \"home\")\nR(x) ~> s(\"home\", x)\nR(x) ~> A(x)",
        )
        .unwrap();
        let mut sys = obx_obdm::ObdmSystem::new(obx_obdm::ObdmSpec::new(tbox, mapping), db);
        assert!(sys.spec().saturated_mapping().is_some());
        let labels = Labels::parse(sys.db_mut(), "+ a").unwrap();
        let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
        let [headed, r, s] = [
            "q(x) :- r(y, x)",
            "q(x) :- A(x), r(x, y)",
            "q(x) :- A(x), s(y, x)",
        ]
        .map(|q| sys.parse_query(q).unwrap());
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let engine = task.engine();
        for q in [&headed, &r, &s] {
            let bits = engine.stats_ucq(task.prepared(), q).unwrap();
            assert_eq!(bits, task.prepared().stats_of(q).unwrap(), "{q:?}");
        }
        assert_eq!(
            engine
                .stats_ucq(task.prepared(), &headed)
                .unwrap()
                .pos_matched,
            0
        );
        assert_eq!(
            engine.stats_ucq(task.prepared(), &r).unwrap().pos_matched,
            1
        );
        assert_eq!(
            engine.stats_ucq(task.prepared(), &s).unwrap().pos_matched,
            1
        );
        assert_eq!(engine.dead_candidates(), 0);
    }

    #[test]
    fn a_permanent_compile_failure_errors_every_time_and_never_evaluates() {
        let mut sys = example_3_6_system();
        let (labels, scoring) = paper_task(&mut sys);
        let q = sys
            .parse_query(r#"q(x) :- studies(x, y), taughtIn(y, z), locatedIn(z, "Rome")"#)
            .unwrap();
        // A zero-disjunct rewrite budget makes every compilation fail.
        sys.spec_mut().rewrite_budget.max_disjuncts = 0;
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let engine = task.engine();
        for calls in 1..=2 {
            let err = engine.stats_ucq(task.prepared(), &q).unwrap_err();
            assert!(!err.is_transient());
            assert_eq!(engine.cache_misses(), calls, "nothing is memoized");
        }
        // In a batch, the candidate is quarantined, not fatal.
        let planned = vec![PlannedCq {
            cq: q.disjuncts()[0].clone(),
            parent: None,
        }];
        let outcome = engine.score_batch_planned(&task, planned, usize::MAX, usize::MAX, &[]);
        assert_eq!((outcome.explanations.len(), outcome.quarantined), (0, 1));
        assert_eq!((engine.cache_hits(), engine.cache_len()), (0, 0));
        assert_eq!(engine.eval_calls(), 0, "failed compiles never evaluate");
    }

    #[test]
    fn delta_evaluation_saves_evaluator_calls_and_matches_full() {
        use crate::prune::{ParentHandle, RefineDir};
        let mut sys = example_3_6_system();
        let (labels, scoring) = paper_task(&mut sys);
        // The parent matches only C12 and D50, so a Specialize child needs
        // just those two of the five labelled tuples re-evaluated.
        let parent_q = sys.parse_query(r#"q(x) :- likes(x, "Science")"#).unwrap();
        let child_q = sys
            .parse_query(r#"q(x) :- likes(x, "Science"), studies(x, y)"#)
            .unwrap();
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();

        let on = Arc::new(ScoringEngine::with_config(true));
        let task_on = task.with_engine(Arc::clone(&on));
        let parent = task_on.score_cq(&parent_q.disjuncts()[0]).unwrap();
        let child = PlannedCq {
            cq: child_q.disjuncts()[0].clone(),
            parent: ParentHandle::from_explanation(RefineDir::Specialize, &parent),
        };
        let outcome = on.score_batch_planned(&task_on, vec![child], usize::MAX, usize::MAX, &[]);
        let child = &outcome.explanations[0];
        assert!(
            on.evals_saved() > 0,
            "restricted evaluation must skip the parent's zero bits"
        );

        // The baseline engine ignores the handle: full evaluation.
        let off = Arc::new(ScoringEngine::with_config(false));
        let task_off = task.with_engine(Arc::clone(&off));
        let planned = PlannedCq {
            cq: child_q.disjuncts()[0].clone(),
            parent: ParentHandle::from_explanation(RefineDir::Specialize, &parent),
        };
        assert!(planned.parent.is_some());
        let outcome =
            off.score_batch_planned(&task_off, vec![planned], usize::MAX, usize::MAX, &[]);
        assert_eq!(off.evals_saved(), 0, "the baseline never delta-evaluates");
        let full = &outcome.explanations[0];
        assert_eq!(child.stats, full.stats);
        assert_eq!(child.score.to_bits(), full.score.to_bits());
        assert_eq!(child.criterion_values, full.criterion_values);
    }

    #[test]
    fn a_parent_scored_from_a_dead_slot_delta_evaluates_its_children() {
        use crate::prune::{ParentHandle, RefineDir};
        // `likes(x, "Math")` and `studies(x, "Math")` share one source
        // query; a batch under the pool's 0.7 cut stops its evaluation
        // and leaves a dead slot. The parent then scores from that slot:
        // its bits are complete but never stored ready.
        let mut sys = example_3_6_system();
        let (labels, scoring) = paper_task(&mut sys);
        let likes = sys.parse_query(r#"q(x) :- likes(x, "Math")"#).unwrap();
        let studies = sys.parse_query(r#"q(x) :- studies(x, "Math")"#).unwrap();
        // A source query of its own, so the child cannot read the dead
        // slot: delta evaluation is the only way it saves a tuple.
        let child_q = sys
            .parse_query(r#"q(x) :- likes(x, "Math"), studies(x, y), taughtIn(y, "TV")"#)
            .unwrap();
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let engine = Arc::new(ScoringEngine::with_config(true));
        let task = task.with_engine(Arc::clone(&engine));
        let planned = [&studies, &likes]
            .map(|q| PlannedCq {
                cq: q.disjuncts()[0].clone(),
                parent: None,
            })
            .to_vec();
        let outcome = engine.score_batch_planned(&task, planned, 0, 1, &[0.7]);
        assert_eq!(outcome.pruned, 2);
        let parent = task.score_cq(&likes.disjuncts()[0]).unwrap();
        assert!(engine
            .ready_bits(task.prepared(), &likes.disjuncts()[0])
            .is_none());

        let (saved, calls) = (engine.evals_saved(), engine.batch_calls());
        let child = PlannedCq {
            cq: child_q.disjuncts()[0].clone(),
            parent: ParentHandle::from_explanation(RefineDir::Specialize, &parent),
        };
        let outcome = engine.score_batch_planned(&task, vec![child], usize::MAX, usize::MAX, &[]);
        let child = &outcome.explanations[0];
        assert_eq!(child.stats, task.prepared().stats_of(&child_q).unwrap());
        assert_eq!(engine.batch_calls(), calls + 1);
        // The parent matched A10, B80 and E25: the other two tuples are
        // settled by its bits.
        assert_eq!(engine.evals_saved(), saved + 2);
    }

    #[test]
    fn planned_batches_prune_below_window_and_floor() {
        use crate::prune::{ParentHandle, RefineDir};
        let mut sys = example_3_6_system();
        let (labels, scoring) = paper_task(&mut sys);
        let strong_q = sys.parse_query(r#"q(x) :- likes(x, "Science")"#).unwrap();
        let weak_q = sys.parse_query("q(x) :- studies(x, y)").unwrap();
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        // A parent that matched no positives: every Specialize child is
        // bounded by (0 + 1 + 1) / 3 under the paper weighting, well below
        // the strong candidate's 0.833.
        let mut bits = MatchBits::empty(4, 1);
        bits.set(4);
        let hopeless = ParentHandle::new(RefineDir::Specialize, Arc::new(bits));
        let planned = |parent: Option<ParentHandle>| -> Vec<PlannedCq> {
            vec![
                PlannedCq {
                    cq: strong_q.disjuncts()[0].clone(),
                    parent: None,
                },
                PlannedCq {
                    cq: weak_q.disjuncts()[0].clone(),
                    parent,
                },
            ]
        };

        // Incremental engine, window 1, a pool entry above every bound:
        // once the strong candidate scored, the bounded one is provably
        // outside both the window and the pool and is skipped.
        let on = Arc::new(ScoringEngine::with_config(true));
        let task_on = task.with_engine(Arc::clone(&on));
        let outcome =
            on.score_batch_planned(&task_on, planned(Some(hopeless.clone())), 1, 1, &[2.0]);
        assert_eq!(outcome.pruned, 1);
        assert_eq!(outcome.explanations.len(), 1);
        assert!((outcome.explanations[0].score - 0.8333).abs() < 1e-3);
        assert_eq!(on.cutoffs(), 0, "pruned before compilation");

        // Baseline engine: bounds are all +∞, nothing is pruned, and the
        // stable sort keeps the input order exactly.
        let off = Arc::new(ScoringEngine::with_config(false));
        let task_off = task.with_engine(Arc::clone(&off));
        let outcome =
            off.score_batch_planned(&task_off, planned(Some(hopeless.clone())), 1, 1, &[2.0]);
        assert_eq!(outcome.pruned, 0);
        let queries: Vec<_> = outcome
            .explanations
            .iter()
            .map(|e| e.query.clone())
            .collect();
        assert_eq!(queries, vec![strong_q.clone(), weak_q.clone()]);

        // An unfilled pool disables pruning even under the window guard
        // (the candidate might still enter the pool).
        let fresh = Arc::new(ScoringEngine::with_config(true));
        let outcome = fresh.score_batch_planned(
            &task.with_engine(Arc::clone(&fresh)),
            planned(Some(hopeless)),
            1,
            4,
            &[2.0],
        );
        assert_eq!(outcome.pruned, 0);
        assert_eq!(outcome.explanations.len(), 2);
    }

    #[test]
    fn a_cutoff_stops_an_evaluation_and_its_dead_slot_prunes_source_siblings() {
        // `likes(x, "Math")` and `studies(x, "Math")` compile to one
        // source query; it matches A10, B80 and the negative E25, scoring
        // (2/4 + 0 + 1) / 3 = 0.5. No parent, so no bound prunes them
        // before compilation; the pool's 0.7 is the cut.
        let mut sys = example_3_6_system();
        let (labels, scoring) = paper_task(&mut sys);
        let likes = sys.parse_query(r#"q(x) :- likes(x, "Math")"#).unwrap();
        let studies = sys.parse_query(r#"q(x) :- studies(x, "Math")"#).unwrap();
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let engine = Arc::new(ScoringEngine::with_config(true));
        let task = task.with_engine(Arc::clone(&engine));
        let planned = [&studies, &likes]
            .map(|q| PlannedCq {
                cq: q.disjuncts()[0].clone(),
                parent: None,
            })
            .to_vec();
        let outcome = engine.score_batch_planned(&task, planned, 0, 1, &[0.7]);
        assert!(outcome.explanations.is_empty());
        assert_eq!(outcome.pruned, 2);
        // The first evaluation stopped at E25's hit (any λ⁻ hit caps the
        // bound at 2/3); the second candidate read the dead slot and made
        // no evaluator call.
        assert_eq!(engine.cutoffs(), 2);
        assert_eq!(engine.batch_calls(), 1);
        assert_eq!(
            (
                engine.cache_hits(),
                engine.cache_misses(),
                engine.cache_len()
            ),
            (0, 2, 1),
            "the memo holds one dead slot and no bits"
        );

        // Without a cut, the dead slot's settled outcomes are the bits:
        // exact, and with no further evaluator call. A dead slot never
        // turns ready, so the lookup is a miss.
        let e = task.score_cq(&likes.disjuncts()[0]).unwrap();
        assert_eq!(e.stats, task.prepared().stats_of(&likes).unwrap());
        assert_eq!(engine.batch_calls(), 1);
        assert_eq!(
            (
                engine.cache_hits(),
                engine.cache_misses(),
                engine.cache_len()
            ),
            (0, 3, 1)
        );
    }
}

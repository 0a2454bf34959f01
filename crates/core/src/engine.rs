//! The shared scoring engine: compiled-query memoization, per-label match
//! bitsets, and a persistent parallel scorer.
//!
//! Every strategy ultimately asks the same question — *what are the match
//! statistics of this candidate query against λ?* — and the answer
//! decomposes per disjunct: PerfectRef, unfolding, and certain-membership
//! all distribute over a UCQ's disjuncts, so a UCQ's statistics are fully
//! determined by which labelled tuples each disjunct J-matches. The
//! [`ScoringEngine`] exploits this five ways:
//!
//! 1. **Memo cache.** Each disjunct is keyed by its canonical form
//!    ([`OntoCq::canonical`], which collapses variable renamings and atom
//!    reorderings) and memoized as a [`DisjunctEntry`]: the compiled
//!    query *and* its [`MatchBits`] — one bit per labelled tuple,
//!    positives first, then negatives. Searches revisit the same
//!    conjunctions constantly (beam refinement, greedy assembly,
//!    exhaustive enumeration over overlapping rounds); each distinct
//!    disjunct is compiled and evaluated exactly once per task.
//!    Compilation failures (budget overruns) are cached too, so a
//!    pathological candidate is not re-rewritten every round.
//! 2. **Bitset algebra.** The stats of any UCQ are the popcounts of the
//!    OR of its disjuncts' bitsets. Once the disjuncts are cached,
//!    scoring a union — the inner loop of [`GreedyUcq`]'s `O(k²)`
//!    assembly — is pure bit operations with **zero** evaluator calls
//!    (asserted by `greedy_assembly_makes_no_evaluator_calls` below).
//! 3. **Persistent worker pool.** Batches are scored on a pool built
//!    once per engine (thread count from `OBX_THREADS`, else
//!    [`std::thread::available_parallelism`], with no hard cap) and
//!    parked between batches. Work is distributed dynamically: every
//!    participant pulls candidates off a shared atomic cursor, so a slow
//!    candidate no longer serializes a statically-assigned chunk.
//! 4. **Refinement monotonicity** (`crate::prune`). Candidates arriving
//!    with a [`ParentHandle`] — the canonical key and stats of the query
//!    they were refined from — are **delta-evaluated**: only the tuples
//!    whose match status can differ from the parent's are run through the
//!    evaluator ([`PreparedLabels::match_bits_restricted`]). The same
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
//! 5. **Source-keyed match memo.** A disjunct's bits depend only on its
//!    compiled *source* UCQ (Definition 3.4 under a sound GAV mapping is
//!    decided by evaluating `unfold(PerfectRef(q))` on the prepared
//!    borders), and GAV unfolding is many-to-one: `likes(x, "Math")` and
//!    `studies(x, "Math")` both compile to `ENR(x, "Math", z)` on the
//!    paper's system. So behind the ontology-keyed cache sits a second
//!    memo from the compiled source UCQ (its canonical disjuncts, sorted,
//!    so disjunct order does not matter) to an `Arc<MatchBits>`. A hit
//!    makes no evaluator call and charges neither `evals` nor
//!    `batch_calls`; it is counted by [`ScoringEngine::src_hits`]. A miss
//!    evaluates as above, parent-delta or full — delta bits are full
//!    bits — and publishes the result. An evaluation a cutoff stopped
//!    publishes what it settled as a *dead* slot, which later candidates
//!    with that source start from: pruned without an evaluator call when
//!    it already puts them below their cut, else evaluating the open
//!    tuples privately. It holds at most one entry per ontology miss,
//!    shared with the entries that use it. On the worker pool,
//!    candidates claim their source in batch order, so a shared source
//!    is evaluated by its first candidate as on one thread and the
//!    counters do not depend on scheduling. Always on.
//!
//! The engine is shared across [`ExplainTask::with_limits`] clones via
//! `Arc`, so a meta-strategy's base run warms the cache for its assembly
//! phase.
//!
//! [`GreedyUcq`]: crate::strategies::GreedyUcq
//! [`ExplainTask::with_limits`]: crate::explain::ExplainTask::with_limits

use crate::explain::{ExplainTask, Explanation};
use crate::matcher::{MatchBits, MatchStats, PreparedLabels, Prior};
use crate::prune::{CountBox, ParentHandle};
use crate::score::Scoring;
use obx_obdm::{CompiledQuery, ObdmError};
use obx_query::{Cutoff, OntoCq, OntoUcq, SrcCq};
use obx_util::{FxHashMap, Interrupt, WorkerPool};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, RwLock};

/// Locks in the engine recover from poisoning instead of propagating it:
/// a candidate whose scoring panicked is quarantined per candidate (see
/// [`ScoringEngine::score_batch_outcome`]), and the shared state a lock
/// guards here (memo cache, job queue, latch counters) is never left
/// mid-update across a panic boundary, so the data is intact.
macro_rules! lock_recover {
    ($e:expr) => {
        $e.unwrap_or_else(PoisonError::into_inner)
    };
}

/// Fault injection for the resilience test-suite: a **per-engine** hook
/// that makes the Nth scoring call from arming either fail (a permanent
/// [`ObdmError`]) or panic. Being per-engine (not a process-global) keeps
/// concurrently-running tests from tripping each other's faults. Compiled
/// only for `obx-core`'s own tests and under the `fault-injection`
/// feature (which the integration crate enables); release builds carry
/// none of it.
#[cfg(any(test, feature = "fault-injection"))]
pub mod fault {
    use std::sync::atomic::{AtomicI64, AtomicU8, Ordering};

    /// What the hook does when it fires.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultMode {
        /// Return a permanent `ObdmError` from the scoring call.
        Fail,
        /// Panic inside the scoring call.
        Panic,
    }

    /// One engine's fault hook: disarmed by default, armed by
    /// [`ScoringEngine::arm_fault`](super::ScoringEngine::arm_fault).
    #[derive(Debug, Default)]
    pub struct FaultState {
        /// `-1` = disarmed; `k >= 0` = fire when the countdown hits zero.
        countdown: AtomicI64,
        /// 0 = none, 1 = fail, 2 = panic.
        mode: AtomicU8,
    }

    impl FaultState {
        pub(super) fn new() -> Self {
            Self {
                countdown: AtomicI64::new(-1),
                mode: AtomicU8::new(0),
            }
        }

        pub(super) fn arm(&self, nth: u64, mode: FaultMode) {
            self.mode.store(
                match mode {
                    FaultMode::Fail => 1,
                    FaultMode::Panic => 2,
                },
                Ordering::SeqCst,
            );
            self.countdown.store(nth as i64 - 1, Ordering::SeqCst);
        }

        /// The engine-side check: fires at most once per arming.
        pub(super) fn check(&self) -> Result<(), obx_obdm::ObdmError> {
            if self.countdown.load(Ordering::SeqCst) < 0 {
                return Ok(());
            }
            if self.countdown.fetch_sub(1, Ordering::SeqCst) == 0 {
                match self.mode.load(Ordering::SeqCst) {
                    1 => {
                        return Err(obx_obdm::ObdmError::SchemaMismatch {
                            detail: "injected fault".into(),
                        })
                    }
                    2 => panic!("injected fault: scoring call panicked"),
                    _ => {}
                }
            }
            Ok(())
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
    /// The query this candidate was refined from, when it is a single
    /// disjunct whose entry the engine may already hold.
    pub parent: Option<ParentHandle>,
}

/// A memoized disjunct: its compilation and its match bitset.
#[derive(Debug)]
pub struct DisjunctEntry {
    /// The PerfectRef + unfold compilation of the canonical CQ.
    pub compiled: CompiledQuery,
    /// Which labelled tuples the CQ J-matches (positives, then negatives),
    /// shared with every entry that compiles to the same source UCQ.
    pub bits: Arc<MatchBits>,
}

/// Cached outcome per canonical disjunct; errors are cached so budget
/// overruns are paid once, not once per round.
type CacheSlot = Result<Arc<DisjunctEntry>, ObdmError>;

/// The source memo's key: a compiled query's source disjuncts, each
/// already canonical ([`obx_query::SrcUcq::push`]), sorted so that two
/// unfoldings of one set in different orders share a key. Borrowed when
/// they are in order already, as a single disjunct always is.
fn source_key(compiled: &CompiledQuery) -> Cow<'_, [SrcCq]> {
    let disjuncts = compiled.src().disjuncts();
    if disjuncts.windows(2).all(|w| w[0] <= w[1]) {
        Cow::Borrowed(disjuncts)
    } else {
        let mut key = disjuncts.to_vec();
        key.sort_unstable();
        Cow::Owned(key)
    }
}

/// A source memo entry: the bits, an evaluation in flight whose outcome
/// the candidates waiting on it will share, or what an evaluation a
/// cutoff stopped had settled.
enum SrcSlot {
    Pending,
    Ready(Arc<MatchBits>),
    /// The source's evaluation was stopped below its candidate's cut.
    /// Its settled outcomes are exact facts about the source, so a later
    /// candidate with this source starts from them: it is pruned with no
    /// evaluator call when they already put it below its own cut, and
    /// otherwise evaluates the still-open tuples privately. The slot is
    /// never claimed again, so which candidate reads it, and what it
    /// reads, does not depend on scheduling.
    Dead(Arc<Prior>),
}

/// What [`ScoringEngine::claim_source`] hands a candidate.
enum SrcClaim<'e> {
    /// The source's bits: no evaluation needed.
    Ready(Arc<MatchBits>),
    /// What a stopped evaluation of the source settled.
    Dead(Arc<Prior>),
    /// The candidate evaluates the source and publishes its outcome.
    Owner(SrcOwner<'e>),
    /// Another candidate is evaluating the source.
    Pending,
}

/// The claim to evaluate one source query, whose memo slot holds
/// [`SrcSlot::Pending`] until [`SrcOwner::publish`] stores the bits or
/// [`SrcOwner::bury`] what a stopped evaluation settled; dropping the
/// claim otherwise (an error or an unwind) withdraws it, so a candidate
/// waiting on the source evaluates instead.
struct SrcOwner<'e> {
    engine: &'e ScoringEngine,
    key: Option<&'e [SrcCq]>,
}

impl SrcOwner<'_> {
    /// `bits` behind an `Arc`, published first when the caller holds
    /// the source's claim.
    fn share(owner: Option<Self>, bits: MatchBits) -> Arc<MatchBits> {
        match owner {
            Some(owner) => owner.publish(bits),
            None => Arc::new(bits),
        }
    }

    fn publish(self, bits: MatchBits) -> Arc<MatchBits> {
        let bits = Arc::new(bits);
        self.settle(SrcSlot::Ready(Arc::clone(&bits)));
        bits
    }

    fn bury(self, known: Prior) {
        self.settle(SrcSlot::Dead(Arc::new(known)));
    }

    fn settle(mut self, outcome: SrcSlot) {
        if let Some(key) = self.key.take() {
            let mut memo = lock_recover!(self.engine.src_memo.lock());
            match memo.get_mut(key) {
                Some(slot) => *slot = outcome,
                None => {
                    memo.insert(key.to_vec(), outcome);
                }
            }
            self.engine.src_ready.notify_all();
        }
    }
}

impl Drop for SrcOwner<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            lock_recover!(self.engine.src_memo.lock()).remove(key);
            self.engine.src_ready.notify_all();
        }
    }
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

/// Batch-order turns for the source memo on the worker pool. A
/// candidate claims its source query only after every earlier candidate
/// of the batch has claimed its own or finished, so a source shared
/// within a batch is evaluated by its first candidate in batch order, as
/// on one thread, and the engine's counters (`evals`, `src_hits`, nodes)
/// do not depend on scheduling.
struct Turns {
    /// The first position that has not passed, and which positions have.
    state: Mutex<(usize, Vec<bool>)>,
    moved: Condvar,
}

impl Turns {
    fn new(n: usize) -> Self {
        Self {
            state: Mutex::new((0, vec![false; n])),
            moved: Condvar::new(),
        }
    }

    /// Blocks until every position before `pos` has passed.
    fn wait(&self, pos: usize) {
        let mut state = lock_recover!(self.state.lock());
        while state.0 < pos {
            state = lock_recover!(self.moved.wait(state));
        }
    }

    /// Marks `pos` passed; passing twice is a no-op.
    fn pass(&self, pos: usize) {
        let mut state = lock_recover!(self.state.lock());
        let (first, done) = &mut *state;
        done[pos] = true;
        while *first < done.len() && done[*first] {
            *first += 1;
        }
        self.moved.notify_all();
    }
}

/// A batch candidate's place in its batch's [`Turns`].
#[derive(Clone, Copy)]
pub(crate) struct Turn<'a> {
    turns: &'a Turns,
    pos: usize,
}

/// Shared scoring state of one explanation task. See the module docs.
pub struct ScoringEngine {
    cache: RwLock<FxHashMap<OntoCq, CacheSlot>>,
    src_memo: Mutex<FxHashMap<Vec<SrcCq>, SrcSlot>>,
    src_ready: Condvar,
    hits: AtomicU64,
    src_hits: AtomicU64,
    misses: AtomicU64,
    evals: AtomicU64,
    evals_saved: AtomicU64,
    batch_calls: AtomicU64,
    certified: AtomicU64,
    masked: AtomicU64,
    eval_nodes: AtomicU64,
    cutoffs: AtomicU64,
    threads: usize,
    incremental: bool,
    pool: OnceLock<WorkerPool>,
    #[cfg(any(test, feature = "fault-injection"))]
    fault: fault::FaultState,
}

impl ScoringEngine {
    /// An empty engine. Thread count comes from `OBX_THREADS` when set to
    /// a positive integer, else from the machine's available parallelism;
    /// the incremental (delta + pruning) path is on.
    pub fn new() -> Self {
        Self::with_config(configured_threads(), true)
    }

    /// An empty engine scoring batches on exactly `threads` threads
    /// (clamped to ≥ 1), ignoring `OBX_THREADS` and autodetection. This
    /// is the injectable path — tests use it instead of mutating the
    /// process-global environment, which races across test threads.
    pub fn with_threads(threads: usize) -> Self {
        Self::with_config(threads, true)
    }

    /// An empty engine with the environment-configured thread count and
    /// an explicit incremental toggle — the A/B hook the search bench and
    /// the equivalence property tests use.
    pub fn with_incremental(incremental: bool) -> Self {
        Self::with_config(configured_threads(), incremental)
    }

    /// The fully injectable constructor: exact thread count (clamped to
    /// ≥ 1) and incremental toggle, ignoring the environment entirely.
    pub fn with_config(threads: usize, incremental: bool) -> Self {
        Self {
            cache: RwLock::new(FxHashMap::default()),
            src_memo: Mutex::new(FxHashMap::default()),
            src_ready: Condvar::new(),
            hits: AtomicU64::new(0),
            src_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evals: AtomicU64::new(0),
            evals_saved: AtomicU64::new(0),
            batch_calls: AtomicU64::new(0),
            certified: AtomicU64::new(0),
            masked: AtomicU64::new(0),
            eval_nodes: AtomicU64::new(0),
            cutoffs: AtomicU64::new(0),
            threads: threads.max(1),
            incremental,
            pool: OnceLock::new(),
            #[cfg(any(test, feature = "fault-injection"))]
            fault: fault::FaultState::new(),
        }
    }

    /// Arms this engine's fault-injection hook: the `nth` (1-based)
    /// *fresh* scoring call from now — i.e. cache miss; hits never reach
    /// the hook — fails or panics per `mode`. Test-only (`fault-injection`
    /// feature); see [`fault`].
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn arm_fault(&self, nth: u64, mode: fault::FaultMode) {
        self.fault.arm(nth, mode);
    }

    /// The number of threads batches are scored on.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Disjunct lookups answered from the cache.
    pub fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Disjunct lookups that required compile + evaluation.
    pub fn cache_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cache misses whose compiled source UCQ an earlier miss already
    /// evaluated: their bits came from the source memo, with no
    /// evaluator call.
    pub fn src_hits(&self) -> u64 {
        self.src_hits.load(Ordering::Relaxed)
    }

    /// Total J-match evaluations (one per labelled tuple evaluated per
    /// cache miss that reached the evaluator). Cached scoring — notably
    /// UCQ assembly over known disjuncts — and source-memo hits leave
    /// this counter untouched.
    pub fn eval_calls(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }

    /// Batched evaluator calls: one per cache miss that reached the
    /// evaluator, each covering every labelled tuple it evaluated
    /// ([`obx_query::eval::satisfies_ucq_each`]). `eval_calls /
    /// batch_calls` is the mean number of tuples one call checks.
    pub fn batch_calls(&self) -> u64 {
        self.batch_calls.load(Ordering::Relaxed)
    }

    /// Source disjuncts the batched calls answered over the whole
    /// database, their border masks proven a no-op
    /// ([`obx_query::eval::certified`]).
    pub fn certified_disjuncts(&self) -> u64 {
        self.certified.load(Ordering::Relaxed)
    }

    /// Source disjuncts the batched calls answered by searching
    /// border-masked views.
    pub fn masked_disjuncts(&self) -> u64 {
        self.masked.load(Ordering::Relaxed)
    }

    /// Candidate atoms the batched evaluator calls of this engine
    /// inspected: its own join work, unlike the process-wide
    /// [`obx_query::eval::node_counts`] total.
    pub fn eval_nodes(&self) -> u64 {
        self.eval_nodes.load(Ordering::Relaxed)
    }

    /// Candidates pruned after their ontology-cache miss: an evaluation
    /// a cutoff stopped below the candidate's cut, or a dead source slot
    /// whose settled outcomes already put it there (module docs, item 4).
    /// Each is also in its batch's [`BatchOutcome::pruned`].
    pub fn cutoffs(&self) -> u64 {
        self.cutoffs.load(Ordering::Relaxed)
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
        self.evals_saved.load(Ordering::Relaxed)
    }

    /// Number of distinct disjuncts memoized.
    pub fn cache_len(&self) -> usize {
        lock_recover!(self.cache.read()).len()
    }

    /// The healthy cached entry for a disjunct's canonical form, if any.
    /// Strategies use this to attach refinement provenance to candidates
    /// whose parent was already scored (e.g. exhaustive enumeration
    /// prefixes) without ever triggering compilation.
    pub fn cached_entry(&self, cq: &OntoCq) -> Option<Arc<DisjunctEntry>> {
        let key = cq.canonical();
        match lock_recover!(self.cache.read()).get(&key) {
            Some(Ok(entry)) => Some(Arc::clone(entry)),
            _ => None,
        }
    }

    /// The memoized entry for one disjunct, computing it on first sight.
    pub fn disjunct(
        &self,
        prepared: &PreparedLabels<'_>,
        cq: &OntoCq,
    ) -> Result<Arc<DisjunctEntry>, ObdmError> {
        self.disjunct_interruptible(prepared, cq, &Interrupt::none())
    }

    /// [`ScoringEngine::disjunct`] under a cooperative stop signal,
    /// threaded into PerfectRef. A **transient** failure (the interrupt
    /// firing mid-compile) is returned but *not* cached: it says nothing
    /// about the query, and memoizing it would poison every later run
    /// sharing this engine.
    pub fn disjunct_interruptible(
        &self,
        prepared: &PreparedLabels<'_>,
        cq: &OntoCq,
        interrupt: &Interrupt,
    ) -> Result<Arc<DisjunctEntry>, ObdmError> {
        self.disjunct_with_parent(prepared, cq, interrupt, None)
    }

    /// [`ScoringEngine::disjunct_interruptible`] with refinement
    /// provenance: when the incremental path is on and the parent's entry
    /// is already cached (and healthy), the candidate's bitset is computed
    /// by **delta evaluation** — only the tuples whose status can differ
    /// from the parent's go through the evaluator
    /// ([`PreparedLabels::match_bits_restricted`]). Any other situation
    /// (no parent, parent not cached, parent's compilation failed,
    /// incremental off) falls back to full evaluation; the resulting entry
    /// is identical either way. [`ScoringEngine::eval_calls`] counts only
    /// tuples actually evaluated, and the remainder accrues to
    /// [`ScoringEngine::evals_saved`]. A candidate whose compiled source
    /// UCQ an earlier miss already evaluated takes that miss's bits from
    /// the source memo (module docs, item 5) and reaches no evaluator.
    pub fn disjunct_with_parent(
        &self,
        prepared: &PreparedLabels<'_>,
        cq: &OntoCq,
        interrupt: &Interrupt,
        parent: Option<&ParentHandle>,
    ) -> Result<Arc<DisjunctEntry>, ObdmError> {
        match self.disjunct_at(prepared, cq, interrupt, parent, None, None)? {
            Some(entry) => Ok(entry),
            None => unreachable!("only a cut prunes a disjunct, and none was given"),
        }
    }

    /// [`ScoringEngine::disjunct_with_parent`] for a candidate of a batch:
    /// on the worker pool the candidate claims its source query in its
    /// batch's turn order, and under a `cut` its evaluation stops once its
    /// counts provably score below the cut's floor. `Ok(None)` is such a
    /// pruned candidate (counted by [`ScoringEngine::cutoffs`]): it is
    /// neither cached nor an error.
    pub(crate) fn disjunct_at(
        &self,
        prepared: &PreparedLabels<'_>,
        cq: &OntoCq,
        interrupt: &Interrupt,
        parent: Option<&ParentHandle>,
        turn: Option<Turn<'_>>,
        cut: Option<Cut<'_>>,
    ) -> Result<Option<Arc<DisjunctEntry>>, ObdmError> {
        let key = cq.canonical();
        if let Some(slot) = lock_recover!(self.cache.read()).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return slot.clone().map(Some);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        #[cfg(any(test, feature = "fault-injection"))]
        self.fault.check()?;
        // Resolve the parent's cached bits before compiling; a missing or
        // failed parent entry simply means full evaluation.
        let parent_entry = if self.incremental {
            parent.and_then(|h| match lock_recover!(self.cache.read()).get(h.key()) {
                Some(Ok(entry)) => Some((Arc::clone(entry), h.dir())),
                _ => None,
            })
        } else {
            None
        };
        // Compute outside any lock: compilation can be slow, and two
        // threads racing on the same fresh key just compile it twice
        // (rare — batches are deduplicated upstream), the second then
        // taking the first's bits from the source memo; first insert
        // wins.
        let computed: CacheSlot = match prepared
            .system()
            .spec()
            .compile_cq_interruptible(&key, interrupt)
        {
            Ok(compiled) => {
                let parent = parent_entry
                    .as_ref()
                    .map(|(pe, dir)| (pe.bits.as_ref(), *dir));
                match self.source_bits(prepared, &compiled, parent, turn, cut) {
                    Ok(Some(bits)) => Ok(Arc::new(DisjunctEntry { compiled, bits })),
                    Ok(None) => return Ok(None),
                    Err(e) => Err(e),
                }
            }
            Err(e) => Err(e),
        };
        if let Err(e) = &computed {
            if e.is_transient() {
                return Err(e.clone());
            }
        }
        let mut cache = lock_recover!(self.cache.write());
        cache.entry(key).or_insert(computed).clone().map(Some)
    }

    /// The match bits of `compiled`, from the source memo when another
    /// ontology key compiled to the same source UCQ (bits depend only on
    /// it), else from one evaluation that the memo then shares. The turn
    /// is passed before waiting on another candidate's evaluation, so
    /// later candidates are not held up. `Ok(None)` when `cut` pruned the
    /// candidate: the evaluation stopped below the floor (the memo keeps
    /// what it settled as a [`SrcSlot::Dead`] slot), or a dead slot's
    /// outcomes already put the candidate there.
    fn source_bits(
        &self,
        prepared: &PreparedLabels<'_>,
        compiled: &CompiledQuery,
        parent: Option<(&MatchBits, crate::prune::RefineDir)>,
        turn: Option<Turn<'_>>,
        cut: Option<Cut<'_>>,
    ) -> Result<Option<Arc<MatchBits>>, ObdmError> {
        let src_key = source_key(compiled);
        if let Some(t) = turn {
            t.turns.wait(t.pos);
        }
        let mut claim = self.claim_source(&src_key, false);
        if let Some(t) = turn {
            t.turns.pass(t.pos);
        }
        if let SrcClaim::Pending = claim {
            claim = self.claim_source(&src_key, true);
        }
        let (owner, dead) = match claim {
            SrcClaim::Ready(bits) => {
                self.src_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Some(bits));
            }
            SrcClaim::Dead(known) => (None, Some(known)),
            SrcClaim::Owner(owner) => (Some(owner), None),
            // A waiting claim always resolves; evaluating without
            // publishing is exact all the same.
            SrcClaim::Pending => (None, None),
        };
        let mut prior = prepared.prior(parent)?;
        if let Some(known) = dead {
            prior.learn(&known)?;
        }
        // Without a finite floor nothing can be cut, and the box is not
        // worth counting.
        let cut = cut.filter(|c| c.floor > f64::NEG_INFINITY);
        let cutoff = match cut.map(|c| c.cutoff(&prior.count_box())) {
            None => Cutoff::NONE,
            Some(Some(cutoff)) => cutoff,
            Some(None) => {
                self.cutoffs.fetch_add(1, Ordering::Relaxed);
                if let Some(owner) = owner {
                    owner.bury(prior);
                }
                return Ok(None);
            }
        };
        let total = prepared.num_pos() + prepared.num_neg();
        if prior.is_settled() {
            // The parent's bits or a dead slot settled every tuple: the
            // known hits are the bits, with no evaluator call.
            self.evals_saved.fetch_add(total as u64, Ordering::Relaxed);
            return Ok(Some(SrcOwner::share(owner, prior.into_bits())));
        }
        let e = prepared.evaluate(compiled.src(), prior, cutoff);
        self.batch_calls.fetch_add(1, Ordering::Relaxed);
        self.certified
            .fetch_add(e.work.certified as u64, Ordering::Relaxed);
        self.masked
            .fetch_add(e.work.masked as u64, Ordering::Relaxed);
        self.eval_nodes.fetch_add(e.work.nodes, Ordering::Relaxed);
        self.evals
            .fetch_add(e.work.evaluated as u64, Ordering::Relaxed);
        self.evals_saved
            .fetch_add((total - e.work.asked) as u64, Ordering::Relaxed);
        if e.stopped {
            self.cutoffs.fetch_add(1, Ordering::Relaxed);
            if let Some(owner) = owner {
                owner.bury(e.known);
            }
            return Ok(None);
        }
        Ok(Some(SrcOwner::share(owner, e.known.into_bits())))
    }

    /// The source memo's answer for `key`: its bits or a dead slot's
    /// outcomes, the claim to evaluate it when no candidate holds one, or
    /// [`SrcClaim::Pending`] while another candidate evaluates it —
    /// unless `wait`, which blocks until that candidate publishes, buries
    /// or withdraws. The caller's turn, if any, must be held for a claim
    /// that does not wait, and passed before one that does.
    fn claim_source<'e>(&'e self, key: &'e [SrcCq], wait: bool) -> SrcClaim<'e> {
        let mut memo = lock_recover!(self.src_memo.lock());
        loop {
            match memo.get(key) {
                Some(SrcSlot::Ready(bits)) => return SrcClaim::Ready(Arc::clone(bits)),
                Some(SrcSlot::Dead(known)) => return SrcClaim::Dead(Arc::clone(known)),
                Some(SrcSlot::Pending) if wait => memo = lock_recover!(self.src_ready.wait(memo)),
                Some(SrcSlot::Pending) => return SrcClaim::Pending,
                None => {
                    memo.insert(key.to_vec(), SrcSlot::Pending);
                    return SrcClaim::Owner(SrcOwner {
                        engine: self,
                        key: Some(key),
                    });
                }
            }
        }
    }

    /// Match bitset of a UCQ: the OR of its disjuncts' cached bitsets.
    pub fn match_bits_ucq(
        &self,
        prepared: &PreparedLabels<'_>,
        ucq: &OntoUcq,
    ) -> Result<MatchBits, ObdmError> {
        self.match_bits_ucq_interruptible(prepared, ucq, &Interrupt::none())
    }

    /// [`ScoringEngine::match_bits_ucq`] under a cooperative stop signal.
    pub fn match_bits_ucq_interruptible(
        &self,
        prepared: &PreparedLabels<'_>,
        ucq: &OntoUcq,
        interrupt: &Interrupt,
    ) -> Result<MatchBits, ObdmError> {
        let mut acc = MatchBits::empty(prepared.num_pos(), prepared.num_neg());
        for d in ucq.disjuncts() {
            let entry = self.disjunct_interruptible(prepared, d, interrupt)?;
            // Every cached bitset is shaped by `prepared`; a mismatch
            // means the engine was shared across label sets, and the
            // candidate fails with `LabelShape` like any other
            // permanently failing one.
            acc.union_with(&entry.bits)?;
        }
        Ok(acc)
    }

    /// Match statistics of a UCQ, via [`ScoringEngine::match_bits_ucq`].
    pub fn stats_ucq(
        &self,
        prepared: &PreparedLabels<'_>,
        ucq: &OntoUcq,
    ) -> Result<MatchStats, ObdmError> {
        Ok(self.match_bits_ucq(prepared, ucq)?.stats())
    }

    /// [`ScoringEngine::stats_ucq`] under a cooperative stop signal.
    pub fn stats_ucq_interruptible(
        &self,
        prepared: &PreparedLabels<'_>,
        ucq: &OntoUcq,
        interrupt: &Interrupt,
    ) -> Result<MatchStats, ObdmError> {
        Ok(self
            .match_bits_ucq_interruptible(prepared, ucq, interrupt)?
            .stats())
    }

    /// Scores a batch of CQ candidates on the worker pool; order follows
    /// the input. Candidates whose compilation fails are dropped (a
    /// pathological candidate should not abort the whole search) — use
    /// [`ScoringEngine::score_batch_outcome`] to observe the losses.
    pub fn score_batch(&self, task: &ExplainTask<'_>, candidates: Vec<OntoCq>) -> Vec<Explanation> {
        self.score_batch_outcome(task, candidates).explanations
    }

    /// Scores a batch under the full resilience contract:
    ///
    /// * every candidate is scored inside `catch_unwind`, so one panic
    ///   (e.g. a bug tickled by a pathological query) quarantines that
    ///   candidate and the batch continues;
    /// * the task's budget is polled per candidate — on stop, remaining
    ///   candidates are skipped and the partial batch is returned;
    /// * panics and permanent compile failures are tallied in
    ///   [`BatchOutcome::quarantined`].
    pub fn score_batch_outcome(
        &self,
        task: &ExplainTask<'_>,
        candidates: Vec<OntoCq>,
    ) -> BatchOutcome {
        let planned = candidates
            .into_iter()
            .map(|cq| PlannedCq { cq, parent: None })
            .collect();
        self.score_batch_planned(task, planned, usize::MAX, usize::MAX, &[])
    }

    /// [`ScoringEngine::score_batch_outcome`] over candidates carrying
    /// refinement provenance, with monotone bound pruning against floors
    /// that rise as the batch scores.
    ///
    /// `window` is the number of ranked batch candidates downstream
    /// selection can ever inspect (e.g. the beam's diversity window; 0
    /// when the caller selects on its pool alone); `cap` is the size the
    /// caller truncates its ranked pool ∪ this batch to; `pool` holds the
    /// pool's scores (any order).
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
    /// leaving them out changes neither later cuts nor the output. The
    /// chunk schedule depends only on the batch, never on the thread
    /// count, so the engine's counters do not either. Once the budget
    /// stops the batch, nothing more is pruned — the anytime contract is
    /// untouched.
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
        let quarantined = AtomicUsize::new(0);
        let bounds: Vec<f64> = planned
            .iter()
            .map(|p| match (&p.parent, self.incremental) {
                // The parent's box with the candidate's own shape: its
                // atom count is exact (δ5), and it is one disjunct (δ6).
                (Some(h), true) => task
                    .scoring()
                    .bound_over(&h.count_box(), p.cq.num_atoms(), 1),
                _ => f64::INFINITY,
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
        let mut explanations = Vec::new();
        let mut pruned = 0usize;
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
                pruned += n - next;
                break;
            }
            let stop = end.min(next.saturating_add(chunk));
            let (scored, cut_short) =
                self.score_indices(task, &planned, &order[next..stop], &quarantined, cut);
            pruned += cut_short;
            floors.add(scored.iter().map(|e| e.score));
            explanations.extend(scored);
            sp.count("chunks", 1);
            next = stop;
        }
        sp.count("floor_active", floor_active as u64);
        sp.count("scored", explanations.len() as u64);
        sp.count("pruned", pruned as u64);
        BATCH_NS.record_duration(t0.elapsed());
        BatchOutcome {
            explanations,
            quarantined: quarantined.into_inner(),
            pruned,
        }
    }

    /// The recorder riding on `task`'s budget, if any — the hook every
    /// engine span goes through (absent recorder ⇒ all spans are no-ops).
    fn recorder_of<'t>(
        &self,
        task: &'t ExplainTask<'_>,
    ) -> Option<&'t std::sync::Arc<obx_util::obs::Recorder>> {
        task.budget().recorder()
    }

    /// Scores `planned[indices]` (in `indices` order) under the
    /// quarantine + budget contract and the pruning cut `cut`,
    /// sequentially or on the worker pool. Returns the explanations and
    /// how many candidates the cut pruned mid-evaluation.
    fn score_indices(
        &self,
        task: &ExplainTask<'_>,
        planned: &[PlannedCq],
        indices: &[usize],
        quarantined: &AtomicUsize,
        cut: f64,
    ) -> (Vec<Explanation>, usize) {
        let n = indices.len();
        let cut_short = AtomicUsize::new(0);
        let score_one = |p: &PlannedCq, turn: Option<Turn<'_>>| -> Option<Explanation> {
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                task.score_cq_at(&p.cq, p.parent.as_ref(), turn, cut)
            }));
            match attempt {
                Ok(Ok(Some(e))) => Some(e),
                Ok(Ok(None)) => {
                    cut_short.fetch_add(1, Ordering::Relaxed);
                    None
                }
                Ok(Err(e)) => {
                    if !e.is_transient() {
                        quarantined.fetch_add(1, Ordering::Relaxed);
                    }
                    None
                }
                Err(_) => {
                    quarantined.fetch_add(1, Ordering::Relaxed);
                    None
                }
            }
        };
        let out = if n < 4 || self.threads <= 1 {
            let mut out = Vec::new();
            for &i in indices {
                if task.stop_reason().is_some() {
                    break;
                }
                out.extend(score_one(&planned[i], None));
            }
            out
        } else {
            let rec = self.recorder_of(task);
            let pool = self
                .pool
                .get_or_init(|| WorkerPool::named(self.threads - 1, "obx-scorer"));
            let cursor = AtomicUsize::new(0);
            let turns = Turns::new(n);
            let slots: Vec<OnceLock<Option<Explanation>>> =
                (0..n).map(|_| OnceLock::new()).collect();
            pool.run(&|| {
                // One span per participating worker, all at the same path:
                // entry count = workers that pulled work, `tasks` sums the
                // pulls, `max_tasks` is the heaviest worker's share —
                // together the batch's utilization picture.
                let mut wsp = obx_util::span!(rec, "score_workers");
                let mut pulled = 0u64;
                loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    if k >= n {
                        break;
                    }
                    // Every pulled position passes its turn, scored or
                    // not, or the positions after it would wait forever.
                    if task.stop_reason().is_some() {
                        turns.pass(k);
                        break;
                    }
                    let turn = Turn {
                        turns: &turns,
                        pos: k,
                    };
                    let _ = slots[k].set(score_one(&planned[indices[k]], Some(turn)));
                    turns.pass(k);
                    pulled += 1;
                }
                wsp.count("tasks", pulled);
                wsp.count_max("max_tasks", pulled);
            });
            slots
                .into_iter()
                .filter_map(|s| s.into_inner().flatten())
                .collect()
        };
        (out, cut_short.into_inner())
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
        f.debug_struct("ScoringEngine")
            .field("cached", &self.cache_len())
            .field("hits", &self.cache_hits())
            .field("misses", &self.cache_misses())
            .field("src_hits", &self.src_hits())
            .field("evals", &self.eval_calls())
            .field("evals_saved", &self.evals_saved())
            .field("batch_calls", &self.batch_calls())
            .field("certified_disjuncts", &self.certified_disjuncts())
            .field("masked_disjuncts", &self.masked_disjuncts())
            .field("eval_nodes", &self.eval_nodes())
            .field("cutoffs", &self.cutoffs())
            .field("threads", &self.threads)
            .field("incremental", &self.incremental)
            .finish()
    }
}

use obx_util::pool::configured_threads;

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
        let first = engine
            .disjunct(task.prepared(), &likes.disjuncts()[0])
            .unwrap();
        let (evals, calls) = (engine.eval_calls(), engine.batch_calls());
        assert_eq!((engine.src_hits(), calls), (0, 1));
        let second = engine
            .disjunct(task.prepared(), &studies.disjuncts()[0])
            .unwrap();
        assert_eq!(engine.cache_misses(), 2, "distinct ontology keys");
        assert_eq!(engine.src_hits(), 1);
        assert_eq!(
            (engine.eval_calls(), engine.batch_calls()),
            (evals, calls),
            "a source hit makes no evaluator call"
        );
        assert!(Arc::ptr_eq(&first.bits, &second.bits), "one shared bitset");
        assert_eq!(
            second.bits.stats(),
            task.prepared().stats_of(&studies).unwrap()
        );
        assert!(format!("{engine:?}").contains("src_hits: 1"));
    }

    #[test]
    fn compilation_failures_are_cached() {
        let mut sys = example_3_6_system();
        let (labels, scoring) = paper_task(&mut sys);
        let q = sys
            .parse_query(r#"q(x) :- studies(x, y), taughtIn(y, z), locatedIn(z, "Rome")"#)
            .unwrap();
        // A zero-disjunct rewrite budget makes every compilation fail.
        sys.spec_mut().rewrite_budget.max_disjuncts = 0;
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        assert!(task.engine().stats_ucq(task.prepared(), &q).is_err());
        let misses = task.engine().cache_misses();
        assert!(task.engine().stats_ucq(task.prepared(), &q).is_err());
        assert_eq!(
            task.engine().cache_misses(),
            misses,
            "failure answered from cache"
        );
        assert_eq!(
            task.engine().eval_calls(),
            0,
            "failed compiles never evaluate"
        );
    }

    #[test]
    fn score_batch_parallel_path_matches_sequential() {
        let mut sys = example_3_6_system();
        let (labels, scoring) = paper_task(&mut sys);
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        let vocab = sys.spec().tbox().vocab();
        use obx_query::{OntoAtom, OntoCq, Term, VarId};
        let mut candidates = Vec::new();
        for role in ["studies", "likes", "taughtIn", "locatedIn"] {
            let r = vocab.get_role(role).unwrap();
            candidates.push(
                OntoCq::new(
                    vec![VarId(0)],
                    vec![OntoAtom::Role(r, Term::Var(VarId(0)), Term::Var(VarId(1)))],
                )
                .unwrap(),
            );
        }
        let sequential: Vec<f64> = candidates
            .iter()
            .filter_map(|cq| task.score_cq(cq).ok())
            .map(|e| e.score)
            .collect();
        let parallel: Vec<f64> = task
            .engine()
            .score_batch(&task, candidates)
            .into_iter()
            .map(|e| e.score)
            .collect();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn with_threads_makes_thread_count_injectable() {
        // The injectable path `with_threads` replaces the old env-var
        // probe test: tests sharing this process could interleave
        // set/remove of OBX_THREADS, so the global-env path is only
        // exercised for its parse logic, never by mutating the env.
        assert_eq!(ScoringEngine::with_threads(3).threads(), 3);
        assert_eq!(
            ScoringEngine::with_threads(0).threads(),
            1,
            "clamped to >= 1"
        );
        // `new` resolves to *some* positive count whatever the env says.
        assert!(ScoringEngine::new().threads() >= 1);
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

        let on = Arc::new(ScoringEngine::with_config(1, true));
        let task_on = task.with_engine(Arc::clone(&on));
        let parent = task_on.score_cq(&parent_q.disjuncts()[0]).unwrap();
        let handle = ParentHandle::from_explanation(RefineDir::Specialize, &parent).unwrap();
        let child = task_on
            .score_cq_with_parent(&child_q.disjuncts()[0], Some(&handle))
            .unwrap();
        assert!(
            on.evals_saved() > 0,
            "restricted evaluation must skip the parent's zero bits"
        );

        let off = Arc::new(ScoringEngine::with_config(1, false));
        let task_off = task.with_engine(off);
        let full = task_off.score_cq(&child_q.disjuncts()[0]).unwrap();
        assert_eq!(child.stats, full.stats);
        assert_eq!(child.score.to_bits(), full.score.to_bits());
        assert_eq!(child.criterion_values, full.criterion_values);
    }

    #[test]
    fn planned_batches_prune_below_window_and_floor() {
        use crate::matcher::MatchStats;
        use crate::prune::{ParentHandle, RefineDir};
        let mut sys = example_3_6_system();
        let (labels, scoring) = paper_task(&mut sys);
        let strong_q = sys.parse_query(r#"q(x) :- likes(x, "Science")"#).unwrap();
        let weak_q = sys.parse_query("q(x) :- studies(x, y)").unwrap();
        let task = ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        // A parent that matched no positives: every Specialize child is
        // bounded by (0 + 1 + 1) / 3 under the paper weighting, well below
        // the strong candidate's 0.833.
        let hopeless = ParentHandle::new(
            RefineDir::Specialize,
            weak_q.disjuncts()[0].clone(),
            MatchStats {
                pos_matched: 0,
                pos_total: 4,
                neg_matched: 1,
                neg_total: 1,
            },
        );
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
        let on = Arc::new(ScoringEngine::with_config(1, true));
        let task_on = task.with_engine(Arc::clone(&on));
        let outcome =
            on.score_batch_planned(&task_on, planned(Some(hopeless.clone())), 1, 1, &[2.0]);
        assert_eq!(outcome.pruned, 1);
        assert_eq!(outcome.explanations.len(), 1);
        assert!((outcome.explanations[0].score - 0.8333).abs() < 1e-3);
        assert_eq!(on.cutoffs(), 0, "pruned before compilation");

        // Baseline engine: bounds are all +∞, nothing is pruned, and the
        // stable sort keeps the input order exactly.
        let off = Arc::new(ScoringEngine::with_config(1, false));
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
        let fresh = Arc::new(ScoringEngine::with_config(1, true));
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
        let engine = Arc::new(ScoringEngine::with_config(1, true));
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
            (engine.src_hits(), engine.cache_len()),
            (0, 0),
            "pruned candidates are not cached"
        );

        // Without a cut, the dead slot's settled outcomes are the bits:
        // exact, and with no further evaluator call.
        let e = task.score_cq(&likes.disjuncts()[0]).unwrap();
        assert_eq!(e.stats, task.prepared().stats_of(&likes).unwrap());
        assert_eq!(engine.batch_calls(), 1);
        assert_eq!(engine.cache_len(), 1);
    }
}

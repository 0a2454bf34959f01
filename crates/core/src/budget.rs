//! Search budgets, cancellation, and the anytime-result contract.
//!
//! Definition 3.7 search is worst-case exponential, so production runs are
//! *bounded*: a [`SearchBudget`] carries a wall-clock deadline, a cap on
//! evaluator calls, and a cooperative [`CancelToken`]. Strategies poll the
//! budget at loop granularity (per candidate batch, per round) and, when it
//! fires, return the best explanations found *so far* — an **anytime**
//! contract — tagged with a [`Termination`] status instead of erroring.
//!
//! The budget also projects down to an [`Interrupt`](obx_util::Interrupt)
//! ([`SearchBudget::interrupt`]) that the lower-level kernels (PerfectRef,
//! the chase, border BFS) poll, so a single pathological rewrite cannot pin
//! a deadline-bound search.

use obx_util::obs::Recorder;
use obx_util::{GuardLimits, GuardTrip, Interrupt, ResourceGuard};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shareable cancellation handle: clones observe the same flag, so a
/// signal handler (or another thread) can stop a search mid-flight.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untriggered token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; every clone observes it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// The underlying shared flag (for bridging to signal handlers).
    pub fn flag(&self) -> &Arc<AtomicBool> {
        &self.0
    }
}

/// Why a search stopped before exhausting its candidate space. Ordered by
/// reporting precedence: an explicit cancel wins over a deadline, which
/// wins over the evaluator cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// The [`CancelToken`] fired.
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExpired,
    /// A [`ResourceGuard`] limit was reached inside a kernel (rewrite
    /// disjuncts, chase facts, border atoms, or approximate allocation).
    /// Unlike the other reasons this never halts the search loop — it is
    /// reported at the end of the run via [`SearchBudget::final_stop`].
    ResourceLimit(GuardTrip),
    /// The evaluator-call cap was reached.
    EvalBudgetExhausted,
}

/// How a search run ended — the tag on every [`ExplainReport`].
///
/// [`ExplainReport`]: crate::explain::ExplainReport
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// The strategy exhausted its search space within budget.
    Complete,
    /// The deadline fired; results are best-so-far.
    DeadlineExpired,
    /// The evaluator-call cap fired; results are best-so-far.
    EvalBudgetExhausted,
    /// The caller cancelled; results are best-so-far.
    Cancelled,
    /// The search ran to the end, but some candidates were quarantined
    /// (their scoring panicked or failed permanently); results cover the
    /// healthy candidates only.
    Degraded {
        /// Number of candidates dropped.
        quarantined: usize,
    },
}

impl Termination {
    /// Whether the search covered its whole space with no losses.
    pub fn is_complete(&self) -> bool {
        matches!(self, Termination::Complete)
    }

    /// Builds the status from a stop reason and a quarantine count:
    /// budget stops win (their results are already partial), then
    /// quarantine, then complete.
    pub fn from_run(stop: Option<Stop>, quarantined: usize) -> Self {
        match stop {
            Some(Stop::Cancelled) => Termination::Cancelled,
            Some(Stop::DeadlineExpired) => Termination::DeadlineExpired,
            Some(Stop::EvalBudgetExhausted) => Termination::EvalBudgetExhausted,
            // A tripped resource guard degrades the run: kernels truncated
            // or skipped work, so results are best-so-far over what was
            // actually reached.
            Some(Stop::ResourceLimit(_)) => Termination::Degraded { quarantined },
            None if quarantined > 0 => Termination::Degraded { quarantined },
            None => Termination::Complete,
        }
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Termination::Complete => write!(f, "complete"),
            Termination::DeadlineExpired => write!(f, "deadline expired"),
            Termination::EvalBudgetExhausted => write!(f, "eval budget exhausted"),
            Termination::Cancelled => write!(f, "cancelled"),
            Termination::Degraded { quarantined } => {
                write!(f, "degraded ({quarantined} candidate(s) quarantined)")
            }
        }
    }
}

/// Bounds on one search run: wall-clock deadline, evaluator-call cap, and
/// a cancellation token. The default ([`SearchBudget::unlimited`]) never
/// fires and adds no per-candidate cost beyond two atomic loads.
#[derive(Debug, Clone, Default)]
pub struct SearchBudget {
    deadline: Option<Instant>,
    max_evals: Option<u64>,
    cancel: CancelToken,
    guard: Option<Arc<ResourceGuard>>,
    recorder: Option<Arc<Recorder>>,
}

impl SearchBudget {
    /// A budget that never fires (cancellation still works through the
    /// token, which exists on every budget).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps wall-clock time: the deadline is `now + timeout`.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Caps wall-clock time at an absolute instant.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps the number of J-match evaluations (as counted by
    /// [`ScoringEngine::eval_calls`](crate::engine::ScoringEngine::eval_calls)).
    ///
    /// The cap is checked once per candidate by each scoring worker, and a
    /// candidate that starts runs to completion. So the final count may
    /// exceed the cap by up to one candidate's evaluations (at most
    /// `|λ⁺| + |λ⁻|`) per worker thread.
    pub fn with_max_evals(mut self, max_evals: u64) -> Self {
        self.max_evals = Some(max_evals);
        self
    }

    /// Attaches a [`ResourceGuard`] with the given limits. Kernels charge
    /// the guard as they materialise rewrite disjuncts, chase facts, and
    /// border atoms; once a limit trips, each kernel degrades (truncates or
    /// skips) individually. The search loop keeps running over the
    /// truncated structures — the trip surfaces in the final report as
    /// [`Stop::ResourceLimit`] via [`SearchBudget::final_stop`], so the
    /// run terminates [`Termination::Degraded`] with ranked best-so-far
    /// results instead of stopping empty-handed.
    pub fn with_guard_limits(mut self, limits: GuardLimits) -> Self {
        self.guard = Some(Arc::new(ResourceGuard::new(limits)));
        self
    }

    /// The attached resource guard, if any.
    pub fn guard(&self) -> Option<&Arc<ResourceGuard>> {
        self.guard.as_ref()
    }

    /// The first guard trip of the run, if one happened.
    pub fn guard_trip(&self) -> Option<GuardTrip> {
        self.guard.as_ref().and_then(|g| g.trip())
    }

    /// Attaches an observability [`Recorder`]: the whole run — task
    /// preparation, every strategy round, every kernel invocation — records
    /// spans and counters into it, and [`finalize_report`] snapshots it
    /// into [`ExplainReport::profile`]. Recording never changes results;
    /// without a recorder (the default) the profile stays empty.
    ///
    /// [`finalize_report`]: crate::explain::finalize_report
    /// [`ExplainReport::profile`]: crate::explain::ExplainReport::profile
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.recorder.as_ref()
    }

    /// Attaches an externally-owned cancellation token (e.g. one also
    /// handed to a SIGINT handler).
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// The budget's cancellation token.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The evaluator-call cap, if one is set.
    pub fn max_evals(&self) -> Option<u64> {
        self.max_evals
    }

    /// Whether neither deadline nor evaluator cap is set (the token can
    /// still cancel).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_evals.is_none()
    }

    /// Whether the budget has fired, given the current evaluator-call
    /// count, and why. Precedence: cancel > deadline > eval cap.
    ///
    /// A tripped [`ResourceGuard`] deliberately does *not* appear here:
    /// guards degrade the kernels (truncated chase/border, transiently
    /// failing rewrites), and the search loop should keep ranking over
    /// whatever was materialised rather than halt — otherwise a trip
    /// during task preparation would end the run before the first
    /// candidate is scored. The trip is folded in at report time by
    /// [`SearchBudget::final_stop`].
    pub fn stop_reason(&self, evals: u64) -> Option<Stop> {
        if self.cancel.is_cancelled() {
            return Some(Stop::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(Stop::DeadlineExpired);
            }
        }
        if let Some(cap) = self.max_evals {
            if evals >= cap {
                return Some(Stop::EvalBudgetExhausted);
            }
        }
        None
    }

    /// The stop to *report* for a finished run: a loop-halting
    /// [`stop_reason`](SearchBudget::stop_reason) wins; otherwise a
    /// resource-guard trip surfaces as [`Stop::ResourceLimit`] so the
    /// run's [`Termination`] records that results are degraded.
    pub fn final_stop(&self, evals: u64) -> Option<Stop> {
        self.stop_reason(evals)
            .or_else(|| self.guard_trip().map(Stop::ResourceLimit))
    }

    /// The deadline + cancellation projection of this budget, for the
    /// kernels below the search layer (PerfectRef, chase, border BFS).
    /// The evaluator cap is *not* part of it — only the scoring engine
    /// counts evals, so only the search layer can enforce that cap.
    pub fn interrupt(&self) -> Interrupt {
        let mut i = Interrupt::none().with_flag(Arc::clone(self.cancel.flag()));
        if let Some(d) = self.deadline {
            i = i.with_deadline(d);
        }
        if let Some(g) = &self.guard {
            i = i.with_guard(Arc::clone(g));
        }
        if let Some(r) = &self.recorder {
            i = i.with_recorder(Arc::clone(r));
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_stops() {
        let b = SearchBudget::unlimited();
        assert!(b.is_unlimited());
        assert_eq!(b.stop_reason(u64::MAX), None);
    }

    #[test]
    fn stop_precedence_is_cancel_then_deadline_then_evals() {
        let b = SearchBudget::unlimited()
            .with_deadline(Instant::now() - Duration::from_millis(1))
            .with_max_evals(0);
        assert_eq!(b.stop_reason(5), Some(Stop::DeadlineExpired));
        b.cancel_token().cancel();
        assert_eq!(b.stop_reason(5), Some(Stop::Cancelled));
        let evals_only = SearchBudget::unlimited().with_max_evals(10);
        assert_eq!(evals_only.stop_reason(9), None);
        assert_eq!(evals_only.stop_reason(10), Some(Stop::EvalBudgetExhausted));
    }

    #[test]
    fn cancel_token_is_shared_across_clones_and_interrupt() {
        let token = CancelToken::new();
        let b = SearchBudget::unlimited().with_cancel_token(token.clone());
        let i = b.interrupt();
        assert!(!i.is_triggered());
        token.cancel();
        assert!(i.is_triggered());
        assert_eq!(b.stop_reason(0), Some(Stop::Cancelled));
    }

    #[test]
    fn guard_trip_surfaces_as_resource_limit() {
        use obx_util::GuardKind;
        let b = SearchBudget::unlimited()
            .with_guard_limits(GuardLimits::unlimited().with_max_chase_facts(10));
        assert_eq!(b.stop_reason(0), None, "untripped guard does not stop");
        let guard = Arc::clone(b.guard().unwrap());
        let i = b.interrupt();
        assert!(
            i.guard().is_some(),
            "interrupt carries the guard down to kernels"
        );
        assert!(!i.is_triggered(), "a guard alone does not trigger kernels");
        assert!(!guard.charge(GuardKind::ChaseFacts, 11, 0));
        // The loop keeps running on the truncated structures…
        assert_eq!(b.stop_reason(0), None, "a trip does not halt the loop");
        // …but the report records the trip with its counts.
        match b.final_stop(0) {
            Some(Stop::ResourceLimit(trip)) => {
                assert_eq!(trip.kind, GuardKind::ChaseFacts);
                assert_eq!(trip.observed, 11);
                assert_eq!(trip.limit, 10);
            }
            other => panic!("expected ResourceLimit, got {other:?}"),
        }
        assert_eq!(
            Termination::from_run(b.final_stop(0), 0),
            Termination::Degraded { quarantined: 0 }
        );
        // An explicit loop stop (here the eval cap) outranks the trip.
        let b = b.with_max_evals(0);
        assert!(matches!(b.final_stop(5), Some(Stop::EvalBudgetExhausted)));
    }

    #[test]
    fn termination_from_run_precedence() {
        assert_eq!(Termination::from_run(None, 0), Termination::Complete);
        assert_eq!(
            Termination::from_run(None, 3),
            Termination::Degraded { quarantined: 3 }
        );
        assert_eq!(
            Termination::from_run(Some(Stop::DeadlineExpired), 3),
            Termination::DeadlineExpired
        );
        assert!(!Termination::Cancelled.is_complete());
        assert_eq!(Termination::Complete.to_string(), "complete");
        assert!(Termination::Degraded { quarantined: 2 }
            .to_string()
            .contains("2 candidate"));
    }
}

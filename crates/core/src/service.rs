//! The shared request-execution layer behind every front end.
//!
//! One-shot `obx explain` and the long-lived `obx serve` must produce
//! **byte-identical** output for the same scenario and options — that is
//! what makes a served explanation auditable against a local rerun. The
//! only way to guarantee that is to have exactly one implementation:
//! front ends translate their surface syntax (CLI flags, request JSON)
//! into an [`ExplainRequest`] and call [`run_explain`]; rendering lives
//! here too ([`render_report_text`]), so a front end cannot drift.
//!
//! The same applies to validation: [`validate_dir`] is the single
//! implementation behind `obx validate` and the server's `/validate`
//! endpoint.

use crate::baseline::DataLevelBeam;
use crate::budget::{CancelToken, SearchBudget, Termination};
use crate::explain::{ExplainReport, ExplainTask, SearchLimits, Strategy};
use crate::labels::Labels;
use crate::matcher::{LabelBorders, MatchStats, PreparedLabels};
use crate::scenario::{load_dir_checked, LoadedScenario};
use crate::score::{ExplainMode, Scoring};
use crate::strategies::{BeamSearch, BottomUpGeneralize, ExhaustiveSearch, GreedyUcq};
use crate::validate::validate_scenario;
use obx_obdm::ObdmSystem;
use obx_util::diag::render_with_source;
use obx_util::{GuardLimits, GuardTrip};
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// One explanation request, front-end agnostic: the CLI builds it from
/// flags, the server from request JSON. Defaults mirror the CLI's
/// historical defaults exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainRequest {
    /// Border radius `r` (Definition 3.2).
    pub radius: usize,
    /// Strategy name: `beam | bottom-up | exhaustive | greedy | data-level`.
    pub strategy: String,
    /// Search objective: `fscore` (default) | `sound` | `complete`.
    pub mode: ExplainMode,
    /// Paper Z weights for δ1, δ4, δ5 (used by `fscore` mode only).
    pub weights: (f64, f64, f64),
    /// How many ranked explanations to return.
    pub top: usize,
    /// Override the default cap on atoms per candidate body. Small caps
    /// shrink the search space *and* arm the interval-bound pruning far
    /// more often (see DESIGN.md §9/§15: wide conjunctive tiers fill the
    /// guard window at the bound's own baseline).
    pub max_atoms: Option<usize>,
    /// Override the default beam width (candidates kept per round).
    pub beam_width: Option<usize>,
    /// Wall-clock budget; on expiry best-so-far results are returned.
    pub timeout_ms: Option<u64>,
    /// Cap on J-match evaluator calls (anytime, like `timeout_ms`).
    pub max_evals: Option<u64>,
    /// Resource guard: cap cumulative rewrite disjuncts (PerfectRef CQs,
    /// or the source disjuncts a saturated compile emits).
    pub max_rewrite: Option<usize>,
    /// Resource guard: cap cumulative chase facts.
    pub max_chase: Option<usize>,
    /// Resource guard: cap cumulative border atoms.
    pub max_border: Option<usize>,
}

impl Default for ExplainRequest {
    fn default() -> Self {
        Self {
            radius: 1,
            strategy: "beam".to_owned(),
            mode: ExplainMode::Fscore,
            weights: (1.0, 1.0, 1.0),
            top: 5,
            max_atoms: None,
            beam_width: None,
            timeout_ms: None,
            max_evals: None,
            max_rewrite: None,
            max_chase: None,
            max_border: None,
        }
    }
}

impl ExplainRequest {
    /// The paper-weighted scoring this request asks for (the `fscore`
    /// objective; what every request used before modes existed).
    pub fn scoring(&self) -> Scoring {
        Scoring::paper_weighted(self.weights.0, self.weights.1, self.weights.2)
    }

    /// The scoring the request's [`ExplainMode`] asks for, sized to the
    /// label sets: the lexicographic sound/complete encodings need
    /// `|λ⁺|`/`|λ⁻|` to scale their tie-breaker terms (see
    /// [`Scoring::sound`]). `fscore` mode routes through
    /// [`ExplainRequest::scoring`] unchanged, keeping its output
    /// byte-identical to the pre-mode behavior.
    pub fn scoring_for(&self, labels: &Labels) -> Scoring {
        Scoring::for_mode(
            self.mode,
            || self.scoring(),
            labels.pos().len(),
            labels.neg().len(),
        )
    }

    /// The [`SearchBudget`] this request describes, under the caller's
    /// cancellation token: deadline, evaluator cap, and resource-guard
    /// limits, exactly as the CLI's flags have always mapped.
    pub fn budget(&self, cancel: &CancelToken) -> SearchBudget {
        let mut budget = SearchBudget::unlimited().with_cancel_token(cancel.clone());
        if let Some(ms) = self.timeout_ms {
            budget = budget.with_timeout(Duration::from_millis(ms));
        }
        if let Some(cap) = self.max_evals {
            budget = budget.with_max_evals(cap);
        }
        if self.max_rewrite.is_some() || self.max_chase.is_some() || self.max_border.is_some() {
            let mut limits = GuardLimits::unlimited();
            if let Some(n) = self.max_rewrite {
                limits = limits.with_max_rewrite_disjuncts(n);
            }
            if let Some(n) = self.max_chase {
                limits = limits.with_max_chase_facts(n);
            }
            if let Some(n) = self.max_border {
                limits = limits.with_max_border_atoms(n);
            }
            budget = budget.with_guard_limits(limits);
        }
        budget
    }

    /// A copy of this request with every unbounded dimension clamped to
    /// the given server-side ceiling — the admission-control hook of
    /// `obx serve`: a request may ask for *less* than the server allows,
    /// never more, so one pathological query degrades itself instead of
    /// the process.
    pub fn clamped(
        &self,
        max_timeout_ms: Option<u64>,
        max_evals: Option<u64>,
        guard_ceiling: Option<(usize, usize, usize)>,
    ) -> Self {
        let mut r = self.clone();
        if let Some(cap) = max_timeout_ms {
            r.timeout_ms = Some(r.timeout_ms.map_or(cap, |t| t.min(cap)));
        }
        if let Some(cap) = max_evals {
            r.max_evals = Some(r.max_evals.map_or(cap, |t| t.min(cap)));
        }
        if let Some((rewrite, chase, border)) = guard_ceiling {
            r.max_rewrite = Some(r.max_rewrite.map_or(rewrite, |v| v.min(rewrite)));
            r.max_chase = Some(r.max_chase.map_or(chase, |v| v.min(chase)));
            r.max_border = Some(r.max_border.map_or(border, |v| v.min(border)));
        }
        r
    }
}

/// Why a service request failed (before or during the search). Mirrors
/// the CLI's historical error classes so exit codes and HTTP statuses map
/// one-to-one.
#[derive(Debug)]
pub enum ServiceError {
    /// The request named a strategy that does not exist.
    UnknownStrategy(String),
    /// Task construction rejected the scenario/request combination.
    Task(String),
    /// The explanation machinery itself failed.
    Search(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownStrategy(s) => write!(f, "unknown strategy `{s}`"),
            ServiceError::Task(msg) => write!(f, "task: {msg}"),
            ServiceError::Search(msg) => write!(f, "explain: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A finished service run: the text a front end emits verbatim (stdout
/// for the CLI, response body for the server) plus the exit code
/// (`0` complete, `2` degraded/partial) and — when the strategy produced
/// one — the structured report.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// The rendered result, byte-identical across front ends.
    pub stdout: String,
    /// `0` complete, `1` error (validation only), `2` degraded/partial.
    pub exit_code: i32,
    /// The structured report (absent for the data-level baseline, which
    /// predates the report type).
    pub report: Option<ExplainReport>,
}

/// One epoch's shared prepare: the last **complete** [`LabelBorders`]
/// built for its system and labels, keyed by radius.
///
/// Borders `B_{t,r}(D)` and the constant ranking over them depend only on
/// Σ, λ and `r`, so requests at one radius on one immutable scenario can
/// share them. [`run_explain_in`] clones the held `Arc` on a hit and, on
/// a miss, builds outside the lock and stores the result only if no
/// deadline or cancellation cut a border short. One slot, not a
/// per-radius map: requests alternating radii replace each other's
/// entry, so memory stays bounded whatever radii clients send.
///
/// A slot must only ever serve the one system and label set its borders
/// were built from; `obx serve` keeps one on each epoch, next to the
/// scenario it describes.
#[derive(Default)]
pub struct PrepareSlot {
    held: Mutex<Option<Arc<LabelBorders>>>,
}

impl PrepareSlot {
    /// An empty slot.
    pub fn new() -> Self {
        Self::default()
    }

    fn held(&self) -> std::sync::MutexGuard<'_, Option<Arc<LabelBorders>>> {
        // The guarded value is one pointer swap; a panic elsewhere cannot
        // have left it half-written.
        self.held.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The held borders, when they were built at `radius`.
    fn get(&self, radius: usize) -> Option<Arc<LabelBorders>> {
        self.held()
            .as_ref()
            .filter(|b| b.radius() == radius)
            .map(Arc::clone)
    }

    /// Holds `borders` from now on, if they are complete.
    fn offer(&self, borders: &Arc<LabelBorders>) {
        if borders.is_complete() {
            *self.held() = Some(Arc::clone(borders));
        }
    }

    /// The radius of the held borders, `None` while the slot is empty.
    pub fn radius(&self) -> Option<usize> {
        self.held().as_ref().map(|b| b.radius())
    }

    /// Approximate heap bytes held ([`LabelBorders::heap_bytes`]); 0
    /// while the slot is empty.
    pub fn bytes(&self) -> usize {
        self.held().as_ref().map_or(0, |b| b.heap_bytes())
    }
}

impl fmt::Debug for PrepareSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PrepareSlot")
            .field("radius", &self.radius())
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// The prepared labels for one request: the slot's borders when it holds
/// them at `radius`, else freshly built ones (offered back to the slot).
///
/// A budget whose resource guard limits border atoms or bytes bypasses
/// the slot both ways: the border kernel charges that guard as it builds,
/// so borrowed borders would skip the charges and trip the guard at a
/// different point than a fresh run does.
fn prepare<'a>(
    system: &'a ObdmSystem,
    labels: &Labels,
    radius: usize,
    budget: &SearchBudget,
    slot: &PrepareSlot,
) -> PreparedLabels<'a> {
    let shared = !budget.guard().is_some_and(|g| {
        let limits = g.limits();
        limits.max_border_atoms.is_some() || limits.max_alloc_bytes.is_some()
    });
    let held = {
        let mut sp = obx_util::span!(budget.recorder(), "slot");
        let held = shared.then(|| slot.get(radius)).flatten();
        let outcome = match (&held, shared) {
            (Some(_), _) => "hits",
            (None, true) => "misses",
            (None, false) => "bypassed",
        };
        sp.count(outcome, 1);
        held
    };
    if let Some(borders) = held {
        return PreparedLabels::from_borders(system, borders);
    }
    let prepared = PreparedLabels::new_interruptible(system, labels, radius, &budget.interrupt());
    if shared {
        slot.offer(prepared.borders());
    }
    prepared
}

/// Runs one explanation request against a loaded scenario under `budget`,
/// preparing its labels from scratch: [`run_explain_in`] with a fresh
/// slot of its own.
///
/// When the budget carries a recorder, the run is phased exactly as the
/// profiled CLI always was — `explain/prepare` around task construction
/// (border BFS for every labelled tuple), `explain/search` around the
/// strategy — so phase wall times sum to the run's total.
pub fn run_explain(
    system: &ObdmSystem,
    labels: &Labels,
    req: &ExplainRequest,
    budget: SearchBudget,
) -> Result<ServiceOutcome, ServiceError> {
    run_explain_in(system, labels, req, budget, &PrepareSlot::new())
}

/// [`run_explain`] sharing its prepare through `slot`, which must belong
/// to this `system` and `labels` ([`PrepareSlot`]). The output is
/// byte-identical to [`run_explain`]'s whenever the budget does not cut
/// the fresh prepare short: a hit hands the search exactly the borders a
/// fresh build would produce. The profile's `explain/prepare/slot` span
/// counts the lookup as one of `hits`, `misses` or `bypassed`; a hit has
/// no `border` span.
pub fn run_explain_in(
    system: &ObdmSystem,
    labels: &Labels,
    req: &ExplainRequest,
    budget: SearchBudget,
    slot: &PrepareSlot,
) -> Result<ServiceOutcome, ServiceError> {
    let scoring = req.scoring_for(labels);
    let mut limits = SearchLimits {
        top_k: req.top,
        ..SearchLimits::default()
    };
    if let Some(n) = req.max_atoms {
        limits.max_atoms = n;
    }
    if let Some(n) = req.beam_width {
        limits.beam_width = n;
    }
    let recorder = budget.recorder().cloned();
    let task = {
        let _prepare = recorder.as_ref().map(|r| r.enter_phase("explain/prepare"));
        let prepared = prepare(system, labels, req.radius, &budget, slot);
        ExplainTask::from_prepared(prepared, &scoring, limits, budget)
            .map_err(|e| ServiceError::Task(e.to_string()))?
    };
    if req.strategy == "data-level" {
        let (result, termination) = {
            let _search = recorder.as_ref().map(|r| r.enter_phase("explain/search"));
            DataLevelBeam
                .explain_with_status(&task)
                .map_err(|e| ServiceError::Search(e.to_string()))?
        };
        let mut out = String::new();
        for e in result {
            let _ = writeln!(
                out,
                "Z = {:.4}  [{}/{}+  {}-]  {}",
                e.score,
                e.stats.pos_matched,
                e.stats.pos_total,
                e.stats.neg_matched,
                e.render(&task)
            );
        }
        let degraded = write_stop_footer(&mut out, termination, task.budget().guard_trip());
        return Ok(ServiceOutcome {
            stdout: out,
            exit_code: if degraded { 2 } else { 0 },
            report: None,
        });
    }
    let strategy: Box<dyn Strategy> = match req.strategy.as_str() {
        "beam" => Box::new(BeamSearch),
        "bottom-up" => Box::new(BottomUpGeneralize::default()),
        "exhaustive" => Box::new(ExhaustiveSearch::default()),
        "greedy" => Box::new(GreedyUcq::default()),
        other => return Err(ServiceError::UnknownStrategy(other.to_owned())),
    };
    let report = {
        let _search = recorder.as_ref().map(|r| r.enter_phase("explain/search"));
        strategy
            .explain_with_status(&task)
            .map_err(|e| ServiceError::Search(e.to_string()))?
    };
    let (stdout, exit_code) =
        render_report_text(&report, system, task.budget().guard_trip(), req.mode);
    Ok(ServiceOutcome {
        stdout,
        exit_code,
        report: Some(report),
    })
}

/// Whether the top-ranked explanation meets the mode's perfection bar:
/// zero λ⁻ hits for sound mode, zero λ⁺ misses for complete mode (always
/// met in fscore mode, which has no bar). `None` — an empty report —
/// never meets a sound/complete bar.
fn mode_satisfied(mode: ExplainMode, top: Option<&MatchStats>) -> bool {
    match (mode, top) {
        (ExplainMode::Fscore, _) => true,
        (_, None) => false,
        (ExplainMode::Sound, Some(s)) => s.neg_matched == 0,
        (ExplainMode::Complete, Some(s)) => s.pos_matched == s.pos_total,
    }
}

/// Appends the status footer of a run that did not complete — and the
/// tripped resource guard's detail, when one fired — and returns whether
/// it did (the run is then degraded, exit 2).
fn write_stop_footer(out: &mut String, termination: Termination, trip: Option<GuardTrip>) -> bool {
    if termination.is_complete() {
        return false;
    }
    let _ = writeln!(
        out,
        "-- search stopped early: {termination} (showing best results so far)"
    );
    if let Some(trip) = trip {
        let _ = writeln!(out, "-- resource guard tripped: {trip}");
    }
    true
}

/// Renders an [`ExplainReport`]: one ranked line per explanation, and —
/// only when the run did not complete — a trailing status line (plus the
/// tripped resource guard's detail, when one fired). In sound/complete
/// mode, a run whose best result misses the mode's perfection bar
/// additionally carries a best-approximation marker (QDEF degradation is
/// a reportable condition, not an error). Complete fscore runs keep the
/// historical line-per-explanation output byte for byte. Returns the
/// text and the exit code (`0` complete, `2` degraded/partial).
pub fn render_report_text(
    report: &ExplainReport,
    system: &ObdmSystem,
    guard_trip: Option<GuardTrip>,
    mode: ExplainMode,
) -> (String, i32) {
    let mut out = String::new();
    for e in &report.explanations {
        let _ = writeln!(
            out,
            "Z = {:.4}  [{}/{}+  {}-]  {}",
            e.score,
            e.stats.pos_matched,
            e.stats.pos_total,
            e.stats.neg_matched,
            e.render(system)
        );
    }
    let mut degraded = write_stop_footer(&mut out, report.termination, guard_trip);
    let top = report.explanations.first().map(|e| &e.stats);
    if !mode_satisfied(mode, top) {
        let detail = match (mode, top) {
            (ExplainMode::Sound, Some(s)) => {
                format!("best approximation hits {} λ⁻ tuple(s)", s.neg_matched)
            }
            (ExplainMode::Complete, Some(s)) => format!(
                "best approximation misses {} λ⁺ tuple(s)",
                s.pos_total - s.pos_matched
            ),
            _ => "no candidate survived the search".to_owned(),
        };
        let _ = writeln!(
            out,
            "-- no perfectly {} explanation within budget: {detail}",
            mode
        );
        degraded = true;
    }
    (out, if degraded { 2 } else { 0 })
}

/// Validates a scenario directory: best-effort load collecting every
/// syntax problem, then — if the files were at least readable — the
/// cross-artifact semantic checks (`OBX2xx`). Exit code 0 clean, 2
/// warnings only, 1 when any error was found (the diagnostics still go to
/// the output text). The single implementation behind `obx validate` and
/// the server's `/validate`: [`load_snapshot`] without its scenario.
pub fn validate_dir(dir: &Path) -> ServiceOutcome {
    load_snapshot(dir).0
}

/// Loads `dir` for long-lived serving: one checked load
/// ([`load_dir_checked`]), then [`validate_scenario`] on the scenario
/// that load assembled. Returns the [`validate_dir`] outcome and, when it
/// found no error, that same scenario — the directory is parsed once.
/// This is the admission rule behind every snapshot a server mounts: a
/// directory whose validation *errors* (exit 1) is not serveable, while
/// warning-only directories (exit 2) load fine and are reported as
/// degraded.
pub fn load_snapshot(dir: &Path) -> (ServiceOutcome, Option<LoadedScenario>) {
    let dir_label = dir.display();
    let mut checked = load_dir_checked(dir);
    if let Some(scenario) = &checked.scenario {
        validate_scenario(&scenario.system, &scenario.labels, &mut checked.diagnostics);
    }
    let mut out = String::new();
    for d in checked.diagnostics.iter() {
        let _ = writeln!(out, "{}", render_with_source(d, checked.source_of(&d.file)));
    }
    let errors = checked.diagnostics.error_count();
    let warnings = checked.diagnostics.warning_count();
    let exit_code = if errors == 0 && warnings == 0 {
        let _ = writeln!(out, "{dir_label}: ok — scenario is admissible");
        0
    } else {
        let _ = writeln!(
            out,
            "{dir_label}: {errors} error(s), {warnings} warning(s){}",
            if checked.scenario.is_none() {
                " — scenario could not be assembled"
            } else {
                ""
            }
        );
        if errors > 0 {
            1
        } else {
            2
        }
    };
    let outcome = ServiceOutcome {
        stdout: out,
        exit_code,
        report: None,
    };
    (outcome, checked.scenario.filter(|_| errors == 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_setup() -> (ObdmSystem, Labels) {
        let mut system = obx_obdm::example_3_6_system();
        let labels = Labels::parse(system.db_mut(), "+ A10\n+ B80\n+ C12\n+ D50\n- E25").unwrap();
        (system, labels)
    }

    #[test]
    fn default_request_matches_cli_defaults() {
        let r = ExplainRequest::default();
        assert_eq!(r.radius, 1);
        assert_eq!(r.strategy, "beam");
        assert_eq!(r.top, 5);
        assert_eq!(r.weights, (1.0, 1.0, 1.0));
    }

    #[test]
    fn run_explain_reproduces_the_paper_example() {
        let (system, labels) = paper_setup();
        let req = ExplainRequest {
            top: 3,
            ..ExplainRequest::default()
        };
        let out = run_explain(&system, &labels, &req, req.budget(&CancelToken::new())).unwrap();
        assert_eq!(out.exit_code, 0);
        assert!(out.stdout.contains("0.8333"), "{}", out.stdout);
        assert_eq!(out.stdout.lines().count(), 3);
        assert!(out.report.is_some());
    }

    #[test]
    fn sound_mode_finds_a_precision_perfect_explanation() {
        let (system, labels) = paper_setup();
        let req = ExplainRequest {
            mode: ExplainMode::Sound,
            top: 3,
            ..ExplainRequest::default()
        };
        let out = run_explain(&system, &labels, &req, req.budget(&CancelToken::new())).unwrap();
        assert_eq!(out.exit_code, 0, "{}", out.stdout);
        let report = out.report.unwrap();
        let top = &report.explanations[0];
        assert_eq!(top.stats.neg_matched, 0, "sound winner hits λ⁻");
        assert!(!out.stdout.contains("no perfectly"), "{}", out.stdout);
    }

    #[test]
    fn complete_mode_finds_a_recall_perfect_explanation() {
        let (system, labels) = paper_setup();
        let req = ExplainRequest {
            mode: ExplainMode::Complete,
            top: 3,
            ..ExplainRequest::default()
        };
        let out = run_explain(&system, &labels, &req, req.budget(&CancelToken::new())).unwrap();
        assert_eq!(out.exit_code, 0, "{}", out.stdout);
        let report = out.report.unwrap();
        let top = &report.explanations[0];
        assert_eq!(
            top.stats.pos_matched, top.stats.pos_total,
            "complete winner misses λ⁺"
        );
    }

    #[test]
    fn fscore_mode_is_byte_identical_to_the_default() {
        let (system, labels) = paper_setup();
        let implicit = ExplainRequest {
            top: 3,
            ..ExplainRequest::default()
        };
        let explicit = ExplainRequest {
            mode: ExplainMode::Fscore,
            ..implicit.clone()
        };
        let a = run_explain(
            &system,
            &labels,
            &implicit,
            implicit.budget(&CancelToken::new()),
        )
        .unwrap();
        let b = run_explain(
            &system,
            &labels,
            &explicit,
            explicit.budget(&CancelToken::new()),
        )
        .unwrap();
        assert_eq!(a.stdout, b.stdout);
        assert_eq!(a.exit_code, b.exit_code);
    }

    #[test]
    fn unmet_mode_bar_degrades_with_a_marker_not_an_error() {
        let (system, _) = paper_setup();
        // An empty report never meets a sound/complete bar...
        let empty = ExplainReport {
            explanations: vec![],
            termination: Termination::Complete,
            quarantined: 0,
            pruned: 0,
            profile: Default::default(),
        };
        let (text, code) = render_report_text(&empty, &system, None, ExplainMode::Sound);
        assert_eq!(code, 2);
        assert!(
            text.contains("no perfectly sound explanation within budget"),
            "{text}"
        );
        assert!(text.contains("no candidate survived"), "{text}");
        // ...but is a clean exit under fscore, which has no bar.
        let (text, code) = render_report_text(&empty, &system, None, ExplainMode::Fscore);
        assert_eq!(code, 0, "{text}");
    }

    #[test]
    fn a_cancelled_data_level_run_stops_with_the_footer_and_exit_2() {
        let (system, labels) = paper_setup();
        let req = ExplainRequest {
            strategy: "data-level".to_owned(),
            ..ExplainRequest::default()
        };
        let done = run_explain(&system, &labels, &req, req.budget(&CancelToken::new())).unwrap();
        assert_eq!(done.exit_code, 0, "{}", done.stdout);
        assert!(!done.stdout.contains("stopped early"), "{}", done.stdout);
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = run_explain(&system, &labels, &req, req.budget(&cancel)).unwrap();
        assert_eq!(out.exit_code, 2, "{}", out.stdout);
        assert!(
            out.stdout
                .ends_with("-- search stopped early: cancelled (showing best results so far)\n"),
            "{}",
            out.stdout
        );
    }

    #[test]
    fn unknown_strategy_is_rejected() {
        let (system, labels) = paper_setup();
        let req = ExplainRequest {
            strategy: "nope".to_owned(),
            ..ExplainRequest::default()
        };
        let err = run_explain(&system, &labels, &req, req.budget(&CancelToken::new())).unwrap_err();
        assert!(matches!(err, ServiceError::UnknownStrategy(_)), "{err}");
    }

    #[test]
    fn clamped_caps_every_dimension_without_raising_requests() {
        let r = ExplainRequest {
            timeout_ms: Some(50),
            max_evals: None,
            max_border: Some(10),
            ..ExplainRequest::default()
        };
        let c = r.clamped(Some(1000), Some(500), Some((100, 200, 300)));
        // A tighter request survives; unbounded dimensions get the ceiling.
        assert_eq!(c.timeout_ms, Some(50));
        assert_eq!(c.max_evals, Some(500));
        assert_eq!(c.max_rewrite, Some(100));
        assert_eq!(c.max_chase, Some(200));
        assert_eq!(c.max_border, Some(10));
        // And a looser request is clamped down.
        let loose = ExplainRequest {
            timeout_ms: Some(10_000),
            ..ExplainRequest::default()
        };
        assert_eq!(loose.clamped(Some(1000), None, None).timeout_ms, Some(1000));
    }

    #[test]
    fn load_snapshot_captures_validation_and_rejects_broken_dirs() {
        let dir = std::env::temp_dir().join(format!("obx-core-snapshot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Empty dir: nothing loadable.
        let (refused, none) = load_snapshot(&dir);
        assert_eq!(refused.exit_code, 1);
        assert!(refused.stdout.contains("OBX001"), "{}", refused.stdout);
        assert!(none.is_none());
        crate::scenario::write_paper_example(&dir).unwrap();
        let (validation, scenario) = load_snapshot(&dir);
        // The paper example validates warning-only (unused source relation).
        assert_eq!(validation.exit_code, 2);
        assert!(
            validation.stdout.contains("0 error(s)"),
            "{}",
            validation.stdout
        );
        assert_eq!(validation.stdout, validate_dir(&dir).stdout);
        assert_eq!(scenario.unwrap().system.db().len(), 13);
        // A semantic error (a label outside dom(D)) refuses the mount even
        // though the directory parses.
        std::fs::write(dir.join("labels.obx"), "+ A10\n- Ghost\n").unwrap();
        let (validation, scenario) = load_snapshot(&dir);
        assert_eq!(validation.exit_code, 1, "{}", validation.stdout);
        assert!(scenario.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn guarded_run_degrades_with_the_cli_footer() {
        let (system, labels) = paper_setup();
        let req = ExplainRequest {
            max_border: Some(1),
            top: 3,
            ..ExplainRequest::default()
        };
        let out = run_explain(&system, &labels, &req, req.budget(&CancelToken::new())).unwrap();
        assert_eq!(out.exit_code, 2, "{}", out.stdout);
        assert!(
            out.stdout.contains("search stopped early"),
            "{}",
            out.stdout
        );
        assert!(
            out.stdout.contains("resource guard tripped: border atoms"),
            "{}",
            out.stdout
        );
    }

    /// `run_explain_in` under a fresh token, profiled: the text and the
    /// slot outcome the profile recorded.
    fn run_in(
        system: &ObdmSystem,
        labels: &Labels,
        req: &ExplainRequest,
        slot: &PrepareSlot,
    ) -> (String, &'static str) {
        let rec = obx_util::obs::Recorder::new();
        let budget = req
            .budget(&CancelToken::new())
            .with_recorder(Arc::clone(&rec));
        let out = run_explain_in(system, labels, req, budget, slot).unwrap();
        let profile = rec.profile();
        let outcome = profile.span("explain/prepare/slot").map_or("off", |s| {
            ["hits", "misses", "bypassed"]
                .into_iter()
                .find(|k| s.counter(k) == 1)
                .unwrap_or("none")
        });
        (out.stdout, outcome)
    }

    #[test]
    fn a_slot_hit_is_byte_identical_to_a_fresh_prepare() {
        let (system, labels) = paper_setup();
        let slot = PrepareSlot::new();
        assert_eq!((slot.radius(), slot.bytes()), (None, 0));
        let obs = obx_util::obs::enabled();
        for (radius, want) in [(1, "misses"), (1, "hits"), (2, "misses"), (2, "hits")] {
            let req = ExplainRequest {
                radius,
                top: 3,
                ..ExplainRequest::default()
            };
            let fresh = run_explain(&system, &labels, &req, req.budget(&CancelToken::new()));
            let (text, outcome) = run_in(&system, &labels, &req, &slot);
            assert_eq!(text, fresh.unwrap().stdout, "radius {radius}, {want}");
            if obs {
                assert_eq!(outcome, want, "radius {radius}");
            }
            // One slot: the last complete prepare, whatever its radius.
            assert_eq!(slot.radius(), Some(radius));
            assert!(slot.bytes() > 0);
        }
    }

    #[test]
    fn cut_and_guarded_prepares_never_fill_the_slot() {
        let (system, labels) = paper_setup();
        let slot = PrepareSlot::new();
        // A cancelled request cuts every border at layer 0.
        let req = ExplainRequest::default();
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = run_explain_in(&system, &labels, &req, req.budget(&cancel), &slot).unwrap();
        assert_eq!(out.exit_code, 2, "{}", out.stdout);
        assert_eq!(slot.bytes(), 0, "a cut prepare is not stored");
        // A border-atom guard bypasses the slot both ways: it neither
        // fills an empty slot nor reads a warm one, and its text is the
        // fresh run's.
        let guarded = ExplainRequest {
            max_border: Some(3),
            top: 3,
            ..ExplainRequest::default()
        };
        let fresh = run_explain(
            &system,
            &labels,
            &guarded,
            guarded.budget(&CancelToken::new()),
        )
        .unwrap()
        .stdout;
        let (text, outcome) = run_in(&system, &labels, &guarded, &slot);
        assert_eq!(text, fresh);
        assert_eq!(slot.bytes(), 0, "a guarded prepare is not stored");
        run_in(&system, &labels, &ExplainRequest::default(), &slot);
        assert!(slot.bytes() > 0);
        let (text, warm_outcome) = run_in(&system, &labels, &guarded, &slot);
        assert_eq!(text, fresh, "a guarded request ignores a warm slot");
        if obx_util::obs::enabled() {
            assert_eq!((outcome, warm_outcome), ("bypassed", "bypassed"));
        }
    }
}

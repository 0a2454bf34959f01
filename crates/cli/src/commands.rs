//! Command dispatch. [`run`] is a pure function from arguments to output
//! text, so the whole CLI is testable without spawning processes.

use obx_core::budget::CancelToken;
use obx_core::explain::{ExplainTask, SearchLimits};
use obx_core::scenario::{load_dir, write_paper_example, LoadError, LoadedScenario};
use obx_core::score::{ExplainMode, Scoring};
use obx_core::service::{self, ExplainRequest, ServiceError};
use obx_srcdb::border_layers;
use obx_util::obs::Recorder;
use obx_util::PipelineProfile;
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// CLI failure, rendered to stderr by the binary. Each variant maps to a
/// process exit code via [`CliError::exit_code`] (degraded-but-successful
/// runs are *not* errors — see [`CliOutcome::exit_code`]).
#[derive(Debug)]
pub enum CliError {
    /// The command line itself was malformed (unknown command or option,
    /// missing value, wrong positional count).
    Usage(String),
    /// A scenario directory failed to load; the message names the file
    /// and the OBX code `obx validate` reports first.
    Load {
        /// The directory being loaded.
        dir: String,
        /// The first error in load order.
        source: LoadError,
    },
    /// User-supplied input (query text, constant, strategy name) was
    /// invalid against the loaded scenario.
    Input(String),
    /// The explanation machinery itself failed.
    Search(String),
}

impl CliError {
    /// The process exit code for this failure: `64` (BSD `EX_USAGE`) for
    /// malformed command lines, `1` for everything else. Exit code `2` is
    /// reserved for runs that *succeeded* with degraded/partial results.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 64,
            _ => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Load { dir, source } => write!(f, "loading {dir}: {source}"),
            CliError::Input(msg) => write!(f, "{msg}"),
            CliError::Search(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn input_err(msg: impl Into<String>) -> CliError {
    CliError::Input(msg.into())
}

fn search_err(msg: impl Into<String>) -> CliError {
    CliError::Search(msg.into())
}

/// A successful CLI run: the text for stdout plus the process exit code
/// (`0` = complete, `2` = the search ended early or degraded — partial,
/// best-so-far results were printed).
#[derive(Debug)]
pub struct CliOutcome {
    /// Text to print on stdout.
    pub stdout: String,
    /// Process exit code (0 complete, 2 degraded/partial).
    pub exit_code: i32,
}

impl CliOutcome {
    fn complete(stdout: String) -> Self {
        Self {
            stdout,
            exit_code: 0,
        }
    }
}

const USAGE: &str = "\
obx — ontology-based explanation of classifiers (EDBT 2020 reproduction)

USAGE:
  obx init <dir>                      write the paper's example scenario
  obx validate <dir>                  check a scenario: every syntax and
                                      semantic problem, with positions
  obx snapshot build <dir>            compile schema.obx + data.obx into a
                                      binary data snapshot (data.obxsnap)
                                      for fast million-atom loads
  obx explain <dir> [opts]            find best-describing queries (Def. 3.7)
  obx score <dir> \"<query>\" [opts]    Z-score one ontology query
  obx certain <dir> \"<query>\"         certain answers over the full database
  obx consistency <dir>               check the system's consistency
  obx border <dir> <consts> <radius>  show B_{t,r}(D) (consts comma-separated)
  obx evidence <dir> \"<query>\" <const> [opts]
                                      why does the query J-match the tuple?
  obx serve [<dir>] [opts]            run the always-on explanation service
                                      (epoch snapshots, POST /explain,
                                      /validate, /reload; SIGINT/SIGTERM
                                      drains gracefully). <dir> mounts as
                                      scenario `default`; --mount adds
                                      more tenants to the same process

OPTIONS:
  --radius N          border radius r (default 1)
  --strategy NAME     beam | bottom-up | exhaustive | greedy | data-level
  --mode NAME         (explain) search objective: fscore (default, the
                      paper's Z-score) | sound (best explanation with
                      zero λ⁻ hits, then recall, then size) | complete
                      (best explanation covering all of λ⁺, then
                      precision, then size). When no perfect candidate
                      exists within budget, the best approximation is
                      printed with a marker and the exit code is 2
  --weights A,B,G     paper Z weights for δ1, δ4, δ5 (default 1,1,1)
  --top K             how many explanations to print (default 5)
  --max-atoms N       cap atoms per candidate body (default 3); small
                      caps shrink the space and arm bound pruning
  --beam-width N      candidates kept per search round (default 24)
  --timeout-ms N      wall-clock budget; on expiry the best-so-far
                      explanations are printed and the exit code is 2
  --max-evals N       cap on J-match evaluator calls (anytime, like
                      --timeout-ms)
  --max-rewrite N     resource guard: cap cumulative rewrite disjuncts
  --max-chase N       resource guard: cap cumulative chase facts
  --max-border N      resource guard: cap cumulative border atoms
                      (guards degrade the run to best-so-far, exit code 2)
  --profile[=FMT]     (explain) append a pipeline profile: per-phase wall
                      times and kernel counters. FMT is `tree` (default)
                      or `json`. Profiling never changes the results;
                      OBX_OBS=0 disables recording and yields an empty
                      profile

SERVE OPTIONS:
  --port N                listen port on 127.0.0.1 (default 0 = pick free)
  --max-inflight N        concurrent executing requests (default 4)
  --queue-depth N         waiting requests before load is shed (default 16)
  --request-timeout-ms N  server-side wall-clock ceiling per request;
                          requests may ask for less, never more
  --mount NAME=DIR        mount DIR as scenario NAME (repeatable); wire
                          requests route with a `scenario` field
  --journal PATH          crash-safe mount registry: runtime mounts are
                          journaled here and replayed after a restart
                          (rotten ones come back quarantined, not fatal)
  --tenant-max-inflight N bulkhead: concurrent requests per tenant
                          (default: the global --max-inflight)
  --tenant-queue-depth N  bulkhead: queued requests per tenant
                          (default: the global --queue-depth)
  --breaker-threshold N   consecutive panics/ceiling-timeouts before a
                          tenant's circuit breaker opens (default 5)
  --breaker-open-ms N     how long a tripped breaker sheds before a
                          half-open probe (default 2000)

Ctrl-C cancels a running search gracefully: best-so-far results are
printed, exit code 2. Exit codes: 0 complete, 1 error, 2 partial/degraded
results, 64 usage.

Queries use the paper-style syntax: q(x) :- studies(x, \"Math\")";

/// Output format of `--profile`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProfileFormat {
    /// Indented span tree (human-oriented, the default).
    Tree,
    /// Single-line JSON (machine-oriented; what the bench bins embed).
    Json,
}

struct Opts {
    radius: usize,
    strategy: String,
    mode: ExplainMode,
    weights: (f64, f64, f64),
    top: usize,
    timeout_ms: Option<u64>,
    max_evals: Option<u64>,
    max_rewrite: Option<usize>,
    max_chase: Option<usize>,
    max_border: Option<usize>,
    max_atoms: Option<usize>,
    beam_width: Option<usize>,
    profile: Option<ProfileFormat>,
    // `obx serve` knobs.
    port: Option<u16>,
    max_inflight: Option<usize>,
    queue_depth: Option<usize>,
    request_timeout_ms: Option<u64>,
    mounts: Vec<(String, String)>,
    journal: Option<String>,
    tenant_max_inflight: Option<usize>,
    tenant_queue_depth: Option<usize>,
    breaker_threshold: Option<u32>,
    breaker_open_ms: Option<u64>,
}

fn parse_opts(args: &[String]) -> Result<(Vec<String>, Opts), CliError> {
    let mut opts = Opts {
        radius: 1,
        strategy: "beam".to_owned(),
        mode: ExplainMode::Fscore,
        weights: (1.0, 1.0, 1.0),
        top: 5,
        timeout_ms: None,
        max_evals: None,
        max_rewrite: None,
        max_chase: None,
        max_border: None,
        max_atoms: None,
        beam_width: None,
        profile: None,
        port: None,
        max_inflight: None,
        queue_depth: None,
        request_timeout_ms: None,
        mounts: Vec::new(),
        journal: None,
        tenant_max_inflight: None,
        tenant_queue_depth: None,
        breaker_threshold: None,
        breaker_open_ms: None,
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| usage_err(format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--radius" => {
                opts.radius = next("--radius")?
                    .parse()
                    .map_err(|_| usage_err("--radius must be a number"))?;
            }
            "--strategy" => {
                opts.strategy = next("--strategy")?.clone();
            }
            "--mode" => {
                opts.mode = next("--mode")?
                    .parse()
                    .map_err(|e: String| usage_err(format!("--mode: {e}")))?;
            }
            "--top" => {
                opts.top = next("--top")?
                    .parse()
                    .map_err(|_| usage_err("--top must be a number"))?;
            }
            "--timeout-ms" => {
                opts.timeout_ms = Some(
                    next("--timeout-ms")?
                        .parse()
                        .map_err(|_| usage_err("--timeout-ms must be a number"))?,
                );
            }
            "--max-evals" => {
                opts.max_evals = Some(
                    next("--max-evals")?
                        .parse()
                        .map_err(|_| usage_err("--max-evals must be a number"))?,
                );
            }
            "--max-rewrite" => {
                opts.max_rewrite = Some(
                    next("--max-rewrite")?
                        .parse()
                        .map_err(|_| usage_err("--max-rewrite must be a number"))?,
                );
            }
            "--max-chase" => {
                opts.max_chase = Some(
                    next("--max-chase")?
                        .parse()
                        .map_err(|_| usage_err("--max-chase must be a number"))?,
                );
            }
            "--max-border" => {
                opts.max_border = Some(
                    next("--max-border")?
                        .parse()
                        .map_err(|_| usage_err("--max-border must be a number"))?,
                );
            }
            "--max-atoms" => {
                opts.max_atoms = Some(
                    next("--max-atoms")?
                        .parse()
                        .map_err(|_| usage_err("--max-atoms must be a number"))?,
                );
            }
            "--beam-width" => {
                opts.beam_width = Some(
                    next("--beam-width")?
                        .parse()
                        .map_err(|_| usage_err("--beam-width must be a number"))?,
                );
            }
            "--port" => {
                opts.port = Some(
                    next("--port")?
                        .parse()
                        .map_err(|_| usage_err("--port must be a port number"))?,
                );
            }
            "--max-inflight" => {
                opts.max_inflight = Some(
                    next("--max-inflight")?
                        .parse()
                        .map_err(|_| usage_err("--max-inflight must be a number"))?,
                );
            }
            "--queue-depth" => {
                opts.queue_depth = Some(
                    next("--queue-depth")?
                        .parse()
                        .map_err(|_| usage_err("--queue-depth must be a number"))?,
                );
            }
            "--request-timeout-ms" => {
                opts.request_timeout_ms = Some(
                    next("--request-timeout-ms")?
                        .parse()
                        .map_err(|_| usage_err("--request-timeout-ms must be a number"))?,
                );
            }
            "--mount" => {
                let raw = next("--mount")?;
                let Some((name, dir)) = raw.split_once('=') else {
                    return Err(usage_err("--mount must be NAME=DIR"));
                };
                if name.is_empty() || dir.is_empty() {
                    return Err(usage_err("--mount must be NAME=DIR"));
                }
                opts.mounts.push((name.to_owned(), dir.to_owned()));
            }
            "--journal" => {
                opts.journal = Some(next("--journal")?.clone());
            }
            "--tenant-max-inflight" => {
                opts.tenant_max_inflight = Some(
                    next("--tenant-max-inflight")?
                        .parse()
                        .map_err(|_| usage_err("--tenant-max-inflight must be a number"))?,
                );
            }
            "--tenant-queue-depth" => {
                opts.tenant_queue_depth = Some(
                    next("--tenant-queue-depth")?
                        .parse()
                        .map_err(|_| usage_err("--tenant-queue-depth must be a number"))?,
                );
            }
            "--breaker-threshold" => {
                opts.breaker_threshold = Some(
                    next("--breaker-threshold")?
                        .parse()
                        .map_err(|_| usage_err("--breaker-threshold must be a number"))?,
                );
            }
            "--breaker-open-ms" => {
                opts.breaker_open_ms = Some(
                    next("--breaker-open-ms")?
                        .parse()
                        .map_err(|_| usage_err("--breaker-open-ms must be a number"))?,
                );
            }
            "--weights" => {
                let raw = next("--weights")?;
                let parts: Vec<f64> = raw
                    .split(',')
                    .map(|p| p.trim().parse())
                    .collect::<Result<_, _>>()
                    .map_err(|_| usage_err("--weights must be A,B,G"))?;
                if parts.len() != 3 {
                    return Err(usage_err("--weights must have three values"));
                }
                opts.weights = (parts[0], parts[1], parts[2]);
            }
            "--profile" => {
                opts.profile = Some(ProfileFormat::Tree);
            }
            other if other.starts_with("--profile=") => {
                opts.profile = Some(match &other["--profile=".len()..] {
                    "tree" => ProfileFormat::Tree,
                    "json" => ProfileFormat::Json,
                    v => {
                        return Err(usage_err(format!(
                            "--profile must be `tree` or `json`, got `{v}`"
                        )))
                    }
                });
            }
            other if other.starts_with("--") => {
                return Err(usage_err(format!("unknown option `{other}`")));
            }
            other => positional.push(other.to_owned()),
        }
    }
    Ok((positional, opts))
}

/// The front-end-agnostic [`ExplainRequest`] these options describe; the
/// shared service layer derives the scoring and search budget from it.
fn request_of(opts: &Opts) -> ExplainRequest {
    ExplainRequest {
        radius: opts.radius,
        strategy: opts.strategy.clone(),
        mode: opts.mode,
        weights: opts.weights,
        top: opts.top,
        max_atoms: opts.max_atoms,
        beam_width: opts.beam_width,
        timeout_ms: opts.timeout_ms,
        max_evals: opts.max_evals,
        max_rewrite: opts.max_rewrite,
        max_chase: opts.max_chase,
        max_border: opts.max_border,
    }
}

/// Runs one CLI invocation; returns the text to print on stdout. This is
/// the compatibility wrapper over [`run_cancellable`] with a fresh (never
/// fired) cancellation token, dropping the exit-code detail.
pub fn run(args: &[String]) -> Result<String, CliError> {
    run_cancellable(args, &CancelToken::new()).map(|o| o.stdout)
}

/// Runs one CLI invocation under a caller-owned [`CancelToken`] (the
/// binary bridges SIGINT onto it). Long-running searches honour the token
/// plus any `--timeout-ms` / `--max-evals` budget and return best-so-far
/// results with [`CliOutcome::exit_code`] = 2 instead of failing.
pub fn run_cancellable(args: &[String], cancel: &CancelToken) -> Result<CliOutcome, CliError> {
    let Some(command) = args.first() else {
        return Ok(CliOutcome::complete(USAGE.to_owned()));
    };
    let (pos, opts) = parse_opts(&args[1..])?;
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(CliOutcome::complete(USAGE.to_owned())),
        "init" => {
            let dir = pos
                .first()
                .ok_or_else(|| usage_err("init needs a directory"))?;
            write_paper_example(Path::new(dir)).map_err(|e| search_err(format!("init: {e}")))?;
            Ok(CliOutcome::complete(format!(
                "wrote the paper's Example 3.6 scenario to {dir}"
            )))
        }
        "validate" => {
            let dir = pos
                .first()
                .ok_or_else(|| usage_err("validate needs a directory"))?;
            Ok(validate(dir))
        }
        "snapshot" => {
            let [sub, dir] = two(&pos, "snapshot build <dir>")?;
            if sub != "build" {
                return Err(usage_err(format!(
                    "unknown snapshot subcommand `{sub}` (expected `build`)"
                )));
            }
            let (atoms, consts, bytes) = obx_core::scenario::build_snapshot(Path::new(dir))
                .map_err(|source| CliError::Load {
                    dir: dir.to_owned(),
                    source,
                })?;
            Ok(CliOutcome::complete(format!(
                "wrote {}/{}: {atoms} atoms, {consts} constants, {bytes} bytes\n\
                 subsequent loads of {dir} use the snapshot while schema.obx \
                 and data.obx are unchanged",
                dir,
                obx_core::scenario::SNAPSHOT_FILE,
            )))
        }
        "explain" => {
            let dir = pos
                .first()
                .ok_or_else(|| usage_err("explain needs a directory"))?;
            let loaded = load(dir)?;
            explain(&loaded, &opts, cancel)
        }
        "serve" => {
            if pos.is_empty() && opts.mounts.is_empty() && opts.journal.is_none() {
                return Err(usage_err(
                    "serve needs a directory, at least one --mount NAME=DIR, or a --journal",
                ));
            }
            serve(pos.first().map(String::as_str), &opts, cancel)
        }
        "score" => {
            let [dir, query] = two(&pos, "score <dir> \"<query>\"")?;
            let mut loaded = load(dir)?;
            let ucq = parse_query(&mut loaded, query)?;
            let scoring = scoring_of(&opts);
            let task = task_of(&loaded, &scoring, &opts, cancel, None)?;
            let e = task
                .score_ucq(&ucq)
                .map_err(|e| search_err(format!("score: {e}")))?;
            let mut out = String::new();
            let _ = writeln!(out, "query:   {}", e.render(&loaded.system));
            let _ = writeln!(out, "Z-score: {:.4}", e.score);
            let _ = writeln!(
                out,
                "matches: {}/{} of λ⁺, {}/{} of λ⁻",
                e.stats.pos_matched, e.stats.pos_total, e.stats.neg_matched, e.stats.neg_total
            );
            let _ = writeln!(out, "criteria (δ1, δ4, δ5): {:?}", e.criterion_values);
            Ok(CliOutcome::complete(out))
        }
        "certain" => {
            let [dir, query] = two(&pos, "certain <dir> \"<query>\"")?;
            let mut loaded = load(dir)?;
            let ucq = parse_query(&mut loaded, query)?;
            let answers = loaded
                .system
                .certain_answers(&ucq)
                .map_err(|e| search_err(format!("certain: {e}")))?;
            let mut names: Vec<String> = answers
                .iter()
                .map(|t| loaded.system.db().consts().render_tuple(t))
                .collect();
            names.sort();
            Ok(CliOutcome::complete(format!(
                "{} certain answer(s)\n{}\n",
                names.len(),
                names.join("\n")
            )))
        }
        "consistency" => {
            let dir = pos
                .first()
                .ok_or_else(|| usage_err("consistency needs a directory"))?;
            let loaded = load(dir)?;
            let violations = loaded.system.check_consistency();
            if violations.is_empty() {
                Ok(CliOutcome::complete("consistent".to_owned()))
            } else {
                Ok(CliOutcome::complete(format!(
                    "INCONSISTENT: {} violation(s)\n{violations:#?}",
                    violations.len()
                )))
            }
        }
        "border" => {
            let [dir, consts, radius] = three(&pos, "border <dir> <consts> <radius>")?;
            let loaded = load(dir)?;
            let radius: usize = radius
                .parse()
                .map_err(|_| usage_err("radius must be a number"))?;
            let tuple: Vec<obx_srcdb::Const> = consts
                .split(',')
                .map(|c| {
                    loaded
                        .system
                        .db()
                        .consts()
                        .get(c.trim())
                        .ok_or_else(|| input_err(format!("unknown constant `{}`", c.trim())))
                })
                .collect::<Result<_, _>>()?;
            let db = loaded.system.db();
            let layers = border_layers(db, &tuple, radius);
            let mut out = String::new();
            for (j, layer) in layers.iter().enumerate() {
                let mut atoms: Vec<String> = layer
                    .iter()
                    .map(|id| db.atom(id).render(db.schema(), db.consts()))
                    .collect();
                atoms.sort();
                let _ = writeln!(out, "W_{j}: {{{}}}", atoms.join(", "));
            }
            let size: usize = layers.iter().map(|layer| layer.len()).sum();
            let _ = writeln!(out, "B_t,{radius}: {size} atom(s)");
            Ok(CliOutcome::complete(out))
        }
        "evidence" => {
            let [dir, query, constant] = three(&pos, "evidence <dir> \"<query>\" <const>")?;
            let mut loaded = load(dir)?;
            let ucq = parse_query(&mut loaded, query)?;
            let c = loaded
                .system
                .db()
                .consts()
                .get(constant)
                .ok_or_else(|| input_err(format!("unknown constant `{constant}`")))?;
            let scoring = scoring_of(&opts);
            let task = task_of(&loaded, &scoring, &opts, cancel, None)?;
            match task
                .evidence(&ucq, &[c])
                .map_err(|e| search_err(format!("evidence: {e}")))?
            {
                Some(atoms) => Ok(CliOutcome::complete(format!(
                    "{constant} J-matches; grounded by:\n  {}",
                    atoms.join("\n  ")
                ))),
                None => Ok(CliOutcome::complete(format!(
                    "{constant} does not J-match the query within radius {} (or is unlabelled)",
                    opts.radius
                ))),
            }
        }
        other => Err(usage_err(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
}

fn load(dir: &str) -> Result<LoadedScenario, CliError> {
    load_dir(Path::new(dir)).map_err(|source| CliError::Load {
        dir: dir.to_owned(),
        source,
    })
}

/// `obx validate <dir>`: delegates to the shared
/// [`service::validate_dir`] implementation (also behind the server's
/// `/validate` endpoint), so both front ends emit identical diagnostics.
fn validate(dir: &str) -> CliOutcome {
    let outcome = service::validate_dir(Path::new(dir));
    CliOutcome {
        stdout: outcome.stdout,
        exit_code: outcome.exit_code,
    }
}

fn parse_query(loaded: &mut LoadedScenario, text: &str) -> Result<obx_query::OntoUcq, CliError> {
    loaded
        .system
        .parse_query(text)
        .map_err(|e| input_err(format!("query: {e}")))
}

fn scoring_of(opts: &Opts) -> Scoring {
    Scoring::paper_weighted(opts.weights.0, opts.weights.1, opts.weights.2)
}

fn task_of<'a>(
    loaded: &'a LoadedScenario,
    scoring: &'a Scoring,
    opts: &Opts,
    cancel: &CancelToken,
    recorder: Option<&Arc<Recorder>>,
) -> Result<ExplainTask<'a>, CliError> {
    let limits = SearchLimits {
        top_k: opts.top,
        ..SearchLimits::default()
    };
    let mut budget = request_of(opts).budget(cancel);
    if let Some(rec) = recorder {
        budget = budget.with_recorder(Arc::clone(rec));
    }
    ExplainTask::new_with_budget(
        &loaded.system,
        &loaded.labels,
        opts.radius,
        scoring,
        limits,
        budget,
    )
    .map_err(|e| search_err(format!("task: {e}")))
}

fn explain(
    loaded: &LoadedScenario,
    opts: &Opts,
    cancel: &CancelToken,
) -> Result<CliOutcome, CliError> {
    // The actual run — prepare (border BFS inside task construction) then
    // search — lives in the shared service layer, so `obx explain` and
    // `obx serve` produce byte-identical output for the same request.
    // `--profile` attaches a recorder to the budget; it rides down into
    // every kernel via the task's interrupt, and the service phases the
    // run (`explain/prepare`, `explain/search`) so phase wall times sum
    // to the run's total.
    let recorder = opts.profile.map(|_| Recorder::new());
    let req = request_of(opts);
    let mut budget = req.budget(cancel);
    if let Some(rec) = &recorder {
        budget = budget.with_recorder(Arc::clone(rec));
    }
    // Same cancel/deadline/guard/recorder wiring the task will carry —
    // built up front because the budget moves into the service call.
    let audit_interrupt = recorder.as_ref().map(|_| budget.interrupt());
    let outer = recorder.as_ref().map(|r| r.enter("explain"));
    let outcome = service::run_explain(&loaded.system, &loaded.labels, &req, budget).map_err(
        |e| match e {
            ServiceError::UnknownStrategy(s) => usage_err(format!("unknown strategy `{s}`")),
            ServiceError::Task(msg) => search_err(format!("task: {msg}")),
            ServiceError::Search(msg) => search_err(format!("explain: {msg}")),
        },
    )?;
    // Audit (profiling only): run the top explanation through the
    // materialization engine — virtual ABox + chase — as an independent
    // oracle. Never on the non-profiled path: the chase is deliberately
    // not part of explain's hot loop.
    if let (Some(rec), Some(report)) = (&recorder, &outcome.report) {
        let _audit = rec.enter_phase("explain/audit");
        if let (Some(best), Some(interrupt)) = (report.explanations.first(), &audit_interrupt) {
            let _ = loaded.system.certain_answers_materialized_interruptible(
                &best.query,
                obx_srcdb::View::full(loaded.system.db()),
                obx_obdm::ChaseConfig::for_ucq(&best.query),
                interrupt,
            );
        }
    }
    drop(outer);
    let mut out = CliOutcome {
        stdout: outcome.stdout,
        exit_code: outcome.exit_code,
    };
    if let Some(fmt) = opts.profile {
        // Snapshot after the audit phase so it is included (the report's
        // own `profile` field was frozen at the end of the search).
        append_profile(
            &mut out.stdout,
            &recorder.as_ref().map(|r| r.profile()).unwrap_or_default(),
            fmt,
        );
    }
    Ok(out)
}

/// `obx serve <dir>`: boots the always-on explanation server and blocks
/// until the shared signal handler fires (SIGINT/SIGTERM), then drains
/// gracefully — stop accepting, shed queued work, let in-flight requests
/// finish inside the grace window, cancel stragglers. The one command
/// that prints while running (the listening line goes to stderr so
/// stdout stays reserved for the final summary).
fn serve(dir: Option<&str>, opts: &Opts, cancel: &CancelToken) -> Result<CliOutcome, CliError> {
    let mut config = obx_serve::ServeConfig {
        bind: format!("127.0.0.1:{}", opts.port.unwrap_or(0)),
        ..obx_serve::ServeConfig::default()
    };
    if let Some(n) = opts.max_inflight {
        config.max_inflight = n;
    }
    if let Some(n) = opts.queue_depth {
        config.queue_depth = n;
    }
    if let Some(ms) = opts.request_timeout_ms {
        config.request_timeout_ms = Some(ms);
    }
    config.tenant_max_inflight = opts.tenant_max_inflight;
    config.tenant_queue_depth = opts.tenant_queue_depth;
    if let Some(n) = opts.breaker_threshold {
        config.breaker_threshold = n;
    }
    if let Some(ms) = opts.breaker_open_ms {
        config.breaker_open_ms = ms;
    }
    // A bare <dir> is the single-tenant spelling: mounted as `default`.
    let mut mounts: Vec<(String, std::path::PathBuf)> = Vec::new();
    if let Some(dir) = dir {
        mounts.push(("default".to_owned(), std::path::PathBuf::from(dir)));
    }
    for (name, dir) in &opts.mounts {
        mounts.push((name.clone(), std::path::PathBuf::from(dir)));
    }
    let journal = opts.journal.as_ref().map(std::path::PathBuf::from);
    let server = obx_serve::start_multi(mounts, journal, config).map_err(input_err)?;
    let mounted: Vec<String> = server
        .tenants()
        .list()
        .iter()
        .map(|t| format!("{} (epoch {}, {})", t.name(), t.epoch_id(), t.status()))
        .collect();
    eprintln!(
        "obx serve: listening on http://{} — {} scenario(s): {} (Ctrl-C drains)",
        server.addr(),
        mounted.len(),
        mounted.join(", ")
    );
    // Block until the shared handler bridges a signal onto the token.
    // Polling (rather than parking on a condvar) keeps the loop signal-
    // safe and costs nothing at this cadence.
    while !cancel.is_cancelled() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let final_epoch = server.epoch();
    server.shutdown();
    Ok(CliOutcome::complete(format!(
        "serve: drained cleanly (final epoch {final_epoch})"
    )))
}

/// Appends a [`PipelineProfile`] to the command output in the requested
/// format: a `-- profile --` header plus the indented span tree, or one
/// line of JSON.
fn append_profile(out: &mut String, profile: &PipelineProfile, fmt: ProfileFormat) {
    match fmt {
        ProfileFormat::Json => {
            let _ = writeln!(out, "{}", profile.to_json());
        }
        ProfileFormat::Tree => {
            let _ = writeln!(out, "-- profile --");
            out.push_str(&profile.render_tree());
        }
    }
}

fn two<'a>(pos: &'a [String], usage: &str) -> Result<[&'a str; 2], CliError> {
    match pos {
        [a, b] => Ok([a, b]),
        _ => Err(usage_err(format!("usage: obx {usage}"))),
    }
}

fn three<'a>(pos: &'a [String], usage: &str) -> Result<[&'a str; 3], CliError> {
    match pos {
        [a, b, c] => Ok([a, b, c]),
        _ => Err(usage_err(format!("usage: obx {usage}"))),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn with_scenario(tag: &str, f: impl FnOnce(&str)) {
        let dir = std::env::temp_dir().join(format!("obx-cmd-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_paper_example(&dir).unwrap();
        f(dir.to_str().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_args_prints_usage() {
        let out = run(&[]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors_with_usage() {
        let e = run(&args(&["frobnicate"])).unwrap_err();
        assert!(e.to_string().contains("unknown command"));
    }

    #[test]
    fn score_reproduces_example_3_8() {
        with_scenario("score", |dir| {
            let out = run(&args(&["score", dir, r#"q(x) :- likes(x, "Science")"#])).unwrap();
            assert!(out.contains("0.8333"), "{out}");
            assert!(out.contains("2/4 of λ⁺"), "{out}");
        });
    }

    #[test]
    fn certain_answers_command() {
        with_scenario("certain", |dir| {
            let out = run(&args(&["certain", dir, r#"q(x) :- studies(x, "Math")"#])).unwrap();
            assert!(out.starts_with("3 certain answer(s)"), "{out}");
            assert!(out.contains("<E25>"), "{out}");
        });
    }

    #[test]
    fn border_command_matches_example() {
        with_scenario("border", |dir| {
            let out = run(&args(&["border", dir, "A10", "1"])).unwrap();
            assert!(out.contains("STUD(A10)"), "{out}");
            assert!(out.contains("LOC(TV, Rome)"), "{out}");
        });
    }

    /// The full `obx border` output on the paper scenario at every radius
    /// until the border saturates (the whole component of `A10` is reached
    /// at radius 3).
    #[test]
    fn border_command_output_is_pinned() {
        const W0: &str = "W_0: {ENR(A10, Math, TV), STUD(A10)}\n";
        const W1: &str = "W_1: {ENR(B80, Math, Sap), ENR(D50, Science, TV), \
                          ENR(E25, Math, Pol), LOC(TV, Rome)}\n";
        const W2: &str = "W_2: {ENR(C12, Science, Norm), LOC(Pol, Milan), \
                          LOC(Sap, Rome), STUD(B80), STUD(D50), STUD(E25)}\n";
        const W3: &str = "W_3: {STUD(C12)}\n";
        let want = [
            format!("{W0}B_t,0: 2 atom(s)\n"),
            format!("{W0}{W1}B_t,1: 6 atom(s)\n"),
            format!("{W0}{W1}{W2}B_t,2: 12 atom(s)\n"),
            format!("{W0}{W1}{W2}{W3}B_t,3: 13 atom(s)\n"),
        ];
        with_scenario("border-golden", |dir| {
            for (r, want) in want.iter().enumerate() {
                let out = run(&args(&["border", dir, "A10", &r.to_string()])).unwrap();
                assert_eq!(&out, want, "radius {r}");
            }
        });
    }

    #[test]
    fn snapshot_build_then_explain_is_byte_identical_to_text() {
        with_scenario("snapbuild", |dir| {
            let text_out = run(&args(&["explain", dir, "--top", "3"])).unwrap();
            let built = run(&args(&["snapshot", "build", dir])).unwrap();
            assert!(built.contains("13 atoms"), "{built}");
            assert!(Path::new(dir).join("data.obxsnap").exists());
            let snap_out = run(&args(&["explain", dir, "--top", "3"])).unwrap();
            assert_eq!(snap_out, text_out);
        });
        assert!(run(&args(&["snapshot", "rebuild", "x"])).is_err());
        assert!(run(&args(&["snapshot", "build"])).is_err());
    }

    #[test]
    fn explain_finds_a_good_query() {
        with_scenario("explain", |dir| {
            let out = run(&args(&["explain", dir, "--top", "3"])).unwrap();
            assert!(out.contains("0.8333"), "{out}");
            let lines: Vec<&str> = out.lines().collect();
            assert_eq!(lines.len(), 3);
        });
    }

    #[test]
    fn explain_with_weights_finds_the_true_z2_optimum() {
        with_scenario("weights", |dir| {
            // Under the paper's Z2 (α = 3), Example 3.8 crowns q1 (0.716) —
            // but only among its three candidates. The unrestricted search
            // finds `studies(x, y)`: coverage 4/4 and one atom give
            // (3·1 + 1·0 + 1·1)/5 = 0.8 > 0.716. See EXPERIMENTS.md.
            let out = run(&args(&["explain", dir, "--weights", "3,1,1", "--top", "1"])).unwrap();
            assert!(out.contains("Z = 0.8000"), "{out}");
            assert!(out.contains("[4/4+"), "{out}");
        });
    }

    #[test]
    fn explain_mode_fscore_is_byte_identical_to_the_default() {
        with_scenario("mode-fscore", |dir| {
            let default = run(&args(&["explain", dir, "--top", "3"])).unwrap();
            let fscore = run(&args(&["explain", dir, "--mode", "fscore", "--top", "3"])).unwrap();
            assert_eq!(default, fscore);
        });
    }

    #[test]
    fn explain_mode_sound_returns_a_clean_query() {
        with_scenario("mode-sound", |dir| {
            let out = run_cancellable(
                &args(&["explain", dir, "--mode", "sound", "--top", "1"]),
                &CancelToken::new(),
            )
            .unwrap();
            assert_eq!(out.exit_code, 0, "{}", out.stdout);
            // The ranked line reports λ⁻ hits as "N-": sound means 0.
            assert!(out.stdout.contains("  0-]"), "{}", out.stdout);
        });
    }

    #[test]
    fn explain_mode_complete_covers_every_positive() {
        with_scenario("mode-complete", |dir| {
            let out = run_cancellable(
                &args(&["explain", dir, "--mode", "complete", "--top", "1"]),
                &CancelToken::new(),
            )
            .unwrap();
            assert_eq!(out.exit_code, 0, "{}", out.stdout);
            assert!(out.stdout.contains("[4/4+"), "{}", out.stdout);
        });
    }

    #[test]
    fn bad_mode_is_a_usage_error() {
        let e = run(&args(&["explain", "x", "--mode", "perfect"])).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)), "{e}");
        assert!(e.to_string().contains("unknown mode"), "{e}");
    }

    #[test]
    fn evidence_command_grounds_a_match() {
        with_scenario("evidence", |dir| {
            let out = run(&args(&[
                "evidence",
                dir,
                r#"q(x) :- studies(x, y), taughtIn(y, z), locatedIn(z, "Rome")"#,
                "A10",
            ]))
            .unwrap();
            assert!(out.contains("grounded by"), "{out}");
            assert!(out.contains("LOC(TV, Rome)"), "{out}");
            let out2 = run(&args(&[
                "evidence",
                dir,
                r#"q(x) :- studies(x, y), taughtIn(y, z), locatedIn(z, "Rome")"#,
                "E25",
            ]))
            .unwrap();
            assert!(out2.contains("does not J-match"), "{out2}");
        });
    }

    #[test]
    fn consistency_command() {
        with_scenario("consistency", |dir| {
            let out = run(&args(&["consistency", dir])).unwrap();
            assert_eq!(out, "consistent");
        });
    }

    #[test]
    fn data_level_strategy_is_reachable() {
        with_scenario("datalevel", |dir| {
            let out = run(&args(&[
                "explain",
                dir,
                "--strategy",
                "data-level",
                "--top",
                "2",
            ]))
            .unwrap();
            assert!(
                out.contains("ENR") || out.contains("STUD") || out.contains("LOC"),
                "{out}"
            );
        });
    }

    #[test]
    fn validate_paper_example_reports_its_unused_relation() {
        // The shipped example's mapping never reads STUD — validate finds
        // exactly that warning and exits 2.
        with_scenario("validate-ok", |dir| {
            let out = run_cancellable(&args(&["validate", dir]), &CancelToken::new()).unwrap();
            assert_eq!(out.exit_code, 2, "{}", out.stdout);
            assert!(out.stdout.contains("OBX203"), "{}", out.stdout);
            assert!(out.stdout.contains("STUD"), "{}", out.stdout);
            assert!(
                out.stdout.contains("0 error(s), 1 warning(s)"),
                "{}",
                out.stdout
            );
        });
    }

    #[test]
    fn validate_broken_scenario_collects_every_problem() {
        with_scenario("validate-bad", |dir| {
            let d = Path::new(dir);
            std::fs::write(d.join("ontology.obx"), "role studies\nstudies << likes\n").unwrap();
            std::fs::write(d.join("labels.obx"), "+ A10\n? B80\n").unwrap();
            let out = run_cancellable(&args(&["validate", dir]), &CancelToken::new()).unwrap();
            assert_eq!(out.exit_code, 1, "{}", out.stdout);
            // Problems from *both* files, each positioned, with a caret
            // pointing into the offending source line.
            assert!(out.stdout.contains("ontology.obx:2"), "{}", out.stdout);
            assert!(out.stdout.contains("labels.obx:2"), "{}", out.stdout);
            assert!(out.stdout.contains('^'), "{}", out.stdout);
        });
    }

    #[test]
    fn validate_missing_directory_reports_every_file() {
        let out = run_cancellable(
            &args(&["validate", "/nonexistent/obx-scenario"]),
            &CancelToken::new(),
        )
        .unwrap();
        assert_eq!(out.exit_code, 1, "{}", out.stdout);
        assert_eq!(out.stdout.matches("OBX001").count(), 5, "{}", out.stdout);
        assert!(
            out.stdout.contains("could not be assembled"),
            "{}",
            out.stdout
        );
    }

    #[test]
    fn guarded_explain_degrades_to_best_so_far() {
        with_scenario("guard", |dir| {
            let out = run_cancellable(
                &args(&["explain", dir, "--max-border", "1", "--top", "3"]),
                &CancelToken::new(),
            )
            .unwrap();
            assert_eq!(out.exit_code, 2, "{}", out.stdout);
            // Best-so-far results still print, plus the stop-reason footer
            // naming the tripped guard and its counts.
            assert!(out.stdout.starts_with("Z = "), "{}", out.stdout);
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
            assert!(out.stdout.contains("(limit 1)"), "{}", out.stdout);
        });
    }

    #[test]
    fn bad_options_are_reported() {
        assert!(run(&args(&["explain", "--radius"])).is_err());
        assert!(run(&args(&["explain", "x", "--weights", "1,2"])).is_err());
        assert!(run(&args(&["explain", "x", "--bogus"])).is_err());
        with_scenario("badstrat", |dir| {
            assert!(run(&args(&["explain", dir, "--strategy", "nope"])).is_err());
        });
    }
}

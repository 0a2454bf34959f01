//! `obx-ci` — the workspace's CI runner.
//!
//! One binary, runnable locally and in CI with identical behaviour:
//!
//! ```text
//! cargo run --release -p obx-ci
//! ```
//!
//! Runs the gate steps in order — the env-latch check (non-test code
//! under `crates/*/src` may read no `OBX_*` environment variable but
//! `OBX_THREADS` and `OBX_OBS`), `fmt --check`, workspace clippy with
//! warnings denied, a release build, the test suite, a build and
//! self-test of the standalone `perfbench` package (outside the
//! workspace, so nothing else compiles it against the library API), and
//! the bench bins — then compares the fresh bench numbers against the
//! committed `BENCH_*.json` baselines (scoring, search, eval, serve, scale,
//! modes) and fails on a wall-time regression above 20% that is also
//! more than 5 ms absolute (sub-millisecond benches jitter past 20% on
//! a loaded machine). Wall times are compared at the baseline's host
//! speed: every bench file stamps a host-speed kernel reading
//! (`host_kernel_us`), and a fresh file's `*_ms` values are divided by
//! the ratio of its reading to the baseline's, so a slow phase of a
//! shared host does not fail an unchanged tree. The ratio is capped at
//! 1.5× either way: under contention the kernel can read twice as slow
//! while a bench reads no slower, and an uncapped ratio would then pass
//! a regression of that size (the bench bins' own hard
//! floors, e.g. the smoke
//! bench's 2× cache speedup, stay in force because a bin exiting nonzero
//! fails its step). A bench step that runs *without* a committed
//! baseline fails the gate outright — an ungated bench is a silent hole,
//! not a soft skip — and so does a baseline `*_ms` key the fresh file no
//! longer carries, or a fresh file without the host facts (`cores`,
//! `pool_workers`, `obx_threads`, `host_kernel_us`) the bench harness
//! stamps. A bench file
//! whose wall-time keys would fail gets its bin re-run once and is gated
//! on the better of the two runs — machine-load noise retries away, a
//! real regression fails twice.
//! Every step is timed on the observability recorder and the whole run
//! is written to `CI_REPORT.json` at the workspace root, including a
//! per-step wall-time table (`"timings"`).
//!
//! Steps can be filtered for local iteration:
//!
//! ```text
//! cargo run --release -p obx-ci -- --only bench-modes
//! cargo run --release -p obx-ci -- --skip bench-scale --skip test
//! ```
//!
//! `--only` keeps the named steps (repeatable), `--skip` drops them;
//! skipped steps appear in the report as `"skip"` and neither run nor
//! fail the gate. Unknown step names are a usage error.
//!
//! The baseline files are snapshotted *before* the bench bins overwrite
//! them, so the gate always compares against the committed state of the
//! working tree.

// The gate itself must not panic on a malformed bench file or a failed
// step; its test module may.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use obx_util::obs::{json_escape, Recorder};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Relative wall-time increase that fails the regression gate.
const REGRESSION_TOLERANCE: f64 = 0.20;

/// Absolute slack (ms) a gated delta must also exceed to fail. The
/// scoring smoke bench finishes in single-digit milliseconds, where
/// 20% is machine noise; a regression must be both relatively and
/// absolutely large to count.
const REGRESSION_MIN_ABS_MS: f64 = 5.0;

/// The largest host slowdown (and, inverted, speedup) the gate corrects
/// wall times by. Past it the host is too contended for the kernel to
/// speak for the benches; a no-op tree may then fail and want a re-run
/// in a quieter phase, but a regression can hide only up to
/// `(1 + REGRESSION_TOLERANCE) × 1.5 = 1.8×` raw wall time, and only
/// while the kernel reads at least 1.5× slow.
const MAX_HOST_SLOWDOWN: f64 = 1.5;

/// One row per bench step: (step name, baseline file, bench bin, retry
/// step name). The regression gate, the missing-baseline check, and the
/// one-shot retry all key off this table, so registering a new bench is
/// one line here plus its entry in `steps`.
const BENCHES: [(&str, &str, &str, &str); 6] = [
    (
        "bench-scoring",
        "BENCH_scoring.json",
        "smoke",
        "bench-scoring-retry",
    ),
    (
        "bench-search",
        "BENCH_search.json",
        "search",
        "bench-search-retry",
    ),
    ("bench-eval", "BENCH_eval.json", "eval", "bench-eval-retry"),
    (
        "bench-serve",
        "BENCH_serve.json",
        "serve",
        "bench-serve-retry",
    ),
    (
        "bench-scale",
        "BENCH_scale.json",
        "scale",
        "bench-scale-retry",
    ),
    (
        "bench-modes",
        "BENCH_modes.json",
        "modes",
        "bench-modes-retry",
    ),
];

/// The `OBX_*` environment variables non-test code may read. Any other
/// is a forcing knob or latch, and fails the `env-latches` step.
const ALLOWED_ENV: [&str; 2] = ["OBX_THREADS", "OBX_OBS"];

/// The in-process step that runs [`env_latch_violations`].
const ENV_STEP: &str = "env-latches";

/// The `OBX_*` variables a Rust source file's non-test code names, with
/// their 1-based lines, other than [`ALLOWED_ENV`]. A string literal
/// that is exactly `"OBX_NAME"` counts as a read, whether it is passed
/// to `std::env::var` directly or through a constant. Comment lines are
/// skipped, and so is everything from a column-0 `#[cfg(test)]` that
/// opens a `mod` (the file's test module) on.
fn env_latches(src: &str) -> Vec<(usize, String)> {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let opens_test_mod = *line == "#[cfg(test)]"
            && lines[i + 1..]
                .iter()
                .map(|l| l.trim_start())
                .find(|l| !l.starts_with("#["))
                .is_some_and(|l| l.starts_with("mod "));
        if opens_test_mod {
            break;
        }
        if line.trim_start().starts_with("//") {
            continue;
        }
        let mut rest = *line;
        while let Some(at) = rest.find("\"OBX_") {
            let tail = &rest[at + 1..];
            let len = tail
                .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(tail.len());
            let (name, after) = tail.split_at(len);
            let named = name.len() > "OBX_".len();
            if named && after.starts_with('"') && !ALLOWED_ENV.contains(&name) {
                out.push((i + 1, name.to_owned()));
            }
            rest = after;
        }
    }
    out
}

/// Every `.rs` file under `dir`, recursively, in path order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// [`env_latches`] over every source file under `crates/*/src`, as
/// `path:line: reads NAME` lines.
fn env_latch_violations(root: &Path) -> Vec<String> {
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .map(|entries| entries.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    crates.sort();
    let mut files = Vec::new();
    for krate in crates {
        rust_files(&krate.join("src"), &mut files);
    }
    let mut out = Vec::new();
    for file in files {
        let Ok(src) = std::fs::read_to_string(&file) else {
            continue;
        };
        let shown = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .display()
            .to_string();
        for (line, name) in env_latches(&src) {
            out.push(format!("{shown}:{line}: reads {name}"));
        }
    }
    out
}

struct StepResult {
    name: &'static str,
    command: String,
    status: &'static str,
    wall_ms: f64,
}

/// Which steps an invocation runs, from `--only` / `--skip` flags.
/// `only` empty means "everything"; `skip` always wins over `only`.
#[derive(Debug, Default, PartialEq)]
struct StepFilter {
    only: Vec<String>,
    skip: Vec<String>,
}

impl StepFilter {
    /// Parses `--only NAME` / `--skip NAME` pairs (repeatable), checking
    /// every name against `known`. Returns a usage-style error for
    /// unknown steps, missing values, or unrecognized flags.
    fn parse(args: &[String], known: &[&str]) -> Result<StepFilter, String> {
        let mut filter = StepFilter::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let dest = match arg.as_str() {
                "--only" => &mut filter.only,
                "--skip" => &mut filter.skip,
                other => return Err(format!("unknown flag `{other}` (expected --only/--skip)")),
            };
            let Some(name) = it.next() else {
                return Err(format!("{arg} requires a step name"));
            };
            if !known.contains(&name.as_str()) {
                return Err(format!(
                    "unknown step `{name}` (steps: {})",
                    known.join(", ")
                ));
            }
            dest.push(name.clone());
        }
        Ok(filter)
    }

    /// Whether `name` runs under this filter.
    fn selects(&self, name: &str) -> bool {
        (self.only.is_empty() || self.only.iter().any(|o| o == name))
            && !self.skip.iter().any(|s| s == name)
    }
}

fn workspace_root() -> PathBuf {
    // ci lives at <root>/crates/ci.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

/// Runs one cargo step, streaming its output, and records it.
fn run_step(
    rec: &Recorder,
    results: &mut Vec<StepResult>,
    name: &'static str,
    args: &[&str],
    root: &Path,
) -> bool {
    let command = format!("cargo {}", args.join(" "));
    eprintln!("== {name}: {command}");
    let mut span = rec.kernel(name);
    let start = Instant::now();
    let status = Command::new("cargo").args(args).current_dir(root).status();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let ok = status.as_ref().map(|s| s.success()).unwrap_or(false);
    span.count("ok", u64::from(ok));
    drop(span);
    results.push(StepResult {
        name,
        command,
        status: if ok { "pass" } else { "fail" },
        wall_ms,
    });
    eprintln!(
        "== {name}: {} ({wall_ms:.0} ms)",
        if ok { "PASS" } else { "FAIL" }
    );
    ok
}

/// Runs the env-latch check as a step and records it.
fn run_env_step(rec: &Recorder, results: &mut Vec<StepResult>, root: &Path) -> bool {
    eprintln!("== {ENV_STEP}: OBX_* reads in non-test code under crates/*/src");
    let mut span = rec.kernel(ENV_STEP);
    let start = Instant::now();
    let violations = env_latch_violations(root);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let ok = violations.is_empty();
    span.count("ok", u64::from(ok));
    drop(span);
    for v in &violations {
        eprintln!(
            "ENV LATCH: {v} (only {} may be read)",
            ALLOWED_ENV.join(", ")
        );
    }
    results.push(StepResult {
        name: ENV_STEP,
        command: "scan crates/*/src for OBX_* environment reads".to_owned(),
        status: if ok { "pass" } else { "fail" },
        wall_ms,
    });
    eprintln!(
        "== {ENV_STEP}: {} ({wall_ms:.0} ms)",
        if ok { "PASS" } else { "FAIL" }
    );
    ok
}

/// Extracts the top-level numeric fields of a flat-ish JSON object,
/// skipping nested objects/arrays (the embedded `"profile"`). Good
/// enough for the bench files this workspace writes; not a general
/// JSON parser.
fn top_level_numbers(json: &str) -> Vec<(String, f64)> {
    let bytes = json.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut depth = 0i32;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth -= 1,
            b'"' if depth == 1 => {
                // Parse "key" : value at the top level.
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    j += if bytes[j] == b'\\' { 2 } else { 1 };
                }
                let key = &json[start..j.min(json.len())];
                i = j + 1;
                while i < bytes.len() && (bytes[i] as char).is_whitespace() {
                    i += 1;
                }
                if i < bytes.len() && bytes[i] == b':' {
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_whitespace() {
                        i += 1;
                    }
                    let vstart = i;
                    if i < bytes.len()
                        && (bytes[i].is_ascii_digit() || bytes[i] == b'-' || bytes[i] == b'+')
                    {
                        while i < bytes.len()
                            && (bytes[i].is_ascii_digit()
                                || matches!(bytes[i], b'.' | b'-' | b'+' | b'e' | b'E'))
                        {
                            i += 1;
                        }
                        if let Ok(v) = json[vstart..i].parse::<f64>() {
                            out.push((key.to_owned(), v));
                        }
                    }
                }
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

struct Delta {
    file: &'static str,
    key: String,
    base: f64,
    /// The fresh value — for a gated wall time, at the baseline's host
    /// speed (divided by `slowdown`); `None` when the fresh file lacks the
    /// key.
    fresh: Option<f64>,
    /// How much slower the host ran for the fresh file than for the
    /// baseline ([`host_slowdown`]).
    kernel_ratio: f64,
    /// The correction applied: `kernel_ratio` capped to
    /// [`MAX_HOST_SLOWDOWN`] either way.
    slowdown: f64,
    /// Relative change, sign-adjusted so positive = worse; infinite for
    /// a missing gated key.
    worse_frac: f64,
    gated: bool,
}

/// The host-speed reading every bench file carries among its host facts
/// (`obx_bench::harness::kernel_us`).
const HOST_KERNEL: &str = "host_kernel_us";

/// How much slower the host ran for the fresh file than for the baseline:
/// the ratio of their [`HOST_KERNEL`] readings, or 1 when either lacks
/// one (a baseline written before the kernel existed).
fn host_slowdown(base: &[(String, f64)], fresh: &[(String, f64)]) -> f64 {
    let kernel = |fields: &[(String, f64)]| {
        fields
            .iter()
            .find(|(k, _)| k == HOST_KERNEL)
            .map(|(_, v)| *v)
            .filter(|v| v.is_finite() && *v > 0.0)
    };
    match (kernel(base), kernel(fresh)) {
        (Some(b), Some(f)) => f / b,
        _ => 1.0,
    }
}

/// Compares one fresh bench file against its pre-run baseline. Gated
/// keys are wall-times (`*_ms`: higher is worse), compared at the
/// baseline's host speed: each fresh wall time is divided by the
/// [`host_slowdown`] between the two files, capped to
/// [`MAX_HOST_SLOWDOWN`], so a slow phase of a shared host, which slows
/// the kernel as much as the bench, is not a regression, while a slow
/// change, which leaves the kernel alone, still is. Speedup keys are reported but left to the bench bins' own hard
/// floors. A gated key the fresh file no longer carries is a delta that
/// fails the gate: a bin that renames or drops a wall time must not slip
/// past it.
fn bench_deltas(file: &'static str, baseline: &str, fresh: &str) -> Vec<Delta> {
    let base: Vec<(String, f64)> = top_level_numbers(baseline);
    let new: Vec<(String, f64)> = top_level_numbers(fresh);
    let kernel_ratio = host_slowdown(&base, &new);
    let slowdown = kernel_ratio.clamp(1.0 / MAX_HOST_SLOWDOWN, MAX_HOST_SLOWDOWN);
    let mut deltas = Vec::new();
    for (key, b) in &base {
        let gated = key.ends_with("_ms");
        let f = new
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, f)| if gated { *f / slowdown } else { *f });
        let worse_frac = match f {
            None if gated => f64::INFINITY,
            None => continue,
            Some(f) if gated => (f - b) / b.max(1e-9),
            Some(f) if key.contains("speedup") || key.ends_with("_cps") => (b - f) / b.max(1e-9),
            Some(_) => 0.0,
        };
        deltas.push(Delta {
            file,
            key: key.clone(),
            base: *b,
            fresh: f,
            kernel_ratio,
            slowdown,
            worse_frac,
            gated,
        });
    }
    deltas
}

fn fails_gate(d: &Delta) -> bool {
    d.gated
        && match d.fresh {
            None => true,
            Some(f) => d.worse_frac > REGRESSION_TOLERANCE && (f - d.base) > REGRESSION_MIN_ABS_MS,
        }
}

/// The host facts every bench file carries at top level (stamped by
/// `obx_bench::harness::Report`): core count, scoring-pool workers, the
/// parsed `OBX_THREADS`, and the host-speed kernel reading.
const HOST_FACTS: [&str; 4] = ["cores", "pool_workers", "obx_threads", HOST_KERNEL];

/// The [`HOST_FACTS`] a fresh bench file lacks. A bin that writes its
/// file without the shared harness fails the gate here.
fn missing_host_facts(fresh: &str) -> Vec<&'static str> {
    let have = top_level_numbers(fresh);
    HOST_FACTS
        .into_iter()
        .filter(|fact| !have.iter().any(|(k, _)| k == fact))
        .collect()
}

fn print_delta_table(deltas: &[Delta]) {
    let mut files: Vec<(&str, f64, f64)> = Vec::new();
    for d in deltas {
        if !files.contains(&(d.file, d.kernel_ratio, d.slowdown)) {
            files.push((d.file, d.kernel_ratio, d.slowdown));
        }
    }
    for (file, ratio, slowdown) in files {
        eprintln!("{file}: host ran {ratio:.2}x the baseline's kernel time; wall times below are divided by {slowdown:.2} (capped at {MAX_HOST_SLOWDOWN}x)");
    }
    eprintln!(
        "{:<18} {:<28} {:>12} {:>12} {:>9}  gate",
        "file", "key", "baseline", "fresh", "delta"
    );
    for d in deltas {
        if d.worse_frac == 0.0 && !d.gated {
            continue; // ungated counters: noise in the table
        }
        let verdict = if !d.gated {
            "info"
        } else if fails_gate(d) {
            "FAIL"
        } else {
            "ok"
        };
        let Some(fresh) = d.fresh else {
            eprintln!(
                "{:<18} {:<28} {:>12.3} {:>12} {:>9}  {verdict}",
                d.file, d.key, d.base, "missing", ""
            );
            continue;
        };
        eprintln!(
            "{:<18} {:<28} {:>12.3} {:>12.3} {:>+8.1}%  {verdict}",
            d.file,
            d.key,
            d.base,
            fresh,
            d.worse_frac * 100.0
        );
    }
}

fn main() {
    let root = workspace_root();
    let rec = Recorder::new();
    let run_span = rec.enter("ci");
    let started = Instant::now();
    let mut results: Vec<StepResult> = Vec::new();

    // Snapshot the committed bench baselines before anything overwrites
    // them.
    let bench_files: Vec<&'static str> = BENCHES.iter().map(|(_, file, _, _)| *file).collect();
    let baselines: Vec<Option<String>> = bench_files
        .iter()
        .map(|f| std::fs::read_to_string(root.join(f)).ok())
        .collect();

    let steps: [(&'static str, &[&str]); 11] = [
        ("fmt", &["fmt", "--all", "--", "--check"]),
        (
            "clippy",
            &[
                "clippy",
                "--workspace",
                "--all-targets",
                "--release",
                "--",
                "-D",
                "warnings",
            ],
        ),
        ("build", &["build", "--release", "--workspace"]),
        ("test", &["test", "-q", "--release"]),
        (
            "perfbench",
            &["test", "-q", "--manifest-path", "perfbench/Cargo.toml"],
        ),
        (
            "bench-scoring",
            &["run", "--release", "-p", "obx-bench", "--bin", "smoke"],
        ),
        (
            "bench-search",
            &["run", "--release", "-p", "obx-bench", "--bin", "search"],
        ),
        (
            "bench-eval",
            &["run", "--release", "-p", "obx-bench", "--bin", "eval"],
        ),
        (
            "bench-serve",
            &["run", "--release", "-p", "obx-bench", "--bin", "serve"],
        ),
        (
            "bench-scale",
            &["run", "--release", "-p", "obx-bench", "--bin", "scale"],
        ),
        (
            "bench-modes",
            &["run", "--release", "-p", "obx-bench", "--bin", "modes"],
        ),
    ];

    let mut step_names: Vec<&str> = vec![ENV_STEP];
    step_names.extend(steps.iter().map(|(n, _)| *n));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let filter = match StepFilter::parse(&args, &step_names) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("obx-ci: {e}");
            eprintln!("usage: obx-ci [--only STEP]... [--skip STEP]...");
            std::process::exit(2);
        }
    };

    // The env-latch check reads source files only, so it goes first.
    let mut all_ok = !filter.selects(ENV_STEP) || run_env_step(&rec, &mut results, &root);
    for (name, args) in steps {
        if !filter.selects(name) {
            eprintln!("== {name}: skipped by step filter");
            results.push(StepResult {
                name,
                command: format!("cargo {}", args.join(" ")),
                status: "skip",
                wall_ms: 0.0,
            });
            continue;
        }
        let ok = run_step(&rec, &mut results, name, args, &root);
        all_ok &= ok;
        // A broken build makes every later step noise; stop early there.
        if !ok && matches!(name, "fmt" | "clippy" | "build") {
            eprintln!("== aborting after failed {name} step");
            break;
        }
    }

    // Bench regression gate: fresh numbers vs the committed baseline.
    // Only benches that actually ran this invocation are gated — a step
    // dropped by `--only`/`--skip` neither compares nor demands a
    // baseline.
    let ran = |step: &str| results.iter().any(|r| r.name == step && r.status != "skip");
    let mut deltas: Vec<Delta> = Vec::new();
    let mut regressions: Vec<String> = Vec::new();
    if BENCHES.iter().any(|(step, _, _, _)| ran(step)) {
        let mut gate_span = rec.kernel("regression-gate");
        for ((step, file, _, _), baseline) in BENCHES.iter().zip(&baselines) {
            if !ran(step) {
                continue;
            }
            let Some(baseline) = baseline else {
                // A registered bench without a committed baseline is an
                // ungated bench: fail loudly instead of skipping, or the
                // gate silently rots as benches are added.
                regressions.push(format!(
                    "{file}: no committed baseline for registered bench step {step} \
                     (run the bench and commit the file)"
                ));
                continue;
            };
            let Ok(fresh) = std::fs::read_to_string(root.join(file)) else {
                regressions.push(format!("{file}: not written by bench step {step}"));
                continue;
            };
            for fact in missing_host_facts(&fresh) {
                regressions.push(format!(
                    "{file}: missing host fact `{fact}` (write it through obx_bench::harness::Report)"
                ));
            }
            deltas.extend(bench_deltas(file, baseline, &fresh));
        }
        // Wall-time keys on a loaded machine swing well past the
        // tolerance (the bins' internal best-of-N only de-noises within
        // one process). Before failing, re-run each offending bench bin
        // once and gate on the better of the two runs — one bounded
        // retry, not a loop, and only for files that would fail. The
        // bins' own hard gates (speedup floors, byte-identity) run
        // again too and can still fail the step outright.
        let retry_files: Vec<&'static str> = deltas
            .iter()
            .filter(|d| fails_gate(d))
            .map(|d| d.file)
            .collect();
        for (_, file, bin, name) in BENCHES {
            if !retry_files.contains(&file) {
                continue;
            }
            eprintln!("== regression gate: {file} over tolerance, retrying its bench once");
            let ok = run_step(
                &rec,
                &mut results,
                name,
                &["run", "--release", "-p", "obx-bench", "--bin", bin],
                &root,
            );
            all_ok &= ok;
            let baseline = bench_files
                .iter()
                .position(|f| *f == file)
                .and_then(|i| baselines[i].as_deref());
            let (Some(baseline), Ok(second)) = (baseline, std::fs::read_to_string(root.join(file)))
            else {
                continue;
            };
            // Keep the better (smaller `_ms`, larger speedup) of the two
            // runs per key.
            for second_d in bench_deltas(file, baseline, &second) {
                if let Some(first_d) = deltas
                    .iter_mut()
                    .find(|d| d.file == file && d.key == second_d.key)
                {
                    if second_d.worse_frac < first_d.worse_frac {
                        *first_d = second_d;
                    }
                }
            }
        }
        for d in deltas.iter().filter(|d| fails_gate(d)) {
            regressions.push(match d.fresh {
                None => format!("{}:{} missing from the fresh file", d.file, d.key),
                Some(f) => format!(
                    "{}:{} {:.3} -> {:.3} (+{:.1}%; {:.3} measured, host {:.2}x slower)",
                    d.file,
                    d.key,
                    d.base,
                    f,
                    d.worse_frac * 100.0,
                    f * d.slowdown,
                    d.slowdown
                ),
            });
        }
        gate_span.count("compared", deltas.len() as u64);
        gate_span.count("regressions", regressions.len() as u64);
        drop(gate_span);
        eprintln!(
            "== regression gate (tolerance {:.0}%)",
            REGRESSION_TOLERANCE * 100.0
        );
        print_delta_table(&deltas);
        let gate_ok = regressions.is_empty();
        results.push(StepResult {
            name: "regression-gate",
            command: format!(
                "compare fresh benches vs committed baselines (>{:.0}% _ms fails)",
                REGRESSION_TOLERANCE * 100.0
            ),
            status: if gate_ok { "pass" } else { "fail" },
            wall_ms: 0.0,
        });
        if !gate_ok {
            all_ok = false;
            for r in &regressions {
                eprintln!("REGRESSION: {r}");
            }
        }
    }

    drop(run_span);
    let total_ms = started.elapsed().as_secs_f64() * 1e3;

    // Per-step wall-time table: where the pipeline's minutes go, at a
    // glance, both on stderr and as the report's `"timings"` object.
    eprintln!("== step timings");
    let mut timings_json = String::new();
    for (i, r) in results.iter().enumerate() {
        eprintln!("{:<22} {:>9.0} ms  {}", r.name, r.wall_ms, r.status);
        if i > 0 {
            timings_json.push(',');
        }
        timings_json.push_str(&format!("\"{}\":{:.1}", json_escape(r.name), r.wall_ms));
    }

    // CI_REPORT.json: per-step status/timings plus the recorder profile.
    let mut steps_json = String::new();
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            steps_json.push(',');
        }
        steps_json.push_str(&format!(
            "{{\"name\":\"{}\",\"command\":\"{}\",\"status\":\"{}\",\"wall_ms\":{:.1}}}",
            json_escape(r.name),
            json_escape(&r.command),
            r.status,
            r.wall_ms
        ));
    }
    let mut regressions_json = String::new();
    for (i, r) in regressions.iter().enumerate() {
        if i > 0 {
            regressions_json.push(',');
        }
        regressions_json.push_str(&format!("\"{}\"", json_escape(r)));
    }
    let report = format!(
        "{{\"ok\":{all_ok},\"total_ms\":{total_ms:.1},\"steps\":[{steps_json}],\
         \"timings\":{{{timings_json}}},\
         \"regressions\":[{regressions_json}],\"profile\":{}}}\n",
        rec.profile().to_json()
    );
    let report_path = root.join("CI_REPORT.json");
    if let Err(e) = std::fs::write(&report_path, &report) {
        eprintln!("failed to write {}: {e}", report_path.display());
    } else {
        eprintln!("== wrote {}", report_path.display());
    }

    eprintln!(
        "== CI {} in {:.1}s",
        if all_ok { "PASSED" } else { "FAILED" },
        total_ms / 1e3
    );
    std::process::exit(i32::from(!all_ok));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_level_numbers_skips_nested_profile() {
        let json = r#"{"a_ms":12.5,"name":"x","profile":{"spans":[{"wall_ms":9.0}]},"b":3}"#;
        let got = top_level_numbers(json);
        assert_eq!(
            got,
            vec![("a_ms".to_owned(), 12.5), ("b".to_owned(), 3.0)],
            "nested profile numbers must not leak into the baseline set"
        );
    }

    const KNOWN: [&str; 4] = ["fmt", "clippy", "test", "bench-modes"];

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn empty_filter_selects_everything() {
        let f = StepFilter::parse(&[], &KNOWN).unwrap();
        for step in KNOWN {
            assert!(f.selects(step), "{step} must run by default");
        }
    }

    #[test]
    fn only_keeps_the_named_steps() {
        let f =
            StepFilter::parse(&strs(&["--only", "bench-modes", "--only", "fmt"]), &KNOWN).unwrap();
        assert!(f.selects("fmt"));
        assert!(f.selects("bench-modes"));
        assert!(!f.selects("clippy"));
        assert!(!f.selects("test"));
    }

    #[test]
    fn skip_drops_steps_and_wins_over_only() {
        let f = StepFilter::parse(&strs(&["--skip", "test"]), &KNOWN).unwrap();
        assert!(f.selects("fmt"));
        assert!(!f.selects("test"));
        // A step both kept and skipped does not run: skip wins.
        let f = StepFilter::parse(&strs(&["--only", "fmt", "--skip", "fmt"]), &KNOWN).unwrap();
        assert!(!f.selects("fmt"));
    }

    #[test]
    fn unknown_steps_flags_and_missing_values_are_errors() {
        let e = StepFilter::parse(&strs(&["--only", "bench-nope"]), &KNOWN).unwrap_err();
        assert!(e.contains("unknown step `bench-nope`"), "{e}");
        assert!(
            e.contains("bench-modes"),
            "error must list valid steps: {e}"
        );
        let e = StepFilter::parse(&strs(&["--fast"]), &KNOWN).unwrap_err();
        assert!(e.contains("unknown flag"), "{e}");
        let e = StepFilter::parse(&strs(&["--skip"]), &KNOWN).unwrap_err();
        assert!(e.contains("requires a step name"), "{e}");
    }

    #[test]
    fn every_registered_bench_is_a_known_step_with_distinct_files() {
        // The gate keys off BENCHES; a typo between the steps array and
        // this table would silently un-gate a bench. The steps array
        // lives in main(), so pin the invariants the table itself can
        // carry: unique step names, unique files, retry names derived
        // from step names.
        for (i, (step, file, _, retry)) in BENCHES.iter().enumerate() {
            assert_eq!(*retry, format!("{step}-retry"));
            assert!(file.starts_with("BENCH_") && file.ends_with(".json"));
            for (step2, file2, _, _) in &BENCHES[i + 1..] {
                assert_ne!(step, step2);
                assert_ne!(file, file2);
            }
        }
    }

    #[test]
    fn env_latches_flag_unlisted_obx_reads_in_non_test_code() {
        let src = r#"
// A comment naming "OBX_COMMENT" is not a read.
const KEY: &str = "OBX_VIA_CONST";
fn threads() -> Option<String> { std::env::var("OBX_THREADS").ok() }
fn obs() -> bool { std::env::var("OBX_OBS").is_ok() }
fn latch() -> bool { std::env::var("OBX_LATCH").is_ok() && KEY.is_empty() }
fn help() -> &'static str { "set OBX_OBS=0 to stop recording" }
#[cfg(any(test, feature = "x"))]
fn hook() -> bool { std::env::var_os("OBX_HOOK").is_some() }

#[cfg(test)]
mod tests {
    fn flip() { std::env::set_var("OBX_IN_TESTS", "1"); }
}
"#;
        assert_eq!(
            env_latches(src),
            vec![
                (3, "OBX_VIA_CONST".to_owned()),
                (6, "OBX_LATCH".to_owned()),
                (9, "OBX_HOOK".to_owned()),
            ]
        );
    }

    #[test]
    fn workspace_reads_only_the_allowed_env_vars() {
        let violations = env_latch_violations(&workspace_root());
        assert!(violations.is_empty(), "{violations:#?}");
    }

    #[test]
    fn gate_requires_relative_and_absolute_regression() {
        let d = |base: f64, fresh: f64, gated: bool| Delta {
            file: "BENCH_test.json",
            key: "x_ms".to_owned(),
            base,
            fresh: Some(fresh),
            kernel_ratio: 1.0,
            slowdown: 1.0,
            worse_frac: (fresh - base) / base,
            gated,
        };
        // 48% worse but only 0.85 ms absolute: machine noise, passes.
        assert!(!fails_gate(&d(1.772, 2.620, true)));
        // 25% worse and 100 ms absolute: real regression, fails.
        assert!(fails_gate(&d(400.0, 500.0, true)));
        // Huge absolute delta but within 20% relative: passes.
        assert!(!fails_gate(&d(1000.0, 1100.0, true)));
        // Ungated keys never fail regardless of magnitude.
        assert!(!fails_gate(&d(10.0, 1000.0, false)));
    }

    #[test]
    fn gated_key_missing_from_the_fresh_file_fails_the_gate() {
        let baseline = r#"{"bench":"t","a_ms":10.0,"b_ms":20.0,"count":3,"speedup":2.0}"#;
        // `a_ms` renamed away; the ungated `count` and `speedup` vanish too.
        let fresh = r#"{"bench":"t","renamed_ms":10.0,"b_ms":20.0}"#;
        let deltas = bench_deltas("BENCH_t.json", baseline, fresh);
        let failing: Vec<&str> = deltas
            .iter()
            .filter(|d| fails_gate(d))
            .map(|d| d.key.as_str())
            .collect();
        assert_eq!(failing, ["a_ms"], "a dropped wall time must fail, by name");
    }

    #[test]
    fn bench_files_must_carry_the_host_facts() {
        let stamped = r#"{"bench":"t","cores":2,"pool_workers":1,"obx_threads":0,"host_kernel_us":9000.0,"a_ms":1.0}"#;
        assert!(missing_host_facts(stamped).is_empty());
        let bare = r#"{"bench":"t","cores":2,"a_ms":1.0,"profile":{"pool_workers":1}}"#;
        assert_eq!(
            missing_host_facts(bare),
            ["pool_workers", "obx_threads", "host_kernel_us"]
        );
    }

    /// A no-op tree measured in a slow host phase: every wall time and the
    /// kernel read 1.45x the baseline. At the baseline's host speed
    /// nothing regressed; without the kernel the same file fails. A real
    /// regression in a slow phase still fails.
    #[test]
    fn gate_compares_wall_times_at_the_baseline_host_speed() {
        let baseline = r#"{"bench":"t","host_kernel_us":10000.0,"a_ms":40.0,"b_ms":100.0}"#;
        let slow_phase = r#"{"bench":"t","host_kernel_us":14500.0,"a_ms":58.0,"b_ms":145.0}"#;
        let failing = |base: &str, fresh: &str| -> Vec<String> {
            bench_deltas("BENCH_t.json", base, fresh)
                .into_iter()
                .filter(fails_gate)
                .map(|d| d.key)
                .collect()
        };
        assert!(
            failing(baseline, slow_phase).is_empty(),
            "a slow host is not a slow change"
        );
        let d = &bench_deltas("BENCH_t.json", baseline, slow_phase)[2];
        assert!((d.slowdown - 1.45).abs() < 1e-9 && (d.fresh.unwrap() - 100.0).abs() < 1e-9);
        let unstamped = r#"{"bench":"t","a_ms":58.0,"b_ms":145.0}"#;
        assert_eq!(failing(baseline, unstamped), ["a_ms", "b_ms"]);
        let slow_change = r#"{"bench":"t","host_kernel_us":14500.0,"a_ms":58.0,"b_ms":200.0}"#;
        assert_eq!(failing(baseline, slow_change), ["b_ms"]);
    }

    /// Under contention the kernel can read far slower than the benches
    /// do. The correction stops at 1.5x, so a kernel reading 2.5x slow
    /// cannot pass a wall time 2x its baseline; a 1.5x phase still
    /// passes a no-op tree, and a fast phase cannot fail one by more
    /// than the cap either.
    #[test]
    fn the_host_correction_is_capped() {
        let baseline = r#"{"bench":"t","host_kernel_us":10000.0,"a_ms":40.0,"b_ms":100.0}"#;
        let failing = |fresh: &str| -> Vec<String> {
            bench_deltas("BENCH_t.json", baseline, fresh)
                .into_iter()
                .filter(fails_gate)
                .map(|d| d.key)
                .collect()
        };
        let over_read = r#"{"bench":"t","host_kernel_us":25000.0,"a_ms":40.0,"b_ms":200.0}"#;
        assert_eq!(failing(over_read), ["b_ms"], "200 / 1.5 = 133, +33%");
        let d = &bench_deltas("BENCH_t.json", baseline, over_read)[2];
        assert!((d.kernel_ratio - 2.5).abs() < 1e-9 && (d.slowdown - 1.5).abs() < 1e-9);
        let slow_phase = r#"{"bench":"t","host_kernel_us":16000.0,"a_ms":60.0,"b_ms":170.0}"#;
        assert!(failing(slow_phase).is_empty(), "170 / 1.5 = 113, +13%");
        let fast_phase = r#"{"bench":"t","host_kernel_us":4000.0,"a_ms":30.0,"b_ms":75.0}"#;
        assert!(failing(fast_phase).is_empty(), "75 x 1.5 = 112.5, +12.5%");
    }
}

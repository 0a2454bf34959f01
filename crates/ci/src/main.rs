//! `obx-ci` — the workspace's CI runner.
//!
//! One binary, runnable locally and in CI with identical behaviour:
//!
//! ```text
//! cargo run --release -p obx-ci
//! ```
//!
//! Runs the gate steps in order — `fmt --check`, workspace clippy with
//! warnings denied, a release build, the test suite, a build and
//! self-test of the standalone `perfbench` package (outside the
//! workspace, so nothing else compiles it against the library API), and
//! the bench bins — then compares the fresh bench numbers against the
//! committed `BENCH_*.json` baselines (scoring, search, eval, serve, scale,
//! modes) and fails on a wall-time regression above 20% that is also
//! more than 5 ms absolute (sub-millisecond benches jitter past 20% on
//! a loaded machine; the bench bins' own hard floors, e.g. the 2×
//! search speedup, stay in force because a bin exiting nonzero fails
//! its step). A bench step that runs *without* a committed baseline
//! fails the gate outright — an ungated bench is a silent hole, not a
//! soft skip. A bench file whose wall-time keys would fail gets its bin
//! re-run once and is gated on the better of the two runs —
//! machine-load noise retries away, a real regression fails twice.
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

use obx_util::obs::Recorder;
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
    fresh: f64,
    /// Relative change, sign-adjusted so positive = worse.
    worse_frac: f64,
    gated: bool,
}

/// Compares one fresh bench file against its pre-run baseline. Gated
/// keys are wall-times (`*_ms`: higher is worse); speedup keys are
/// reported but left to the bench bins' own hard floors.
fn bench_deltas(file: &'static str, baseline: &str, fresh: &str) -> Vec<Delta> {
    let base: Vec<(String, f64)> = top_level_numbers(baseline);
    let new: Vec<(String, f64)> = top_level_numbers(fresh);
    let mut deltas = Vec::new();
    for (key, b) in &base {
        let Some((_, f)) = new.iter().find(|(k, _)| k == key) else {
            continue;
        };
        let gated = key.ends_with("_ms");
        let worse_frac = if key.ends_with("_ms") {
            (f - b) / b.max(1e-9)
        } else if key.contains("speedup") || key.ends_with("_cps") {
            (b - f) / b.max(1e-9)
        } else {
            0.0
        };
        deltas.push(Delta {
            file,
            key: key.clone(),
            base: *b,
            fresh: *f,
            worse_frac,
            gated,
        });
    }
    deltas
}

fn fails_gate(d: &Delta) -> bool {
    d.gated && d.worse_frac > REGRESSION_TOLERANCE && (d.fresh - d.base) > REGRESSION_MIN_ABS_MS
}

fn print_delta_table(deltas: &[Delta]) {
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
        eprintln!(
            "{:<18} {:<28} {:>12.3} {:>12.3} {:>+8.1}%  {verdict}",
            d.file,
            d.key,
            d.base,
            d.fresh,
            d.worse_frac * 100.0
        );
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
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

    let step_names: Vec<&str> = steps.iter().map(|(n, _)| *n).collect();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let filter = match StepFilter::parse(&args, &step_names) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("obx-ci: {e}");
            eprintln!("usage: obx-ci [--only STEP]... [--skip STEP]...");
            std::process::exit(2);
        }
    };

    let mut all_ok = true;
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
                continue;
            };
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
        for d in &deltas {
            if fails_gate(d) {
                regressions.push(format!(
                    "{}:{} {:.3} -> {:.3} (+{:.1}%)",
                    d.file,
                    d.key,
                    d.base,
                    d.fresh,
                    d.worse_frac * 100.0
                ));
            }
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
    fn gate_requires_relative_and_absolute_regression() {
        let d = |base: f64, fresh: f64, gated: bool| Delta {
            file: "BENCH_test.json",
            key: "x_ms".to_owned(),
            base,
            fresh,
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
}

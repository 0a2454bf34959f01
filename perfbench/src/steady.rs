//! Steadiness report: runs each workload once per seed `1..=runs`, each
//! run in a fresh process exactly as a single benchmark invocation, and
//! prints every metric's median, quartiles and quartile spread (the
//! distance between first and third quartile as a share of the median).
//! This shows, with data, which metrics repeat within their bounds.

use crate::stats::{median, quartiles};
use crate::workload;
use obx_serve::json::{parse, Json};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Runs one child benchmark and returns its result object. `threads`,
/// when given, is the child's `OBX_THREADS`; otherwise it inherits this
/// process's.
pub fn child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: Option<usize>,
) -> BTreeMap<String, Json> {
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    let mut cmd = Command::new(exe);
    if let Some(n) = threads {
        cmd.env("OBX_THREADS", n.to_string());
    }
    let out = cmd
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("run a child benchmark");
    assert!(
        out.status.success(),
        "{workload} seed {seed} exited with {}",
        out.status
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    match parse(last) {
        Ok(Json::Obj(obj)) => obj,
        _ => panic!("{workload} seed {seed}: last line is not a JSON object: {last}"),
    }
}

pub fn run(runs: usize, only: Option<&str>, seconds: u64, trace: bool) {
    let names: Vec<&str> = match only {
        Some(w) => vec![w],
        None => workload::NAMES.to_vec(),
    };
    let mut report = String::from("{");
    for (wi, name) in names.iter().enumerate() {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut all_correct = true;
        for seed in 1..=runs {
            let result = child(name, seed as u64, seconds, trace, None);
            all_correct &= result.get("correct") == Some(&Json::Bool(true));
            let mut line = format!("{name} seed {seed}:");
            if let Some(Json::Obj(metrics)) = result.get("metrics") {
                for (metric, m) in metrics {
                    if let Json::Obj(m) = m {
                        if let Some(Json::Num(v)) = m.get("value") {
                            values.entry(metric.clone()).or_default().push(*v);
                            line.push_str(&format!(" {metric}={v:.4}"));
                        }
                    }
                }
            }
            eprintln!("{line}");
        }
        eprintln!("\n{name}: {runs} runs, seeds 1..={runs}, all correct: {all_correct}");
        eprintln!(
            "{:<32} {:>12} {:>12} {:>12} {:>8}",
            "metric", "median", "q1", "q3", "spread"
        );
        if wi > 0 {
            report.push_str(", ");
        }
        report.push_str(&format!("\"{name}\": {{\"correct\": {all_correct}"));
        for (metric, v) in &values {
            let med = median(v).unwrap_or(f64::NAN);
            let (q1, _, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN, f64::NAN));
            let spread = (q3 - q1) / med;
            eprintln!("{metric:<32} {med:>12.4} {q1:>12.4} {q3:>12.4} {spread:>8.4}");
            report.push_str(&format!(
                ", \"{metric}\": {{\"median\": {med}, \"q1\": {q1}, \"q3\": {q3}, \"spread\": {spread}}}"
            ));
        }
        report.push('}');
    }
    report.push('}');
    println!("{report}");
}

//! End-to-end and per-layer benchmark of `obx serve`.
//!
//! One process generates the workload's scenario directory from the
//! seed, computes the in-process oracle body of every request, boots an
//! in-process server over real HTTP (`obx_serve::start_multi`), and
//! drives it with two closed-loop clients, one per vCPU of the reference
//! host (never more than `nproc`). A fixed reference kernel, timed before
//! every server start and every explain, measures how fast the shared
//! host ran, and the end-to-end times are reported at the reference
//! host's speed (`speed.rs`). The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`,
//! with the end-to-end metrics under `--trace 0` and the per-layer
//! metrics under `--trace 1`. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload uni-search --seed 1 --seconds 45 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --steadiness 5 --workload hub-border --seconds 45
//! ```

mod client;
mod speed;
mod stats;
mod steady;
mod trace;
mod workload;

use client::{exchange, post_bytes, Reply};
use obx_core::budget::CancelToken;
use obx_core::scenario::load_dir;
use obx_core::service::run_explain;
use obx_core::ScoringEngine;
use obx_serve::{json, start_multi, ServeConfig, ServerHandle};
use speed::Kernel;
use stats::{
    judge, median, process_cpu_seconds, retained_rss_mib, tail, thread_cpu_seconds, Failure,
};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use workload::Workload;

/// Server starts per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// Closed-loop clients of the load phase, at most `nproc`. Two keep
/// both vCPUs of the reference host busy, so every run's figures pool
/// both vCPUs, whose neighbours slow them independently of each other.
const CLIENTS: usize = 2;

/// Scratch space, relative to the directory the benchmark runs from.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    steadiness: Option<usize>,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: obx-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      obx-perfbench --steadiness <runs> [--workload <name>] [--seconds <s>] [--trace <0|1>]",
        workload::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 45,
        trace: false,
        steadiness: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = || -> u64 {
            value
                .parse()
                .unwrap_or_else(|_| usage(&format!("{flag} takes a whole number, got {value:?}")))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = number(),
            "--seconds" => args.seconds = number().max(1),
            "--trace" => args.trace = number() != 0,
            "--steadiness" => args.steadiness = Some(number().max(2) as usize),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if let Some(w) = &args.workload {
        if !workload::NAMES.contains(&w.as_str()) {
            usage(&format!("unknown workload {w:?}"));
        }
    }
    args
}

fn main() {
    // One engine thread per request unless the caller says otherwise.
    // On a shared two-vCPU host, a request split over both vCPUs ran
    // 10-20% faster or slower from one run to the next, with where the
    // hypervisor placed them; on one vCPU it repeated within a few
    // percent. The info line records the value used; the traced run
    // adds one child run at the default thread count.
    if std::env::var_os("OBX_THREADS").is_none() {
        std::env::set_var("OBX_THREADS", "1");
    }
    let args = parse_args();
    if let Some(runs) = args.steadiness {
        steady::run(runs, args.workload.as_deref(), args.seconds, args.trace);
        return;
    }
    let Some(name) = args.workload.as_deref() else {
        usage("--workload is required");
    };
    let work = WorkDir(PathBuf::from(WORK_ROOT).join(format!(
        "{name}-seed{}-pid{}",
        args.seed,
        std::process::id()
    )));
    let w = workload::build(name, args.seed, &work.0).expect("workload name was validated");
    let result = run(&w, &args);
    drop(work);
    println!("{result}");
}

/// The run's scenario directory, removed when the run ends, a failed
/// one included.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Counts every request sent and every one that did not succeed.
#[derive(Default)]
struct Tally {
    attempted: AtomicUsize,
    failed: AtomicUsize,
}

impl Tally {
    fn record(&self, what: &str, outcome: Result<(), Failure>) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        match outcome {
            Ok(()) => true,
            Err(f) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                eprintln!("FAILED {what}: {f:?}");
                false
            }
        }
    }

    /// Adds the counts of a child run.
    fn absorb(&self, attempted: usize, failed: usize) {
        self.attempted.fetch_add(attempted, Ordering::Relaxed);
        self.failed.fetch_add(failed, Ordering::Relaxed);
    }

    fn counts(&self) -> (usize, usize) {
        (
            self.attempted.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
        )
    }
}

/// What `run_explain` prints in process for each request: the body the
/// server must return. Every workload request must complete (exit 0);
/// one that does not makes the workload itself invalid.
struct Oracles {
    warmup: Vec<u8>,
    /// One per entry of [`Workload::bodies`].
    bodies: Vec<Vec<u8>>,
}

fn oracles(w: &Workload) -> Oracles {
    let sc = load_dir(&w.dir).unwrap_or_else(|e| panic!("load {}: {e}", w.dir.display()));
    let oracle = |body: &str| {
        let req = json::explain_body(body).expect("workload body decodes").req;
        let out = run_explain(
            &sc.system,
            &sc.labels,
            &req,
            req.budget(&CancelToken::new()),
        )
        .unwrap_or_else(|e| panic!("oracle for {body}: {e}"));
        assert_eq!(out.exit_code, 0, "workload request must complete: {body}");
        out.stdout.into_bytes()
    };
    Oracles {
        warmup: oracle(&w.warmup),
        bodies: w.bodies.iter().map(|b| oracle(b)).collect(),
    }
}

fn server_config() -> ServeConfig {
    ServeConfig {
        max_inflight: 4,
        queue_depth: 16,
        queue_wait_ms: 120_000,
        read_timeout_ms: 120_000,
        write_timeout_ms: 120_000,
        ..ServeConfig::default()
    }
}

fn explain(addr: SocketAddr, body: &str) -> Result<Reply, Failure> {
    exchange(addr, &post_bytes("/explain", body)).map_err(Failure::Transport)
}

fn checked(reply: &Result<Reply, Failure>, oracle: &[u8]) -> Result<(), Failure> {
    match reply {
        Ok(r) => judge(r.status, r.exit.as_deref(), &r.body, oracle),
        Err(f) => Err(f.clone()),
    }
}

/// Starts the server and waits until the tenant is mounted and has
/// answered its warm-up explain. Returns the server and the time that
/// took.
fn setup(w: &Workload, oracles: &Oracles, tally: &Tally) -> (ServerHandle, Duration) {
    let started = Instant::now();
    let mounts = vec![(w.tenant.to_owned(), w.dir.clone())];
    let server = start_multi(mounts, None, server_config()).expect("server starts");
    let reply = explain(server.addr(), &w.warmup);
    tally.record("warm-up", checked(&reply, &oracles.warmup));
    (server, started.elapsed())
}

/// One served explain of the load phase.
struct Sample {
    /// Index into [`Workload::bodies`].
    request: usize,
    ms: f64,
    ok: bool,
}

/// The load phase's results, as measured on this host.
struct Load {
    samples: Vec<Sample>,
    /// Wall time, less the clients' kernel probes.
    wall_s: f64,
    /// CPU time of every thread but the clients', which run the probes
    /// and the HTTP client: the server's CPU time.
    cpu_s: f64,
    rss_mib: f64,
    /// The clients' kernel times, in milliseconds.
    kernel_ms: Vec<f64>,
}

/// A served `POST /reload` of the tenant; its time in milliseconds when
/// it succeeded.
fn reload(addr: SocketAddr, tenant: &str, tally: &Tally) -> Option<f64> {
    let body = format!(r#"{{"scenario": "{tenant}"}}"#);
    let reply = exchange(addr, &post_bytes("/reload", &body)).map_err(Failure::Transport);
    let outcome = match &reply {
        Ok(r) if r.status == 200 => Ok(()),
        Ok(r) => Err(Failure::Status(r.status)),
        Err(f) => Err(f.clone()),
    };
    let ok = tally.record(&format!("reload {tenant}"), outcome);
    reply
        .ok()
        .filter(|_| ok)
        .map(|r| r.elapsed.as_secs_f64() * 1e3)
}

/// The load phase's client count: [`CLIENTS`], but never more than the
/// host's vCPUs.
fn clients() -> usize {
    CLIENTS.min(nproc())
}

/// Closed-loop clients send a fixed number of explains between them,
/// each on a fresh connection after the client's previous response.
/// They take the explains in order from one shared counter, cycling
/// through the workload's requests, and check each body against its
/// oracle. Each client times the reference kernel before each explain.
fn load_phase(
    w: &Workload,
    addr: SocketAddr,
    oracles: &Oracles,
    seconds: u64,
    tally: &Tally,
) -> Load {
    let explains = w.explains(seconds);
    let next = AtomicUsize::new(0);
    let client = || {
        let cpu0 = thread_cpu_seconds();
        let mut kernel = Kernel::new();
        let mut kernel_ms = Vec::new();
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= explains {
                return (mine, kernel_ms, thread_cpu_seconds() - cpu0);
            }
            kernel_ms.push(kernel.time_ms());
            let request = i % w.bodies.len();
            let reply = explain(addr, &w.bodies[request]);
            let outcome = checked(&reply, &oracles.bodies[request]);
            let ok = tally.record(&format!("explain #{request}"), outcome);
            mine.push(Sample {
                request,
                ms: reply.map_or(f64::NAN, |r| r.elapsed.as_secs_f64() * 1e3),
                ok,
            });
        }
    };
    let cpu0 = process_cpu_seconds();
    let started = Instant::now();
    let (mut samples, mut kernel_ms, mut client_cpu_s) = (Vec::new(), Vec::new(), 0.0);
    std::thread::scope(|scope| {
        let running: Vec<_> = (0..clients()).map(|_| scope.spawn(client)).collect();
        for c in running {
            let (s, k, cpu) = c.join().expect("client thread");
            samples.extend(s);
            kernel_ms.extend(k);
            client_cpu_s += cpu;
        }
    });
    // Each client spends its own probe time, in parallel with the other.
    let probe_s = kernel_ms.iter().sum::<f64>() / 1e3 / clients() as f64;
    let wall_s = started.elapsed().as_secs_f64() - probe_s;
    let cpu_s = process_cpu_seconds() - cpu0 - client_cpu_s;
    Load {
        samples,
        wall_s,
        cpu_s,
        rss_mib: retained_rss_mib(),
        kernel_ms,
    }
}

/// `"name": {"value": v, "unit": u}` entries of the result's `metrics`.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records a metric. A value that could not be measured (too few
    /// samples for a tail, say) aborts the run rather than print a
    /// number that was never observed.
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            value.is_finite(),
            "{name} has no measured value; is --seconds too small for this workload?"
        );
        self.0.push((name.to_owned(), value, unit));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#);
        }
        out.push('}');
        out
    }
}

fn run(w: &Workload, args: &Args) -> String {
    let tally = Tally::default();
    let oracles = oracles(w);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kernel = Kernel::new();
    let mut kernel_ms = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(s) = server.take() {
            ServerHandle::shutdown(s);
        }
        kernel_ms.push(kernel.time_ms());
        let (s, took) = setup(w, &oracles, &tally);
        setup_s.push(took.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    // Free its table: the load's resident-memory reading is the
    // program's alone.
    drop(kernel);
    let load = load_phase(w, server.addr(), &oracles, args.seconds, &tally);
    kernel_ms.extend(&load.kernel_ms);
    let slowdown = speed::slowdown(&kernel_ms);

    let served: Vec<f64> = load.samples.iter().filter(|s| s.ok).map(|s| s.ms).collect();
    let (tail_ms, tail_pct) =
        tail(&served).expect("a tail needs 11 completed explains; is --seconds too small?");
    // The end-to-end figures as measured on this host; the result gives
    // them at the reference host's speed: times divided by the run's
    // slowdown, the rate multiplied by it.
    let completed = served.len() as f64;
    let measured = [
        ("setup_s", median(&setup_s).unwrap_or(f64::NAN), "s"),
        ("latency_p50_ms", median(&served).unwrap_or(f64::NAN), "ms"),
        ("latency_tail_ms", tail_ms, "ms"),
        ("throughput_rps", completed / load.wall_s, "1/s"),
        ("cpu_ms_per_req", load.cpu_s * 1e3 / completed, "ms"),
    ];
    let mut metrics = Metrics::default();
    let mut split = "null".to_owned();
    if args.trace {
        split = trace::per_layer(w, &server, &load, &oracles, &tally, args, &mut metrics);
    } else {
        for (name, value, unit) in measured {
            let at_reference = match unit {
                "1/s" => value * slowdown,
                _ => value / slowdown,
            };
            metrics.put(name, at_reference, unit);
        }
        metrics.put("ok_ratio", completed / load.samples.len() as f64, "ratio");
    }
    let measured = measured
        .iter()
        .map(|(name, value, _)| format!(r#""{name}": {value}"#))
        .collect::<Vec<_>>()
        .join(", ");
    server.shutdown();

    let (attempted, failed) = tally.counts();
    // Host facts and inputs, on the line before the result.
    println!(
        r#"{{"workload": "{}", "seed": {}, "seconds": {}, "trace": {}, "nproc": {}, "engine_threads": {}, "obx_threads": {:?}, "obs_enabled": {}, "setups": {SETUPS}, "clients": {}, "explains": {}, "tail_percentile": {tail_pct:.2}, "tail_samples": {}, "load_wall_s": {:.3}, "kernel_probes": {}, "host_slowdown": {slowdown}, "measured": {{{measured}}}, "split": {split}}}"#,
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        ScoringEngine::new().threads(),
        std::env::var("OBX_THREADS").unwrap_or_default(),
        obx_util::obs::enabled(),
        clients(),
        load.samples.len(),
        served.len(),
        load.wall_s,
        kernel_ms.len(),
    );
    format!(
        r#"{{"correct": {}, "attempted": {attempted}, "failed": {failed}, "metrics": {}}}"#,
        failed == 0,
        metrics.to_json()
    )
}

/// The host's vCPUs: the engine's and the border pool's thread count
/// when `OBX_THREADS` is not set.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The directory traced runs write their span files to.
fn trace_dir() -> PathBuf {
    Path::new(WORK_ROOT).join("traces")
}

//! Service benchmark: closed-loop load against a live `obx serve`
//! instance, with a single-line JSON summary written to
//! `BENCH_serve.json` at the workspace root.
//!
//! Three phases, all against a 600-student generated university scenario
//! served from a scratch directory exactly as a user-authored one:
//!
//! 1. **Smoke** — `/healthz`, `/metrics`, and the same `/explain` twice,
//!    on a cold and then a warm epoch prepare, each body byte-identical
//!    to [`obx_core::service::run_explain`] on the same scenario (the
//!    service contract: the wire adds headers, never bytes).
//! 2. **Closed-loop load** — `CLIENTS` worker threads each issue
//!    `REQS_PER_CLIENT` back-to-back explains (a new connection per
//!    request, next request only after the previous response). Repeated
//!    `PASSES` times; the best per-pass p50/p99/mean latency and
//!    throughput are kept, interleaving machine noise out the same way
//!    the other bench bins do. Every response must be `200` — the queue
//!    is sized so this phase never sheds.
//! 3. **Overload** — a second server with `max_inflight 1, queue_depth
//!    1` takes a simultaneous burst; the occupant holds the slot via a
//!    server-side timeout budget, so all but the queued request must be
//!    shed with structured `OBX32x` bodies while at least one request
//!    still completes. This pins the shed-rate numbers to an actual
//!    load-shedding event, not a lucky fast pass.
//! 4. **Multi-tenant closed loop** — three tenants in one process under
//!    skewed load (4 clients on the hot tenant, 1 on each cold one) with
//!    per-tenant bulkheads engaged; every request must still complete,
//!    and the cross-tenant p50/p99 land in `mt_p50_ms`/`mt_p99_ms`.
//! 5. **Breaker** — a tenant whose requests repeatedly burn the server's
//!    wall-clock ceiling trips its circuit breaker; the shed is pinned
//!    (`OBX325` observed, `serve/tenant/*/breaker_open` exported) while
//!    a co-tenant keeps completing.
//!
//! Hard gates (exit 1): smoke byte-identity, zero sheds under the sized
//! load, at least one shed *and* one completion under overload, every
//! shed body carrying an `OBX32x` code, zero failures in the tenant
//! phase, an actual breaker trip, and a clean drain at the end.
//!
//! Usage: `cargo run --release -p obx-bench --bin serve`

use obx_bench::harness::Report;
use obx_core::budget::CancelToken;
use obx_core::scenario::{load_dir, write_scenario_dir};
use obx_core::service::{run_explain, ExplainRequest};
use obx_datagen::{university_scenario, UniversityParams};
use obx_serve::{start, start_multi, ServeConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

const N_STUDENTS: usize = 600;
const CLIENTS: usize = 6;
const REQS_PER_CLIENT: usize = 4;
const PASSES: usize = 3;
const BURST: usize = 8;

/// The benchmarked request: radius 1, beam, top 3, under a deterministic
/// evaluator-call budget — the interactive shape the service exists for.
/// The cap is on *evals*, not wall time, so the search stops at the same
/// point every run and the response stays byte-identical between the
/// wire and the in-process oracle.
const MAX_EVALS: u64 = 25_000;
const BODY: &str = r#"{"radius": 1, "top": 3, "max_evals": 25000}"#;

fn oracle_request() -> ExplainRequest {
    ExplainRequest {
        radius: 1,
        top: 3,
        max_evals: Some(MAX_EVALS),
        ..ExplainRequest::default()
    }
}

/// One full HTTP exchange on a fresh connection; returns
/// `(status, full head, body)`.
fn exchange(addr: SocketAddr, raw: &[u8]) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to bench server");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(raw).expect("write request");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read response");
    let (head, body) = reply
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("malformed response: {reply:?}"));
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line: {head:?}"));
    (status, head.to_owned(), body.to_owned())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n").as_bytes(),
    )
}

fn post_explain(addr: SocketAddr, body: &str, client: &str) -> (u16, String, String) {
    exchange(
        addr,
        format!(
            "POST /explain HTTP/1.1\r\nconnection: close\r\nx-obx-client: {client}\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

struct PassStats {
    p50_ms: f64,
    p99_ms: f64,
    mean_ms: f64,
    throughput_rps: f64,
}

impl PassStats {
    /// Stats of one pass's request latencies over `wall_s` seconds.
    fn of(mut lat: Vec<f64>, wall_s: f64) -> Self {
        lat.sort_by(|a, b| a.total_cmp(b));
        let percentile = |p: f64| lat[((lat.len() as f64 - 1.0) * p).round() as usize];
        PassStats {
            p50_ms: percentile(0.50),
            p99_ms: percentile(0.99),
            mean_ms: lat.iter().sum::<f64>() / lat.len() as f64,
            throughput_rps: lat.len() as f64 / wall_s.max(1e-9),
        }
    }
}

/// One closed-loop pass: one worker thread per `(body, client)` issues
/// `REQS_PER_CLIENT` back-to-back explains, and every request must come
/// back `200` — `phase` queues are sized for the offered load.
fn closed_loop(addr: SocketAddr, workers: Vec<(String, String)>, phase: &str) -> PassStats {
    let t0 = Instant::now();
    let handles: Vec<_> = workers
        .into_iter()
        .map(|(body, client)| {
            std::thread::spawn(move || {
                (0..REQS_PER_CLIENT)
                    .map(|_| {
                        let r0 = Instant::now();
                        let (status, _, reply) = post_explain(addr, &body, &client);
                        let ms = r0.elapsed().as_secs_f64() * 1e3;
                        (status, reply, ms)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut lat = Vec::new();
    for h in handles {
        for (status, reply, ms) in h.join().expect("load client panicked") {
            assert_eq!(status, 200, "{phase} must never shed: {reply}");
            lat.push(ms);
        }
    }
    PassStats::of(lat, t0.elapsed().as_secs_f64())
}

/// Phase 2: the closed-loop load pass against the sized server.
fn load_pass(addr: SocketAddr) -> PassStats {
    let workers = (0..CLIENTS)
        .map(|c| (BODY.to_owned(), format!("client{c}")))
        .collect();
    closed_loop(addr, workers, "load pass")
}

/// Smoke: health, metrics, and the byte-identity contract.
fn smoke(addr: SocketAddr, dir: &Path) {
    let (status, _, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "healthz: {body}");
    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200, "metrics: {body}");
    assert!(
        body.contains("serve/requests"),
        "metrics must export the serve counters: {body}"
    );
    let scenario = load_dir(dir).expect("bench scenario round-trips");
    let req = oracle_request();
    let expected = run_explain(
        &scenario.system,
        &scenario.labels,
        &req,
        req.budget(&CancelToken::new()),
    )
    .expect("oracle explain succeeds");
    // Twice: the first explain fills the epoch's shared prepare, the
    // second is served from it. Both must be the oracle's bytes.
    for pass in ["cold", "warm"] {
        let (status, head, body) = post_explain(addr, BODY, "smoke");
        assert_eq!(status, 200, "smoke explain ({pass}): {body}");
        assert!(
            head.to_lowercase().contains("x-obx-epoch: 1"),
            "smoke response must carry its epoch: {head}"
        );
        if body != expected.stdout {
            eprintln!("FAIL: {pass} served explain is not byte-identical to the service oracle");
            eprintln!("-- served --\n{body}\n-- oracle --\n{}", expected.stdout);
            std::process::exit(1);
        }
        let (_, _, tenants) = get(addr, "/tenants");
        let held = tenants
            .split_once("\"prepared_bytes\":")
            .is_some_and(|(_, tail)| !tail.starts_with('0'));
        assert!(
            held,
            "the {pass} explain leaves the prepare held: {tenants}"
        );
    }
    eprintln!(
        "smoke: healthz + metrics ok, cold and warm explains byte-identical ({} bytes)",
        expected.stdout.len()
    );
}

/// Phase 4: three tenants, one process, skewed closed-loop load. Four
/// clients hammer `hot`, one each drives `cold1`/`cold2`; the bulkhead
/// (tenant_max_inflight 2 of a global 4) keeps the cold tenants' slots
/// guaranteed. Everything must complete — the tenant queues are sized
/// for the offered load — and the latency distribution across all three
/// tenants is the reported number.
fn multi_tenant_pass(dir: &Path) -> PassStats {
    let server = start_multi(
        vec![
            ("hot".to_owned(), dir.to_path_buf()),
            ("cold1".to_owned(), dir.to_path_buf()),
            ("cold2".to_owned(), dir.to_path_buf()),
        ],
        None,
        ServeConfig {
            max_inflight: 4,
            queue_depth: 2 * CLIENTS,
            tenant_max_inflight: Some(2),
            tenant_queue_depth: Some(2 * CLIENTS),
            queue_wait_ms: 30_000,
            read_timeout_ms: 30_000,
            write_timeout_ms: 30_000,
            ..ServeConfig::default()
        },
    )
    .expect("multi-tenant bench server starts");
    let addr = server.addr();
    let workers = ["hot", "hot", "hot", "hot", "cold1", "cold2"]
        .iter()
        .enumerate()
        .map(|(c, tenant)| {
            let body = format!(
                r#"{{"radius": 1, "top": 3, "max_evals": {MAX_EVALS}, "scenario": "{tenant}", "client": "mt{c}"}}"#
            );
            (body, format!("mt{c}"))
        })
        .collect();
    let stats = closed_loop(addr, workers, "tenant phase");
    server.shutdown();
    stats
}

/// Phase 5: trip a tenant's circuit breaker with requests that burn the
/// server's wall-clock ceiling, and pin the isolation: the brittle
/// tenant sheds `OBX325`, the steady co-tenant keeps completing.
/// Returns `(breaker_sheds_observed, co_tenant_completed)`.
fn breaker_phase(dir: &Path) -> (usize, bool) {
    let server = start_multi(
        vec![
            ("brittle".to_owned(), dir.to_path_buf()),
            ("steady".to_owned(), dir.to_path_buf()),
        ],
        None,
        ServeConfig {
            max_inflight: 2,
            queue_depth: 8,
            // Every request is ceilinged at 120 ms of wall clock; a
            // request that burns the whole ceiling counts as a tenant
            // failure, and two consecutive failures trip the breaker.
            request_timeout_ms: Some(120),
            breaker_threshold: 2,
            breaker_open_ms: 60_000,
            queue_wait_ms: 30_000,
            read_timeout_ms: 30_000,
            write_timeout_ms: 30_000,
            ..ServeConfig::default()
        },
    )
    .expect("breaker bench server starts");
    let addr = server.addr();
    // Exhaustive radius-2 with a fat budget cannot finish in 120 ms on a
    // 600-student corpus: each of these degrades at the ceiling (200,
    // exit 2) and feeds the breaker.
    let heavy =
        r#"{"radius": 2, "strategy": "exhaustive", "timeout_ms": 60000, "scenario": "brittle"}"#;
    for i in 0..2 {
        let (status, _, body) = post_explain(addr, heavy, &format!("heavy{i}"));
        assert_eq!(status, 200, "ceiling-burning request still answers: {body}");
    }
    let mut breaker_sheds = 0usize;
    let (status, _, body) = post_explain(addr, r#"{"scenario": "brittle"}"#, "after");
    if status == 503 && body.contains("OBX325") {
        breaker_sheds += 1;
    } else {
        eprintln!("breaker phase: expected OBX325 after two ceiling burns, got {status}: {body}");
    }
    let (status, _, _) = post_explain(
        addr,
        &format!(r#"{{"radius": 1, "top": 3, "max_evals": {MAX_EVALS}, "scenario": "steady"}}"#),
        "steady",
    );
    let co_tenant_ok = status == 200;
    let (_, _, metrics) = get(addr, "/metrics");
    if !metrics.contains("serve/tenant/brittle/breaker_open") {
        eprintln!("breaker phase: trip counter missing from /metrics");
        breaker_sheds = 0;
    }
    server.shutdown();
    (breaker_sheds, co_tenant_ok)
}

/// Overload: burst a tiny server; count structured sheds vs completions.
fn overload(server: &ServerHandle) -> (usize, usize) {
    // The occupant runs under a 1500 ms budget (anytime: it returns
    // best-so-far, exit 2), holding the single slot long enough that the
    // 150 ms queue patience and depth-1 queue must shed the rest.
    let heavy = r#"{"radius": 2, "strategy": "exhaustive", "timeout_ms": 1500}"#;
    let addr = server.addr();
    let handles: Vec<_> = (0..BURST)
        .map(|i| {
            std::thread::spawn(move || {
                let body = if i == 0 { heavy } else { BODY };
                post_explain(addr, body, &format!("burst{i}"))
            })
        })
        .collect();
    let mut shed = 0usize;
    let mut completed = 0usize;
    for h in handles {
        let (status, _, body) = h.join().expect("burst client panicked");
        match status {
            200 => completed += 1,
            429 => {
                assert!(
                    body.contains("OBX32"),
                    "shed body must carry a stable OBX32x code: {body}"
                );
                assert!(
                    body.contains("\"termination\":\"degraded"),
                    "shed body must be degraded-shaped: {body}"
                );
                shed += 1;
            }
            other => panic!("overload burst: unexpected status {other}: {body}"),
        }
    }
    (shed, completed)
}

fn main() {
    let scenario = university_scenario(UniversityParams {
        n_students: N_STUDENTS,
        ..UniversityParams::default()
    });
    let dir = std::env::temp_dir().join(format!("obx-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_scenario_dir(&dir, &scenario.system, &scenario.labels).expect("write bench scenario dir");

    // Sized for the load phase: queue deeper than the client count so
    // nothing sheds and the latency numbers measure work, not patience.
    let server = start(
        &dir,
        ServeConfig {
            max_inflight: 4,
            queue_depth: 2 * CLIENTS,
            queue_wait_ms: 30_000,
            read_timeout_ms: 30_000,
            write_timeout_ms: 30_000,
            ..ServeConfig::default()
        },
    )
    .expect("bench server starts");
    let addr = server.addr();
    eprintln!("serving {N_STUDENTS}-student scenario on http://{addr}");

    smoke(addr, &dir);

    let mut best = load_pass(addr);
    for pass in 1..PASSES {
        let s = load_pass(addr);
        eprintln!(
            "pass {pass}: p50 {:.1} ms, p99 {:.1} ms, {:.1} req/s",
            s.p50_ms, s.p99_ms, s.throughput_rps
        );
        if s.p50_ms < best.p50_ms {
            best.p50_ms = s.p50_ms;
        }
        if s.p99_ms < best.p99_ms {
            best.p99_ms = s.p99_ms;
        }
        if s.mean_ms < best.mean_ms {
            best.mean_ms = s.mean_ms;
        }
        if s.throughput_rps > best.throughput_rps {
            best.throughput_rps = s.throughput_rps;
        }
    }
    server.shutdown();

    // Overload runs on its own starved instance so its sheds cannot
    // pollute the latency numbers above.
    let tiny = start(
        &dir,
        ServeConfig {
            max_inflight: 1,
            queue_depth: 1,
            queue_wait_ms: 150,
            read_timeout_ms: 30_000,
            write_timeout_ms: 30_000,
            ..ServeConfig::default()
        },
    )
    .expect("overload server starts");
    let (shed, completed) = overload(&tiny);
    tiny.shutdown();

    let mt = multi_tenant_pass(&dir);
    let (breaker_sheds, co_tenant_ok) = breaker_phase(&dir);
    let _ = std::fs::remove_dir_all(&dir);

    Report::new("serve")
        .count("n_students", N_STUDENTS as u64)
        .count("clients", CLIENTS as u64)
        .count("requests_per_pass", (CLIENTS * REQS_PER_CLIENT) as u64)
        .count("passes", PASSES as u64)
        .ms("p50_ms", best.p50_ms)
        .ms("p99_ms", best.p99_ms)
        .ms("mean_ms", best.mean_ms)
        .real("throughput_rps", best.throughput_rps, 2)
        .count("overload_burst", BURST as u64)
        .count("overload_shed", shed as u64)
        .count("overload_completed", completed as u64)
        .real("shed_rate", shed as f64 / BURST as f64, 3)
        .count("mt_tenants", 3)
        .ms("mt_p50_ms", mt.p50_ms)
        .ms("mt_p99_ms", mt.p99_ms)
        .real("mt_throughput_rps", mt.throughput_rps, 2)
        .count("breaker_sheds", breaker_sheds as u64)
        .flag("breaker_co_tenant_ok", co_tenant_ok)
        .flag("smoke_identical", true)
        .finish("serve");

    // Hard gates beyond the asserts above: overload must actually have
    // shed and actually have served someone.
    let mut failed = false;
    if shed == 0 {
        eprintln!("FAIL: overload burst shed nothing — load-shedding did not engage");
        failed = true;
    }
    if completed == 0 {
        eprintln!("FAIL: overload burst completed nothing — shedding starved the slot");
        failed = true;
    }
    if breaker_sheds == 0 {
        eprintln!("FAIL: the breaker phase never tripped — tenant isolation did not engage");
        failed = true;
    }
    if !co_tenant_ok {
        eprintln!("FAIL: the steady co-tenant was dragged down by the brittle tenant's breaker");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

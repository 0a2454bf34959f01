//! Resilience proof for the always-on explanation service.
//!
//! These tests run a real `obx-serve` server over real sockets and throw
//! chaos at it — injected panics, pre-fired cancellations, slow-loris
//! clients, reload storms, overload — and assert the three service
//! invariants:
//!
//! 1. the process never crashes or deadlocks: after every storm the
//!    server still answers a plain request correctly;
//! 2. shed/failed requests get *structured* responses (stable `OBX32x`
//!    codes, degraded-termination-shaped bodies), never a dropped
//!    connection with work half-done;
//! 3. every completed `/explain` body is **byte-identical** to the
//!    one-shot CLI/service output for the epoch snapshot named in its
//!    `x-obx-epoch` header, no matter how many reloads raced it.
//!
//! The fault hooks (`x-obx-fault: panic | cancel | sleep:<ms>`) are
//! compiled via the serve crate's `fault-injection` feature, which this
//! test crate enables.

use obx_core::budget::CancelToken;
use obx_core::scenario::write_paper_example;
use obx_core::service::{run_explain, ExplainRequest};
use obx_serve::{start, ServeConfig, ServerHandle};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- helpers

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("obx-serve-resilience-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two valid scenario variants over the paper example: variant 0 is the
/// paper labelling, variant 1 flips D50 to negative — different borders,
/// different scores, so serving the wrong epoch's answer is caught.
fn write_variant(dir: &Path, variant: usize) {
    write_paper_example(dir).unwrap();
    if variant == 1 {
        std::fs::write(
            dir.join("labels.obx"),
            "+ A10\n+ B80\n+ C12\n- D50\n- E25\n",
        )
        .unwrap();
    }
}

/// The canonical request the chaos workers send.
fn chaos_request() -> ExplainRequest {
    ExplainRequest {
        top: 3,
        ..ExplainRequest::default()
    }
}

/// The one-shot service output (== CLI stdout) for a variant: the oracle
/// every served body is compared against, recomputed from a private copy
/// of the variant's files.
fn expected_output(variant: usize) -> String {
    let dir = scratch_dir(&format!("oracle-{variant}"));
    write_variant(&dir, variant);
    let scenario = obx_core::scenario::load_dir(&dir).unwrap();
    let req = chaos_request();
    let out = run_explain(
        &scenario.system,
        &scenario.labels,
        &req,
        req.budget(&CancelToken::new()),
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    out.stdout
}

/// One-shot HTTP client: returns `(status, lowercased headers, body)`.
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra: &[(&str, &str)],
    body: &str,
) -> (u16, HashMap<String, String>, String) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut stream = stream;
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\ncontent-length: {}\r\n",
        body.len()
    );
    for (name, value) in extra {
        req.push_str(&format!("{name}: {value}\r\n"));
    }
    req.push_str("\r\n");
    req.push_str(body);
    stream.write_all(req.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, payload) = raw
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in {raw:?}"));
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable status line in {head:?}"));
    let mut headers = HashMap::new();
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_owned());
        }
    }
    (status, headers, payload.to_owned())
}

fn epoch_of(headers: &HashMap<String, String>) -> u64 {
    headers
        .get("x-obx-epoch")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("response missing x-obx-epoch: {headers:?}"))
}

/// Shared epoch→variant journal. Epoch 1 (boot) is always variant 0; the
/// reloader records each reload's resulting epoch. Lookups spin briefly:
/// a worker can observe a fresh epoch in a response header moments before
/// the reloader's own `/reload` response returns.
#[derive(Clone)]
struct EpochJournal(Arc<Mutex<HashMap<u64, usize>>>);

impl EpochJournal {
    fn new() -> Self {
        let mut map = HashMap::new();
        map.insert(1u64, 0usize);
        Self(Arc::new(Mutex::new(map)))
    }

    fn record(&self, epoch: u64, variant: usize) {
        self.0.lock().unwrap().insert(epoch, variant);
    }

    fn variant_of(&self, epoch: u64) -> usize {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(v) = self.0.lock().unwrap().get(&epoch) {
                return *v;
            }
            assert!(
                Instant::now() < deadline,
                "epoch {epoch} never appeared in the reload journal"
            );
            thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Injected panics the chaos saboteur sends back to back.
const SABOTEUR_PANICS: u32 = 8;

fn chaos_config() -> ServeConfig {
    ServeConfig {
        max_inflight: 4,
        queue_depth: 32,
        queue_wait_ms: 10_000,
        read_timeout_ms: 400,
        write_timeout_ms: 2_000,
        grace_ms: 5_000,
        // The breaker counts consecutive failures, and the saboteur's
        // panics are consecutive whenever no honest request finishes
        // between them (the default threshold of 5 tripped that way,
        // turning the assertions below into 503 OBX325). The chaos test
        // checks quarantine, not the breaker, so the threshold sits
        // above every panic it sends; the breaker's own trip is tested
        // in `obx_serve::server` with a threshold of 3.
        breaker_threshold: SABOTEUR_PANICS + 1,
        ..ServeConfig::default()
    }
}

/// Asserts a served 200 body matches the one-shot oracle for the epoch
/// the response says it ran on.
fn assert_byte_identical(
    body: &str,
    headers: &HashMap<String, String>,
    journal: &EpochJournal,
    oracles: &[String; 2],
) {
    let epoch = epoch_of(headers);
    let variant = journal.variant_of(epoch);
    assert_eq!(
        body, oracles[variant],
        "epoch {epoch} (variant {variant}): served body diverged from one-shot output"
    );
}

// ------------------------------------------------------------------ chaos

#[test]
fn server_survives_chaos_and_stays_byte_identical_per_epoch() {
    let oracles = [expected_output(0), expected_output(1)];
    let dir = scratch_dir("chaos");
    write_variant(&dir, 0);
    let server = start(&dir, chaos_config()).unwrap();
    let addr = server.addr();
    let journal = EpochJournal::new();
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();

    // Reload storm: alternate the scenario variants under live traffic.
    {
        let dir = dir.clone();
        let journal = journal.clone();
        threads.push(thread::spawn(move || {
            for i in 1..=6usize {
                let variant = i % 2;
                write_variant(&dir, variant);
                let (status, headers, body) = http(addr, "POST", "/reload", &[], "");
                assert_eq!(status, 200, "reload {i}: {body}");
                journal.record(epoch_of(&headers), variant);
                thread::sleep(Duration::from_millis(25));
            }
        }));
    }

    // Honest workers: concurrent explains, each checked byte-for-byte
    // against the oracle of the epoch it actually ran on.
    for w in 0..3 {
        let journal = journal.clone();
        let oracles = oracles.clone();
        let stop = Arc::clone(&stop);
        threads.push(thread::spawn(move || {
            let body_json = format!("{{\"top\": 3, \"client\": \"worker-{w}\"}}");
            let mut served = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let (status, headers, body) = http(addr, "POST", "/explain", &[], &body_json);
                match status {
                    200 => {
                        assert_byte_identical(&body, &headers, &journal, &oracles);
                        served += 1;
                    }
                    429 | 503 => {
                        assert!(body.contains("OBX32"), "shed body unstructured: {body}")
                    }
                    other => panic!("worker-{w}: unexpected status {other}: {body}"),
                }
            }
            assert!(served > 0, "worker-{w} never got a single response through");
        }));
    }

    // Saboteur: injected panics must be quarantined, never fatal.
    threads.push(thread::spawn(move || {
        for _ in 0..SABOTEUR_PANICS {
            let (status, _, body) =
                http(addr, "POST", "/explain", &[("x-obx-fault", "panic")], "{}");
            assert_eq!(status, 500, "{body}");
            assert!(body.contains("OBX323"), "{body}");
        }
    }));

    // Mid-request cancellation: the pre-fired token degrades the run to
    // best-so-far with the CLI's exact footer, exit 2 in the header.
    threads.push(thread::spawn(move || {
        for _ in 0..8 {
            let (status, headers, body) =
                http(addr, "POST", "/explain", &[("x-obx-fault", "cancel")], "{}");
            assert_eq!(status, 200, "{body}");
            assert_eq!(headers.get("x-obx-exit").map(String::as_str), Some("2"));
            assert!(body.contains("search stopped early: cancelled"), "{body}");
        }
    }));

    // Slow loris: dribble half a request and stall. The read timeout must
    // cut each one off; the connection dies with a structured 408 (or a
    // plain close), and the server never wedges a handler thread on it.
    threads.push(thread::spawn(move || {
        for _ in 0..4 {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            stream.write_all(b"POST /explain HTT").unwrap();
            thread::sleep(Duration::from_millis(600)); // > read_timeout_ms
            let mut out = String::new();
            let _ = stream.read_to_string(&mut out);
            if !out.is_empty() {
                assert!(out.contains("OBX305"), "loris got: {out}");
            }
        }
    }));

    // Let the chaos overlap, then stop the workers and join everything.
    thread::sleep(Duration::from_millis(700));
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        t.join().unwrap();
    }

    // Invariant 1: after the storm the server still answers, correctly.
    let (status, headers, body) = http(addr, "POST", "/explain", &[], "{\"top\": 3}");
    assert_eq!(status, 200, "{body}");
    assert_byte_identical(&body, &headers, &journal, &oracles);

    // And the damage is visible in the metrics.
    let (_, _, metrics) = http(addr, "GET", "/metrics", &[], "");
    assert!(metrics.contains("serve/quarantined"), "{metrics}");
    assert!(metrics.contains("serve/reloads"), "{metrics}");
    // The threshold above held: the breaker never opened. (The counter
    // is process-wide; no other test in this file injects panics.)
    assert!(
        !metrics.contains("serve/tenant/default/breaker_open"),
        "the chaos breaker opened: {metrics}"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// --------------------------------------------------------------- overload

#[test]
fn overload_sheds_with_structured_codes_and_recovers() {
    let dir = scratch_dir("overload");
    write_variant(&dir, 0);
    let config = ServeConfig {
        max_inflight: 1,
        queue_depth: 1,
        queue_wait_ms: 150,
        read_timeout_ms: 3_000,
        grace_ms: 3_000,
        ..ServeConfig::default()
    };
    let server = start(&dir, config).unwrap();
    let addr = server.addr();

    // t1 occupies the single execution slot for 900ms.
    let t1 = thread::spawn(move || {
        http(
            addr,
            "POST",
            "/explain",
            &[("x-obx-fault", "sleep:900")],
            "{}",
        )
    });
    thread::sleep(Duration::from_millis(150));

    // t2 fills the single queue slot; its 150ms patience expires long
    // before t1 finishes → shed as a queue-wait timeout.
    let t2 = thread::spawn(move || http(addr, "POST", "/explain", &[], "{}"));
    thread::sleep(Duration::from_millis(50));

    // t3 finds the queue full → shed immediately.
    let (status, headers, body) = http(addr, "POST", "/explain", &[], "{}");
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("OBX320"), "{body}");
    assert!(
        body.contains("\"termination\":\"degraded"),
        "shed body must be degraded-termination shaped: {body}"
    );
    assert!(headers.contains_key("retry-after"), "{headers:?}");

    let (status, _, body) = t2.join().unwrap();
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("OBX321"), "{body}");

    // The occupant itself completes fine, and capacity comes back.
    let (status, _, body) = t1.join().unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, _, body) = http(addr, "POST", "/explain", &[], "{}");
    assert_eq!(status, 200, "{body}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------------ drain

#[test]
fn drain_finishes_inflight_work_then_refuses_new_requests() {
    let dir = scratch_dir("drain");
    write_variant(&dir, 0);
    let config = ServeConfig {
        max_inflight: 2,
        read_timeout_ms: 400,
        grace_ms: 5_000,
        ..ServeConfig::default()
    };
    let server = start(&dir, config).unwrap();
    let addr = server.addr();

    // An in-flight request started before the drain...
    let inflight = thread::spawn(move || {
        http(
            addr,
            "POST",
            "/explain",
            &[("x-obx-fault", "sleep:500")],
            "{}",
        )
    });
    thread::sleep(Duration::from_millis(150));

    // ...survives the drain (grace window) and completes normally.
    server.drain();
    let (status, _, body) = inflight.join().unwrap();
    assert_eq!(
        status, 200,
        "in-flight request must finish through drain: {body}"
    );

    // New work is refused: connection refused outright, or a structured
    // draining shed if a racing connection slipped in.
    if let Ok(mut stream) = TcpStream::connect(addr) {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let _ = stream.write_all(
            b"POST /explain HTTP/1.1\r\nconnection: close\r\ncontent-length: 2\r\n\r\n{}",
        );
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        if !out.is_empty() {
            assert!(
                out.contains("503") || out.contains("OBX322"),
                "post-drain response not a structured refusal: {out}"
            );
        }
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------- epoch-consistency property

proptest! {
    // Each case boots a real server; keep the count modest.
    #![proptest_config(ProptestConfig { cases: 3 })]

    /// Satellite invariant: under interleaved `reload` and N concurrent
    /// `explain`s, every response reflects exactly one epoch — the body
    /// equals the one-shot output recomputed for the scenario variant of
    /// the epoch named in the response header. No torn snapshots, no
    /// cross-epoch mixing.
    #[test]
    fn interleaved_reloads_give_every_response_one_consistent_epoch(
        workers in 2usize..5,
        reloads in 2usize..6,
        requests_per_worker in 2usize..5,
    ) {
        let oracles = [expected_output(0), expected_output(1)];
        let dir = scratch_dir("prop");
        write_variant(&dir, 0);
        let server = start(&dir, chaos_config()).unwrap();
        let addr = server.addr();
        let journal = EpochJournal::new();
        let mut threads = Vec::new();

        {
            let dir = dir.clone();
            let journal = journal.clone();
            threads.push(thread::spawn(move || {
                for i in 1..=reloads {
                    let variant = i % 2;
                    write_variant(&dir, variant);
                    let (status, headers, body) = http(addr, "POST", "/reload", &[], "");
                    assert_eq!(status, 200, "{body}");
                    journal.record(epoch_of(&headers), variant);
                    thread::sleep(Duration::from_millis(10));
                }
            }));
        }
        for w in 0..workers {
            let journal = journal.clone();
            let oracles = oracles.clone();
            threads.push(thread::spawn(move || {
                let body_json = format!("{{\"top\": 3, \"client\": \"prop-{w}\"}}");
                for _ in 0..requests_per_worker {
                    let (status, headers, body) =
                        http(addr, "POST", "/explain", &[], &body_json);
                    assert_eq!(status, 200, "{body}");
                    assert_byte_identical(&body, &headers, &journal, &oracles);
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ------------------------------------------------- handle housekeeping

#[test]
fn dropping_the_handle_without_shutdown_still_cleans_up() {
    let dir = scratch_dir("drop");
    write_variant(&dir, 0);
    let addr;
    {
        let server: ServerHandle = start(&dir, chaos_config()).unwrap();
        addr = server.addr();
        let (status, _, _) = http(addr, "GET", "/healthz", &[], "");
        assert_eq!(status, 200);
        // No shutdown(): Drop must drain and join.
    }
    // The listener is gone: connecting now fails (or is reset instantly).
    let after = TcpStream::connect(addr);
    if let Ok(mut stream) = after {
        let mut out = String::new();
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let n = stream.read_to_string(&mut out);
        assert!(n.unwrap_or(0) == 0, "stale listener answered: {out}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

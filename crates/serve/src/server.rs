//! The always-on explanation server: `obx serve`.
//!
//! Architecture (one paragraph): an accept thread hands each connection
//! to its own handler thread (explanations are CPU-bound and long; the
//! handful of concurrent connections a scoring service sees does not
//! justify an event loop). A process hosts many scenario directories at
//! once through the [`TenantStore`](crate::tenants::TenantStore) —
//! requests name their tenant via the wire `scenario` field. Every
//! request passes its tenant's circuit breaker, is admitted through the
//! two-level fair-share [`FairGate`](crate::admission::FairGate) (tenant
//! bulkheads first, clients within) *before* touching an epoch, pins its
//! tenant's current [`Epoch`](crate::snapshot::Epoch) for its whole
//! lifetime, runs under a per-request [`SearchBudget`] clamped to server
//! ceilings, and executes the **same** [`obx_core::service::run_explain`]
//! the CLI calls — which is what makes served bodies byte-identical to
//! one-shot `obx explain` output on the same snapshot.
//!
//! Robustness invariants, each proven under fault injection by
//! `tests/serve_resilience.rs` and `tests/serve_tenancy.rs`:
//!
//! - a panicking request is quarantined (`catch_unwind`, `OBX323`,
//!   `serve/quarantined` counter) and never takes down the process;
//! - overload is shed with structured 429/503 bodies, never by unbounded
//!   queueing — and a hot tenant saturates its own bulkhead (`OBX324`),
//!   not its co-tenants';
//! - a tenant whose requests repeatedly panic or burn the server time
//!   ceiling trips its breaker (`OBX325`) while co-tenants keep serving;
//! - `reload` swaps snapshots atomically per tenant; in-flight requests
//!   finish on the epoch they started on; flapping reloads back off
//!   (`OBX328`);
//! - the mount set survives `kill -9` through the checksummed tenant
//!   journal, replayed at boot (rotten tenants come back quarantined,
//!   `OBX327`, instead of failing the boot);
//! - drain stops admissions, lets in-flight work finish inside a grace
//!   window, then cancels stragglers (they degrade, best-so-far, exactly
//!   like `^C` on the CLI).

use crate::admission::{FairGate, Shed};
use crate::http::{read_request, write_response, HttpError, HttpLimits, Request, Response};
use crate::json::{self, escape};
use crate::tenants::{ReloadError, Tenant, TenantConfig, TenantStore};
use obx_core::budget::CancelToken;
use obx_core::service::{run_explain, ServiceError};
use obx_util::obs;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server knobs. Defaults are production-shaped; tests tighten them.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub bind: String,
    /// Concurrent executing requests (`--max-inflight`).
    pub max_inflight: usize,
    /// Waiting requests beyond which new ones are shed (`--queue-depth`).
    pub queue_depth: usize,
    /// Per-tenant bulkhead on executing requests
    /// (`--tenant-max-inflight`); `None` = the global cap (a single
    /// tenant may then use the whole server, exactly the pre-tenancy
    /// behaviour).
    pub tenant_max_inflight: Option<usize>,
    /// Per-tenant bulkhead on waiting requests (`--tenant-queue-depth`).
    pub tenant_queue_depth: Option<usize>,
    /// Server-side wall-clock ceiling per request
    /// (`--request-timeout-ms`); a request may ask for less, never more.
    pub request_timeout_ms: Option<u64>,
    /// How long an admitted-but-queued request waits before `OBX321`.
    pub queue_wait_ms: u64,
    /// Socket read timeout — the slow-loris bound.
    pub read_timeout_ms: u64,
    /// Socket write timeout.
    pub write_timeout_ms: u64,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Drain grace: how long in-flight requests get to finish before
    /// they are cancelled (and degrade to best-so-far).
    pub grace_ms: u64,
    /// Consecutive tenant failures (panics / ceiling timeouts) that trip
    /// its circuit breaker (`--breaker-threshold`).
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before a half-open probe
    /// (`--breaker-open-ms`).
    pub breaker_open_ms: u64,
    /// Base backoff after a failed reload; doubles per consecutive
    /// failure, capped at `reload_backoff_max_ms`.
    pub reload_backoff_ms: u64,
    /// Reload backoff ceiling.
    pub reload_backoff_max_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let tenant_defaults = TenantConfig::default();
        Self {
            bind: "127.0.0.1:0".to_owned(),
            max_inflight: 4,
            queue_depth: 16,
            tenant_max_inflight: None,
            tenant_queue_depth: None,
            request_timeout_ms: None,
            queue_wait_ms: 2_000,
            read_timeout_ms: 5_000,
            write_timeout_ms: 5_000,
            max_body_bytes: 256 * 1024,
            grace_ms: 5_000,
            breaker_threshold: tenant_defaults.breaker_threshold,
            breaker_open_ms: tenant_defaults.breaker_open_ms,
            reload_backoff_ms: tenant_defaults.reload_backoff_ms,
            reload_backoff_max_ms: tenant_defaults.reload_backoff_max_ms,
        }
    }
}

impl ServeConfig {
    fn tenant_config(&self) -> TenantConfig {
        TenantConfig {
            breaker_threshold: self.breaker_threshold.max(1),
            breaker_open_ms: self.breaker_open_ms,
            reload_backoff_ms: self.reload_backoff_ms,
            reload_backoff_max_ms: self.reload_backoff_max_ms.max(self.reload_backoff_ms),
        }
    }
}

/// Cancellation tokens of currently executing requests, so drain can
/// degrade stragglers after the grace window.
struct Inflights {
    next: AtomicU64,
    tokens: Mutex<Vec<(u64, CancelToken)>>,
}

impl Inflights {
    fn register(&self, token: CancelToken) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut tokens) = self.tokens.lock() {
            tokens.push((id, token));
        }
        id
    }

    fn unregister(&self, id: u64) {
        if let Ok(mut tokens) = self.tokens.lock() {
            tokens.retain(|(t, _)| *t != id);
        }
    }

    fn cancel_all(&self) {
        if let Ok(tokens) = self.tokens.lock() {
            for (_, token) in tokens.iter() {
                token.cancel();
            }
        }
    }
}

struct Shared {
    config: ServeConfig,
    limits: HttpLimits,
    store: TenantStore,
    gate: FairGate,
    inflights: Inflights,
    /// Set once on drain: stop accepting, close keep-alive connections
    /// after their current response.
    stop: AtomicBool,
}

/// Handle to a running server. Dropping it drains and joins every
/// thread — a test that forgets `shutdown()` still cleans up.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

/// Boots a single-tenant server over the scenario in `dir` (mounted as
/// `default`): loads the boot epoch (refusing a broken directory),
/// binds, and starts accepting. Returns once the socket is live.
pub fn start(dir: impl Into<PathBuf>, config: ServeConfig) -> Result<ServerHandle, String> {
    start_multi(vec![("default".to_owned(), dir.into())], None, config)
}

/// Boots a multi-tenant server: every explicit mount must load (boot
/// refusal on a broken one), then — when a `journal` path is given —
/// journaled mounts from a previous life are replayed, quarantining any
/// that no longer validate, and the journal is rewritten to the union.
pub fn start_multi(
    mounts: Vec<(String, PathBuf)>,
    journal: Option<PathBuf>,
    config: ServeConfig,
) -> Result<ServerHandle, String> {
    let store = TenantStore::open(&mounts, journal, config.tenant_config())?;
    if store.is_empty() {
        return Err("nothing to serve: no mount loaded and the journal was empty".to_owned());
    }
    let listener =
        TcpListener::bind(&config.bind).map_err(|e| format!("cannot bind {}: {e}", config.bind))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    let limits = HttpLimits {
        max_body: config.max_body_bytes,
        ..HttpLimits::default()
    };
    let shared = Arc::new(Shared {
        gate: FairGate::with_tenant_caps(
            config.max_inflight,
            config.queue_depth,
            config.tenant_max_inflight.unwrap_or(config.max_inflight),
            config.tenant_queue_depth.unwrap_or(config.queue_depth),
        ),
        config,
        limits,
        store,
        inflights: Inflights {
            next: AtomicU64::new(0),
            tokens: Mutex::new(Vec::new()),
        },
        stop: AtomicBool::new(false),
    });
    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::spawn(move || accept_loop(&accept_shared, &listener));
    Ok(ServerHandle {
        shared,
        addr,
        accept: Some(accept),
    })
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::Acquire) {
            // The drain poke (or a late client); either way, no new work.
            break;
        }
        obs::counter("serve/connections").add(1);
        let conn_shared = Arc::clone(shared);
        conns.push(std::thread::spawn(move || {
            handle_connection(&conn_shared, stream);
        }));
        // Reap finished handlers so a long-lived server does not
        // accumulate one parked JoinHandle per past connection.
        conns.retain(|h| !h.is_finished());
    }
    for conn in conns {
        let _ = conn.join();
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let timeouts_ok = stream
        .set_read_timeout(Some(Duration::from_millis(
            shared.config.read_timeout_ms.max(1),
        )))
        .and_then(|()| {
            stream.set_write_timeout(Some(Duration::from_millis(
                shared.config.write_timeout_ms.max(1),
            )))
        })
        .is_ok();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    if !timeouts_ok {
        return;
    }
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match read_request(&mut reader, &shared.limits) {
            Ok(None) => break,
            Ok(Some(req)) => {
                obs::counter("serve/requests").add(1);
                let started = Instant::now();
                let resp = handle_request(shared, &req);
                obs::histogram("serve/request_us").record_duration(started.elapsed());
                let close = req.wants_close() || shared.stop.load(Ordering::Acquire);
                if write_response(&mut writer, &resp, close).is_err() || close {
                    break;
                }
            }
            Err(e) => {
                obs::counter("serve/bad_requests").add(1);
                let _ = write_response(&mut writer, &http_error_response(&e), true);
                break;
            }
        }
    }
}

fn err_json(code: &str, msg: &str) -> String {
    format!("{{\"code\":\"{code}\",\"error\":\"{}\"}}\n", escape(msg))
}

fn http_error_response(e: &HttpError) -> Response {
    Response::json(e.status, err_json(e.code, &e.msg))
}

fn retry_after_secs(d: Duration) -> String {
    d.as_secs().saturating_add(1).to_string()
}

/// The shed body mirrors the CLI's degraded-termination contract: a
/// `termination` field phrased like the `-- search stopped early` footer,
/// so clients handle "shed before execution" and "degraded mid-search"
/// through one code path.
fn shed_response(shed: Shed, tenant: &Tenant) -> Response {
    obs::counter("serve/requests_shed").add(1);
    obs::counter_dyn(&format!("serve/tenant/{}/shed", tenant.name())).add(1);
    let (code, status) = match shed {
        Shed::QueueFull => ("OBX320", 429),
        Shed::TimedOut => ("OBX321", 429),
        Shed::Draining => ("OBX322", 503),
        Shed::TenantSaturated => ("OBX324", 429),
    };
    let epoch = tenant.epoch_id();
    let body = format!(
        "{{\"code\":\"{code}\",\"error\":\"{}\",\"termination\":\"degraded (request shed before execution)\",\"epoch\":{epoch}}}\n",
        escape(&shed.to_string())
    );
    Response::json(status, body)
        .with_header("x-obx-epoch", epoch.to_string())
        .with_header("x-obx-scenario", tenant.name().to_owned())
        .with_header("retry-after", "1")
}

/// `OBX325`: the tenant's breaker is open; honest co-tenants are
/// unaffected, this tenant's clients get a bounded retry hint.
fn breaker_response(tenant: &Tenant, retry_in: Duration) -> Response {
    obs::counter("serve/requests_shed").add(1);
    obs::counter_dyn(&format!("serve/tenant/{}/breaker_shed", tenant.name())).add(1);
    let epoch = tenant.epoch_id();
    let body = format!(
        "{{\"code\":\"OBX325\",\"error\":\"scenario `{}` circuit breaker is open\",\"termination\":\"degraded (request shed before execution)\",\"epoch\":{epoch}}}\n",
        escape(tenant.name())
    );
    Response::json(503, body)
        .with_header("x-obx-epoch", epoch.to_string())
        .with_header("x-obx-scenario", tenant.name().to_owned())
        .with_header("retry-after", retry_after_secs(retry_in))
}

/// `OBX327`: the tenant is mounted but has no serveable snapshot (a
/// journal-recovered mount whose directory rotted). Listed, not served.
fn quarantined_response(tenant: &Tenant) -> Response {
    obs::counter("serve/requests_shed").add(1);
    obs::counter_dyn(&format!("serve/tenant/{}/shed", tenant.name())).add(1);
    let reason = tenant
        .quarantine_reason()
        .unwrap_or_else(|| "no serveable snapshot".to_owned());
    Response::json(
        503,
        err_json(
            "OBX327",
            &format!(
                "scenario `{}` is quarantined (reload it once repaired): {}",
                tenant.name(),
                reason
            ),
        ),
    )
    .with_header("x-obx-scenario", tenant.name().to_owned())
    .with_header("retry-after", "5")
}

fn unknown_scenario_response(msg: &str) -> Response {
    Response::json(404, err_json("OBX326", msg))
}

/// One tenant as a JSON object (shared by `/tenants` and `/readyz`).
fn tenant_json(tenant: &Tenant) -> String {
    let mut obj = format!(
        "{{\"scenario\":\"{}\",\"status\":\"{}\",\"epoch\":{},\"dir\":\"{}\"",
        escape(tenant.name()),
        tenant.status(),
        tenant.epoch_id(),
        escape(&tenant.dir().to_string_lossy())
    );
    if let Some(ms) = tenant.load_ms() {
        obj.push_str(&format!(",\"load_ms\":{ms}"));
    }
    if let Some(reason) = tenant.quarantine_reason() {
        // First line only: quarantine reasons are full validator dumps.
        let head = reason.lines().next().unwrap_or("");
        obj.push_str(&format!(",\"quarantine\":\"{}\"", escape(head)));
    }
    obj.push('}');
    obj
}

fn tenants_body(store: &TenantStore) -> String {
    let items: Vec<String> = store.list().iter().map(|t| tenant_json(t)).collect();
    format!("{{\"tenants\":[{}]}}\n", items.join(","))
}

fn handle_request(shared: &Arc<Shared>, req: &Request) -> Response {
    let draining = shared.stop.load(Ordering::Acquire);
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            if draining {
                Response::json(503, err_json("OBX322", "server is draining"))
            } else {
                Response::text(200, "ok\n")
            }
        }
        ("GET", "/readyz") => {
            // Ready = at least one tenant can answer an explain request.
            let ready = !draining && shared.store.list().iter().any(|t| t.current().is_some());
            let body = format!(
                "{{\"ready\":{ready},\"draining\":{draining},{}",
                tenants_body(&shared.store).replacen('{', "", 1)
            );
            Response::json(if ready { 200 } else { 503 }, body)
        }
        ("GET", "/tenants") => Response::json(200, tenants_body(&shared.store)),
        ("GET", "/metrics") => Response::json(200, obs::metrics_json()),
        ("POST", "/tenants") => {
            if draining {
                return Response::json(503, err_json("OBX322", "server is draining"));
            }
            let Ok(body_text) = std::str::from_utf8(&req.body) else {
                return Response::json(400, err_json("OBX307", "request body is not valid UTF-8"));
            };
            let (name, dir) = match json::mount_body(body_text) {
                Ok(parts) => parts,
                Err(e) => return Response::json(400, err_json(e.code, &e.msg)),
            };
            match shared.store.mount(&name, std::path::Path::new(&dir)) {
                Ok(tenant) => Response::json(
                    200,
                    format!(
                        "{{\"scenario\":\"{}\",\"epoch\":{}}}\n",
                        escape(tenant.name()),
                        tenant.epoch_id()
                    ),
                )
                .with_header("x-obx-scenario", tenant.name().to_owned()),
                Err(msg) if msg.contains("invalid scenario name") => {
                    Response::json(400, err_json("OBX313", &msg))
                }
                Err(msg) => Response::json(422, err_json("OBX316", &msg)),
            }
        }
        ("POST", "/reload") => {
            if draining {
                return Response::json(503, err_json("OBX322", "server is draining"));
            }
            let Ok(body_text) = std::str::from_utf8(&req.body) else {
                return Response::json(400, err_json("OBX307", "request body is not valid UTF-8"));
            };
            let scenario = match json::scenario_body(body_text) {
                Ok(s) => s,
                Err(e) => return Response::json(400, err_json(e.code, &e.msg)),
            };
            let tenant = match shared.store.resolve(scenario.as_deref()) {
                Ok(t) => t,
                Err(msg) => return unknown_scenario_response(&msg),
            };
            match tenant.reload() {
                Ok(epoch) => {
                    obs::counter("serve/reloads").add(1);
                    Response::json(
                        200,
                        format!(
                            "{{\"scenario\":\"{}\",\"epoch\":{}}}\n",
                            escape(tenant.name()),
                            epoch.id
                        ),
                    )
                    .with_header("x-obx-epoch", epoch.id.to_string())
                    .with_header("x-obx-scenario", tenant.name().to_owned())
                }
                Err(ReloadError::BackingOff(retry_in)) => Response::json(
                    429,
                    err_json(
                        "OBX328",
                        &format!(
                            "reload of `{}` is backing off after repeated failures",
                            tenant.name()
                        ),
                    ),
                )
                .with_header("retry-after", retry_after_secs(retry_in))
                .with_header("x-obx-scenario", tenant.name().to_owned()),
                Err(ReloadError::Failed { msg, .. }) => Response::json(
                    422,
                    err_json(
                        "OBX316",
                        &format!("reload failed, keeping current epoch: {msg}"),
                    ),
                )
                .with_header("x-obx-scenario", tenant.name().to_owned()),
            }
        }
        ("POST", "/validate") => {
            if draining {
                return Response::json(503, err_json("OBX322", "server is draining"));
            }
            let Ok(body_text) = std::str::from_utf8(&req.body) else {
                return Response::json(400, err_json("OBX307", "request body is not valid UTF-8"));
            };
            let scenario = match json::scenario_body(body_text) {
                Ok(s) => s,
                Err(e) => return Response::json(400, err_json(e.code, &e.msg)),
            };
            let tenant = match shared.store.resolve(scenario.as_deref()) {
                Ok(t) => t,
                Err(msg) => return unknown_scenario_response(&msg),
            };
            let Some(epoch) = tenant.current() else {
                return quarantined_response(&tenant);
            };
            Response::text(200, epoch.validate_text.clone())
                .with_header("x-obx-epoch", epoch.id.to_string())
                .with_header("x-obx-exit", epoch.validate_exit.to_string())
                .with_header("x-obx-scenario", tenant.name().to_owned())
        }
        ("POST", "/explain") => handle_explain(shared, req),
        (method, path) => Response::json(
            404,
            err_json("OBX306", &format!("no such endpoint: {method} {path}")),
        ),
    }
}

fn handle_explain(shared: &Arc<Shared>, req: &Request) -> Response {
    let Ok(body_text) = std::str::from_utf8(&req.body) else {
        return Response::json(400, err_json("OBX307", "request body is not valid UTF-8"));
    };
    let body = match json::explain_body(body_text) {
        Ok(b) => b,
        Err(e) => return Response::json(400, err_json(e.code, &e.msg)),
    };
    let tenant = match shared.store.resolve(body.scenario.as_deref()) {
        Ok(t) => t,
        Err(msg) => return unknown_scenario_response(&msg),
    };
    // Cheapest rejections first: quarantine, then breaker, then the
    // admission gate — a doomed request must cost nothing but the parse.
    if tenant.current().is_none() {
        return quarantined_response(&tenant);
    }
    let pass = match tenant.breaker_admit() {
        Ok(p) => p,
        Err(retry_in) => return breaker_response(&tenant, retry_in),
    };
    let permit = match shared.gate.admit(
        Some(tenant.name()),
        body.client.as_deref(),
        Duration::from_millis(shared.config.queue_wait_ms),
    ) {
        Ok(p) => p,
        Err(shed) => {
            // The breaker admitted but the gate did not: hand back a
            // possible probe slot so the breaker cannot wedge half-open.
            tenant.breaker_abort(pass);
            return shed_response(shed, &tenant);
        }
    };
    // Pin the epoch only now — a request that waited through a reload
    // runs on the snapshot current at execution start, and keeps it for
    // its whole lifetime regardless of later reloads.
    let Some(epoch) = tenant.current() else {
        tenant.breaker_abort(pass);
        return quarantined_response(&tenant);
    };
    let clamped = body
        .req
        .clamped(shared.config.request_timeout_ms, None, None);
    let token = CancelToken::new();
    let inflight_id = shared.inflights.register(token.clone());

    // Fault-injection hooks, compiled only for tests: `x-obx-fault:
    // cancel` fires the request's own token before the search starts
    // (the mid-request-cancellation path), `panic` detonates inside the
    // quarantine boundary, and `sleep:<ms>` holds the execution slot for
    // a deterministic interval so overload/drain tests can occupy
    // capacity without depending on scenario size.
    #[cfg(any(test, feature = "fault-injection"))]
    let fault = req.header("x-obx-fault").map(str::to_owned);
    #[cfg(not(any(test, feature = "fault-injection")))]
    let fault: Option<String> = None;
    if fault.as_deref() == Some("cancel") {
        token.cancel();
    }

    let mut budget = clamped.budget(&token);
    let recorder = if body.profile {
        let r = obs::Recorder::new();
        budget = budget.with_recorder(Arc::clone(&r));
        Some(r)
    } else {
        None
    };

    let exec_started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if fault.as_deref() == Some("panic") {
            panic!("injected fault: panic requested via x-obx-fault");
        }
        if let Some(ms) = fault
            .as_deref()
            .and_then(|f| f.strip_prefix("sleep:"))
            .and_then(|ms| ms.parse::<u64>().ok())
        {
            std::thread::sleep(Duration::from_millis(ms.min(10_000)));
        }
        run_explain(
            &epoch.scenario.system,
            &epoch.scenario.labels,
            &clamped,
            budget,
        )
    }));
    shared.inflights.unregister(inflight_id);
    drop(permit);

    // Feed the breaker: a panic is always a tenant failure; a degraded
    // result that burned the *server's* full time ceiling is one too
    // (the tenant's corpus cannot answer inside the server's patience).
    // Requests that merely hit their own, tighter budget are not.
    let burned_ceiling = shared.config.request_timeout_ms.is_some_and(|ceiling| {
        exec_started.elapsed() >= Duration::from_millis(ceiling)
            && matches!(&result, Ok(Ok(outcome)) if outcome.exit_code == 2)
    });
    let failed = result.is_err() || burned_ceiling;
    tenant.breaker_record(pass, failed);

    let epoch_header = epoch.id.to_string();
    let scenario_header = tenant.name().to_owned();
    match result {
        Err(_) => {
            obs::counter("serve/quarantined").add(1);
            obs::counter_dyn(&format!("serve/tenant/{}/panics", tenant.name())).add(1);
            Response::json(
                500,
                err_json(
                    "OBX323",
                    "request quarantined: the search panicked; the server carries on",
                ),
            )
            .with_header("x-obx-epoch", epoch_header)
            .with_header("x-obx-scenario", scenario_header)
        }
        Ok(Err(e)) => {
            let (code, status) = match &e {
                ServiceError::UnknownStrategy(_) => ("OBX313", 400),
                ServiceError::Task(_) => ("OBX314", 422),
                ServiceError::Search(_) => ("OBX315", 500),
            };
            Response::json(status, err_json(code, &e.to_string()))
                .with_header("x-obx-epoch", epoch_header)
                .with_header("x-obx-scenario", scenario_header)
        }
        Ok(Ok(outcome)) => {
            let mut text = outcome.stdout;
            if let Some(r) = recorder {
                // Same trailer the profiled CLI appends.
                text.push_str("-- profile --\n");
                text.push_str(&r.profile().render_tree());
            }
            Response::text(200, text)
                .with_header("x-obx-epoch", epoch_header)
                .with_header("x-obx-exit", outcome.exit_code.to_string())
                .with_header("x-obx-scenario", scenario_header)
        }
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current epoch id of the *first* tenant (by name) — the whole
    /// story on a single-tenant server; multi-tenant callers should ask
    /// [`tenants`](Self::tenants) instead.
    pub fn epoch(&self) -> u64 {
        self.shared.store.list().first().map_or(0, |t| t.epoch_id())
    }

    /// The tenant registry (mount set, statuses, per-tenant epochs).
    pub fn tenants(&self) -> &TenantStore {
        &self.shared.store
    }

    /// Whether the server has started draining.
    pub fn draining(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Graceful drain: stop accepting, shed all queued work, give
    /// in-flight requests `grace_ms` to finish, then cancel stragglers
    /// (they respond degraded, best-so-far). Idempotent; returns when
    /// in-flight work has ended (or the second grace expired).
    pub fn drain(&self) {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.gate.drain();
        // Poke the accept loop out of its blocking accept.
        let _ = TcpStream::connect(self.addr);
        let grace = Duration::from_millis(self.shared.config.grace_ms.max(1));
        if !self.shared.gate.wait_idle(grace) {
            self.shared.inflights.cancel_all();
            let _ = self.shared.gate.wait_idle(grace);
        }
    }

    /// Drains and joins every server thread. Connection handlers exit at
    /// the latest one socket read-timeout after the drain.
    pub fn shutdown(mut self) {
        self.drain();
        self.join_accept();
    }

    fn join_accept(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.drain();
        self.join_accept();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obx_core::scenario::write_paper_example;
    use std::io::{Read, Write};
    use std::path::PathBuf;

    fn scratch_scenario(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("obx-serve-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        write_paper_example(&dir).unwrap();
        dir
    }

    fn test_config() -> ServeConfig {
        ServeConfig {
            read_timeout_ms: 500,
            write_timeout_ms: 500,
            grace_ms: 2_000,
            ..ServeConfig::default()
        }
    }

    /// Minimal test client: one request, `Connection: close`, returns
    /// `(status, headers, body)`.
    fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
        http_with_headers(addr, method, path, &[], body)
    }

    fn http_with_headers(
        addr: SocketAddr,
        method: &str,
        path: &str,
        extra: &[(&str, &str)],
        body: &str,
    ) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
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
        let (head, payload) = raw.split_once("\r\n\r\n").unwrap();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap();
        (status, head.to_ascii_lowercase(), payload.to_owned())
    }

    #[test]
    fn serves_health_metrics_and_byte_identical_explanations() {
        let dir = scratch_scenario("basic");
        let server = start(&dir, test_config()).unwrap();
        let addr = server.addr();

        let (status, _, body) = http(addr, "GET", "/healthz", "");
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        // The served body is byte-identical to the service layer's output
        // (which is the CLI's stdout) on the same snapshot.
        let (status, head, body) = http(addr, "POST", "/explain", r#"{"top": 3}"#);
        assert_eq!(status, 200, "{body}");
        assert!(head.contains("x-obx-epoch: 1"), "{head}");
        assert!(head.contains("x-obx-exit: 0"), "{head}");
        assert!(head.contains("x-obx-scenario: default"), "{head}");
        let scenario = obx_core::scenario::load_dir(&dir).unwrap();
        let req = obx_core::service::ExplainRequest {
            top: 3,
            ..Default::default()
        };
        let local = run_explain(
            &scenario.system,
            &scenario.labels,
            &req,
            req.budget(&CancelToken::new()),
        )
        .unwrap();
        assert_eq!(body, local.stdout);
        assert!(body.contains("0.8333"), "{body}");

        let (status, _, metrics) = http(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(metrics.contains("serve/requests"), "{metrics}");

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serves_mode_requests_and_rejects_bad_modes_with_obx330() {
        let dir = scratch_scenario("modes");
        let server = start(&dir, test_config()).unwrap();
        let addr = server.addr();

        // A sound-mode request serves byte-identically to a local run of
        // the same request through the shared service layer.
        let (status, head, body) = http(addr, "POST", "/explain", r#"{"mode": "sound", "top": 2}"#);
        assert_eq!(status, 200, "{body}");
        assert!(head.contains("x-obx-exit: 0"), "{head}");
        let scenario = obx_core::scenario::load_dir(&dir).unwrap();
        let req = obx_core::service::ExplainRequest {
            mode: obx_core::score::ExplainMode::Sound,
            top: 2,
            ..Default::default()
        };
        let local = run_explain(
            &scenario.system,
            &scenario.labels,
            &req,
            req.budget(&CancelToken::new()),
        )
        .unwrap();
        assert_eq!(body, local.stdout);

        // An invalid mode is rejected up front with the stable OBX330.
        let (status, _, body) = http(addr, "POST", "/explain", r#"{"mode": "lossless"}"#);
        assert_eq!(status, 400);
        assert!(body.contains("OBX330"), "{body}");

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_reload_and_epoch_pinning() {
        let dir = scratch_scenario("reload");
        // A wide backoff window so the retry below lands inside it even
        // on a loaded test machine.
        let config = ServeConfig {
            reload_backoff_ms: 60_000,
            ..test_config()
        };
        let server = start(&dir, config).unwrap();
        let addr = server.addr();

        let (status, head, body) = http(addr, "POST", "/validate", "");
        assert_eq!(status, 200);
        assert!(head.contains("x-obx-epoch: 1"), "{head}");
        // The paper example validates warning-only (unused source
        // relation), exit 2 — served from the snapshot's cached text.
        assert!(head.contains("x-obx-exit: 2"), "{head}");
        assert!(body.contains("0 error(s)"), "{body}");

        let (status, _, body) = http(addr, "POST", "/reload", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"epoch\":2"), "{body}");
        assert_eq!(server.epoch(), 2);

        // A broken directory fails the reload and keeps epoch 2 serving.
        std::fs::write(dir.join("ontology.obx"), "role r\nr << s\n").unwrap();
        let (status, _, body) = http(addr, "POST", "/reload", "");
        assert_eq!(status, 422);
        assert!(body.contains("OBX316"), "{body}");
        assert_eq!(server.epoch(), 2);
        let (status, _, _) = http(addr, "POST", "/explain", "{}");
        assert_eq!(status, 200);

        // An immediate retry is refused with the backoff code — the
        // server does not hammer a flapping directory.
        let (status, head, body) = http(addr, "POST", "/reload", "");
        assert_eq!(status, 429, "{body}");
        assert!(body.contains("OBX328"), "{body}");
        assert!(head.contains("retry-after:"), "{head}");

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_garbage_with_stable_codes() {
        let dir = scratch_scenario("garbage");
        let server = start(&dir, test_config()).unwrap();
        let addr = server.addr();

        let (status, _, body) = http(addr, "GET", "/nope", "");
        assert_eq!(status, 404);
        assert!(body.contains("OBX306"), "{body}");

        let (status, _, body) = http(addr, "POST", "/explain", "{not json");
        assert_eq!(status, 400);
        assert!(body.contains("OBX310"), "{body}");

        let (status, _, body) = http(addr, "POST", "/explain", r#"{"surprise": 1}"#);
        assert_eq!(status, 400);
        assert!(body.contains("OBX312"), "{body}");

        // Naming a scenario nobody mounted is a structured 404.
        let (status, _, body) = http(addr, "POST", "/explain", r#"{"scenario": "ghost"}"#);
        assert_eq!(status, 404);
        assert!(body.contains("OBX326"), "{body}");

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_panic_is_quarantined_and_the_server_survives() {
        let dir = scratch_scenario("panic");
        let server = start(&dir, test_config()).unwrap();
        let addr = server.addr();

        let (status, _, body) =
            http_with_headers(addr, "POST", "/explain", &[("x-obx-fault", "panic")], "{}");
        assert_eq!(status, 500);
        assert!(body.contains("OBX323"), "{body}");

        // The process and its capacity survived: a normal request works.
        let (status, _, body) = http(addr, "POST", "/explain", "{}");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("Z ="), "{body}");

        // And the quarantine is visible in the metrics.
        let (_, _, metrics) = http(addr, "GET", "/metrics", "");
        assert!(metrics.contains("serve/quarantined"), "{metrics}");

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_cancel_degrades_with_the_cli_footer() {
        let dir = scratch_scenario("cancel");
        let server = start(&dir, test_config()).unwrap();
        let addr = server.addr();

        let (status, head, body) =
            http_with_headers(addr, "POST", "/explain", &[("x-obx-fault", "cancel")], "{}");
        assert_eq!(status, 200, "{body}");
        assert!(head.contains("x-obx-exit: 2"), "{head}");
        assert!(body.contains("search stopped early: cancelled"), "{body}");

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_tenant_routing_listing_and_runtime_mounts() {
        let a = scratch_scenario("multi-a");
        let b = scratch_scenario("multi-b");
        let server =
            start_multi(vec![("alpha".to_owned(), a.clone())], None, test_config()).unwrap();
        let addr = server.addr();

        // Single tenant: anonymous requests route to it.
        let (status, head, _) = http(addr, "POST", "/explain", "{}");
        assert_eq!(status, 200);
        assert!(head.contains("x-obx-scenario: alpha"), "{head}");

        // Mount a second tenant over the wire.
        let mount = format!(r#"{{"scenario": "beta", "dir": "{}"}}"#, b.display());
        let (status, _, body) = http(addr, "POST", "/tenants", &mount);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"epoch\":1"), "{body}");

        // Now anonymous routing is ambiguous...
        let (status, _, body) = http(addr, "POST", "/explain", "{}");
        assert_eq!(status, 404);
        assert!(body.contains("OBX326"), "{body}");
        // ...and named routing hits the named tenant, with per-tenant
        // epochs moving independently.
        let (status, _, _) = http(addr, "POST", "/reload", r#"{"scenario": "beta"}"#);
        assert_eq!(status, 200);
        let (_, head, _) = http(addr, "POST", "/explain", r#"{"scenario": "beta"}"#);
        assert!(head.contains("x-obx-epoch: 2"), "{head}");
        let (_, head, _) = http(addr, "POST", "/explain", r#"{"scenario": "alpha"}"#);
        assert!(head.contains("x-obx-epoch: 1"), "{head}");

        // The registry endpoints see both.
        let (status, _, body) = http(addr, "GET", "/tenants", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"scenario\":\"alpha\""), "{body}");
        assert!(body.contains("\"scenario\":\"beta\""), "{body}");
        // Every serving tenant reports its load-time gauge…
        assert!(body.contains("\"load_ms\":"), "{body}");
        // …and /metrics carries the cumulative per-tenant counters.
        let (status, _, body) = http(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(
            body.contains("serve/tenant/alpha/load_ms_total")
                && body.contains("serve/tenant/beta/loads"),
            "{body}"
        );
        let (status, _, body) = http(addr, "GET", "/readyz", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"ready\":true"), "{body}");

        // A broken runtime mount is rejected and NOT registered.
        let empty = std::env::temp_dir().join(format!("obx-serve-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&empty);
        std::fs::create_dir_all(&empty).unwrap();
        let mount = format!(r#"{{"scenario": "broken", "dir": "{}"}}"#, empty.display());
        let (status, _, body) = http(addr, "POST", "/tenants", &mount);
        assert_eq!(status, 422, "{body}");
        assert!(body.contains("OBX316"), "{body}");
        let (_, _, body) = http(addr, "GET", "/tenants", "");
        assert!(!body.contains("broken"), "{body}");

        server.shutdown();
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
        let _ = std::fs::remove_dir_all(&empty);
    }

    #[test]
    fn breaker_trips_on_repeated_panics_and_co_tenant_keeps_serving() {
        let a = scratch_scenario("breaker-a");
        let b = scratch_scenario("breaker-b");
        let config = ServeConfig {
            breaker_threshold: 3,
            breaker_open_ms: 60_000, // stays open for the whole test
            ..test_config()
        };
        let server = start_multi(
            vec![
                ("bad".to_owned(), a.clone()),
                ("good".to_owned(), b.clone()),
            ],
            None,
            config,
        )
        .unwrap();
        let addr = server.addr();

        // Three panics trip `bad`'s breaker...
        for _ in 0..3 {
            let (status, _, _) = http_with_headers(
                addr,
                "POST",
                "/explain",
                &[("x-obx-fault", "panic")],
                r#"{"scenario": "bad"}"#,
            );
            assert_eq!(status, 500);
        }
        let (status, head, body) = http(addr, "POST", "/explain", r#"{"scenario": "bad"}"#);
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("OBX325"), "{body}");
        assert!(head.contains("retry-after:"), "{head}");

        // ...while `good` serves normally and the registry shows both.
        let (status, _, body) = http(addr, "POST", "/explain", r#"{"scenario": "good"}"#);
        assert_eq!(status, 200, "{body}");
        let (_, _, body) = http(addr, "GET", "/tenants", "");
        assert!(body.contains("\"status\":\"breaker-open\""), "{body}");

        server.shutdown();
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
    }

    #[test]
    fn drain_rejects_new_work_and_shutdown_joins() {
        let dir = scratch_scenario("drain");
        let server = start(&dir, test_config()).unwrap();
        let addr = server.addr();
        server.drain();
        assert!(server.draining());
        // A connection made after drain is either refused outright or
        // answered with the draining shed.
        if let Ok(mut stream) = TcpStream::connect(addr) {
            let _ = stream.write_all(
                b"POST /explain HTTP/1.1\r\nconnection: close\r\ncontent-length: 2\r\n\r\n{}",
            );
            let mut raw = String::new();
            let _ = stream.read_to_string(&mut raw);
            if !raw.is_empty() {
                assert!(raw.contains("503") || raw.contains("OBX322"), "{raw}");
            }
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! The traced run: per-layer metrics from in-process replays.
//!
//! After the same served load phase as an untraced run, every workload
//! request runs three more times per pass: served on the now idle
//! server, untraced in process through `run_explain` (the reference
//! time), and through `run_explain` again with the program's own span
//! recorder attached, whose `explain/prepare` and `explain/search`
//! phases split the request. Probes then time single layers on the
//! replayed inputs: the relevant-constant tally, PerfectRef and
//! unfolding of the answer's CQs, a fresh-engine re-score, mounts,
//! reloads and the HTTP/JSON request parse. Last, one untraced child run
//! at the host's default thread count measures the parallel border and
//! scoring paths that the rest of the benchmark, on one engine thread,
//! leaves out. Spans are kept in memory and written to
//! `.bench_work/traces/` when the run ends. No span is added inside the
//! program; counters come from its existing recorder, accessors and
//! metrics.

use crate::client::post_bytes;
use crate::stats::{median, tail, Failure};
use crate::workload::Workload;
use crate::{Args, Load, Metrics, Oracles, Tally};
use obx_core::budget::CancelToken;
use obx_core::scenario::{load_dir, LoadedScenario};
use obx_core::service::{run_explain, validate_dir, ExplainRequest};
use obx_core::{ExplainTask, ScoringEngine, SearchLimits};
use obx_serve::http::{read_request, HttpLimits};
use obx_serve::json::Json;
use obx_serve::snapshot::load_epoch;
use obx_serve::{json, ServerHandle};
use obx_util::obs::Recorder;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Replay passes over the workload's request list. Even, so untraced
/// and traced replays run first equally often.
const PASSES: usize = 4;
/// Timed repetitions of each mount probe.
const MOUNT_REPS: usize = 3;
/// Served reloads on the idle server.
const RELOAD_REPS: usize = 5;
/// Timed parses of the workload's request bodies.
const PARSE_REPS: usize = 2000;

/// One recorded span. Times are nanoseconds since the tracer started.
struct Span {
    name: &'static str,
    rid: u64,
    parent: Option<usize>,
    start: u64,
    end: u64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, rid: u64, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            rid,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`; returns its duration in milliseconds.
    fn end(&mut self, id: usize) -> f64 {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        (end - span.start) as f64 / 1e6
    }

    /// Records a finished span from known bounds.
    fn record(&mut self, name: &'static str, rid: u64, parent: usize, start: u64, end: u64) {
        self.spans.push(Span {
            name,
            rid,
            parent: Some(parent),
            start,
            end,
        });
    }

    fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n ");
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                r#"{{"id": {i}, "name": "{}", "rid": {}, "parent": {parent}, "start_us": {:.3}, "end_us": {:.3}}}"#,
                s.name,
                s.rid,
                s.start as f64 / 1e3,
                s.end as f64 / 1e3
            );
        }
        out.push(']');
        out
    }
}

/// Sums over replayed requests; divided by the count at the end.
#[derive(Default)]
struct Totals {
    requests: f64,
    untraced_ms: f64,
    traced_ms: f64,
    prepare_ms: f64,
    search_ms: f64,
    render_ms: f64,
    batch_ms: f64,
    rc_ms: f64,
    border_ms: f64,
    border_atoms: f64,
    evals: f64,
    hits: f64,
    misses: f64,
    saved: f64,
    pruned: f64,
    nodes_legacy: f64,
    nodes_guided: f64,
    cqs: f64,
    rewrite_us: f64,
    unfold_us: f64,
    eval_ms: f64,
}

/// `run_explain` with a recorder attached, in a `request` span with
/// `prepare`, `search` and `render` children laid out from the
/// recorder's phase times (`render` is the rest: rendering, the task's
/// teardown and the bookkeeping between phases). Then the layer probes on a task built
/// for the same request. Returns the rendered body so the caller can
/// check it.
fn replay(
    tr: &mut Tracer,
    rid: u64,
    sc: &LoadedScenario,
    req: &ExplainRequest,
    sums: &mut Totals,
) -> String {
    let (system, labels) = (&sc.system, &sc.labels);
    let batch_ns = obx_util::obs::histogram("obx.engine.batch_ns");
    let recorder = Recorder::new();
    assert!(
        recorder.is_enabled(),
        "the traced run reads the program's recorder; unset OBX_OBS"
    );
    let budget = req
        .budget(&CancelToken::new())
        .with_recorder(Arc::clone(&recorder));

    let batch0 = batch_ns.sum();
    let nodes0 = obx_query::eval::node_counts();
    let root = tr.begin("request", rid, None);
    let out = run_explain(system, labels, req, budget).expect("traced replay runs");
    let total = tr.end(root);
    let nodes1 = obx_query::eval::node_counts();
    sums.batch_ms += (batch_ns.sum() - batch0) as f64 / 1e6;
    sums.nodes_legacy += (nodes1.0 - nodes0.0) as f64;
    sums.nodes_guided += (nodes1.1 - nodes0.1) as f64;

    let profile = recorder.profile();
    let prepare = profile.wall_ms("explain/prepare");
    let search = profile.wall_ms("explain/search");
    let ns = |ms: f64| (ms * 1e6) as u64;
    let (start, end) = (tr.spans[root].start, tr.spans[root].end);
    let split = (start + ns(prepare)).min(end);
    let searched = (split + ns(search)).min(end);
    tr.record("prepare", rid, root, start, split);
    tr.record("search", rid, root, split, searched);
    tr.record("render", rid, root, searched, end);
    sums.traced_ms += total;
    sums.prepare_ms += prepare;
    sums.search_ms += search;
    sums.render_ms += total - prepare - search;
    sums.border_ms += profile.wall_ms("explain/prepare/border");
    if let Some(border) = profile.span("explain/prepare/border") {
        sums.border_atoms += border.counter("atoms") as f64;
    }
    if let Some(engine) = profile.span("explain/search/engine") {
        sums.evals += engine.counter("evals") as f64;
        sums.hits += engine.counter("cache_hits") as f64;
        sums.misses += engine.counter("cache_misses") as f64;
        sums.saved += engine.counter("evals_saved") as f64;
    }
    let report = out.report.as_ref().expect("strategy runs report");
    sums.pruned += report.pruned as f64;

    // Probes: each its own root span, sharing the request id. The task
    // has the request's borders and scoring; `run_explain`'s limits
    // differ only in fields these probes do not read.
    let scoring = req.scoring_for(labels);
    let task = ExplainTask::new_with_budget(
        system,
        labels,
        req.radius,
        &scoring,
        SearchLimits::default(),
        req.budget(&CancelToken::new()),
    )
    .expect("probe task builds");
    let span = tr.begin("probe.relevant_constants", rid, None);
    std::hint::black_box(
        task.prepared()
            .relevant_constants(SearchLimits::default().max_constants),
    );
    sums.rc_ms += tr.end(span);

    let spec = system.spec();
    for e in &report.explanations {
        for cq in e.query.disjuncts() {
            let ucq = obx_query::OntoUcq::from_cq(cq.clone());
            let span = tr.begin("probe.rewrite", rid, None);
            let rewritten = obx_query::perfect_ref(&ucq, spec.tbox(), spec.rewrite_budget)
                .expect("answer CQs rewrite");
            sums.rewrite_us += tr.end(span) * 1e3;
            let span = tr.begin("probe.unfold", rid, None);
            std::hint::black_box(
                obx_mapping::unfold(spec.mapping(), &rewritten, spec.unfold_max)
                    .expect("answer CQs unfold"),
            );
            sums.unfold_us += tr.end(span) * 1e3;
            let fresh = task.with_engine(Arc::new(ScoringEngine::new()));
            let span = tr.begin("probe.eval", rid, None);
            std::hint::black_box(fresh.score_cq(cq).expect("answer CQs re-score"));
            sums.eval_ms += tr.end(span);
            sums.cqs += 1.0;
        }
    }
    sums.requests += 1.0;
    out.stdout
}

/// Median milliseconds of `f` over `reps` calls, all inside one span.
fn probe(tr: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let span = tr.begin(name, 0, None);
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    tr.end(span);
    median(&v).expect("reps > 0")
}

fn matches(text: &str, oracle: &[u8]) -> Result<(), Failure> {
    if text.as_bytes() == oracle {
        Ok(())
    } else {
        Err(Failure::Mismatch)
    }
}

/// The untraced child run at the host's default thread count: its
/// median latency and CPU time per explain, and the thread count.
fn default_threads(w: &Workload, args: &Args, tally: &Tally) -> (f64, f64, usize) {
    let threads = crate::nproc();
    let result = crate::steady::child(
        w.name,
        args.seed,
        (args.seconds / 2).max(1),
        false,
        Some(threads),
    );
    let count = |key: &str| match result.get(key) {
        Some(Json::Num(n)) => *n as usize,
        _ => panic!("the default-thread run reports no {key:?}"),
    };
    tally.absorb(count("attempted"), count("failed"));
    let metric = |name: &str| match result.get("metrics") {
        Some(Json::Obj(m)) => match m.get(name) {
            Some(Json::Obj(v)) => match v.get("value") {
                Some(Json::Num(n)) => *n,
                _ => f64::NAN,
            },
            _ => f64::NAN,
        },
        _ => f64::NAN,
    };
    (metric("latency_p50_ms"), metric("cpu_ms_per_req"), threads)
}

/// Runs the replays and probes, fills `metrics` with every per-layer
/// metric, writes the span file, and returns the request split as JSON.
pub fn per_layer(
    w: &Workload,
    server: &ServerHandle,
    load: &Load,
    oracles: &Oracles,
    tally: &Tally,
    args: &Args,
    metrics: &mut Metrics,
) -> String {
    let mut tr = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let sc = load_dir(&w.dir).expect("tenant directory loads");
    let requests: Vec<ExplainRequest> = w
        .bodies
        .iter()
        .map(|b| json::explain_body(b).expect("workload body decodes").req)
        .collect();

    // A served explain on the otherwise idle server, then the same
    // request untraced and traced in process: interleaved, so drift hits
    // all three alike. Untraced and traced swap order every pass, so
    // whatever running second costs or saves cancels out.
    let mut untraced: Vec<Vec<f64>> = vec![Vec::new(); requests.len()];
    let mut idle_overhead = Vec::new();
    let mut sums = Totals::default();
    let mut rid = 0u64;
    for pass in 0..PASSES {
        for (r, req) in requests.iter().enumerate() {
            rid += 1;
            let oracle = &oracles.bodies[r];
            let span = tr.begin("served", rid, None);
            let reply = crate::explain(server.addr(), &w.bodies[r]);
            tr.end(span);
            let served_ok = tally.record("idle served replay", crate::checked(&reply, oracle));
            let traced_first = (pass % 2 == 1).then(|| replay(&mut tr, rid, &sc, req, &mut sums));
            let span = tr.begin("untraced", rid, None);
            let out = run_explain(&sc.system, &sc.labels, req, req.budget(&CancelToken::new()))
                .expect("untraced replay runs");
            let ms = tr.end(span);
            untraced[r].push(ms);
            sums.untraced_ms += ms;
            if let (true, Ok(reply)) = (served_ok, &reply) {
                idle_overhead.push(reply.elapsed.as_secs_f64() * 1e3 - ms);
            }
            tally.record("untraced replay", matches(&out.stdout, oracle));
            let text = traced_first.unwrap_or_else(|| replay(&mut tr, rid, &sc, req, &mut sums));
            tally.record("traced replay", matches(&text, oracle));
        }
    }
    drop(sc);

    // Served time under load minus the same request's idle in-process
    // time: what the server adds while busy.
    let inproc: Vec<f64> = untraced
        .iter()
        .map(|v| median(v).expect("replayed"))
        .collect();
    let loaded_overhead: Vec<f64> = load
        .samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.ms - inproc[s.request])
        .collect();

    // Mounts: the median of a few of each.
    let mount_ms = probe(&mut tr, "probe.load_epoch", MOUNT_REPS, || {
        std::hint::black_box(load_epoch(&w.dir, 1).expect("tenant mounts"));
    });
    let load_ms = probe(&mut tr, "probe.load_dir", MOUNT_REPS, || {
        std::hint::black_box(load_dir(&w.dir).expect("tenant loads"));
    });
    let validate_ms = probe(&mut tr, "probe.validate_dir", MOUNT_REPS, || {
        std::hint::black_box(validate_dir(&w.dir));
    });

    // Served reloads on the idle server.
    let reload_ms: Vec<f64> = (0..RELOAD_REPS)
        .filter_map(|_| crate::reload(server.addr(), w.tenant, tally))
        .collect();

    // The wire parse of each request, as the server does it.
    let limits = HttpLimits::default();
    let bodies: Vec<Vec<u8>> = w.bodies.iter().map(|b| post_bytes("/explain", b)).collect();
    let parse_ms = probe(&mut tr, "probe.parse", PARSE_REPS, || {
        for raw in &bodies {
            let req = read_request(&mut &raw[..], &limits)
                .expect("request parses")
                .expect("request present");
            let text = std::str::from_utf8(&req.body).expect("UTF-8 body");
            std::hint::black_box(json::explain_body(text).expect("body decodes"));
        }
    });
    let parse_us = parse_ms * 1e3 / bodies.len() as f64;

    let (threaded_p50, threaded_cpu, threads) = default_threads(w, args, tally);

    let n = sums.requests;
    let per = |x: f64| x / n;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let untraced_ms = per(sums.untraced_ms);
    let (prepare, search, render) = (
        per(sums.prepare_ms),
        per(sums.search_ms),
        per(sums.render_ms),
    );
    let (batch, rc) = (per(sums.batch_ms), per(sums.rc_ms));
    let unowned = search - batch - rc;

    let overhead = median(&idle_overhead).unwrap_or(f64::NAN);
    metrics.put("serve.overhead_ms", overhead, "ms");
    metrics.put(
        "serve.overhead_tail_ms",
        tail(&loaded_overhead).map_or(f64::NAN, |t| t.0),
        "ms",
    );
    metrics.put("serve.parse_us", parse_us, "us");
    metrics.put("rss_mb", load.rss_mib, "MiB");
    metrics.put("tenants.mount_ms", mount_ms, "ms");
    metrics.put("scenario.load_ms", load_ms, "ms");
    metrics.put("scenario.validate_ms", validate_ms, "ms");
    metrics.put(
        "tenants.reload_ms",
        median(&reload_ms).unwrap_or(f64::NAN),
        "ms",
    );
    metrics.put("prepare.ms", prepare, "ms");
    metrics.put("border.ms", per(sums.border_ms), "ms");
    metrics.put("border.atoms", per(sums.border_atoms), "count");
    metrics.put("matcher.relevant_constants_ms", rc, "ms");
    metrics.put("search.ms", search, "ms");
    metrics.put("engine.batch_ms", batch, "ms");
    metrics.put("engine.evals", per(sums.evals), "count");
    metrics.put(
        "engine.cache_hit_rate",
        ratio(sums.hits, sums.hits + sums.misses),
        "ratio",
    );
    metrics.put(
        "engine.evals_saved_ratio",
        ratio(sums.saved, sums.evals + sums.saved),
        "ratio",
    );
    metrics.put(
        "prune.rate",
        ratio(sums.pruned, sums.pruned + sums.hits + sums.misses),
        "ratio",
    );
    metrics.put("search.unowned_ms", unowned, "ms");
    metrics.put("render.ms", render, "ms");
    metrics.put("rewrite.us_per_cq", ratio(sums.rewrite_us, sums.cqs), "us");
    metrics.put("unfold.us_per_cq", ratio(sums.unfold_us, sums.cqs), "us");
    metrics.put("eval.ms_per_cq", ratio(sums.eval_ms, sums.cqs), "ms");
    metrics.put("eval.nodes_guided", per(sums.nodes_guided), "count");
    metrics.put("eval.nodes_legacy", per(sums.nodes_legacy), "count");
    metrics.put("request.untraced_ms", untraced_ms, "ms");
    metrics.put("trace.overhead_ms", per(sums.traced_ms) - untraced_ms, "ms");
    metrics.put("threads.default_latency_p50_ms", threaded_p50, "ms");
    metrics.put("threads.default_cpu_ms_per_req", threaded_cpu, "ms");

    // The split of one in-process request, and the shares the workloads
    // are built to show: search on uni-search, prepare plus the
    // relevant-constant tally on hub-border, and recorder phases that
    // cover the untraced request.
    let split = format!(
        concat!(
            r#"{{"per_request_ms": {{"serve_overhead": {:.3}, "prepare": {:.3}, "relevant_constants": {:.3}, "#,
            r#""search": {:.3}, "engine_batch": {:.3}, "search_unowned": {:.3}, "render": {:.3}, "#,
            r#""untraced": {:.3}, "traced": {:.3}}}, "requests": {}, "default_threads": {}, "#,
            r#""search_share": {:.4}, "prepare_rc_share": {:.4}, "sum_ratio": {:.4}}}"#
        ),
        overhead,
        prepare,
        rc,
        search,
        batch,
        unowned,
        render,
        untraced_ms,
        per(sums.traced_ms),
        n,
        threads,
        search / untraced_ms,
        (prepare + rc) / untraced_ms,
        (prepare + search) / untraced_ms,
    );
    let dir = crate::trace_dir();
    std::fs::create_dir_all(&dir).expect("create the trace directory");
    let path = dir.join(format!("{}-seed{}.json", w.name, args.seed));
    let doc = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"split\": {split},\n\"spans\": {}}}\n",
        w.name,
        args.seed,
        tr.to_json()
    );
    std::fs::write(&path, doc).expect("write the trace file");
    eprintln!(
        "trace: {} spans written to {}",
        tr.spans.len(),
        path.display()
    );
    split
}

//! Observability: hierarchical spans, a process-wide metrics registry, and
//! profile exporters.
//!
//! The pipeline's expensive phases — PerfectRef rewriting, the chase,
//! border BFS, engine batch scoring — run in crates that must not depend
//! on the search layer, mirroring the [`interrupt`](crate::interrupt)
//! situation. A [`Recorder`] is the recording counterpart of an
//! [`Interrupt`](crate::Interrupt): an `Arc<Recorder>` rides down into the
//! kernels (on the interrupt itself), each kernel opens a [`Span`] and
//! bumps named counters, and the search layer snapshots the whole run into
//! a [`PipelineProfile`] that reports, exporters, and benches can render.
//!
//! Three layers, from cheapest to richest:
//!
//! 1. **Metrics registry** — process-wide named [`Counter`]s and log-scale
//!    latency [`Histogram`]s (p50/p95/p99). Lock-free after the first
//!    lookup (cache the `&'static` handle in a `LazyLock`); cheap enough
//!    to stay on in release builds.
//! 2. **Spans** — per-run wall-time aggregation keyed by a slash-separated
//!    path (`"explain/search/rewrite"`), with per-span counters. Spans are
//!    opened at loop granularity (per kernel invocation, per batch), never
//!    per candidate, so the mutex behind them is uncontended in practice.
//! 3. **Exporters** — a [`PipelineProfile`] snapshot that renders to JSON,
//!    an indented tree, or flamegraph collapsed-stack text.
//!
//! Two kill switches: building `obx-util` with `--no-default-features`
//! removes the `obs` feature and compiles every recording path down to a
//! constant-false branch, and setting `OBX_OBS=0` (or `off`/`false`/`no`)
//! disables recording at runtime. Both produce empty profiles; neither
//! changes any search result.

// Observability runs inside every kernel; it must never panic or poison.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Whether observability is compiled in **and** enabled at runtime.
///
/// The runtime half reads `OBX_OBS` once per process: `0`, `off`, `false`
/// and `no` (case-insensitive) disable recording. With the `obs` cargo
/// feature off this is a compile-time `false` and every recording path
/// becomes dead code.
pub fn enabled() -> bool {
    if !cfg!(feature = "obs") {
        return false;
    }
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| match std::env::var("OBX_OBS") {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "0" | "off" | "false" | "no"
        ),
        Err(_) => true,
    })
}

/// Recovers a mutex guard whether or not the lock is poisoned: the data
/// under observability locks is plain counters, always valid.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

// ---------------------------------------------------------------------------
// Span recording
// ---------------------------------------------------------------------------

/// Aggregated measurements for one span path: how many times it was
/// entered, total wall time, and its named counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct SpanAgg {
    count: u64,
    wall_ns: u64,
    counters: BTreeMap<String, u64>,
}

#[derive(Debug, Default)]
struct RecorderState {
    /// Span aggregates in *entry* order: a parent span is entered before
    /// its children and phases are entered in execution order, so this
    /// order renders directly as a tree.
    spans: Vec<(String, SpanAgg)>,
    /// The current top-level phase label; kernel spans nest under it (a
    /// kernel does not know whether it runs during preparation, search,
    /// or an audit pass — the phase owner does).
    phase: String,
}

impl RecorderState {
    fn agg_mut(&mut self, path: &str) -> &mut SpanAgg {
        if let Some(i) = self.spans.iter().position(|(p, _)| p == path) {
            return &mut self.spans[i].1;
        }
        self.spans.push((path.to_owned(), SpanAgg::default()));
        // `last_mut` is always `Some` after the push; avoid unwrap anyway.
        let last = self.spans.len() - 1;
        &mut self.spans[last].1
    }
}

/// A thread-safe per-run span recorder.
///
/// Cloned freely via `Arc`; kernels receive it through
/// [`Interrupt::recorder`](crate::Interrupt::recorder). A disabled
/// recorder (observability off, or [`Recorder::disabled`]) never locks and
/// never allocates.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: bool,
    state: Mutex<RecorderState>,
}

impl Recorder {
    /// A recorder that records iff [`enabled`] says observability is on.
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            enabled: enabled(),
            state: Mutex::new(RecorderState::default()),
        })
    }

    /// A recorder that never records (for tests and defaults).
    pub fn disabled() -> Arc<Self> {
        Arc::new(Recorder {
            enabled: false,
            state: Mutex::new(RecorderState::default()),
        })
    }

    /// Whether this recorder records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span at an absolute slash-separated path. The span records
    /// its wall time (and any [`Span::count`] increments) when dropped.
    pub fn enter(&self, path: &str) -> Span<'_> {
        if !self.enabled {
            return Span::noop();
        }
        lock_recover(&self.state).agg_mut(path);
        Span {
            rec: Some(self),
            path: path.to_owned(),
            t0: Instant::now(),
            counters: Vec::new(),
            max_counters: Vec::new(),
        }
    }

    /// Opens a span at `path` and makes it the current *phase*: until the
    /// next `enter_phase`, kernel spans ([`Recorder::kernel`]) nest under
    /// this path.
    pub fn enter_phase(&self, path: &str) -> Span<'_> {
        if !self.enabled {
            return Span::noop();
        }
        lock_recover(&self.state).phase = path.to_owned();
        self.enter(path)
    }

    /// Opens a kernel span named `name` under the current phase
    /// (`"<phase>/<name>"`, or just `"<name>"` when no phase is set).
    /// Kernels running on worker threads still land under the right phase
    /// because the phase label lives on the shared recorder.
    pub fn kernel(&self, name: &str) -> Span<'_> {
        if !self.enabled {
            return Span::noop();
        }
        let path = {
            let state = lock_recover(&self.state);
            if state.phase.is_empty() {
                name.to_owned()
            } else {
                format!("{}/{}", state.phase, name)
            }
        };
        self.enter(&path)
    }

    /// Adds `delta` to the counter `key` of the span at `path`, creating
    /// both if needed.
    pub fn count(&self, path: &str, key: &str, delta: u64) {
        if !self.enabled || delta == 0 {
            return;
        }
        let mut state = lock_recover(&self.state);
        let agg = state.agg_mut(path);
        *agg.counters.entry(key.to_owned()).or_insert(0) += delta;
    }

    /// Sets the counter `key` of the span at `path` to an absolute value,
    /// overwriting any previous one. For cumulative gauges (engine cache
    /// totals) that would double-count if merged additively.
    pub fn gauge(&self, path: &str, key: &str, value: u64) {
        if !self.enabled {
            return;
        }
        let mut state = lock_recover(&self.state);
        let agg = state.agg_mut(path);
        agg.counters.insert(key.to_owned(), value);
    }

    /// [`Recorder::gauge`], but nested under the current phase like a
    /// kernel span (`"<phase>/<name>"`): end-of-phase snapshots (engine
    /// cache totals) render inside the phase that produced them instead
    /// of as a stray root.
    pub fn gauge_in_phase(&self, name: &str, key: &str, value: u64) {
        if !self.enabled {
            return;
        }
        let mut state = lock_recover(&self.state);
        let path = if state.phase.is_empty() {
            name.to_owned()
        } else {
            format!("{}/{}", state.phase, name)
        };
        let agg = state.agg_mut(&path);
        agg.counters.insert(key.to_owned(), value);
    }

    fn merge(
        &self,
        path: &str,
        elapsed: Duration,
        counters: &[(String, u64)],
        max_counters: &[(String, u64)],
    ) {
        let mut state = lock_recover(&self.state);
        let agg = state.agg_mut(path);
        agg.count += 1;
        agg.wall_ns = agg.wall_ns.saturating_add(duration_ns(elapsed));
        for (key, delta) in counters {
            *agg.counters.entry(key.clone()).or_insert(0) += delta;
        }
        // High-water marks merge by max, so concurrent spans at one path
        // (e.g. per-worker spans of one batch) report a true maximum.
        for (key, value) in max_counters {
            let slot = agg.counters.entry(key.clone()).or_insert(0);
            *slot = (*slot).max(*value);
        }
    }

    /// Snapshots everything recorded so far into a [`PipelineProfile`].
    /// A disabled recorder yields an empty profile.
    pub fn profile(&self) -> PipelineProfile {
        if !self.enabled {
            return PipelineProfile::default();
        }
        let state = lock_recover(&self.state);
        PipelineProfile {
            spans: state
                .spans
                .iter()
                .map(|(path, agg)| ProfiledSpan {
                    path: path.clone(),
                    count: agg.count,
                    wall_ms: agg.wall_ns as f64 / 1e6,
                    counters: agg.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
                })
                .collect(),
        }
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// An open span: measures wall time from creation to drop and buffers
/// counter increments locally (one lock acquisition per span, at drop).
#[derive(Debug)]
pub struct Span<'a> {
    rec: Option<&'a Recorder>,
    path: String,
    t0: Instant,
    counters: Vec<(String, u64)>,
    max_counters: Vec<(String, u64)>,
}

impl Span<'_> {
    /// A span that records nothing; [`Span::count`] on it is free.
    pub fn noop() -> Span<'static> {
        Span {
            rec: None,
            path: String::new(),
            t0: Instant::now(),
            counters: Vec::new(),
            max_counters: Vec::new(),
        }
    }

    /// Whether this span actually records (false on disabled recorders).
    pub fn is_live(&self) -> bool {
        self.rec.is_some()
    }

    /// Adds `delta` to this span's counter `key` (merged into the
    /// recorder when the span drops).
    pub fn count(&mut self, key: &str, delta: u64) {
        if self.rec.is_none() || delta == 0 {
            return;
        }
        if let Some(slot) = self.counters.iter_mut().find(|(k, _)| k == key) {
            slot.1 += delta;
            return;
        }
        self.counters.push((key.to_owned(), delta));
    }

    /// Sets this span's counter `key` to the maximum of its current value
    /// and `value` (for high-water marks like frontier width). Unlike
    /// [`Span::count`], these merge into the recorder by **max**, so
    /// concurrent spans at the same path keep true high-water semantics.
    pub fn count_max(&mut self, key: &str, value: u64) {
        if self.rec.is_none() {
            return;
        }
        if let Some(slot) = self.max_counters.iter_mut().find(|(k, _)| k == key) {
            slot.1 = slot.1.max(value);
            return;
        }
        self.max_counters.push((key.to_owned(), value));
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(rec) = self.rec {
            rec.merge(
                &self.path,
                self.t0.elapsed(),
                &self.counters,
                &self.max_counters,
            );
        }
    }
}

/// Opens a kernel span on an optional recorder — the form every kernel
/// uses, since kernels hold `interrupt.recorder(): Option<&Arc<Recorder>>`.
/// Returns a no-op span when the recorder is absent or disabled.
pub fn span_of<'a>(rec: Option<&'a Arc<Recorder>>, name: &str) -> Span<'a> {
    match rec {
        Some(r) if r.is_enabled() => r.kernel(name),
        _ => Span::noop(),
    }
}

/// Opens a kernel [`Span`](crate::obs::Span) on an `Option<&Arc<Recorder>>`
/// (as carried by [`Interrupt`](crate::Interrupt)): `span!(rec, "rewrite")`.
/// Expands to a no-op span when observability is off.
#[macro_export]
macro_rules! span {
    ($rec:expr, $name:expr) => {
        $crate::obs::span_of($rec, $name)
    };
}

// ---------------------------------------------------------------------------
// Pipeline profile (the exported snapshot)
// ---------------------------------------------------------------------------

/// One span in a [`PipelineProfile`] snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfiledSpan {
    /// Slash-separated span path, e.g. `"explain/search/rewrite"`.
    pub path: String,
    /// How many times the span was entered.
    pub count: u64,
    /// Total wall time across all entries, in milliseconds.
    pub wall_ms: f64,
    /// Named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl ProfiledSpan {
    /// The value of counter `key`, or 0 when absent.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |(_, v)| *v)
    }

    /// The last path segment (the span's own name).
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }

    /// How many `/`-separated segments deep this span is (0 for roots).
    pub fn depth(&self) -> usize {
        self.path.matches('/').count()
    }
}

/// A structured snapshot of one run's spans — the `profile` field of an
/// explain report, the payload of `obx explain --profile`, and the
/// `"profile"` object embedded in the bench JSON files.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineProfile {
    /// Spans in entry order (parents before children, phases in execution
    /// order).
    pub spans: Vec<ProfiledSpan>,
}

impl PipelineProfile {
    /// Whether nothing was recorded (observability off, or no spans).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The span at exactly `path`, if recorded.
    pub fn span(&self, path: &str) -> Option<&ProfiledSpan> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Total wall time of the span at `path` (0 when absent).
    pub fn wall_ms(&self, path: &str) -> f64 {
        self.span(path).map_or(0.0, |s| s.wall_ms)
    }

    /// Sums counter `key` across every span (counters live on the span
    /// that recorded them; this answers "how many rewrite disjuncts were
    /// produced anywhere in the run").
    pub fn counter_total(&self, key: &str) -> u64 {
        self.spans.iter().map(|s| s.counter(key)).sum()
    }

    /// The direct children of `path` (spans exactly one segment deeper).
    pub fn children_of<'a>(&'a self, path: &str) -> impl Iterator<Item = &'a ProfiledSpan> {
        let prefix = format!("{path}/");
        self.spans
            .iter()
            .filter(move |s| s.path.starts_with(&prefix) && !s.path[prefix.len()..].contains('/'))
    }

    /// Renders the profile as deterministic single-line JSON:
    /// `{"spans":[{"path":…,"count":…,"wall_ms":…,"counters":{…}}, …]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"path\":\"{}\",\"count\":{},\"wall_ms\":{:.3},\"counters\":{{",
                json_escape(&s.path),
                s.count,
                s.wall_ms
            ));
            for (j, (k, v)) in s.counters.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{}", json_escape(k), v));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Renders the profile as an indented tree, one span per line:
    /// wall time, entry count, then `key=value` counters.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let indent = "  ".repeat(s.depth());
            out.push_str(&format!(
                "{indent}{:<width$} {:>10.3} ms  ×{}",
                s.name(),
                s.wall_ms,
                s.count,
                width = 24usize.saturating_sub(indent.len()),
            ));
            for (k, v) in &s.counters {
                out.push_str(&format!("  {k}={v}"));
            }
            out.push('\n');
        }
        out
    }

    /// Renders collapsed-stack flamegraph text: one `path;seg;… value`
    /// line per span, value = *self* time in microseconds (span wall time
    /// minus its direct children's, clamped at zero) — the input format of
    /// standard flamegraph tooling.
    pub fn to_flamegraph(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let child_ms: f64 = self.children_of(&s.path).map(|c| c.wall_ms).sum();
            let self_us = ((s.wall_ms - child_ms).max(0.0) * 1e3).round() as u64;
            out.push_str(&format!("{} {}\n", s.path.replace('/', ";"), self_us));
        }
        out
    }
}

/// Escapes `s` for embedding inside a JSON string literal: quotes,
/// backslashes and every control character.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Process-wide metrics registry
// ---------------------------------------------------------------------------

/// A monotonically increasing named counter. Obtain a `&'static` handle
/// once via [`counter`], then [`Counter::add`] is a single relaxed atomic
/// add (or a constant-false branch when observability is off).
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// The counter's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `delta`. No-op when observability is disabled.
    pub fn add(&self, delta: u64) {
        if enabled() {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution bits: 4 sub-buckets per power of two, so bucket
/// boundaries are ≤ 25% apart and quantile estimates land within 25% of
/// the true order statistic.
const SUB_BITS: u32 = 2;
const SUBS: usize = 1 << SUB_BITS;
/// Values 0..4 get exact buckets; every exponent ≥ 2 contributes 4.
const NUM_BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// A log-scale histogram of `u64` samples (latencies in nanoseconds,
/// sizes, …): 4 sub-buckets per power of two, each bucket a relaxed
/// atomic, so recording is lock-free and quantiles are reconstructed to
/// within 25% relative error ([`Histogram::quantile`]).
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: Vec<AtomicU64>,
}

/// The bucket index of `v`: exact for `v < 4`, then `4·(exp−2) + 4 + sub`
/// where `exp = ⌊log2 v⌋` and `sub` is the two bits below the leading one.
fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = ((v >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
    SUBS + ((exp - SUB_BITS) as usize) * SUBS + sub
}

/// The inclusive upper bound of bucket `i` (the representative value a
/// quantile query returns).
fn bucket_hi(i: usize) -> u64 {
    if i < SUBS {
        return i as u64;
    }
    let exp = ((i - SUBS) / SUBS) as u32 + SUB_BITS;
    let sub = ((i - SUBS) % SUBS) as u64;
    let lo = (SUBS as u64 + sub) << (exp - SUB_BITS);
    // Parenthesised so the top bucket (`lo + width` = 2⁶⁴) cannot overflow
    // before the −1 is applied.
    lo + ((1u64 << (exp - SUB_BITS)) - 1)
}

impl Histogram {
    fn new(name: &'static str) -> Self {
        Histogram {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The histogram's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one sample. No-op when observability is disabled.
    pub fn record(&self, value: u64) {
        if !enabled() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(duration_ns(d));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The estimated `q`-quantile (`0.0 ≤ q ≤ 1.0`): the upper bound of
    /// the bucket holding the `⌈q·n⌉`-th smallest sample. Exact for
    /// values < 4, within 25% above the true order statistic otherwise.
    /// Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_hi(i);
            }
        }
        bucket_hi(NUM_BUCKETS - 1)
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, &'static Counter>,
    histograms: BTreeMap<&'static str, &'static Histogram>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// The process-wide counter named `name`, created on first use. The
/// returned handle is `'static`: look it up once (e.g. in a `LazyLock`)
/// and hot paths pay only the atomic add.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = lock_recover(registry());
    reg.counters.entry(name).or_insert_with(|| {
        // One-time intentional leak: metric handles live for the process.
        Box::leak(Box::new(Counter {
            name,
            value: AtomicU64::new(0),
        }))
    })
}

/// Like [`counter`], but for names composed at runtime (e.g. per-tenant
/// metrics such as `serve.tenant.alpha.shed`). The name is leaked **once**
/// on first registration — callers must keep the name space bounded
/// (tenant names, not request ids). Subsequent calls with the same name
/// return the existing handle without allocating.
pub fn counter_dyn(name: &str) -> &'static Counter {
    let mut reg = lock_recover(registry());
    if let Some(c) = reg.counters.get(name) {
        return c;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    let handle: &'static Counter = Box::leak(Box::new(Counter {
        name: leaked,
        value: AtomicU64::new(0),
    }));
    reg.counters.insert(leaked, handle);
    handle
}

/// The process-wide histogram named `name`, created on first use. Same
/// `'static`-handle contract as [`counter`].
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut reg = lock_recover(registry());
    reg.histograms
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Histogram::new(name))))
}

/// Renders every registered metric as deterministic single-line JSON:
/// counters as `name: value`, histograms as
/// `name: {count, sum, p50, p95, p99}`.
pub fn metrics_json() -> String {
    let reg = lock_recover(registry());
    let mut out = String::from("{\"counters\":{");
    for (i, (name, c)) in reg.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", json_escape(name), c.get()));
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in reg.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            json_escape(name),
            h.count(),
            h.sum(),
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99)
        ));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn spans_aggregate_by_path_in_entry_order() {
        let rec = Recorder::new();
        if !rec.is_enabled() {
            return; // OBX_OBS=0 in the environment: nothing to assert.
        }
        {
            let _outer = rec.enter("run");
            for _ in 0..3 {
                let mut s = rec.enter("run/step");
                s.count("items", 2);
            }
        }
        let p = rec.profile();
        assert_eq!(p.spans.len(), 2);
        assert_eq!(p.spans[0].path, "run", "parent entered first");
        let step = p.span("run/step").unwrap();
        assert_eq!(step.count, 3);
        assert_eq!(step.counter("items"), 6);
        let run = p.span("run").unwrap();
        assert!(run.wall_ms >= step.wall_ms, "children sum ≤ parent");
    }

    #[test]
    fn phase_prefixes_kernel_spans() {
        let rec = Recorder::new();
        if !rec.is_enabled() {
            return;
        }
        {
            let _p = rec.enter_phase("explain/search");
            let _k = rec.kernel("rewrite");
        }
        let p = rec.profile();
        assert!(p.span("explain/search/rewrite").is_some(), "{p:?}");
        let free = span_of(None, "orphan");
        assert!(!free.is_live());
    }

    #[test]
    fn disabled_recorder_yields_an_empty_profile() {
        let rec = Recorder::disabled();
        {
            let mut s = rec.enter("anything");
            s.count("k", 1);
            rec.count("anything", "k", 1);
            rec.gauge("anything", "g", 9);
        }
        assert!(rec.profile().is_empty());
        assert_eq!(rec.profile().to_json(), "{\"spans\":[]}");
    }

    #[test]
    fn count_max_merges_by_maximum_across_spans() {
        let rec = Recorder::new();
        if !rec.is_enabled() {
            return;
        }
        // Two spans at the same path (as one search's per-round spans
        // are): the high-water mark must be the max, not the sum.
        for v in [7u64, 3] {
            let mut s = rec.enter("batch/worker");
            s.count_max("max_tasks", v);
            s.count("tasks", v);
        }
        let p = rec.profile();
        let w = p.span("batch/worker").unwrap();
        assert_eq!(w.counter("max_tasks"), 7);
        assert_eq!(w.counter("tasks"), 10);
    }

    #[test]
    fn gauge_overwrites_instead_of_accumulating() {
        let rec = Recorder::new();
        if !rec.is_enabled() {
            return;
        }
        rec.gauge("engine", "cache_hits", 5);
        rec.gauge("engine", "cache_hits", 7);
        assert_eq!(
            rec.profile().span("engine").unwrap().counter("cache_hits"),
            7
        );
    }

    #[test]
    fn counter_dyn_returns_a_stable_handle_per_name() {
        let a = counter_dyn("test.dyn.tenant-a");
        let b = counter_dyn("test.dyn.tenant-a");
        assert!(std::ptr::eq(a, b), "same name must reuse one handle");
        assert_eq!(a.name(), "test.dyn.tenant-a");
        let other = counter_dyn("test.dyn.tenant-b");
        assert!(!std::ptr::eq(a, other));
    }

    #[test]
    fn counter_dyn_and_counter_share_the_registry() {
        let via_static = counter("test.dyn.shared");
        let via_dyn = counter_dyn("test.dyn.shared");
        assert!(std::ptr::eq(via_static, via_dyn));
    }

    #[test]
    fn bucket_index_and_hi_are_consistent() {
        for v in (0..200u64).chain([1023, 1024, 1 << 40, u64::MAX / 2, u64::MAX]) {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "index in range for {v}");
            assert!(bucket_hi(i) >= v, "hi ≥ v for {v}");
            assert!(
                v < SUBS as u64 || bucket_hi(i) <= v.saturating_add(v / SUBS as u64),
                "hi within 25% for {v}: {}",
                bucket_hi(i)
            );
        }
    }

    #[test]
    fn exporters_render_deterministically() {
        let rec = Recorder::new();
        if !rec.is_enabled() {
            return;
        }
        {
            let _a = rec.enter("x");
            let mut b = rec.enter("x/y");
            b.count("n", 3);
        }
        let p = rec.profile();
        let json = p.to_json();
        assert!(json.starts_with("{\"spans\":[{\"path\":\"x\""), "{json}");
        assert!(json.contains("\"n\":3"), "{json}");
        let tree = p.render_tree();
        assert!(tree.contains("x"), "{tree}");
        assert!(tree.contains("n=3"), "{tree}");
        let fg = p.to_flamegraph();
        assert!(fg.contains("x;y "), "{fg}");
    }
}

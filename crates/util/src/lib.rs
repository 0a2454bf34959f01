//! `obx-util` — shared low-level utilities for the `obx` workspace.
//!
//! This crate deliberately has **no** third-party dependencies. It provides:
//!
//! * [`hash`] — an Fx-style fast hasher plus [`FxHashMap`]/[`FxHashSet`]
//!   aliases (the workspace policy forbids pulling `rustc-hash`, so the
//!   64-bit Fx mixing function is reimplemented here);
//! * [`intern`] — a compact string interner used for constants, predicate
//!   names, concept names and role names across the whole stack;
//! * [`table`] — a tiny fixed-width table printer used by the benchmark
//!   harness to render paper-style tables;
//! * [`fixpoint`] — a helper for running saturation loops to a fixed point;
//! * [`interrupt`] — a cooperative deadline/cancellation signal checked by
//!   the workspace's long-running kernels (rewriting, chase, border BFS);
//! * [`guard`] — cumulative size/memory guards charged by those kernels
//!   (max rewrite disjuncts, chase facts, border atoms, byte estimate);
//! * [`diag`] — structured, positioned ingestion diagnostics with a
//!   source-line caret renderer;
//! * [`obs`] — observability: hierarchical spans, a process-wide metrics
//!   registry (counters + log-scale latency histograms), and
//!   JSON/tree/flamegraph profile exporters, gated by the `obs` feature
//!   and the `OBX_OBS` environment variable;
//! * [`signal`] — the process's single SIGINT/SIGTERM handler, fanning
//!   shutdown out to every registered cancellation flag (CLI Ctrl-C
//!   cancel and `obx serve` drain share it — no double-install races).

#![warn(missing_docs)]
// Hashing, interning and observability sit under every other crate,
// the always-on server included: no non-test code in this crate may panic
// on an `unwrap` or `expect`. A static invariant or a capacity overflow
// carries a scoped `#[allow]` with the reason next to it.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod diag;
pub mod fixpoint;
pub mod guard;
pub mod hash;
pub mod intern;
pub mod interrupt;
pub mod obs;
pub mod signal;
pub mod table;

pub use diag::{Diagnostic, Diagnostics, Severity};
pub use guard::{GuardKind, GuardLimits, GuardTrip, ResourceGuard};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use intern::{Interner, Span, Symbol};
pub use interrupt::Interrupt;
pub use obs::{PipelineProfile, Recorder};

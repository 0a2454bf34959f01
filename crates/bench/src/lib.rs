//! `obx-bench` — the experiment harness.
//!
//! Each `eNN_*` module computes the *rows* of one experiment from
//! DESIGN.md's index (E1–E10): the `tables` binary renders them as text
//! tables (the source of EXPERIMENTS.md), and the Criterion benches in
//! `benches/` time the underlying kernels. Keeping row computation here,
//! as plain functions, means the printed numbers and the benchmarked code
//! paths cannot drift apart.
//!
//! The six bins that write the committed `BENCH_*.json` files (`eval`,
//! `modes`, `scale`, `search`, `serve`, `smoke`) share the [`harness`]:
//! [`harness::Best`] keeps the fastest of N repetitions and drift-checks
//! every repetition against it (equal nodes, equal ranked output, equal
//! membership bits), and [`harness::Report`] is the one writer of a
//! bench file. It opens every file with the bench name and the host
//! facts `cores` and `host_kernel_us`, writes `*_ms` wall
//! times to 3 decimals, prints the single line to stdout and writes it
//! to the workspace root. `obx-ci` gates the `*_ms` keys against the
//! committed files and fails a file that lacks the host facts.

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;

pub use experiments::*;

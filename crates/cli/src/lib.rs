//! `obx-cli` — a command-line front end for the explanation framework.
//!
//! A *scenario directory* holds the five text artefacts of an explanation
//! problem (the formats are those of the workspace parsers):
//!
//! | file | contents | format |
//! |---|---|---|
//! | `schema.obx` | the source schema `S` | `NAME/ARITY …` |
//! | `data.obx` | the database `D` | `REL(a, b).` per line |
//! | `ontology.obx` | the TBox `O` | `concept …` / `role …` / `A < B` |
//! | `mapping.obx` | the mapping `M` | `REL(x, y) ~> role(x, y)` |
//! | `labels.obx` | the classifier λ | `+ const[, const]` / `- …` |
//!
//! Commands (see [`run`]): `init`, `explain`, `score`, `certain`,
//! `consistency`, `border`, `evidence`.

#![warn(missing_docs)]
// User input must never crash the CLI with a panic message: every failure
// path is a structured `CliError` with an exit code. Tests opt back in
// (see the per-module allows).
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod commands;

pub use commands::{run, run_cancellable, CliError, CliOutcome};
pub use obx_core::budget::CancelToken;
pub use obx_core::scenario::{load_dir, write_paper_example, LoadedScenario};

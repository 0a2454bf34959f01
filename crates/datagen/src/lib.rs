//! `obx-datagen` — synthetic workloads for evaluating the explanation
//! framework.
//!
//! The paper defers quantitative evaluation to future work and its §1
//! motivation mentions proprietary data (COMPAS). This crate supplies the
//! substitutes (documented in DESIGN.md §4): every generator is
//! deterministic given a seed, plants a known **ground-truth ontology
//! query** as the hidden classifier, labels tuples by its certain answers,
//! and can corrupt labels with Bernoulli noise — enabling the fidelity
//! measurements (E5) that an opaque real-world classifier would not.
//!
//! * [`scenario`] — the common `Scenario` bundle + fidelity metrics;
//! * [`university`] — the paper's running example, scaled (E6, E9);
//! * [`recidivism`] — a COMPAS-like bias-audit scenario (E9, examples);
//! * [`random_scenario`] — random DL-Lite OBDM systems for engine
//!   cross-checks and scaling sweeps (E5, E7, E8, E10);
//! * [`hierarchy`] — chain/tree TBox builders for rewriting benchmarks
//!   (E7);
//! * [`skewed`] — the university scenario with power-law (Zipf) enrolment
//!   degrees: hub constants stress per-constant index scans (the skewed
//!   panels of the evaluator bench);
//! * [`modes`] — a compliance-audit family whose best sound, best
//!   complete, and best F-score explanations provably differ (the
//!   workload behind `BENCH_modes.json` and the mode proptests).

#![warn(missing_docs)]

pub mod hierarchy;
pub mod modes;
pub mod random_scenario;
pub mod recidivism;
pub mod scale;
pub mod scenario;
pub mod skewed;
pub mod university;

pub use modes::{modes_scenario, ModesParams};
pub use random_scenario::{random_scenario, RandomParams};
pub use recidivism::{recidivism_scenario, RecidivismParams};
pub use scenario::{fidelity, Fidelity, Scenario};
pub use skewed::{skewed_scenario, SkewedParams, Zipf};
pub use university::{university_scenario, UniversityParams};

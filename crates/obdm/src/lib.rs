//! `obx-obdm` — OBDM specifications `J = ⟨O, S, M⟩` and systems
//! `Σ = ⟨J, D⟩`, with certain-answer computation.
//!
//! This crate glues the substrates together and implements the paper's §2
//! semantics: the certain answers `cert(q, J, D)` are the tuples of
//! constants satisfying `q` in *every* model of the system. Two independent
//! engines compute them:
//!
//! * [`compile`] — the **rewriting engine**: compile the query into a
//!   source UCQ, then evaluate it over `D`. When `O` has no `B ⊑ ∃R`
//!   inclusion, [`ObdmSpec::new`] saturates `M` with `O`'s closures once
//!   (a T-mapping, [`obx_mapping::MappingIndex::saturated`]) and a query
//!   compiles with one unfolding over it. Otherwise it compiles through
//!   PerfectRef over `O` ([`obx_query::rewrite`]) and plain unfolding
//!   through `M` ([`obx_mapping::unfold`]). A compiled query is reusable
//!   across views — the explanation matcher compiles a candidate once and
//!   evaluates it over thousands of per-tuple borders.
//! * [`chase`] — the **materialization engine**: retrieve the virtual ABox
//!   `M(D)`, saturate it with the TBox's positive inclusions (restricted
//!   chase with labelled nulls, depth-bounded by the query size), and
//!   evaluate the query directly, discarding answers that mention nulls.
//!
//! The engines are provably equivalent for UCQs over DL-Lite_R with sound
//! GAV mappings; the integration suite cross-checks them on random
//! scenarios, which guards both implementations. The two compile routes
//! are cross-checked the same way (`tests/saturated_compile.rs`).
//!
//! No input can panic the non-test code of this crate: the crate root
//! denies `unwrap` and `expect`, and the two static invariants that keep
//! an `expect` say why it holds.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chase;
pub mod compile;
pub mod spec;

pub use chase::{chase_abox, chase_abox_interruptible, ChaseConfig, Ind, MaterializedAbox};
pub use compile::CompiledQuery;
pub use spec::{example_3_6_system, ObdmError, ObdmSpec, ObdmSystem};

//! `obx-ontology` — the ontology layer `O` of an OBDM specification.
//!
//! The paper assumes `O` is "formulated in a Description Logic … so as to
//! take advantage of various reasoning capabilities" (§1) and, like all OBDM
//! work from the same group, the tractable *DL-Lite* family is the intended
//! instantiation (§2 cites DL-Lite_A). No mature DL reasoner exists as a
//! Rust crate, so this crate implements **DL-Lite_R with functionality
//! assertions** (i.e. the core of DL-Lite_A without value domains) from
//! scratch:
//!
//! * [`vocab`] — interned concept and role names;
//! * [`expr`] — role expressions (`R`, `R⁻`) and basic concepts
//!   (`A`, `∃R`, `∃R⁻`);
//! * [`tbox`] — TBox axioms: positive/negative concept and role inclusions
//!   and functionality assertions;
//! * [`reasoner`] — saturation-based TBox reasoning: subsumption closure,
//!   disjointness closure, unsatisfiable-concept detection, classification
//!   (direct subsumers, used by the explanation search to climb the
//!   hierarchy);
//! * [`abox`] — ABoxes generic over the individual type (source constants
//!   in the virtual ABox; constants-or-nulls during the chase), with
//!   consistency checking against a TBox;
//! * [`parse`] — a small text syntax (`studies < likes`,
//!   `exists(teaches) < Professor`, `Student < not Course`, `funct inv(r)`).

#![warn(missing_docs)]
// Reasoning runs on every spec load, including reloads inside the
// always-on server: no non-test code in this crate may panic on an
// `unwrap` or `expect`. A static invariant carries a scoped `#[allow]`
// with the reason next to it.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod abox;
pub mod expr;
pub mod parse;
pub mod reasoner;
pub mod tbox;
pub mod vocab;

pub use abox::{ABox, AboxViolation};
pub use expr::{BasicConcept, ConceptRhs, Role, RoleRhs};
pub use parse::{parse_tbox, parse_tbox_diag, OntoParseError};
pub use reasoner::Reasoner;
pub use tbox::{Axiom, TBox};
pub use vocab::{ConceptId, OntoVocab, RoleId};

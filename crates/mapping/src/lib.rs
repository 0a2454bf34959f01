//! `obx-mapping` — the mapping layer `M` of an OBDM specification.
//!
//! `M` relates the source schema `S` to the ontology `O` through *sound
//! GAV* (global-as-view) mapping assertions, each of the form
//!
//! ```text
//! φ(x̄) ⇝ α(x̄)
//! ```
//!
//! where `φ` is a CQ over `S` and `α` a single ontology atom over (a subset
//! of) `φ`'s variables. §2 of the paper explains why sound mappings are the
//! only decidable choice in this setting; GAV heads are what every deployed
//! OBDM platform (Mastro, Ontop) uses, and what the paper's own example
//! mapping (`ENR(x, y, z) ⇝ studies(x, y)`) is.
//!
//! The two directions of use:
//!
//! * [`vabox`] — *forward*: materialize the **virtual ABox** `M(D)` by
//!   evaluating every assertion body over the source database (used by the
//!   materialization-based certain-answer engine and by the generalization
//!   search);
//! * [`unfold`] — *backward*: rewrite a query over `O` into a UCQ over
//!   `S`. A [`MappingIndex`] says which assertions yield each ontology
//!   predicate: [`MappingIndex::plain`] by their own heads (for a query
//!   PerfectRef has already rewritten), or [`MappingIndex::saturated`]
//!   under the TBox's closures, a T-mapping that makes PerfectRef
//!   unnecessary when the TBox has no `B ⊑ ∃R` inclusion.
//!
//! No input can panic the non-test code of this crate: the crate root
//! denies `unwrap` and `expect`.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod assertion;
pub mod parse;
pub mod unfold;
pub mod vabox;

pub use assertion::{Mapping, MappingAssertion, MappingError};
pub use parse::{parse_mapping, parse_mapping_diag};
pub use unfold::{unfold, unfold_cq, MappingIndex, UnfoldError};
pub use vabox::virtual_abox;

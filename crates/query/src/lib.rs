//! `obx-query` — conjunctive queries (CQs) and unions of conjunctive
//! queries (UCQs) for the OBDM stack.
//!
//! §2 of the paper fixes UCQs as the query language: FOL immediately makes
//! certain-answer computation undecidable, whereas UCQs over DL-Lite admit
//! first-order rewritability. This crate provides:
//!
//! * [`term`] — query terms (variables / constants);
//! * [`onto`] — CQs/UCQs over the *ontology* vocabulary (unary concept
//!   atoms, binary role atoms), with canonicalization up to variable
//!   renaming;
//! * [`src`] — CQs/UCQs over the *source* schema (n-ary relational atoms);
//! * [`eval`] — evaluation of source CQs over a [`obx_srcdb::View`] (full
//!   database or border sub-database): an index-driven backtracking join
//!   that joins the most selective atom first;
//! * [`containment`] — CQ/UCQ containment via canonical databases
//!   (freezing), the classical Chandra–Merlin characterization;
//! * [`rewrite`] — the **PerfectRef** algorithm (Calvanese et al., 2007):
//!   compiles a UCQ over the ontology and a DL-Lite_R TBox into a UCQ whose
//!   evaluation over any ABox/database yields exactly the certain answers;
//! * [`parse`] — text syntax `q(x) :- studies(x, y), locatedIn(y, "Rome")`.

#![warn(missing_docs)]
// Parsing, rewriting and evaluation run on user queries inside the serve
// loop: failures flow back as values, never as unwinds.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod containment;
pub mod eval;
pub mod onto;
pub mod parse;
pub mod rewrite;
pub mod src;
pub mod term;

pub use containment::{
    cq_contained, cq_equivalent, minimize_cq, minimize_onto_cq, minimize_ucq, onto_cq_contained,
    onto_to_pseudo_src, onto_ucq_contained, ucq_contained,
};
pub use eval::{
    answers, answers_ucq, certified, head_depth, node_counts, satisfies, satisfies_ucq,
    satisfies_ucq_each, witness, witness_ucq, Goal, Matches,
};
pub use onto::{OntoAtom, OntoCq, OntoUcq, QueryError};
pub use parse::{parse_onto_cq, parse_onto_ucq, parse_src_cq, QueryParseError};
pub use rewrite::{perfect_ref, perfect_ref_interruptible, RewriteBudget, RewriteError};
pub use src::{SrcAtom, SrcCq, SrcUcq};
pub use term::{Term, VarId};

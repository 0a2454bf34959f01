//! `obx-srcdb` — the relational *source layer* of an OBDM system.
//!
//! In the paper's architecture (Fig. 1), the data layer is an `S`-database
//! `D`: a finite set of atoms `s(c̄)` over a source schema `S`. This crate
//! implements that layer:
//!
//! * [`schema`] — relation declarations (`RelId`, arity) for the schema `S`;
//! * [`consts`] — interned constants (`Const`) and tuples over `dom(D)`;
//! * [`atom`] — ground atoms `s(c̄)` and their ids;
//! * [`database`] — the atom store with three indexes: per-relation,
//!   per-(relation, position, constant), and a constant→atom adjacency index
//!   (the latter makes the border BFS of Definition 3.2 near-linear);
//! * [`atomset`] — [`AtomSet`], the atom-id set borders and view masks
//!   are stored as (dense words, or a sorted slice when that is smaller);
//! * [`view`] — a database or a masked sub-database (a border) presented
//!   uniformly to query evaluators;
//! * [`border`] — reachability (Def. 3.1) and the border of radius `r`
//!   `B_{t,r}(D)` (Def. 3.2), with the BFS-layer semantics fixed by the
//!   paper's Example 3.3;
//! * [`parse`] — a small text format for databases (`ENR(A10, Math, TV).`),
//!   used by examples and tests;
//! * [`snapshot`] — a versioned, checksummed binary image of the data
//!   layer for fast million-atom loads.

#![warn(missing_docs)]

pub mod atom;
pub mod atomset;
pub mod border;
pub mod consts;
pub mod database;
pub mod parse;
pub mod schema;
pub mod snapshot;
pub mod view;

pub use atom::{Atom, AtomId, AtomRef};
pub use atomset::{AtomSet, Bitmap};
pub use border::{border, borders, reachable_from, Border, TupleBorder};
pub use consts::{Const, ConstPool, Tuple};
pub use database::Database;
pub use parse::{
    add_facts, add_facts_diag, parse_database, parse_database_diag, parse_schema,
    parse_schema_diag, split_atom, unquote, ParseError,
};
pub use schema::{RelDecl, RelId, Schema, SchemaError};
pub use snapshot::{read_snapshot, write_snapshot, Snapshot, SnapshotError};
pub use view::View;

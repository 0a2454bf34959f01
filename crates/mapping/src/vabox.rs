//! Virtual ABox materialization: `M(D)`.
//!
//! For a sound GAV mapping, the *retrieved* (virtual) ABox is obtained by
//! evaluating each assertion body over the source database and asserting
//! the instantiated head atom for every answer. Evaluating an ontology
//! query over `M(D)` saturated with the TBox yields the certain answers —
//! this is the second certain-answer engine, cross-checked against the
//! rewriting engine.

use crate::assertion::Mapping;
use obx_ontology::ABox;
use obx_query::{eval, OntoAtom, Term, VarId};
use obx_srcdb::{Const, Database, View};
use obx_util::FxHashMap;

/// Materializes the virtual ABox `M(D)` over `view` (pass a full view for
/// the whole database, or a border view for Definition 3.4's restricted
/// matching).
pub fn virtual_abox(mapping: &Mapping, view: View<'_>) -> ABox<Const> {
    let mut abox: ABox<Const> = ABox::new();
    for assertion in mapping.assertions() {
        let proj = assertion.projection();
        for row in &eval::answers(view, proj) {
            let ground = |t: Term| ground(t, proj.head(), row);
            match *assertion.head() {
                OntoAtom::Concept(c, t) => {
                    if let Some(a) = ground(t) {
                        abox.assert_concept(c, a);
                    }
                }
                OntoAtom::Role(r, t1, t2) => {
                    if let (Some(a), Some(b)) = (ground(t1), ground(t2)) {
                        abox.assert_role(r, a, b);
                    }
                }
            }
        }
    }
    abox
}

/// The constant a head term takes in a row of the assertion's projection
/// (`vars` is the projection's head). Every head variable is a projected
/// column, so this is `None` for no term of a built assertion.
fn ground(t: Term, vars: &[VarId], row: &[Const]) -> Option<Const> {
    match t {
        Term::Const(c) => Some(c),
        Term::Var(v) => vars
            .iter()
            .position(|&hv| hv == v)
            .and_then(|i| row.get(i).copied()),
    }
}

/// Materializes `M(D)` and also returns, for diagnostics, how many
/// assertions produced at least one ABox fact.
pub fn virtual_abox_with_stats(mapping: &Mapping, db: &Database) -> (ABox<Const>, usize) {
    let abox = virtual_abox(mapping, View::full(db));
    let productive = mapping
        .assertions()
        .iter()
        .filter(|a| !eval::answers(View::full(db), a.projection()).is_empty())
        .count();
    (abox, productive)
}

/// Utility used by tests and examples: collects the virtual ABox's facts
/// as rendered strings, sorted.
pub fn rendered_facts(
    abox: &ABox<Const>,
    vocab: &obx_ontology::OntoVocab,
    consts: &obx_srcdb::ConstPool,
) -> Vec<String> {
    let mut map: FxHashMap<Const, String> = FxHashMap::default();
    for ind in abox.individuals() {
        map.insert(ind, consts.resolve(ind).to_owned());
    }
    let mut lines: Vec<String> = abox
        .render(vocab, |i| map[&i].clone())
        .lines()
        .map(str::to_owned)
        .collect();
    lines.sort();
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_mapping;
    use obx_ontology::parse_tbox;
    use obx_srcdb::{parse_database, parse_schema};

    /// Example 3.6's OBDM system.
    fn example() -> (Database, obx_ontology::TBox, Mapping) {
        let schema = parse_schema("STUD/1 LOC/2 ENR/3").unwrap();
        let mut db = parse_database(
            schema,
            r#"
            STUD(A10).
            STUD(B80).
            STUD(C12).
            STUD(D50).
            STUD(E25).
            LOC(Sap, Rome).
            LOC(TV, Rome).
            LOC(Pol, Milan).
            ENR(A10, Math, TV).
            ENR(B80, Math, Sap).
            ENR(C12, Science, Norm).
            ENR(D50, Science, TV).
            ENR(E25, Math, Pol).
            "#,
        )
        .unwrap();
        let tbox = parse_tbox("role studies likes taughtIn locatedIn\nstudies < likes").unwrap();
        let (schema, consts) = db.schema_and_consts_mut();
        let mapping = parse_mapping(
            schema,
            tbox.vocab(),
            consts,
            r#"
            ENR(x, y, z) ~> studies(x, y)
            ENR(x, y, z) ~> taughtIn(y, z)
            LOC(x, y) ~> locatedIn(x, y)
            "#,
        )
        .unwrap();
        (db, tbox, mapping)
    }

    #[test]
    fn example_3_6_virtual_abox() {
        let (db, tbox, mapping) = example();
        let abox = virtual_abox(&mapping, View::full(&db));
        // 5 studies + 5 taughtIn (one duplicate pair: (Math,TV)? no —
        // taughtIn pairs: (Math,TV), (Math,Sap), (Science,Norm),
        // (Science,TV), (Math,Pol) — all distinct) + 3 locatedIn.
        assert_eq!(abox.len(), 13);
        let studies = tbox.vocab().get_role("studies").unwrap();
        let a10 = db.consts().get("A10").unwrap();
        let math = db.consts().get("Math").unwrap();
        assert!(abox.has_role(studies, a10, math));
        let locatedin = tbox.vocab().get_role("locatedIn").unwrap();
        let tv = db.consts().get("TV").unwrap();
        let rome = db.consts().get("Rome").unwrap();
        assert!(abox.has_role(locatedin, tv, rome));
    }

    #[test]
    fn duplicate_source_rows_yield_one_fact() {
        let schema = parse_schema("R/2").unwrap();
        let mut db = parse_database(schema, "R(a, b)\nR(a, c)").unwrap();
        let tbox = parse_tbox("concept A").unwrap();
        let (schema, consts) = db.schema_and_consts_mut();
        let mapping = parse_mapping(schema, tbox.vocab(), consts, "R(x, y) ~> A(x)").unwrap();
        let abox = virtual_abox(&mapping, View::full(&db));
        assert_eq!(abox.len(), 1, "A(a) asserted once despite two witnesses");
    }

    #[test]
    fn masked_view_restricts_the_virtual_abox() {
        let (db, tbox, mapping) = example();
        let a10 = db.consts().get("A10").unwrap();
        let studies = tbox.vocab().get_role("studies").unwrap();
        let math = db.consts().get("Math").unwrap();
        let e25 = db.consts().get("E25").unwrap();
        // Radius 0: only atoms mentioning A10 itself.
        let b0 = obx_srcdb::border(&db, &[a10], 0);
        let abox0 = virtual_abox(&mapping, View::masked(&db, &b0));
        assert!(abox0.has_role(studies, a10, math));
        assert!(!abox0.has_role(studies, e25, math), "E25 outside radius 0");
        // Radius 1 *does* reach ENR(E25, Math, Pol) through the shared
        // constant `Math` (Definition 3.2, literally — the border listing in
        // the paper's Example 3.6 omits these sibling enrolments, an
        // erratum that does not affect any of its match claims; see
        // EXPERIMENTS.md).
        let b1 = obx_srcdb::border(&db, &[a10], 1);
        let abox1 = virtual_abox(&mapping, View::masked(&db, &b1));
        assert!(abox1.has_role(studies, e25, math));
    }

    #[test]
    fn constant_in_head_template() {
        let schema = parse_schema("R/1").unwrap();
        let mut db = parse_database(schema, "R(a)").unwrap();
        let tbox = parse_tbox("role r").unwrap();
        let (schema, consts) = db.schema_and_consts_mut();
        let mapping =
            parse_mapping(schema, tbox.vocab(), consts, r#"R(x) ~> r(x, "home")"#).unwrap();
        let abox = virtual_abox(&mapping, View::full(&db));
        let r = tbox.vocab().get_role("r").unwrap();
        let a = db.consts().get("a").unwrap();
        let home = db.consts().get("home").unwrap();
        assert!(abox.has_role(r, a, home));
    }

    #[test]
    fn stats_count_productive_assertions() {
        let (db, _tbox, mapping) = example();
        let (_abox, productive) = virtual_abox_with_stats(&mapping, &db);
        assert_eq!(productive, 3);
    }
}

//! Cross-artifact semantic validation (`obx validate`).
//!
//! The parsers (`OBX1xx` codes) already reject vocabulary and arity errors
//! *within* each artifact; this module checks properties that only emerge
//! once the whole scenario `⟨J, D⟩ + λ` is assembled:
//!
//! | code   | severity | check |
//! |--------|----------|-------|
//! | OBX201 | error    | a labelled tuple mentions a constant outside `dom(D)` |
//! | OBX202 | warning  | an ontology predicate can never be populated by the mapping |
//! | OBX203 | warning  | a source relation is not used by any mapping body |
//! | OBX204 | warning  | `λ⁺` or `λ⁻` is empty (no explanation can separate) |
//! | OBX205 | warning  | the system is inconsistent (every query is trivially certain) |
//!
//! Errors make the scenario unusable for explanation search (Definition 3.7
//! needs `λ` over `dom(D)^n`); warnings flag scenarios that will run but
//! almost certainly not mean what the author intended.

use crate::labels::Labels;
use obx_obdm::ObdmSystem;
use obx_query::{OntoAtom, OntoCq, Term, VarId};
use obx_util::diag::{Diagnostic, Diagnostics};
use obx_util::FxHashSet;

/// Canonical artifact file a semantic diagnostic is attributed to (the
/// scenario directory layout is fixed, so positions are per-file, line 0).
const LABELS_FILE: &str = "labels.obx";
const ONTOLOGY_FILE: &str = "ontology.obx";
const MAPPING_FILE: &str = "mapping.obx";
const SCHEMA_FILE: &str = "schema.obx";

/// Validates an assembled scenario, appending `OBX2xx` diagnostics to
/// `diags`. See the module docs for the code table.
pub fn validate_scenario(system: &ObdmSystem, labels: &Labels, diags: &mut Diagnostics) {
    check_label_constants(system, labels, diags);
    check_unreachable_predicates(system, diags);
    check_unused_relations(system, diags);
    check_label_coverage(labels, diags);
    check_consistency(system, diags);
    diags.sort();
}

/// OBX201: every constant of a labelled tuple must occur in some fact of
/// `D` — a tuple outside `dom(D)^n` can never be a certain answer, so its
/// label is dead weight (and usually a typo).
fn check_label_constants(system: &ObdmSystem, labels: &Labels, diags: &mut Diagnostics) {
    let db = system.db();
    let mut reported: FxHashSet<obx_srcdb::Const> = FxHashSet::default();
    for t in labels.pos().iter().chain(labels.neg().iter()) {
        for &c in t.iter() {
            if db.atoms_mentioning(c).is_empty() && reported.insert(c) {
                diags.push(
                    Diagnostic::error(
                        LABELS_FILE,
                        0,
                        0,
                        "OBX201",
                        format!(
                            "labelled constant `{}` does not occur in any fact of the database",
                            db.consts().resolve(c)
                        ),
                    )
                    .with_hint("labels must classify tuples over dom(D); check for typos"),
                );
            }
        }
    }
}

/// OBX202: an ontology concept/role whose rewriting unfolds to the empty
/// source UCQ can never hold of anything — typically a predicate the
/// mapping forgot to populate.
fn check_unreachable_predicates(system: &ObdmSystem, diags: &mut Diagnostics) {
    let spec = system.spec();
    let vocab = spec.tbox().vocab();
    let x = Term::Var(VarId(0));
    let y = Term::Var(VarId(1));
    let mut probe = |cq: Option<OntoCq>, name: &str, kind: &str| {
        let Some(cq) = cq else { return };
        match spec.compile_cq(&cq) {
            Ok(compiled) if compiled.is_unsatisfiable_at_sources() => {
                diags.push(
                    Diagnostic::warning(
                        ONTOLOGY_FILE,
                        0,
                        0,
                        "OBX202",
                        format!("{kind} `{name}` can never be populated by the mapping"),
                    )
                    .with_hint(
                        "no mapping assertion (directly or via inclusions) derives it; \
                         queries using it have no certain answers",
                    ),
                );
            }
            _ => {} // satisfiable, or compile budget tripped — not a scenario defect
        }
    };
    for c in vocab.concept_ids() {
        probe(
            OntoCq::new(vec![VarId(0)], vec![OntoAtom::Concept(c, x)]).ok(),
            vocab.concept_name(c),
            "concept",
        );
    }
    for r in vocab.role_ids() {
        probe(
            OntoCq::new(vec![VarId(0), VarId(1)], vec![OntoAtom::Role(r, x, y)]).ok(),
            vocab.role_name(r),
            "role",
        );
    }
}

/// OBX203: a declared source relation no mapping body reads — its facts
/// are invisible at the ontology level.
fn check_unused_relations(system: &ObdmSystem, diags: &mut Diagnostics) {
    let used: FxHashSet<obx_srcdb::RelId> = system
        .spec()
        .mapping()
        .assertions()
        .iter()
        .flat_map(|a| a.body().body().iter().map(|atom| atom.rel))
        .collect();
    for rel in system.schema().rel_ids() {
        if !used.contains(&rel) {
            diags.push(
                Diagnostic::warning(
                    SCHEMA_FILE,
                    0,
                    0,
                    "OBX203",
                    format!(
                        "source relation `{}` is not used by any mapping assertion",
                        system.schema().name(rel)
                    ),
                )
                .with_hint("its facts cannot influence any ontology query"),
            );
        }
    }
}

/// OBX204: explanation search separates `λ⁺` from `λ⁻`; with either side
/// empty, degenerate explanations (`true` / unsatisfiable) win vacuously.
fn check_label_coverage(labels: &Labels, diags: &mut Diagnostics) {
    for (side, name) in [(labels.pos(), "λ+"), (labels.neg(), "λ-")] {
        if side.is_empty() {
            diags.push(Diagnostic::warning(
                LABELS_FILE,
                0,
                0,
                "OBX204",
                format!("{name} is empty: explanation search cannot separate the classes"),
            ));
        }
    }
}

/// OBX205: an inconsistent `⟨J, D⟩` makes every tuple a certain answer of
/// every query, so scores collapse.
fn check_consistency(system: &ObdmSystem, diags: &mut Diagnostics) {
    let violations = system.check_consistency();
    if !violations.is_empty() {
        diags.push(
            Diagnostic::warning(
                MAPPING_FILE,
                0,
                0,
                "OBX205",
                format!(
                    "the system is inconsistent ({} violation(s) of negative/functionality axioms)",
                    violations.len()
                ),
            )
            .with_hint("certain answers are trivial under inconsistency; fix the data or axioms"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obx_obdm::{example_3_6_system, ObdmSpec};

    fn labels_for(system: &mut ObdmSystem, text: &str) -> Labels {
        Labels::parse(system.db_mut(), text).unwrap()
    }

    #[test]
    fn paper_example_validates_with_its_one_known_quirk() {
        // Example 3.6's mapping reads ENR and LOC but never STUD — the
        // paper's own scenario trips exactly the unused-relation warning
        // and nothing else.
        let mut sys = example_3_6_system();
        let labels = labels_for(&mut sys, "+ A10\n+ B80\n- E25\n");
        let mut diags = Diagnostics::new();
        validate_scenario(&sys, &labels, &mut diags);
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["OBX203"], "{diags:?}");
        assert_eq!(diags.error_count(), 0);
        assert!(diags.iter().all(|d| d.msg.contains("STUD")));
    }

    #[test]
    fn unknown_label_constant_is_an_error() {
        let mut sys = example_3_6_system();
        let labels = labels_for(&mut sys, "+ A10\n- Ghost\n");
        let mut diags = Diagnostics::new();
        validate_scenario(&sys, &labels, &mut diags);
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"OBX201"), "{codes:?}");
        assert_eq!(diags.error_count(), 1);
    }

    #[test]
    fn unreachable_predicate_and_unused_relation_warn() {
        // `likes` reaches sources via studies < likes, but `orphan` (a
        // concept with no mapping) and relation `SPARE` do not.
        let schema = obx_srcdb::parse_schema("T/1 SPARE/2").unwrap();
        let mut db = obx_srcdb::parse_database(schema, "T(a)").unwrap();
        let tbox = obx_ontology::parse_tbox("concept A Orphan").unwrap();
        let (schema_ref, consts) = db.schema_and_consts_mut();
        let mapping =
            obx_mapping::parse_mapping(schema_ref, tbox.vocab(), consts, "T(x) ~> A(x)").unwrap();
        let mut sys = ObdmSystem::new(ObdmSpec::new(tbox, mapping), db);
        let labels = labels_for(&mut sys, "+ a\n");
        let mut diags = Diagnostics::new();
        validate_scenario(&sys, &labels, &mut diags);
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"OBX202"), "{codes:?}"); // Orphan unreachable
        assert!(codes.contains(&"OBX203"), "{codes:?}"); // SPARE unused
        assert!(codes.contains(&"OBX204"), "{codes:?}"); // λ- empty
        assert_eq!(diags.error_count(), 0, "all warnings: {diags:?}");
    }

    #[test]
    fn inconsistent_system_warns() {
        let schema = obx_srcdb::parse_schema("T/2").unwrap();
        let mut db = obx_srcdb::parse_database(schema, "T(a, b)").unwrap();
        let tbox = obx_ontology::parse_tbox("concept A B\nA < not B").unwrap();
        let (schema_ref, consts) = db.schema_and_consts_mut();
        let mapping = obx_mapping::parse_mapping(
            schema_ref,
            tbox.vocab(),
            consts,
            "T(x, y) ~> A(x)\nT(x, y) ~> B(x)",
        )
        .unwrap();
        let mut sys = ObdmSystem::new(ObdmSpec::new(tbox, mapping), db);
        let labels = labels_for(&mut sys, "+ a\n- b\n");
        let mut diags = Diagnostics::new();
        validate_scenario(&sys, &labels, &mut diags);
        assert!(diags.iter().any(|d| d.code == "OBX205"), "{diags:?}");
    }
}

//! Property test: compiling through the saturated mapping is equivalent
//! to PerfectRef followed by plain unfolding.
//!
//! Both routes compile an ontology query into a source UCQ with the same
//! certain answers on every database, so the two source UCQs contain each
//! other (Sagiv & Yannakakis). The inputs are random DL-Lite_R TBoxes —
//! concept and role hierarchies, inverse role inclusions, `∃P ⊑ A` and
//! `∃P⁻ ⊑ A` on the left — and random GAV mappings with multi-atom bodies
//! and constants in their heads.

use obx_mapping::{parse_mapping, unfold};
use obx_obdm::{ObdmSpec, ObdmSystem};
use obx_ontology::parse_tbox;
use obx_query::{perfect_ref, ucq_contained, OntoUcq, SrcUcq};
use obx_srcdb::{parse_schema, Database};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CONCEPTS: usize = 4;
const ROLES: usize = 3;
/// Source relations `S0/1`, `S1/2`, `S2/3`, `S3/2`.
const ARITIES: [usize; 4] = [1, 2, 3, 2];
const VARS: [&str; 4] = ["x", "y", "z", "w"];
const CONSTS: [&str; 2] = ["k0", "k1"];

fn pick<'a>(rng: &mut StdRng, xs: &[&'a str]) -> &'a str {
    xs[rng.gen_range(0..xs.len())]
}

/// A role expression `r<i>` or `inv(r<i>)`.
fn role(rng: &mut StdRng) -> String {
    let r = rng.gen_range(0..ROLES);
    if rng.gen_bool(0.3) {
        format!("inv(r{r})")
    } else {
        format!("r{r}")
    }
}

/// A random TBox text without `B ⊑ ∃R` inclusions; with `existential`,
/// one `C ⊑ ∃R` is added.
fn random_tbox(rng: &mut StdRng, existential: bool) -> String {
    let concepts: Vec<String> = (0..CONCEPTS).map(|i| format!("C{i}")).collect();
    let roles: Vec<String> = (0..ROLES).map(|i| format!("r{i}")).collect();
    let mut text = format!("concept {}\nrole {}\n", concepts.join(" "), roles.join(" "));
    for _ in 0..rng.gen_range(1..8usize) {
        let line = match rng.gen_range(0..4u32) {
            0 => format!(
                "C{} < C{}",
                rng.gen_range(0..CONCEPTS),
                rng.gen_range(0..CONCEPTS)
            ),
            1 => format!("r{} < {}", rng.gen_range(0..ROLES), role(rng)),
            2 => format!("exists({}) < C{}", role(rng), rng.gen_range(0..CONCEPTS)),
            // Ignored by both routes: disjointness.
            _ => format!(
                "C{} < not C{}",
                rng.gen_range(0..CONCEPTS),
                rng.gen_range(0..CONCEPTS)
            ),
        };
        text.push_str(&line);
        text.push('\n');
    }
    if existential {
        text.push_str(&format!(
            "C{} < exists({})\n",
            rng.gen_range(0..CONCEPTS),
            role(rng)
        ));
    }
    text
}

/// A term of a mapping head or a query: a variable from `vars`, or now
/// and then a constant.
fn term(rng: &mut StdRng, vars: &[&str]) -> String {
    if rng.gen_bool(0.15) {
        format!("\"{}\"", pick(rng, &CONSTS))
    } else {
        pick(rng, vars).to_owned()
    }
}

/// A random source atom over `VARS`, returning its text and variables.
fn source_atom(rng: &mut StdRng) -> (String, Vec<&'static str>) {
    let rel = rng.gen_range(0..ARITIES.len());
    let args: Vec<&str> = (0..ARITIES[rel]).map(|_| pick(rng, &VARS)).collect();
    (format!("S{rel}({})", args.join(", ")), args)
}

/// A random GAV mapping text: one- or two-atom bodies, heads over the
/// body's variables and the constants.
fn random_mapping(rng: &mut StdRng) -> String {
    let mut text = String::new();
    for _ in 0..rng.gen_range(4..10usize) {
        let (mut body, mut vars) = source_atom(rng);
        if rng.gen_bool(0.4) {
            let (second, more) = source_atom(rng);
            body = format!("{body}, {second}");
            vars.extend(more);
        }
        // A head holds at least one variable.
        let var = pick(rng, &vars);
        let head = if rng.gen_bool(0.4) {
            format!("C{}({var})", rng.gen_range(0..CONCEPTS))
        } else {
            let other = term(rng, &vars);
            let (a, b) = if rng.gen_bool(0.5) {
                (var.to_owned(), other)
            } else {
                (other, var.to_owned())
            };
            format!("r{}({a}, {b})", rng.gen_range(0..ROLES))
        };
        text.push_str(&format!("{body} ~> {head}\n"));
    }
    text
}

/// A random CQ of one to three atoms over `x, y, z`, answering `x` or
/// `x, y`; a `C0` atom binds an answer variable no other atom holds.
fn random_cq(rng: &mut StdRng) -> String {
    let vars = ["x", "y", "z"];
    let mut atoms: Vec<String> = Vec::new();
    for _ in 0..rng.gen_range(1..4usize) {
        atoms.push(if rng.gen_bool(0.4) {
            format!("C{}({})", rng.gen_range(0..CONCEPTS), term(rng, &vars))
        } else {
            format!(
                "r{}({}, {})",
                rng.gen_range(0..ROLES),
                term(rng, &vars),
                term(rng, &vars)
            )
        });
    }
    let head: &[&str] = if rng.gen_bool(0.3) {
        &["x", "y"]
    } else {
        &["x"]
    };
    for v in head {
        let holds = |a: &String| {
            a[a.find('(').unwrap_or(0)..]
                .split(|c: char| !c.is_alphanumeric() && c != '"')
                .any(|t| t == *v)
        };
        if !atoms.iter().any(holds) {
            atoms.push(format!("C0({v})"));
        }
    }
    format!("q({}) :- {}", head.join(", "), atoms.join(", "))
}

fn system(tbox: &str, mapping: &str) -> ObdmSystem {
    let tbox = parse_tbox(tbox).unwrap();
    let schema: Vec<String> = ARITIES
        .iter()
        .enumerate()
        .map(|(i, a)| format!("S{i}/{a}"))
        .collect();
    let mut db = Database::new(parse_schema(&schema.join(" ")).unwrap());
    let (schema, consts) = db.schema_and_consts_mut();
    let mapping = parse_mapping(schema, tbox.vocab(), consts, mapping).unwrap();
    ObdmSystem::new(ObdmSpec::new(tbox, mapping), db)
}

/// PerfectRef followed by plain unfolding: the oracle.
fn perfect_ref_route(sys: &ObdmSystem, ucq: &OntoUcq) -> SrcUcq {
    let spec = sys.spec();
    let rewritten = perfect_ref(ucq, spec.tbox(), spec.rewrite_budget).unwrap();
    unfold(spec.mapping(), &rewritten, spec.unfold_max).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn saturated_compile_equals_perfect_ref_then_unfold(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tbox = random_tbox(&mut rng, false);
        let mapping = random_mapping(&mut rng);
        let mut sys = system(&tbox, &mapping);
        prop_assert!(sys.spec().saturated_mapping().is_some());
        for _ in 0..4 {
            let text = random_cq(&mut rng);
            let ucq = sys.parse_query(&text).unwrap();
            let saturated = sys.spec().compile(&ucq).unwrap();
            let oracle = perfect_ref_route(&sys, &ucq);
            let ctx = format!("seed {seed}\n{tbox}{mapping}{text}");
            prop_assert!(ucq_contained(saturated.src(), &oracle), "saturated ⋢ oracle: {ctx}");
            prop_assert!(ucq_contained(&oracle, saturated.src()), "oracle ⋢ saturated: {ctx}");
            // Each CQ compiles alone the same way as in a union of one.
            let cq = &ucq.disjuncts()[0];
            prop_assert_eq!(sys.spec().compile_cq(cq).unwrap().src(), saturated.src());
        }
    }

    #[test]
    fn existential_rhs_compiles_through_perfect_ref(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tbox = random_tbox(&mut rng, true);
        let mapping = random_mapping(&mut rng);
        let mut sys = system(&tbox, &mapping);
        prop_assert!(sys.spec().saturated_mapping().is_none());
        let text = random_cq(&mut rng);
        let ucq = sys.parse_query(&text).unwrap();
        let compiled = sys.spec().compile(&ucq).unwrap();
        prop_assert_eq!(compiled.src(), &perfect_ref_route(&sys, &ucq));
    }
}

/// The random instances reach what the property is about: queries with
/// source disjuncts, unions of several, and subsumptions that only the
/// TBox closures find.
#[test]
fn random_instances_are_not_vacuous() {
    let (mut nonempty, mut unions, mut through_tbox) = (0, 0, 0);
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let tbox = random_tbox(&mut rng, false);
        let mapping = random_mapping(&mut rng);
        let mut sys = system(&tbox, &mapping);
        let text = random_cq(&mut rng);
        let ucq = sys.parse_query(&text).unwrap();
        let saturated = sys.spec().compile(&ucq).unwrap();
        let plain = unfold(sys.spec().mapping(), &ucq, usize::MAX).unwrap();
        nonempty += usize::from(!saturated.is_unsatisfiable_at_sources());
        unions += usize::from(saturated.src_disjuncts() > 1);
        through_tbox += usize::from(!ucq_contained(saturated.src(), &plain));
    }
    assert!(nonempty >= 60, "{nonempty} of 200 compile to something");
    assert!(unions >= 30, "{unions} of 200 compile to a union");
    assert!(through_tbox >= 30, "{through_tbox} of 200 need the TBox");
}

//! Row computation for experiments E1–E10 (see DESIGN.md §3).

use obx_core::baseline::DataLevelBeam;
use obx_core::explain::{ExplainTask, SearchLimits, Strategy};
use obx_core::matcher::PreparedLabels;
use obx_core::paper_example::{PaperExample, PAPER_RADIUS};
use obx_core::score::Scoring;
use obx_core::strategies::{BeamSearch, BottomUpGeneralize, ExhaustiveSearch, GreedyUcq};
use obx_datagen::{
    fidelity, random_scenario, recidivism_scenario, university_scenario, RandomParams,
    RecidivismParams, UniversityParams,
};
use obx_obdm::ChaseConfig;
use obx_query::{perfect_ref, OntoAtom, OntoCq, OntoUcq, RewriteBudget, Term, VarId};
use obx_srcdb::{border, border_layers, parse_database, parse_schema, Database, View};
use obx_util::table::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// E1 — Example 3.3: the border layers of t = ⟨a⟩.
pub fn e01_border_layers() -> Table {
    let db = example_3_3_db();
    let a = db.consts().get("a").unwrap();
    let layers = border_layers(&db, &[a], 2);
    let mut t = Table::new(["layer", "paper", "computed"]);
    let paper = ["R(a, b), S(a, c)", "Z(c, d)", "W(d, e)"];
    for (j, (expected, layer)) in paper.iter().zip(&layers).enumerate() {
        let mut atoms: Vec<String> = layer
            .iter()
            .map(|id| db.atom(id).render(db.schema(), db.consts()))
            .collect();
        atoms.sort();
        t.row([format!("W_t,{j}"), (*expected).to_owned(), atoms.join(", ")]);
    }
    let size: usize = layers.iter().map(|layer| layer.len()).sum();
    t.row(["B_t,2 size".to_owned(), "4".to_owned(), size.to_string()]);
    t
}

/// The database of Example 3.3.
pub fn example_3_3_db() -> Database {
    let schema = parse_schema("R/2 S/2 Z/2 W/2").unwrap();
    parse_database(
        schema,
        "R(a, b)\nS(a, c)\nZ(c, d)\nW(d, e)\nW(e, h)\nR(f, g)",
    )
    .unwrap()
}

/// E2 — Example 3.6: the J-match matrix.
pub fn e02_match_matrix() -> Table {
    let ex = PaperExample::new();
    let matrix = ex.match_matrix().unwrap();
    let prepared = ex.prepared();
    let mut t = Table::new([
        "query",
        "matches (paper)",
        "matches (computed)",
        "λ⁺ frac",
        "λ⁻ frac",
    ]);
    let paper = [
        ("q1", "A10, B80, D50"),
        ("q2", "A10, B80, E25"),
        ("q3", "C12, D50"),
    ];
    for ((name, q), (pname, pmatch)) in ex.queries().into_iter().zip(paper) {
        assert_eq!(name, pname);
        let stats = prepared.stats_of(q).unwrap();
        let row = matrix.iter().find(|(n, _)| *n == name).unwrap();
        t.row([
            name.to_owned(),
            pmatch.to_owned(),
            row.1.join(", "),
            format!("{}/{}", stats.pos_matched, stats.pos_total),
            format!("{}/{}", stats.neg_matched, stats.neg_total),
        ]);
    }
    t
}

/// E3 — Example 3.8: Z-scores under Z1 and Z2.
pub fn e03_scores() -> Table {
    let ex = PaperExample::new();
    let z1 = ex.scores(&ex.z1()).unwrap();
    let z2 = ex.scores(&ex.z2()).unwrap();
    let mut t = Table::new([
        "query",
        "Z1 (paper)",
        "Z1 (ours)",
        "Z2 (paper)",
        "Z2 (ours)",
    ]);
    let paper = [
        ("q1", "0.693", "0.716"),
        ("q2", "0.333*", "0.5"),
        ("q3", "0.833", "0.7"),
    ];
    for (name, p1, p2) in paper {
        let s1 = z1.iter().find(|(n, _)| *n == name).unwrap().1.score;
        let s2 = z2.iter().find(|(n, _)| *n == name).unwrap().1.score;
        t.row([
            name.to_owned(),
            p1.to_owned(),
            format!("{s1:.3}"),
            p2.to_owned(),
            format!("{s2:.3}"),
        ]);
    }
    t.row([
        "winner".to_owned(),
        "q3".to_owned(),
        best(&z1).to_owned(),
        "q1".to_owned(),
        best(&z2).to_owned(),
    ]);
    t
}

fn best(rows: &[(&'static str, obx_core::explain::Explanation)]) -> &'static str {
    rows.iter()
        .max_by(|a, b| a.1.score.partial_cmp(&b.1.score).unwrap())
        .unwrap()
        .0
}

/// E4 — Proposition 3.5: matched positives per radius (monotone columns).
pub fn e04_radius_curve() -> Table {
    let ex = PaperExample::new();
    let mut t = Table::new(["radius", "q1 λ⁺", "q2 λ⁺", "q3 λ⁺", "border atoms (A10)"]);
    let a10 = ex.system.db().consts().get("A10").unwrap();
    for r in 0..=3usize {
        let prepared = PreparedLabels::new(&ex.system, &ex.labels, r);
        let mut cells = vec![r.to_string()];
        for (_, q) in ex.queries() {
            let s = prepared.stats_of(q).unwrap();
            cells.push(format!("{}/{}", s.pos_matched, s.pos_total));
        }
        cells.push(border(ex.system.db(), &[a10], r).len().to_string());
        t.row(cells);
    }
    t
}

/// E5 — explanation fidelity vs label noise (university, beam search).
pub fn e05_fidelity_vs_noise() -> Table {
    let mut t = Table::new([
        "noise",
        "best Z",
        "coverage",
        "false pos",
        "fidelity F1",
        "time",
    ]);
    for noise in [0.0, 0.05, 0.1, 0.2, 0.3] {
        let s = university_scenario(UniversityParams {
            n_students: 60,
            label_noise: noise,
            ..UniversityParams::default()
        });
        let scoring = Scoring::accuracy();
        let limits = SearchLimits {
            max_rounds: 5,
            ..SearchLimits::default()
        };
        let task = ExplainTask::new(&s.system, &s.labels, 1, &scoring, limits).unwrap();
        let t0 = Instant::now();
        let best = BeamSearch.explain(&task).unwrap().remove(0);
        let elapsed = t0.elapsed();
        let fid = fidelity(&s.system, &best.query, s.ground_truth.as_ref().unwrap()).unwrap();
        t.row([
            format!("{noise:.2}"),
            format!("{:.3}", best.score),
            format!("{}/{}", best.stats.pos_matched, best.stats.pos_total),
            best.stats.neg_matched.to_string(),
            format!("{:.3}", fid.f1),
            format!("{elapsed:.2?}"),
        ]);
    }
    t
}

/// E6 — strategy comparison on the university scenario.
pub fn e06_strategies() -> Table {
    let s = university_scenario(UniversityParams {
        n_students: 40,
        ..UniversityParams::default()
    });
    let scoring = Scoring::accuracy();
    let limits = SearchLimits {
        max_atoms: 2,
        max_rounds: 5,
        ..SearchLimits::default()
    };
    let task = ExplainTask::new(&s.system, &s.labels, 1, &scoring, limits).unwrap();
    let strategies: Vec<Box<dyn Strategy>> = vec![
        Box::new(ExhaustiveSearch::default()),
        Box::new(BeamSearch),
        Box::new(BottomUpGeneralize::default()),
        Box::new(GreedyUcq::default()),
    ];
    let mut t = Table::new(["strategy", "best Z", "perfect?", "fidelity F1", "time"]);
    for strat in strategies {
        let t0 = Instant::now();
        let best = strat.explain(&task).unwrap().remove(0);
        let elapsed = t0.elapsed();
        let fid = fidelity(&s.system, &best.query, s.ground_truth.as_ref().unwrap()).unwrap();
        t.row([
            strat.name().to_owned(),
            format!("{:.3}", best.score),
            best.stats.perfect().to_string(),
            format!("{:.3}", fid.f1),
            format!("{elapsed:.2?}"),
        ]);
    }
    t
}

/// E7 — PerfectRef output size and time vs hierarchy shape.
pub fn e07_rewrite_scaling() -> Table {
    let mut t = Table::new(["TBox shape", "axioms", "disjuncts", "time"]);
    for depth in [2usize, 4, 8, 16, 32] {
        let tbox = obx_datagen::hierarchy::concept_chain(depth);
        let c = tbox.vocab().get_concept(&format!("C{depth}")).unwrap();
        let q = OntoCq::new(
            vec![VarId(0)],
            vec![OntoAtom::Concept(c, Term::Var(VarId(0)))],
        )
        .unwrap();
        let t0 = Instant::now();
        let rewritten = perfect_ref(&OntoUcq::from_cq(q), &tbox, RewriteBudget::default()).unwrap();
        let elapsed = t0.elapsed();
        t.row([
            format!("chain depth {depth}"),
            tbox.len().to_string(),
            rewritten.len().to_string(),
            format!("{elapsed:.2?}"),
        ]);
    }
    for (depth, branching) in [(2usize, 2usize), (3, 2), (4, 2), (3, 3), (4, 3)] {
        let tbox = obx_datagen::hierarchy::concept_tree(depth, branching);
        let c = tbox.vocab().get_concept("C0").unwrap();
        let q = OntoCq::new(
            vec![VarId(0)],
            vec![OntoAtom::Concept(c, Term::Var(VarId(0)))],
        )
        .unwrap();
        let t0 = Instant::now();
        let rewritten = perfect_ref(&OntoUcq::from_cq(q), &tbox, RewriteBudget::default()).unwrap();
        let elapsed = t0.elapsed();
        t.row([
            format!("tree d={depth} b={branching}"),
            tbox.len().to_string(),
            rewritten.len().to_string(),
            format!("{elapsed:.2?}"),
        ]);
    }
    t
}

/// A random database with `n_atoms` binary facts over `n_consts`
/// constants. The anchor constant `c0` is guaranteed to occur (benches
/// compute borders around it).
pub fn random_border_db(seed: u64, n_consts: usize, n_atoms: usize) -> Database {
    let schema = parse_schema("R/2 S/2 T/3").unwrap();
    let mut db = Database::new(schema);
    let mut rng = StdRng::seed_from_u64(seed);
    db.insert_named("R", &["c0", "c1"]).unwrap();
    for _ in 0..n_atoms {
        let c = |rng: &mut StdRng| format!("c{}", rng.gen_range(0..n_consts));
        if rng.gen_bool(0.7) {
            let rel = if rng.gen_bool(0.5) { "R" } else { "S" };
            let (a, b) = (c(&mut rng), c(&mut rng));
            db.insert_named(rel, &[&a, &b]).unwrap();
        } else {
            let (a, b, d) = (c(&mut rng), c(&mut rng), c(&mut rng));
            db.insert_named("T", &[&a, &b, &d]).unwrap();
        }
    }
    db
}

/// E8 — border computation cost vs |D| and radius.
pub fn e08_border_scaling() -> Table {
    let mut t = Table::new(["|D|", "radius", "border atoms", "time"]);
    for n_atoms in [1_000usize, 10_000, 50_000] {
        // Sparse graph: #constants ~ #atoms keeps borders local.
        let db = random_border_db(9, n_atoms, n_atoms);
        let c0 = db.consts().get("c0").unwrap();
        for r in [1usize, 2, 3] {
            let t0 = Instant::now();
            let atoms = border(&db, &[c0], r).len();
            let elapsed = t0.elapsed();
            t.row([
                n_atoms.to_string(),
                r.to_string(),
                atoms.to_string(),
                format!("{elapsed:.2?}"),
            ]);
        }
    }
    t
}

/// E9 — ontology-value ablation: ontology-level vs data-level search.
pub fn e09_ablation() -> Table {
    let mut t = Table::new([
        "scenario",
        "level",
        "best Z",
        "perfect?",
        "explanation (vocabulary)",
    ]);
    // (a) the paper's λ.
    let ex = PaperExample::new();
    let z1 = ex.z1();
    let task = ExplainTask::new(
        &ex.system,
        &ex.labels,
        PAPER_RADIUS,
        &z1,
        SearchLimits::default(),
    )
    .unwrap();
    let onto = BeamSearch.explain(&task).unwrap().remove(0);
    t.row([
        "paper λ".to_owned(),
        "ontology".to_owned(),
        format!("{:.3}", onto.score),
        onto.stats.perfect().to_string(),
        onto.render(&ex.system),
    ]);
    let data = DataLevelBeam.explain(&task).unwrap().remove(0);
    t.row([
        "paper λ".to_owned(),
        "data".to_owned(),
        format!("{:.3}", data.score),
        data.stats.perfect().to_string(),
        data.render(&task),
    ]);
    // (b) the recidivism audit.
    let s = recidivism_scenario(RecidivismParams {
        n_defendants: 60,
        ..RecidivismParams::default()
    });
    let accuracy = Scoring::accuracy();
    let limits = SearchLimits {
        max_rounds: 4,
        ..SearchLimits::default()
    };
    let task = ExplainTask::new(&s.system, &s.labels, 1, &accuracy, limits).unwrap();
    let onto = BeamSearch.explain(&task).unwrap().remove(0);
    t.row([
        "recidivism".to_owned(),
        "ontology".to_owned(),
        format!("{:.3}", onto.score),
        onto.stats.perfect().to_string(),
        onto.render(&s.system),
    ]);
    let data = DataLevelBeam.explain(&task).unwrap().remove(0);
    t.row([
        "recidivism".to_owned(),
        "data".to_owned(),
        format!("{:.3}", data.score),
        data.stats.perfect().to_string(),
        data.render(&task),
    ]);
    t
}

/// E10 — certain-answer engines: rewriting vs materialization.
pub fn e10_engines() -> Table {
    let mut t = Table::new([
        "scenario",
        "query atoms",
        "answers",
        "rewrite",
        "materialize",
        "agree",
    ]);
    for (label, n_ind, n_facts) in [
        ("small", 30usize, 80usize),
        ("medium", 100, 300),
        ("large", 250, 800),
    ] {
        let params = RandomParams {
            seed: 5,
            n_individuals: n_ind,
            n_concept_facts: n_facts / 2,
            n_role_facts: n_facts,
            ..RandomParams::default()
        };
        let s = random_scenario(params);
        let truth = s.ground_truth.as_ref().unwrap();
        let atoms: usize = truth.disjuncts().iter().map(OntoCq::num_atoms).sum();
        let t0 = Instant::now();
        let rewriting = s.system.certain_answers(truth).unwrap();
        let rewrite_t = t0.elapsed();
        let t1 = Instant::now();
        let materialized = s.system.certain_answers_materialized(
            truth,
            View::full(s.system.db()),
            ChaseConfig::for_ucq(truth),
        );
        let chase_t = t1.elapsed();
        t.row([
            label.to_owned(),
            atoms.to_string(),
            rewriting.len().to_string(),
            format!("{rewrite_t:.2?}"),
            format!("{chase_t:.2?}"),
            (rewriting == materialized).to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e01_matches_paper() {
        let t = e01_border_layers();
        let s = t.render();
        assert!(s.contains("R(a, b), S(a, c)"));
        assert!(s.contains("Z(c, d)"));
    }

    #[test]
    fn e02_and_e03_agree_with_paper() {
        let m = e02_match_matrix().render();
        assert!(m.contains("A10, B80, D50"));
        let s = e03_scores().render();
        assert!(s.contains("0.833"));
        assert!(s.contains("q3"));
    }

    #[test]
    fn e04_is_monotone() {
        let t = e04_radius_curve();
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn e07_rows_cover_chains_and_trees() {
        let t = e07_rewrite_scaling();
        let s = t.render();
        assert!(s.contains("chain depth 32"));
        assert!(s.contains("tree d=4 b=3"));
    }

    #[test]
    fn e10_engines_agree() {
        let t = e10_engines();
        let s = t.render();
        assert!(!s.contains("false"), "engine disagreement:\n{s}");
    }
}

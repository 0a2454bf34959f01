//! Million-atom data-layer benchmark: snapshot loading, border BFS,
//! interner pre-sizing, and end-to-end explain parity at scale.
//!
//! Four phases over [`obx_datagen::scale`] scenarios, with a single-line
//! JSON summary written to `BENCH_scale.json` at the workspace root:
//!
//! 1. **Load** — a 10⁶-atom scenario is written to disk as text
//!    artifacts and loaded through [`load_dir`] twice: once from the
//!    `.obx` text (snapshot absent) and once through the binary
//!    `data.obxsnap` built by `obx snapshot build`. Both loads must
//!    produce byte-identical databases and labels, and the snapshot
//!    path must be **≥10× faster** — a hard gate (exit 1).
//! 2. **Border** — radius-1 borders around every labelled tuple, built
//!    the way `PreparedLabels` builds them (one batched
//!    [`borders`](obx_srcdb::borders) call). `border_serial_ms` is the
//!    wall time the regression gate compares.
//! 3. **Interner** — the satellite micro-benchmark: bulk-interning the
//!    scenario's constant population into a cold [`Interner`] versus
//!    one pre-sized with [`Interner::with_capacity`], the fast path
//!    snapshot headers feed. Informational (pre-sizing saves the
//!    rehash-and-relocate churn; how much is machine-dependent).
//! 4. **Explain** — a 10⁵-atom scenario loaded both ways, each run
//!    through the beam strategy: the ranked explanations (rendered
//!    text and score bits) must be identical — loading through the
//!    snapshot may not change a single downstream byte.
//!
//! Usage: `cargo run --release -p obx-bench --bin scale`

use obx_bench::harness::{ranked, Best, Report};
use obx_core::explain::{ExplainReport, ExplainTask, SearchLimits, Strategy};
use obx_core::scenario::{build_snapshot, load_dir, write_scenario_dir, LoadedScenario};
use obx_core::score::Scoring;
use obx_core::strategies::BeamSearch;
use obx_datagen::scale::{scale_scenario, ScaleParams};
use obx_srcdb::{borders, Const, Tuple, TupleBorder};
use obx_util::{Interner, Interrupt, Symbol};
use std::path::{Path, PathBuf};

/// Atom target for the load/border phases (the data-layer stress size).
const BIG_ATOMS: usize = 1_000_000;
/// Labelled tuples in the big scenario — the border workload. Small on
/// purpose: scoring is linear in |λ|, borders are what we time here.
const BIG_LABELS: usize = 16;
/// Atom target for the explain-parity phase: big enough that the
/// snapshot fast path is exercised for real, small enough that a beam
/// search over hub borders stays in bench territory.
const MED_ATOMS: usize = 100_000;
/// Border radius for the border phase. Radius 1 keeps per-tuple borders
/// at hub-slice size (~10⁵ atoms): large frontiers, but small enough that
/// the phase times expansion, not set assembly.
const BORDER_RADIUS: usize = 1;
/// Repetitions per timed section; best wall time kept.
const REPS: usize = 3;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("obx-bench-scale-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    dir
}

/// Loads of one directory must agree on the atom count.
fn same_atoms(a: &LoadedScenario, b: &LoadedScenario) {
    assert_eq!(a.system.db().len(), b.system.db().len(), "load drifted");
}

/// Phase 1: text vs snapshot load of the big scenario directory.
fn bench_load(dir: &Path, report: &mut Report) -> (f64, LoadedScenario) {
    let text = Best::of(REPS, same_atoms, || {
        load_dir(dir).expect("text load succeeds")
    });
    let build = Best::of(
        1,
        |_, _| {},
        || build_snapshot(dir).expect("snapshot build succeeds"),
    );
    let (_, _, bytes) = *build.run();
    let snap = Best::of(REPS, same_atoms, || {
        load_dir(dir).expect("snapshot load succeeds")
    });
    let load_speedup = text.ms() / snap.ms().max(1e-9);

    // Byte-identity: the snapshot fast path must reproduce the text
    // parse exactly — same atom order, same interned ids, same labels.
    let (text_loaded, snap_loaded) = (text.run(), snap.run());
    assert_eq!(
        text_loaded.system.db().render(),
        snap_loaded.system.db().render(),
        "snapshot load diverges from text load"
    );
    assert_eq!(text_loaded.labels.pos(), snap_loaded.labels.pos());
    assert_eq!(text_loaded.labels.neg(), snap_loaded.labels.neg());

    report
        .ms("text_load_ms", text.ms())
        .ms("snapshot_build_ms", build.ms())
        .ms("snapshot_load_ms", snap.ms())
        .real("load_speedup", load_speedup, 2)
        .count("snapshot_bytes", bytes)
        .flag("identical_load", true);
    (load_speedup, snap.into_run())
}

/// Phase 2: the border BFS over every labelled tuple.
fn bench_border(loaded: &LoadedScenario, report: &mut Report) {
    let db = loaded.system.db();
    let tuples: Vec<&Tuple> = loaded
        .labels
        .pos()
        .iter()
        .chain(loaded.labels.neg().iter())
        .collect();
    let interrupt = Interrupt::none();
    let atoms = |built: &[TupleBorder]| built.iter().map(|b| b.atoms.len()).sum::<usize>();
    let best = Best::of(
        REPS,
        |a: &Vec<TupleBorder>, b: &Vec<TupleBorder>| {
            assert_eq!(atoms(a), atoms(b), "border atoms drifted")
        },
        || borders(db, tuples.iter().map(|t| &t[..]), BORDER_RADIUS, &interrupt),
    );
    report
        .ms("border_serial_ms", best.ms())
        .count("border_tuples", tuples.len() as u64)
        .count("border_atoms", atoms(best.run()) as u64);
}

/// Phase 3: the interner pre-sizing micro-benchmark (satellite). The
/// snapshot header feeds exact counts into `with_capacity`; this phase
/// measures what that buys over growing a cold table.
fn bench_intern(loaded: &LoadedScenario, report: &mut Report) {
    let pool = loaded.system.db().consts();
    let names: Vec<String> = (0..pool.len())
        .map(|i| pool.resolve(Const(Symbol(i as u32))).to_owned())
        .collect();
    let intern = |mut i: Interner| {
        for n in &names {
            i.intern(n);
        }
        i.len()
    };
    let same_len = |a: &usize, b: &usize| assert_eq!(a, b, "interned count drifted");
    let cold = Best::of(REPS, same_len, || intern(Interner::new()));
    let presized = Best::of(REPS, same_len, || {
        intern(Interner::with_capacity(names.len()))
    });
    assert_eq!(cold.run(), presized.run());
    report
        .count("intern_consts", names.len() as u64)
        .ms("intern_cold_ms", cold.ms())
        .ms("intern_presized_ms", presized.ms())
        .real(
            "intern_presize_speedup",
            cold.ms() / presized.ms().max(1e-9),
            2,
        );
}

/// One timed beam search over `loaded` (the task's borders are built
/// outside the timing).
fn explain(loaded: &LoadedScenario) -> (f64, ExplainReport) {
    let scoring = Scoring::accuracy();
    let limits = SearchLimits {
        beam_width: 6,
        top_k: 3,
        ..SearchLimits::default()
    };
    let task = ExplainTask::new(&loaded.system, &loaded.labels, 1, &scoring, limits)
        .expect("scale scenarios yield valid tasks");
    let best = Best::of(
        1,
        |_, _| {},
        || {
            BeamSearch
                .explain_with_status(&task)
                .expect("beam search succeeds on the scale scenario")
        },
    );
    (best.ms(), best.into_run())
}

/// Phase 4: ranked-explain parity between the text and snapshot loads
/// of the medium scenario.
fn bench_explain(dir: &Path, report: &mut Report) {
    let text_loaded = load_dir(dir).expect("medium text load succeeds");
    build_snapshot(dir).expect("medium snapshot build succeeds");
    let snap_loaded = load_dir(dir).expect("medium snapshot load succeeds");

    let (_, text_report) = explain(&text_loaded);
    let (explain_ms, snap_report) = explain(&snap_loaded);
    assert_eq!(
        ranked(&text_report, &text_loaded.system),
        ranked(&snap_report, &snap_loaded.system),
        "ranked explanations diverge between load paths"
    );
    report
        .ms("explain_ms", explain_ms)
        .count("explanations", snap_report.explanations.len() as u64);
}

fn main() {
    let mut report = Report::new("scale");
    report
        .count("big_atoms_target", BIG_ATOMS as u64)
        .count("med_atoms_target", MED_ATOMS as u64)
        .count("border_radius", BORDER_RADIUS as u64);

    let big = Best::of(
        1,
        |_, _| {},
        || {
            scale_scenario(ScaleParams {
                n_atoms: BIG_ATOMS,
                label_cap: BIG_LABELS,
                ..ScaleParams::default()
            })
        },
    );
    report
        .ms("gen_ms", big.ms())
        .count("big_atoms", big.run().system.db().len() as u64);
    let big = big.into_run();

    let big_dir = scratch_dir("big");
    write_scenario_dir(&big_dir, &big.system, &big.labels).expect("write big scenario dir");
    drop(big);

    let (load_speedup, snap_loaded) = bench_load(&big_dir, &mut report);
    bench_border(&snap_loaded, &mut report);
    bench_intern(&snap_loaded, &mut report);
    drop(snap_loaded);
    let _ = std::fs::remove_dir_all(&big_dir);

    let med = scale_scenario(ScaleParams {
        n_atoms: MED_ATOMS,
        label_cap: 40,
        ..ScaleParams::default()
    });
    let med_dir = scratch_dir("med");
    write_scenario_dir(&med_dir, &med.system, &med.labels).expect("write medium scenario dir");
    drop(med);
    bench_explain(&med_dir, &mut report);
    let _ = std::fs::remove_dir_all(&med_dir);

    report.flag("identical_output", true).finish("scale");

    // Hard gate (acceptance): the binary snapshot must load the
    // 10⁶-atom scenario ≥10× faster than the text artifacts.
    if load_speedup < 10.0 {
        eprintln!("FAIL: snapshot load speedup {load_speedup:.2}x below the 10x acceptance target");
        std::process::exit(1);
    }
}

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

use obx_core::explain::{ExplainReport, ExplainTask, SearchLimits, Strategy};
use obx_core::scenario::{build_snapshot, load_dir, write_scenario_dir, LoadedScenario};
use obx_core::score::Scoring;
use obx_core::strategies::BeamSearch;
use obx_datagen::scale::{scale_scenario, ScaleParams};
use obx_srcdb::{borders, Const, Tuple};
use obx_util::{Interner, Interrupt, Symbol};
use std::path::{Path, PathBuf};
use std::time::Instant;

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

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("obx-bench-scale-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    dir
}

/// Best-of-[`REPS`] wall time for `f`, returning the last result.
fn best_of<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let mut out = f();
    let mut best = ms(t0);
    for _ in 1..REPS {
        let t0 = Instant::now();
        out = f();
        best = best.min(ms(t0));
    }
    (best, out)
}

/// Phase 1: text vs snapshot load of the big scenario directory.
fn bench_load(dir: &Path, fields: &mut String) -> (f64, LoadedScenario) {
    let (text_load_ms, text_loaded) = best_of(|| load_dir(dir).expect("text load succeeds"));
    eprintln!("text load: {text_load_ms:.1} ms best of {REPS}");

    let t0 = Instant::now();
    let (atoms, consts, bytes) = build_snapshot(dir).expect("snapshot build succeeds");
    let snapshot_build_ms = ms(t0);
    eprintln!(
        "snapshot build: {snapshot_build_ms:.1} ms ({atoms} atoms, {consts} consts, {bytes} bytes)"
    );

    let (snapshot_load_ms, snap_loaded) =
        best_of(|| load_dir(dir).expect("snapshot load succeeds"));
    let load_speedup = text_load_ms / snapshot_load_ms.max(1e-9);
    eprintln!("snapshot load: {snapshot_load_ms:.1} ms best of {REPS} ({load_speedup:.1}x)");

    // Byte-identity: the snapshot fast path must reproduce the text
    // parse exactly — same atom order, same interned ids, same labels.
    assert_eq!(
        text_loaded.system.db().render(),
        snap_loaded.system.db().render(),
        "snapshot load diverges from text load"
    );
    assert_eq!(text_loaded.labels.pos(), snap_loaded.labels.pos());
    assert_eq!(text_loaded.labels.neg(), snap_loaded.labels.neg());

    fields.push_str(&format!(
        concat!(
            "\"text_load_ms\":{:.3},\"snapshot_build_ms\":{:.3},",
            "\"snapshot_load_ms\":{:.3},\"load_speedup\":{:.2},",
            "\"snapshot_bytes\":{},\"identical_load\":true,",
        ),
        text_load_ms, snapshot_build_ms, snapshot_load_ms, load_speedup, bytes,
    ));
    (load_speedup, snap_loaded)
}

/// Phase 2: the border BFS over every labelled tuple.
fn bench_border(loaded: &LoadedScenario, fields: &mut String) {
    let db = loaded.system.db();
    let tuples: Vec<&Tuple> = loaded
        .labels
        .pos()
        .iter()
        .chain(loaded.labels.neg().iter())
        .collect();
    let interrupt = Interrupt::none();
    let (border_serial_ms, built) =
        best_of(|| borders(db, tuples.iter().map(|t| &t[..]), BORDER_RADIUS, &interrupt));
    let atoms: usize = built.iter().map(|b| b.atoms.len()).sum();
    eprintln!(
        "border r={BORDER_RADIUS}: {border_serial_ms:.1} ms over {} tuples, \
         {atoms} border atoms total",
        tuples.len()
    );
    fields.push_str(&format!(
        concat!(
            "\"border_serial_ms\":{:.3},",
            "\"border_tuples\":{},\"border_atoms\":{},",
        ),
        border_serial_ms,
        tuples.len(),
        atoms,
    ));
}

/// Phase 3: the interner pre-sizing micro-benchmark (satellite). The
/// snapshot header feeds exact counts into `with_capacity`; this phase
/// measures what that buys over growing a cold table.
fn bench_intern(loaded: &LoadedScenario, fields: &mut String) {
    let pool = loaded.system.db().consts();
    let names: Vec<String> = (0..pool.len())
        .map(|i| pool.resolve(Const(Symbol(i as u32))).to_owned())
        .collect();
    let (intern_cold_ms, cold) = best_of(|| {
        let mut i = Interner::new();
        for n in &names {
            i.intern(n);
        }
        i.len()
    });
    let (intern_presized_ms, presized) = best_of(|| {
        let mut i = Interner::with_capacity(names.len());
        for n in &names {
            i.intern(n);
        }
        i.len()
    });
    assert_eq!(cold, presized);
    let intern_presize_speedup = intern_cold_ms / intern_presized_ms.max(1e-9);
    eprintln!(
        "intern {} consts: {intern_cold_ms:.1} ms cold -> \
         {intern_presized_ms:.1} ms pre-sized ({intern_presize_speedup:.2}x)",
        names.len()
    );
    fields.push_str(&format!(
        concat!(
            "\"intern_consts\":{},\"intern_cold_ms\":{:.3},",
            "\"intern_presized_ms\":{:.3},\"intern_presize_speedup\":{:.2},",
        ),
        names.len(),
        intern_cold_ms,
        intern_presized_ms,
        intern_presize_speedup,
    ));
}

fn explain(loaded: &LoadedScenario) -> (f64, ExplainReport) {
    let scoring = Scoring::accuracy();
    let limits = SearchLimits {
        beam_width: 6,
        top_k: 3,
        ..SearchLimits::default()
    };
    let task = ExplainTask::new(&loaded.system, &loaded.labels, 1, &scoring, limits)
        .expect("scale scenarios yield valid tasks");
    let t0 = Instant::now();
    let report = BeamSearch
        .explain_with_status(&task)
        .expect("beam search succeeds on the scale scenario");
    (ms(t0), report)
}

/// Phase 4: ranked-explain parity between the text and snapshot loads
/// of the medium scenario.
fn bench_explain(dir: &Path, fields: &mut String) {
    let text_loaded = load_dir(dir).expect("medium text load succeeds");
    build_snapshot(dir).expect("medium snapshot build succeeds");
    let snap_loaded = load_dir(dir).expect("medium snapshot load succeeds");

    let (_, text_report) = explain(&text_loaded);
    let (explain_ms, snap_report) = explain(&snap_loaded);
    assert_eq!(
        text_report.explanations.len(),
        snap_report.explanations.len(),
        "explanation counts diverge between load paths"
    );
    for (a, b) in text_report
        .explanations
        .iter()
        .zip(snap_report.explanations.iter())
    {
        assert_eq!(
            a.render(&text_loaded.system),
            b.render(&snap_loaded.system),
            "ranked queries diverge between load paths"
        );
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "Z-scores diverge between load paths"
        );
        assert_eq!(a.stats, b.stats, "stats diverge between load paths");
    }
    eprintln!(
        "explain: {explain_ms:.1} ms, {} ranked explanations, identical across load paths",
        snap_report.explanations.len()
    );
    fields.push_str(&format!(
        "\"explain_ms\":{explain_ms:.3},\"explanations\":{},",
        snap_report.explanations.len()
    ));
}

fn main() {
    let mut fields = String::new();

    let t0 = Instant::now();
    let big = scale_scenario(ScaleParams {
        n_atoms: BIG_ATOMS,
        label_cap: BIG_LABELS,
        ..ScaleParams::default()
    });
    let gen_ms = ms(t0);
    let big_atoms = big.system.db().len();
    eprintln!("generated {big_atoms} atoms in {gen_ms:.1} ms");
    fields.push_str(&format!(
        "\"gen_ms\":{gen_ms:.3},\"big_atoms\":{big_atoms},"
    ));

    let big_dir = scratch_dir("big");
    write_scenario_dir(&big_dir, &big.system, &big.labels).expect("write big scenario dir");
    drop(big);

    let (load_speedup, snap_loaded) = bench_load(&big_dir, &mut fields);
    bench_border(&snap_loaded, &mut fields);
    bench_intern(&snap_loaded, &mut fields);
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
    bench_explain(&med_dir, &mut fields);
    let _ = std::fs::remove_dir_all(&med_dir);

    let json = format!(
        "{{\"bench\":\"scale\",\"big_atoms_target\":{BIG_ATOMS},\"med_atoms_target\":{MED_ATOMS},\
         \"border_radius\":{BORDER_RADIUS},{fields}\"identical_output\":true}}"
    );
    println!("{json}");

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = std::path::Path::new(root).join("BENCH_scale.json");
    std::fs::write(&path, format!("{json}\n")).expect("write BENCH_scale.json");
    eprintln!(
        "wrote {}",
        std::fs::canonicalize(&path).unwrap_or(path).display()
    );

    // Hard gate (acceptance): the binary snapshot must load the
    // 10⁶-atom scenario ≥10× faster than the text artifacts.
    if load_speedup < 10.0 {
        eprintln!("FAIL: snapshot load speedup {load_speedup:.2}x below the 10x acceptance target");
        std::process::exit(1);
    }
}

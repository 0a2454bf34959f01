//! Evaluation of source CQs/UCQs over a database [`View`].
//!
//! Two evaluators live here, selected at runtime by [`mode`]. The default
//! mode, [`EvalMode::Auto`], dispatches per call by view size: tiny views
//! (below [`guided_min_view`] atoms, typically radius-1 borders) go to the
//! legacy backtracker whose constant factors win at that scale, larger
//! views to the guided engine.
//!
//! * the **guided** evaluator ([`guided`]) — a
//!   constraint-guided join in the worst-case-optimal family: every body
//!   atom is a constraint proposing/confirming values for one variable at
//!   a time, and the engine always binds the variable with the smallest
//!   O(1) cardinality estimate;
//! * the **legacy** evaluator ([`answers_legacy`] and friends) — a
//!   backtracking join with dynamic *atom* ordering: at every depth it
//!   picks the not-yet-joined atom with the smallest estimated candidate
//!   set and binds all of its variables at once. This is the classical
//!   "most-selective-first" heuristic; it remains as the reference
//!   implementation (`OBX_GUIDED=0`) and the baseline the equivalence
//!   suite and the `guided` bench compare against.
//!
//! Both evaluators count the candidate atoms they inspect (one *node* per
//! index-slice or mask entry examined); [`node_counts`] exposes the
//! process-wide totals per evaluator so benches and the observability
//! layer can attribute join work to the mode that did it.

use crate::src::{SrcAtom, SrcCq, SrcUcq};
use crate::term::{Term, VarId};
use obx_srcdb::{Const, View};
use obx_util::FxHashSet;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

pub mod guided;

/// Which evaluator implementation the public entry points dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// The fixed-strategy backtracking join (atom-at-a-time).
    Legacy,
    /// The constraint-guided join (variable-at-a-time), on every view.
    Guided,
    /// Size-gated dispatch (the default): guided on views at or above
    /// [`guided_min_view`] atoms, legacy below it. The guided engine's
    /// per-call bookkeeping (constraint propagation state, cardinality
    /// estimates) loses to the plain backtracker on tiny border views —
    /// this recovers that overhead without giving up guided wins at scale.
    Auto,
}

/// 0 = uninitialized (read `OBX_GUIDED` on first use), 1 = legacy,
/// 2 = guided, 3 = auto.
static MODE: AtomicU8 = AtomicU8::new(0);

fn mode_from_env() -> EvalMode {
    match std::env::var("OBX_GUIDED") {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "0" | "off" | "false" | "no" => EvalMode::Legacy,
            "auto" => EvalMode::Auto,
            _ => EvalMode::Guided,
        },
        Err(_) => EvalMode::Auto,
    }
}

/// The active evaluator. Initialized from `OBX_GUIDED` on first call
/// (`0|off|false|no` → legacy, `auto` or unset → size-gated auto, any
/// other value → guided on every view); overridable at runtime with
/// [`set_mode`].
pub fn mode() -> EvalMode {
    match MODE.load(Ordering::Relaxed) {
        1 => EvalMode::Legacy,
        2 => EvalMode::Guided,
        3 => EvalMode::Auto,
        _ => {
            let m = mode_from_env();
            set_mode(m);
            m
        }
    }
}

/// Selects the evaluator process-wide. Intended for A/B benches and
/// equivalence tests; concurrent evaluations pick up the change at their
/// next entry-point call, so flip it only between runs.
pub fn set_mode(m: EvalMode) {
    MODE.store(
        match m {
            EvalMode::Legacy => 1,
            EvalMode::Guided => 2,
            EvalMode::Auto => 3,
        },
        Ordering::Relaxed,
    );
}

/// 0 = uninitialized (read `OBX_GUIDED_MIN_VIEW` on first use); the
/// stored value is the threshold plus one so a configured 0 is
/// representable.
static MIN_VIEW: AtomicU64 = AtomicU64::new(0);

/// Default [`Auto`](EvalMode::Auto) threshold: measured on the guided
/// bench's border panel, views under ~16 atoms are where the legacy
/// backtracker's lower constant factors win (the crossover is flat
/// between 8 and 32; 16 splits it).
const DEFAULT_MIN_VIEW: usize = 16;

/// The [`Auto`](EvalMode::Auto) size gate: views with fewer than this
/// many visible atoms evaluate on the legacy engine, the rest on the
/// guided one. Initialized from `OBX_GUIDED_MIN_VIEW` (default 16) on
/// first call; overridable with [`set_guided_min_view`].
pub fn guided_min_view() -> usize {
    match MIN_VIEW.load(Ordering::Relaxed) {
        0 => {
            let t = std::env::var("OBX_GUIDED_MIN_VIEW")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .unwrap_or(DEFAULT_MIN_VIEW);
            set_guided_min_view(t);
            t
        }
        stored => (stored - 1) as usize,
    }
}

/// Sets the [`Auto`](EvalMode::Auto) size gate process-wide (0 = guided
/// everywhere). Intended for A/B benches and equivalence tests.
pub fn set_guided_min_view(atoms: usize) {
    MIN_VIEW.store((atoms as u64).saturating_add(1), Ordering::Relaxed);
}

/// The evaluator [`mode`] resolves to for a concrete view: `Auto` picks
/// per call by view size, the forced modes pass through.
fn effective_mode(view: &View<'_>) -> EvalMode {
    match mode() {
        EvalMode::Auto => {
            if view.len() < guided_min_view() {
                EvalMode::Legacy
            } else {
                EvalMode::Guided
            }
        }
        forced => forced,
    }
}

/// Process-wide candidate-inspection totals (monotone).
static LEGACY_NODES: AtomicU64 = AtomicU64::new(0);
static GUIDED_NODES: AtomicU64 = AtomicU64::new(0);

/// Cumulative `(legacy, guided)` node counts: one node per candidate
/// database atom inspected by the respective evaluator (including
/// mask-filtered and consistency-rejected candidates — the true measure
/// of join work). Monotone process-wide totals; read before/after a
/// region and subtract.
pub fn node_counts() -> (u64, u64) {
    (
        LEGACY_NODES.load(Ordering::Relaxed),
        GUIDED_NODES.load(Ordering::Relaxed),
    )
}

/// A variable binding, dense over the query's variable indices.
struct Binding {
    slots: Vec<Option<Const>>,
}

impl Binding {
    fn new(num_vars: usize) -> Self {
        Self {
            slots: vec![None; num_vars],
        }
    }

    #[inline]
    fn get(&self, v: VarId) -> Option<Const> {
        self.slots[v.index()]
    }

    #[inline]
    fn resolve(&self, t: Term) -> Option<Const> {
        match t {
            Term::Const(c) => Some(c),
            Term::Var(v) => self.get(v),
        }
    }
}

/// Estimated number of candidate database atoms for `atom` under the
/// current binding, estimated against the **masked** view: index sizes are
/// capped by the number of visible atoms, so on a border-sized mask a
/// bound-argument index over a huge relation no longer looks worse than an
/// unbound scan of a small one (the estimate that used to mis-order joins
/// on masked views).
fn selectivity(view: &View<'_>, atom: &SrcAtom, binding: &Binding) -> usize {
    let mut best = view.size_hint_of(atom.rel);
    for (pos, &t) in atom.args.iter().enumerate() {
        if let Some(c) = binding.resolve(t) {
            best = best.min(view.db().atoms_with(atom.rel, pos, c).len());
        }
    }
    // No index can contribute more atoms than the view makes visible.
    best.min(view.len())
}

/// Iterator over candidate atom ids for one atom: the most selective index
/// slice, filtered by the view's mask. A concrete type (not a boxed
/// `dyn Iterator`) so the per-node hot path of the backtracking search
/// does not allocate; it borrows only the view, so the search can keep
/// mutating the binding while iterating.
struct CandidateIter<'v> {
    ids: &'v [obx_srcdb::AtomId],
    view: View<'v>,
    next: usize,
    /// Per-search node tally (candidates inspected, visible or not),
    /// flushed into [`LEGACY_NODES`] by the entry points.
    nodes: &'v Cell<u64>,
}

impl Iterator for CandidateIter<'_> {
    type Item = obx_srcdb::AtomId;

    fn next(&mut self) -> Option<obx_srcdb::AtomId> {
        while let Some(&id) = self.ids.get(self.next) {
            self.next += 1;
            self.nodes.set(self.nodes.get() + 1);
            if self.view.visible(id) {
                return Some(id);
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.ids.len() - self.next))
    }
}

/// Candidate atom ids for `atom` under `binding`, using the most selective
/// index available.
fn candidates<'v>(
    view: View<'v>,
    atom: &SrcAtom,
    binding: &Binding,
    nodes: &'v Cell<u64>,
) -> CandidateIter<'v> {
    let mut best: Option<(usize, usize, Const)> = None; // (index size, pos, const)
    for (pos, &t) in atom.args.iter().enumerate() {
        if let Some(c) = binding.resolve(t) {
            let size = view.db().atoms_with(atom.rel, pos, c).len();
            if best.map_or(true, |(s, _, _)| size < s) {
                best = Some((size, pos, c));
            }
        }
    }
    let ids = match best {
        Some((_, pos, c)) => view.db().atoms_with(atom.rel, pos, c),
        None => view.db().atoms_of(atom.rel),
    };
    CandidateIter {
        ids,
        view,
        next: 0,
        nodes,
    }
}

/// Tries to match `atom` against the database atom `id`, extending
/// `binding`. Newly bound variables are pushed onto `trail` (the caller
/// records the trail length before the call and rewinds with [`undo_to`]
/// on backtrack). On failure the binding and trail are restored before
/// returning. The trail is a single per-search scratch buffer, so the hot
/// per-node path of the backtracking join performs no allocation.
fn try_match(
    view: &View<'_>,
    atom: &SrcAtom,
    id: obx_srcdb::AtomId,
    binding: &mut Binding,
    trail: &mut Vec<VarId>,
) -> bool {
    let fact = view.atom(id);
    debug_assert_eq!(fact.rel, atom.rel);
    if fact.args.len() != atom.args.len() {
        return false;
    }
    let mark = trail.len();
    for (&t, &c) in atom.args.iter().zip(fact.args.iter()) {
        match t {
            Term::Const(qc) => {
                if qc != c {
                    undo_to(binding, trail, mark);
                    return false;
                }
            }
            Term::Var(v) => match binding.get(v) {
                Some(bound) => {
                    if bound != c {
                        undo_to(binding, trail, mark);
                        return false;
                    }
                }
                None => {
                    binding.slots[v.index()] = Some(c);
                    trail.push(v);
                }
            },
        }
    }
    true
}

/// Unbinds every variable recorded after `mark` and truncates the trail
/// back to it.
#[inline]
fn undo_to(binding: &mut Binding, trail: &mut Vec<VarId>, mark: usize) {
    for &v in &trail[mark..] {
        binding.slots[v.index()] = None;
    }
    trail.truncate(mark);
}

/// Picks the next atom to join: the most selective unjoined atom — except
/// when exactly one atom remains, where the selectivity estimates cannot
/// change a choice of one and are skipped outright (on deep joins the
/// final level dominates the node count, so this halves the estimator
/// work).
fn pick_unjoined(
    view: &View<'_>,
    atoms: &[SrcAtom],
    used: &[bool],
    binding: &Binding,
    remaining: usize,
) -> usize {
    if remaining == 1 {
        for (i, &u) in used.iter().enumerate() {
            if !u {
                return i;
            }
        }
    }
    let mut pick = 0;
    let mut pick_size = usize::MAX;
    for (i, atom) in atoms.iter().enumerate() {
        if used[i] {
            continue;
        }
        let s = selectivity(view, atom, binding);
        if s < pick_size {
            pick_size = s;
            pick = i;
        }
    }
    pick
}

/// Depth-first search over the remaining atoms. `on_solution` returns
/// `true` to keep searching, `false` to stop early. Returns `false` iff the
/// search was stopped early.
#[allow(clippy::too_many_arguments)]
fn search(
    view: &View<'_>,
    atoms: &[SrcAtom],
    used: &mut [bool],
    remaining: usize,
    binding: &mut Binding,
    trail: &mut Vec<VarId>,
    nodes: &Cell<u64>,
    on_solution: &mut dyn FnMut(&Binding) -> bool,
) -> bool {
    if remaining == 0 {
        return on_solution(binding);
    }
    let pick = pick_unjoined(view, atoms, used, binding, remaining);
    let atom = &atoms[pick];
    used[pick] = true;
    let mut keep_going = true;
    for id in candidates(*view, atom, binding, nodes) {
        let mark = trail.len();
        if try_match(view, atom, id, binding, trail) {
            keep_going = search(
                view,
                atoms,
                used,
                remaining - 1,
                binding,
                trail,
                nodes,
                on_solution,
            );
            undo_to(binding, trail, mark);
            if !keep_going {
                break;
            }
        }
    }
    used[pick] = false;
    keep_going
}

fn num_vars(cq: &SrcCq) -> usize {
    cq.max_var().map_or(0, |m| m as usize + 1)
}

/// All answers of `cq` over `view`: the set of head-variable tuples.
/// Dispatches to the evaluator selected by [`mode`].
pub fn answers(view: View<'_>, cq: &SrcCq) -> FxHashSet<Box<[Const]>> {
    match effective_mode(&view) {
        EvalMode::Legacy => answers_legacy(view, cq),
        _ => guided::answers(view, cq),
    }
}

/// [`answers`] on the legacy backtracking evaluator, regardless of
/// [`mode`]. Reference implementation for the equivalence suite and the
/// baseline side of A/B benches.
pub fn answers_legacy(view: View<'_>, cq: &SrcCq) -> FxHashSet<Box<[Const]>> {
    let mut out: FxHashSet<Box<[Const]>> = FxHashSet::default();
    let mut binding = Binding::new(num_vars(cq));
    let mut trail: Vec<VarId> = Vec::with_capacity(binding.slots.len());
    let mut used = vec![false; cq.body().len()];
    let n = cq.body().len();
    let nodes = Cell::new(0u64);
    search(
        &view,
        cq.body(),
        &mut used,
        n,
        &mut binding,
        &mut trail,
        &nodes,
        &mut |b| {
            let tuple: Box<[Const]> = cq
                .head()
                .iter()
                .map(|&v| b.get(v).expect("head var bound by safety"))
                .collect();
            out.insert(tuple);
            true
        },
    );
    LEGACY_NODES.fetch_add(nodes.get(), Ordering::Relaxed);
    out
}

/// Whether `tuple` is an answer of `cq` over `view`.
///
/// Head variables are pre-bound to the tuple (so this is a single
/// goal-directed search, not answer enumeration). Returns `false` when the
/// tuple arity differs from the query arity, or when a repeated head
/// variable would need two different constants. Dispatches to the
/// evaluator selected by [`mode`].
pub fn satisfies(view: View<'_>, cq: &SrcCq, tuple: &[Const]) -> bool {
    match effective_mode(&view) {
        EvalMode::Legacy => satisfies_legacy(view, cq, tuple),
        _ => guided::satisfies(view, cq, tuple),
    }
}

/// [`satisfies`] on the legacy backtracking evaluator, regardless of
/// [`mode`].
pub fn satisfies_legacy(view: View<'_>, cq: &SrcCq, tuple: &[Const]) -> bool {
    if tuple.len() != cq.arity() {
        return false;
    }
    let mut binding = Binding::new(num_vars(cq));
    for (&v, &c) in cq.head().iter().zip(tuple.iter()) {
        match binding.get(v) {
            Some(prev) if prev != c => return false,
            _ => binding.slots[v.index()] = Some(c),
        }
    }
    let mut trail: Vec<VarId> = Vec::with_capacity(binding.slots.len());
    let mut used = vec![false; cq.body().len()];
    let n = cq.body().len();
    let nodes = Cell::new(0u64);
    let mut found = false;
    search(
        &view,
        cq.body(),
        &mut used,
        n,
        &mut binding,
        &mut trail,
        &nodes,
        &mut |_| {
            found = true;
            false // stop at the first witness
        },
    );
    LEGACY_NODES.fetch_add(nodes.get(), Ordering::Relaxed);
    found
}

/// Like [`satisfies`], but additionally returns a *witness*: the database
/// atoms (one per body atom, in body order) of the first embedding found.
/// This is the provenance primitive behind explanation evidence — the
/// paper's future-work item on explaining query answers (its reference
/// [10]) asks exactly for the facts that ground a certain answer.
/// Dispatches to the evaluator selected by [`mode`]; the two evaluators
/// may ground the body with *different* (both valid) witnesses.
pub fn witness(view: View<'_>, cq: &SrcCq, tuple: &[Const]) -> Option<Vec<obx_srcdb::AtomId>> {
    match effective_mode(&view) {
        EvalMode::Legacy => witness_legacy(view, cq, tuple),
        _ => guided::witness(view, cq, tuple),
    }
}

/// [`witness`] on the legacy backtracking evaluator, regardless of
/// [`mode`].
pub fn witness_legacy(
    view: View<'_>,
    cq: &SrcCq,
    tuple: &[Const],
) -> Option<Vec<obx_srcdb::AtomId>> {
    if tuple.len() != cq.arity() {
        return None;
    }
    let mut binding = Binding::new(num_vars(cq));
    for (&v, &c) in cq.head().iter().zip(tuple.iter()) {
        match binding.get(v) {
            Some(prev) if prev != c => return None,
            _ => binding.slots[v.index()] = Some(c),
        }
    }
    // Re-run the search keeping per-atom matched ids. Reuses the same
    // machinery with a side table filled on the way down.
    #[allow(clippy::too_many_arguments)]
    fn go(
        view: &View<'_>,
        atoms: &[SrcAtom],
        used: &mut [bool],
        matched: &mut [Option<obx_srcdb::AtomId>],
        remaining: usize,
        binding: &mut Binding,
        trail: &mut Vec<VarId>,
        nodes: &Cell<u64>,
    ) -> bool {
        if remaining == 0 {
            return true;
        }
        let pick = pick_unjoined(view, atoms, used, binding, remaining);
        let atom = &atoms[pick];
        used[pick] = true;
        for id in candidates(*view, atom, binding, nodes) {
            let mark = trail.len();
            if try_match(view, atom, id, binding, trail) {
                matched[pick] = Some(id);
                if go(
                    view,
                    atoms,
                    used,
                    matched,
                    remaining - 1,
                    binding,
                    trail,
                    nodes,
                ) {
                    return true;
                }
                matched[pick] = None;
                undo_to(binding, trail, mark);
            }
        }
        used[pick] = false;
        false
    }
    let n = cq.body().len();
    let mut used = vec![false; n];
    let mut trail: Vec<VarId> = Vec::with_capacity(binding.slots.len());
    let mut matched: Vec<Option<obx_srcdb::AtomId>> = vec![None; n];
    let nodes = Cell::new(0u64);
    let hit = go(
        &view,
        cq.body(),
        &mut used,
        &mut matched,
        n,
        &mut binding,
        &mut trail,
        &nodes,
    );
    LEGACY_NODES.fetch_add(nodes.get(), Ordering::Relaxed);
    if hit {
        Some(
            matched
                .into_iter()
                .map(|m| m.expect("all atoms matched"))
                .collect(),
        )
    } else {
        None
    }
}

/// First witness across a UCQ's disjuncts, with the disjunct index.
pub fn witness_ucq(
    view: View<'_>,
    ucq: &SrcUcq,
    tuple: &[Const],
) -> Option<(usize, Vec<obx_srcdb::AtomId>)> {
    ucq.disjuncts()
        .iter()
        .enumerate()
        .find_map(|(i, cq)| witness(view, cq, tuple).map(|w| (i, w)))
}

/// All answers of a UCQ (union of the disjuncts' answers).
pub fn answers_ucq(view: View<'_>, ucq: &SrcUcq) -> FxHashSet<Box<[Const]>> {
    let mut out: FxHashSet<Box<[Const]>> = FxHashSet::default();
    for cq in ucq.disjuncts() {
        out.extend(answers(view, cq));
    }
    out
}

/// Whether `tuple` is an answer of some disjunct.
pub fn satisfies_ucq(view: View<'_>, ucq: &SrcUcq, tuple: &[Const]) -> bool {
    ucq.disjuncts().iter().any(|cq| satisfies(view, cq, tuple))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::var;
    use obx_srcdb::{Database, Schema};

    /// The source database of the paper's Example 3.6.
    fn students_db() -> Database {
        let mut schema = Schema::new();
        schema.declare("STUD", 1).unwrap();
        schema.declare("LOC", 2).unwrap();
        schema.declare("ENR", 3).unwrap();
        let mut db = Database::new(schema);
        for s in ["A10", "B80", "C12", "D50", "E25"] {
            db.insert_named("STUD", &[s]).unwrap();
        }
        db.insert_named("LOC", &["Sap", "Rome"]).unwrap();
        db.insert_named("LOC", &["TV", "Rome"]).unwrap();
        db.insert_named("LOC", &["Pol", "Milan"]).unwrap();
        db.insert_named("ENR", &["A10", "Math", "TV"]).unwrap();
        db.insert_named("ENR", &["B80", "Math", "Sap"]).unwrap();
        db.insert_named("ENR", &["C12", "Science", "Norm"]).unwrap();
        db.insert_named("ENR", &["D50", "Science", "TV"]).unwrap();
        db.insert_named("ENR", &["E25", "Math", "Pol"]).unwrap();
        db
    }

    fn c(db: &Database, name: &str) -> Const {
        db.consts().get(name).expect("constant present")
    }

    #[test]
    fn single_atom_scan() {
        let db = students_db();
        let stud = db.schema().rel("STUD").unwrap();
        let q = SrcCq::new(vec![VarId(0)], vec![SrcAtom::new(stud, [var(0)])]).unwrap();
        let ans = answers(View::full(&db), &q);
        assert_eq!(ans.len(), 5);
        assert!(ans.contains(&vec![c(&db, "A10")].into_boxed_slice()));
    }

    #[test]
    fn join_with_constant() {
        let db = students_db();
        let enr = db.schema().rel("ENR").unwrap();
        let loc = db.schema().rel("LOC").unwrap();
        let rome = c(&db, "Rome");
        // q(x) :- ENR(x, y, z), LOC(z, "Rome")
        let q = SrcCq::new(
            vec![VarId(0)],
            vec![
                SrcAtom::new(enr, [var(0), var(1), var(2)]),
                SrcAtom::new(loc, [var(2), Term::Const(rome)]),
            ],
        )
        .unwrap();
        let ans = answers(View::full(&db), &q);
        let names: FxHashSet<&str> = ans.iter().map(|t| db.consts().resolve(t[0])).collect();
        assert_eq!(names, ["A10", "B80", "D50"].into_iter().collect());
    }

    #[test]
    fn satisfies_is_goal_directed_and_agrees_with_answers() {
        let db = students_db();
        let enr = db.schema().rel("ENR").unwrap();
        let math = c(&db, "Math");
        // q(x) :- ENR(x, "Math", z)
        let q = SrcCq::new(
            vec![VarId(0)],
            vec![SrcAtom::new(enr, [var(0), Term::Const(math), var(1)])],
        )
        .unwrap();
        let view = View::full(&db);
        let ans = answers(view, &q);
        for name in ["A10", "B80", "C12", "D50", "E25"] {
            let t = [c(&db, name)];
            assert_eq!(
                satisfies(view, &q, &t),
                ans.contains(&t.to_vec().into_boxed_slice()),
                "mismatch for {name}"
            );
        }
    }

    #[test]
    fn satisfies_rejects_wrong_arity_and_conflicting_repeated_head() {
        let db = students_db();
        let loc = db.schema().rel("LOC").unwrap();
        // q(x, x) :- LOC(x, x) — diagonal query, no LOC fact is reflexive.
        let q = SrcCq::new(
            vec![VarId(0), VarId(0)],
            vec![SrcAtom::new(loc, [var(0), var(0)])],
        )
        .unwrap();
        let view = View::full(&db);
        let sap = c(&db, "Sap");
        let rome = c(&db, "Rome");
        assert!(!satisfies(view, &q, &[sap])); // wrong arity
        assert!(!satisfies(view, &q, &[sap, rome])); // conflicting repeat
        assert!(!satisfies(view, &q, &[sap, sap])); // consistent but no fact
    }

    #[test]
    fn repeated_variable_within_atom() {
        let mut schema = Schema::new();
        schema.declare("E", 2).unwrap();
        let mut db = Database::new(schema);
        db.insert_named("E", &["a", "a"]).unwrap();
        db.insert_named("E", &["a", "b"]).unwrap();
        let e = db.schema().rel("E").unwrap();
        let q = SrcCq::new(vec![VarId(0)], vec![SrcAtom::new(e, [var(0), var(0)])]).unwrap();
        let ans = answers(View::full(&db), &q);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&vec![c(&db, "a")].into_boxed_slice()));
    }

    #[test]
    fn evaluation_respects_masked_views() {
        let db = students_db();
        let enr = db.schema().rel("ENR").unwrap();
        let q = SrcCq::new(
            vec![VarId(0)],
            vec![SrcAtom::new(enr, [var(0), var(1), var(2)])],
        )
        .unwrap();
        // Mask down to the single ENR(C12, …) fact.
        let c12 = c(&db, "C12");
        let mask =
            obx_srcdb::AtomSet::from_ids(db.len(), db.atoms_with(enr, 0, c12).iter().copied());
        let ans = answers(View::masked(&db, &mask), &q);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&vec![c12].into_boxed_slice()));
    }

    #[test]
    fn boolean_style_queries_via_constant_only_atoms() {
        let db = students_db();
        let loc = db.schema().rel("LOC").unwrap();
        let sap = c(&db, "Sap");
        let rome = c(&db, "Rome");
        let stud = db.schema().rel("STUD").unwrap();
        // q(x) :- STUD(x), LOC("Sap", "Rome") — the second atom is a guard.
        let q = SrcCq::new(
            vec![VarId(0)],
            vec![
                SrcAtom::new(stud, [var(0)]),
                SrcAtom::new(loc, [Term::Const(sap), Term::Const(rome)]),
            ],
        )
        .unwrap();
        assert_eq!(answers(View::full(&db), &q).len(), 5);
        // With a false guard there are no answers.
        let milan = c(&db, "Milan");
        let q2 = SrcCq::new(
            vec![VarId(0)],
            vec![
                SrcAtom::new(stud, [var(0)]),
                SrcAtom::new(loc, [Term::Const(sap), Term::Const(milan)]),
            ],
        )
        .unwrap();
        assert!(answers(View::full(&db), &q2).is_empty());
    }

    #[test]
    fn witness_returns_grounding_atoms() {
        let db = students_db();
        let enr = db.schema().rel("ENR").unwrap();
        let loc = db.schema().rel("LOC").unwrap();
        let rome = c(&db, "Rome");
        // q(x) :- ENR(x, y, z), LOC(z, "Rome")
        let q = SrcCq::new(
            vec![VarId(0)],
            vec![
                SrcAtom::new(enr, [var(0), var(1), var(2)]),
                SrcAtom::new(loc, [var(2), Term::Const(rome)]),
            ],
        )
        .unwrap();
        let view = View::full(&db);
        let a10 = c(&db, "A10");
        let w = witness(view, &q, &[a10]).expect("A10 matches");
        assert_eq!(w.len(), 2);
        // Witness atoms ground the body in order: an ENR fact about A10,
        // then a LOC(..., Rome) fact.
        let w0 = db.atom(w[0]);
        let w1 = db.atom(w[1]);
        assert_eq!(w0.rel, enr);
        assert_eq!(w0.args[0], a10);
        assert_eq!(w1.rel, loc);
        assert_eq!(w1.args[1], rome);
        // The ENR's university must be the LOC's subject (join respected).
        assert_eq!(w0.args[2], w1.args[0]);
        // Non-answers yield no witness: E25's own university (Pol) is in
        // Milan, and this source query joins the student's *own* ENR row
        // with LOC (unlike the ontology q1, whose subject-mediated join
        // lets E25 match globally).
        let e25 = c(&db, "E25");
        assert!(witness(view, &q, &[e25]).is_none());
        let milan = c(&db, "Milan");
        assert!(witness(view, &q, &[milan]).is_none());
        // Arity mismatch yields none.
        assert!(witness(view, &q, &[a10, a10]).is_none());
    }

    #[test]
    fn witness_ucq_reports_disjunct_index() {
        let db = students_db();
        let enr = db.schema().rel("ENR").unwrap();
        let math = c(&db, "Math");
        let science = c(&db, "Science");
        let q_math = SrcCq::new(
            vec![VarId(0)],
            vec![SrcAtom::new(enr, [var(0), Term::Const(math), var(1)])],
        )
        .unwrap();
        let q_sci = SrcCq::new(
            vec![VarId(0)],
            vec![SrcAtom::new(enr, [var(0), Term::Const(science), var(1)])],
        )
        .unwrap();
        let ucq: SrcUcq = [q_math, q_sci].into_iter().collect();
        let view = View::full(&db);
        let (i_a10, _) = witness_ucq(view, &ucq, &[c(&db, "A10")]).unwrap();
        let (i_c12, _) = witness_ucq(view, &ucq, &[c(&db, "C12")]).unwrap();
        assert_ne!(
            i_a10, i_c12,
            "Math and Science students hit different disjuncts"
        );
    }

    #[test]
    fn ucq_unions_disjuncts() {
        let db = students_db();
        let enr = db.schema().rel("ENR").unwrap();
        let math = c(&db, "Math");
        let science = c(&db, "Science");
        let q_math = SrcCq::new(
            vec![VarId(0)],
            vec![SrcAtom::new(enr, [var(0), Term::Const(math), var(1)])],
        )
        .unwrap();
        let q_sci = SrcCq::new(
            vec![VarId(0)],
            vec![SrcAtom::new(enr, [var(0), Term::Const(science), var(1)])],
        )
        .unwrap();
        let ucq: SrcUcq = [q_math, q_sci].into_iter().collect();
        let view = View::full(&db);
        assert_eq!(answers_ucq(view, &ucq).len(), 5);
        assert!(satisfies_ucq(view, &ucq, &[c(&db, "C12")]));
    }

    #[test]
    fn cross_product_queries_terminate_and_are_correct() {
        let db = students_db();
        let stud = db.schema().rel("STUD").unwrap();
        // q(x, y) :- STUD(x), STUD(y) — 25 answers.
        let q = SrcCq::new(
            vec![VarId(0), VarId(1)],
            vec![SrcAtom::new(stud, [var(0)]), SrcAtom::new(stud, [var(1)])],
        )
        .unwrap();
        assert_eq!(answers(View::full(&db), &q).len(), 25);
    }

    #[test]
    fn auto_mode_gates_by_view_size() {
        let db = students_db();
        let n = db.len();
        let prev_mode = mode();
        let prev_gate = guided_min_view();
        set_mode(EvalMode::Auto);
        // Gate above the view size → the tiny view routes to legacy.
        set_guided_min_view(n + 1);
        assert_eq!(effective_mode(&View::full(&db)), EvalMode::Legacy);
        // Gate at or below the view size → guided.
        set_guided_min_view(n);
        assert_eq!(effective_mode(&View::full(&db)), EvalMode::Guided);
        set_guided_min_view(0);
        assert_eq!(effective_mode(&View::full(&db)), EvalMode::Guided);
        // A masked view is gated by its *visible* atom count, not the
        // database's: a border-sized mask over a big database goes legacy.
        let mask = obx_srcdb::AtomSet::from_ids(db.len(), db.atom_ids().take(3));
        set_guided_min_view(4);
        assert_eq!(effective_mode(&View::masked(&db, &mask)), EvalMode::Legacy);
        // Forced modes pass through the gate untouched.
        set_mode(EvalMode::Legacy);
        assert_eq!(effective_mode(&View::full(&db)), EvalMode::Legacy);
        set_mode(EvalMode::Guided);
        set_guided_min_view(usize::MAX);
        assert_eq!(effective_mode(&View::full(&db)), EvalMode::Guided);
        set_guided_min_view(prev_gate);
        set_mode(prev_mode);
    }
}

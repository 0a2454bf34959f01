//! Reachability and the border of radius `r` (Definitions 3.1 and 3.2).
//!
//! The border `B_{t,r}(D)` collects the atoms of `D` relevant to a
//! classified tuple `t`: layer `W_{t,0}` holds the atoms mentioning a
//! constant of `t`, and layer `W_{t,j+1}` holds the atoms *newly* reached
//! from layer `j` by sharing a constant.
//!
//! **Semantics note.** Read literally, Definition 3.2 would put *every*
//! atom reachable from `W_{t,j}` into `W_{t,j+1}`, re-including earlier
//! layers (an atom always shares a constant with itself). The paper's
//! Example 3.3 shows the intended reading — `W_{t,1}(D) = {Z(c,d)}` only,
//! i.e. BFS frontier layers. We implement the frontier semantics; the
//! *border* (the union of layers, which is what Definitions 3.4+ consume)
//! is identical under both readings, and a property test below checks that
//! union-equivalence.
//!
//! Complexity: one BFS over the bipartite constant–atom incidence graph
//! using [`Database::atoms_mentioning`], i.e. `O(Σ |incident atoms|)` —
//! near-linear in the size of the reached sub-database (experiment E8).

// The BFS runs inside every served explain; a panic here would trip the
// tenant's circuit breaker instead of returning a truncated border.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::atom::AtomId;
use crate::atomset::{AtomSet, Bitmap};
use crate::consts::Const;
use crate::database::Database;
use crate::view::View;
use std::sync::LazyLock;

/// Process-wide count of materialised border atoms (per-run counts live on
/// the `border` span).
static BORDER_ATOMS: LazyLock<&'static obx_util::obs::Counter> =
    LazyLock::new(|| obx_util::obs::counter("obx.border.atoms"));

/// Dense dedup bitmaps for the border BFS — atoms and constants already
/// reached — so membership tests are one word probe instead of a hash.
///
/// A scratch is clear between borders: each BFS resets exactly the bits
/// it set, from its own member lists, so reusing one scratch across many
/// tuples costs `O(border)` per tuple rather than `O(database)`.
#[derive(Debug, Default)]
pub struct BorderScratch {
    atoms: Bitmap,
    consts: Bitmap,
}

impl BorderScratch {
    /// An empty scratch; it sizes itself to the database on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Collects the next frontier — constants first seen in `layer`'s atoms —
/// in discovery order, marking them seen.
fn collect_frontier(
    db: &Database,
    layer: &[AtomId],
    seen: &mut Bitmap,
    seen_list: &mut Vec<Const>,
) -> Vec<Const> {
    let mut next_frontier = Vec::new();
    for &id in layer {
        for &c in db.atom(id).args.iter() {
            if seen.insert(c.0.index()) {
                next_frontier.push(c);
            }
        }
    }
    seen_list.extend_from_slice(&next_frontier);
    next_frontier
}

/// Charges one completed BFS layer (`atoms` new border atoms) to the
/// interrupt's resource guard, if any. Returns `false` when the guard has
/// tripped — callers stop extending the border, which stays valid at its
/// current (smaller) radius.
fn charge_layer(interrupt: &obx_util::Interrupt, atoms: usize) -> bool {
    match interrupt.guard() {
        Some(g) => g.charge(
            obx_util::GuardKind::BorderAtoms,
            atoms,
            atoms * std::mem::size_of::<AtomId>(),
        ),
        None => true,
    }
}

/// Definition 3.1: all atoms of `db` sharing a constant with some atom in
/// `from` (including the atoms of `from` themselves, which trivially share
/// their own constants). Exposed mostly for tests and documentation; the
/// border BFS below uses frontier bookkeeping instead of re-scanning.
pub fn reachable_from(db: &Database, from: &AtomSet) -> AtomSet {
    let mut out = Vec::new();
    let mut seen_consts = Bitmap::default();
    for id in from {
        for &c in db.atom(id).args.iter() {
            if seen_consts.insert(c.0.index()) {
                out.extend_from_slice(db.atoms_mentioning(c));
            }
        }
    }
    AtomSet::from_ids(db.len(), out)
}

/// The border `B_{t,r}(D)` of a tuple, with its BFS layers `W_{t,j}`.
///
/// A `Border` can be [extended](Border::extend) to a larger radius without
/// recomputing earlier layers — the explanation engine grows borders lazily
/// when the radius parameter increases.
#[derive(Debug)]
pub struct Border {
    /// `layers[j]` = `W_{t,j}(D)`, in discovery order. Trailing layers may
    /// be empty when the BFS exhausted the connected component early.
    layers: Vec<Vec<AtomId>>,
    /// The union of `layers`, frozen after every expansion.
    all: AtomSet,
    /// Constants discovered in the most recent layer, not yet expanded.
    frontier: Vec<Const>,
    /// Every constant reached so far (the tuple's, then each frontier's).
    seen_consts: Vec<Const>,
}

impl Border {
    /// Computes `B_{t,radius}(D)` for the tuple `t` (given as its constants).
    pub fn compute(db: &Database, tuple: &[Const], radius: usize) -> Self {
        Self::compute_interruptible(db, tuple, radius, &obx_util::Interrupt::none())
    }

    /// [`Border::compute`] with a cooperative stop signal, polled once per
    /// BFS layer. If `interrupt` fires the border is returned *truncated*
    /// (fewer layers than requested) — still a valid border at its smaller
    /// radius, which is exactly what an anytime search wants.
    pub fn compute_interruptible(
        db: &Database,
        tuple: &[Const],
        radius: usize,
        interrupt: &obx_util::Interrupt,
    ) -> Self {
        Self::compute_in(db, tuple, radius, interrupt, &mut BorderScratch::new())
    }

    /// [`Border::compute_interruptible`] in a caller-owned scratch, which
    /// comes back clear — one scratch serves every tuple of a label set.
    pub fn compute_in(
        db: &Database,
        tuple: &[Const],
        radius: usize,
        interrupt: &obx_util::Interrupt,
        scratch: &mut BorderScratch,
    ) -> Self {
        scratch.atoms.reserve(db.len());
        scratch.consts.reserve(db.consts().len());
        // Layer 0: atoms that mention a constant appearing in t.
        let mut seen_consts: Vec<Const> = Vec::new();
        let mut layer0: Vec<AtomId> = Vec::new();
        for &c in tuple {
            if !scratch.consts.insert(c.0.index()) {
                continue;
            }
            seen_consts.push(c);
            for &id in db.atoms_mentioning(c) {
                if scratch.atoms.insert(id.index()) {
                    layer0.push(id);
                }
            }
        }
        // Constants of t are expanded; constants first seen inside layer-0
        // atoms form the frontier for layer 1.
        let frontier = collect_frontier(db, &layer0, &mut scratch.consts, &mut seen_consts);
        let layer0_len = layer0.len();
        let mut border = Self {
            layers: vec![layer0],
            all: AtomSet::empty(db.len()),
            frontier,
            seen_consts,
        };
        let mut sp = obx_util::span!(interrupt.recorder(), "border");
        sp.count("atoms", layer0_len as u64);
        sp.count("layers", 1);
        sp.count_max("frontier_max", border.frontier.len() as u64);
        BORDER_ATOMS.add(layer0_len as u64);
        // Layer 0 is already materialized, so it is charged either way; a
        // trip just stops the border from growing past it.
        if charge_layer(interrupt, layer0_len) {
            border.extend_layers(db, radius, interrupt, &mut sp, scratch);
        }
        border.freeze(db, scratch);
        for &c in &border.seen_consts {
            scratch.consts.remove(c.0.index());
        }
        for id in border.layers.iter().flatten() {
            scratch.atoms.remove(id.index());
        }
        border
    }

    /// Grows the border so that at least `radius + 1` layers exist
    /// (`W_0 ..= W_radius`). No-op if already large enough.
    pub fn extend(&mut self, db: &Database, radius: usize) {
        self.extend_interruptible(db, radius, &obx_util::Interrupt::none());
    }

    /// [`Border::extend`] with a cooperative stop signal, polled once per
    /// layer. Returns `true` if the requested radius was reached, `false`
    /// if the interrupt fired first (the border stays valid at whatever
    /// radius it got to). An interrupt carrying a
    /// [`ResourceGuard`](obx_util::ResourceGuard) is charged per completed
    /// layer; a trip truncates the BFS the same way.
    pub fn extend_interruptible(
        &mut self,
        db: &Database,
        radius: usize,
        interrupt: &obx_util::Interrupt,
    ) -> bool {
        let mut sp = obx_util::span!(interrupt.recorder(), "border");
        if self.layers.len() > radius {
            return true;
        }
        // Rebuild the dedup state the BFS left off with.
        let mut scratch = BorderScratch::new();
        for &c in &self.seen_consts {
            scratch.consts.insert(c.0.index());
        }
        for id in self.layers.iter().flatten() {
            scratch.atoms.insert(id.index());
        }
        let reached = self.extend_layers(db, radius, interrupt, &mut sp, &mut scratch);
        self.freeze(db, &scratch);
        reached
    }

    /// The BFS layer loop behind [`Border::compute_in`] and
    /// [`Border::extend_interruptible`]; per-layer atom counts and the
    /// frontier high-water mark go on the caller's span so each public
    /// entry point records exactly one `border` span.
    fn extend_layers(
        &mut self,
        db: &Database,
        radius: usize,
        interrupt: &obx_util::Interrupt,
        sp: &mut obx_util::obs::Span<'_>,
        scratch: &mut BorderScratch,
    ) -> bool {
        while self.layers.len() <= radius {
            if interrupt.is_triggered() {
                return false;
            }
            // A border-atom budget exhausted earlier in the run blocks
            // further growth outright — no point materialising a layer
            // whose charge is guaranteed to fail.
            if interrupt
                .guard()
                .is_some_and(|g| g.is_exhausted(obx_util::GuardKind::BorderAtoms))
            {
                return false;
            }
            let mut layer: Vec<AtomId> = Vec::new();
            for &c in &self.frontier {
                for &id in db.atoms_mentioning(c) {
                    if scratch.atoms.insert(id.index()) {
                        layer.push(id);
                    }
                }
            }
            self.frontier =
                collect_frontier(db, &layer, &mut scratch.consts, &mut self.seen_consts);
            let charged = charge_layer(interrupt, layer.len());
            sp.count("atoms", layer.len() as u64);
            sp.count("layers", 1);
            sp.count_max("frontier_max", self.frontier.len() as u64);
            BORDER_ATOMS.add(layer.len() as u64);
            self.layers.push(layer);
            if !charged {
                return false;
            }
        }
        true
    }

    /// Re-freezes [`Border::atoms`] from the scratch the layers were
    /// deduplicated in.
    fn freeze(&mut self, db: &Database, scratch: &BorderScratch) {
        let len = self.layers.iter().map(Vec::len).sum();
        let members = self.layers.iter().flatten().copied();
        self.all = AtomSet::freeze(db.len(), len, &scratch.atoms, members);
    }

    /// Radius currently covered (`layers.len() - 1`).
    pub fn radius(&self) -> usize {
        self.layers.len() - 1
    }

    /// The layer `W_{t,j}(D)`, or `None` if `j` exceeds the computed radius.
    pub fn layer(&self, j: usize) -> Option<&[AtomId]> {
        self.layers.get(j).map(Vec::as_slice)
    }

    /// Number of layers computed (radius + 1).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The atoms of `B_{t,r}` for `r <= self.radius()`, as a fresh set.
    ///
    /// For `r == self.radius()` prefer [`Border::atoms`], which borrows.
    pub fn atoms_up_to(&self, r: usize) -> AtomSet {
        assert!(r < self.layers.len(), "radius {r} not computed");
        let ids = self.layers[..=r].iter().flatten().copied();
        AtomSet::from_ids(self.all.universe(), ids)
    }

    /// All atoms of the border at its full computed radius.
    #[inline]
    pub fn atoms(&self) -> &AtomSet {
        &self.all
    }

    /// The border's atom set, dropping the layers and BFS state.
    pub fn into_atoms(self) -> AtomSet {
        self.all
    }

    /// Number of atoms in the full border.
    pub fn len(&self) -> usize {
        self.all.len()
    }

    /// Whether the border is empty (the tuple's constants occur in no atom).
    pub fn is_empty(&self) -> bool {
        self.all.is_empty()
    }

    /// Whether the BFS has exhausted the connected component (further
    /// extensions would only add empty layers).
    pub fn saturated(&self) -> bool {
        self.frontier.is_empty()
    }

    /// A [`View`] of the database restricted to this border (full radius).
    pub fn view<'a>(&'a self, db: &'a Database) -> View<'a> {
        View::masked(db, &self.all)
    }
}

/// Convenience wrapper: the atoms of `B_{t,r}(D)`.
pub fn border(db: &Database, tuple: &[Const], radius: usize) -> AtomSet {
    Border::compute(db, tuple, radius).into_atoms()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use obx_util::{FxHashSet, GuardKind, GuardLimits, Interrupt, ResourceGuard};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    /// The database of Example 3.3:
    /// D = {R(a,b), S(a,c), Z(c,d), W(d,e), W(e,h), R(f,g)}.
    fn example_3_3() -> Database {
        let mut schema = Schema::new();
        for (name, arity) in [("R", 2), ("S", 2), ("Z", 2), ("W", 2)] {
            schema.declare(name, arity).unwrap();
        }
        let mut db = Database::new(schema);
        db.insert_named("R", &["a", "b"]).unwrap(); // atom#0
        db.insert_named("S", &["a", "c"]).unwrap(); // atom#1
        db.insert_named("Z", &["c", "d"]).unwrap(); // atom#2
        db.insert_named("W", &["d", "e"]).unwrap(); // atom#3
        db.insert_named("W", &["e", "h"]).unwrap(); // atom#4
        db.insert_named("R", &["f", "g"]).unwrap(); // atom#5
        db
    }

    fn sorted(v: &[AtomId]) -> Vec<AtomId> {
        let mut v = v.to_vec();
        v.sort();
        v
    }

    /// The hash-set BFS the bitset border replaced, kept as the reference:
    /// same loop order, same per-layer guard charge, `FxHashSet` dedup.
    struct Reference {
        layers: Vec<Vec<AtomId>>,
        frontier: Vec<Const>,
        all: FxHashSet<AtomId>,
    }

    impl Reference {
        fn compute(db: &Database, tuple: &[Const], radius: usize, interrupt: &Interrupt) -> Self {
            let mut seen: FxHashSet<Const> = FxHashSet::default();
            let mut all: FxHashSet<AtomId> = FxHashSet::default();
            let mut layer0 = Vec::new();
            for &c in tuple {
                if seen.insert(c) {
                    for &id in db.atoms_mentioning(c) {
                        if all.insert(id) {
                            layer0.push(id);
                        }
                    }
                }
            }
            let next = |layer: &[AtomId], seen: &mut FxHashSet<Const>| {
                let mut out = Vec::new();
                for &id in layer {
                    for &c in db.atom(id).args.iter() {
                        if seen.insert(c) {
                            out.push(c);
                        }
                    }
                }
                out
            };
            let mut frontier = next(&layer0, &mut seen);
            let mut go = charge_layer(interrupt, layer0.len());
            let mut layers = vec![layer0];
            while go && layers.len() <= radius {
                if interrupt
                    .guard()
                    .is_some_and(|g| g.is_exhausted(GuardKind::BorderAtoms))
                {
                    break;
                }
                let mut layer = Vec::new();
                for &c in &frontier {
                    for &id in db.atoms_mentioning(c) {
                        if all.insert(id) {
                            layer.push(id);
                        }
                    }
                }
                frontier = next(&layer, &mut seen);
                go = charge_layer(interrupt, layer.len());
                layers.push(layer);
            }
            Self {
                layers,
                frontier,
                all,
            }
        }
    }

    /// Byte-identical layers and frontier, and the same atom set.
    fn assert_matches_reference(ours: &Border, reference: &Reference) {
        assert_eq!(ours.layers, reference.layers, "layers in discovery order");
        assert_eq!(ours.frontier, reference.frontier, "frontier order");
        let mut want: Vec<AtomId> = reference.all.iter().copied().collect();
        want.sort();
        assert_eq!(ours.atoms().iter().collect::<Vec<_>>(), want);
        assert_eq!(ours.len(), reference.all.len());
    }

    /// The literal Definition 3.2 border: `W'_0` = atoms mentioning a
    /// tuple constant, `W'_{j+1} = reachable_from(W'_j)`, union of all.
    fn literal_border(db: &Database, tuple: &[Const], radius: usize) -> AtomSet {
        let ids = tuple
            .iter()
            .flat_map(|&c| db.atoms_mentioning(c).iter().copied());
        let mut w = AtomSet::from_ids(db.len(), ids);
        let mut union: Vec<AtomId> = w.iter().collect();
        for _ in 0..radius {
            w = reachable_from(db, &w);
            union.extend(w.iter());
        }
        AtomSet::from_ids(db.len(), union)
    }

    /// A random small database over a fixed binary schema.
    fn random_db(seed: u64, n_consts: usize, n_atoms: usize) -> Database {
        let mut schema = Schema::new();
        for name in ["R", "S", "T"] {
            schema.declare(name, 2).unwrap();
        }
        let mut db = Database::new(schema);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n_atoms {
            let rel = ["R", "S", "T"][rng.gen_range(0usize..3)];
            let a = format!("c{}", rng.gen_range(0..n_consts));
            let b = format!("c{}", rng.gen_range(0..n_consts));
            db.insert_named(rel, &[&a, &b]).unwrap();
        }
        db
    }

    #[test]
    fn example_3_3_layers_match_paper() {
        let db = example_3_3();
        let a = db.consts().get("a").unwrap();
        let b = Border::compute(&db, &[a], 2);
        // W0 = {R(a,b), S(a,c)}
        assert_eq!(sorted(b.layer(0).unwrap()), vec![AtomId(0), AtomId(1)]);
        // W1 = {Z(c,d)}
        assert_eq!(sorted(b.layer(1).unwrap()), vec![AtomId(2)]);
        // W2 = {W(d,e)}
        assert_eq!(sorted(b.layer(2).unwrap()), vec![AtomId(3)]);
        // B_{t,2} = union, iterated in ascending id order.
        let all: Vec<AtomId> = b.atoms().iter().collect();
        assert_eq!(all, vec![AtomId(0), AtomId(1), AtomId(2), AtomId(3)]);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn example_3_3_radius_3_reaches_w_e_h_but_never_r_f_g() {
        let db = example_3_3();
        let a = db.consts().get("a").unwrap();
        let b = Border::compute(&db, &[a], 3);
        assert_eq!(sorted(b.layer(3).unwrap()), vec![AtomId(4)]);
        // R(f,g) is in a different connected component: even a huge radius
        // never reaches it.
        let big = Border::compute(&db, &[a], 50);
        assert!(!big.atoms().contains(AtomId(5)));
        assert!(big.saturated());
        // Extra layers beyond saturation are empty.
        assert!(big.layer(10).unwrap().is_empty());
    }

    #[test]
    fn extend_is_incremental() {
        let db = example_3_3();
        let a = db.consts().get("a").unwrap();
        let mut b = Border::compute(&db, &[a], 0);
        assert_eq!(b.radius(), 0);
        assert_eq!(b.len(), 2);
        b.extend(&db, 2);
        assert_eq!(b.radius(), 2);
        let reference = Border::compute(&db, &[a], 2);
        assert_eq!(b.atoms(), reference.atoms());
        assert_eq!(
            sorted(b.layer(1).unwrap()),
            sorted(reference.layer(1).unwrap())
        );
    }

    #[test]
    fn atoms_up_to_is_prefix_union() {
        let db = example_3_3();
        let a = db.consts().get("a").unwrap();
        let b = Border::compute(&db, &[a], 2);
        assert_eq!(b.atoms_up_to(0).len(), 2);
        assert_eq!(b.atoms_up_to(1).len(), 3);
        assert_eq!(&b.atoms_up_to(2), b.atoms());
    }

    #[test]
    fn border_monotone_in_radius() {
        let db = example_3_3();
        let a = db.consts().get("a").unwrap();
        for r in 0..4 {
            let small = border(&db, &[a], r);
            let large = border(&db, &[a], r + 1);
            assert!(small.is_subset(&large), "B_r ⊆ B_(r+1) failed at r={r}");
        }
    }

    #[test]
    fn empty_tuple_and_unknown_constant_give_empty_border() {
        let mut db = example_3_3();
        assert!(Border::compute(&db, &[], 3).is_empty());
        let ghost = db.constant("ghost");
        let b = Border::compute(&db, &[ghost], 3);
        assert!(b.is_empty());
        assert!(b.saturated());
    }

    #[test]
    fn multi_constant_tuple_unions_neighbourhoods() {
        let db = example_3_3();
        let a = db.consts().get("a").unwrap();
        let f = db.consts().get("f").unwrap();
        let b = Border::compute(&db, &[a, f], 0);
        let got: Vec<AtomId> = b.atoms().iter().collect();
        assert_eq!(got, vec![AtomId(0), AtomId(1), AtomId(5)]);
    }

    #[test]
    fn duplicate_constants_in_tuple_are_harmless() {
        let db = example_3_3();
        let a = db.consts().get("a").unwrap();
        let single = Border::compute(&db, &[a], 2);
        let dup = Border::compute(&db, &[a, a], 2);
        assert_eq!(single.atoms(), dup.atoms());
    }

    #[test]
    fn reachable_from_matches_definition_3_1() {
        let db = example_3_3();
        // From {S(a,c)}: atoms sharing a constant with it are R(a,b) (via a),
        // itself, and Z(c,d) (via c).
        let from = AtomSet::from_ids(db.len(), [AtomId(1)]);
        let got: Vec<AtomId> = reachable_from(&db, &from).iter().collect();
        assert_eq!(got, vec![AtomId(0), AtomId(1), AtomId(2)]);
    }

    #[test]
    fn resource_guard_truncates_the_border() {
        let db = example_3_3();
        let a = db.consts().get("a").unwrap();
        // Layer 0 already holds 2 atoms, so a 2-atom guard trips before any
        // extension: the border truncates to radius 0 but stays valid.
        let guard = Arc::new(ResourceGuard::new(
            GuardLimits::unlimited().with_max_border_atoms(2),
        ));
        let interrupt = Interrupt::none().with_guard(Arc::clone(&guard));
        let b = Border::compute_interruptible(&db, &[a], 3, &interrupt);
        assert!(b.radius() < 3, "guarded border truncates");
        let reference = Border::compute(&db, &[a], b.radius());
        assert_eq!(
            b.atoms_up_to(b.radius()),
            reference.atoms_up_to(b.radius()),
            "truncated border is the exact border at its smaller radius"
        );
        // Once over the limit, even extend() stops immediately.
        let mut b2 = b;
        assert!(!b2.extend_interruptible(&db, 3, &interrupt));
        assert_eq!(guard.trip().unwrap().kind, GuardKind::BorderAtoms);
    }

    /// The union-of-layers border equals the "literal Definition 3.2"
    /// border computed by iterating `reachable_from` r times.
    #[test]
    fn frontier_semantics_union_equals_literal_definition() {
        let db = example_3_3();
        let a = db.consts().get("a").unwrap();
        for r in 0..5 {
            let ours = border(&db, &[a], r);
            assert_eq!(ours, literal_border(&db, &[a], r), "mismatch at radius {r}");
        }
    }

    /// A synthetic power-law-ish graph: `hubs` hub constants each incident
    /// to `spokes` atoms, spokes chained so the BFS has several non-trivial
    /// layers with large frontiers.
    fn hubbed_db(hubs: usize, spokes: usize) -> Database {
        let mut schema = Schema::new();
        schema.declare("E", 2).unwrap();
        let mut db = Database::new(schema);
        for h in 0..hubs {
            let hub = format!("hub{h}");
            for s in 0..spokes {
                let spoke = format!("n{h}_{s}");
                db.insert_named("E", &[&hub, &spoke]).unwrap();
                // Chain some spokes to the next hub for depth.
                if s % 7 == 0 {
                    let next = format!("hub{}", (h + 1) % hubs);
                    db.insert_named("E", &[&spoke, &next]).unwrap();
                }
            }
        }
        db
    }

    #[test]
    fn layers_match_reference_bfs_on_hub_graph() {
        let db = hubbed_db(8, 300);
        let interrupt = Interrupt::none();
        let mut scratch = BorderScratch::new();
        for radius in [0, 1, 2, 3] {
            for tuple_consts in [vec!["hub0"], vec!["hub0", "n3_5"], vec!["n7_0"]] {
                let tuple: Vec<Const> = tuple_consts
                    .iter()
                    .map(|c| db.consts().get(c).unwrap())
                    .collect();
                let reference = Reference::compute(&db, &tuple, radius, &interrupt);
                let fresh = Border::compute(&db, &tuple, radius);
                assert_matches_reference(&fresh, &reference);
                // One scratch reused across every tuple and radius.
                let reused = Border::compute_in(&db, &tuple, radius, &interrupt, &mut scratch);
                assert_matches_reference(&reused, &reference);
            }
        }
    }

    #[test]
    fn extend_matches_reference_bfs_on_hub_graph() {
        let db = hubbed_db(6, 200);
        let hub = db.consts().get("hub0").unwrap();
        let mut grown = Border::compute(&db, &[hub], 0);
        grown.extend(&db, 3);
        let reference = Reference::compute(&db, &[hub], 3, &Interrupt::none());
        assert_matches_reference(&grown, &reference);
    }

    #[test]
    fn radius_0_border_on_a_large_database_stays_a_sorted_slice() {
        let mut schema = Schema::new();
        schema.declare("E", 2).unwrap();
        let mut db = Database::new(schema);
        for i in 0..20_000 {
            db.insert_named("E", &[&format!("n{i}"), &format!("n{}", i + 1)])
                .unwrap();
        }
        let n = db.consts().get("n10000").unwrap();
        let b = Border::compute(&db, &[n], 0);
        assert_eq!(b.len(), 2);
        assert!(!b.atoms().is_dense(), "2 of 20000 atoms stay sparse");
        assert_eq!(b.atoms().stored_bytes(), 2 * std::mem::size_of::<AtomId>());
        // The whole chain is dense.
        assert!(Border::compute(&db, &[n], 20_000).atoms().is_dense());
    }

    proptest! {
        /// On random databases the bitset BFS reproduces the hash-set
        /// reference byte for byte (layers, frontier, atom set) and the
        /// literal Definition 3.2 border, with and without a border-atom
        /// guard; a guarded border truncates at the same radius with the
        /// same charged counts.
        #[test]
        fn bitset_bfs_matches_reference_and_definition_3_2(
            seed in 0u64..10_000,
            n_consts in 2usize..30,
            n_atoms in 0usize..120,
            radius in 0usize..5,
            cap in 1usize..60,
        ) {
            let db = random_db(seed, n_consts, n_atoms);
            let Some(t) = db.consts().get("c0") else {
                return Ok(());
            };
            let tuple = [t];
            let ours = Border::compute(&db, &tuple, radius);
            assert_matches_reference(&ours, &Reference::compute(&db, &tuple, radius, &Interrupt::none()));
            prop_assert_eq!(ours.atoms(), &literal_border(&db, &tuple, radius));

            let guarded = |reference: bool| {
                let guard = Arc::new(ResourceGuard::new(
                    GuardLimits::unlimited().with_max_border_atoms(cap),
                ));
                let interrupt = Interrupt::none().with_guard(Arc::clone(&guard));
                let b = if reference {
                    let r = Reference::compute(&db, &tuple, radius, &interrupt);
                    (r.layers.len(), r.frontier, r.layers)
                } else {
                    let b = Border::compute_interruptible(&db, &tuple, radius, &interrupt);
                    (b.num_layers(), b.frontier.clone(), b.layers.clone())
                };
                (b, guard.count(GuardKind::BorderAtoms), guard.peak_alloc_bytes(), guard.is_tripped())
            };
            prop_assert_eq!(guarded(false), guarded(true));
            let guard = Arc::new(ResourceGuard::new(
                GuardLimits::unlimited().with_max_border_atoms(cap),
            ));
            let interrupt = Interrupt::none().with_guard(guard);
            let truncated = Border::compute_interruptible(&db, &tuple, radius, &interrupt);
            prop_assert_eq!(
                truncated.atoms(),
                &literal_border(&db, &tuple, truncated.radius()),
                "a truncated border is the exact border at its radius"
            );
        }
    }
}

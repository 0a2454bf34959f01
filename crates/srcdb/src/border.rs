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
//! Every border is built by [`borders`], many tuples per call;
//! [`border`] and [`border_layers`] are its single-tuple forms. Each BFS
//! step walks the bipartite constant–atom incidence graph through
//! [`Database::atoms_mentioning`], so a border costs `O(Σ |incident
//! atoms|)` — near-linear in the size of the reached sub-database
//! (experiment E8).

use crate::atom::AtomId;
use crate::atomset::{dense_for, Accumulator, AtomSet, Bitmap};
use crate::consts::Const;
use crate::database::Database;
use obx_util::obs::Span;
use obx_util::{FxHashMap, GuardKind, Interrupt};
use std::sync::LazyLock;

/// Process-wide count of materialised border atoms (per-run counts live on
/// the `border` span).
static BORDER_ATOMS: LazyLock<&'static obx_util::obs::Counter> =
    LazyLock::new(|| obx_util::obs::counter("obx.border.atoms"));

/// Collects the next frontier — constants first seen in `layer`'s atoms —
/// in discovery order, marking them seen.
fn collect_frontier(
    db: &Database,
    layer: impl IntoIterator<Item = AtomId>,
    seen: &mut Bitmap,
    seen_list: &mut Vec<Const>,
) -> Vec<Const> {
    let mut next_frontier = Vec::new();
    for id in layer {
        for &c in db.atom(id).args.iter() {
            if seen.insert(c.0.index()) {
                next_frontier.push(c);
            }
        }
    }
    seen_list.extend_from_slice(&next_frontier);
    next_frontier
}

/// One BFS step: unions the posting lists of `frontier` into `acc`, and
/// returns the atoms that were new, in discovery order, with the frontier
/// they leave (none after the `last` layer).
fn expand(
    db: &Database,
    frontier: &[Const],
    acc: &mut Accumulator,
    seen: &mut Bitmap,
    seen_list: &mut Vec<Const>,
    last: bool,
) -> (Vec<AtomId>, Vec<Const>) {
    let mut layer = Vec::new();
    for &c in frontier {
        for &id in db.atoms_mentioning(c) {
            if acc.insert(id) {
                layer.push(id);
            }
        }
    }
    let next = if last {
        Vec::new()
    } else {
        collect_frontier(db, layer.iter().copied(), seen, seen_list)
    };
    (layer, next)
}

/// Charges one completed BFS layer (`atoms` new border atoms) to the
/// interrupt's resource guard, if any. Returns `false` when the guard has
/// tripped — callers stop extending the border, which stays valid at its
/// current (smaller) radius.
fn charge_layer(interrupt: &Interrupt, atoms: usize) -> bool {
    match interrupt.guard() {
        Some(g) => g.charge(
            GuardKind::BorderAtoms,
            atoms,
            atoms * std::mem::size_of::<AtomId>(),
        ),
        None => true,
    }
}

/// Whether a layer may be built: the interrupt has not fired and no
/// border-atom budget was exhausted earlier in the run (a layer whose
/// charge is guaranteed to fail is not worth materialising).
fn may_grow(interrupt: &Interrupt) -> bool {
    !interrupt.is_triggered()
        && !interrupt
            .guard()
            .is_some_and(|g| g.is_exhausted(GuardKind::BorderAtoms))
}

/// Records one completed layer of `atoms` new border atoms on `sp` and on
/// the process-wide counter.
fn record_layer(sp: &mut Span<'_>, atoms: usize) {
    sp.count("atoms", atoms as u64);
    sp.count("layers", 1);
    BORDER_ATOMS.add(atoms as u64);
}

/// The atoms of `B_{t,r}(D)`: [`borders`] for one tuple, with no
/// interrupt.
pub fn border(db: &Database, tuple: &[Const], radius: usize) -> AtomSet {
    borders(db, [tuple], radius, &Interrupt::none())
        .pop()
        .map_or_else(|| AtomSet::empty(db.len()), |b| b.atoms)
}

/// The layers `W_{t,0} ..= W_{t,radius}` of one tuple's border, each
/// `B_{t,j} \ B_{t,j−1}` from one [`border`] per radius `j`. Layers past
/// the tuple's connected component are empty. For printing layers (`obx
/// border`, experiment E1); search only reads whole borders.
pub fn border_layers(db: &Database, tuple: &[Const], radius: usize) -> Vec<AtomSet> {
    let mut inner = AtomSet::empty(db.len());
    (0..=radius)
        .map(|j| {
            let outer = border(db, tuple, j);
            let layer = AtomSet::from_ids(db.len(), outer.iter().filter(|&id| !inner.contains(id)));
            inner = outer;
            layer
        })
        .collect()
}

/// One tuple's border from [`borders`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleBorder {
    /// The atoms of `B_{t,r}(D)`.
    pub atoms: AtomSet,
    /// `|W_{t,j}(D)|` for each layer built: `r + 1` entries, fewer when an
    /// interrupt or the border-atom guard truncated the border.
    pub layer_lens: Vec<usize>,
}

/// The memo of one [`borders`] call: per-constant balls, built on first
/// use and dropped with the call.
///
/// Write `ball(c, m)` for the border of the single constant `c` at radius
/// `m`. `ball(c, 0)` is `c`'s posting list, held as a dense set when it is
/// dense-sized; deeper balls are held as their rings `ball(c, m) \
/// ball(c, m − 1)`, each a hybrid [`AtomSet`].
///
/// The memo's work is bounded by the plain search's. It keeps a credit of
/// work units — one per atom a ball search reaches, one per id or word a
/// ring union touches — equal to the border atoms of the tuples finished
/// so far, less what it has spent. A plain BFS inserts every atom of each
/// border it builds, so ring unions and ball searches together never cost
/// more than the plain search of the same tuples, and the rings held
/// never take more than `4·Σ|B_t|` bytes. The unions of one layer cost at
/// most one unit per database atom, and a ball search polls the interrupt
/// before each of its layers, so the work between two polls stays within
/// what one plain BFS layer may do. A layer the memo cannot serve within
/// these bounds is built by the plain BFS step instead.
struct Balls {
    /// `ball(c, 0)` for the constants whose posting list is dense-sized.
    dense_postings: FxHashMap<Const, AtomSet>,
    /// `rings[c][m - 1] = ball(c, m) \ ball(c, m − 1)` for `m` up to
    /// `max_level`; trailing empty rings are left out.
    rings: FxHashMap<Const, Vec<AtomSet>>,
    /// The deepest ball a tuple border of the call reads: radius − 1.
    max_level: usize,
    credit: usize,
    /// The atoms and constants a ball search has reached, as dense
    /// words. Each search resets exactly what it set, so it costs
    /// `O(ball)` rather than `O(database)`.
    atoms: Accumulator,
    consts: Bitmap,
    /// Where a ring is frozen from its ids.
    ring_acc: Accumulator,
}

/// The work of unioning `set` into an accumulator: one unit per word of a
/// dense set, per id of a sorted one.
fn union_cost(set: &AtomSet) -> usize {
    if dense_for(set.len(), set.universe()) {
        set.universe().div_ceil(64)
    } else {
        set.len()
    }
}

impl Balls {
    fn new(db: &Database, radius: usize) -> Self {
        Self {
            dense_postings: FxHashMap::default(),
            rings: FxHashMap::default(),
            max_level: radius.saturating_sub(1),
            credit: 0,
            atoms: Accumulator::new(db.len()),
            consts: Bitmap::with_capacity(db.consts().len()),
            ring_acc: Accumulator::new(db.len()),
        }
    }

    /// Unions `ball(c, 0)`, the posting list of `c`, into `acc`; returns
    /// how many ids it added.
    fn union_posting(&mut self, db: &Database, c: Const, acc: &mut Accumulator) -> usize {
        let posting = db.atoms_mentioning(c);
        if !dense_for(posting.len(), db.len()) {
            return acc.insert_ids(posting);
        }
        let set = self
            .dense_postings
            .entry(c)
            .or_insert_with(|| AtomSet::from_ids(db.len(), posting.iter().copied()));
        acc.union(set)
    }

    /// The ring `ball(c, m) \ ball(c, m − 1)`, `m ≥ 1`, if `c`'s balls are
    /// memoized (`Some(None)` for an empty ring).
    fn ring(&self, c: Const, m: usize) -> Option<Option<&AtomSet>> {
        self.rings.get(&c).map(|rings| rings.get(m - 1))
    }

    /// Makes ring `m` of every constant of `near` available and pays for
    /// unioning them, if that fits the credit and one database pass. A
    /// constant whose balls are not held yet is searched only when the
    /// credit covers a whole database for each one missing, since its ball
    /// is not known in advance. Returns `false` if the bounds fall short or
    /// a search was cut by `interrupt`; balls already built stay memoized
    /// either way.
    fn ready(&mut self, db: &Database, near: &[Const], m: usize, interrupt: &Interrupt) -> bool {
        let (mut cost, mut missing) = (0usize, 0usize);
        for &c in near {
            match self.ring(c, m) {
                Some(ring) => cost += ring.map_or(0, union_cost),
                None => missing += 1,
            }
        }
        if cost > db.len() || cost.saturating_add(missing.saturating_mul(db.len())) > self.credit {
            return false;
        }
        for &c in near {
            if self.rings.contains_key(&c) {
                continue;
            }
            if !self.search(db, c, interrupt) {
                return false;
            }
            cost += self.ring(c, m).flatten().map_or(0, union_cost);
            if cost > db.len().min(self.credit) {
                return false;
            }
        }
        self.credit -= cost;
        true
    }

    /// The single-source BFS from `c` to radius `max_level`, polling
    /// `interrupt` before each layer; memoizes its rings unless it was
    /// cut. Pays one unit per atom reached.
    fn search(&mut self, db: &Database, c: Const, interrupt: &Interrupt) -> bool {
        let mut seen = vec![c];
        self.consts.insert(c.0.index());
        let posting = db.atoms_mentioning(c);
        self.atoms.insert_ids(posting);
        let mut frontier =
            collect_frontier(db, posting.iter().copied(), &mut self.consts, &mut seen);
        let mut rings = Vec::new();
        let mut cut = false;
        for m in 1..=self.max_level {
            if frontier.is_empty() {
                break;
            }
            if interrupt.is_triggered() {
                cut = true;
                break;
            }
            let last = m == self.max_level;
            let (ring, next) = expand(
                db,
                &frontier,
                &mut self.atoms,
                &mut self.consts,
                &mut seen,
                last,
            );
            frontier = next;
            self.ring_acc.insert_ids(&ring);
            rings.push(self.ring_acc.to_set());
            self.ring_acc.clear();
        }
        self.credit = self.credit.saturating_sub(self.atoms.len());
        self.atoms.clear();
        for d in seen {
            self.consts.remove(d.0.index());
        }
        if !cut {
            self.rings.insert(c, rings);
        }
        !cut
    }
}

/// The borders `B_{t,radius}(D)` of many tuples, in input order: the same
/// sets, layer sizes, guard charges and interrupt polls as a plain BFS per
/// tuple, with the balls of constants that many tuples reach shared
/// between them.
///
/// Write `N(t)` for the atoms mentioning a constant of `t` (layer 0) and
/// `ball(c, j)` for the border of the single constant `c` at radius `j`.
/// A constant of `N(t)` that is not in `t` is one step from `t`, and every
/// atom within `j` steps of `t` outside `N(t)` is within `j − 1` steps of
/// such a constant, so for `j ≥ 1`
///
/// `B_{t,j} = N(t) ∪ ⋃_{c ∈ consts(N(t)) \ t} ball(c, j−1)`.
///
/// Layer 1 unions those constants' posting lists, as the plain BFS does.
/// Layer `j ≥ 2` unions their rings `ball(c, j−1) \ ball(c, j−2)` from the
/// [`Balls`] memo, whose credit bounds its work by the plain search's;
/// when the credit falls short the layer, and every later one of that
/// tuple, is the plain BFS step. Either way the ids a layer adds are
/// exactly `W_{t,j}`: the guard is charged per tuple per layer, after the
/// layer is built, and the interrupt is polled before each layer `j ≥ 1`
/// (and before each layer of a ball search). With one tuple the credit
/// starts at 0, so no ball is searched and layers past 1 take the plain
/// step. Tuples around the same hubs reuse the hubs' balls instead of
/// re-walking them; a tuple that names a hub reaches many constants,
/// whose balls overlap, and takes the plain step. One `border` span
/// covers the call; its `atoms` counter is `Σ_t |B_t|`, and `tuples`,
/// `near` (`Σ_t |consts(N(t)) \ t|`), `memo_layers` and `plain_layers`
/// show how much of the call the memo served.
pub fn borders<'t>(
    db: &Database,
    tuples: impl IntoIterator<Item = &'t [Const]>,
    radius: usize,
    interrupt: &Interrupt,
) -> Vec<TupleBorder> {
    borders_in(db, tuples, radius, interrupt, &mut Balls::new(db, radius))
}

/// [`borders`] with a caller-owned memo.
fn borders_in<'t>(
    db: &Database,
    tuples: impl IntoIterator<Item = &'t [Const]>,
    radius: usize,
    interrupt: &Interrupt,
    balls: &mut Balls,
) -> Vec<TupleBorder> {
    let mut sp = obx_util::span!(interrupt.recorder(), "border");
    let mut acc = Accumulator::new(db.len());
    // Constants marked while one tuple is built — those of `t`, then of
    // `consts(N(t)) \ t`, then any the plain step expands — and cleared
    // from `marked` after it.
    let mut seen = Bitmap::with_capacity(db.consts().len());
    let mut marked: Vec<Const> = Vec::new();
    let mut near: Vec<Const> = Vec::new();
    tuples
        .into_iter()
        .map(|tuple| {
            sp.count("tuples", 1);
            for &c in tuple {
                if seen.insert(c.0.index()) {
                    marked.push(c);
                    balls.union_posting(db, c, &mut acc);
                }
            }
            let mut layer_lens = vec![acc.len()];
            record_layer(&mut sp, acc.len());
            if charge_layer(interrupt, acc.len()) && radius > 0 {
                for &c in &marked {
                    for &id in db.atoms_mentioning(c) {
                        for &d in db.atom(id).args.iter() {
                            if seen.insert(d.0.index()) {
                                near.push(d);
                            }
                        }
                    }
                }
                marked.extend_from_slice(&near);
                sp.count("near", near.len() as u64);
                // Once a layer takes the plain step, so do the rest; the
                // frontier it leaves is the next one's.
                let mut plain = false;
                let mut frontier: Option<Vec<Const>> = None;
                for j in 1..=radius {
                    if !may_grow(interrupt) {
                        break;
                    }
                    let added = if j == 1 {
                        near.iter()
                            .map(|&c| balls.union_posting(db, c, &mut acc))
                            .sum()
                    } else if !plain && balls.ready(db, &near, j - 1, interrupt) {
                        sp.count("memo_layers", 1);
                        near.iter()
                            .filter_map(|&c| balls.ring(c, j - 1).flatten())
                            .map(|ring| acc.union(ring))
                            .sum()
                    } else {
                        plain = true;
                        sp.count("plain_layers", 1);
                        // The first plain step after memo layers expands
                        // every constant of `B_{t,j−1}` not marked yet.
                        let from = match frontier.take() {
                            Some(f) => f,
                            None => collect_frontier(db, acc.ids(), &mut seen, &mut marked),
                        };
                        let last = j == radius;
                        let (layer, next) =
                            expand(db, &from, &mut acc, &mut seen, &mut marked, last);
                        frontier = Some(next);
                        layer.len()
                    };
                    layer_lens.push(added);
                    record_layer(&mut sp, added);
                    if !charge_layer(interrupt, added) {
                        break;
                    }
                }
            }
            for c in marked.drain(..) {
                seen.remove(c.0.index());
            }
            near.clear();
            balls.credit = balls.credit.saturating_add(acc.len());
            let atoms = acc.to_set();
            acc.clear();
            TupleBorder { atoms, layer_lens }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use obx_util::{FxHashSet, GuardKind, GuardLimits, GuardTrip, Interrupt, ResourceGuard};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicBool, Ordering};
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

    fn ids(set: &AtomSet) -> Vec<AtomId> {
        set.iter().collect()
    }

    /// [`borders`] for one tuple.
    fn single(db: &Database, tuple: &[Const], radius: usize, interrupt: &Interrupt) -> TupleBorder {
        borders(db, [tuple], radius, interrupt).pop().unwrap()
    }

    /// A plain hash-set BFS, kept as the reference every border is checked
    /// against: layer 0, then one layer per frontier, polling the
    /// interrupt before each layer `j ≥ 1` and charging the guard per
    /// completed layer.
    struct Reference {
        layers: Vec<Vec<AtomId>>,
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
                if interrupt.is_triggered()
                    || interrupt
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
            Self { layers, all }
        }

        /// The reference as a [`TupleBorder`] over `db`'s atoms.
        fn border(&self, db: &Database) -> TupleBorder {
            TupleBorder {
                atoms: AtomSet::from_ids(db.len(), self.all.iter().copied()),
                layer_lens: self.layers.iter().map(Vec::len).collect(),
            }
        }
    }

    /// Definition 3.1: all atoms of `db` sharing a constant with some atom
    /// in `from` (including the atoms of `from` themselves, which
    /// trivially share their own constants).
    fn reachable_from(db: &Database, from: &AtomSet) -> AtomSet {
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
        let layers = border_layers(&db, &[a], 2);
        assert_eq!(layers.len(), 3);
        // W0 = {R(a,b), S(a,c)}
        assert_eq!(ids(&layers[0]), vec![AtomId(0), AtomId(1)]);
        // W1 = {Z(c,d)}
        assert_eq!(ids(&layers[1]), vec![AtomId(2)]);
        // W2 = {W(d,e)}
        assert_eq!(ids(&layers[2]), vec![AtomId(3)]);
        // B_{t,2} = union, iterated in ascending id order.
        let b = single(&db, &[a], 2, &Interrupt::none());
        assert_eq!(
            ids(&b.atoms),
            vec![AtomId(0), AtomId(1), AtomId(2), AtomId(3)]
        );
        assert_eq!(b.layer_lens, vec![2, 1, 1]);
    }

    #[test]
    fn example_3_3_radius_3_reaches_w_e_h_but_never_r_f_g() {
        let db = example_3_3();
        let a = db.consts().get("a").unwrap();
        assert_eq!(ids(&border_layers(&db, &[a], 3)[3]), vec![AtomId(4)]);
        // R(f,g) is in a different connected component: even a huge radius
        // never reaches it, and layers past the component are empty.
        let big = single(&db, &[a], 50, &Interrupt::none());
        assert!(!big.atoms.contains(AtomId(5)));
        assert_eq!(big.atoms, border(&db, &[a], 4), "saturated at radius 4");
        assert_eq!(big.layer_lens.len(), 51);
        assert!(big.layer_lens[5..].iter().all(|&n| n == 0));
        assert!(border_layers(&db, &[a], 10)[10].is_empty());
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
        assert!(border(&db, &[], 3).is_empty());
        let ghost = db.constant("ghost");
        let b = single(&db, &[ghost], 3, &Interrupt::none());
        assert!(b.atoms.is_empty());
        assert_eq!(b.layer_lens, vec![0; 4]);
    }

    #[test]
    fn multi_constant_tuple_unions_neighbourhoods() {
        let db = example_3_3();
        let a = db.consts().get("a").unwrap();
        let f = db.consts().get("f").unwrap();
        let got = ids(&border(&db, &[a, f], 0));
        assert_eq!(got, vec![AtomId(0), AtomId(1), AtomId(5)]);
    }

    #[test]
    fn duplicate_constants_in_tuple_are_harmless() {
        let db = example_3_3();
        let a = db.consts().get("a").unwrap();
        assert_eq!(
            single(&db, &[a], 2, &Interrupt::none()),
            single(&db, &[a, a], 2, &Interrupt::none())
        );
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
        let b = single(&db, &[a], 3, &interrupt);
        let radius = b.layer_lens.len() - 1;
        assert!(radius < 3, "guarded border truncates");
        assert_eq!(
            b.atoms,
            border(&db, &[a], radius),
            "truncated border is the exact border at its smaller radius"
        );
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
        for radius in [0, 1, 2, 3] {
            for tuple_consts in [vec!["hub0"], vec!["hub0", "n3_5"], vec!["n7_0"]] {
                let tuple: Vec<Const> = tuple_consts
                    .iter()
                    .map(|c| db.consts().get(c).unwrap())
                    .collect();
                let reference = Reference::compute(&db, &tuple, radius, &interrupt);
                assert_eq!(
                    single(&db, &tuple, radius, &interrupt),
                    reference.border(&db)
                );
                let layers = border_layers(&db, &tuple, radius);
                for (layer, want) in layers.iter().zip(&reference.layers) {
                    assert_eq!(*layer, AtomSet::from_ids(db.len(), want.iter().copied()));
                }
            }
        }
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
        let b = border(&db, &[n], 0);
        assert_eq!(b.len(), 2);
        assert!(!b.is_dense(), "2 of 20000 atoms stay sparse");
        assert_eq!(b.stored_bytes(), 2 * std::mem::size_of::<AtomId>());
        // The whole chain is dense.
        assert!(border(&db, &[n], 20_000).is_dense());
    }

    /// A fresh guard capped at `cap` border atoms (uncapped, but still
    /// charged, for `None`) and an interrupt carrying it.
    fn guarded(cap: Option<usize>) -> (Arc<ResourceGuard>, Interrupt) {
        let limits = match cap {
            Some(cap) => GuardLimits::unlimited().with_max_border_atoms(cap),
            None => GuardLimits::unlimited(),
        };
        let guard = Arc::new(ResourceGuard::new(limits));
        (Arc::clone(&guard), Interrupt::none().with_guard(guard))
    }

    /// What a run left on its guard: the border-atom count, the byte peak
    /// and the first trip.
    fn guard_state(g: &ResourceGuard) -> (usize, usize, Option<GuardTrip>) {
        (
            g.count(GuardKind::BorderAtoms),
            g.peak_alloc_bytes(),
            g.trip(),
        )
    }

    /// One reference BFS per tuple, in order, on one interrupt; the
    /// interrupt `flag` (if any) is raised just before tuple `fire_at`.
    fn single_borders(
        db: &Database,
        tuples: &[Vec<Const>],
        radius: usize,
        interrupt: &Interrupt,
        fire_at: Option<(usize, &AtomicBool)>,
    ) -> Vec<TupleBorder> {
        let mut out = Vec::new();
        for (i, t) in tuples.iter().enumerate() {
            if let Some((k, flag)) = fire_at {
                flag.store(i >= k, Ordering::Relaxed);
            }
            out.push(Reference::compute(db, t, radius, interrupt).border(db));
        }
        out
    }

    /// [`borders`] with its memo starting at `credit` instead of 0.
    fn borders_from(
        db: &Database,
        tuples: &[Vec<Const>],
        radius: usize,
        interrupt: &Interrupt,
        credit: usize,
    ) -> (Vec<TupleBorder>, Balls) {
        let mut balls = Balls::new(db, radius);
        balls.credit = credit;
        let got = borders_in(
            db,
            tuples.iter().map(Vec::as_slice),
            radius,
            interrupt,
            &mut balls,
        );
        (got, balls)
    }

    /// Starting credits that make the memo take the plain step from the
    /// first tuple on (0, as [`borders`] starts), switch to it part-way,
    /// or never (unbounded).
    const CREDITS: [usize; 4] = [0, 60, 900, usize::MAX / 2];

    /// [`borders`] against [`single_borders`]: the same set and layer
    /// sizes for every tuple, and — under a border-atom guard — the same
    /// count, byte peak and trip, from every starting credit.
    fn assert_batch_matches_single(
        db: &Database,
        tuples: &[Vec<Const>],
        radius: usize,
        cap: Option<usize>,
    ) {
        let want = single_borders(db, tuples, radius, &Interrupt::none(), None);
        assert_eq!(
            borders(
                db,
                tuples.iter().map(Vec::as_slice),
                radius,
                &Interrupt::none()
            ),
            want,
            "radius {radius}, no guard"
        );
        let (single_guard, single_int) = guarded(cap);
        let want = single_borders(db, tuples, radius, &single_int, None);
        for credit in CREDITS {
            let (batch_guard, batch_int) = guarded(cap);
            let (got, _) = borders_from(db, tuples, radius, &batch_int, credit);
            assert_eq!(got, want, "radius {radius}, cap {cap:?}, credit {credit}");
            assert_eq!(
                guard_state(&batch_guard),
                guard_state(&single_guard),
                "guard state at radius {radius}, cap {cap:?}, credit {credit}"
            );
        }
    }

    /// Tuples of 1–3 constants drawn from the whole constant pool, so
    /// repeated constants and tuples sharing neighbourhoods both occur.
    fn random_tuples(db: &Database, seed: u64, n: usize) -> Vec<Vec<Const>> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let pool = db.consts().len();
        if pool == 0 {
            return Vec::new();
        }
        (0..n)
            .map(|_| {
                (0..rng.gen_range(1usize..4))
                    .map(|_| Const(obx_util::Symbol(rng.gen_range(0..pool) as u32)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn batched_borders_match_single_tuple_bfs_on_hub_graph() {
        let db = hubbed_db(6, 120);
        let named = |names: &[&str]| -> Vec<Const> {
            names.iter().map(|c| db.consts().get(c).unwrap()).collect()
        };
        // Spokes of one hub share its ball; a hub tuple, a repeated
        // constant, a two-hub tuple and a cross-hub chain spoke.
        let mut tuples: Vec<Vec<Const>> = (0..20).map(|s| named(&[&format!("n0_{s}")])).collect();
        tuples.push(named(&["hub0"]));
        tuples.push(named(&["n1_3", "n1_3"]));
        tuples.push(named(&["hub2", "hub4", "n2_9"]));
        tuples.push(named(&["n5_7"]));
        tuples.extend(random_tuples(&db, 7, 30));
        for radius in 0..=4 {
            for cap in [None, Some(1), Some(400), Some(5_000), Some(40_000)] {
                assert_batch_matches_single(&db, &tuples, radius, cap);
            }
        }
    }

    #[test]
    fn batched_borders_truncate_where_the_interrupt_fires() {
        let db = hubbed_db(5, 80);
        let tuples = random_tuples(&db, 3, 24);
        for radius in 0..=3 {
            for fire_at in [0, 1, 10, 23, 24] {
                let flag = Arc::new(AtomicBool::new(false));
                let interrupt = Interrupt::none().with_flag(Arc::clone(&flag));
                let want = single_borders(&db, &tuples, radius, &interrupt, Some((fire_at, &flag)));
                flag.store(false, Ordering::Relaxed);
                // The flag goes up as tuple `fire_at` is handed to the call.
                let feed = tuples.iter().enumerate().map(|(i, t)| {
                    if i == fire_at {
                        flag.store(true, Ordering::Relaxed);
                    }
                    t.as_slice()
                });
                let got = borders(&db, feed, radius, &interrupt);
                assert_eq!(got, want, "radius {radius}, interrupt at tuple {fire_at}");
                for b in &got[fire_at.min(got.len())..] {
                    assert_eq!(b.layer_lens.len(), 1, "fired: layer 0 only");
                }
            }
        }
    }

    /// Tuples around shared hubs build each hub's balls once and union
    /// them from then on, so the memo's work stays far below the plain
    /// search's.
    #[test]
    fn spokes_of_one_hub_share_its_balls() {
        let db = hubbed_db(4, 600);
        let tuples: Vec<Vec<Const>> = (0..300)
            .map(|s| vec![db.consts().get(&format!("n0_{s}")).unwrap()])
            .collect();
        let (got, balls) = borders_from(&db, &tuples, 2, &Interrupt::none(), 0);
        assert_eq!(
            got,
            single_borders(&db, &tuples, 2, &Interrupt::none(), None)
        );
        let total: usize = got.iter().map(|b| b.atoms.len()).sum();
        let spent = total - balls.credit;
        assert!(balls.rings.len() <= 4, "{} balls", balls.rings.len());
        assert!(spent * 10 < total, "memo spent {spent} of {total}");
    }

    /// A tuple that names a hub reaches every spoke: their balls each
    /// cover the hub's posting list, so unioning them would cost the
    /// square of the hub's degree. The credit sends those tuples to the
    /// plain step: the memo holds no spoke balls and its work, and the
    /// bytes it holds, stay within the border atoms built.
    #[test]
    fn hub_tuples_fall_back_to_the_plain_step() {
        let db = hubbed_db(3, 3_000);
        let named = |names: &[&str]| -> Vec<Const> {
            names.iter().map(|c| db.consts().get(c).unwrap()).collect()
        };
        // Spokes first, so the memo has credit when the hub tuples come.
        let mut tuples: Vec<Vec<Const>> = (0..50).map(|s| named(&[&format!("n0_{s}")])).collect();
        tuples.push(named(&["hub0"]));
        tuples.push(named(&["n0_1", "hub0"]));
        tuples.push(named(&["n1_2", "hub1"]));
        for radius in [2, 3] {
            let want = single_borders(&db, &tuples, radius, &Interrupt::none(), None);
            let (got, balls) = borders_from(&db, &tuples, radius, &Interrupt::none(), 0);
            assert_eq!(got, want);
            let total: usize = got.iter().map(|b| b.atoms.len()).sum();
            assert!(
                balls.rings.len() <= 3,
                "radius {radius}: {} balls memoized",
                balls.rings.len()
            );
            let held: usize = balls
                .rings
                .values()
                .flatten()
                .map(AtomSet::stored_bytes)
                .sum();
            assert!(held <= 4 * total, "radius {radius}: {held} bytes held");
            assert!(
                balls.credit <= total,
                "radius {radius}: credit never exceeds Σ|B_t|"
            );
            // Even on unbounded credit, a layer's unions stop at one
            // database pass: each hub tuple searches a few dozen of its
            // hub's 3,000 spokes before taking the plain step.
            let (got, balls) = borders_from(&db, &tuples, radius, &Interrupt::none(), usize::MAX);
            assert_eq!(got, want);
            assert!(
                balls.rings.len() < 200,
                "radius {radius}: {} balls memoized on unbounded credit",
                balls.rings.len()
            );
        }
    }

    /// A ball search polls the caller's interrupt: one cut part-way
    /// memoizes nothing, and the layer it was for takes the plain step.
    #[test]
    fn an_interrupted_ball_search_memoizes_nothing() {
        let db = hubbed_db(4, 200);
        let hub = db.consts().get("hub0").unwrap();
        let flag = Arc::new(AtomicBool::new(true));
        let interrupt = Interrupt::none().with_flag(flag);
        let mut balls = Balls::new(&db, 3);
        assert!(!balls.search(&db, hub, &interrupt));
        assert!(balls.rings.is_empty());
        balls.credit = usize::MAX / 2;
        assert!(!balls.ready(&db, &[hub], 1, &interrupt));
        assert!(balls.ready(&db, &[hub], 1, &Interrupt::none()));
        assert_eq!(balls.rings[&hub].len(), 2, "searched once, to radius 2");
    }

    proptest! {
        /// On random databases a single-tuple [`borders`] call reproduces
        /// the hash-set reference (atom set and layer sizes) and the
        /// literal Definition 3.2 border, with and without a border-atom
        /// guard; a guarded border truncates at the same radius with the
        /// same charged counts, and is the exact border at that radius.
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
            let none = Interrupt::none();
            let ours = single(&db, &tuple, radius, &none);
            prop_assert_eq!(&ours, &Reference::compute(&db, &tuple, radius, &none).border(&db));
            prop_assert_eq!(&ours.atoms, &literal_border(&db, &tuple, radius));

            let run = |reference: bool| {
                let (guard, interrupt) = guarded(Some(cap));
                let b = if reference {
                    Reference::compute(&db, &tuple, radius, &interrupt).border(&db)
                } else {
                    single(&db, &tuple, radius, &interrupt)
                };
                (b, guard_state(&guard))
            };
            let (truncated, state) = run(false);
            prop_assert_eq!(run(true), (truncated.clone(), state));
            prop_assert_eq!(
                &truncated.atoms,
                &literal_border(&db, &tuple, truncated.layer_lens.len() - 1),
                "a truncated border is the exact border at its radius"
            );
        }

        /// The batched call reproduces the reference BFS per tuple on
        /// random databases: every tuple's set and layer sizes, and under
        /// a border-atom cap the guard's count, byte peak and trip.
        #[test]
        fn batched_borders_match_single_tuple_bfs(
            seed in 0u64..10_000,
            n_consts in 2usize..30,
            n_atoms in 0usize..120,
            n_tuples in 1usize..12,
            radius in 0usize..5,
            cap in 1usize..200,
        ) {
            let db = random_db(seed, n_consts, n_atoms);
            let tuples = random_tuples(&db, seed, n_tuples);
            assert_batch_matches_single(&db, &tuples, radius, None);
            assert_batch_matches_single(&db, &tuples, radius, Some(cap));
        }
    }
}

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
use crate::atomset::{dense_for, Accumulator, AtomSet, Bitmap};
use crate::consts::Const;
use crate::database::Database;
use crate::view::View;
use obx_util::obs::Span;
use obx_util::{FxHashMap, GuardKind, Interrupt};
use std::sync::LazyLock;

/// Process-wide count of materialised border atoms (per-run counts live on
/// the `border` span).
static BORDER_ATOMS: LazyLock<&'static obx_util::obs::Counter> =
    LazyLock::new(|| obx_util::obs::counter("obx.border.atoms"));

/// Dense dedup state for the border BFS — atoms and constants already
/// reached — so membership tests are one word probe instead of a hash.
/// The border's set is frozen straight from `atoms`.
///
/// The ball searches of one [`borders`] call share a scratch: each resets
/// exactly what it set, so a search costs `O(ball)` rather than
/// `O(database)`.
#[derive(Debug)]
struct Scratch {
    atoms: Accumulator,
    consts: Bitmap,
}

impl Scratch {
    fn new(db: &Database) -> Self {
        Self {
            atoms: Accumulator::new(db.len()),
            consts: Bitmap::with_capacity(db.consts().len()),
        }
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
        Self::compute_interruptible(db, tuple, radius, &Interrupt::none())
    }

    /// [`Border::compute`] with a cooperative stop signal, polled once per
    /// BFS layer. If `interrupt` fires the border is returned *truncated*
    /// (fewer layers than requested) — still a valid border at its smaller
    /// radius, which is exactly what an anytime search wants.
    pub fn compute_interruptible(
        db: &Database,
        tuple: &[Const],
        radius: usize,
        interrupt: &Interrupt,
    ) -> Self {
        let mut sp = obx_util::span!(interrupt.recorder(), "border");
        let scratch = &mut Scratch::new(db);
        // Layer 0: atoms that mention a constant appearing in t.
        let mut seen_consts: Vec<Const> = Vec::new();
        let mut layer0: Vec<AtomId> = Vec::new();
        for &c in tuple {
            if !scratch.consts.insert(c.0.index()) {
                continue;
            }
            seen_consts.push(c);
            for &id in db.atoms_mentioning(c) {
                if scratch.atoms.insert(id) {
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
        border.record(&mut sp, layer0_len);
        // Layer 0 is already materialized, so it is charged either way; a
        // trip just stops the border from growing past it.
        if charge_layer(interrupt, layer0_len) {
            border.extend_layers(db, radius, interrupt, scratch, &mut sp);
        }
        border.all = scratch.atoms.to_set();
        border
    }

    /// Grows the border so that at least `radius + 1` layers exist
    /// (`W_0 ..= W_radius`). No-op if already large enough.
    pub fn extend(&mut self, db: &Database, radius: usize) {
        self.extend_interruptible(db, radius, &Interrupt::none());
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
        interrupt: &Interrupt,
    ) -> bool {
        if self.layers.len() > radius {
            return true;
        }
        let mut sp = obx_util::span!(interrupt.recorder(), "border");
        // Rebuild the dedup state the BFS left off with.
        let mut scratch = Scratch::new(db);
        for &c in &self.seen_consts {
            scratch.consts.insert(c.0.index());
        }
        for layer in &self.layers {
            scratch.atoms.insert_ids(layer);
        }
        let reached = self.extend_layers(db, radius, interrupt, &mut scratch, &mut sp);
        self.all = scratch.atoms.to_set();
        reached
    }

    /// The BFS layer loop behind [`Border::compute_interruptible`] and
    /// [`Border::extend_interruptible`]; per-layer atom counts and the
    /// frontier high-water mark go on the caller's span so each public
    /// entry point records exactly one `border` span.
    fn extend_layers(
        &mut self,
        db: &Database,
        radius: usize,
        interrupt: &Interrupt,
        scratch: &mut Scratch,
        sp: &mut Span<'_>,
    ) -> bool {
        while self.layers.len() <= radius {
            if !may_grow(interrupt) {
                return false;
            }
            let mut layer: Vec<AtomId> = Vec::new();
            for &c in &self.frontier {
                for &id in db.atoms_mentioning(c) {
                    if scratch.atoms.insert(id) {
                        layer.push(id);
                    }
                }
            }
            self.frontier =
                collect_frontier(db, &layer, &mut scratch.consts, &mut self.seen_consts);
            let charged = charge_layer(interrupt, layer.len());
            self.record(sp, layer.len());
            self.layers.push(layer);
            if !charged {
                return false;
            }
        }
        true
    }

    /// Records a completed layer of `atoms` atoms, and the frontier it
    /// left, on `sp`.
    fn record(&self, sp: &mut Span<'_>, atoms: usize) {
        record_layer(sp, atoms);
        sp.count_max("frontier_max", self.frontier.len() as u64);
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

    /// The atoms of `B_{t,r}` as a fresh set, or `None` if `r` exceeds the
    /// computed radius.
    ///
    /// For `r == self.radius()` prefer [`Border::atoms`], which borrows.
    pub fn atoms_up_to(&self, r: usize) -> Option<AtomSet> {
        let ids = self.layers.get(..=r)?.iter().flatten().copied();
        Some(AtomSet::from_ids(self.all.universe(), ids))
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
    scratch: Scratch,
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
            scratch: Scratch::new(db),
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
        let scratch = &mut self.scratch;
        let mut seen = vec![c];
        scratch.consts.insert(c.0.index());
        let posting = db.atoms_mentioning(c);
        scratch.atoms.insert_ids(posting);
        let mut frontier = collect_frontier(db, posting, &mut scratch.consts, &mut seen);
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
            let mut ring = Vec::new();
            for &d in &frontier {
                for &id in db.atoms_mentioning(d) {
                    if scratch.atoms.insert(id) {
                        ring.push(id);
                    }
                }
            }
            if m < self.max_level {
                frontier = collect_frontier(db, &ring, &mut scratch.consts, &mut seen);
            }
            self.ring_acc.insert_ids(&ring);
            rings.push(self.ring_acc.to_set());
            self.ring_acc.clear();
        }
        self.credit = self.credit.saturating_sub(scratch.atoms.len());
        scratch.atoms.clear();
        for d in seen {
            scratch.consts.remove(d.0.index());
        }
        if !cut {
            self.rings.insert(c, rings);
        }
        !cut
    }
}

/// One layer of the plain BFS in `acc`: unions the postings of `frontier`
/// and leaves the next frontier in it (none after the `last` layer).
/// `None` — the first plain layer after memo layers — expands every
/// constant of `acc` not yet marked in `seen`. Returns the atoms added.
fn plain_layer(
    db: &Database,
    acc: &mut Accumulator,
    seen: &mut Bitmap,
    marked: &mut Vec<Const>,
    frontier: &mut Option<Vec<Const>>,
    last: bool,
) -> usize {
    let expand = match frontier.take() {
        Some(f) => f,
        None => {
            let start = marked.len();
            for id in acc.ids() {
                for &d in db.atom(id).args.iter() {
                    if seen.insert(d.0.index()) {
                        marked.push(d);
                    }
                }
            }
            marked[start..].to_vec()
        }
    };
    let mut layer = Vec::new();
    for &d in &expand {
        for &id in db.atoms_mentioning(d) {
            if acc.insert(id) {
                layer.push(id);
            }
        }
    }
    *frontier = Some(if last {
        Vec::new()
    } else {
        collect_frontier(db, &layer, seen, marked)
    });
    layer.len()
}

/// The borders `B_{t,radius}(D)` of many tuples, in input order: the same
/// sets, layer sizes, guard charges and interrupt polls as one
/// [`Border::compute_interruptible`] per tuple, with the balls of
/// constants that many tuples reach shared between them.
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
/// exactly `W_{t,j}`: the guard is charged per tuple per layer as the
/// single-tuple BFS charges it, and the interrupt is polled before each
/// layer `j ≥ 1` the same way (and before each layer of a ball search).
/// Tuples around the same hubs reuse the hubs' balls instead of
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
                        let last = j == radius;
                        plain_layer(db, &mut acc, &mut seen, &mut marked, &mut frontier, last)
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
#[allow(clippy::unwrap_used, clippy::expect_used)]
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
        assert_eq!(b.atoms_up_to(0).unwrap().len(), 2);
        assert_eq!(b.atoms_up_to(1).unwrap().len(), 3);
        assert_eq!(&b.atoms_up_to(2).unwrap(), b.atoms());
        assert_eq!(b.atoms_up_to(3), None, "radius 3 was not computed");
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
            b.atoms_up_to(b.radius()).unwrap(),
            reference.atoms_up_to(b.radius()).unwrap(),
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
        for radius in [0, 1, 2, 3] {
            for tuple_consts in [vec!["hub0"], vec!["hub0", "n3_5"], vec!["n7_0"]] {
                let tuple: Vec<Const> = tuple_consts
                    .iter()
                    .map(|c| db.consts().get(c).unwrap())
                    .collect();
                let reference = Reference::compute(&db, &tuple, radius, &interrupt);
                let fresh = Border::compute(&db, &tuple, radius);
                assert_matches_reference(&fresh, &reference);
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

    /// One single-tuple BFS per tuple, in order, on one interrupt; the
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
            let b = Border::compute_interruptible(db, t, radius, interrupt);
            out.push(TupleBorder {
                layer_lens: b.layers.iter().map(Vec::len).collect(),
                atoms: b.into_atoms(),
            });
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

        /// The batched call reproduces the single-tuple BFS on random
        /// databases: every tuple's set and layer sizes, and under a
        /// border-atom cap the guard's count, byte peak and trip.
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

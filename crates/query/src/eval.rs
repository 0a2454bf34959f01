//! Evaluation of source CQs/UCQs over a database [`View`].
//!
//! One evaluator: a backtracking join with dynamic *atom* ordering. At
//! every depth it picks the not-yet-joined atom with the smallest
//! estimated candidate set (index slice sizes capped by the view's
//! visible-atom count), reads that atom's most selective index slice,
//! filters it by the view mask, and binds all of the atom's variables at
//! once. This is the classical "most-selective-first" heuristic; on
//! border-sized views its bare loops beat variable-at-a-time engines
//! whose per-call bookkeeping costs more than the nodes it saves.
//!
//! The search counts the candidate atoms it inspects (one *node* per
//! index-slice entry examined, visible or not); [`node_counts`] exposes
//! the process-wide total so benches and the observability layer can
//! attribute join work.
//!
//! [`satisfies_ucq_each`] is the batched form of [`satisfies_ucq`] that
//! scoring uses: one call checks a UCQ against many goals, each a tuple
//! with its own border mask. Per disjunct it allocates one set of search
//! buffers and reuses them for every goal, drops the masks where
//! [`certified`] proves them a no-op, and adds its node tally to the
//! process-wide total once per call rather than once per goal.

use crate::src::{SrcAtom, SrcCq, SrcUcq};
use crate::term::{Term, VarId};
use obx_srcdb::{AtomId, AtomSet, Bitmap, Const, Database, View};
use obx_util::FxHashSet;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide candidate-inspection total (monotone).
static NODES: AtomicU64 = AtomicU64::new(0);

/// Cumulative node counts: one node per candidate database atom the
/// evaluator inspected (including mask-filtered and
/// consistency-rejected candidates — the true measure of join work).
/// Monotone process-wide totals; read before/after a region and
/// subtract.
///
/// The pair shape is kept for existing readers that index `.0`/`.1`;
/// the second field is always 0 (there is one evaluator, and `.0` is its
/// total).
pub fn node_counts() -> (u64, u64) {
    (NODES.load(Ordering::Relaxed), 0)
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

    /// Resets every slot and binds the head variables to `tuple`.
    /// Returns `false` when the tuple arity differs from the query arity,
    /// or when a repeated head variable would need two different
    /// constants.
    fn bind_goal(&mut self, cq: &SrcCq, tuple: &[Const]) -> bool {
        if tuple.len() != cq.arity() {
            return false;
        }
        self.slots.fill(None);
        for (&v, &c) in cq.head().iter().zip(tuple.iter()) {
            match self.get(v) {
                Some(prev) if prev != c => return false,
                _ => self.slots[v.index()] = Some(c),
            }
        }
        true
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
    ids: &'v [AtomId],
    view: View<'v>,
    next: usize,
    /// Per-search node tally (candidates inspected, visible or not),
    /// flushed into [`NODES`] when the search ends.
    nodes: &'v Cell<u64>,
}

impl Iterator for CandidateIter<'_> {
    type Item = AtomId;

    fn next(&mut self) -> Option<AtomId> {
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
    id: AtomId,
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

/// Depth-first search over the remaining atoms. Joining body atom `i`
/// records the database atom it matched in `matched[i]`, so on a full
/// embedding `matched` holds one atom per body atom, in body order.
/// `on_solution` returns `true` to keep searching, `false` to stop early.
/// Returns `false` iff the search was stopped early.
#[allow(clippy::too_many_arguments)]
fn search(
    view: &View<'_>,
    atoms: &[SrcAtom],
    used: &mut [bool],
    matched: &mut [AtomId],
    remaining: usize,
    binding: &mut Binding,
    trail: &mut Vec<VarId>,
    nodes: &Cell<u64>,
    on_solution: &mut dyn FnMut(&Binding, &[AtomId]) -> bool,
) -> bool {
    if remaining == 0 {
        return on_solution(binding, matched);
    }
    let pick = pick_unjoined(view, atoms, used, binding, remaining);
    let atom = &atoms[pick];
    used[pick] = true;
    let mut keep_going = true;
    for id in candidates(*view, atom, binding, nodes) {
        let mark = trail.len();
        if try_match(view, atom, id, binding, trail) {
            matched[pick] = id;
            keep_going = search(
                view,
                atoms,
                used,
                matched,
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

/// Runs the search for `cq` from `binding` (empty, or the head pre-bound
/// to a goal tuple) and flushes its node tally into [`NODES`].
/// `on_solution` sees each full embedding: the binding and the matched
/// atom per body position. Every `matched` entry starts as a placeholder
/// and is overwritten when its body atom joins; an embedding joins every
/// body atom, so no placeholder survives into a reported solution.
fn run(
    view: View<'_>,
    cq: &SrcCq,
    mut binding: Binding,
    on_solution: &mut dyn FnMut(&Binding, &[AtomId]) -> bool,
) {
    let n = cq.body().len();
    let mut used = vec![false; n];
    let mut matched = vec![AtomId(0); n];
    let mut trail: Vec<VarId> = Vec::with_capacity(binding.slots.len());
    let nodes = Cell::new(0u64);
    search(
        &view,
        cq.body(),
        &mut used,
        &mut matched,
        n,
        &mut binding,
        &mut trail,
        &nodes,
        on_solution,
    );
    NODES.fetch_add(nodes.get(), Ordering::Relaxed);
}

fn num_vars(cq: &SrcCq) -> usize {
    cq.max_var().map_or(0, |m| m as usize + 1)
}

/// The binding a goal-directed search starts from: head variables bound
/// to `tuple`. `None` when [`Binding::bind_goal`] rejects the tuple.
fn goal_binding(cq: &SrcCq, tuple: &[Const]) -> Option<Binding> {
    let mut binding = Binding::new(num_vars(cq));
    binding.bind_goal(cq, tuple).then_some(binding)
}

/// All answers of `cq` over `view`: the set of head-variable tuples.
pub fn answers(view: View<'_>, cq: &SrcCq) -> FxHashSet<Box<[Const]>> {
    let mut out: FxHashSet<Box<[Const]>> = FxHashSet::default();
    run(view, cq, Binding::new(num_vars(cq)), &mut |b, _| {
        // `SrcCq::new` rejects heads with a variable absent from the
        // body, so a full embedding binds every head variable and the
        // tuple is always `Some`.
        let tuple: Option<Box<[Const]>> = cq.head().iter().map(|&v| b.get(v)).collect();
        if let Some(t) = tuple {
            out.insert(t);
        }
        true
    });
    out
}

/// Whether `tuple` is an answer of `cq` over `view`.
///
/// Head variables are pre-bound to the tuple (so this is a single
/// goal-directed search, not answer enumeration). Returns `false` when the
/// tuple arity differs from the query arity, or when a repeated head
/// variable would need two different constants.
pub fn satisfies(view: View<'_>, cq: &SrcCq, tuple: &[Const]) -> bool {
    let Some(binding) = goal_binding(cq, tuple) else {
        return false;
    };
    let mut found = false;
    run(view, cq, binding, &mut |_, _| {
        found = true;
        false // stop at the first embedding
    });
    found
}

/// Like [`satisfies`], but additionally returns a *witness*: the database
/// atoms (one per body atom, in body order) of the first embedding found.
/// This is the provenance primitive behind explanation evidence — the
/// paper's future-work item on explaining query answers (its reference
/// [10]) asks exactly for the facts that ground a certain answer.
pub fn witness(view: View<'_>, cq: &SrcCq, tuple: &[Const]) -> Option<Vec<AtomId>> {
    let binding = goal_binding(cq, tuple)?;
    let mut found = None;
    run(view, cq, binding, &mut |_, matched| {
        found = Some(matched.to_vec());
        false // stop at the first embedding
    });
    found
}

/// First witness across a UCQ's disjuncts, with the disjunct index.
pub fn witness_ucq(view: View<'_>, ucq: &SrcUcq, tuple: &[Const]) -> Option<(usize, Vec<AtomId>)> {
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

/// The result of one [`satisfies_ucq_each`] or [`satisfies_ucq_until`]
/// call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matches {
    /// Per goal index: whether some disjunct matched the goal.
    pub hits: Vec<bool>,
    /// Per goal index: whether the goal is a *final* miss — it was asked
    /// and every disjunct, the last one included, failed on it. A call
    /// that ran to the end has `missed[i] == (asked && !hits[i])`; a call
    /// a [`Cutoff`] stopped leaves its unsettled goals at `false` in both.
    pub missed: Vec<bool>,
    /// Whether the call exceeded its [`Cutoff`] and stopped there; goals
    /// after the one that exceeded it may be undecided.
    pub stopped: bool,
    /// Goals at least one disjunct was tried on: all asked goals, unless
    /// the call stopped during its first disjunct.
    pub searched: usize,
    /// Disjuncts answered on the certified path, masks dropped.
    pub certified: usize,
    /// Disjuncts that searched border-masked views.
    pub masked: usize,
    /// Candidate atoms this call inspected (its share of
    /// [`node_counts`]'s total).
    pub nodes: u64,
}

/// When a [`satisfies_ucq_until`] call may stop before every goal has
/// settled. Goals below `split` are the side whose *final misses* count;
/// goals from `split` on are the side whose *hits* count. The call stops
/// once more than `misses` goals of the first side are final misses, or
/// more than `hits` goals of the second side are hits. A miss is final
/// only when the UCQ's last disjunct has failed on the goal too; a hit is
/// final at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cutoff {
    /// The first goal index of the hit-counting side.
    pub split: usize,
    /// Final misses below `split` the call tolerates.
    pub misses: usize,
    /// Hits from `split` on the call tolerates.
    pub hits: usize,
}

impl Cutoff {
    /// Never stops: the call settles every goal.
    pub const NONE: Cutoff = Cutoff {
        split: 0,
        misses: usize::MAX,
        hits: usize::MAX,
    };
}

/// The running counts a [`Cutoff`] is checked against: two integer
/// compares per settled goal, no other per-goal work.
struct Tally {
    cutoff: Cutoff,
    misses: usize,
    hits: usize,
}

impl Tally {
    /// Records that goal `i` settled (`hit`, or a miss that is final when
    /// `last`); `true` when the call must stop.
    #[inline]
    fn settle(&mut self, i: usize, hit: bool, last: bool) -> bool {
        if i < self.cutoff.split {
            if !hit && last {
                self.misses += 1;
                return self.misses > self.cutoff.misses;
            }
        } else if hit {
            self.hits += 1;
            return self.hits > self.cutoff.hits;
        }
        false
    }
}

/// One goal of [`satisfies_ucq_each`]: a tuple and the border it is
/// matched over.
#[derive(Debug, Clone, Copy)]
pub struct Goal<'g> {
    /// The tuple the head is bound to.
    pub tuple: &'g [Const],
    /// The view mask, `B_{t,r}(D)` for the call's radius `r`.
    pub border: &'g AtomSet,
    /// Whether `border` is all of `B_{t,r}(D)`: no layer was cut by an
    /// interrupt or a resource guard.
    pub complete: bool,
}

/// The layer depth of `cq`'s deepest body atom, or `None` when some atom
/// is not connected to the head. An atom that mentions a head variable
/// has depth 0; an atom that shares a variable or a constant with an
/// atom of depth `k` has depth at most `k + 1`.
///
/// The depths follow the border layers of Def. 3.2: a homomorphism that
/// sends the head to `t` maps a depth-0 atom onto an atom mentioning a
/// constant of `t`, which is in `W_{t,0}`, and an atom sharing a term with
/// a depth-`k` atom onto one sharing a constant with an atom of
/// `B_{t,k}(D)`, which is in `B_{t,k+1}(D)`.
pub fn head_depth(cq: &SrcCq) -> Option<usize> {
    let body = cq.body();
    let mut depth: Vec<Option<usize>> = body
        .iter()
        .map(|a| {
            let mentions_head = cq.head().iter().any(|&v| a.args.contains(&Term::Var(v)));
            mentions_head.then_some(0)
        })
        .collect();
    let mut k = 0;
    while depth.contains(&Some(k)) {
        for i in 0..body.len() {
            if depth[i].is_none()
                && (0..body.len()).any(|j| {
                    depth[j] == Some(k) && body[i].args.iter().any(|t| body[j].args.contains(t))
                })
            {
                depth[i] = Some(k + 1);
            }
        }
        k += 1;
    }
    depth
        .into_iter()
        .try_fold(0, |deepest, d| Some(deepest.max(d?)))
}

/// Whether `cq` is *certified* at border radius `radius`: `radius ≥ 1`
/// and every body atom has [`head_depth`] at most `radius`. Then every
/// embedding of `cq` that sends the head to `t` lies inside
/// `B_{t,radius}(D)`, so `cq` J-matches `t`'s complete border iff
/// `t ∈ cq(D)`, and the border mask can be dropped.
pub fn certified(cq: &SrcCq, radius: usize) -> bool {
    radius >= 1 && head_depth(cq).is_some_and(|d| d <= radius)
}

/// Whether `cq` is *data-dead* on `db`: it has no embedding into `db`
/// by one of two checks.
///
/// * **Atom rule.** Some body atom has no fact of `db` in its smallest
///   index slice under its own constants: its relation is empty, or one
///   of its constants never occurs at its position.
/// * **Join rule.** One variable, head variables included, occurs at two
///   `(rel, pos)` columns, in one atom or in two, and no constant of `db`
///   occurs in both ([`Database::columns_meet`]). An embedding would send
///   the variable to one constant that `db` holds in both.
///
/// Either way `cq` has no embedding into `db`, nor into any view of it —
/// a border `B_{t,r}(D)`, complete or cut short, masked or not — so it
/// matches no goal and an evaluator may skip it.
pub fn data_dead(db: &Database, cq: &SrcCq) -> bool {
    let atom_dead = cq.body().iter().any(|atom| {
        db.atoms_of(atom.rel).is_empty()
            || atom.args.iter().enumerate().any(|(pos, &t)| {
                matches!(t, Term::Const(c) if db.atoms_with(atom.rel, pos, c).is_empty())
            })
    });
    let columns = || {
        cq.body().iter().flat_map(|atom| {
            atom.args
                .iter()
                .enumerate()
                .filter_map(move |(pos, &t)| match t {
                    Term::Var(v) => Some((v, atom.rel, pos)),
                    Term::Const(_) => None,
                })
        })
    };
    atom_dead
        || columns().enumerate().any(|(i, (v, ra, pa))| {
            columns().skip(i + 1).any(|(w, rb, pb)| {
                v == w && (ra, pa) != (rb, pb) && !db.columns_meet(ra, pa, rb, pb)
            })
        })
}

/// [`satisfies_ucq`] for `n` goals at once: entry `i` of the result is
/// `satisfies_ucq(View::masked(db, g.border), ucq, g.tuple)` for
/// `goal(i) = Some(g)`, and `false` for `goal(i) = None`. `radius` is the
/// radius of the goals' borders.
///
/// The outer loop runs over the disjuncts, the inner one over the goals
/// still unmatched. Each disjunct takes one of two paths:
///
/// * **Certified.** When the disjunct is [`certified`] at `radius`, its
///   head has one variable and every goal's border is complete, the masks
///   are a no-op and are dropped. One scan of the candidate atoms of the
///   disjunct's *anchor* (the body atom with the head variable and the
///   smallest index slice) in `db` extends each match whose constant is a
///   goal's into a search of `db` for the rest of the body, once per
///   constant. The path is taken only when the anchor has no more
///   candidate atoms than there are goals.
/// * **Masked.** Otherwise, one goal-directed search per goal over its
///   border view. The disjunct allocates its binding, join bookkeeping
///   and trail once and reuses them for every goal, so the searches are
///   exactly those of `n` separate [`satisfies_ucq`] calls.
///
/// The call's node tally is returned in [`Matches::nodes`] and reaches
/// [`node_counts`] once per call. `goal` is called once per index.
pub fn satisfies_ucq_each<'g>(
    db: &Database,
    ucq: &SrcUcq,
    radius: usize,
    n: usize,
    goal: impl Fn(usize) -> Option<Goal<'g>>,
) -> Matches {
    satisfies_ucq_until(db, ucq, radius, n, goal, Cutoff::NONE)
}

/// [`satisfies_ucq_each`] that stops as soon as `cutoff` is exceeded.
/// Goals settle in index order within each disjunct, so the goals a
/// stopped call decided are a prefix of the last disjunct's pass; what
/// they settled to is in [`Matches::hits`] and [`Matches::missed`], and
/// [`Matches::stopped`] says the rest is undecided. A call that is not
/// stopped returns exactly what [`satisfies_ucq_each`] returns.
pub fn satisfies_ucq_until<'g>(
    db: &Database,
    ucq: &SrcUcq,
    radius: usize,
    n: usize,
    goal: impl Fn(usize) -> Option<Goal<'g>>,
    cutoff: Cutoff,
) -> Matches {
    let mut out = Matches {
        hits: vec![false; n],
        missed: vec![false; n],
        stopped: false,
        searched: 0,
        certified: 0,
        masked: 0,
        nodes: 0,
    };
    let hits = &mut out.hits;
    let mut pending: Vec<(usize, Goal<'g>)> =
        (0..n).filter_map(|i| goal(i).map(|g| (i, g))).collect();
    out.searched = pending.len();
    let mut tally = Tally {
        cutoff,
        misses: 0,
        hits: 0,
    };
    let nodes = Cell::new(0u64);
    let disjuncts = ucq.disjuncts();
    if disjuncts.is_empty() {
        for &(i, _) in &pending {
            out.missed[i] = true;
        }
    }
    for (d, cq) in disjuncts.iter().enumerate() {
        if pending.is_empty() {
            break;
        }
        let last = d + 1 == disjuncts.len();
        let certify =
            cq.arity() == 1 && certified(cq, radius) && pending.iter().all(|(_, g)| g.complete);
        // How many of `pending` this disjunct settled: all of them, or
        // the prefix up to the goal that tripped the cutoff.
        let settled = match certify.then(|| anchor(db, cq, pending.len())).flatten() {
            Some(a) => {
                out.certified += 1;
                let found = certified_answers(db, cq, a, &first_constants(&pending), &nodes);
                for &(i, g) in &pending {
                    hits[i] = g.tuple.len() == 1 && found.contains(g.tuple[0].0.index());
                    out.stopped |= tally.settle(i, hits[i], last);
                }
                pending.len()
            }
            None => {
                out.masked += 1;
                let (settled, stopped) = masked(db, cq, &pending, hits, &nodes, &mut tally, last);
                out.stopped = stopped;
                settled
            }
        };
        if out.stopped && d == 0 {
            out.searched = settled;
        }
        if last {
            for &(i, _) in &pending[..settled] {
                out.missed[i] = !hits[i];
            }
        }
        if out.stopped {
            break;
        }
        pending.retain(|&(i, _)| !hits[i]);
    }
    out.nodes = nodes.get();
    NODES.fetch_add(out.nodes, Ordering::Relaxed);
    out
}

/// The masked path of [`satisfies_ucq_until`]: one goal-directed search
/// per goal over its own border view, sharing one set of buffers.
/// Returns how many goals settled, and whether `tally` stopped the pass
/// at the last of them.
fn masked(
    db: &Database,
    cq: &SrcCq,
    goals: &[(usize, Goal<'_>)],
    hits: &mut [bool],
    nodes: &Cell<u64>,
    tally: &mut Tally,
    last: bool,
) -> (usize, bool) {
    let body = cq.body();
    let mut binding = Binding::new(num_vars(cq));
    let mut used = vec![false; body.len()];
    let mut matched = vec![AtomId(0); body.len()];
    let mut trail: Vec<VarId> = Vec::with_capacity(binding.slots.len());
    for (k, &(i, g)) in goals.iter().enumerate() {
        if binding.bind_goal(cq, g.tuple) {
            let hit = &mut hits[i];
            // A finished search restores `binding`, `used` and `trail` to
            // their state on entry, so the next goal starts clean.
            search(
                &View::masked(db, g.border),
                body,
                &mut used,
                &mut matched,
                body.len(),
                &mut binding,
                &mut trail,
                nodes,
                &mut |_, _| {
                    *hit = true;
                    false // stop at the first embedding
                },
            );
        }
        if tally.settle(i, hits[i], last) {
            return (k + 1, true);
        }
    }
    (goals.len(), false)
}

/// The index of `cq`'s anchor — the body atom with the (first) head
/// variable and the smallest index slice in `db` — when that slice holds
/// at most `budget` atoms.
fn anchor(db: &Database, cq: &SrcCq, budget: usize) -> Option<usize> {
    let view = View::full(db);
    let empty = Binding::new(num_vars(cq));
    let x = Term::Var(*cq.head().first()?);
    let (i, size) = cq
        .body()
        .iter()
        .enumerate()
        .filter(|(_, a)| a.args.contains(&x))
        .map(|(i, a)| (i, selectivity(&view, a, &empty)))
        .min_by_key(|&(_, size)| size)?;
    (size <= budget).then_some(i)
}

/// The first constant of every goal with one.
fn first_constants(goals: &[(usize, Goal<'_>)]) -> Bitmap {
    let mut out = Bitmap::with_capacity(0);
    for (_, g) in goals {
        if let Some(c) = g.tuple.first() {
            out.insert(c.0.index());
        }
    }
    out
}

/// `cq(D)` restricted to the constants in `wanted`, for a certified
/// disjunct with a one-variable head: one scan of the candidate atoms of
/// the body atom `anchor` in `db`, and for each match that binds the head
/// to a wanted constant not yet found, one search of `db` for the rest of
/// the body around it.
fn certified_answers(
    db: &Database,
    cq: &SrcCq,
    anchor: usize,
    wanted: &Bitmap,
    nodes: &Cell<u64>,
) -> Bitmap {
    let view = View::full(db);
    let body = cq.body();
    let mut binding = Binding::new(num_vars(cq));
    let mut used = vec![false; body.len()];
    let mut matched = vec![AtomId(0); body.len()];
    let mut trail: Vec<VarId> = Vec::with_capacity(binding.slots.len());
    let mut found = Bitmap::with_capacity(0);
    let Some(&x) = cq.head().first() else {
        return found;
    };
    used[anchor] = true;
    for id in candidates(view, &body[anchor], &binding, nodes) {
        if !try_match(&view, &body[anchor], id, &mut binding, &mut trail) {
            continue;
        }
        if let Some(c) = binding.get(x).map(|c| c.0.index()) {
            if wanted.contains(c) && !found.contains(c) {
                matched[anchor] = id;
                search(
                    &view,
                    body,
                    &mut used,
                    &mut matched,
                    body.len() - 1,
                    &mut binding,
                    &mut trail,
                    nodes,
                    &mut |_, _| {
                        found.insert(c);
                        false // one embedding settles the constant
                    },
                );
            }
        }
        undo_to(&mut binding, &mut trail, 0);
    }
    found
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
    fn data_dead_flags_atoms_with_an_empty_index_slice() {
        let mut schema = Schema::new();
        schema.declare("STUD", 1).unwrap();
        schema.declare("LOC", 2).unwrap();
        schema.declare("EMPTY", 1).unwrap();
        let mut db = Database::new(schema);
        db.insert_named("STUD", &["A10"]).unwrap();
        db.insert_named("LOC", &["Sap", "Rome"]).unwrap();
        let stud = db.schema().rel("STUD").unwrap();
        let loc = db.schema().rel("LOC").unwrap();
        let empty = db.schema().rel("EMPTY").unwrap();
        let (sap, rome) = (c(&db, "Sap"), c(&db, "Rome"));
        let q = |guard: SrcAtom| {
            SrcCq::new(vec![VarId(0)], vec![SrcAtom::new(stud, [var(0)]), guard]).unwrap()
        };
        // "Rome" occurs in LOC, but never at position 0.
        assert!(data_dead(
            &db,
            &q(SrcAtom::new(loc, [Term::Const(rome), var(1)]))
        ));
        // A relation without facts.
        assert!(data_dead(&db, &q(SrcAtom::new(empty, [var(1)]))));
        // A ground atom that is a fact, and a variable-only atom.
        assert!(!data_dead(
            &db,
            &q(SrcAtom::new(loc, [Term::Const(sap), Term::Const(rome)]))
        ));
        assert!(!data_dead(&db, &q(SrcAtom::new(loc, [var(1), var(2)]))));
        // The test is per slice, not per fact: both constants occur at
        // their positions, so this unmatched guard is not flagged.
        db.insert_named("LOC", &["Pol", "Milan"]).unwrap();
        let milan = c(&db, "Milan");
        let crossed = q(SrcAtom::new(loc, [Term::Const(sap), Term::Const(milan)]));
        assert!(!data_dead(&db, &crossed));
        assert!(answers(View::full(&db), &crossed).is_empty());
    }

    #[test]
    fn data_dead_flags_a_variable_in_two_columns_that_never_meet() {
        let db = students_db();
        let stud = db.schema().rel("STUD").unwrap();
        let loc = db.schema().rel("LOC").unwrap();
        let enr = db.schema().rel("ENR").unwrap();
        // The head variable is a student and a university at once:
        // q(x0) :- STUD(x0), ENR(x1, x2, x0).
        let head_join = SrcCq::new(
            vec![VarId(0)],
            vec![
                SrcAtom::new(stud, [var(0)]),
                SrcAtom::new(enr, [var(1), var(2), var(0)]),
            ],
        )
        .unwrap();
        assert!(data_dead(&db, &head_join));
        assert!(answers(View::full(&db), &head_join).is_empty());
        // One variable at both positions of one atom: a university that
        // is its own city, q(x0) :- ENR(x0, x1, x2), LOC(x2, x2).
        let looped = SrcCq::new(
            vec![VarId(0)],
            vec![
                SrcAtom::new(enr, [var(0), var(1), var(2)]),
                SrcAtom::new(loc, [var(2), var(2)]),
            ],
        )
        .unwrap();
        assert!(data_dead(&db, &looped));
        assert!(answers(View::full(&db), &looped).is_empty());
        // A type-correct join is kept, even where it finds no answer
        // ("Norm" has no LOC fact).
        let located = SrcCq::new(
            vec![VarId(0)],
            vec![
                SrcAtom::new(stud, [var(0)]),
                SrcAtom::new(enr, [var(0), var(1), var(2)]),
                SrcAtom::new(loc, [var(2), var(3)]),
            ],
        )
        .unwrap();
        assert!(!data_dead(&db, &located));
        assert_eq!(answers(View::full(&db), &located).len(), 4);
    }

    #[test]
    fn node_counter_tracks_inspected_candidates() {
        let db = students_db();
        let enr = db.schema().rel("ENR").unwrap();
        let q = SrcCq::new(
            vec![VarId(0)],
            vec![SrcAtom::new(enr, [var(0), var(1), var(2)])],
        )
        .unwrap();
        // The counter is process-wide and other tests evaluate
        // concurrently, so only a lower bound is exact: one scan of the
        // five ENR facts inspects five candidates.
        let (before, unused) = node_counts();
        assert_eq!(answers(View::full(&db), &q).len(), 5);
        let (after, still_unused) = node_counts();
        assert!(after - before >= 5);
        assert_eq!((unused, still_unused), (0, 0));
    }
}

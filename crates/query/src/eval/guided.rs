//! The constraint-guided evaluator: variable-at-a-time join ordered by
//! O(1) cardinality estimates.
//!
//! Every body atom of a [`SrcCq`] acts as a *constraint* over the
//! variables it mentions, in the worst-case-optimal join family
//! (Atreides-style). A constraint supports four operations, realized as
//! methods of the [`Guided`] engine:
//!
//! * **estimate** — an upper bound on how many values the constraint can
//!   propose for a variable under the current partial binding. Computed
//!   from the prefix counts the database already maintains
//!   ([`Database::count_of`]/[`count_with`], capped by the view mask via
//!   [`View::estimate_with`]) — every estimate is O(arity) hash lookups,
//!   no data is touched.
//! * **propose** — collect the candidate values for a variable by
//!   scanning the *smaller* of the most selective index slice (filtering
//!   by mask visibility) and the mask itself (filtering by relation and
//!   consistency). On a hub constant of a skewed database the index slice
//!   can be orders of magnitude larger than a border mask; iterating the
//!   mask side makes the proposal cost O(border) instead of O(hub
//!   degree). Each scan also records the proposer's **support** — the
//!   facts found consistent — so when the same constraint proposes again
//!   deeper in the search (its next variable), the support is replayed
//!   instead of re-reading the index: a constraint's data is inspected
//!   once per branch, not once per variable.
//! * **confirm** — after a variable is bound, every *other* constraint
//!   covering it must still have at least one consistent visible fact;
//!   otherwise the binding is rejected before any deeper work. A
//!   constraint whose arguments are fully resolved confirms in O(1)
//!   through the database's exact-atom hash index instead of scanning;
//!   still-open constraints are screened by a zero-estimate check that
//!   touches no data at all.
//! * **influence** — binding a variable invalidates the cached estimates
//!   of exactly the unbound variables sharing a constraint with it;
//!   untouched variables keep their cached `(estimate, proposing atom)`
//!   pair. Invalidations are recorded on an undo log and rolled back on
//!   backtrack.
//!
//! The engine repeatedly binds the unbound variable with the smallest
//! estimate (ties broken by slot index, so the search is deterministic),
//! with one short-circuit mirroring the legacy evaluator's last-atom rule:
//! when all remaining unbound variables live in a single atom, that atom's
//! candidates are enumerated directly instead of variable-at-a-time —
//! enumeration-heavy scans (the chase's single-atom queries) then cost one
//! pass, not one pass per variable.
//!
//! [`Database::count_of`]: obx_srcdb::Database::count_of
//! [`count_with`]: obx_srcdb::Database::count_with
//! [`View::estimate_with`]: obx_srcdb::View::estimate_with

use crate::src::{SrcAtom, SrcCq};
use crate::term::{Term, VarId};
use obx_srcdb::{Atom, AtomId, AtomRef, AtomSet, Const, View};
use obx_util::FxHashSet;
use std::sync::atomic::Ordering;

/// Sentinel atom index: "no proposing constraint cached".
const NO_ATOM: u32 = u32::MAX;

/// Goal-directed searches (satisfies/witness stop at the first solution)
/// only pre-pay an eager proposal scan — the full access set collected,
/// sorted, and support-recorded before the first value is tried — when
/// that scan is at most this many candidates. Above it, values stream
/// lazily off the scan so a shallow witness stops mid-scan: on a hub
/// constant of a skewed database the eager scan would cost O(hub degree)
/// up front where the witness is typically a handful of candidates in.
/// The proposal estimate is exactly the eager cost, so the choice is O(1).
const GOAL_EAGER_MAX: usize = 16;

/// Where to read a constraint's candidate facts from: the most selective
/// index slice (filter by mask visibility) or the mask itself (filter by
/// relation + consistency), whichever is smaller.
enum Access<'v> {
    Slice(&'v [AtomId]),
    Mask(&'v AtomSet),
}

/// One guided evaluation: the constraint set of a single CQ over a view,
/// plus the per-variable estimate cache and its undo log.
struct Guided<'v, 'q> {
    view: View<'v>,
    body: &'q [SrcAtom],
    /// Current partial binding, dense over variable slots.
    binding: Vec<Option<Const>>,
    /// Per variable slot: indices of the body atoms covering it (the
    /// constraint set consulted by estimate/propose/confirm/influence).
    cover: Vec<Vec<u32>>,
    /// Whether the slot occurs in the body at all.
    present: Vec<bool>,
    /// Cached `(estimate, proposing atom)` per slot.
    est: Vec<(usize, u32)>,
    /// Whether the cached estimate must be recomputed before use.
    dirty: Vec<bool>,
    /// Undo log of estimate-cache entries invalidated by a binding:
    /// `(slot, saved est, saved dirty)`.
    undo: Vec<(u32, (usize, u32), bool)>,
    /// Per-recursion-level `(value, fact)` proposal buffers, reused across
    /// siblings.
    pairs: Vec<Vec<(Const, AtomId)>>,
    /// Per-recursion-level sets of already-tried values, used by the
    /// streaming proposal path.
    seen: Vec<FxHashSet<Const>>,
    /// Active support per atom: `(start, end)` range in [`support_buf`]
    /// holding the facts found consistent when the atom was last scanned
    /// on the current branch. Deeper proposals replay this range instead
    /// of re-reading the index — those candidates were already inspected
    /// (and counted) by the scan that built the range.
    ///
    /// [`support_buf`]: Self::support_buf
    support: Vec<Option<(usize, usize)>>,
    /// Stack arena backing [`support`](Self::support); truncated on
    /// backtrack.
    support_buf: Vec<AtomId>,
    /// Scratch for replaying a support range (detached copy so the replay
    /// can run while `support_buf` grows).
    replay: Vec<AtomId>,
    /// Slots bound by the single-atom fast path (scratch; it never
    /// recurses, so one buffer suffices).
    fast_bound: Vec<u32>,
    /// Whether the caller stops at the first solution (satisfies/witness).
    /// Expensive proposals then stream instead of eagerly collecting — see
    /// [`GOAL_EAGER_MAX`].
    goal: bool,
    /// Candidate atoms inspected; flushed to the process-wide guided
    /// total on drop.
    nodes: u64,
}

impl Drop for Guided<'_, '_> {
    fn drop(&mut self) {
        super::GUIDED_NODES.fetch_add(self.nodes, Ordering::Relaxed);
    }
}

impl<'v, 'q> Guided<'v, 'q> {
    fn new(view: View<'v>, cq: &'q SrcCq) -> Self {
        let nv = cq.max_var().map_or(0, |m| m as usize + 1);
        let body = cq.body();
        let mut cover: Vec<Vec<u32>> = vec![Vec::new(); nv];
        let mut present = vec![false; nv];
        for (ai, atom) in body.iter().enumerate() {
            for &t in atom.args.iter() {
                if let Term::Var(v) = t {
                    let s = v.index();
                    present[s] = true;
                    // Positions of one atom are pushed consecutively, so a
                    // repeated variable within an atom dedups via `last`.
                    if cover[s].last() != Some(&(ai as u32)) {
                        cover[s].push(ai as u32);
                    }
                }
            }
        }
        Self {
            view,
            body,
            binding: vec![None; nv],
            cover,
            present,
            est: vec![(usize::MAX, NO_ATOM); nv],
            dirty: vec![true; nv],
            undo: Vec::new(),
            pairs: vec![Vec::new(); nv],
            seen: vec![FxHashSet::default(); nv],
            support: vec![None; body.len()],
            support_buf: Vec::new(),
            replay: Vec::new(),
            fast_bound: Vec::new(),
            goal: false,
            nodes: 0,
        }
    }

    #[inline]
    fn resolve(&self, t: Term) -> Option<Const> {
        match t {
            Term::Const(c) => Some(c),
            Term::Var(v) => self.binding[v.index()],
        }
    }

    /// Pre-binds head variables to an answer tuple. `false` on a repeated
    /// head variable demanding two different constants.
    fn bind_tuple(&mut self, head: &[VarId], tuple: &[Const]) -> bool {
        for (&v, &c) in head.iter().zip(tuple.iter()) {
            match self.binding[v.index()] {
                Some(prev) if prev != c => return false,
                _ => self.binding[v.index()] = Some(c),
            }
        }
        true
    }

    fn unbound_count(&self) -> usize {
        (0..self.binding.len())
            .filter(|&s| self.present[s] && self.binding[s].is_none())
            .count()
    }

    /// Whether `fact` is compatible with `atom` under the current binding
    /// (constants and bound variables must match; repeated *unbound*
    /// variables must carry equal constants across their positions).
    fn consistent(&self, atom: &SrcAtom, fact: AtomRef<'_>) -> bool {
        if atom.args.len() != fact.args.len() {
            return false;
        }
        for (pos, &t) in atom.args.iter().enumerate() {
            let c = fact.args[pos];
            match t {
                Term::Const(qc) => {
                    if qc != c {
                        return false;
                    }
                }
                Term::Var(v) => match self.binding[v.index()] {
                    Some(b) => {
                        if b != c {
                            return false;
                        }
                    }
                    None => {
                        for (p2, &t2) in atom.args[..pos].iter().enumerate() {
                            if t2 == t && fact.args[p2] != c {
                                return false;
                            }
                        }
                    }
                },
            }
        }
        true
    }

    /// Estimate for one constraint: the smallest prefix count over its
    /// resolved positions (mask-capped), defaulting to the relation size.
    /// An active support range is an even tighter bound — only those facts
    /// can still match on this branch.
    fn estimate_atom(&self, a: u32) -> usize {
        let atom = &self.body[a as usize];
        let mut best = self.view.size_hint_of(atom.rel);
        if let Some((s, e)) = self.support[a as usize] {
            best = best.min(e - s);
        }
        for (pos, &t) in atom.args.iter().enumerate() {
            if let Some(c) = self.resolve(t) {
                best = best.min(self.view.estimate_with(atom.rel, pos, c));
            }
        }
        best
    }

    /// Whether some constraint provably has no consistent visible fact
    /// under the current binding — a pure estimate computation (hash
    /// lookups only, no candidates inspected), mirroring the legacy
    /// evaluator's zero-selectivity fast-fail.
    fn some_constraint_dead(&self) -> bool {
        (0..self.body.len() as u32).any(|a| self.estimate_atom(a) == 0)
    }

    /// Estimate for one variable: the minimum over its covering
    /// constraints, remembering which constraint attains it (the proposer).
    fn estimate_var(&self, s: usize) -> (usize, u32) {
        let mut best = usize::MAX;
        let mut arg = NO_ATOM;
        for &a in &self.cover[s] {
            let e = self.estimate_atom(a);
            if e < best {
                best = e;
                arg = a;
            }
        }
        (best, arg)
    }

    /// Picks the cheaper side to read constraint `a`'s candidates from.
    fn access(&self, a: u32) -> Access<'v> {
        let atom = &self.body[a as usize];
        let db = self.view.db();
        let mut best = db.count_of(atom.rel);
        let mut best_pos: Option<(usize, Const)> = None;
        for (pos, &t) in atom.args.iter().enumerate() {
            if let Some(c) = self.resolve(t) {
                let n = db.count_with(atom.rel, pos, c);
                if n < best {
                    best = n;
                    best_pos = Some((pos, c));
                }
            }
        }
        if let Some(m) = self.view.mask() {
            if m.len() < best {
                return Access::Mask(m);
            }
        }
        Access::Slice(match best_pos {
            Some((pos, c)) => db.atoms_with(atom.rel, pos, c),
            None => db.atoms_of(atom.rel),
        })
    }

    /// Confirms a constraint whose arguments are all resolved: one O(1)
    /// probe of the database's exact-atom hash index plus a mask lookup,
    /// instead of an index-slice scan. A hit inspects exactly one
    /// candidate atom (counted); a miss inspects none — no fact with this
    /// exact tuple exists, the scan-equivalent of an empty index slice.
    ///
    /// Returns `None` if the constraint still has an unbound variable.
    fn confirm_ground(&mut self, a: u32) -> Option<bool> {
        let atom = &self.body[a as usize];
        let mut args = Vec::with_capacity(atom.args.len());
        for &t in atom.args.iter() {
            args.push(self.resolve(t)?);
        }
        let probe = Atom::new(atom.rel, args);
        Some(match self.view.db().id_of(&probe) {
            Some(id) => {
                self.nodes += 1;
                self.view.visible(id)
            }
            None => false,
        })
    }

    /// Entry screen: fails fast (zero nodes) when some constraint is
    /// provably empty, then confirms every constraint whose arguments are
    /// already fully resolved (constant-only guard atoms, and atoms
    /// grounded entirely by pre-bound head variables). Variable-driven
    /// search never visits those, so they are checked once up front.
    fn ground_ok(&mut self) -> bool {
        if self.some_constraint_dead() {
            return false;
        }
        for a in 0..self.body.len() as u32 {
            if self.confirm_ground(a) == Some(false) {
                return false;
            }
        }
        true
    }

    /// Marks the estimates of unbound variables sharing a constraint with
    /// `v` dirty (the *influence* set of binding `v`), saving their cached
    /// state on the undo log.
    fn invalidate_influenced(&mut self, v: usize) {
        let body = self.body;
        let cov = std::mem::take(&mut self.cover[v]);
        for &a in &cov {
            for &t in body[a as usize].args.iter() {
                if let Term::Var(u) = t {
                    let u = u.index();
                    if u != v && self.binding[u].is_none() && !self.dirty[u] {
                        self.undo.push((u as u32, self.est[u], false));
                        self.dirty[u] = true;
                    }
                }
            }
        }
        self.cover[v] = cov;
    }

    /// Rolls the estimate cache back to an undo mark.
    fn restore(&mut self, mark: usize) {
        while self.undo.len() > mark {
            if let Some((u, est, dirty)) = self.undo.pop() {
                self.est[u as usize] = est;
                self.dirty[u as usize] = dirty;
            }
        }
    }

    /// When exactly one atom still has unbound variables, returns it:
    /// every other constraint is ground (and was confirmed when its last
    /// variable bound), so enumerating this atom's candidates directly
    /// finishes the search in one pass.
    fn sole_open_atom(&self) -> Option<u32> {
        let mut open = None;
        for (ai, atom) in self.body.iter().enumerate() {
            let has_unbound = atom
                .args
                .iter()
                .any(|&t| matches!(t, Term::Var(v) if self.binding[v.index()].is_none()));
            if has_unbound {
                if open.is_some() {
                    return None;
                }
                open = Some(ai as u32);
            }
        }
        open
    }

    /// Terminal fast path: enumerate the last open atom's consistent
    /// facts, emitting one solution per fact. Replays the atom's active
    /// support when one exists (already inspected and counted), otherwise
    /// scans its access set.
    fn enumerate_atom(
        &mut self,
        a: u32,
        on_solution: &mut dyn FnMut(&[Option<Const>]) -> bool,
    ) -> bool {
        let body = self.body;
        let atom = &body[a as usize];
        let view = self.view;
        let mut keep = true;
        macro_rules! visit {
            ($id:expr) => {{
                let fact = view.atom($id);
                if fact.rel == atom.rel && self.consistent(atom, fact) {
                    self.fast_bound.clear();
                    for (pos, &t) in atom.args.iter().enumerate() {
                        if let Term::Var(v) = t {
                            let s = v.index();
                            if self.binding[s].is_none() {
                                self.binding[s] = Some(fact.args[pos]);
                                self.fast_bound.push(s as u32);
                            }
                        }
                    }
                    keep = on_solution(&self.binding);
                    while let Some(s) = self.fast_bound.pop() {
                        self.binding[s as usize] = None;
                    }
                    if !keep {
                        break;
                    }
                }
            }};
        }
        if let Some((s, e)) = self.support[a as usize] {
            let mut ids = std::mem::take(&mut self.replay);
            ids.clear();
            ids.extend_from_slice(&self.support_buf[s..e]);
            for &id in &ids {
                visit!(id);
            }
            self.replay = ids;
            return keep;
        }
        match self.access(a) {
            Access::Slice(ids) => {
                for &id in ids {
                    self.nodes += 1;
                    if view.visible(id) {
                        visit!(id);
                    }
                }
            }
            Access::Mask(m) => {
                for id in m {
                    self.nodes += 1;
                    visit!(id);
                }
            }
        }
        keep
    }

    /// Depth-first variable-at-a-time search. `on_solution` returns `true`
    /// to keep searching; `step` returns `false` iff stopped early.
    fn step(
        &mut self,
        unbound: usize,
        on_solution: &mut dyn FnMut(&[Option<Const>]) -> bool,
    ) -> bool {
        if unbound == 0 {
            return on_solution(&self.binding);
        }
        if let Some(a) = self.sole_open_atom() {
            return self.enumerate_atom(a, on_solution);
        }
        // Refresh dirty estimates and pick the smallest-estimate variable.
        // Ties go to the variable covered by the most constraints — a join
        // variable prunes sibling constraints when bound, a dangling one
        // only branches — then to the lowest slot (deterministic).
        let nv = self.binding.len();
        let mut pick = usize::MAX;
        let mut best = usize::MAX;
        let mut best_cover = 0usize;
        for s in 0..nv {
            if !self.present[s] || self.binding[s].is_some() {
                continue;
            }
            if self.dirty[s] {
                self.est[s] = self.estimate_var(s);
                self.dirty[s] = false;
            }
            let e = self.est[s].0;
            let c = self.cover[s].len();
            if e < best || (e == best && c > best_cover) {
                best = e;
                best_cover = c;
                pick = s;
            }
        }
        debug_assert!(pick != usize::MAX, "unbound > 0 implies an unbound var");
        let v = pick;
        let proposer = self.est[v].1;
        let atom = &self.body[proposer as usize];
        let vpos = atom
            .args
            .iter()
            .position(|&t| t == Term::Var(VarId(v as u32)))
            .expect("proposing constraint covers the variable");
        let proposer_open_elsewhere = atom.args.iter().any(
            |&t| matches!(t, Term::Var(u) if u.index() != v && self.binding[u.index()].is_none()),
        );
        if !proposer_open_elsewhere {
            // `v` is the proposer's last unbound variable: the proposer
            // never proposes again below here, so no support is needed —
            // stream values straight off the scan and let goal-directed
            // searches stop mid-scan.
            return self.step_streaming(v, proposer, vpos, unbound, on_solution);
        }
        if self.goal && self.est[v].0 > GOAL_EAGER_MAX {
            // Goal-directed and the eager scan would be expensive: stream
            // and accept that deeper re-proposals of this constraint must
            // re-scan (no support recorded). A shallow witness — the
            // common case for membership checks — then stops mid-scan
            // instead of paying the full access set up front.
            return self.step_streaming(v, proposer, vpos, unbound, on_solution);
        }
        // Propose: collect the proposer's consistent (value, fact) pairs,
        // sorted so the branch order is deterministic regardless of index
        // or mask iteration order.
        let mut pairs = std::mem::take(&mut self.pairs[unbound - 1]);
        pairs.clear();
        self.collect(proposer, vpos, &mut pairs);
        pairs.sort_unstable();
        let mut keep = true;
        let mut i = 0;
        while i < pairs.len() {
            let val = pairs[i].0;
            let mut j = i;
            // The run of facts carrying `val` becomes the proposer's
            // support while this value is bound: only those facts can
            // still match it deeper in the search.
            let start = self.support_buf.len();
            while j < pairs.len() && pairs[j].0 == val {
                self.support_buf.push(pairs[j].1);
                j += 1;
            }
            let end = self.support_buf.len();
            let saved = self.support[proposer as usize];
            self.support[proposer as usize] = Some((start, end));
            keep = self.try_value(v, proposer, val, unbound, on_solution);
            self.support[proposer as usize] = saved;
            self.support_buf.truncate(start);
            i = j;
            if !keep {
                break;
            }
        }
        self.pairs[unbound - 1] = pairs;
        keep
    }

    /// Streaming proposal path: try each distinct value for `v` as the
    /// scan produces it (dedup through the per-level seen-set), recording
    /// no support. Used when binding `v` grounds the proposer (no support
    /// will ever be consulted), and for expensive goal-directed proposals
    /// (paying a possible deeper re-scan to keep the early exit).
    fn step_streaming(
        &mut self,
        v: usize,
        proposer: u32,
        vpos: usize,
        unbound: usize,
        on_solution: &mut dyn FnMut(&[Option<Const>]) -> bool,
    ) -> bool {
        let body = self.body;
        let atom = &body[proposer as usize];
        let view = self.view;
        let mut seen = std::mem::take(&mut self.seen[unbound - 1]);
        seen.clear();
        let mut keep = true;
        if let Some((s, e)) = self.support[proposer as usize] {
            // Replay the support recorded by a shallower scan of this
            // constraint — already inspected and counted there.
            let mut ids = std::mem::take(&mut self.replay);
            ids.clear();
            ids.extend_from_slice(&self.support_buf[s..e]);
            for &id in &ids {
                let fact = view.atom(id);
                if self.consistent(atom, fact) && seen.insert(fact.args[vpos]) {
                    keep = self.try_value(v, proposer, fact.args[vpos], unbound, on_solution);
                    if !keep {
                        break;
                    }
                }
            }
            self.replay = ids;
        } else {
            match self.access(proposer) {
                Access::Slice(ids) => {
                    for &id in ids {
                        self.nodes += 1;
                        if !view.visible(id) {
                            continue;
                        }
                        let fact = view.atom(id);
                        if self.consistent(atom, fact) && seen.insert(fact.args[vpos]) {
                            keep =
                                self.try_value(v, proposer, fact.args[vpos], unbound, on_solution);
                            if !keep {
                                break;
                            }
                        }
                    }
                }
                Access::Mask(m) => {
                    for id in m {
                        self.nodes += 1;
                        let fact = view.atom(id);
                        if fact.rel == atom.rel
                            && self.consistent(atom, fact)
                            && seen.insert(fact.args[vpos])
                        {
                            keep =
                                self.try_value(v, proposer, fact.args[vpos], unbound, on_solution);
                            if !keep {
                                break;
                            }
                        }
                    }
                }
            }
        }
        self.seen[unbound - 1] = seen;
        keep
    }

    /// Collects the proposer's consistent visible facts paired with their
    /// value at `vpos` — replaying the atom's active support if one exists
    /// (those candidates were inspected and counted by the scan that built
    /// it), otherwise scanning its access set (counted per candidate).
    fn collect(&mut self, a: u32, vpos: usize, out: &mut Vec<(Const, AtomId)>) {
        let body = self.body;
        let atom = &body[a as usize];
        let view = self.view;
        if let Some((s, e)) = self.support[a as usize] {
            let mut ids = std::mem::take(&mut self.replay);
            ids.clear();
            ids.extend_from_slice(&self.support_buf[s..e]);
            for &id in &ids {
                let fact = view.atom(id);
                if self.consistent(atom, fact) {
                    out.push((fact.args[vpos], id));
                }
            }
            self.replay = ids;
            return;
        }
        match self.access(a) {
            Access::Slice(ids) => {
                for &id in ids {
                    self.nodes += 1;
                    if !view.visible(id) {
                        continue;
                    }
                    let fact = view.atom(id);
                    if self.consistent(atom, fact) {
                        out.push((fact.args[vpos], id));
                    }
                }
            }
            Access::Mask(m) => {
                for id in m {
                    self.nodes += 1;
                    let fact = view.atom(id);
                    if fact.rel == atom.rel && self.consistent(atom, fact) {
                        out.push((fact.args[vpos], id));
                    }
                }
            }
        }
    }

    /// Binds `v := val` and recurses. Covering constraints that became
    /// fully ground are confirmed in O(1) each — except the proposer,
    /// which is witnessed by the very facts in its support. Still-open
    /// constraints are instead screened by the zero-estimate check (pure
    /// lookups): each is fully checked when its own last variable binds
    /// (or enumerated directly by the single-atom fast path). Returns
    /// `false` iff the search stopped early.
    fn try_value(
        &mut self,
        v: usize,
        proposer: u32,
        val: Const,
        unbound: usize,
        on_solution: &mut dyn FnMut(&[Option<Const>]) -> bool,
    ) -> bool {
        self.binding[v] = Some(val);
        let mut ok = true;
        let cov = std::mem::take(&mut self.cover[v]);
        for &a in &cov {
            if a != proposer && self.confirm_ground(a) == Some(false) {
                ok = false;
                break;
            }
        }
        self.cover[v] = cov;
        let mut keep = true;
        if ok && !self.some_constraint_dead() {
            let mark = self.undo.len();
            self.invalidate_influenced(v);
            keep = self.step(unbound - 1, on_solution);
            self.restore(mark);
        }
        self.binding[v] = None;
        keep
    }
}

/// All answers of `cq` over `view` — guided evaluation.
pub fn answers(view: View<'_>, cq: &SrcCq) -> FxHashSet<Box<[Const]>> {
    let mut g = Guided::new(view, cq);
    let mut out: FxHashSet<Box<[Const]>> = FxHashSet::default();
    if g.ground_ok() {
        let unbound = g.unbound_count();
        g.step(unbound, &mut |b| {
            let tuple: Box<[Const]> = cq
                .head()
                .iter()
                .map(|&v| b[v.index()].expect("head var bound by safety"))
                .collect();
            out.insert(tuple);
            true
        });
    }
    out
}

/// Whether `tuple` is an answer of `cq` over `view` — guided evaluation,
/// head variables pre-bound (goal-directed).
pub fn satisfies(view: View<'_>, cq: &SrcCq, tuple: &[Const]) -> bool {
    if tuple.len() != cq.arity() {
        return false;
    }
    let mut g = Guided::new(view, cq);
    g.goal = true;
    if !g.bind_tuple(cq.head(), tuple) || !g.ground_ok() {
        return false;
    }
    let unbound = g.unbound_count();
    let mut found = false;
    g.step(unbound, &mut |_| {
        found = true;
        false
    });
    found
}

/// Like [`satisfies`], but returns the database atoms (one per body atom,
/// in body order) grounding the first embedding found. The guided and
/// legacy evaluators may pick *different* (both valid) witnesses.
pub fn witness(view: View<'_>, cq: &SrcCq, tuple: &[Const]) -> Option<Vec<AtomId>> {
    if tuple.len() != cq.arity() {
        return None;
    }
    let mut g = Guided::new(view, cq);
    g.goal = true;
    if !g.bind_tuple(cq.head(), tuple) || !g.ground_ok() {
        return None;
    }
    let unbound = g.unbound_count();
    let mut sol: Option<Vec<Option<Const>>> = None;
    g.step(unbound, &mut |b| {
        sol = Some(b.to_vec());
        false
    });
    let sol = sol?;
    ground_witness(&mut g, &sol)
}

/// Grounds each body atom against a complete solution: for every atom,
/// the first visible fact matching its fully resolved arguments.
fn ground_witness(g: &mut Guided<'_, '_>, sol: &[Option<Const>]) -> Option<Vec<AtomId>> {
    let body = g.body;
    let view = g.view;
    let db = view.db();
    let mut out = Vec::with_capacity(body.len());
    for atom in body {
        // Resolve the atom to ground constants under the solution.
        let resolved: Vec<Const> = atom
            .args
            .iter()
            .map(|&t| match t {
                Term::Const(c) => c,
                Term::Var(v) => sol[v.index()].expect("solution binds all body vars"),
            })
            .collect();
        // Probe the most selective position index.
        let mut best = db.count_of(atom.rel);
        let mut best_pos = None;
        for (pos, &c) in resolved.iter().enumerate() {
            let n = db.count_with(atom.rel, pos, c);
            if n < best {
                best = n;
                best_pos = Some(pos);
            }
        }
        let ids = match best_pos {
            Some(pos) => db.atoms_with(atom.rel, pos, resolved[pos]),
            None => db.atoms_of(atom.rel),
        };
        let mut found = None;
        for &id in ids {
            g.nodes += 1;
            if !view.visible(id) {
                continue;
            }
            let fact = view.atom(id);
            if fact.args.len() == resolved.len() && fact.args.iter().eq(resolved.iter()) {
                found = Some(id);
                break;
            }
        }
        out.push(found?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::var;
    use obx_srcdb::{Database, Schema};

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
    fn guided_agrees_with_legacy_on_joins() {
        let db = students_db();
        let enr = db.schema().rel("ENR").unwrap();
        let loc = db.schema().rel("LOC").unwrap();
        let rome = c(&db, "Rome");
        let q = SrcCq::new(
            vec![VarId(0)],
            vec![
                SrcAtom::new(enr, [var(0), var(1), var(2)]),
                SrcAtom::new(loc, [var(2), Term::Const(rome)]),
            ],
        )
        .unwrap();
        let view = View::full(&db);
        assert_eq!(answers(view, &q), crate::eval::answers_legacy(view, &q));
        for name in ["A10", "B80", "C12", "D50", "E25", "Milan"] {
            let t = [c(&db, name)];
            assert_eq!(
                satisfies(view, &q, &t),
                crate::eval::satisfies_legacy(view, &q, &t),
                "satisfies mismatch for {name}"
            );
            assert_eq!(
                witness(view, &q, &t).is_some(),
                crate::eval::witness_legacy(view, &q, &t).is_some(),
                "witness mismatch for {name}"
            );
        }
    }

    #[test]
    fn guided_witness_grounds_the_body_in_order() {
        let db = students_db();
        let enr = db.schema().rel("ENR").unwrap();
        let loc = db.schema().rel("LOC").unwrap();
        let rome = c(&db, "Rome");
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
        let w0 = db.atom(w[0]);
        let w1 = db.atom(w[1]);
        assert_eq!(w0.rel, enr);
        assert_eq!(w0.args[0], a10);
        assert_eq!(w1.rel, loc);
        assert_eq!(w1.args[1], rome);
        assert_eq!(w0.args[2], w1.args[0]);
    }

    #[test]
    fn guided_respects_masks_and_repeated_vars() {
        let mut schema = Schema::new();
        schema.declare("E", 2).unwrap();
        let mut db = Database::new(schema);
        let aa = db.insert_named("E", &["a", "a"]).unwrap();
        db.insert_named("E", &["a", "b"]).unwrap();
        db.insert_named("E", &["b", "b"]).unwrap();
        let e = db.schema().rel("E").unwrap();
        let q = SrcCq::new(vec![VarId(0)], vec![SrcAtom::new(e, [var(0), var(0)])]).unwrap();
        let full = answers(View::full(&db), &q);
        assert_eq!(full.len(), 2);
        let mask = AtomSet::from_ids(db.len(), [aa]);
        let masked = answers(View::masked(&db, &mask), &q);
        assert_eq!(masked.len(), 1);
        assert!(masked.contains(&vec![c(&db, "a")].into_boxed_slice()));
    }

    #[test]
    fn guided_handles_ground_guards_and_cross_products() {
        let db = students_db();
        let stud = db.schema().rel("STUD").unwrap();
        let loc = db.schema().rel("LOC").unwrap();
        let sap = c(&db, "Sap");
        let rome = c(&db, "Rome");
        let milan = c(&db, "Milan");
        let q_true = SrcCq::new(
            vec![VarId(0)],
            vec![
                SrcAtom::new(stud, [var(0)]),
                SrcAtom::new(loc, [Term::Const(sap), Term::Const(rome)]),
            ],
        )
        .unwrap();
        let q_false = SrcCq::new(
            vec![VarId(0)],
            vec![
                SrcAtom::new(stud, [var(0)]),
                SrcAtom::new(loc, [Term::Const(sap), Term::Const(milan)]),
            ],
        )
        .unwrap();
        let view = View::full(&db);
        assert_eq!(answers(view, &q_true).len(), 5);
        assert!(answers(view, &q_false).is_empty());
        let q_cross = SrcCq::new(
            vec![VarId(0), VarId(1)],
            vec![SrcAtom::new(stud, [var(0)]), SrcAtom::new(stud, [var(1)])],
        )
        .unwrap();
        assert_eq!(answers(view, &q_cross).len(), 25);
    }

    #[test]
    fn guided_counts_nodes() {
        let db = students_db();
        let stud = db.schema().rel("STUD").unwrap();
        let q = SrcCq::new(vec![VarId(0)], vec![SrcAtom::new(stud, [var(0)])]).unwrap();
        let before = crate::eval::node_counts().1;
        answers(View::full(&db), &q);
        let after = crate::eval::node_counts().1;
        assert!(after > before, "guided node counter must advance");
    }
}

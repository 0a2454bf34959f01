//! J-matching (Definition 3.4) and per-query match statistics.
//!
//! `q` J-matches `B_{t,r}(D)` iff `t ∈ cert(q, J, B_{t,r}(D))` — the tuple
//! must be a certain answer of `q` over the sub-database made of its own
//! border. [`PreparedLabels`] computes every labelled tuple's border once
//! (they are query-independent) into a system-free [`LabelBorders`] that
//! every request at one radius on one served epoch can share, so scoring
//! a candidate costs one compile plus one batched evaluator call
//! ([`obx_query::eval::satisfies_ucq_each`]) per candidate disjunct: the
//! compiled source UCQ is checked against every labelled tuple at once,
//! over each tuple's border-masked view, or over the whole database where
//! a source disjunct is certified at the radius and the borders are
//! complete (the masks are then a no-op). The search buffers are
//! allocated once per source disjunct rather than once per tuple.

use crate::labels::Labels;
use obx_obdm::{CompiledQuery, ObdmError, ObdmSystem};
use obx_query::{Cutoff, Goal, OntoUcq, SrcCq, SrcUcq};
use obx_srcdb::{AtomSet, Bitmap, Const, Tuple, View};
use obx_util::FxHashMap;
use std::sync::{Arc, OnceLock};

/// Confusion counts of a query against λ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatchStats {
    /// `|{t ∈ λ⁺ : q J-matches B_{t,r}}|` — true positives.
    pub pos_matched: usize,
    /// `|λ⁺|`.
    pub pos_total: usize,
    /// `|{t ∈ λ⁻ : q J-matches B_{t,r}}|` — false positives.
    pub neg_matched: usize,
    /// `|λ⁻|`.
    pub neg_total: usize,
}

impl MatchStats {
    /// Fraction of λ⁺ matched (the paper's `f_{δ1}`); 0 when λ⁺ is empty.
    pub fn pos_fraction(&self) -> f64 {
        if self.pos_total == 0 {
            0.0
        } else {
            self.pos_matched as f64 / self.pos_total as f64
        }
    }

    /// Fraction of λ⁻ matched; 0 when λ⁻ is empty (so `f_{δ4}` = 1).
    pub fn neg_fraction(&self) -> f64 {
        if self.neg_total == 0 {
            0.0
        } else {
            self.neg_matched as f64 / self.neg_total as f64
        }
    }

    /// Whether the query *perfectly separates* λ⁺ from λ⁻ (conditions (1)
    /// and (2) of §3 — which Example 3.6 shows may be unattainable).
    pub fn perfect(&self) -> bool {
        self.pos_matched == self.pos_total && self.neg_matched == 0
    }

    /// Precision over the labelled tuples.
    pub fn precision(&self) -> f64 {
        let predicted = self.pos_matched + self.neg_matched;
        if predicted == 0 {
            0.0
        } else {
            self.pos_matched as f64 / predicted as f64
        }
    }

    /// Recall over λ⁺ (same as [`MatchStats::pos_fraction`]).
    pub fn recall(&self) -> f64 {
        self.pos_fraction()
    }

    /// F1 over the labelled tuples.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Bits covered by one hybrid container (roaring's 2¹⁶ chunking).
const CONTAINER_BITS: usize = 1 << 16;

/// Array-container capacity threshold: above this popcount a container
/// converts to dense words. 4096 × `u16` = 8 KiB = the words form of a
/// full container, i.e. exactly roaring's memory crossover.
const ARRAY_MAX: usize = 4096;

/// One 2¹⁶-bit chunk of a [`MatchBits`], in **canonical hybrid form**:
/// `Array` iff the popcount is ≤ [`ARRAY_MAX`] (so structurally equal
/// containers ⇔ semantically equal bit sets, and the derived `Eq` on
/// [`MatchBits`] stays exact). Bits are only ever set, never cleared, so
/// the `Array → Words` conversion is monotone and `Words` never needs to
/// shrink back.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Container {
    /// Sorted, deduplicated in-container offsets.
    Array(Vec<u16>),
    /// Dense words (popcount > [`ARRAY_MAX`]).
    Words(Box<[u64]>),
}

impl Container {
    fn empty() -> Self {
        Container::Array(Vec::new())
    }

    fn count(&self) -> usize {
        match self {
            Container::Array(v) => v.len(),
            Container::Words(w) => w.iter().map(|x| x.count_ones() as usize).sum(),
        }
    }

    /// Popcount of the offsets strictly below `limit` (for the pos/neg
    /// boundary in [`MatchBits::stats`]).
    fn count_below(&self, limit: usize) -> usize {
        match self {
            Container::Array(v) => v.partition_point(|&e| (e as usize) < limit),
            Container::Words(w) => {
                let mut n = 0usize;
                for (i, &word) in w.iter().enumerate() {
                    let base = i * 64;
                    if base + 64 <= limit {
                        n += word.count_ones() as usize;
                    } else if base < limit {
                        let keep = limit - base;
                        n += (word & ((1u64 << keep) - 1)).count_ones() as usize;
                    }
                }
                n
            }
        }
    }

    fn get(&self, off: u16) -> bool {
        match self {
            Container::Array(v) => v.binary_search(&off).is_ok(),
            Container::Words(w) => w[off as usize / 64] >> (off % 64) & 1 == 1,
        }
    }

    /// Dense-words form of this container (`bits` = bits it covers).
    fn to_words(&self, bits: usize) -> Box<[u64]> {
        match self {
            Container::Array(v) => {
                let mut w = vec![0u64; bits.div_ceil(64)].into_boxed_slice();
                for &off in v {
                    w[off as usize / 64] |= 1u64 << (off % 64);
                }
                w
            }
            Container::Words(w) => w.clone(),
        }
    }

    /// Sets `off`, converting to words past the density threshold.
    fn set(&mut self, off: u16, bits: usize) {
        match self {
            Container::Array(v) => {
                if let Err(at) = v.binary_search(&off) {
                    v.insert(at, off);
                    if v.len() > ARRAY_MAX {
                        *self = Container::Words(self.to_words(bits));
                    }
                }
            }
            Container::Words(w) => w[off as usize / 64] |= 1u64 << (off % 64),
        }
    }

    /// ORs `other` in, keeping canonical hybrid form.
    fn union_with(&mut self, other: &Container, bits: usize) {
        match (&mut *self, other) {
            (Container::Array(a), Container::Array(b)) => {
                // In-order merge of two sorted, deduplicated sequences.
                let mut merged = Vec::with_capacity(a.len() + b.len());
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => {
                            merged.push(a[i]);
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            merged.push(b[j]);
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            merged.push(a[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                merged.extend_from_slice(&a[i..]);
                merged.extend_from_slice(&b[j..]);
                if merged.len() > ARRAY_MAX {
                    *self = Container::Words(Container::Array(merged).to_words(bits));
                } else {
                    *a = merged;
                }
            }
            (Container::Array(a), Container::Words(o)) => {
                // `other` is over-threshold, so the union is too.
                let mut w = o.clone();
                for &off in a.iter() {
                    w[off as usize / 64] |= 1u64 << (off % 64);
                }
                *self = Container::Words(w);
            }
            (Container::Words(w), Container::Array(b)) => {
                for &off in b {
                    w[off as usize / 64] |= 1u64 << (off % 64);
                }
            }
            (Container::Words(w), Container::Words(o)) => {
                for (x, y) in w.iter_mut().zip(o.iter()) {
                    *x |= y;
                }
            }
        }
    }

    fn is_subset_of(&self, other: &Container) -> bool {
        match (self, other) {
            (Container::Array(a), Container::Array(b)) => {
                // Two-pointer walk over the sorted sequences.
                let mut j = 0usize;
                for &x in a {
                    while j < b.len() && b[j] < x {
                        j += 1;
                    }
                    if j == b.len() || b[j] != x {
                        return false;
                    }
                    j += 1;
                }
                true
            }
            (Container::Array(a), Container::Words(w)) => a
                .iter()
                .all(|&off| w[off as usize / 64] >> (off % 64) & 1 == 1),
            // Canonical form: a words container has popcount > ARRAY_MAX,
            // an array container at most ARRAY_MAX — never a superset.
            (Container::Words(_), Container::Array(_)) => false,
            (Container::Words(w), Container::Words(o)) => {
                w.iter().zip(o.iter()).all(|(x, y)| x & !y == 0)
            }
        }
    }
}

/// Per-label match bitset of a query: one bit per labelled tuple, the
/// positives first (bit `i` ↔ `pos()[i]`), then the negatives (bit
/// `num_pos + j` ↔ `neg()[j]`).
///
/// This is the currency of the scoring engine (`crate::engine`): because
/// J-matching distributes over a UCQ's disjuncts, the bitset of any union
/// is the OR of its disjuncts' bitsets ([`MatchBits::union_with`]), and
/// [`MatchStats`] fall out of two popcounts ([`MatchBits::stats`]) — no
/// evaluator calls.
///
/// Internally a hand-rolled roaring-style hybrid: the index space is
/// chunked into 2¹⁶-bit containers, each a sorted `u16` array while
/// sparse and dense words once its popcount crosses [`ARRAY_MAX`]. A
/// query matching few of a million labelled tuples costs `O(matches)`
/// memory instead of `len / 8` bytes, which is what keeps a memo cache
/// of thousands of disjunct bitsets affordable at scale. Containers are
/// kept canonical (array ⇔ sparse), so the derived `Eq` remains exact
/// semantic equality — the equivalence suites compare `MatchBits` values
/// produced by different evaluation paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchBits {
    num_pos: usize,
    num_neg: usize,
    containers: Vec<Container>,
}

impl MatchBits {
    /// An all-zero bitset shaped for `num_pos` positives and `num_neg`
    /// negatives.
    pub fn empty(num_pos: usize, num_neg: usize) -> Self {
        let n = (num_pos + num_neg).div_ceil(CONTAINER_BITS);
        Self {
            num_pos,
            num_neg,
            containers: vec![Container::empty(); n],
        }
    }

    /// Bits covered by container `i` (the last container may be partial).
    #[inline]
    fn container_bits(&self, i: usize) -> usize {
        (self.len() - i * CONTAINER_BITS).min(CONTAINER_BITS)
    }

    /// Total number of labelled tuples tracked.
    pub fn len(&self) -> usize {
        self.num_pos + self.num_neg
    }

    /// Whether no tuple is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Marks tuple `idx` (layout order: positives, then negatives) matched.
    ///
    /// `idx` indexes the label set this bitset was shaped for, so it is
    /// below [`MatchBits::len`]: every caller derives it from the same
    /// `num_pos`/`num_neg` (a tuple's position in `PreparedLabels`, or a
    /// loop over `0..len()`). Bits past `len()` in the last container are
    /// padding that popcounts must not see, and an index into them is a
    /// caller bug, so the check stays on in release builds rather than
    /// corrupt the padding or read a neighbouring container.
    pub fn set(&mut self, idx: usize) {
        assert!(idx < self.len(), "bit {idx} out of range {}", self.len());
        let bits = self.container_bits(idx / CONTAINER_BITS);
        self.containers[idx / CONTAINER_BITS].set((idx % CONTAINER_BITS) as u16, bits);
    }

    /// Whether tuple `idx` is matched. `idx < len()`, by the invariant
    /// [`MatchBits::set`] states; the check is kept for the same reason.
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len(), "bit {idx} out of range {}", self.len());
        self.containers[idx / CONTAINER_BITS].get((idx % CONTAINER_BITS) as u16)
    }

    /// ORs `other` in: afterwards this bitset matches the *union* of the
    /// two queries. A bitset shaped for a different label set is an
    /// [`ObdmError::LabelShape`] error, and `self` is left unchanged.
    pub fn union_with(&mut self, other: &MatchBits) -> Result<(), ObdmError> {
        check_shape(other, self.num_pos, self.num_neg, "union operand")?;
        for i in 0..self.containers.len() {
            let bits = self.container_bits(i);
            self.containers[i].union_with(&other.containers[i], bits);
        }
        Ok(())
    }

    /// The matched tuples' indices (layout order), ascending.
    fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.containers.iter().enumerate().flat_map(|(i, c)| {
            let base = i * CONTAINER_BITS;
            let offs: Box<dyn Iterator<Item = usize> + '_> = match c {
                Container::Array(v) => Box::new(v.iter().map(|&off| off as usize)),
                Container::Words(w) => Box::new(w.iter().enumerate().flat_map(|(k, &word)| {
                    (0..64)
                        .filter(move |b| word >> b & 1 == 1)
                        .map(move |b| k * 64 + b)
                })),
            };
            offs.map(move |off| base + off)
        })
    }

    /// Number of matched tuples (positives and negatives together).
    pub fn count_ones(&self) -> usize {
        self.containers.iter().map(Container::count).sum()
    }

    /// Whether every tuple matched here is also matched by `other` — the
    /// refinement-monotonicity invariant (`crate::prune`): a
    /// specialization child's bits are a subset of its parent's, a
    /// generalization child's a superset. A bitset shaped for a different
    /// label set is an [`ObdmError::LabelShape`] error.
    pub fn is_subset_of(&self, other: &MatchBits) -> Result<bool, ObdmError> {
        check_shape(other, self.num_pos, self.num_neg, "compared")?;
        Ok(self
            .containers
            .iter()
            .zip(other.containers.iter())
            .all(|(a, b)| a.is_subset_of(b)))
    }

    /// The confusion counts: popcount of the positive region and of the
    /// negative region.
    pub fn stats(&self) -> MatchStats {
        let mut pos_matched = 0usize;
        let mut total_matched = 0usize;
        for (i, c) in self.containers.iter().enumerate() {
            total_matched += c.count();
            let base = i * CONTAINER_BITS;
            if base + CONTAINER_BITS <= self.num_pos {
                pos_matched += c.count();
            } else if base < self.num_pos {
                // The container straddling the pos/neg boundary.
                pos_matched += c.count_below(self.num_pos - base);
            }
        }
        MatchStats {
            pos_matched,
            pos_total: self.num_pos,
            neg_matched: total_matched - pos_matched,
            neg_total: self.num_neg,
        }
    }
}

/// `Ok` when `bits` is shaped for `num_pos` positives and `num_neg`
/// negatives, else the [`ObdmError::LabelShape`] error naming both shapes.
fn check_shape(
    bits: &MatchBits,
    num_pos: usize,
    num_neg: usize,
    what: &str,
) -> Result<(), ObdmError> {
    if (bits.num_pos, bits.num_neg) == (num_pos, num_neg) {
        return Ok(());
    }
    Err(ObdmError::LabelShape {
        detail: format!(
            "{what} bitset has {}+/{}- labels, expected {num_pos}+/{num_neg}-",
            bits.num_pos, bits.num_neg
        ),
    })
}

/// Evaluator work behind one match bitset.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EvalWork {
    /// Labelled tuples the call was asked to decide: the open tuples of
    /// its [`Prior`] (a parent-delta bitset settles the rest).
    pub(crate) asked: usize,
    /// Labelled tuples the evaluator searched: all `asked` ones, unless
    /// a cutoff stopped the call during its first source disjunct.
    pub(crate) evaluated: usize,
    /// Source disjuncts answered over the whole database, their border
    /// masks proven a no-op ([`obx_query::eval::certified`]).
    pub(crate) certified: usize,
    /// Source disjuncts that searched border-masked views.
    pub(crate) masked: usize,
    /// Candidate atoms the evaluator inspected.
    pub(crate) nodes: u64,
}

/// What is known of a candidate's match bits before, or partway
/// through, its evaluation: the labelled tuples known to match (`bits`),
/// and the tuples still *open*. Every tuple neither set nor open is known
/// not to match. A parent's bits narrow it ([`Prior::refining`]), so does an
/// earlier, stopped evaluation of the same source query
/// ([`Prior::learn`]); its [`CountBox`] is where the candidate's counts
/// can still land.
///
/// [`CountBox`]: crate::prune::CountBox
#[derive(Debug, Clone)]
pub(crate) struct Prior {
    bits: MatchBits,
    open: Vec<bool>,
}

impl Prior {
    /// Nothing known: every tuple open.
    pub(crate) fn unknown(num_pos: usize, num_neg: usize) -> Self {
        Prior {
            bits: MatchBits::empty(num_pos, num_neg),
            open: vec![true; num_pos + num_neg],
        }
    }

    /// What a refinement parent's bits settle: a specialization matches
    /// a subset of them (the parent's zeros are misses, its ones open), a
    /// generalization a superset (the parent's ones are hits, its zeros
    /// open). A parent shaped for another label set is an
    /// [`ObdmError::LabelShape`] error.
    pub(crate) fn refining(
        parent: &MatchBits,
        dir: crate::prune::RefineDir,
        num_pos: usize,
        num_neg: usize,
    ) -> Result<Self, ObdmError> {
        check_shape(parent, num_pos, num_neg, "parent")?;
        let mut prior = Prior {
            bits: MatchBits::empty(num_pos, num_neg),
            open: vec![dir == crate::prune::RefineDir::Generalize; num_pos + num_neg],
        };
        for i in parent.ones() {
            match dir {
                crate::prune::RefineDir::Specialize => prior.open[i] = true,
                crate::prune::RefineDir::Generalize => {
                    prior.bits.set(i);
                    prior.open[i] = false;
                }
            }
        }
        Ok(prior)
    }

    /// Narrows by what another evaluation of the same source query
    /// settled.
    pub(crate) fn learn(&mut self, other: &Prior) -> Result<(), ObdmError> {
        self.bits.union_with(&other.bits)?;
        for (open, &still) in self.open.iter_mut().zip(&other.open) {
            *open &= still;
        }
        Ok(())
    }

    /// The counts the candidate can still reach: its known hits, plus
    /// any of its open tuples.
    pub(crate) fn count_box(&self) -> crate::prune::CountBox {
        let known = self.bits.stats();
        let (open_pos, open_neg) = self.open.split_at(self.bits.num_pos);
        let count = |side: &[bool]| side.iter().filter(|&&o| o).count();
        crate::prune::CountBox {
            pos_lo: known.pos_matched,
            pos_hi: known.pos_matched + count(open_pos),
            pos_total: known.pos_total,
            neg_lo: known.neg_matched,
            neg_hi: known.neg_matched + count(open_neg),
            neg_total: known.neg_total,
        }
    }

    /// Whether no tuple is open: the known hits are the bits.
    pub(crate) fn is_settled(&self) -> bool {
        !self.open.contains(&true)
    }

    /// The known hits: the candidate's bits once no tuple is open.
    pub(crate) fn into_bits(self) -> MatchBits {
        self.bits
    }
}

/// One evaluation of a [`Prior`]'s open tuples.
pub(crate) struct Evaluation {
    /// What is known after the call; nothing is open unless `stopped`.
    pub(crate) known: Prior,
    /// Whether the call exceeded its cutoff, so the candidate scores
    /// below the cut the cutoff was built for.
    pub(crate) stopped: bool,
    /// The evaluator work it took.
    pub(crate) work: EvalWork,
}

/// The system-free half of [`PreparedLabels`]: λ's tuples with their
/// borders `B_{t,r}(D)` at one radius, and the constant ranking over those
/// borders. Borders depend only on Σ, λ and `r`, so a served epoch keeps
/// one of these behind an `Arc` and hands it to every request at that
/// radius (`crate::service::PrepareSlot`). It holds no reference to the
/// system; pair it only with the system and labels it was built from
/// ([`PreparedLabels::from_borders`]).
pub struct LabelBorders {
    radius: usize,
    /// λ's arity, `None` when λ is empty.
    arity: Option<usize>,
    pos: Vec<(Tuple, Arc<AtomSet>)>,
    neg: Vec<(Tuple, Arc<AtomSet>)>,
    /// Per labelled tuple (layout order): whether its border is all of
    /// `B_{t,radius}(D)`, i.e. no layer was cut by an interrupt or the
    /// border-atom guard.
    complete: Vec<bool>,
    /// Each distinct border once, with its net multiplicity: the number
    /// of positive tuples that have it minus the number of negative ones.
    distinct: Vec<(Arc<AtomSet>, i64)>,
    /// The full [`PreparedLabels::relevant_constants`] ranking, built on
    /// first use and shared by every holder of these borders.
    ranking: OnceLock<Vec<Const>>,
}

impl LabelBorders {
    /// Computes `B_{t,radius}(D)` for every labelled tuple under
    /// `interrupt` (see [`PreparedLabels::new_interruptible`]).
    fn build(
        system: &ObdmSystem,
        labels: &Labels,
        radius: usize,
        interrupt: &obx_util::Interrupt,
    ) -> Self {
        let tuples = labels.pos().iter().chain(labels.neg());
        let borders = obx_srcdb::borders(
            system.db(),
            tuples.clone().map(|t| &t[..]),
            radius,
            interrupt,
        );
        // Tuples around the same hubs often share their whole border;
        // equal sets are stored once.
        let mut index: FxHashMap<Arc<AtomSet>, usize> = FxHashMap::default();
        let mut distinct: Vec<(Arc<AtomSet>, i64)> = Vec::new();
        let mut pos = Vec::with_capacity(labels.pos().len());
        let mut neg = Vec::with_capacity(labels.neg().len());
        let complete = borders
            .iter()
            .map(|b| b.layer_lens.len() == radius + 1)
            .collect();
        for (i, (t, border)) in tuples.zip(borders).enumerate() {
            let next = distinct.len();
            let k = *index
                .entry(Arc::new(border.atoms))
                .or_insert_with_key(|set| {
                    distinct.push((Arc::clone(set), 0));
                    next
                });
            let entry = (t.clone(), Arc::clone(&distinct[k].0));
            if i < labels.pos().len() {
                distinct[k].1 += 1;
                pos.push(entry);
            } else {
                distinct[k].1 -= 1;
                neg.push(entry);
            }
        }
        Self {
            radius,
            arity: labels.arity(),
            pos,
            neg,
            complete,
            distinct,
            ranking: OnceLock::new(),
        }
    }

    /// The radius `r` of the borders.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Whether every labelled tuple's border is all of `B_{t,r}(D)`: no
    /// deadline, cancellation or resource guard cut a layer short.
    pub fn is_complete(&self) -> bool {
        self.complete.iter().all(|&c| c)
    }

    /// Approximate heap bytes held: each distinct border set once, the
    /// labelled tuples and their handles, and the constant ranking once
    /// it is built.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let sets: usize = self
            .distinct
            .iter()
            .map(|(b, _)| b.heap_bytes() + size_of::<AtomSet>())
            .sum();
        let tuples: usize = self
            .pos
            .iter()
            .chain(&self.neg)
            .map(|(t, _)| t.len() * size_of::<Const>() + size_of::<(Tuple, Arc<AtomSet>)>())
            .sum();
        let ranking = self.ranking.get().map_or(0, Vec::len) * size_of::<Const>();
        sets + tuples
            + self.distinct.len() * size_of::<(Arc<AtomSet>, i64)>()
            + self.complete.len()
            + ranking
    }

    /// Every constant occurring in some border, ranked by
    /// [`PreparedLabels::relevant_constants`]'s order.
    fn rank_constants(&self, db: &obx_srcdb::Database) -> Vec<Const> {
        let n = db.consts().len();
        let mut labelled = Bitmap::with_capacity(n);
        for (t, _) in self.pos.iter().chain(self.neg.iter()) {
            for c in t.iter() {
                labelled.insert(c.0.index());
            }
        }
        // `stamp[c]` = 1 + the index of the last border that counted `c`,
        // so a constant scores once per border however often it occurs.
        // Each distinct border is walked once, weighted by how many more
        // positive than negative tuples share it; a border whose weight
        // nets to zero is still walked, so its constants rank (at 0).
        let mut stamp: Vec<usize> = vec![0; n];
        let mut score: Vec<i64> = vec![0; n];
        let mut touched: Vec<Const> = Vec::new();
        for (i, (border, weight)) in self.distinct.iter().enumerate() {
            for id in border.iter() {
                for &c in db.atom(id).args.iter() {
                    let k = c.0.index();
                    if stamp[k] == i + 1 || labelled.contains(k) {
                        continue;
                    }
                    if stamp[k] == 0 {
                        touched.push(c);
                    }
                    stamp[k] = i + 1;
                    score[k] += weight;
                }
            }
        }
        let mut pairs: Vec<(Const, i64)> = touched
            .into_iter()
            .map(|c| (c, score[c.0.index()]))
            .collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs.into_iter().map(|(c, _)| c).collect()
    }
}

/// Labelled tuples with their precomputed borders: the system Σ plus a
/// shared [`LabelBorders`]. Cloning copies one reference and one `Arc`.
#[derive(Clone)]
pub struct PreparedLabels<'a> {
    system: &'a ObdmSystem,
    borders: Arc<LabelBorders>,
}

impl<'a> PreparedLabels<'a> {
    /// Computes `B_{t,radius}(D)` for every labelled tuple.
    pub fn new(system: &'a ObdmSystem, labels: &Labels, radius: usize) -> Self {
        Self::new_interruptible(system, labels, radius, &obx_util::Interrupt::none())
    }

    /// [`PreparedLabels::new`] with a cooperative stop signal threaded
    /// into the border BFS. If `interrupt` fires, the remaining borders
    /// come out truncated (a smaller effective radius for those tuples) —
    /// still sound, just less complete, per the anytime contract.
    pub fn new_interruptible(
        system: &'a ObdmSystem,
        labels: &Labels,
        radius: usize,
        interrupt: &obx_util::Interrupt,
    ) -> Self {
        Self::from_borders(
            system,
            Arc::new(LabelBorders::build(system, labels, radius, interrupt)),
        )
    }

    /// Prepared labels over borders built earlier for this same `system`
    /// (and labels): nothing is recomputed, and the constant ranking is
    /// shared with every other holder of `borders`.
    pub fn from_borders(system: &'a ObdmSystem, borders: Arc<LabelBorders>) -> Self {
        Self { system, borders }
    }

    /// The shared system-free half: borders, flags and ranking.
    pub fn borders(&self) -> &Arc<LabelBorders> {
        &self.borders
    }

    /// λ's arity, `None` when λ is empty.
    pub fn arity(&self) -> Option<usize> {
        self.borders.arity
    }

    /// The system Σ.
    pub fn system(&self) -> &'a ObdmSystem {
        self.system
    }

    /// The radius `r` used for the borders.
    pub fn radius(&self) -> usize {
        self.borders.radius
    }

    /// Number of positive examples.
    pub fn num_pos(&self) -> usize {
        self.borders.pos.len()
    }

    /// Number of negative examples.
    pub fn num_neg(&self) -> usize {
        self.borders.neg.len()
    }

    /// Positive tuples with their border atom sets (tuples with equal
    /// borders share one set).
    pub fn pos(&self) -> &[(Tuple, Arc<AtomSet>)] {
        &self.borders.pos
    }

    /// Negative tuples with their border atom sets (shared like
    /// [`PreparedLabels::pos`]'s).
    pub fn neg(&self) -> &[(Tuple, Arc<AtomSet>)] {
        &self.borders.neg
    }

    /// Whether the compiled query J-matches one tuple's border.
    pub fn matches(&self, compiled: &CompiledQuery, tuple: &[Const], border: &AtomSet) -> bool {
        compiled.member(View::masked(self.system.db(), border), tuple)
    }

    /// Match statistics of a compiled ontology query against λ.
    pub fn stats(&self, compiled: &CompiledQuery) -> MatchStats {
        let count = |set: &[(Tuple, Arc<AtomSet>)]| {
            set.iter()
                .filter(|(t, b)| self.matches(compiled, t, b))
                .count()
        };
        MatchStats {
            pos_matched: count(&self.borders.pos),
            pos_total: self.num_pos(),
            neg_matched: count(&self.borders.neg),
            neg_total: self.num_neg(),
        }
    }

    /// Labelled tuple `idx` in bitset layout order (positives, then
    /// negatives) as an evaluator goal.
    fn goal(&self, idx: usize) -> Goal<'_> {
        let (t, b) = match idx.checked_sub(self.borders.pos.len()) {
            None => &self.borders.pos[idx],
            Some(j) => &self.borders.neg[j],
        };
        Goal {
            tuple: t,
            border: b,
            complete: self.borders.complete[idx],
        }
    }

    /// Decides the open tuples of `prior` against the source UCQ in one
    /// batched evaluator call, which `cutoff` may stop early
    /// ([`obx_query::eval::satisfies_ucq_until`]; positives are goals
    /// `0..num_pos`).
    pub(crate) fn evaluate(&self, src: &SrcUcq, prior: Prior, cutoff: Cutoff) -> Evaluation {
        let m = obx_query::eval::satisfies_ucq_until(
            self.system.db(),
            src,
            self.borders.radius,
            prior.open.len(),
            |i| prior.open[i].then(|| self.goal(i)),
            cutoff,
        );
        let asked = prior.open.iter().filter(|&&o| o).count();
        let Prior { mut bits, mut open } = prior;
        for (idx, (&hit, &missed)) in m.hits.iter().zip(&m.missed).enumerate() {
            if hit {
                bits.set(idx);
            }
            if hit || missed {
                open[idx] = false;
            }
        }
        Evaluation {
            known: Prior { bits, open },
            stopped: m.stopped,
            work: EvalWork {
                asked,
                evaluated: m.searched,
                certified: m.certified,
                masked: m.masked,
                nodes: m.nodes,
            },
        }
    }

    /// Match bitset of a compiled query against λ: one batched evaluator
    /// call over every labelled tuple, each on its own border. The
    /// scoring engine memoizes this per disjunct; [`stats`] is the
    /// uncached per-tuple reference the property tests compare against.
    ///
    /// [`stats`]: PreparedLabels::stats
    pub fn match_bits(&self, compiled: &CompiledQuery) -> MatchBits {
        self.evaluate_all(compiled.src())
    }

    /// [`PreparedLabels::evaluate`] over every labelled tuple, without a
    /// cutoff.
    fn evaluate_all(&self, src: &SrcUcq) -> MatchBits {
        let prior = Prior::unknown(self.num_pos(), self.num_neg());
        self.evaluate(src, prior, Cutoff::NONE).known.into_bits()
    }

    /// What a candidate's refinement parent settles of its bits, or
    /// nothing without a parent. A parent shaped for a different label
    /// set is an [`ObdmError::LabelShape`] error.
    pub(crate) fn prior(
        &self,
        parent: Option<(&MatchBits, crate::prune::RefineDir)>,
    ) -> Result<Prior, ObdmError> {
        let (num_pos, num_neg) = (self.num_pos(), self.num_neg());
        match parent {
            Some((bits, dir)) => Prior::refining(bits, dir, num_pos, num_neg),
            None => Ok(Prior::unknown(num_pos, num_neg)),
        }
    }

    /// Parent-delta variant of [`PreparedLabels::match_bits`]: exploits
    /// refinement monotonicity (`crate::prune`) to evaluate only the
    /// tuples whose match status can differ from the parent's.
    ///
    /// * [`RefineDir::Specialize`] — the child's matches are a subset of
    ///   `parent`'s, so only the parent's **set** bits are evaluated; the
    ///   rest stay zero.
    /// * [`RefineDir::Generalize`] — the child's matches are a superset,
    ///   so the parent's set bits are inherited and only its **zero** bits
    ///   are evaluated.
    ///
    /// Returns the bits plus the number of labelled tuples actually
    /// evaluated (≤ the label count; the difference is the work saved).
    /// The result is identical to `match_bits(compiled)` whenever `parent`
    /// is the bitset of a query of which `compiled` is a `dir`-refinement
    /// on these same borders. A `parent` shaped for a different label set
    /// is an [`ObdmError::LabelShape`] error, so the scoring engine
    /// quarantines the candidate instead of unwinding.
    ///
    /// [`RefineDir::Specialize`]: crate::prune::RefineDir::Specialize
    /// [`RefineDir::Generalize`]: crate::prune::RefineDir::Generalize
    pub fn match_bits_restricted(
        &self,
        compiled: &CompiledQuery,
        parent: &MatchBits,
        dir: crate::prune::RefineDir,
    ) -> Result<(MatchBits, usize), ObdmError> {
        let prior = self.prior(Some((parent, dir)))?;
        let e = self.evaluate(compiled.src(), prior, Cutoff::NONE);
        Ok((e.known.into_bits(), e.work.evaluated))
    }

    /// Compiles an ontology UCQ and computes its stats in one call.
    pub fn stats_of(&self, ucq: &OntoUcq) -> Result<MatchStats, ObdmError> {
        let compiled = self.system.spec().compile(ucq)?;
        Ok(self.stats(&compiled))
    }

    /// Match statistics of a *source-level* query (the data-level baseline
    /// evaluates directly, without rewriting/unfolding).
    pub fn stats_src(&self, src: &SrcUcq) -> MatchStats {
        self.evaluate_all(src).stats()
    }

    /// Match statistics of a single source CQ.
    pub fn stats_src_cq(&self, cq: &SrcCq) -> MatchStats {
        self.stats_src(&SrcUcq::from_cq(cq.clone()))
    }

    /// Constants worth mentioning in generated queries (e.g. `"Rome"` in
    /// the paper's q1), ranked **discriminatively**: by the number of
    /// positive borders a constant occurs in minus the number of negative
    /// borders (presence, not multiplicity). A constant that appears in
    /// every border regardless of label (a ubiquitous subject name) scores
    /// near zero; one characteristic of the positives (the target city)
    /// scores near `|λ⁺|`.
    ///
    /// Constants that occur in the labelled tuples themselves are
    /// excluded: a query mentioning a classified individual by name
    /// over-fits by construction (it can only ever describe that
    /// individual).
    ///
    /// The full ranking is built once per [`LabelBorders`] and shared by
    /// every clone and every [`PreparedLabels::from_borders`] holder; a
    /// call returns its first `cap` constants. The order is total (score
    /// descending, then constant ascending), so a prefix is exactly the
    /// ranking a capped tally would produce.
    pub fn relevant_constants(&self, cap: usize) -> Vec<Const> {
        let ranking = self
            .borders
            .ranking
            .get_or_init(|| self.borders.rank_constants(self.system.db()));
        ranking[..cap.min(ranking.len())].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obx_obdm::example_3_6_system;
    use proptest::prelude::*;

    fn paper_labels(sys: &mut ObdmSystem) -> Labels {
        Labels::parse(sys.db_mut(), "+ A10\n+ B80\n+ C12\n+ D50\n- E25").unwrap()
    }

    #[test]
    fn stats_reproduce_example_3_6_match_matrix() {
        let mut sys = example_3_6_system();
        let labels = paper_labels(&mut sys);
        let q1 = sys
            .parse_query(r#"q(x) :- studies(x, y), taughtIn(y, z), locatedIn(z, "Rome")"#)
            .unwrap();
        let q2 = sys.parse_query(r#"q(x) :- studies(x, "Math")"#).unwrap();
        let q3 = sys.parse_query(r#"q(x) :- likes(x, "Science")"#).unwrap();
        let prepared = PreparedLabels::new(&sys, &labels, 1);

        let s1 = prepared.stats_of(&q1).unwrap();
        assert_eq!((s1.pos_matched, s1.neg_matched), (3, 0), "q1: 3/4, none");
        let s2 = prepared.stats_of(&q2).unwrap();
        assert_eq!((s2.pos_matched, s2.neg_matched), (2, 1), "q2: 2/4, all λ⁻");
        let s3 = prepared.stats_of(&q3).unwrap();
        assert_eq!((s3.pos_matched, s3.neg_matched), (2, 0), "q3: 2/4, none");
        assert!(!s1.perfect() && !s2.perfect() && !s3.perfect());
    }

    #[test]
    fn match_bits_agree_with_stats_and_compose_by_or() {
        let mut sys = example_3_6_system();
        let labels = paper_labels(&mut sys);
        let q2 = sys.parse_query(r#"q(x) :- studies(x, "Math")"#).unwrap();
        let q3 = sys.parse_query(r#"q(x) :- likes(x, "Science")"#).unwrap();
        let prepared = PreparedLabels::new(&sys, &labels, 1);
        let c2 = sys.spec().compile(&q2).unwrap();
        let c3 = sys.spec().compile(&q3).unwrap();
        let b2 = prepared.match_bits(&c2);
        let b3 = prepared.match_bits(&c3);
        assert_eq!(b2.stats(), prepared.stats(&c2));
        assert_eq!(b3.stats(), prepared.stats(&c3));
        // OR-composition equals evaluating the union directly.
        let union: obx_query::OntoUcq = q2
            .disjuncts()
            .iter()
            .chain(q3.disjuncts().iter())
            .cloned()
            .collect();
        let mut or = b2.clone();
        or.union_with(&b3).unwrap();
        assert_eq!(or.stats(), prepared.stats_of(&union).unwrap());
        assert_eq!((or.stats().pos_matched, or.stats().neg_matched), (4, 1));
    }

    #[test]
    fn match_bits_popcount_handles_word_boundaries() {
        // 70 positives straddle a 64-bit word; 5 negatives follow.
        let mut b = MatchBits::empty(70, 5);
        for idx in [0, 63, 64, 69, 70, 74] {
            b.set(idx);
        }
        let s = b.stats();
        assert_eq!((s.pos_matched, s.neg_matched), (4, 2));
        assert_eq!((s.pos_total, s.neg_total), (70, 5));
        assert!(b.get(63) && !b.get(1));
        // Exact word-multiple boundary.
        let mut e = MatchBits::empty(64, 2);
        e.set(63);
        e.set(64);
        let se = e.stats();
        assert_eq!((se.pos_matched, se.neg_matched), (1, 1));
        assert_eq!(e.len(), 66);
        assert!(MatchBits::empty(0, 0).is_empty());
    }

    #[test]
    fn subset_and_popcount_helpers() {
        let mut a = MatchBits::empty(70, 5);
        let mut b = MatchBits::empty(70, 5);
        for idx in [0, 63, 64, 74] {
            b.set(idx);
        }
        a.set(63);
        a.set(74);
        assert!(a.is_subset_of(&b).unwrap());
        assert!(!b.is_subset_of(&a).unwrap());
        assert!(a.is_subset_of(&a).unwrap());
        assert_eq!(a.count_ones(), 2);
        assert_eq!(b.count_ones(), 4);
    }

    #[test]
    fn restricted_match_bits_equal_full_evaluation() {
        use crate::prune::RefineDir;
        let mut sys = example_3_6_system();
        let labels = paper_labels(&mut sys);
        // Parent: studies(x, y). Specialization child: studies(x, "Math").
        let parent_q = sys.parse_query("q(x) :- studies(x, y)").unwrap();
        let child_q = sys.parse_query(r#"q(x) :- studies(x, "Math")"#).unwrap();
        let pc = sys.spec().compile(&parent_q).unwrap();
        let cc = sys.spec().compile(&child_q).unwrap();
        let prepared = PreparedLabels::new(&sys, &labels, 2);
        let parent_bits = prepared.match_bits(&pc);
        let full = prepared.match_bits(&cc);
        let (restricted, evaluated) = prepared
            .match_bits_restricted(&cc, &parent_bits, RefineDir::Specialize)
            .unwrap();
        assert_eq!(restricted, full);
        assert_eq!(evaluated, parent_bits.count_ones());
        assert!(full.is_subset_of(&parent_bits).unwrap());
        // Dually: generalizing the child back to the parent evaluates only
        // the child's zero bits and inherits the rest.
        let child_bits = full;
        let (up, up_evaluated) = prepared
            .match_bits_restricted(&pc, &child_bits, RefineDir::Generalize)
            .unwrap();
        assert_eq!(up, parent_bits);
        assert_eq!(up_evaluated, child_bits.len() - child_bits.count_ones());
    }

    #[test]
    fn restricted_match_bits_reject_a_parent_of_another_shape() {
        use crate::prune::RefineDir;
        let mut sys = example_3_6_system();
        let labels = paper_labels(&mut sys);
        let q = sys.parse_query(r#"q(x) :- studies(x, "Math")"#).unwrap();
        let compiled = sys.spec().compile(&q).unwrap();
        let prepared = PreparedLabels::new(&sys, &labels, 1);
        // λ has 4 positives and 1 negative; these parents do not.
        for parent in [MatchBits::empty(5, 0), MatchBits::empty(4, 2)] {
            for dir in [RefineDir::Specialize, RefineDir::Generalize] {
                let err = prepared
                    .match_bits_restricted(&compiled, &parent, dir)
                    .unwrap_err();
                assert!(matches!(err, ObdmError::LabelShape { .. }), "{err}");
                assert!(!err.is_transient());
            }
        }
    }

    #[test]
    fn bitsets_of_another_shape_are_errors_not_panics() {
        let mut a = MatchBits::empty(4, 1);
        a.set(0);
        let before = a.clone();
        for other in [MatchBits::empty(5, 0), MatchBits::empty(4, 2)] {
            let err = a.union_with(&other).unwrap_err();
            assert!(matches!(err, ObdmError::LabelShape { .. }), "{err}");
            assert_eq!(a, before, "a failed union leaves the bits unchanged");
            let err = a.is_subset_of(&other).unwrap_err();
            assert!(matches!(err, ObdmError::LabelShape { .. }), "{err}");
            assert!(!err.is_transient());
        }
    }

    #[test]
    fn fractions_and_f1() {
        let s = MatchStats {
            pos_matched: 3,
            pos_total: 4,
            neg_matched: 0,
            neg_total: 1,
        };
        assert!((s.pos_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(s.neg_fraction(), 0.0);
        assert_eq!(s.precision(), 1.0);
        assert!((s.f1() - (2.0 * 0.75 / 1.75)).abs() < 1e-12);
        let empty = MatchStats::default();
        assert_eq!(empty.pos_fraction(), 0.0);
        assert_eq!(empty.f1(), 0.0);
    }

    #[test]
    fn radius_monotonicity_proposition_3_5() {
        // If q J-matches B_{t,r} then it J-matches B_{t,r+1}: matched
        // counts are monotone in r.
        let mut sys = example_3_6_system();
        let labels = paper_labels(&mut sys);
        let q1 = sys
            .parse_query(r#"q(x) :- studies(x, y), taughtIn(y, z), locatedIn(z, "Rome")"#)
            .unwrap();
        let compiled = sys.spec().compile(&q1).unwrap();
        let mut prev = 0usize;
        for r in 0..4 {
            let prepared = PreparedLabels::new(&sys, &labels, r);
            let stats = prepared.stats(&compiled);
            assert!(
                stats.pos_matched >= prev,
                "Proposition 3.5 violated at r={r}"
            );
            prev = stats.pos_matched;
        }
        // At radius ≥ 2 every positive matches (LOC atoms reachable), and
        // at radius 0 none do (locatedIn needs the LOC atom).
        let r0 = PreparedLabels::new(&sys, &labels, 0);
        assert_eq!(r0.stats(&compiled).pos_matched, 0);
        let r2 = PreparedLabels::new(&sys, &labels, 2);
        assert_eq!(r2.stats(&compiled).pos_matched, 4);
    }

    #[test]
    fn relevant_constants_come_from_positive_borders() {
        let mut sys = example_3_6_system();
        let labels = paper_labels(&mut sys);
        let prepared = PreparedLabels::new(&sys, &labels, 1);
        let consts = prepared.relevant_constants(100);
        let rome = sys.db().consts().get("Rome").unwrap();
        let math = sys.db().consts().get("Math").unwrap();
        assert!(consts.contains(&rome));
        assert!(consts.contains(&math));
        // The cap is honoured.
        assert_eq!(prepared.relevant_constants(2).len(), 2);
    }

    #[test]
    fn src_level_stats_match_direct_evaluation() {
        let mut sys = example_3_6_system();
        let labels = paper_labels(&mut sys);
        let prepared = PreparedLabels::new(&sys, &labels, 1);
        // Source query: q(x) :- ENR(x, "Math", z) — like q2 but data-level.
        // Constants must come from the system's pool; resolve by name.
        let math = prepared.system().db().consts().get("Math").unwrap();
        let enr = prepared.system().db().schema().rel("ENR").unwrap();
        let q = obx_query::SrcCq::new(
            vec![obx_query::VarId(0)],
            vec![obx_query::SrcAtom::new(
                enr,
                [
                    obx_query::Term::Var(obx_query::VarId(0)),
                    obx_query::Term::Const(math),
                    obx_query::Term::Var(obx_query::VarId(1)),
                ],
            )],
        )
        .unwrap();
        let s = prepared.stats_src_cq(&q);
        assert_eq!((s.pos_matched, s.neg_matched), (2, 1));
    }

    /// Plain dense-`Vec<bool>` model of `MatchBits`, the oracle for the
    /// hybrid-container equivalence tests below.
    struct DenseOracle {
        num_pos: usize,
        bits: Vec<bool>,
    }

    impl DenseOracle {
        fn new(num_pos: usize, num_neg: usize) -> Self {
            Self {
                num_pos,
                bits: vec![false; num_pos + num_neg],
            }
        }

        fn set(&mut self, idx: usize) {
            self.bits[idx] = true;
        }

        fn count_ones(&self) -> usize {
            self.bits.iter().filter(|&&b| b).count()
        }

        fn stats(&self) -> (usize, usize) {
            let pos = self.bits[..self.num_pos].iter().filter(|&&b| b).count();
            (pos, self.count_ones() - pos)
        }

        fn is_subset_of(&self, other: &DenseOracle) -> bool {
            self.bits
                .iter()
                .zip(other.bits.iter())
                .all(|(&a, &b)| !a || b)
        }
    }

    #[test]
    fn array_container_converts_to_words_exactly_at_the_threshold() {
        let len = 2 * CONTAINER_BITS;
        let mut b = MatchBits::empty(len, 0);
        for i in 0..ARRAY_MAX {
            b.set(2 * i); // spread within container 0
        }
        assert!(matches!(b.containers[0], Container::Array(_)));
        assert!(matches!(b.containers[1], Container::Array(_)));
        b.set(2 * ARRAY_MAX);
        assert!(
            matches!(b.containers[0], Container::Words(_)),
            "popcount {} must live in a words container",
            ARRAY_MAX + 1
        );
        assert_eq!(b.count_ones(), ARRAY_MAX + 1);
        for i in 0..=ARRAY_MAX {
            assert!(b.get(2 * i));
            assert!(!b.get(2 * i + 1));
        }
        // Setting the same bits again is idempotent in either form.
        b.set(0);
        b.set(2 * ARRAY_MAX);
        assert_eq!(b.count_ones(), ARRAY_MAX + 1);
    }

    #[test]
    fn union_keeps_the_representation_canonical_for_derived_eq() {
        let len = CONTAINER_BITS + 100;
        let mut lo = MatchBits::empty(len, 0);
        let mut hi = MatchBits::empty(len, 0);
        let mut direct = MatchBits::empty(len, 0);
        for i in 0..3000 {
            lo.set(i);
            direct.set(i);
            hi.set(3000 + i);
            direct.set(3000 + i);
        }
        // Array ∪ Array crossing the threshold → words, and the value
        // must compare equal to the same set built bit-by-bit.
        lo.union_with(&hi).unwrap();
        assert!(matches!(lo.containers[0], Container::Words(_)));
        assert!(matches!(direct.containers[0], Container::Words(_)));
        assert_eq!(lo, direct);
        assert_eq!(lo.count_ones(), 6000);
        // Union with a words container from a sparse array side.
        let mut sparse = MatchBits::empty(len, 0);
        sparse.set(CONTAINER_BITS + 7); // container 1 stays an array
        sparse.union_with(&direct).unwrap();
        assert!(sparse.get(CONTAINER_BITS + 7));
        assert_eq!(sparse.count_ones(), 6001);
        assert!(matches!(sparse.containers[1], Container::Array(_)));
    }

    #[test]
    fn subset_checks_work_across_mixed_representations() {
        let len = 9000;
        let mut dense = MatchBits::empty(len, 0);
        for i in 0..5000 {
            dense.set(i);
        }
        let mut sparse = MatchBits::empty(len, 0);
        for i in (0..5000).step_by(100) {
            sparse.set(i);
        }
        assert!(matches!(dense.containers[0], Container::Words(_)));
        assert!(matches!(sparse.containers[0], Container::Array(_)));
        assert!(sparse.is_subset_of(&dense).unwrap());
        // A words container (popcount > ARRAY_MAX) can never fit in an
        // array container.
        assert!(!dense.is_subset_of(&sparse).unwrap());
        let mut outside = sparse.clone();
        outside.set(8999);
        assert!(!outside.is_subset_of(&dense).unwrap());
    }

    #[test]
    fn multi_container_stats_split_at_the_pos_neg_boundary() {
        // Three containers; the pos/neg boundary falls inside container 1.
        let (num_pos, num_neg) = (70_000, 80_000);
        let mut b = MatchBits::empty(num_pos, num_neg);
        let mut oracle = DenseOracle::new(num_pos, num_neg);
        for i in (0..150_000).step_by(13) {
            b.set(i);
            oracle.set(i);
        }
        // Densify container 2 so the boundary math runs over words too.
        for i in (2 * CONTAINER_BITS)..(2 * CONTAINER_BITS + 5000) {
            b.set(i);
            oracle.set(i);
        }
        let s = b.stats();
        let (pos, neg) = oracle.stats();
        assert_eq!((s.pos_matched, s.neg_matched), (pos, neg));
        assert_eq!(s.pos_total, num_pos);
        assert_eq!(s.neg_total, num_neg);
        assert_eq!(b.count_ones(), oracle.count_ones());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32 })]

        /// The hybrid containers agree with a dense oracle on every
        /// operation, at densities straddling the array→words threshold.
        #[test]
        fn hybrid_match_bits_agree_with_dense_oracle(
            num_pos in 1usize..6000,
            num_neg in 0usize..3000,
            raw_a in proptest::collection::vec(0usize..9000, 0..3000),
            raw_b in proptest::collection::vec(0usize..9000, 0..3000),
        ) {
            let len = num_pos + num_neg;
            let mut a = MatchBits::empty(num_pos, num_neg);
            let mut oa = DenseOracle::new(num_pos, num_neg);
            for &raw in &raw_a {
                a.set(raw % len);
                oa.set(raw % len);
            }
            let mut b = MatchBits::empty(num_pos, num_neg);
            let mut ob = DenseOracle::new(num_pos, num_neg);
            for &raw in &raw_b {
                b.set(raw % len);
                ob.set(raw % len);
            }

            prop_assert_eq!(a.count_ones(), oa.count_ones());
            for i in 0..len {
                prop_assert_eq!(a.get(i), oa.bits[i]);
            }
            let s = a.stats();
            prop_assert_eq!((s.pos_matched, s.neg_matched), oa.stats());
            prop_assert_eq!(a.is_subset_of(&b).unwrap(), oa.is_subset_of(&ob));

            // OR composition, checked against both the oracle and a
            // bit-by-bit rebuild (exercises canonical-form equality).
            let mut u = a.clone();
            u.union_with(&b).unwrap();
            let mut direct = MatchBits::empty(num_pos, num_neg);
            for (i, (&x, &y)) in oa.bits.iter().zip(ob.bits.iter()).enumerate() {
                if x || y {
                    direct.set(i);
                }
            }
            prop_assert_eq!(&u, &direct);
            prop_assert!(a.is_subset_of(&u).unwrap());
            prop_assert!(b.is_subset_of(&u).unwrap());
            prop_assert_eq!(
                u.count_ones(),
                oa.bits.iter().zip(ob.bits.iter()).filter(|(&x, &y)| x || y).count()
            );
        }
    }
}

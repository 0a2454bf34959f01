//! Sets of atom ids: the representation of borders and of the masks that
//! select border sub-databases.
//!
//! A border of radius 2 routinely covers most of its database, while a
//! radius-0 border on a million-atom database is a handful of atoms. An
//! [`AtomSet`] therefore stores one of two forms, chosen from its own
//! size: dense `u64` words over the id universe, or a sorted id slice when
//! that is smaller (`4·len < universe/8`, the byte break-even). The choice
//! is canonical — a function of `len` and `universe` alone — so the
//! derived `Eq` is exact set equality between sets over the same universe.
//!
//! [`Bitmap`] is a growable dense bitmap: the constant marks of the border
//! BFS and of the relevant-constant tally. `Accumulator` is the mutable
//! form of an `AtomSet`: every border is built in one, id by id or by
//! unions that count what they add, and frozen from it.

use crate::atom::AtomId;

const WORD_BITS: usize = 64;

/// A growable dense bitmap over `usize` indexes (all bits clear
/// initially). Setting a bit past the end grows the map.
#[derive(Clone, Debug, Default)]
pub struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    /// A cleared bitmap with room for indexes `0..bits` without growing.
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            words: vec![0; bits.div_ceil(WORD_BITS)],
        }
    }

    /// Whether bit `i` is set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / WORD_BITS)
            .is_some_and(|w| w & (1 << (i % WORD_BITS)) != 0)
    }

    /// Sets bit `i`; returns whether it was previously clear.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        let w = i / WORD_BITS;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1 << (i % WORD_BITS);
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        fresh
    }

    /// Clears bit `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        if let Some(w) = self.words.get_mut(i / WORD_BITS) {
            *w &= !(1 << (i % WORD_BITS));
        }
    }
}

/// An immutable set of atom ids drawn from `0..universe`, with an O(1)
/// [`len`](AtomSet::len), O(1) (dense) or O(log len) (sorted) membership,
/// and ascending-id iteration in both forms.
///
/// Stored bytes are at most `max(4·len, universe/8)` plus one word: the
/// dense form is kept only when it is no larger than the sorted slice.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct AtomSet {
    universe: usize,
    len: usize,
    repr: Repr,
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// `universe.div_ceil(64)` words; bit `i` set iff `AtomId(i)` is in.
    Dense(Box<[u64]>),
    /// Ascending, deduplicated ids.
    Sorted(Box<[AtomId]>),
}

/// Whether a set of `len` ids over `universe` is stored dense: below the
/// break-even density `4·len < universe/8` the sorted slice is smaller.
#[inline]
pub(crate) fn dense_for(len: usize, universe: usize) -> bool {
    32 * len >= universe
}

impl AtomSet {
    /// The empty set over `0..universe`.
    pub fn empty(universe: usize) -> Self {
        Self::from_sorted(universe, Vec::new())
    }

    /// The set of `ids` (any order, duplicates allowed) over
    /// `0..universe`. Panics if an id lies outside the universe.
    pub fn from_ids(universe: usize, ids: impl IntoIterator<Item = AtomId>) -> Self {
        let mut ids: Vec<AtomId> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        Self::from_sorted(universe, ids)
    }

    /// Freezes a set given as ascending, deduplicated ids.
    fn from_sorted(universe: usize, ids: Vec<AtomId>) -> Self {
        if let Some(last) = ids.last() {
            assert!(
                last.index() < universe,
                "{last} outside an atom universe of {universe}"
            );
        }
        let len = ids.len();
        let repr = if dense_for(len, universe) {
            let mut words = vec![0u64; universe.div_ceil(WORD_BITS)];
            for id in ids {
                words[id.index() / WORD_BITS] |= 1 << (id.index() % WORD_BITS);
            }
            Repr::Dense(words.into_boxed_slice())
        } else {
            Repr::Sorted(ids.into_boxed_slice())
        };
        Self {
            universe,
            len,
            repr,
        }
    }

    /// Number of ids in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Bytes of the set's heap storage: the dense words or the sorted
    /// ids, whichever form it is kept in.
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Dense(words) => std::mem::size_of_val(&words[..]),
            Repr::Sorted(ids) => std::mem::size_of_val(&ids[..]),
        }
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The id universe `0..universe` the set is drawn from (the size of
    /// the database it was built over).
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Whether `id` is in the set.
    #[inline]
    pub fn contains(&self, id: AtomId) -> bool {
        let i = id.index();
        match &self.repr {
            Repr::Dense(words) => words
                .get(i / WORD_BITS)
                .is_some_and(|w| w & (1 << (i % WORD_BITS)) != 0),
            Repr::Sorted(ids) => ids.binary_search(&id).is_ok(),
        }
    }

    /// The ids in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(match &self.repr {
            Repr::Dense(words) => IterRepr::Dense {
                words,
                next_word: 0,
                base: 0,
                cur: 0,
            },
            Repr::Sorted(ids) => IterRepr::Sorted(ids.iter()),
        })
    }

    /// Whether every id of `self` is in `other`.
    pub fn is_subset(&self, other: &AtomSet) -> bool {
        self.len <= other.len && self.iter().all(|id| other.contains(id))
    }

    /// Whether the set is held as dense words (else as a sorted slice).
    #[cfg(test)]
    pub(crate) fn is_dense(&self) -> bool {
        matches!(self.repr, Repr::Dense(_))
    }

    /// Heap bytes the set's storage occupies.
    #[cfg(test)]
    pub(crate) fn stored_bytes(&self) -> usize {
        match &self.repr {
            Repr::Dense(words) => std::mem::size_of_val::<[u64]>(words),
            Repr::Sorted(ids) => std::mem::size_of_val::<[AtomId]>(ids),
        }
    }
}

/// Dense words over an atom universe that a set is accumulated in, by
/// inserts and unions that each report how many ids they added. While only
/// sparse input has arrived, the nonzero words are tracked, so freezing a
/// sparse result and clearing for the next one cost `O(set)`, not
/// `O(universe)`; a dense union makes the result dense-sized anyway, and
/// then both scan the words.
#[derive(Debug)]
pub(crate) struct Accumulator {
    universe: usize,
    words: Vec<u64>,
    /// Indexes of the nonzero words, in first-touch order; not maintained
    /// once `dense` is set.
    touched: Vec<usize>,
    /// Whether a dense set was unioned in since the last clear.
    dense: bool,
    len: usize,
}

impl Accumulator {
    /// An empty accumulator over `0..universe`.
    pub(crate) fn new(universe: usize) -> Self {
        Self {
            universe,
            words: vec![0; universe.div_ceil(WORD_BITS)],
            touched: Vec::new(),
            dense: false,
            len: 0,
        }
    }

    /// Number of ids accumulated.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Adds `id`; returns whether it was not already present.
    #[inline]
    pub(crate) fn insert(&mut self, id: AtomId) -> bool {
        let (w, mask) = (id.index() / WORD_BITS, 1 << (id.index() % WORD_BITS));
        let word = &mut self.words[w];
        if *word & mask != 0 {
            return false;
        }
        if *word == 0 && !self.dense {
            self.touched.push(w);
        }
        *word |= mask;
        self.len += 1;
        true
    }

    /// Adds `ids`; returns how many were not already present.
    pub(crate) fn insert_ids(&mut self, ids: &[AtomId]) -> usize {
        ids.iter().filter(|&&id| self.insert(id)).count()
    }

    /// Unions `set` (over the same universe) in; returns how many of its
    /// ids were not already present. A dense set is one word-OR pass.
    pub(crate) fn union(&mut self, set: &AtomSet) -> usize {
        debug_assert_eq!(set.universe, self.universe, "universe mismatch");
        match &set.repr {
            Repr::Sorted(ids) => self.insert_ids(ids),
            Repr::Dense(words) => {
                self.dense = true;
                let mut added = 0;
                for (acc, &w) in self.words.iter_mut().zip(words.iter()) {
                    added += (w & !*acc).count_ones() as usize;
                    *acc |= w;
                }
                self.len += added;
                added
            }
        }
    }

    /// The accumulated ids, in no particular order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = AtomId> + '_ {
        let dense = self.dense.then_some(0..self.words.len());
        let sparse = (!self.dense).then(|| self.touched.iter().copied());
        dense
            .into_iter()
            .flatten()
            .chain(sparse.into_iter().flatten())
            .flat_map(move |w| {
                let mut bits = self.words[w];
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let id = AtomId((w * WORD_BITS + bits.trailing_zeros() as usize) as u32);
                        bits &= bits - 1;
                        id
                    })
                })
            })
    }

    /// The accumulated set, frozen in its canonical form; the accumulator
    /// keeps its contents.
    pub(crate) fn to_set(&self) -> AtomSet {
        let repr = if dense_for(self.len, self.universe) {
            Repr::Dense(self.words.clone().into_boxed_slice())
        } else {
            // A dense union would have made `len` dense-sized.
            debug_assert!(!self.dense);
            let mut touched = self.touched.clone();
            touched.sort_unstable();
            let mut ids = Vec::with_capacity(self.len);
            for w in touched {
                let mut bits = self.words[w];
                while bits != 0 {
                    ids.push(AtomId(
                        (w * WORD_BITS + bits.trailing_zeros() as usize) as u32,
                    ));
                    bits &= bits - 1;
                }
            }
            Repr::Sorted(ids.into_boxed_slice())
        };
        AtomSet {
            universe: self.universe,
            len: self.len,
            repr,
        }
    }

    /// Empties the accumulator for the next set.
    pub(crate) fn clear(&mut self) {
        if self.dense {
            self.words.fill(0);
        } else {
            for &w in &self.touched {
                self.words[w] = 0;
            }
        }
        self.touched.clear();
        self.dense = false;
        self.len = 0;
    }
}

impl std::fmt::Debug for AtomSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Ascending iterator over an [`AtomSet`].
pub struct Iter<'a>(IterRepr<'a>);

enum IterRepr<'a> {
    Dense {
        words: &'a [u64],
        next_word: usize,
        base: usize,
        cur: u64,
    },
    Sorted(std::slice::Iter<'a, AtomId>),
}

impl Iterator for Iter<'_> {
    type Item = AtomId;

    #[inline]
    fn next(&mut self) -> Option<AtomId> {
        match &mut self.0 {
            IterRepr::Dense {
                words,
                next_word,
                base,
                cur,
            } => {
                while *cur == 0 {
                    *cur = *words.get(*next_word)?;
                    *base = *next_word * WORD_BITS;
                    *next_word += 1;
                }
                let bit = cur.trailing_zeros() as usize;
                *cur &= *cur - 1;
                // Ids index a `u32`-addressed database, so they fit.
                Some(AtomId((*base + bit) as u32))
            }
            IterRepr::Sorted(ids) => ids.next().copied(),
        }
    }
}

impl<'a> IntoIterator for &'a AtomSet {
    type Item = AtomId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn check_against_model(universe: usize, model: &BTreeSet<AtomId>) {
        let set = AtomSet::from_ids(universe, model.iter().copied());
        assert_eq!(set.len(), model.len(), "len is exact");
        assert_eq!(set.is_empty(), model.is_empty());
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            model.iter().copied().collect::<Vec<_>>(),
            "ascending iteration"
        );
        for i in 0..universe + 70 {
            let id = AtomId(i as u32);
            assert_eq!(set.contains(id), model.contains(&id), "membership of {id}");
        }
        assert_eq!(
            set.is_dense(),
            32 * model.len() >= universe,
            "dense iff not below the break-even density 4·len < universe/8"
        );
        let bound = (4 * set.len()).max(universe / 8) + 8;
        assert!(
            set.stored_bytes() <= bound,
            "{} bytes stored for {} of {universe}",
            set.stored_bytes(),
            set.len()
        );
    }

    #[test]
    fn matches_a_btreeset_model_across_densities() {
        let mut rng = StdRng::seed_from_u64(13);
        for universe in [0usize, 1, 31, 32, 63, 64, 65, 200, 1000, 4925] {
            for density in [0.0, 0.01, 0.03, 0.05, 0.2, 0.6, 1.0] {
                let model: BTreeSet<AtomId> = (0..universe)
                    .filter(|_| rng.gen_bool(density))
                    .map(|i| AtomId(i as u32))
                    .collect();
                check_against_model(universe, &model);
            }
        }
    }

    #[test]
    fn form_flips_exactly_at_the_break_even_density() {
        // universe 3200: dense iff 32·len ≥ 3200, i.e. len ≥ 100.
        let ids = |n: u32| (0..n).map(|i| AtomId(i * 7));
        assert!(!AtomSet::from_ids(3200, ids(99)).is_dense());
        assert!(AtomSet::from_ids(3200, ids(100)).is_dense());
        assert!(
            AtomSet::from_ids(0, []).is_dense(),
            "nothing to store either way"
        );
        assert_eq!(AtomSet::empty(3200).stored_bytes(), 0);
    }

    #[test]
    fn canonical_form_makes_eq_exact() {
        let a = AtomSet::from_ids(500, [AtomId(3), AtomId(1), AtomId(3)]);
        let b = AtomSet::from_ids(500, [AtomId(1), AtomId(3)]);
        assert_eq!(a, b);
        let members = [AtomId(3), AtomId(1)];
        let mut acc = Accumulator::new(500);
        acc.insert_ids(&members);
        assert_eq!(acc.to_set(), b);
        // The same ids over a 64-id universe freeze to the dense form.
        let mut acc = Accumulator::new(64);
        acc.insert_ids(&members);
        let dense = acc.to_set();
        assert!(dense.is_dense());
        assert_eq!(dense, AtomSet::from_ids(64, members));
        assert!(a.is_subset(&AtomSet::from_ids(500, (0..10).map(AtomId))));
        assert!(!AtomSet::from_ids(500, (0..10).map(AtomId)).is_subset(&a));
    }

    #[test]
    fn accumulator_unions_count_new_ids_and_freeze_canonically() {
        let mut rng = StdRng::seed_from_u64(29);
        for universe in [1usize, 64, 200, 4925] {
            let mut acc = Accumulator::new(universe);
            // Several sets per accumulator, so clearing is exercised too.
            for _ in 0..6 {
                let mut model: BTreeSet<AtomId> = BTreeSet::new();
                for _ in 0..rng.gen_range(0usize..5) {
                    let density = [0.001, 0.01, 0.05, 0.5][rng.gen_range(0usize..4)];
                    let part: Vec<AtomId> = (0..universe)
                        .filter(|_| rng.gen_bool(density))
                        .map(|i| AtomId(i as u32))
                        .collect();
                    let fresh = part.iter().filter(|id| !model.contains(id)).count();
                    let added = if rng.gen_bool(0.5) {
                        acc.insert_ids(&part)
                    } else {
                        acc.union(&AtomSet::from_ids(universe, part.iter().copied()))
                    };
                    assert_eq!(added, fresh, "new ids counted exactly");
                    model.extend(part);
                    assert_eq!(acc.len(), model.len());
                }
                let set = acc.to_set();
                assert_eq!(set, AtomSet::from_ids(universe, model.iter().copied()));
                acc.clear();
                assert_eq!(acc.len(), 0);
                assert_eq!(acc.to_set(), AtomSet::empty(universe), "clear empties");
            }
        }
    }

    #[test]
    fn bitmap_grows_and_clears() {
        let mut b = Bitmap::with_capacity(10);
        assert!(b.insert(3));
        assert!(!b.insert(3));
        assert!(b.insert(1000), "setting past the end grows");
        assert!(b.contains(1000) && b.contains(3) && !b.contains(4));
        b.remove(3);
        assert!(!b.contains(3));
        assert!(!b.contains(1 << 20), "reads past the end are clear");
    }

    #[test]
    #[should_panic(expected = "outside an atom universe")]
    fn ids_outside_the_universe_are_rejected() {
        let _ = AtomSet::from_ids(4, [AtomId(4)]);
    }
}

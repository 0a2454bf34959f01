//! String interning.
//!
//! Every name that flows through the system — source constants, source
//! predicate names, ontology concept/role names — is interned once into a
//! [`Symbol`] (a `u32` newtype). All downstream data structures (atoms,
//! queries, TBox axioms, indexes) work on symbols, which makes equality a
//! word compare and keeps hot structures small (see the type-size guidance in
//! the Rust Performance Book).

use crate::hash::FxHasher;
use std::fmt;
use std::hash::Hasher;

/// An interned string. Cheap to copy, compare, and hash.
///
/// Symbols are only meaningful relative to the [`Interner`] that produced
/// them; mixing symbols from different interners is a logic error (but not
/// memory-unsafe).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The raw index of this symbol in its interner.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// Marks an empty lookup slot (`u32::MAX` symbols would overflow the
/// interner long before this sentinel is reachable).
const EMPTY: u32 = u32::MAX;

/// A `(start, len)` byte span into the interner's arena.
pub type Span = (u32, u32);

/// An append-only string interner with **columnar arena storage**.
///
/// The string bytes live in one shared `String` arena addressed by
/// `(start, len)` spans — one allocation for the whole population instead
/// of one `Box<str>` per string, which matters when a million-atom
/// snapshot restores hundreds of thousands of constants in one gulp. The
/// lookup side is a hand-rolled open-addressing table of `(hash, symbol)`
/// pairs verified against the arena. Compared to a
/// `HashMap<Arc<str>, Symbol>` this halves the per-string metadata, drops
/// the refcount traffic, and hashes each miss exactly once — the interner
/// is the single hottest structure in a bulk (snapshot or generator) load
/// of a million-atom database. Resolution (`Symbol -> &str`) is a span
/// lookup plus a slice.
///
/// The three columns round-trip losslessly through
/// [`Interner::as_parts`] / [`Interner::from_parts`], which is how binary
/// snapshots persist a constant pool without re-hashing every string on
/// load.
#[derive(Default)]
pub struct Interner {
    /// Concatenated bytes of every interned string, in symbol order.
    arena: String,
    /// Byte span of each symbol's string inside the arena.
    spans: Vec<Span>,
    /// Power-of-two open-addressing table; `.1 == EMPTY` marks a free slot.
    slots: Vec<(u64, u32)>,
}

/// The interner's key hash: Fx over the raw bytes. `FxHasher::write`
/// already folds the tail length into the final mix, so no extra length
/// prefix is needed to separate prefixes.
#[inline]
fn hash_str(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an interner with room for `cap` distinct strings.
    pub fn with_capacity(cap: usize) -> Self {
        let mut i = Self {
            arena: String::new(),
            spans: Vec::with_capacity(cap),
            slots: Vec::new(),
        };
        i.reserve_table(cap);
        i
    }

    /// Reserves room for `additional` further distinct strings (bulk
    /// loaders call this with the count from a snapshot header, skipping
    /// every intermediate table rehash).
    pub fn reserve(&mut self, additional: usize) {
        self.spans.reserve(additional);
        self.reserve_table(self.spans.len() + additional);
    }

    /// Ensures the lookup table can hold `total` entries under its 7/8
    /// load-factor ceiling.
    fn reserve_table(&mut self, total: usize) {
        let needed = (total * 8 / 7 + 1).next_power_of_two();
        if needed > self.slots.len() {
            self.rehash(needed);
        }
    }

    fn rehash(&mut self, new_cap: usize) {
        let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY); new_cap]);
        let mask = new_cap - 1;
        for (h, sym) in old {
            if sym == EMPTY {
                continue;
            }
            let mut i = h as usize & mask;
            while self.slots[i].1 != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = (h, sym);
        }
    }

    #[inline]
    fn span_str(&self, span: Span) -> &str {
        &self.arena[span.0 as usize..span.0 as usize + span.1 as usize]
    }

    /// Interns `s`, returning the existing symbol if already present.
    ///
    /// # Panics
    /// On capacity overflow — more than 2³² strings, or an arena or a
    /// string past 4 GiB — like `Vec` on a capacity overflow. Symbols and
    /// spans are `u32` by design (the interner's memory layout); no
    /// ingestion path admits that much text.
    #[allow(clippy::expect_used)]
    pub fn intern(&mut self, s: &str) -> Symbol {
        let hash = hash_str(s);
        if self.slots.is_empty() || (self.spans.len() + 1) * 8 > self.slots.len() * 7 {
            let target = (self.spans.len() + 1).max(8);
            self.reserve_table(target * 2);
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (h, sym) = self.slots[i];
            if sym == EMPTY {
                break;
            }
            if h == hash && self.span_str(self.spans[sym as usize]) == s {
                return Symbol(sym);
            }
            i = (i + 1) & mask;
        }
        let sym =
            u32::try_from(self.spans.len()).expect("interner overflow: more than 2^32 strings");
        let start = u32::try_from(self.arena.len()).expect("interner arena overflow (4 GiB)");
        let len = u32::try_from(s.len()).expect("interned string longer than 4 GiB");
        self.arena.push_str(s);
        self.spans.push((start, len));
        self.slots[i] = (hash, sym);
        Symbol(sym)
    }

    /// Looks up an already-interned string without inserting.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        if self.slots.is_empty() {
            return None;
        }
        let hash = hash_str(s);
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (h, sym) = self.slots[i];
            if sym == EMPTY {
                return None;
            }
            if h == hash && self.span_str(self.spans[sym as usize]) == s {
                return Some(Symbol(sym));
            }
            i = (i + 1) & mask;
        }
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this interner (index out of range).
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.span_str(self.spans[sym.index()])
    }

    /// Resolves a symbol, returning `None` for foreign symbols.
    pub fn try_resolve(&self, sym: Symbol) -> Option<&str> {
        self.spans.get(sym.index()).map(|&s| self.span_str(s))
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterates over `(symbol, string)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, &s)| (Symbol(i as u32), self.span_str(s)))
    }

    /// The interner's raw columns `(arena, spans, slots)`, for snapshot
    /// serialization. Restoring them via [`Interner::from_parts`] yields
    /// an interner with identical symbols — no string is re-hashed.
    pub fn as_parts(&self) -> (&str, &[Span], &[(u64, u32)]) {
        (&self.arena, &self.spans, &self.slots)
    }

    /// Rebuilds an interner from columns previously captured by
    /// [`Interner::as_parts`]. Returns `None` when the columns are not
    /// mutually consistent (spans out of arena bounds or off UTF-8
    /// boundaries, a non-power-of-two or overfull table, symbols that do
    /// not bijectively cover `0..len`) — the checks a loader needs before
    /// trusting bytes from disk. Stored hashes are *not* re-verified: a
    /// wrong hash only mis-routes lookups, it cannot break memory safety,
    /// and transport corruption is the checksum's job.
    pub fn from_parts(arena: String, spans: Vec<Span>, slots: Vec<(u64, u32)>) -> Option<Self> {
        for &(start, len) in &spans {
            let (start, len) = (start as usize, len as usize);
            let end = start.checked_add(len)?;
            if end > arena.len() || !arena.is_char_boundary(start) || !arena.is_char_boundary(end) {
                return None;
            }
        }
        if slots.is_empty() {
            return spans.is_empty().then_some(Self {
                arena,
                spans,
                slots,
            });
        }
        if !slots.len().is_power_of_two() || spans.len() * 8 > slots.len() * 7 {
            return None;
        }
        // Occupied slots must name each symbol exactly once.
        let mut seen = vec![false; spans.len()];
        let mut occupied = 0usize;
        for &(_, sym) in &slots {
            if sym == EMPTY {
                continue;
            }
            let i = sym as usize;
            if i >= spans.len() || seen[i] {
                return None;
            }
            seen[i] = true;
            occupied += 1;
        }
        if occupied != spans.len() {
            return None;
        }
        Some(Self {
            arena,
            spans,
            slots,
        })
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner")
            .field("len", &self.spans.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("Rome");
        let b = i.intern("Rome");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let mut i = Interner::new();
        let a = i.intern("Math");
        let b = i.intern("Science");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "Math");
        assert_eq!(i.resolve(b), "Science");
    }

    #[test]
    fn get_does_not_insert() {
        let mut i = Interner::new();
        assert_eq!(i.get("missing"), None);
        assert_eq!(i.len(), 0);
        let s = i.intern("present");
        assert_eq!(i.get("present"), Some(s));
    }

    #[test]
    fn try_resolve_handles_foreign_symbols() {
        let i = Interner::new();
        assert_eq!(i.try_resolve(Symbol(3)), None);
    }

    #[test]
    fn iter_yields_in_interning_order() {
        let mut i = Interner::new();
        let syms: Vec<Symbol> = ["a", "b", "c"].iter().map(|s| i.intern(s)).collect();
        let collected: Vec<(Symbol, &str)> = i.iter().collect();
        assert_eq!(
            collected,
            vec![(syms[0], "a"), (syms[1], "b"), (syms[2], "c")]
        );
    }

    #[test]
    fn empty_string_is_internable() {
        let mut i = Interner::new();
        let e = i.intern("");
        assert_eq!(i.resolve(e), "");
    }

    #[test]
    fn strings_live_in_one_arena() {
        // The lookup table holds only (hash, symbol) pairs and the string
        // bytes live concatenated in the single arena allocation.
        let mut i = Interner::new();
        let sym = i.intern("Person");
        assert_eq!(i.spans.len(), 1);
        assert_eq!(i.resolve(sym), "Person");
        assert_eq!(i.arena, "Person");
        let live: usize = i.slots.iter().filter(|(_, s)| *s != EMPTY).count();
        assert_eq!(live, 1);
    }

    #[test]
    fn reserve_prevents_intermediate_rehashes() {
        let mut i = Interner::new();
        i.reserve(10_000);
        let cap = i.slots.len();
        for n in 0..10_000 {
            i.intern(&format!("c{n}"));
        }
        assert_eq!(i.slots.len(), cap, "pre-sized table must not rehash");
        assert_eq!(i.len(), 10_000);
        assert_eq!(i.get("c1234"), Some(Symbol(1234)));
    }

    #[test]
    fn survives_many_collisions_and_regrows() {
        let mut i = Interner::new();
        let syms: Vec<Symbol> = (0..5000).map(|n| i.intern(&format!("s{n}"))).collect();
        for (n, sym) in syms.iter().enumerate() {
            assert_eq!(i.get(&format!("s{n}")), Some(*sym));
            assert_eq!(i.resolve(*sym), format!("s{n}"));
        }
    }

    #[test]
    fn parts_roundtrip_preserves_symbols_and_lookups() {
        let mut i = Interner::new();
        let syms: Vec<Symbol> = (0..500).map(|n| i.intern(&format!("k{n}"))).collect();
        let (arena, spans, slots) = i.as_parts();
        let restored =
            Interner::from_parts(arena.to_owned(), spans.to_vec(), slots.to_vec()).unwrap();
        for (n, sym) in syms.iter().enumerate() {
            assert_eq!(restored.resolve(*sym), format!("k{n}"));
            assert_eq!(restored.get(&format!("k{n}")), Some(*sym));
        }
        let mut restored = restored;
        assert_eq!(restored.intern("k123"), syms[123], "no duplicate intern");
    }

    #[test]
    fn from_parts_rejects_inconsistent_columns() {
        // Span past the arena end.
        assert!(Interner::from_parts("ab".into(), vec![(0, 3)], vec![]).is_none());
        // Span off a UTF-8 boundary.
        assert!(Interner::from_parts("é".into(), vec![(0, 1)], vec![(0, 0), (0, EMPTY)]).is_none());
        // Table not a power of two.
        assert!(Interner::from_parts(
            "ab".into(),
            vec![(0, 1), (1, 1)],
            vec![(0, 0), (0, 1), (0, EMPTY)]
        )
        .is_none());
        // Symbol out of range.
        assert!(Interner::from_parts("a".into(), vec![(0, 1)], vec![(0, 7), (0, EMPTY)]).is_none());
        // Duplicate symbol / missing symbol.
        assert!(Interner::from_parts(
            "ab".into(),
            vec![(0, 1), (1, 1)],
            vec![(0, 0), (1, 0), (2, EMPTY), (3, EMPTY)]
        )
        .is_none());
        // Spans present but no slots at all.
        assert!(Interner::from_parts("a".into(), vec![(0, 1)], vec![]).is_none());
        // Empty interner round-trips.
        assert!(Interner::from_parts(String::new(), vec![], vec![]).is_some());
    }

    proptest! {
        #[test]
        fn roundtrip(strings in proptest::collection::vec(".{0,16}", 0..64)) {
            let mut i = Interner::new();
            let syms: Vec<Symbol> = strings.iter().map(|s| i.intern(s)).collect();
            for (s, sym) in strings.iter().zip(&syms) {
                prop_assert_eq!(i.resolve(*sym), s.as_str());
            }
        }

        #[test]
        fn symbol_equality_mirrors_string_equality(
            a in ".{0,12}",
            b in ".{0,12}",
        ) {
            let mut i = Interner::new();
            let sa = i.intern(&a);
            let sb = i.intern(&b);
            prop_assert_eq!(sa == sb, a == b);
        }

        #[test]
        fn len_counts_distinct(strings in proptest::collection::vec("[a-c]{1,2}", 0..32)) {
            let mut i = Interner::new();
            for s in &strings {
                i.intern(s);
            }
            let distinct: std::collections::BTreeSet<&String> = strings.iter().collect();
            prop_assert_eq!(i.len(), distinct.len());
        }

        #[test]
        fn parts_roundtrip_any_population(
            strings in proptest::collection::vec(".{0,12}", 0..48)
        ) {
            let mut i = Interner::new();
            for s in &strings {
                i.intern(s);
            }
            let (arena, spans, slots) = i.as_parts();
            let r = Interner::from_parts(arena.to_owned(), spans.to_vec(), slots.to_vec())
                .expect("self-dumped parts are consistent");
            for s in &strings {
                prop_assert_eq!(r.get(s), i.get(s));
            }
        }
    }
}

//! The `S`-database `D`: an indexed, set-semantics store of ground atoms.
//!
//! # Columnar layout (million-atom scale)
//!
//! The store is built for databases of 10⁶–10⁷ atoms. Per-atom heap
//! structures are avoided everywhere, including the row store itself:
//!
//! * **Rows** are three flat columns — relation ids, a shared argument
//!   array, and per-atom offsets into it. [`Database::atom`] hands out a
//!   borrowed [`AtomRef`] view; no atom owns a heap allocation.
//! * **Dedup** is a hand-rolled open-addressing table of `(hash, id)`
//!   pairs that verifies candidates against the row columns — no second
//!   copy of every atom, unlike a `HashMap<Atom, AtomId>` key set.
//! * **Posting lists** (the per-position index and the constant
//!   adjacency) live as `(offset, len, cap)` slices in one shared
//!   append-only [`PostingPool`] arena with power-of-two growth — one
//!   large allocation instead of millions of tiny `Vec`s, and every list
//!   is still a contiguous `&[AtomId]` in insertion order.
//! * **Per-position indexes** are dense columns over the compact `u32`
//!   interned-constant space, one column per `(relation, position)` —
//!   `atoms_with`/`count_with` are two array reads, no hashing. The
//!   constant adjacency (`atoms_mentioning`, the border BFS
//!   neighbourhood) is one more such column.
//!
//! # Lazy index materialization
//!
//! The row columns are the authoritative state; everything else is a
//! derived cache, and each cache is built the first time something needs
//! it:
//!
//! * the **dedup table** materializes on the first membership-dependent
//!   operation (`insert`, `contains`, `id_of`) — a text parse triggers it
//!   on the first inserted atom (set semantics need it per insert) and
//!   from then on maintains it incrementally, exactly as an always-eager
//!   table would;
//! * the **query indexes** (`rel_index`, the per-position posting
//!   columns, the constant adjacency) materialize on the first read
//!   (`atoms_of`, `atoms_with`, `atoms_mentioning`, the `count_*`
//!   family) with exact-size counting passes over the flat columns — no
//!   per-atom allocation, no hashing — and are maintained incrementally
//!   by later inserts;
//! * the **column-meet matrix** (`columns_meet`: do two `(rel, pos)`
//!   columns share a constant?) materializes on its first read from the
//!   constant adjacency, and an insert drops it, so the next read
//!   rebuilds it over every row.
//!
//! The payoff is at the loading boundary: a binary snapshot restores a
//! million-atom database by handing [`Database::from_columns`] its two
//! row columns — a bounds-checked copy, no index work at all — so load
//! time is dominated by I/O and checksum instead of hash probes and
//! posting scatter. The first query after a snapshot load pays one bulk
//! counting build, which is cheaper than a million incremental updates
//! and produces bit-identical index contents (insertion-order posting
//! lists), so ranked explanations are byte-identical whichever path
//! loaded the data. Both loading paths defer exactly the same work, so
//! the text/snapshot comparison stays honest: text parsing still pays
//! interning and per-insert dedup, which is precisely what the snapshot
//! format amortizes away.

use crate::atom::{Atom, AtomId, AtomRef};
use crate::consts::{Const, ConstPool};
use crate::schema::{RelId, Schema, SchemaError};
use obx_util::hash::{FxHashSet, FxHasher};
use std::hash::Hasher;
use std::sync::OnceLock;

/// A contiguous `&[AtomId]` slice inside a [`PostingPool`]: `len` live
/// ids starting at `off`, with `cap` slots reserved there. `cap` grows by
/// doubling; outgrown regions are abandoned (bounded waste, like `Vec`).
#[derive(Clone, Copy, Debug, Default)]
struct Posting {
    off: u32,
    len: u32,
    cap: u32,
}

/// The shared arena holding every posting list of a database. Offsets are
/// `u32`, capping one pool at 2³² slots — enough for 10⁷ atoms of any
/// realistic arity with the doubling waste included.
#[derive(Debug, Default)]
struct PostingPool {
    ids: Vec<AtomId>,
}

impl PostingPool {
    /// Appends `id` to the list described by `p`, relocating the list to
    /// the end of the arena when its reserved region is full.
    fn push(&mut self, p: &mut Posting, id: AtomId) {
        if p.len == p.cap {
            let new_cap = (p.cap * 2).max(1);
            let start = p.off as usize;
            let end = start + p.len as usize;
            let new_off = self.ids.len();
            self.ids.extend_from_within(start..end);
            self.ids.resize(new_off + new_cap as usize, AtomId(0));
            p.off = new_off as u32;
            p.cap = new_cap;
        }
        self.ids[p.off as usize + p.len as usize] = id;
        p.len += 1;
    }

    #[inline]
    fn slice(&self, p: Posting) -> &[AtomId] {
        &self.ids[p.off as usize..p.off as usize + p.len as usize]
    }
}

/// Open-addressing dedup index: `(hash, id)` pairs verified against the
/// row store, so the set-semantics check costs no atom clones. Linear
/// probing, power-of-two capacity, no deletions (databases only grow).
#[derive(Debug, Default)]
struct DedupTable {
    /// `id == u32::MAX` marks an empty slot (the row store is capped far
    /// below `u32::MAX` atoms by `AtomId` itself).
    slots: Vec<(u64, u32)>,
    len: usize,
}

const EMPTY: u32 = u32::MAX;

impl DedupTable {
    fn with_capacity(atoms: usize) -> Self {
        let cap = (atoms * 8 / 7 + 1).next_power_of_two();
        Self {
            slots: vec![(0, EMPTY); cap],
            len: 0,
        }
    }

    /// Builds the table over existing rows. Duplicate rows (possible only
    /// in a forged snapshot payload; `insert` never creates them) resolve
    /// to their first occurrence.
    fn build(hint: usize, rels: &[RelId], offs: &[u32], args: &[Const]) -> Self {
        let mut table = Self::with_capacity(hint.max(rels.len()));
        for i in 0..rels.len() {
            let row = row_at(offs, args, i);
            let hash = hash_row(rels[i], row);
            if table
                .find(hash, |j| {
                    rels[j as usize] == rels[i] && row_at(offs, args, j as usize) == row
                })
                .is_none()
            {
                table.insert(hash, i as u32);
            }
        }
        table
    }

    /// Looks up an atom with hash `hash` for which `matches` confirms row
    /// equality against the store.
    fn find(&self, hash: u64, matches: impl Fn(u32) -> bool) -> Option<AtomId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (h, id) = self.slots[i];
            if id == EMPTY {
                return None;
            }
            if h == hash && matches(id) {
                return Some(AtomId(id));
            }
            i = (i + 1) & mask;
        }
    }

    /// Records `hash → id`. The caller has already established via
    /// [`DedupTable::find`] that no equal atom is present.
    fn insert(&mut self, hash: u64, id: u32) {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i].1 != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = (hash, id);
        self.len += 1;
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY); new_cap]);
        let mask = new_cap - 1;
        for (h, id) in old {
            if id == EMPTY {
                continue;
            }
            let mut i = h as usize & mask;
            while self.slots[i].1 != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = (h, id);
        }
    }
}

/// Hash of one row `(rel, args)` — used by dedup for both stored rows
/// and probe [`Atom`]s, so the two always agree.
#[inline]
fn hash_row(rel: RelId, args: &[Const]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(rel.0);
    for c in args {
        h.write_u32(c.0 .0);
    }
    h.finish()
}

/// Argument run of row `i` in the flat columns.
#[inline]
fn row_at<'a>(offs: &[u32], args: &'a [Const], i: usize) -> &'a [Const] {
    &args[offs[i] as usize..offs[i + 1] as usize]
}

/// Prefix sums of arities: the flattened `(rel, pos)` slot map.
fn pos_base_of(schema: &Schema) -> Vec<u32> {
    let mut base = Vec::with_capacity(schema.len() + 1);
    let mut acc = 0u32;
    base.push(0);
    for rel in schema.rel_ids() {
        acc += schema.arity(rel) as u32;
        base.push(acc);
    }
    base
}

/// The derived query indexes: everything `atoms_of` / `atoms_with` /
/// `atoms_mentioning` and the `count_*` family read. Built lazily in one
/// exact-size counting pass, then maintained incrementally by `insert`.
#[derive(Debug)]
struct QueryIndexes {
    rel_index: Vec<Vec<AtomId>>,
    /// Flattened `(rel, pos)` slot base: the posting column for position
    /// `pos` of relation `rel` is `pos_cols[pos_base[rel] + pos]`.
    pos_base: Vec<u32>,
    /// Dense per-`(rel, pos)` columns over the interned-constant space.
    pos_cols: Vec<Vec<Posting>>,
    /// Dense column over the interned-constant id space: `const_adj[c]`
    /// is the posting of atoms mentioning constant `c` (each atom once).
    const_adj: Vec<Posting>,
    postings: PostingPool,
}

impl QueryIndexes {
    /// Bulk build over existing rows: count per (slot, constant) and per
    /// constant (adjacency), lay every list out back-to-back with exact
    /// capacity, then fill in row order — insertion-order slices
    /// identical to what incremental maintenance would have produced.
    fn build(
        schema: &Schema,
        n_consts: usize,
        rels: &[RelId],
        offs: &[u32],
        args: &[Const],
    ) -> Self {
        let mut rel_counts = vec![0usize; schema.len()];
        for &rel in rels {
            rel_counts[rel.index()] += 1;
        }
        let mut rel_index: Vec<Vec<AtomId>> =
            rel_counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (i, &rel) in rels.iter().enumerate() {
            rel_index[rel.index()].push(AtomId(i as u32));
        }

        let pos_base = pos_base_of(schema);
        let mut pos_cols = vec![Vec::<Posting>::new(); *pos_base.last().unwrap_or(&0) as usize];
        let mut const_adj = vec![Posting::default(); n_consts];
        for (i, &rel) in rels.iter().enumerate() {
            let base = pos_base[rel.index()] as usize;
            let a = row_at(offs, args, i);
            for (pos, &c) in a.iter().enumerate() {
                let slot = c.0.index();
                let col = &mut pos_cols[base + pos];
                if slot >= col.len() {
                    col.resize(slot + 1, Posting::default());
                }
                col[slot].len += 1;
                if !a[..pos].contains(&c) {
                    const_adj[slot].len += 1;
                }
            }
        }
        let mut off = 0u32;
        for p in pos_cols
            .iter_mut()
            .flat_map(|col| col.iter_mut())
            .chain(const_adj.iter_mut())
        {
            p.off = off;
            p.cap = p.len;
            off += p.len;
            p.len = 0;
        }
        let mut postings = PostingPool {
            ids: vec![AtomId(0); off as usize],
        };
        for (i, &rel) in rels.iter().enumerate() {
            let id = AtomId(i as u32);
            let base = pos_base[rel.index()] as usize;
            let a = row_at(offs, args, i);
            for (pos, &c) in a.iter().enumerate() {
                let slot = c.0.index();
                let p = &mut pos_cols[base + pos][slot];
                postings.ids[(p.off + p.len) as usize] = id;
                p.len += 1;
                if !a[..pos].contains(&c) {
                    let p = &mut const_adj[slot];
                    postings.ids[(p.off + p.len) as usize] = id;
                    p.len += 1;
                }
            }
        }

        Self {
            rel_index,
            pos_base,
            pos_cols,
            const_adj,
            postings,
        }
    }

    /// Incremental maintenance for one freshly appended row.
    fn add_row(&mut self, id: AtomId, rel: RelId, args: &[Const]) {
        self.rel_index[rel.index()].push(id);
        let base = self.pos_base[rel.index()] as usize;
        for (pos, &c) in args.iter().enumerate() {
            let slot = c.0.index();
            let col = &mut self.pos_cols[base + pos];
            if slot >= col.len() {
                col.resize(slot + 1, Posting::default());
            }
            self.postings.push(&mut col[slot], id);
            // `const_adj` must contain each incident atom once even when
            // the constant repeats within the atom (e.g. W(e, e)).
            if !args[..pos].contains(&c) {
                if slot >= self.const_adj.len() {
                    self.const_adj.resize(slot + 1, Posting::default());
                }
                self.postings.push(&mut self.const_adj[slot], id);
            }
        }
    }

    #[inline]
    fn pos_posting(&self, rel: RelId, pos: usize, c: Const) -> Option<Posting> {
        self.pos_cols[self.pos_base[rel.index()] as usize + pos]
            .get(c.0.index())
            .copied()
    }
}

/// Which `(rel, pos)` columns share a constant: a `C × C` bit matrix,
/// `C` the sum of the arities, over the flattened column slots of the
/// query indexes' `pos_base`. Row `a` holds `words` words; bit `b` of it is set iff
/// some constant occurs in both column `a` and column `b` (so the
/// diagonal marks the non-empty columns).
#[derive(Debug)]
struct ColumnMeets {
    base: Vec<u32>,
    words: usize,
    bits: Vec<u64>,
}

impl ColumnMeets {
    /// One pass over the constant adjacency, linear in the rows: each
    /// constant's set of columns is collected once, and the pairs of each
    /// *distinct* set are OR-ed into the matrix once, so the cost does not
    /// grow with constants × columns.
    fn build(db: &Database) -> Self {
        let q = db.query_indexes();
        let base = q.pos_base.clone();
        let n = *base.last().unwrap_or(&0) as usize;
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; n * words];
        // `seen[col]` is 1 + the last constant slot that put `col` in
        // `cols`, so a constant lists each of its columns once.
        let mut seen = vec![0u32; n];
        let mut cols: Vec<u32> = Vec::new();
        let mut distinct: FxHashSet<Vec<u32>> = FxHashSet::default();
        for (slot, &p) in q.const_adj.iter().enumerate() {
            let stamp = slot as u32 + 1;
            cols.clear();
            for &id in q.postings.slice(p) {
                let rel_base = base[db.rels[id.index()].index()];
                for (pos, c) in db.row_args(id.index()).iter().enumerate() {
                    let col = rel_base + pos as u32;
                    if c.0.index() == slot && seen[col as usize] != stamp {
                        seen[col as usize] = stamp;
                        cols.push(col);
                    }
                }
            }
            cols.sort_unstable();
            if cols.is_empty() || distinct.contains(cols.as_slice()) {
                continue;
            }
            for &a in &cols {
                for &b in &cols {
                    bits[a as usize * words + b as usize / 64] |= 1 << (b % 64);
                }
            }
            distinct.insert(cols.clone());
        }
        Self { base, words, bits }
    }

    #[inline]
    fn meet(&self, ra: RelId, pa: usize, rb: RelId, pb: usize) -> bool {
        let a = self.base[ra.index()] as usize + pa;
        let b = self.base[rb.index()] as usize + pb;
        debug_assert!(
            a < self.base[ra.index() + 1] as usize,
            "position {pa} past the arity"
        );
        debug_assert!(
            b < self.base[rb.index() + 1] as usize,
            "position {pb} past the arity"
        );
        self.bits[a * self.words + b / 64] >> (b % 64) & 1 == 1
    }
}

/// An in-memory `S`-database.
///
/// Atoms are deduplicated (a database is a *set* of atoms, §2). Three
/// indexes serve queries:
///
/// 1. `rel_index` — all atoms of a relation (scan side of joins);
/// 2. per-position posting columns — atoms of a relation with a given
///    constant at a given position (lookup side of joins);
/// 3. `const_adj` — all atoms mentioning a given constant, regardless of
///    relation or position. This is exactly the neighbourhood function of
///    the border BFS (Definitions 3.1/3.2): one layer expansion touches each
///    incident atom once.
///
/// See the [module docs](self) for the columnar storage layout behind
/// these indexes and for when each one materializes.
#[derive(Default, Debug)]
pub struct Database {
    schema: Schema,
    consts: ConstPool,
    /// Row column 1: relation id per atom.
    rels: Vec<RelId>,
    /// Row column 2: end offset of each atom's argument run in `args`
    /// (`offs[0] == 0`; atom `i` owns `args[offs[i]..offs[i + 1]]`).
    offs: Vec<u32>,
    /// Row column 3: all argument constants, concatenated.
    args: Vec<Const>,
    /// Bulk-load sizing hint consumed when `dedup` materializes.
    dedup_hint: usize,
    /// Lazily built; see the module docs. `OnceLock` keeps the build
    /// thread-safe under shared borrows (one epoch serves many requests).
    dedup: OnceLock<Box<DedupTable>>,
    qidx: OnceLock<Box<QueryIndexes>>,
    /// Lazily built from `qidx`; dropped by every insert.
    meets: OnceLock<Box<ColumnMeets>>,
}

impl Database {
    /// Creates an empty database over `schema`.
    pub fn new(schema: Schema) -> Self {
        Self::with_capacity(schema, 0, 0)
    }

    /// Creates an empty database pre-sized for a bulk load of roughly
    /// `atoms` atoms over roughly `consts` distinct constants (e.g. from
    /// a snapshot header). Pre-sizing skips the rehash/regrow churn that
    /// dominates million-atom text loads.
    pub fn with_capacity(schema: Schema, atoms: usize, consts: usize) -> Self {
        let mut offs = Vec::with_capacity(atoms + 1);
        offs.push(0);
        Self {
            schema,
            consts: ConstPool::with_capacity(consts),
            rels: Vec::with_capacity(atoms),
            offs,
            args: Vec::with_capacity(atoms.saturating_mul(2)),
            dedup_hint: atoms,
            dedup: OnceLock::new(),
            qidx: OnceLock::new(),
            meets: OnceLock::new(),
        }
    }

    /// The schema `S`.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The constant pool (read access).
    #[inline]
    pub fn consts(&self) -> &ConstPool {
        &self.consts
    }

    /// The constant pool (intern access, e.g. for query parsing).
    #[inline]
    pub fn consts_mut(&mut self) -> &mut ConstPool {
        &mut self.consts
    }

    /// Interns a constant in this database's pool.
    pub fn constant(&mut self, name: &str) -> Const {
        self.consts.intern(name)
    }

    /// Split borrow: read access to the schema together with intern access
    /// to the constant pool (needed by query/mapping parsers, which resolve
    /// relations against the schema while interning constants).
    pub fn schema_and_consts_mut(&mut self) -> (&Schema, &mut ConstPool) {
        (&self.schema, &mut self.consts)
    }

    #[inline]
    fn row_args(&self, i: usize) -> &[Const] {
        row_at(&self.offs, &self.args, i)
    }

    #[inline]
    fn row_matches(&self, i: u32, rel: RelId, args: &[Const]) -> bool {
        self.rels[i as usize] == rel && self.row_args(i as usize) == args
    }

    /// The dedup table, materializing it over the current rows on first
    /// use.
    #[inline]
    fn dedup_table(&self) -> &DedupTable {
        self.dedup.get_or_init(|| self.build_dedup())
    }

    /// The dedup table over the current rows.
    fn build_dedup(&self) -> Box<DedupTable> {
        Box::new(DedupTable::build(
            self.dedup_hint,
            &self.rels,
            &self.offs,
            &self.args,
        ))
    }

    /// The query indexes, materializing them over the current rows on
    /// first use.
    #[inline]
    fn query_indexes(&self) -> &QueryIndexes {
        self.qidx.get_or_init(|| {
            Box::new(QueryIndexes::build(
                &self.schema,
                self.consts.len(),
                &self.rels,
                &self.offs,
                &self.args,
            ))
        })
    }

    /// Inserts an atom, returning its id (existing id if duplicate).
    pub fn insert(&mut self, atom: Atom) -> Result<AtomId, SchemaError> {
        self.schema.check_arity(atom.rel, atom.args.len())?;
        // Out of its cell while rows are added, then put back.
        let mut dedup = self.dedup.take().unwrap_or_else(|| self.build_dedup());
        let hash = hash_row(atom.rel, &atom.args);
        let (rels, offs, args) = (&self.rels, &self.offs, &self.args);
        let found = dedup.find(hash, |i| {
            rels[i as usize] == atom.rel && row_at(offs, args, i as usize) == &*atom.args
        });
        if let Some(id) = found {
            self.dedup = OnceLock::from(dedup);
            return Ok(id);
        }
        let id = AtomId(self.rels.len() as u32);
        dedup.insert(hash, id.0);
        self.dedup = OnceLock::from(dedup);
        self.rels.push(atom.rel);
        self.args.extend_from_slice(&atom.args);
        self.offs.push(self.args.len() as u32);
        // Query indexes are only maintained once someone has read them;
        // until then the next read's bulk build covers this row too.
        if let Some(q) = self.qidx.get_mut() {
            q.add_row(id, atom.rel, &atom.args);
        }
        // The new row can make two columns meet; the next read rebuilds.
        self.meets.take();
        Ok(id)
    }

    /// Convenience: intern names and insert `rel(args…)` in one call.
    pub fn insert_named(&mut self, rel: &str, args: &[&str]) -> Result<AtomId, SchemaError> {
        let rel = self.schema.rel(rel)?;
        let args: Vec<Const> = args.iter().map(|a| self.consts.intern(a)).collect();
        self.insert(Atom::new(rel, args))
    }

    /// The atom with the given id, as a borrowed columnar view.
    #[inline]
    pub fn atom(&self, id: AtomId) -> AtomRef<'_> {
        AtomRef {
            rel: self.rels[id.index()],
            args: self.row_args(id.index()),
        }
    }

    /// Whether an identical atom is present.
    pub fn contains(&self, atom: &Atom) -> bool {
        self.id_of(atom).is_some()
    }

    /// Id of an identical atom, if present.
    pub fn id_of(&self, atom: &Atom) -> Option<AtomId> {
        self.dedup_table()
            .find(hash_row(atom.rel, &atom.args), |i| {
                self.row_matches(i, atom.rel, &atom.args)
            })
    }

    /// Total number of atoms.
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }

    /// All atom ids, in insertion order.
    pub fn atom_ids(&self) -> impl Iterator<Item = AtomId> {
        (0..self.rels.len() as u32).map(AtomId)
    }

    /// The raw row columns `(rels, args)` — the snapshot wire content.
    /// Per-atom argument runs follow the schema arities in `rels` order;
    /// [`Database::from_columns`] is the inverse.
    pub fn columns(&self) -> (&[RelId], &[Const]) {
        (&self.rels, &self.args)
    }

    /// Rebuilds a database from row columns (and an already-populated
    /// constant pool). Every id is bounds-checked — a malformed column is
    /// an `Err`, never a panic — but no index is built: dedup and the
    /// query indexes materialize on first use (see the module docs),
    /// which is what makes the binary snapshot load an I/O-bound copy.
    ///
    /// Duplicate rows are structurally accepted (detecting them would
    /// force the dedup build this constructor exists to defer); lookups
    /// resolve to the first occurrence. The snapshot encoder never writes
    /// duplicates — only a forged payload can contain them, and the
    /// snapshot checksum plus this keep-first rule bound the damage to
    /// wrong query answers, exactly like the interner's trusted slots.
    pub fn from_columns(
        schema: Schema,
        consts: ConstPool,
        rels: Vec<RelId>,
        args: Vec<Const>,
    ) -> Result<Self, String> {
        let n_consts = consts.len();
        // Offsets from the declared arities; validates relation ids and
        // the total argument count.
        let mut offs = Vec::with_capacity(rels.len() + 1);
        offs.push(0u32);
        let mut total = 0usize;
        for (i, &rel) in rels.iter().enumerate() {
            if rel.index() >= schema.len() {
                return Err(format!("atom {i}: unknown relation id {}", rel.0));
            }
            total += schema.arity(rel);
            if total > args.len() {
                return Err(format!("atom {i}: argument run past the argument column"));
            }
            offs.push(total as u32);
        }
        if total != args.len() {
            return Err(format!(
                "argument column holds {} constants, rows need {total}",
                args.len()
            ));
        }
        if args.iter().any(|c| c.0.index() >= n_consts) {
            return Err("argument names an unknown constant id".into());
        }

        Ok(Self {
            schema,
            consts,
            rels,
            offs,
            args,
            dedup_hint: 0,
            dedup: OnceLock::new(),
            qidx: OnceLock::new(),
            meets: OnceLock::new(),
        })
    }

    /// Atom ids of relation `rel`.
    #[inline]
    pub fn atoms_of(&self, rel: RelId) -> &[AtomId] {
        &self.query_indexes().rel_index[rel.index()]
    }

    /// Atom ids of `rel` having constant `c` at position `pos`.
    #[inline]
    pub fn atoms_with(&self, rel: RelId, pos: usize, c: Const) -> &[AtomId] {
        let q = self.query_indexes();
        q.pos_posting(rel, pos, c)
            .map(|p| q.postings.slice(p))
            .unwrap_or(&[])
    }

    /// All atom ids mentioning constant `c` (each atom once).
    #[inline]
    pub fn atoms_mentioning(&self, c: Const) -> &[AtomId] {
        let q = self.query_indexes();
        q.const_adj
            .get(c.0.index())
            .map(|&p| q.postings.slice(p))
            .unwrap_or(&[])
    }

    /// Number of atoms of relation `rel` — O(1) (the `rel_index` length).
    /// The join evaluator's relation-size estimate for an atom with no
    /// bound argument ([`View::size_hint_of`](crate::View::size_hint_of)).
    #[inline]
    pub fn count_of(&self, rel: RelId) -> usize {
        self.query_indexes().rel_index[rel.index()].len()
    }

    /// Number of atoms of `rel` with constant `c` at position `pos` —
    /// O(1) (two array reads in the dense per-position column).
    #[inline]
    pub fn count_with(&self, rel: RelId, pos: usize, c: Const) -> usize {
        self.query_indexes()
            .pos_posting(rel, pos, c)
            .map_or(0, |p| p.len as usize)
    }

    /// Whether some constant occurs both at position `pa` of relation `ra`
    /// and at position `pb` of relation `rb` (for one column: whether it
    /// holds any constant). A query that puts one variable in two columns
    /// that do not meet has no embedding into the database. One bit read
    /// in a `C × C` matrix, `C` the sum of the arities, built on the first
    /// call (linear in the rows) and rebuilt after an insert.
    #[inline]
    pub fn columns_meet(&self, ra: RelId, pa: usize, rb: RelId, pb: usize) -> bool {
        self.meets
            .get_or_init(|| Box::new(ColumnMeets::build(self)))
            .meet(ra, pa, rb, pb)
    }

    /// Renders the whole database, one atom per line (stable order), for
    /// golden tests and examples.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for id in self.atom_ids() {
            out.push_str(&self.atom(id).render(&self.schema, &self.consts));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_rs() -> Database {
        let mut schema = Schema::new();
        schema.declare("R", 2).unwrap();
        schema.declare("S", 2).unwrap();
        Database::new(schema)
    }

    #[test]
    fn insert_deduplicates() {
        let mut db = db_rs();
        let a = db.insert_named("R", &["a", "b"]).unwrap();
        let b = db.insert_named("R", &["a", "b"]).unwrap();
        assert_eq!(a, b);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn arity_is_enforced() {
        let mut db = db_rs();
        let err = db.insert_named("R", &["a"]).unwrap_err();
        assert!(matches!(err, SchemaError::ArityMismatch { .. }));
        assert!(db.is_empty());
    }

    #[test]
    fn unknown_relation_is_rejected() {
        let mut db = db_rs();
        assert!(matches!(
            db.insert_named("Z", &["a"]).unwrap_err(),
            SchemaError::Unknown(_)
        ));
    }

    #[test]
    fn indexes_are_consistent() {
        let mut db = db_rs();
        let r = db.schema().rel("R").unwrap();
        let s = db.schema().rel("S").unwrap();
        let id1 = db.insert_named("R", &["a", "b"]).unwrap();
        let id2 = db.insert_named("R", &["a", "c"]).unwrap();
        let id3 = db.insert_named("S", &["c", "a"]).unwrap();
        let a = db.consts().get("a").unwrap();
        let c = db.consts().get("c").unwrap();

        assert_eq!(db.atoms_of(r), &[id1, id2]);
        assert_eq!(db.atoms_of(s), &[id3]);
        assert_eq!(db.atoms_with(r, 0, a), &[id1, id2]);
        assert_eq!(db.atoms_with(r, 1, c), &[id2]);
        assert_eq!(db.atoms_with(s, 1, a), &[id3]);
        assert!(db.atoms_with(s, 0, a).is_empty());

        let mut mention_a: Vec<AtomId> = db.atoms_mentioning(a).to_vec();
        mention_a.sort();
        assert_eq!(mention_a, vec![id1, id2, id3]);
        assert_eq!(db.atoms_mentioning(c), &[id2, id3]);
    }

    #[test]
    fn repeated_constant_in_one_atom_appears_once_in_adjacency() {
        let mut db = db_rs();
        let id = db.insert_named("R", &["e", "e"]).unwrap();
        let e = db.consts().get("e").unwrap();
        assert_eq!(db.atoms_mentioning(e), &[id]);
    }

    #[test]
    fn contains_and_id_of() {
        let mut db = db_rs();
        let id = db.insert_named("R", &["a", "b"]).unwrap();
        let r = db.schema().rel("R").unwrap();
        let a = db.consts().get("a").unwrap();
        let b = db.consts().get("b").unwrap();
        let atom = Atom::new(r, [a, b]);
        assert!(db.contains(&atom));
        assert_eq!(db.id_of(&atom), Some(id));
        let missing = Atom::new(r, [b, a]);
        assert!(!db.contains(&missing));
        assert_eq!(db.id_of(&missing), None);
    }

    #[test]
    fn render_lists_atoms_in_insertion_order() {
        let mut db = db_rs();
        db.insert_named("R", &["a", "b"]).unwrap();
        db.insert_named("S", &["a", "c"]).unwrap();
        assert_eq!(db.render(), "R(a, b)\nS(a, c)\n");
    }

    #[test]
    fn posting_lists_stay_in_insertion_order_across_regrowth() {
        // Enough atoms sharing a constant to force several posting
        // relocations and a few dedup-table regrows.
        let mut schema = Schema::new();
        schema.declare("R", 2).unwrap();
        let mut db = Database::new(schema);
        let mut ids = Vec::new();
        for i in 0..1000 {
            let right = format!("x{i}");
            ids.push(db.insert_named("R", &["hub", &right]).unwrap());
        }
        let hub = db.consts().get("hub").unwrap();
        assert_eq!(db.atoms_mentioning(hub), ids.as_slice());
        assert_eq!(db.atoms_mentioning(hub).len(), 1000);
        let r = db.schema().rel("R").unwrap();
        assert_eq!(db.atoms_with(r, 0, hub), ids.as_slice());
        // Dedup still exact after regrowth.
        assert_eq!(db.insert_named("R", &["hub", "x500"]).unwrap(), ids[500]);
        assert_eq!(db.len(), 1000);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut schema = Schema::new();
        schema.declare("R", 2).unwrap();
        let mut db = Database::with_capacity(schema, 64, 64);
        let id = db.insert_named("R", &["a", "b"]).unwrap();
        assert_eq!(db.insert_named("R", &["a", "b"]).unwrap(), id);
        let a = db.consts().get("a").unwrap();
        assert_eq!(db.atoms_mentioning(a), &[id]);
    }

    /// Inserts landing after the lazy bulk build must keep every index
    /// live: queries force the build, and later inserts maintain it
    /// incrementally — interleaving the two must agree with an eager
    /// database at every step.
    #[test]
    fn inserts_after_the_lazy_build_keep_indexes_live() {
        let mut db = db_rs();
        let r = db.schema().rel("R").unwrap();
        let id1 = db.insert_named("R", &["a", "b"]).unwrap();
        // Force the query-index build…
        assert_eq!(db.atoms_of(r), &[id1]);
        // …then keep inserting and observe each row appear everywhere.
        let id2 = db.insert_named("R", &["a", "c"]).unwrap();
        let id3 = db.insert_named("S", &["c", "a"]).unwrap();
        let a = db.consts().get("a").unwrap();
        let c = db.consts().get("c").unwrap();
        assert_eq!(db.atoms_of(r), &[id1, id2]);
        assert_eq!(db.atoms_with(r, 0, a), &[id1, id2]);
        assert_eq!(db.atoms_mentioning(c), &[id2, id3]);
        assert_eq!(db.atoms_mentioning(a).len(), 3);
        assert_eq!(db.insert_named("R", &["a", "c"]).unwrap(), id2);
        assert_eq!(db.len(), 3);
    }

    /// `from_columns` must rebuild a database indistinguishable from the
    /// one the rows came from — identical render, indexes, counts, and
    /// dedup behaviour — because the snapshot fast path rests on it.
    #[test]
    fn from_columns_rebuilds_the_identical_database() {
        let mut db = db_rs();
        db.insert_named("R", &["a", "b"]).unwrap();
        db.insert_named("R", &["a", "c"]).unwrap();
        db.insert_named("S", &["c", "a"]).unwrap();
        db.insert_named("S", &["e", "e"]).unwrap();
        let (rels, args) = db.columns();
        let mut pool = ConstPool::new();
        for name in ["a", "b", "c", "e"] {
            pool.intern(name);
        }
        let rebuilt =
            Database::from_columns(db.schema().clone(), pool, rels.to_vec(), args.to_vec())
                .unwrap();
        assert_eq!(rebuilt.render(), db.render());
        let r = db.schema().rel("R").unwrap();
        let a = rebuilt.consts().get("a").unwrap();
        let e = rebuilt.consts().get("e").unwrap();
        assert_eq!(rebuilt.atoms_of(r), db.atoms_of(r));
        assert_eq!(rebuilt.atoms_with(r, 0, a), db.atoms_with(r, 0, a));
        assert_eq!(rebuilt.atoms_mentioning(a), db.atoms_mentioning(a));
        assert_eq!(rebuilt.atoms_mentioning(e).len(), 1);
        assert_eq!(rebuilt.count_with(r, 0, a), 2);
        // Dedup is live: re-inserting an existing row returns its id.
        let mut rebuilt = rebuilt;
        assert_eq!(rebuilt.insert_named("R", &["a", "b"]).unwrap(), AtomId(0));
        assert_eq!(rebuilt.len(), 4);
    }

    #[test]
    fn from_columns_rejects_inconsistent_rows() {
        let mut schema = Schema::new();
        let r = schema.declare("R", 2).unwrap();
        // Unknown relation id.
        assert!(
            Database::from_columns(schema.clone(), ConstPool::new(), vec![RelId(9)], vec![])
                .is_err()
        );
        // Argument column too short / too long.
        assert!(Database::from_columns(schema.clone(), ConstPool::new(), vec![r], vec![]).is_err());
        let mut pool2 = ConstPool::new();
        let a2 = pool2.intern("a");
        assert!(Database::from_columns(schema.clone(), pool2, vec![r], vec![a2, a2, a2]).is_err());
        // Unknown constant id.
        assert!(Database::from_columns(
            schema,
            ConstPool::new(),
            vec![r],
            vec![Const(obx_util::Symbol(5)), Const(obx_util::Symbol(6))]
        )
        .is_err());
    }

    /// `columns_meet` on one column, two disjoint columns and two that
    /// share a constant; an insert that makes disjoint columns meet flips
    /// the answer, also after the matrix was read.
    #[test]
    fn columns_meet_tracks_shared_constants_across_inserts() {
        let mut db = db_rs();
        let r = db.schema().rel("R").unwrap();
        let s = db.schema().rel("S").unwrap();
        db.insert_named("R", &["a", "b"]).unwrap();
        db.insert_named("S", &["b", "c"]).unwrap();
        // The same column meets itself iff it holds a constant.
        assert!(db.columns_meet(r, 0, r, 0));
        // R.0 = {a}, R.1 = {b}, S.0 = {b}, S.1 = {c}.
        assert!(!db.columns_meet(r, 0, r, 1));
        assert!(db.columns_meet(r, 1, s, 0));
        assert!(db.columns_meet(s, 0, r, 1));
        assert!(!db.columns_meet(r, 0, s, 1));
        db.insert_named("S", &["e", "a"]).unwrap();
        assert!(db.columns_meet(r, 0, s, 1));
        assert!(db.columns_meet(s, 1, r, 0));
        assert!(!db.columns_meet(r, 0, r, 1));
        // A repeated constant within one row meets its own columns.
        db.insert_named("R", &["d", "d"]).unwrap();
        assert!(db.columns_meet(r, 0, r, 1));
        // A column of an empty relation meets nothing, not even itself.
        let mut schema = Schema::new();
        let t = schema.declare("T", 1).unwrap();
        let empty = Database::new(schema);
        assert!(!empty.columns_meet(t, 0, t, 0));
    }

    /// A database restored from snapshot bytes builds the matrix on first
    /// use and answers exactly as the database it was encoded from.
    #[test]
    fn columns_meet_survives_a_snapshot_round_trip() {
        let mut db = db_rs();
        db.insert_named("R", &["a", "b"]).unwrap();
        db.insert_named("S", &["b", "c"]).unwrap();
        db.insert_named("S", &["c", "c"]).unwrap();
        let bytes = crate::snapshot::encode_snapshot(&db, 0, 0);
        let restored = crate::snapshot::decode_snapshot(&bytes).unwrap().db;
        let (r, s) = (db.schema().rel("R").unwrap(), db.schema().rel("S").unwrap());
        let cols = [(r, 0), (r, 1), (s, 0), (s, 1)];
        let mut meeting = 0;
        for &(ra, pa) in &cols {
            for &(rb, pb) in &cols {
                let want = db.columns_meet(ra, pa, rb, pb);
                assert_eq!(restored.columns_meet(ra, pa, rb, pb), want);
                meeting += usize::from(want);
            }
        }
        // R.1–S.0 and S.0–S.1 both ways, plus the four diagonals.
        assert_eq!(meeting, 8);
    }

    /// Duplicate rows can only reach `from_columns` via a forged snapshot
    /// payload; they are tolerated structurally and resolve keep-first,
    /// as the trust model in the snapshot module documents.
    #[test]
    fn duplicate_rows_resolve_to_their_first_occurrence() {
        let mut schema = Schema::new();
        let r = schema.declare("R", 2).unwrap();
        let mut pool = ConstPool::new();
        let a = pool.intern("a");
        let b = pool.intern("b");
        let db = Database::from_columns(schema, pool, vec![r, r], vec![a, b, a, b]).unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(db.id_of(&Atom::new(r, [a, b])), Some(AtomId(0)));
        let mut db = db;
        assert_eq!(db.insert(Atom::new(r, [a, b])).unwrap(), AtomId(0));
        assert_eq!(db.len(), 2);
    }
}

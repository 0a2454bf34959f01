//! Uniform read access to a database or a masked sub-database.
//!
//! Definition 3.4 evaluates queries over a *border* `B_{t,r}(D)` — a subset
//! of the atoms of `D`. Rather than copying atoms into a fresh database per
//! classified tuple (quadratic in practice), a [`View`] pairs the full
//! database with an optional atom-id mask; evaluators consult the database's
//! indexes and filter by the mask.

use crate::atom::{AtomId, AtomRef};
use crate::atomset::AtomSet;
use crate::consts::Const;
use crate::database::Database;
use crate::schema::{RelId, Schema};

/// A database, or a sub-database selected by an atom-id mask.
#[derive(Clone, Copy)]
pub struct View<'a> {
    db: &'a Database,
    mask: Option<&'a AtomSet>,
}

impl<'a> View<'a> {
    /// View of the full database.
    pub fn full(db: &'a Database) -> Self {
        Self { db, mask: None }
    }

    /// View restricted to the atoms in `mask`.
    pub fn masked(db: &'a Database, mask: &'a AtomSet) -> Self {
        Self {
            db,
            mask: Some(mask),
        }
    }

    /// The underlying database.
    #[inline]
    pub fn db(&self) -> &'a Database {
        self.db
    }

    /// The schema.
    #[inline]
    pub fn schema(&self) -> &'a Schema {
        self.db.schema()
    }

    /// Whether `id` is visible through this view.
    #[inline]
    pub fn visible(&self, id: AtomId) -> bool {
        match self.mask {
            None => true,
            Some(m) => m.contains(id),
        }
    }

    /// The atom for a (visible or not) id, as a zero-copy columnar view.
    #[inline]
    pub fn atom(&self, id: AtomId) -> AtomRef<'a> {
        self.db.atom(id)
    }

    /// Visible atoms of relation `rel`.
    pub fn atoms_of(&self, rel: RelId) -> impl Iterator<Item = AtomId> + '_ {
        self.db
            .atoms_of(rel)
            .iter()
            .copied()
            .filter(move |&id| self.visible(id))
    }

    /// Visible atoms of `rel` with constant `c` at position `pos`.
    pub fn atoms_with(
        &self,
        rel: RelId,
        pos: usize,
        c: Const,
    ) -> impl Iterator<Item = AtomId> + '_ {
        self.db
            .atoms_with(rel, pos, c)
            .iter()
            .copied()
            .filter(move |&id| self.visible(id))
    }

    /// Upper bound on the number of visible atoms of `rel` (used by the
    /// evaluator to order joins; exact when unmasked).
    pub fn size_hint_of(&self, rel: RelId) -> usize {
        let full = self.db.count_of(rel);
        match self.mask {
            None => full,
            Some(m) => full.min(m.len()),
        }
    }

    /// Number of visible atoms (exact, O(1)).
    pub fn len(&self) -> usize {
        match self.mask {
            None => self.db.len(),
            Some(m) => m.len(),
        }
    }

    /// Whether no atom is visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for View<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("View")
            .field("db_atoms", &self.db.len())
            .field("mask", &self.mask.map(|m| m.len()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn db() -> Database {
        let mut schema = Schema::new();
        schema.declare("R", 2).unwrap();
        let mut db = Database::new(schema);
        db.insert_named("R", &["a", "b"]).unwrap();
        db.insert_named("R", &["a", "c"]).unwrap();
        db.insert_named("R", &["d", "e"]).unwrap();
        db
    }

    #[test]
    fn full_view_sees_everything() {
        let db = db();
        let r = db.schema().rel("R").unwrap();
        let v = View::full(&db);
        assert_eq!(v.len(), 3);
        assert_eq!(v.atoms_of(r).count(), 3);
        let a = db.consts().get("a").unwrap();
        assert_eq!(v.atoms_with(r, 0, a).count(), 2);
    }

    #[test]
    fn masked_view_filters() {
        let db = db();
        let r = db.schema().rel("R").unwrap();
        let mask = AtomSet::from_ids(db.len(), [AtomId(0)]);
        let v = View::masked(&db, &mask);
        assert_eq!(v.len(), 1);
        assert!(!v.is_empty());
        assert_eq!(v.atoms_of(r).collect::<Vec<_>>(), vec![AtomId(0)]);
        let a = db.consts().get("a").unwrap();
        assert_eq!(v.atoms_with(r, 0, a).collect::<Vec<_>>(), vec![AtomId(0)]);
        assert!(v.visible(AtomId(0)));
        assert!(!v.visible(AtomId(1)));
        assert_eq!(v.size_hint_of(r), 1);
    }

    #[test]
    fn estimates_are_index_counts_capped_by_the_mask() {
        let db = db();
        let r = db.schema().rel("R").unwrap();
        let a = db.consts().get("a").unwrap();
        assert_eq!(View::full(&db).size_hint_of(r), 3);
        let mask = AtomSet::from_ids(db.len(), [AtomId(0), AtomId(2)]);
        assert_eq!(View::masked(&db, &mask).size_hint_of(r), 2);
        assert_eq!(db.count_of(r), 3);
        assert_eq!(db.count_with(r, 0, a), 2);
        let d = db.consts().get("d").unwrap();
        assert_eq!(db.count_with(r, 1, d), 0);
    }

    #[test]
    fn empty_mask_view_is_empty() {
        let db = db();
        let mask = AtomSet::empty(db.len());
        let v = View::masked(&db, &mask);
        assert!(v.is_empty());
        let r = db.schema().rel("R").unwrap();
        assert_eq!(v.atoms_of(r).count(), 0);
    }
}

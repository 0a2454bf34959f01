//! Versioned, checksummed binary snapshot of the data layer.
//!
//! The text format (`schema.obx` + `data.obx`) is the authoring surface;
//! at 10⁶–10⁷ atoms its per-line parsing and per-occurrence string
//! interning dominate scenario load time. A snapshot replaces both files
//! with one binary image whose sections mirror the in-memory columnar
//! layout, so decoding is a handful of bulk reads instead of a
//! million-iteration insert loop:
//!
//! * the constant pool is stored as its three interner columns (arena
//!   blob, spans, hash-table slots — see
//!   [`Interner::as_parts`](obx_util::Interner::as_parts)), so *no
//!   string is hashed or even scanned* on load;
//! * atoms are stored as the database's two row columns (relation ids
//!   and the flat argument array), the authoritative state from which
//!   the database lazily materializes its indexes (see the
//!   [`database`](crate::database) module docs). Nothing derived is
//!   stored: on this side of the memory-bandwidth ledger, shipping an
//!   index costs more in read + checksum + copy than rebuilding it from
//!   the columns in one exact-size counting pass on first use.
//!
//! Wire layout, version 2 (all integers little-endian):
//!
//! ```text
//! magic      8  b"OBXSNAP\0"
//! version    4  u32, currently 2
//! crc32      4  IEEE CRC-32 of the payload
//! paylen     8  u64 payload byte length (truncation check)
//! payload:
//!   schema_src_len u64, data_src_len u64   # byte sizes of the .obx
//!                                          # sources at build time
//!   num_rels   u32; per rel: arity u32, name_len u32, name bytes
//!   arena_len  u64; arena bytes            # all constant names, packed
//!   num_consts u32; per const: start u32, len u32      # arena spans
//!   table_len  u32; per slot:  hash u64, symbol u32    # interner table
//!   num_atoms  u32; per atom:  rel u32                 # row column 1
//!   num_args   u64; per arg:   const u32               # row column 2
//! ```
//!
//! (Version 1 encoded atoms row-by-row and replayed them through the
//! incremental insert path; it decoded correctly but spent most of its
//! budget rebuilding hash indexes one atom at a time.)
//!
//! Every id column and structural invariant (bounds, counts, arity
//! totals) is validated on decode — a malformed payload is an `Err`,
//! never a panic or a hang. The *semantic* claims that survive
//! validation — that the interner slots sit on their probe chains, that
//! the rows are duplicate-free — are trusted under the checksum: a
//! forged-but-consistent payload can only mis-answer queries, it cannot
//! cause out-of-bounds access or non-termination.
//!
//! Decoding rebuilds the *identical* [`Database`]: the interner columns
//! reproduce every [`Const`] id and the row columns every
//! [`crate::AtomId`], so every downstream artifact — borders, match
//! bitsets, ranked explanations — is byte-identical to a text-path load
//! of the same sources. Structural damage (bad magic, checksum, counts)
//! fails closed as [`SnapshotError::Corrupt`]; a different format
//! version is reported as the distinct [`SnapshotError::Version`] so
//! loaders can fall back to the text sources instead of hard-failing on
//! caches written by an older build.

use crate::consts::{Const, ConstPool};
use crate::database::Database;
use crate::schema::{RelId, Schema};
use obx_util::hash::crc32;
use obx_util::Span;
use std::path::Path;

/// Current wire-format version.
pub const SNAPSHOT_VERSION: u32 = 2;

const MAGIC: &[u8; 8] = b"OBXSNAP\0";
const HEADER_LEN: usize = 8 + 4 + 4 + 8;

/// Errors reading a snapshot file.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read at all.
    Io(std::io::Error),
    /// The file is a well-formed snapshot of a different format version.
    /// Not corruption: loaders should treat it like a stale snapshot and
    /// rebuild from the text sources.
    Version(u32),
    /// The file is not a valid snapshot: bad magic, checksum mismatch,
    /// truncation, or inconsistent payload. The message says which.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "{e}"),
            SnapshotError::Version(v) => {
                write!(
                    f,
                    "snapshot version {v} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Corrupt(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A decoded snapshot: the rebuilt database plus the source-file sizes
/// recorded at build time (the loader's staleness check).
#[derive(Debug)]
pub struct Snapshot {
    /// Byte length of `schema.obx` when the snapshot was built.
    pub schema_src_len: u64,
    /// Byte length of `data.obx` when the snapshot was built.
    pub data_src_len: u64,
    /// The rebuilt data layer.
    pub db: Database,
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Encodes `db` (schema, constants, atoms) into snapshot bytes.
/// `schema_src_len` / `data_src_len` are the byte sizes of the text
/// sources the snapshot mirrors, stored for the loader's staleness check.
pub fn encode_snapshot(db: &Database, schema_src_len: u64, data_src_len: u64) -> Vec<u8> {
    let schema = db.schema();
    let (arena, spans, slots) = db.consts().as_parts();
    let (rels, args) = db.columns();
    let fixed = 16
        + 4
        + schema.len() * 8
        + 8
        + arena.len()
        + 4
        + spans.len() * 8
        + 4
        + slots.len() * 12
        + 4
        + rels.len() * 4
        + 8
        + args.len() * 4;
    let mut payload = Vec::with_capacity(fixed + schema.len() * 8);
    put_u64(&mut payload, schema_src_len);
    put_u64(&mut payload, data_src_len);

    put_u32(&mut payload, schema.len() as u32);
    for rel in schema.rel_ids() {
        let name = schema.name(rel);
        put_u32(&mut payload, schema.arity(rel) as u32);
        put_u32(&mut payload, name.len() as u32);
        payload.extend_from_slice(name.as_bytes());
    }

    put_u64(&mut payload, arena.len() as u64);
    payload.extend_from_slice(arena.as_bytes());
    put_u32(&mut payload, spans.len() as u32);
    for &(start, len) in spans {
        put_u32(&mut payload, start);
        put_u32(&mut payload, len);
    }
    put_u32(&mut payload, slots.len() as u32);
    for &(hash, sym) in slots {
        put_u64(&mut payload, hash);
        put_u32(&mut payload, sym);
    }

    put_u32(&mut payload, rels.len() as u32);
    for &rel in rels {
        put_u32(&mut payload, rel.0);
    }
    put_u64(&mut payload, args.len() as u64);
    for &c in args {
        put_u32(&mut payload, c.0 .0);
    }

    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, SNAPSHOT_VERSION);
    put_u32(&mut out, crc32(&payload));
    put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out
}

/// Encodes `db` and writes the snapshot to `path`.
pub fn write_snapshot(
    path: &Path,
    db: &Database,
    schema_src_len: u64,
    data_src_len: u64,
) -> std::io::Result<u64> {
    let bytes = encode_snapshot(db, schema_src_len, data_src_len);
    std::fs::write(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Bounded little-endian reader over the payload.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapshotError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.at..end];
                self.at = end;
                Ok(s)
            }
            None => Err(SnapshotError::Corrupt(format!(
                "truncated payload reading {what} at offset {}",
                self.at
            ))),
        }
    }

    fn u32(&mut self, what: &str) -> Result<u32, SnapshotError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, SnapshotError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn str(&mut self, n: usize, what: &str) -> Result<&'a str, SnapshotError> {
        std::str::from_utf8(self.take(n, what)?)
            .map_err(|_| SnapshotError::Corrupt(format!("{what} is not valid UTF-8")))
    }

    /// Reads `n` little-endian `u32`s in one bounded take, mapping each
    /// through `f` — the bulk column reader.
    fn u32s<T>(
        &mut self,
        n: usize,
        what: &str,
        f: impl Fn(u32) -> T,
    ) -> Result<Vec<T>, SnapshotError> {
        let bytes = self.take(n * 4, what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| f(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
            .collect())
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }
}

fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

/// Decodes snapshot `bytes` back into a [`Snapshot`], verifying magic,
/// version, length, and checksum before touching the payload.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(format!(
            "file too short for a snapshot header ({} bytes)",
            bytes.len()
        )));
    }
    if &bytes[..8] != MAGIC {
        return Err(corrupt("bad magic: not an OBX snapshot"));
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::Version(version));
    }
    let want_crc = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
    let paylen = u64::from_le_bytes([
        bytes[16], bytes[17], bytes[18], bytes[19], bytes[20], bytes[21], bytes[22], bytes[23],
    ]) as usize;
    let payload = &bytes[HEADER_LEN..];
    if payload.len() != paylen {
        return Err(corrupt(format!(
            "truncated snapshot: header promises {paylen} payload bytes, file has {}",
            payload.len()
        )));
    }
    let got_crc = crc32(payload);
    if got_crc != want_crc {
        return Err(corrupt(format!(
            "checksum mismatch: header {want_crc:#010x}, payload {got_crc:#010x}"
        )));
    }

    let mut cur = Cursor {
        buf: payload,
        at: 0,
    };
    let schema_src_len = cur.u64("schema source length")?;
    let data_src_len = cur.u64("data source length")?;

    let num_rels = cur.u32("relation count")? as usize;
    let mut schema = Schema::new();
    for i in 0..num_rels {
        let arity = cur.u32("relation arity")? as usize;
        let name_len = cur.u32("relation name length")? as usize;
        let name = cur.str(name_len, "relation name")?;
        let rel = schema
            .declare(name, arity)
            .map_err(|e| corrupt(format!("invalid schema entry {i}: {e}")))?;
        if rel.index() != i {
            return Err(corrupt(format!("duplicate relation name {name:?}")));
        }
    }

    let arena_len = cur.u64("arena length")? as usize;
    let arena = cur.str(arena_len, "constant arena")?.to_owned();
    let num_consts = cur.u32("constant count")? as usize;
    if num_consts.saturating_mul(8) > cur.remaining() {
        return Err(corrupt("constant count exceeds payload size"));
    }
    let span_bytes = cur.take(num_consts * 8, "constant spans")?;
    let spans: Vec<Span> = span_bytes
        .chunks_exact(8)
        .map(|b| {
            (
                u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
                u32::from_le_bytes([b[4], b[5], b[6], b[7]]),
            )
        })
        .collect();
    let table_len = cur.u32("interner table length")? as usize;
    if table_len.saturating_mul(12) > cur.remaining() {
        return Err(corrupt("interner table length exceeds payload size"));
    }
    let slot_bytes = cur.take(table_len * 12, "interner table")?;
    let slots: Vec<(u64, u32)> = slot_bytes
        .chunks_exact(12)
        .map(|b| {
            (
                u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]),
                u32::from_le_bytes([b[8], b[9], b[10], b[11]]),
            )
        })
        .collect();
    let pool = ConstPool::from_parts(arena, spans, slots)
        .ok_or_else(|| corrupt("inconsistent interner columns"))?;
    if pool.len() != num_consts {
        return Err(corrupt("interner columns disagree with constant count"));
    }

    let num_atoms = cur.u32("atom count")? as usize;
    if num_atoms.saturating_mul(4) > cur.remaining() {
        return Err(corrupt("atom count exceeds payload size"));
    }
    let rels = cur.u32s(num_atoms, "atom relations", RelId)?;
    let num_args = cur.u64("argument count")? as usize;
    if num_args.saturating_mul(4) > cur.remaining() {
        return Err(corrupt("argument count exceeds payload size"));
    }
    let args = cur.u32s(num_args, "atom arguments", |raw| {
        Const(obx_util::Symbol(raw))
    })?;
    if cur.remaining() != 0 {
        return Err(corrupt(format!(
            "{} trailing bytes after the argument column",
            cur.remaining()
        )));
    }

    let db = Database::from_columns(schema, pool, rels, args)
        .map_err(|e| corrupt(format!("inconsistent row columns: {e}")))?;
    Ok(Snapshot {
        schema_src_len,
        data_src_len,
        db,
    })
}

/// Reads and decodes the snapshot at `path`.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, SnapshotError> {
    let bytes = std::fs::read(path).map_err(SnapshotError::Io)?;
    decode_snapshot(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_database, parse_schema};
    use obx_util::Symbol;

    fn paper_db() -> Database {
        let schema = parse_schema("STUD/1 LOC/2 ENR/3").unwrap();
        parse_database(
            schema,
            "STUD(A10).\nSTUD(B80).\nLOC(Sap, Rome).\nLOC(TV, Rome).\n\
             ENR(A10, Math, TV).\nENR(B80, Math, Sap).\n",
        )
        .unwrap()
    }

    #[test]
    fn snapshot_roundtrips_the_database_byte_identically() {
        let db = paper_db();
        let bytes = encode_snapshot(&db, 17, 4242);
        let snap = decode_snapshot(&bytes).unwrap();
        assert_eq!(snap.schema_src_len, 17);
        assert_eq!(snap.data_src_len, 4242);
        assert_eq!(snap.db.len(), db.len());
        assert_eq!(snap.db.consts().len(), db.consts().len());
        // Same render text ⇒ same atoms in the same order with the same
        // constant ids.
        assert_eq!(snap.db.render(), db.render());
        for i in 0..db.consts().len() {
            let c = Const(Symbol(i as u32));
            assert_eq!(snap.db.consts().resolve(c), db.consts().resolve(c));
        }
        // The interner table came over intact: lookups by name work.
        assert_eq!(snap.db.consts().get("Rome"), db.consts().get("Rome"));
        // Lazily materialized indexes agree: adjacency answers match.
        let rome = db.consts().get("Rome").unwrap();
        assert_eq!(snap.db.atoms_mentioning(rome), db.atoms_mentioning(rome));
        // So does dedup: probes by atom value resolve to the same ids.
        for id in db.atom_ids() {
            let atom = db.atom(id).to_atom();
            assert_eq!(snap.db.id_of(&atom), Some(id));
        }
    }

    #[test]
    fn bad_magic_version_and_checksum_are_rejected() {
        let db = paper_db();
        let good = encode_snapshot(&db, 0, 0);

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_snapshot(&bad),
            Err(SnapshotError::Corrupt(msg)) if msg.contains("magic")
        ));

        // A different version is reported as such (not corruption), so
        // loaders can silently rebuild from text.
        let mut bad = good.clone();
        bad[8] = 99;
        assert!(matches!(
            decode_snapshot(&bad),
            Err(SnapshotError::Version(99))
        ));

        // Flip one payload byte: the checksum must catch it.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(
            decode_snapshot(&bad),
            Err(SnapshotError::Corrupt(msg)) if msg.contains("checksum")
        ));
    }

    #[test]
    fn truncated_snapshots_are_rejected_at_every_length() {
        let db = paper_db();
        let good = encode_snapshot(&db, 0, 0);
        // Every strict prefix must fail closed (header length check or
        // payload-length mismatch), never panic.
        for cut in 0..good.len() {
            assert!(
                decode_snapshot(&good[..cut]).is_err(),
                "prefix of {cut} bytes was accepted"
            );
        }
    }

    #[test]
    fn inconsistent_payloads_are_rejected() {
        let db = paper_db();
        // The last u32 of the payload is the last atom argument. Point it
        // at a constant id the interner doesn't hold: the column bounds
        // check must reject it.
        let mut bytes = encode_snapshot(&db, 0, 0);
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        // Fix the checksum so only the semantic check can reject it.
        let crc = crc32(&bytes[24..]);
        bytes[12..16].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotError::Corrupt(msg)) if msg.contains("unknown constant")
        ));
    }

    #[test]
    fn write_and_read_through_a_file() {
        let dir = std::env::temp_dir().join(format!("obx-snap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.obxsnap");
        let db = paper_db();
        let written = write_snapshot(&path, &db, 1, 2).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        let snap = read_snapshot(&path).unwrap();
        assert_eq!(snap.db.render(), db.render());
        assert!(matches!(
            read_snapshot(&dir.join("absent.obxsnap")),
            Err(SnapshotError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

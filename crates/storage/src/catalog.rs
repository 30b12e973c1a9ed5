//! Persistent serving catalog: the manifest and state checkpoints behind a
//! durable graph registry.
//!
//! A serving process that maintains core numbers incrementally has three
//! things to lose on restart: *which* graphs it was serving, the maintained
//! per-node state the incremental algorithms exist to preserve, and the
//! not-yet-compacted edge edits sitting in each graph's update buffer. This
//! module persists all three:
//!
//! * [`Catalog`] — a versioned, checksummed manifest (`catalog.kc` in the
//!   data directory) recording the pool configuration and, per graph, the
//!   name, base path, charge budget and last checkpoint sequence number.
//!   Rewritten atomically (temp file + rename + directory fsync) on every
//!   registry change.
//! * [`StateCheckpoint`] — one file per graph (`<name>.ckpt`) holding the
//!   maintained state at a journal sequence number: core numbers, the
//!   Eq. 2 counters, and the pending update-buffer edits relative to the
//!   immutable on-disk tables. Restoring it is one sequential scan — the
//!   whole point, versus re-running a multi-pass decomposition.
//!
//! Both files carry a magic, a format version and a trailing CRC-32; a
//! failed validation surfaces as [`Error::Corrupt`], never a panic or an
//! unbounded allocation.
//!
//! A checkpoint is `KCORCKP1 | version u32 | seq u64 | n u32 | edits u32 |
//! state | edits × (u u32, v u32, flag u8) | crc u32` (little-endian; the
//! CRC covers everything after the magic). Version 2, the only one
//! written, stores the state per node as `core` (an LEB128 varint) then
//! `cnt − core` (zigzagged, at most 5 bytes, so an understated `cnt` stays
//! representable): about 2 B/node on the stand-ins, from 8. Version 1 —
//! `n` raw `u32` cores, then `n` raw `i32` counters — is still read, so a
//! directory written before version 2 opens unchanged; its next checkpoint
//! or compaction rewrites it as version 2. The reader takes at most five
//! bytes per varint, keeps `core` in `u32` and `cnt` in `i32`, checks `n`
//! against the payload before allocating and consumes every byte.
//!
//! The recovery invariants tying these artefacts to the per-graph
//! write-ahead journal ([`crate::wal`]) are documented in ARCHITECTURE.md
//! ("Durability").

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::codec;
use crate::error::{Error, Result};
use crate::format::FormatVersion;
use crate::io::{sync_parent_dir, IoCounter};
use crate::vfs::{StdVfs, Vfs};

/// Magic bytes opening the catalog manifest.
pub const CATALOG_MAGIC: &[u8; 8] = b"KCORCAT1";
/// Magic bytes opening a state checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"KCORCKP1";
/// Layout version written into state checkpoints: per node, `core` as an
/// LEB128 varint and `cnt − core` as a zigzagged one. Version 1 (raw
/// `u32` cores, then raw `i32` counters) is read and never written.
pub const DURABILITY_VERSION: u32 = 2;
/// Layout version of the catalog manifest: the one written and the one
/// read. The layouts before it (1: no per-entry edge-table format flag,
/// 2: no per-entry table generation) have had no writer since PR 13 and
/// are refused by version.
pub const CATALOG_VERSION: u32 = 3;

/// Name of the manifest file within a data directory.
pub const CATALOG_FILE: &str = "catalog.kc";

/// One served graph as recorded in the [`Catalog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Registry name of the graph (also names its `.ckpt`/`.wal` files).
    pub name: String,
    /// Base path of the immutable `<base>.nodes`/`.edges` table pair.
    pub base: PathBuf,
    /// The per-graph charge budget `M` its `read_ios` is priced against.
    pub charge_bytes: u64,
    /// Journal sequence number of a completed checkpoint. Advisory and
    /// possibly stale: the checkpoint file's own sequence number is
    /// authoritative, and the manifest is only rewritten when the registry
    /// shape changes — not on every checkpoint.
    pub checkpoint_seq: u64,
    /// Edge-table encoding of the base tables at registration time.
    /// Recovery cross-checks this against the node header actually on
    /// disk, so a base table swapped behind the catalog's back surfaces as
    /// corruption instead of silently serving a different file.
    pub format: FormatVersion,
    /// Table generation of the base file pair. Generation 0 names the
    /// registered base path verbatim; generation `g > 0` names
    /// `<base>.g<g>` — the output of the `g`-th compaction rewrite. The
    /// catalog rewrite that bumps this field is the single commit point of
    /// a compaction: until it lands, recovery keeps reading the old tables
    /// and the new-generation files are dead weight `fsck` can sweep.
    pub generation: u64,
}

impl CatalogEntry {
    /// Base path of the table pair this entry's generation actually names:
    /// the registered base for generation 0, `<base>.g<generation>`
    /// otherwise. All openers (recovery, fsck, the CLI) must resolve
    /// through this, never through [`CatalogEntry::base`] directly.
    pub fn table_base(&self) -> PathBuf {
        generation_base(&self.base, self.generation)
    }
}

/// The table base path of generation `generation` for a graph registered at
/// `base`: the base itself at generation 0, `<base>.g<generation>` beyond.
pub fn generation_base(base: &Path, generation: u64) -> PathBuf {
    if generation == 0 {
        base.to_path_buf()
    } else {
        let mut s = base.as_os_str().to_owned();
        s.push(format!(".g{generation}"));
        PathBuf::from(s)
    }
}

/// The persistent manifest of a durable serving directory: pool
/// configuration plus one [`CatalogEntry`] per served graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Catalog {
    /// Block size `B` of the shared pool (and of all charged accounting).
    pub block_size: usize,
    /// Global pool budget in bytes, arbitrated across all entries.
    pub budget_bytes: u64,
    /// The served graphs, in registration order.
    pub entries: Vec<CatalogEntry>,
}

impl Catalog {
    /// Path of the manifest inside `dir`.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(CATALOG_FILE)
    }

    /// True when `dir` holds a manifest.
    pub fn exists_in(dir: &Path) -> bool {
        Self::path_in(dir).is_file()
    }

    /// Serialize and atomically replace the manifest in `dir`: write to a
    /// temp file, fsync, rename over [`CATALOG_FILE`], fsync the directory.
    /// A crash at any point leaves either the old or the new manifest,
    /// never a mixture.
    pub fn write(&self, dir: &Path) -> Result<()> {
        self.write_with(dir, &StdVfs)
    }

    /// [`Catalog::write`] through an explicit [`Vfs`] — the seam the
    /// fault-schedule tests drive.
    pub fn write_with(&self, dir: &Path, vfs: &dyn Vfs) -> Result<()> {
        let mut body = Vec::new();
        codec_put_u32(&mut body, CATALOG_VERSION);
        codec_put_u32(&mut body, self.block_size as u32);
        body.extend_from_slice(&self.budget_bytes.to_le_bytes());
        body.push(POLICY_SCAN_LIFO);
        codec_put_u32(&mut body, self.entries.len() as u32);
        for e in &self.entries {
            put_str(&mut body, &e.name)?;
            let base = e.base.to_str().ok_or_else(|| {
                Error::InvalidArgument(format!(
                    "graph base path {:?} is not valid UTF-8 and cannot be catalogued",
                    e.base
                ))
            })?;
            put_str(&mut body, base)?;
            body.extend_from_slice(&e.charge_bytes.to_le_bytes());
            body.extend_from_slice(&e.checkpoint_seq.to_le_bytes());
            body.push(e.format.as_u32() as u8);
            body.extend_from_slice(&e.generation.to_le_bytes());
        }
        let mut bytes = Vec::with_capacity(body.len() + 12);
        bytes.extend_from_slice(CATALOG_MAGIC);
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&codec::crc32(&body).to_le_bytes());

        let path = Self::path_in(dir);
        write_atomically(vfs, &path, &bytes)
    }

    /// Read and validate the manifest in `dir`.
    pub fn read(dir: &Path) -> Result<Catalog> {
        Self::read_with(dir, &StdVfs)
    }

    /// [`Catalog::read`] through an explicit [`Vfs`].
    pub fn read_with(dir: &Path, vfs: &dyn Vfs) -> Result<Catalog> {
        let path = Self::path_in(dir);
        let bytes = vfs.read(&path)?;
        let body = checked_body(&bytes, CATALOG_MAGIC, "catalog")?;
        let mut cur = Cursor::new(body);
        let version = cur.u32("catalog version")?;
        if version != CATALOG_VERSION {
            return Err(Error::corrupt(format!(
                "unsupported catalog version {version} (expected {CATALOG_VERSION}; a build at \
                 or before PR 23 can `kcore recompress` a version 1 or 2 directory)"
            )));
        }
        let block_size = cur.u32("catalog block size")? as usize;
        if block_size == 0 {
            return Err(Error::corrupt("catalog block size is zero"));
        }
        let budget_bytes = cur.u64("catalog budget")?;
        check_policy(cur.u8("catalog policy")?)?;
        let count = cur.u32("catalog entry count")? as usize;
        let mut entries = Vec::new();
        for _ in 0..count {
            let name = cur.str("entry name")?;
            let base = PathBuf::from(cur.str("entry base path")?);
            let charge_bytes = cur.u64("entry charge budget")?;
            let checkpoint_seq = cur.u64("entry checkpoint seq")?;
            let format = FormatVersion::from_u32(cur.u8("entry format flag")? as u32)?;
            let generation = cur.u64("entry generation")?;
            entries.push(CatalogEntry {
                name,
                base,
                charge_bytes,
                checkpoint_seq,
                format,
                generation,
            });
        }
        cur.finish("catalog")?;
        Ok(Catalog {
            block_size,
            budget_bytes,
            entries,
        })
    }
}

/// A graph's maintained per-node state frozen at journal sequence number
/// [`seq`](StateCheckpoint::seq), plus the update-buffer edits pending
/// against the immutable on-disk tables at that moment.
///
/// This is deliberately typed as raw vectors rather than any algorithm
/// structure: the storage layer persists *state*, the layers above decide
/// what it means. Restoring one is a single sequential read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateCheckpoint {
    /// Sequence number of the last maintenance op reflected in this state.
    pub seq: u64,
    /// Per-node core numbers.
    pub cores: Vec<u32>,
    /// Per-node Eq. 2 counters.
    pub cnt: Vec<i32>,
    /// Pending undirected edge edits `(u, v, inserted)` with `u < v`,
    /// relative to the on-disk tables (the update buffer's net content).
    pub edits: Vec<(u32, u32, bool)>,
}

impl StateCheckpoint {
    /// Serialize and atomically replace the checkpoint at `path` (temp
    /// file + rename + directory fsync), charging the sequential write to
    /// `counter`. The rename is the durability commit point the recovery
    /// protocol builds on.
    pub fn write(&self, path: &Path, counter: &Arc<IoCounter>) -> Result<()> {
        Self::write_parts(path, counter, self.seq, &self.cores, &self.cnt, &self.edits)
    }

    /// [`StateCheckpoint::write`] from borrowed parts — the hot-path form:
    /// the serving layer checkpoints every `checkpoint_every` ops while
    /// holding the graph's lock, and cloning two `O(n)` vectors per
    /// checkpoint just to feed an owned struct would betray the bounded
    /// semi-external footprint everything else maintains. The file is
    /// built in one buffer of its exact size (layout version
    /// [`DURABILITY_VERSION`], ≈ 2 B/node).
    pub fn write_parts(
        path: &Path,
        counter: &Arc<IoCounter>,
        seq: u64,
        cores: &[u32],
        cnt: &[i32],
        edits: &[(u32, u32, bool)],
    ) -> Result<()> {
        if cores.len() != cnt.len() {
            return Err(Error::InvalidArgument(format!(
                "checkpoint vectors disagree: {} cores vs {} counters",
                cores.len(),
                cnt.len()
            )));
        }
        let state: usize = cores
            .iter()
            .zip(cnt)
            .map(|(&c, &k)| varint_len(c.into()) + varint_len(zigzag(k, c)))
            .sum();
        let len = CHECKPOINT_MAGIC.len() + 20 + state + edits.len() * 9 + 4;
        let mut bytes = Vec::with_capacity(len);
        bytes.extend_from_slice(CHECKPOINT_MAGIC);
        codec_put_u32(&mut bytes, DURABILITY_VERSION);
        bytes.extend_from_slice(&seq.to_le_bytes());
        codec_put_u32(&mut bytes, cores.len() as u32);
        codec_put_u32(&mut bytes, edits.len() as u32);
        for (&c, &k) in cores.iter().zip(cnt) {
            codec::put_varint_u32(&mut bytes, c);
            codec::put_varint_u64(&mut bytes, zigzag(k, c));
        }
        for &(u, v, inserted) in edits {
            bytes.extend_from_slice(&u.to_le_bytes());
            bytes.extend_from_slice(&v.to_le_bytes());
            bytes.push(inserted as u8);
        }
        let crc = codec::crc32(&bytes[CHECKPOINT_MAGIC.len()..]);
        bytes.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(bytes.len(), len);

        let b = counter.block_size() as u64;
        counter.charge_write((bytes.len() as u64).div_ceil(b), bytes.len() as u64);
        write_atomically(counter.vfs().as_ref(), path, &bytes)
    }

    /// Read and validate the checkpoint at `path`, charging the sequential
    /// read to `counter`. Reads layout versions 1 and 2.
    pub fn read(path: &Path, counter: &Arc<IoCounter>) -> Result<StateCheckpoint> {
        let bytes = counter.vfs().read(path)?;
        let b = counter.block_size() as u64;
        counter.charge_read((bytes.len() as u64).div_ceil(b).max(1), bytes.len() as u64);

        let body = checked_body(&bytes, CHECKPOINT_MAGIC, "checkpoint")?;
        let mut cur = Cursor::new(body);
        let version = cur.u32("checkpoint version")?;
        if version != 1 && version != DURABILITY_VERSION {
            return Err(Error::corrupt(format!(
                "unsupported checkpoint version {version} (expected 1 or {DURABILITY_VERSION})"
            )));
        }
        let seq = cur.u64("checkpoint seq")?;
        let n = cur.u32("checkpoint node count")? as usize;
        let edits_len = cur.u32("checkpoint edit count")? as usize;
        // Validate the declared sizes against the actual payload before
        // allocating: corrupt counts must not drive unbounded allocations.
        // A node takes 8 bytes in version 1 and at least 2 in version 2.
        let per_node = if version == 1 { 8 } else { 2 };
        if n > cur.remaining() / per_node {
            return Err(Error::corrupt(format!(
                "checkpoint declares {n} nodes but holds {} payload bytes",
                cur.remaining()
            )));
        }
        let mut cores = Vec::with_capacity(n);
        let mut cnt = Vec::with_capacity(n);
        if version == 1 {
            for _ in 0..n {
                cores.push(cur.u32("core number")?);
            }
            for _ in 0..n {
                cnt.push(cur.u32("cnt counter")? as i32);
            }
        } else {
            for _ in 0..n {
                let core = u32::try_from(cur.varint("core number")?)
                    .map_err(|_| Error::corrupt("checkpoint core number exceeds u32"))?;
                let z = cur.varint("cnt offset")?;
                let offset = (z >> 1) as i64 ^ -((z & 1) as i64);
                cores.push(core);
                cnt.push(
                    i32::try_from(i64::from(core) + offset)
                        .map_err(|_| Error::corrupt("checkpoint cnt counter exceeds i32"))?,
                );
            }
        }
        if edits_len.checked_mul(9) != Some(cur.remaining()) {
            return Err(Error::corrupt(format!(
                "checkpoint declares {edits_len} edits but holds {} bytes after its {n} nodes",
                cur.remaining()
            )));
        }
        let mut edits = Vec::with_capacity(edits_len);
        for _ in 0..edits_len {
            let u = cur.u32("edit endpoint")?;
            let v = cur.u32("edit endpoint")?;
            let flag = cur.u8("edit flag")?;
            if flag > 1 {
                return Err(Error::corrupt(format!("invalid edit flag {flag}")));
            }
            edits.push((u, v, flag == 1));
        }
        cur.finish("checkpoint")?;
        Ok(StateCheckpoint {
            seq,
            cores,
            cnt,
            edits,
        })
    }
}

/// The zigzag image of `cnt − core`: small magnitudes of either sign map
/// to small codes. Every `i32 − u32` lands below 2³⁵, in five varint bytes.
fn zigzag(cnt: i32, core: u32) -> u64 {
    let d = i64::from(cnt) - i64::from(core);
    ((d << 1) ^ (d >> 63)) as u64
}

/// Encoded length of `v` as an LEB128 varint.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Write `bytes` at `path` atomically: temp sibling, fsync, rename, fsync
/// the directory entry. Routed through `vfs` so every step — including
/// the rename that is the commit point — is fault-injectable.
fn write_atomically(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = {
        let mut s = path.as_os_str().to_owned();
        s.push(".tmp");
        PathBuf::from(s)
    };
    let mut f = vfs.create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    vfs.rename(&tmp, path)?;
    sync_parent_dir(vfs, path)
}

/// Strip and verify magic + trailing CRC, returning the body in between.
fn checked_body<'a>(bytes: &'a [u8], magic: &[u8; 8], what: &str) -> Result<&'a [u8]> {
    if bytes.len() < magic.len() + 4 {
        return Err(Error::corrupt(format!("{what} file shorter than framing")));
    }
    if &bytes[..magic.len()] != magic {
        return Err(Error::corrupt(format!("bad {what} magic")));
    }
    let body = &bytes[magic.len()..bytes.len() - 4];
    let stored = codec::get_u32(bytes, bytes.len() - 4);
    if codec::crc32(body) != stored {
        return Err(Error::corrupt(format!("{what} checksum mismatch")));
    }
    Ok(body)
}

fn codec_put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<()> {
    if s.len() > u16::MAX as usize {
        return Err(Error::InvalidArgument(format!(
            "catalog string of {} bytes exceeds the u16 length prefix",
            s.len()
        )));
    }
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// The manifest's policy byte for the one eviction policy there is
/// ([`crate::EvictionPolicy::ScanLifo`]).
const POLICY_SCAN_LIFO: u8 = 1;

/// Byte 0 named the retired LRU policy. A policy moves physical residency,
/// never a result or a charged count's meaning, so a directory saved under
/// it opens under the one policy there is.
fn check_policy(b: u8) -> Result<()> {
    match b {
        0 | POLICY_SCAN_LIFO => Ok(()),
        other => Err(Error::corrupt(format!("unknown eviction policy {other}"))),
    }
}

/// Bounds-checked sequential reader over a validated body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        if self.remaining() < 1 {
            return Err(Error::corrupt(format!("truncated while reading {what}")));
        }
        let v = self.bytes[self.pos];
        self.pos += 1;
        Ok(v)
    }

    /// One LEB128 varint of at most [`codec::MAX_VARINT_LEN`] bytes, so
    /// below 2³⁵; a longer one is corrupt.
    fn varint(&mut self, what: &str) -> Result<u64> {
        let mut v = 0u64;
        for i in 0..codec::MAX_VARINT_LEN {
            let b = self.u8(what)?;
            v |= u64::from(b & 0x7F) << (7 * i);
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(Error::corrupt(format!(
            "{what} varint exceeds {} bytes",
            codec::MAX_VARINT_LEN
        )))
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        let v = codec::try_get_u32(self.bytes, self.pos, what)?;
        self.pos += 4;
        Ok(v)
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        let v = codec::try_get_u64(self.bytes, self.pos, what)?;
        self.pos += 8;
        Ok(v)
    }

    fn str(&mut self, what: &str) -> Result<String> {
        if self.remaining() < 2 {
            return Err(Error::corrupt(format!("truncated while reading {what}")));
        }
        let len = u16::from_le_bytes([self.bytes[self.pos], self.bytes[self.pos + 1]]) as usize;
        self.pos += 2;
        if self.remaining() < len {
            return Err(Error::corrupt(format!("truncated while reading {what}")));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + len])
            .map_err(|_| Error::corrupt(format!("{what} is not valid UTF-8")))?;
        self.pos += len;
        Ok(s.to_string())
    }

    fn finish(&self, what: &str) -> Result<()> {
        if self.remaining() != 0 {
            return Err(Error::corrupt(format!(
                "{} trailing bytes after {what} payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::DEFAULT_BLOCK_SIZE;
    use crate::tempdir::TempDir;

    fn sample_catalog() -> Catalog {
        Catalog {
            block_size: 4096,
            budget_bytes: 1 << 20,
            entries: vec![
                CatalogEntry {
                    name: "alpha".into(),
                    base: PathBuf::from("/data/alpha"),
                    charge_bytes: 123_456,
                    checkpoint_seq: 7,
                    format: FormatVersion::V1,
                    generation: 0,
                },
                CatalogEntry {
                    name: "beta".into(),
                    base: PathBuf::from("rel/beta"),
                    charge_bytes: 0,
                    checkpoint_seq: 0,
                    format: FormatVersion::V3,
                    generation: 0,
                },
            ],
        }
    }

    /// A framed manifest in layout `version` with one entry, its format
    /// flag (layouts 2 and 3) `flag` — what a build at or before PR 23
    /// could have left behind and no writer produces any more.
    fn hand_built_manifest(version: u32, flag: u8, policy: u8) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&version.to_le_bytes());
        body.extend_from_slice(&4096u32.to_le_bytes());
        body.extend_from_slice(&(1u64 << 20).to_le_bytes());
        body.push(policy);
        body.extend_from_slice(&1u32.to_le_bytes()); // one entry
        body.extend_from_slice(&2u16.to_le_bytes());
        body.extend_from_slice(b"gg");
        body.extend_from_slice(&7u16.to_le_bytes());
        body.extend_from_slice(b"/old/gg");
        body.extend_from_slice(&42u64.to_le_bytes());
        body.extend_from_slice(&3u64.to_le_bytes());
        if version >= 2 {
            body.push(flag);
        }
        if version >= 3 {
            body.extend_from_slice(&0u64.to_le_bytes());
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(CATALOG_MAGIC);
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&codec::crc32(&body).to_le_bytes());
        bytes
    }

    #[test]
    fn retired_policy_byte_reads_as_the_one_policy() {
        let dir = TempDir::new("cat-lru").unwrap();
        std::fs::write(Catalog::path_in(dir.path()), hand_built_manifest(3, 3, 0)).unwrap();
        let cat = Catalog::read(dir.path()).unwrap();
        assert_eq!(cat.entries[0].format, FormatVersion::V3);
        // The next rewrite stores the current byte.
        cat.write(dir.path()).unwrap();
        let bytes = std::fs::read(Catalog::path_in(dir.path())).unwrap();
        assert_eq!(bytes[24], 1);
        std::fs::write(Catalog::path_in(dir.path()), hand_built_manifest(3, 3, 2)).unwrap();
        assert!(Catalog::read(dir.path()).unwrap_err().is_corrupt());
    }

    #[test]
    fn compacted_generation_round_trips() {
        let dir = TempDir::new("cat-v3").unwrap();
        let mut cat = sample_catalog();
        cat.entries[0].generation = 5;
        cat.write(dir.path()).unwrap();
        let back = Catalog::read(dir.path()).unwrap();
        assert_eq!(back, cat);
        assert_eq!(
            back.entries[0].table_base(),
            PathBuf::from("/data/alpha.g5")
        );
        assert_eq!(back.entries[1].table_base(), PathBuf::from("rel/beta"));
    }

    #[test]
    fn catalog_round_trip() {
        let dir = TempDir::new("cat").unwrap();
        let cat = sample_catalog();
        assert!(!Catalog::exists_in(dir.path()));
        cat.write(dir.path()).unwrap();
        assert!(Catalog::exists_in(dir.path()));
        assert_eq!(Catalog::read(dir.path()).unwrap(), cat);
    }

    #[test]
    fn catalog_rewrite_replaces() {
        let dir = TempDir::new("cat").unwrap();
        let mut cat = sample_catalog();
        cat.write(dir.path()).unwrap();
        cat.entries.pop();
        cat.entries[0].checkpoint_seq = 99;
        cat.write(dir.path()).unwrap();
        assert_eq!(Catalog::read(dir.path()).unwrap(), cat);
    }

    #[test]
    fn catalog_flipped_bit_is_corrupt() {
        let dir = TempDir::new("cat").unwrap();
        sample_catalog().write(dir.path()).unwrap();
        let path = Catalog::path_in(dir.path());
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(Catalog::read(dir.path()).unwrap_err().is_corrupt());
    }

    #[test]
    fn catalog_truncation_is_corrupt_not_panic() {
        let dir = TempDir::new("cat").unwrap();
        sample_catalog().write(dir.path()).unwrap();
        let path = Catalog::path_in(dir.path());
        let current = std::fs::read(&path).unwrap();
        // The retired inputs ride along: layouts 1 and 2, and a current
        // manifest cataloguing a format-v2 graph. Whole, each is refused by
        // the version it names; cut anywhere, like the current one.
        let retired = [
            (hand_built_manifest(1, 0, 1), "catalog version 1"),
            (hand_built_manifest(2, 2, 1), "catalog version 2"),
            (hand_built_manifest(3, 2, 1), "format v2"),
        ];
        for (bytes, names) in &retired {
            std::fs::write(&path, bytes).unwrap();
            let err = Catalog::read(dir.path()).unwrap_err();
            assert!(err.is_corrupt(), "{names}: {err}");
            assert!(err.to_string().contains(names), "{names}: {err}");
            assert!(err.to_string().contains("kcore recompress"), "{err}");
        }
        for bytes in std::iter::once(&current).chain(retired.iter().map(|(b, _)| b)) {
            for cut in 0..bytes.len() {
                std::fs::write(&path, &bytes[..cut]).unwrap();
                let err = Catalog::read(dir.path()).unwrap_err();
                assert!(
                    err.is_corrupt() || matches!(err, Error::Io(_)),
                    "cut {cut}: {err}"
                );
            }
        }
    }

    fn sample_checkpoint() -> StateCheckpoint {
        StateCheckpoint {
            seq: 42,
            cores: vec![3, 2, 2, 0],
            cnt: vec![2, -1, 3, 0],
            edits: vec![(0, 3, true), (1, 2, false)],
        }
    }

    #[test]
    fn checkpoint_round_trip_charges_io() {
        let dir = TempDir::new("ckp").unwrap();
        let path = dir.path().join("g.ckpt");
        let c = IoCounter::new(DEFAULT_BLOCK_SIZE);
        let ck = sample_checkpoint();
        ck.write(&path, &c).unwrap();
        assert!(c.snapshot().write_ios >= 1);
        let back = StateCheckpoint::read(&path, &c).unwrap();
        assert_eq!(back, ck);
        assert!(c.snapshot().read_ios >= 1);
    }

    #[test]
    fn checkpoint_rejects_mismatched_vectors() {
        let dir = TempDir::new("ckp").unwrap();
        let c = IoCounter::new(DEFAULT_BLOCK_SIZE);
        let bad = StateCheckpoint {
            seq: 0,
            cores: vec![1, 2],
            cnt: vec![0],
            edits: vec![],
        };
        assert!(bad.write(&dir.path().join("x.ckpt"), &c).is_err());
    }

    #[test]
    fn checkpoint_corruption_detected_at_every_truncation() {
        let dir = TempDir::new("ckp").unwrap();
        let path = dir.path().join("g.ckpt");
        let c = IoCounter::new(DEFAULT_BLOCK_SIZE);
        sample_checkpoint().write(&path, &c).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(StateCheckpoint::read(&path, &c).unwrap_err().is_corrupt());
        }
        // Oversized declared counts must not allocate: craft a body with a
        // huge node count and a valid CRC, in either layout.
        for version in [1, DURABILITY_VERSION] {
            std::fs::write(&path, forged(version, u32::MAX, u32::MAX, &[])).unwrap();
            assert!(StateCheckpoint::read(&path, &c).unwrap_err().is_corrupt());
        }
    }

    /// A checkpoint at sequence 9 declaring `n` nodes and `edits` edits,
    /// its state bytes `state`, framed with a valid CRC.
    fn forged(version: u32, n: u32, edits: u32, state: &[u8]) -> Vec<u8> {
        let mut p = 9u64.to_le_bytes().to_vec();
        p.extend_from_slice(&n.to_le_bytes());
        p.extend_from_slice(&edits.to_le_bytes());
        p.extend_from_slice(state);
        testutil::forge_checkpoint(version, &p)
    }

    #[test]
    fn varint_state_round_trips_at_its_boundaries() {
        let dir = TempDir::new("ckp").unwrap();
        let path = dir.path().join("g.ckpt");
        let c = IoCounter::new(DEFAULT_BLOCK_SIZE);
        let top = i32::MAX as u32;
        // (core, cnt): core at the varint length steps, cnt − core
        // negative (an understated cnt), zero, 63 / 64 (the zigzag length
        // step) and large, and the extremes of both types.
        let nodes = [
            (0, 0),
            (127, 127),
            (128, 64),
            (128, 128 + 63),
            (128, 128 + 64),
            (top, 0),
            (top, i32::MAX),
            (5, i32::MAX),
            (u32::MAX, i32::MIN),
            (0, i32::MIN),
        ];
        let cores: Vec<u32> = nodes.iter().map(|p| p.0).collect();
        let cnt: Vec<i32> = nodes.iter().map(|p| p.1).collect();
        let cases = [
            (cores.clone(), cnt.clone(), vec![]),
            (cores, cnt, vec![(0, 9, true), (3, 4, false)]),
            (vec![], vec![], vec![]),
            (vec![], vec![], vec![(1, 2, true)]),
        ];
        for (cores, cnt, edits) in cases {
            let ck = StateCheckpoint {
                seq: 5,
                cores,
                cnt,
                edits,
            };
            ck.write(&path, &c).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(codec::get_u32(&bytes, 8), DURABILITY_VERSION);
            // At most 5 bytes per varint, two varints per node.
            assert!(bytes.len() <= 32 + 10 * ck.cores.len() + 9 * ck.edits.len());
            assert_eq!(StateCheckpoint::read(&path, &c).unwrap(), ck);
        }
        // Small values take one byte each: 2 B/node.
        let small = StateCheckpoint {
            seq: 1,
            cores: vec![3; 100],
            cnt: vec![4; 100],
            edits: vec![],
        };
        small.write(&path, &c).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 32 + 200);
    }

    #[test]
    fn version_one_checkpoints_still_read() {
        let dir = TempDir::new("ckp").unwrap();
        let path = dir.path().join("g.ckpt");
        let c = IoCounter::new(DEFAULT_BLOCK_SIZE);
        let ck = sample_checkpoint();
        let v1 = testutil::checkpoint_v1(ck.seq, &ck.cores, &ck.cnt, &ck.edits);
        std::fs::write(&path, &v1).unwrap();
        assert_eq!(StateCheckpoint::read(&path, &c).unwrap(), ck);
        for cut in 0..v1.len() {
            std::fs::write(&path, &v1[..cut]).unwrap();
            assert!(StateCheckpoint::read(&path, &c).unwrap_err().is_corrupt());
        }
    }

    #[test]
    fn crafted_varint_bodies_are_corrupt() {
        let dir = TempDir::new("ckp").unwrap();
        let path = dir.path().join("g.ckpt");
        let c = IoCounter::new(DEFAULT_BLOCK_SIZE);
        let v = DURABILITY_VERSION;
        let cases = [
            ("truncated varint", forged(v, 1, 0, &[0x85, 0x80])),
            (
                "6-byte varint",
                forged(v, 1, 0, &[0x80, 0x80, 0x80, 0x80, 0x80, 0x00, 0]),
            ),
            (
                "core above u32::MAX",
                forged(v, 1, 0, &[0x80, 0x80, 0x80, 0x80, 0x10, 0]),
            ),
            (
                "cnt above i32::MAX",
                forged(v, 1, 0, &[0, 0x80, 0x80, 0x80, 0x80, 0x10]),
            ),
            ("n above payload / 2", forged(v, 3, 0, &[1, 2, 3, 4, 5])),
            ("trailing bytes", forged(v, 1, 0, &[1, 2, 3])),
            ("edit count past the payload", forged(v, 1, 1, &[1, 2])),
            ("unknown version", forged(3, 1, 0, &[1, 2])),
            ("version zero", forged(0, 1, 0, &[1, 2])),
        ];
        for (what, bytes) in &cases {
            std::fs::write(&path, bytes).unwrap();
            let err = StateCheckpoint::read(&path, &c).unwrap_err();
            assert!(err.is_corrupt(), "{what}: {err}");
        }
        // The same frame with a well-formed state reads.
        std::fs::write(&path, forged(v, 1, 0, &[1, 2])).unwrap();
        let ck = StateCheckpoint::read(&path, &c).unwrap();
        assert_eq!((ck.seq, ck.cores, ck.cnt), (9, vec![1], vec![2]));
    }

    #[test]
    fn atomic_write_leaves_no_temp_file() {
        let dir = TempDir::new("cat").unwrap();
        sample_catalog().write(dir.path()).unwrap();
        let names: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec![CATALOG_FILE.to_string()]);
    }
}

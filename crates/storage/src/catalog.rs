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
//! unbounded allocation. The recovery invariants tying these artefacts to
//! the per-graph write-ahead journal ([`crate::wal`]) are documented in
//! ARCHITECTURE.md ("Durability").

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::cache::EvictionPolicy;
use crate::codec;
use crate::error::{Error, Result};
use crate::format::FormatVersion;
use crate::io::{sync_parent_dir, IoCounter};
use crate::vfs::{StdVfs, Vfs};

/// Magic bytes opening the catalog manifest.
pub const CATALOG_MAGIC: &[u8; 8] = b"KCORCAT1";
/// Magic bytes opening a state checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"KCORCKP1";
/// Format version written into state checkpoints.
pub const DURABILITY_VERSION: u32 = 1;
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
    /// Eviction policy of the pool (and of each graph's charge cache).
    pub policy: EvictionPolicy,
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
        body.push(encode_policy(self.policy));
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
        let policy = decode_policy(cur.u8("catalog policy")?)?;
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
            policy,
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
    /// semi-external footprint everything else maintains.
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
        let mut body = Vec::with_capacity(24 + cores.len() * 8 + edits.len() * 9);
        codec_put_u32(&mut body, DURABILITY_VERSION);
        body.extend_from_slice(&seq.to_le_bytes());
        codec_put_u32(&mut body, cores.len() as u32);
        codec_put_u32(&mut body, edits.len() as u32);
        for &c in cores {
            body.extend_from_slice(&c.to_le_bytes());
        }
        for &c in cnt {
            body.extend_from_slice(&c.to_le_bytes());
        }
        for &(u, v, inserted) in edits {
            body.extend_from_slice(&u.to_le_bytes());
            body.extend_from_slice(&v.to_le_bytes());
            body.push(inserted as u8);
        }
        let mut bytes = Vec::with_capacity(body.len() + 12);
        bytes.extend_from_slice(CHECKPOINT_MAGIC);
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&codec::crc32(&body).to_le_bytes());

        let b = counter.block_size() as u64;
        counter.charge_write((bytes.len() as u64).div_ceil(b), bytes.len() as u64);
        write_atomically(counter.vfs().as_ref(), path, &bytes)
    }

    /// Read and validate the checkpoint at `path`, charging the sequential
    /// read to `counter`.
    pub fn read(path: &Path, counter: &Arc<IoCounter>) -> Result<StateCheckpoint> {
        let bytes = counter.vfs().read(path)?;
        let b = counter.block_size() as u64;
        counter.charge_read((bytes.len() as u64).div_ceil(b).max(1), bytes.len() as u64);

        let body = checked_body(&bytes, CHECKPOINT_MAGIC, "checkpoint")?;
        let mut cur = Cursor::new(body);
        let version = cur.u32("checkpoint version")?;
        if version != DURABILITY_VERSION {
            return Err(Error::corrupt(format!(
                "unsupported checkpoint version {version} (expected {DURABILITY_VERSION})"
            )));
        }
        let seq = cur.u64("checkpoint seq")?;
        let n = cur.u32("checkpoint node count")? as usize;
        let edits_len = cur.u32("checkpoint edit count")? as usize;
        // Validate the declared sizes against the actual payload before
        // allocating: corrupt counts must not drive unbounded allocations.
        let want = n
            .checked_mul(8)
            .and_then(|x| x.checked_add(edits_len.checked_mul(9)?))
            .ok_or_else(|| Error::corrupt("checkpoint sizes overflow"))?;
        if cur.remaining() != want {
            return Err(Error::corrupt(format!(
                "checkpoint declares {n} nodes and {edits_len} edits but holds {} payload bytes",
                cur.remaining()
            )));
        }
        let mut cores = Vec::with_capacity(n);
        for _ in 0..n {
            cores.push(cur.u32("core number")?);
        }
        let mut cnt = Vec::with_capacity(n);
        for _ in 0..n {
            cnt.push(cur.u32("cnt counter")? as i32);
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

fn encode_policy(p: EvictionPolicy) -> u8 {
    match p {
        EvictionPolicy::ScanLifo => 1,
    }
}

/// Byte 0 named the retired LRU policy. A policy moves physical residency,
/// never a result or a charged count's meaning, so a directory saved under
/// it opens under the one policy there is.
fn decode_policy(b: u8) -> Result<EvictionPolicy> {
    match b {
        0 | 1 => Ok(EvictionPolicy::ScanLifo),
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
            policy: EvictionPolicy::ScanLifo,
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
        assert_eq!(cat.policy, EvictionPolicy::ScanLifo);
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
        // huge node count and a valid CRC.
        let mut body = Vec::new();
        body.extend_from_slice(&DURABILITY_VERSION.to_le_bytes());
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes()); // nodes
        body.extend_from_slice(&u32::MAX.to_le_bytes()); // edits
        let mut forged = Vec::new();
        forged.extend_from_slice(CHECKPOINT_MAGIC);
        forged.extend_from_slice(&body);
        forged.extend_from_slice(&codec::crc32(&body).to_le_bytes());
        std::fs::write(&path, &forged).unwrap();
        assert!(StateCheckpoint::read(&path, &c).unwrap_err().is_corrupt());
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

//! Offline integrity checking — and bounded repair — of a durable data
//! directory.
//!
//! [`fsck()`] walks the catalog the way [`crate::CoreService::open_catalog`]
//! would, but keeps going after the first problem and never mutates
//! anything unless asked: for every catalogued graph it
//!
//! 1. opens the **current-generation tables** (the registered base for
//!    generation 0, `<base>.g<g>` after `g` compactions) and walks the
//!    full adjacency (header magics, per-block CRCs and extent bounds are
//!    validated by the block reader on the way; on top, every neighbor
//!    list must be strictly ascending, in `0..n`, and degree-consistent
//!    with the node table);
//! 2. reads the **checkpoint** (`<name>.ckpt`, or `<name>.g<g>.ckpt`
//!    after compaction; magic + CRC) and checks its vectors against the
//!    graph's node count;
//! 3. scans the **journal** (`<name>.wal`) read-only: magic and per-record
//!    framing CRCs — damage followed by an intact record that continues
//!    the journal is rot, which recovery refuses, not a torn tail — then
//!    every record through recovery's own rule (`JournalReplay`:
//!    decodable, covered by the checkpoint or else gap-free and in range),
//!    so fsck flags exactly the records recovery would refuse;
//! 4. sweeps for **generation debris**: stale `.rewrite` flush temps
//!    beside the live tables, and off-generation table/checkpoint files —
//!    what a compaction leaves when it crashes before its catalog commit
//!    (next generation's files) or dies after it (the superseded
//!    generation's).
//!
//! With `repair` set, two classes of problem are fixed. The *journal
//! tail* problems — a torn or rotten tail, or a record the rule refuses
//! — are repaired by truncating the journal back to its
//! longest good prefix, which makes the next
//! [`crate::CoreService::open_catalog`] recover the checkpoint plus
//! exactly that prefix (the "fall back to the last good checkpoint"
//! degenerate case is a truncation to the bare header). *Generation
//! debris* is repaired by deleting it: the catalog manifest is the single
//! source of truth for which generation is live, so every off-generation
//! file is dead weight recovery will never read. Repair never touches the
//! live tables, the live checkpoint or the catalog itself: damage there
//! means acknowledged state would have to be invented, and fsck refuses
//! to guess — those findings stay unrepaired and the exit is nonzero.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use graphstore::{
    AdjacencyRead, Catalog, CatalogEntry, DiskGraph, IoCounter, Result, StateCheckpoint, StdVfs,
    Vfs, Wal, WAL_MAGIC,
};
use semicore::MaintainOp;

/// One problem found by [`fsck`], tagged with whether a repair fixed it.
#[derive(Debug, Clone)]
pub struct FsckFinding {
    /// Graph the problem belongs to; `None` for directory-level damage
    /// (an unreadable catalog).
    pub graph: Option<String>,
    /// What is wrong, human-readable.
    pub problem: String,
    /// True when `repair` was requested **and** the problem was fixed.
    pub repaired: bool,
}

/// Outcome of an [`fsck`] pass.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Every problem found, in catalog order.
    pub findings: Vec<FsckFinding>,
    /// Number of catalogued graphs examined.
    pub graphs_checked: usize,
}

impl FsckReport {
    /// True when nothing at all was wrong.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Problems that remain after any repairs — the exit-status signal.
    pub fn unrepaired(&self) -> usize {
        self.findings.iter().filter(|f| !f.repaired).count()
    }

    /// The problems behind [`FsckReport::unrepaired`], joined with `"; "`
    /// for one-line rendering (reply lines, health reasons).
    pub fn unrepaired_problems(&self) -> String {
        let problems: Vec<&str> = self
            .findings
            .iter()
            .filter(|f| !f.repaired)
            .map(|f| f.problem.as_str())
            .collect();
        problems.join("; ")
    }

    fn push(&mut self, graph: Option<&str>, problem: String, repaired: bool) {
        self.findings.push(FsckFinding {
            graph: graph.map(str::to_string),
            problem,
            repaired,
        });
    }
}

/// Check the durable data directory at `dir`; with `repair`, truncate
/// damaged journal tails back to their longest good prefix. See the
/// module docs for exactly what is validated and what repair will and
/// will not touch.
pub fn fsck(dir: &Path, repair: bool) -> Result<FsckReport> {
    fsck_with(dir, repair, StdVfs::arc())
}

/// [`fsck`] through an explicit filesystem seam, so the fault-injection
/// tests can aim bit-flips at specific reads.
pub fn fsck_with(dir: &Path, repair: bool, vfs: Arc<dyn Vfs>) -> Result<FsckReport> {
    if !Catalog::exists_in(dir) {
        return Err(graphstore::Error::InvalidArgument(format!(
            "{} holds no catalog; nothing to check",
            dir.display()
        )));
    }
    let mut report = FsckReport::default();
    let catalog = match Catalog::read_with(dir, vfs.as_ref()) {
        Ok(c) => c,
        Err(e) => {
            // Without the catalog there is no graph list to walk; report
            // and stop rather than guess at file names.
            report.push(None, format!("catalog unreadable: {e}"), false);
            return Ok(report);
        }
    };
    for entry in &catalog.entries {
        report.graphs_checked += 1;
        check_graph(dir, entry, catalog.block_size, repair, &vfs, &mut report);
    }
    for (i, a) in catalog.entries.iter().enumerate() {
        for b in catalog.entries[i + 1..]
            .iter()
            .filter(|b| same_base(&a.base, &b.base))
        {
            let problem = format!(
                "graphs {:?} and {:?} share base {}: their compactions write the same \
                 generation files",
                a.name,
                b.name,
                a.base.display()
            );
            report.push(Some(&b.name), problem, false);
        }
    }
    Ok(report)
}

/// True when two registered bases name the same tables: equal as given,
/// or resolving to the same node-table file.
pub(crate) fn same_base(a: &Path, b: &Path) -> bool {
    let nodes = |base: &Path| std::fs::canonicalize(graphstore::GraphPaths::from_base(base).nodes);
    a == b || matches!((nodes(a), nodes(b)), (Ok(x), Ok(y)) if x == y)
}

/// Check (and with `repair`, tail-repair) a **single catalogued graph**
/// through the filesystem seam `vfs` — the library entry point the serving
/// layer's repair supervisor drives. Identical validation to [`fsck`],
/// scoped to `name`; errors with [`graphstore::Error::InvalidArgument`]
/// when `name` is not in the catalog.
pub fn fsck_graph_with(
    dir: &Path,
    name: &str,
    repair: bool,
    vfs: Arc<dyn Vfs>,
) -> Result<FsckReport> {
    let catalog = Catalog::read_with(dir, vfs.as_ref())?;
    let entry = catalog
        .entries
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| {
            graphstore::Error::InvalidArgument(format!("graph {name:?} is not in the catalog"))
        })?;
    let mut report = FsckReport {
        graphs_checked: 1,
        ..FsckReport::default()
    };
    check_graph(dir, entry, catalog.block_size, repair, &vfs, &mut report);
    Ok(report)
}

/// Checkpoint path for a graph at a given table generation. Generation 0
/// keeps the historical `<name>.ckpt` name (so pre-generation catalogs
/// recover unchanged); generation `g > 0` uses `<name>.g<g>.ckpt`.
///
/// Keying the checkpoint by generation is what makes the catalog rewrite
/// the *single* commit point of a compaction: the bumped manifest entry
/// atomically switches both the tables **and** the checkpoint that
/// describes them. A shared checkpoint path could not be ordered safely —
/// written before the catalog commit, a crash between the two would pair
/// the old tables with an empty-edits checkpoint (edits lost); written
/// after, a crash would pair the new tables (edits baked in) with the old
/// checkpoint (edits re-applied twice).
pub(crate) fn ckpt_path(dir: &Path, name: &str, generation: u64) -> PathBuf {
    if generation == 0 {
        dir.join(format!("{name}.ckpt"))
    } else {
        dir.join(format!("{name}.g{generation}.ckpt"))
    }
}

/// Journal path of a graph (one journal across all its generations).
pub(crate) fn wal_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.wal"))
}

/// One journal record, `seq u64 | MaintainOp`; [`JournalReplay`] is the
/// one reader.
pub(crate) fn encode_record(seq: u64, op: MaintainOp) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + semicore::MAINTAIN_OP_LEN);
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&op.encode());
    payload
}

/// The one reading of a journal, shared by recovery (restart and online
/// repair) and fsck's journal phase (offline, scrub and repair): records
/// go in in order, each comes out with a verdict. A record at or below the
/// checkpoint's sequence number is covered by the checkpoint (a crash
/// landed between its rename and the journal truncation) and skipped;
/// every record above it must extend the sequence gap-free and name nodes
/// of the graph. The first refused record ends the replayable prefix:
/// recovery fails there, fsck reports it and a repair truncates there.
pub(crate) struct JournalReplay {
    /// The checkpoint's sequence number.
    covered: u64,
    /// The last admitted record's sequence number (the checkpoint's until
    /// one is admitted).
    pub(crate) seq: u64,
    num_nodes: u32,
    /// Records judged so far.
    judged: usize,
}

impl JournalReplay {
    pub(crate) fn new(ck_seq: u64, num_nodes: u32) -> JournalReplay {
        JournalReplay {
            covered: ck_seq,
            seq: ck_seq,
            num_nodes,
            judged: 0,
        }
    }

    /// The next record's verdict: `Ok(None)` covered by the checkpoint,
    /// `Ok(Some(op))` the next op to replay, `Err` why it is refused.
    pub(crate) fn admit(
        &mut self,
        record: &[u8],
    ) -> std::result::Result<Option<MaintainOp>, String> {
        let i = self.judged;
        self.judged += 1;
        let refused = |why: String| format!("journal record {i}: {why}");
        let Some((seq, op)) = record.split_first_chunk::<8>() else {
            return Err(refused(format!("undersized ({} bytes)", record.len())));
        };
        let seq = u64::from_le_bytes(*seq);
        let op = MaintainOp::decode(op).map_err(|e| refused(format!("undecodable op: {e}")))?;
        if seq <= self.covered {
            return Ok(None);
        }
        if seq != self.seq + 1 {
            return Err(refused(format!(
                "sequence gap: record {seq} after {}",
                self.seq
            )));
        }
        let ((u, v), n) = (op.endpoints(), self.num_nodes);
        if u >= n || v >= n {
            return Err(refused(format!(
                "op endpoints ({u}, {v}) out of range for {n} nodes"
            )));
        }
        self.seq = seq;
        Ok(Some(op))
    }
}

/// The journal's rot rule, shared by recovery and fsck (see
/// [`graphstore::wal`]): an intact record `next` found past damage
/// continues the journal when it decodes as a record whose sequence
/// number is above the last intact record's before the damage (`last`;
/// any number when the damage struck the first record). A torn final
/// write cannot be followed by such a record, so the damage is rot and
/// the records past it were acknowledged.
pub(crate) fn continues_journal(last: Option<&[u8]>, next: &[u8]) -> bool {
    let seq = |record: &[u8]| {
        let (seq, op) = record.split_first_chunk::<8>()?;
        MaintainOp::decode(op).ok()?;
        Some(u64::from_le_bytes(*seq))
    };
    match (seq(next), last.map(seq)) {
        (Some(next), Some(Some(last))) => next > last,
        (Some(_), None) => true,
        _ => false,
    }
}

/// The tables a durable graph references are immutable between
/// compactions: found in another encoding than catalogued, they were
/// replaced behind the catalog's back, and the checkpointed state may
/// belong to a different graph. Recovery fails on it; fsck reports it.
pub(crate) fn check_format(entry: &CatalogEntry, disk: &DiskGraph) -> Result<()> {
    if disk.format_version() == entry.format {
        return Ok(());
    }
    Err(graphstore::Error::corrupt(format!(
        "catalog records {:?} as format {} but its base tables are {}",
        entry.name,
        entry.format.tag(),
        disk.format_version().tag()
    )))
}

/// What the table/checkpoint phases learned about a graph — the context
/// the journal phase validates records against. `None` fields mean the
/// corresponding artifact was unreadable (already reported).
#[derive(Debug, Clone, Copy)]
pub(crate) struct GraphProbe {
    pub(crate) num_nodes: Option<u32>,
    pub(crate) ck_seq: Option<u64>,
}

fn check_graph(
    dir: &Path,
    entry: &CatalogEntry,
    block_size: usize,
    repair: bool,
    vfs: &Arc<dyn Vfs>,
    report: &mut FsckReport,
) {
    let probe = check_tables_and_checkpoint(dir, entry, block_size, vfs, report);
    check_journal(dir, entry, probe, block_size, repair, vfs, report);
    check_generation_debris(dir, entry, repair, vfs, report);
}

/// Phases 1–2: walk the current-generation tables and validate the
/// checkpoint. Read-only — the online scrubber runs this without the
/// graph's lock (tables and checkpoints are immutable between
/// compactions, and a checkpoint replace is an atomic rename).
pub(crate) fn check_tables_and_checkpoint(
    dir: &Path,
    entry: &CatalogEntry,
    block_size: usize,
    vfs: &Arc<dyn Vfs>,
    report: &mut FsckReport,
) -> GraphProbe {
    let name = entry.name.as_str();
    let counter = IoCounter::with_vfs(block_size, Arc::clone(vfs));

    // 1. Current-generation tables: headers validate on open, blocks on
    //    read; the walk adds the structural invariants a CRC cannot see.
    let num_nodes = match DiskGraph::open(&entry.table_base(), counter.clone()) {
        Ok(mut disk) => {
            for checked in [check_format(entry, &disk), walk_adjacency(&mut disk)] {
                if let Err(e) = checked {
                    report.push(Some(name), format!("base tables: {e}"), false);
                }
            }
            Some(disk.num_nodes())
        }
        Err(e) => {
            report.push(Some(name), format!("base tables unreadable: {e}"), false);
            None
        }
    };

    // 2. Checkpoint: magic + CRC inside StateCheckpoint::read; shape here.
    let ck_seq = match StateCheckpoint::read(&ckpt_path(dir, name, entry.generation), &counter) {
        Ok(ck) => {
            if let Some(n) = num_nodes {
                if ck.cores.len() != n as usize || ck.cnt.len() != n as usize {
                    report.push(
                        Some(name),
                        format!(
                            "checkpoint sized for {} nodes but the graph has {n}",
                            ck.cores.len()
                        ),
                        false,
                    );
                }
                if let Some(&(u, v, _)) = ck.edits.iter().find(|&&(u, v, _)| u >= n || v >= n) {
                    report.push(
                        Some(name),
                        format!("checkpoint edit ({u}, {v}) out of range for {n} nodes"),
                        false,
                    );
                }
            }
            Some(ck.seq)
        }
        Err(e) => {
            report.push(Some(name), format!("checkpoint unreadable: {e}"), false);
            None
        }
    };

    GraphProbe { num_nodes, ck_seq }
}

/// Phase 3: read-only scan of the journal, each framing-valid record
/// judged by [`JournalReplay`] (with `repair`, truncation back to the
/// longest good prefix). The online scrubber runs this *holding the
/// graph's lock* — a live append mid-scan would otherwise read as a torn
/// tail.
pub(crate) fn check_journal(
    dir: &Path,
    entry: &CatalogEntry,
    probe: GraphProbe,
    block_size: usize,
    repair: bool,
    vfs: &Arc<dyn Vfs>,
    report: &mut FsckReport,
) {
    let (name, path) = (entry.name.as_str(), wal_path(dir, &entry.name));
    let counter = IoCounter::with_vfs(block_size, Arc::clone(vfs));
    let scan = match Wal::scan(&path, &counter, continues_journal) {
        Ok(scan) => scan,
        Err(e) => {
            // Bad magic or missing file: the journal carries no decodable
            // history at all. Repairing means declaring the checkpoint the
            // whole truth: recreate an empty journal.
            let repaired = repair && recreate_wal(&path, &counter, vfs).is_ok();
            report.push(Some(name), format!("journal unreadable: {e}"), repaired);
            return;
        }
    };

    // Framing-valid prefix vs. physical length: a torn tail is the normal
    // crash signature (recovery tolerates it silently), but fsck reports
    // it so `--repair` can scrub the evidence. Rot — damage with the
    // journal continuing past it — is what recovery refuses; `--repair`
    // cuts the journal back to the intact prefix, as for every refused
    // record.
    if scan.valid_len < scan.file_len {
        let repaired = repair && truncate_to(&path, scan.valid_len, vfs).is_ok();
        let problem = match scan.rot {
            Some(at) => format!("journal {}", scan.rot_description(at)),
            None => format!(
                "torn journal tail: {} trailing bytes after the last whole record",
                scan.file_len - scan.valid_len
            ),
        };
        report.push(Some(name), problem, repaired);
    }

    // Without readable tables and checkpoint there is no recovery for the
    // records to agree with: those findings already stand unrepaired, and
    // the journal is left whole for whoever restores them.
    let (Some(n), Some(ck_seq)) = (probe.num_nodes, probe.ck_seq) else {
        return;
    };
    // The first refused record ends what recovery replays, so repair
    // truncates back to the end of the record before it.
    let mut replay = JournalReplay::new(ck_seq, n);
    let mut good_end = WAL_MAGIC.len() as u64;
    for (record, &end) in scan.records.iter().zip(&scan.record_ends) {
        if let Err(problem) = replay.admit(record) {
            let repaired = repair && truncate_to(&path, good_end, vfs).is_ok();
            report.push(Some(name), problem, repaired);
            return;
        }
        good_end = end;
    }
}

/// Sweep for files a crashed or interrupted compaction/flush left behind:
/// stale `.rewrite` temps beside the live tables, tables of generations
/// other than the catalogued one (the user-owned generation-0 base is
/// legitimate and never flagged), and checkpoints keyed to a generation
/// other than the catalogued one. All are dead — recovery reads only the
/// manifest's generation — so repair deletes them.
pub(crate) fn check_generation_debris(
    dir: &Path,
    entry: &CatalogEntry,
    repair: bool,
    vfs: &Arc<dyn Vfs>,
    report: &mut FsckReport,
) {
    let name = entry.name.as_str();
    let live = graphstore::GraphPaths::from_base(&entry.table_base());
    let temps = graphstore::rewrite_temp_paths(&live);
    for path in [&temps.nodes, &temps.edges] {
        if path.exists() {
            let repaired = repair && vfs.remove_file(path).is_ok();
            report.push(
                Some(name),
                format!("stale rewrite temp {}", path.display()),
                repaired,
            );
        }
    }
    // A compaction crash can strand the next generation's files (died
    // before the commit) or the previous generation's (died after, before
    // the unlinks); unlink failures can strand older ones. Probe every
    // generation up to one past the live one.
    for g in 0..=entry.generation + 1 {
        if g == entry.generation {
            continue;
        }
        if g > 0 {
            let paths =
                graphstore::GraphPaths::from_base(&graphstore::generation_base(&entry.base, g));
            for path in [&paths.nodes, &paths.edges] {
                if path.exists() {
                    let repaired = repair && vfs.remove_file(path).is_ok();
                    report.push(
                        Some(name),
                        format!("orphaned generation-{g} table {}", path.display()),
                        repaired,
                    );
                }
            }
        }
        let ck = ckpt_path(dir, name, g);
        if ck.exists() {
            let repaired = repair && vfs.remove_file(&ck).is_ok();
            report.push(
                Some(name),
                format!("orphaned generation-{g} checkpoint {}", ck.display()),
                repaired,
            );
        }
    }
}

/// Full adjacency walk: node-table offsets non-decreasing (every writer
/// lays the lists out in node order), every list strictly ascending, in
/// range, and degree-consistent with the node table; total degree must
/// match the header.
fn walk_adjacency(disk: &mut DiskGraph) -> Result<()> {
    let n = disk.num_nodes();
    let degrees = disk.read_degrees()?;
    let mut buf = Vec::new();
    let mut total: u64 = 0;
    let mut last_offset = 0;
    for v in 0..n {
        let (offset, _) = disk.node_entry(v)?;
        if offset < last_offset {
            return Err(graphstore::Error::corrupt(format!(
                "node {v}: adjacency offset {offset} precedes its predecessor's {last_offset}"
            )));
        }
        last_offset = offset;
        disk.adjacency(v, &mut buf)?;
        let expect = degrees.get(v as usize).copied().unwrap_or(0);
        if buf.len() as u64 != u64::from(expect) {
            return Err(graphstore::Error::corrupt(format!(
                "node {v}: adjacency holds {} entries but degree is {expect}",
                buf.len()
            )));
        }
        if let Some(&w) = buf.iter().find(|&&w| w >= n) {
            return Err(graphstore::Error::corrupt(format!(
                "node {v}: neighbor {w} out of range for {n} nodes"
            )));
        }
        if buf.windows(2).any(|p| p[0] >= p[1]) {
            return Err(graphstore::Error::corrupt(format!(
                "node {v}: adjacency not strictly ascending"
            )));
        }
        total += buf.len() as u64;
    }
    if total != disk.degree_sum() {
        return Err(graphstore::Error::corrupt(format!(
            "adjacency lists sum to degree {total} but the header says {}",
            disk.degree_sum()
        )));
    }
    Ok(())
}

fn truncate_to(path: &Path, len: u64, vfs: &Arc<dyn Vfs>) -> Result<()> {
    let mut f = vfs.open_read_write(path)?;
    f.set_len(len)?;
    f.sync_all()?;
    Ok(())
}

fn recreate_wal(path: &Path, counter: &Arc<IoCounter>, vfs: &Arc<dyn Vfs>) -> Result<()> {
    let _ = vfs.remove_file(path);
    Wal::create(path, counter.clone()).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreService, DurableOptions};
    use graphstore::{TempDir, DEFAULT_BLOCK_SIZE};
    use std::io::{Seek, SeekFrom, Write};

    fn open_catalog(data: &Path) -> Result<CoreService> {
        CoreService::open_catalog(data, DurableOptions::default(), StdVfs::arc())
    }

    fn seeded_dir(tmp: &TempDir) -> PathBuf {
        let data = tmp.path().join("data");
        let opts = DurableOptions::default();
        let svc =
            CoreService::create_durable(&data, DEFAULT_BLOCK_SIZE, 1 << 20, opts, StdVfs::arc())
                .unwrap();
        svc.create(
            "g",
            &tmp.path().join("g"),
            vec![(0u32, 1u32), (1, 2), (0, 2), (2, 3)],
            4,
        )
        .unwrap();
        svc.insert_edge("g", 1, 3).unwrap();
        svc.insert_edge("g", 0, 3).unwrap();
        data
    }

    #[test]
    fn clean_directory_reports_clean() {
        let tmp = TempDir::new("fsck").unwrap();
        let data = seeded_dir(&tmp);
        let report = fsck(&data, false).unwrap();
        assert!(report.clean(), "unexpected findings: {:?}", report.findings);
        assert_eq!(report.graphs_checked, 1);
    }

    #[test]
    fn missing_catalog_is_an_error_not_a_report() {
        let tmp = TempDir::new("fsck").unwrap();
        assert!(fsck(tmp.path(), false).is_err());
    }

    #[test]
    fn torn_wal_tail_is_found_and_repaired() {
        let tmp = TempDir::new("fsck").unwrap();
        let data = seeded_dir(&tmp);
        // Append garbage: a torn half-record.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(data.join("g.wal"))
            .unwrap();
        f.write_all(&[0xde, 0xad, 0xbe]).unwrap();
        drop(f);

        let report = fsck(&data, false).unwrap();
        assert_eq!(report.unrepaired(), 1, "{:?}", report.findings);
        assert!(report.findings[0].problem.contains("torn journal tail"));

        let report = fsck(&data, true).unwrap();
        assert_eq!(report.unrepaired(), 0, "{:?}", report.findings);
        assert!(report.findings[0].repaired);

        // Clean after repair, and the directory still opens.
        assert!(fsck(&data, false).unwrap().clean());
        let svc = open_catalog(&data).unwrap();
        assert_eq!(svc.kmax("g").unwrap(), 3);
    }

    #[test]
    fn single_graph_fsck_scopes_to_the_named_graph() {
        let tmp = TempDir::new("fsck").unwrap();
        let data = seeded_dir(&tmp);
        // A second, healthy graph beside the damaged one.
        let svc = open_catalog(&data).unwrap();
        svc.create("h", &tmp.path().join("h"), vec![(0u32, 1u32), (1, 2)], 3)
            .unwrap();
        drop(svc);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(data.join("g.wal"))
            .unwrap();
        f.write_all(&[0xde, 0xad, 0xbe]).unwrap();
        drop(f);

        // The healthy graph reports clean; the damaged one is found and
        // repaired without touching anything else.
        let fsck_one = |name, repair| fsck_graph_with(&data, name, repair, StdVfs::arc());
        assert!(fsck_one("h", false).unwrap().clean());
        let report = fsck_one("g", false).unwrap();
        assert_eq!(report.graphs_checked, 1);
        assert_eq!(report.unrepaired(), 1, "{:?}", report.findings);
        let report = fsck_one("g", true).unwrap();
        assert_eq!(report.unrepaired(), 0, "{:?}", report.findings);
        assert!(fsck(&data, false).unwrap().clean());
        assert!(fsck_one("nope", false).is_err());
    }

    #[test]
    fn compacted_directory_reports_clean() {
        let tmp = TempDir::new("fsck").unwrap();
        let data = seeded_dir(&tmp);
        let svc = open_catalog(&data).unwrap();
        svc.insert_edge("g", 2, 3).unwrap_err(); // present already — no-op
        assert_eq!(svc.compact("g").unwrap(), 1);
        drop(svc);
        let report = fsck(&data, false).unwrap();
        assert!(report.clean(), "unexpected findings: {:?}", report.findings);
    }

    #[test]
    fn generation_debris_is_found_and_swept() {
        let tmp = TempDir::new("fsck").unwrap();
        let data = seeded_dir(&tmp);
        let svc = open_catalog(&data).unwrap();
        assert_eq!(svc.compact("g").unwrap(), 1);
        drop(svc);
        // Plant what a crashed compaction would leave: next-generation
        // tables, an off-generation checkpoint, and a stale rewrite temp.
        std::fs::write(tmp.path().join("g.g2.nodes"), b"junk").unwrap();
        std::fs::write(tmp.path().join("g.g2.edges"), b"junk").unwrap();
        std::fs::write(data.join("g.ckpt"), b"junk").unwrap();
        std::fs::write(tmp.path().join("g.g1.nodes.rewrite.nodes"), b"junk").unwrap();

        let report = fsck(&data, false).unwrap();
        assert_eq!(report.unrepaired(), 4, "{:?}", report.findings);
        assert!(report
            .findings
            .iter()
            .any(|f| f.problem.contains("stale rewrite temp")));
        assert!(report
            .findings
            .iter()
            .any(|f| f.problem.contains("orphaned generation-2 table")));
        assert!(report
            .findings
            .iter()
            .any(|f| f.problem.contains("orphaned generation-0 checkpoint")));

        let report = fsck(&data, true).unwrap();
        assert_eq!(report.unrepaired(), 0, "{:?}", report.findings);
        assert!(fsck(&data, false).unwrap().clean());
        assert!(!tmp.path().join("g.g2.nodes").exists());
        assert!(!data.join("g.ckpt").exists());
        // The live generation still recovers.
        let svc = open_catalog(&data).unwrap();
        assert_eq!(svc.kmax("g").unwrap(), 3);
    }

    #[test]
    fn corrupt_checkpoint_is_reported_unrepaired() {
        let tmp = TempDir::new("fsck").unwrap();
        let data = seeded_dir(&tmp);
        // Flip one byte in the checkpoint body (past the magic).
        let path = data.join("g.ckpt");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(mid as u64)).unwrap();
        f.write_all(&bytes[mid..=mid]).unwrap();
        drop(f);

        let report = fsck(&data, true).unwrap();
        assert!(report.unrepaired() >= 1, "{:?}", report.findings);
        assert!(report
            .findings
            .iter()
            .any(|f| f.problem.contains("checkpoint") && !f.repaired));
    }

    #[test]
    fn garbage_wal_magic_is_repaired_to_empty_journal() {
        let tmp = TempDir::new("fsck").unwrap();
        let data = seeded_dir(&tmp);
        std::fs::write(data.join("g.wal"), b"NOTAWAL!").unwrap();

        let report = fsck(&data, false).unwrap();
        assert_eq!(report.unrepaired(), 1);
        let report = fsck(&data, true).unwrap();
        assert_eq!(report.unrepaired(), 0, "{:?}", report.findings);
        assert!(fsck(&data, false).unwrap().clean());
        // Recovery falls back to the checkpoint alone.
        assert!(open_catalog(&data).is_ok());
    }

    #[test]
    fn damaged_node_index_is_a_finding_not_a_panic() {
        let tmp = TempDir::new("fsck").unwrap();
        let data = seeded_dir(&tmp);
        let nodes = tmp.path().join("g.nodes");
        let good = std::fs::read(&nodes).unwrap();
        assert_eq!(&good[..8], graphstore::format::NODE_INDEX_MAGIC);
        // A zero width, an over-wide one, a table a byte short.
        let mut zero = good.clone();
        zero[12] = 0;
        let mut wide = good.clone();
        wide[13] = 65;
        for bytes in [zero, wide, good[..good.len() - 1].to_vec()] {
            std::fs::write(&nodes, &bytes).unwrap();
            let report = fsck(&data, true).unwrap();
            assert_eq!(report.unrepaired(), 1, "{:?}", report.findings);
            assert!(
                report.findings[0]
                    .problem
                    .contains("base tables unreadable"),
                "{:?}",
                report.findings
            );
            assert!(open_catalog(&data).unwrap_err().is_corrupt());
        }
        std::fs::write(&nodes, &good).unwrap();
        assert!(fsck(&data, false).unwrap().clean());
    }

    #[test]
    fn node_offsets_running_backwards_are_a_finding() {
        let tmp = TempDir::new("fsck").unwrap();
        let data = seeded_dir(&tmp);
        let base = tmp.path().join("g");
        // Rewrite g's node table as legacy 12-byte entries with node 2
        // pointing back at node 0's list: every offset stays in range.
        let mut disk = DiskGraph::open(&base, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
        let meta = disk.meta();
        let mut entries: Vec<(u64, u32)> = (0..meta.num_nodes)
            .map(|v| disk.node_entry(v).unwrap())
            .collect();
        drop(disk);
        entries[2].0 = entries[0].0;
        let legacy = graphstore::GraphMeta::v3(meta.num_nodes, meta.degree_sum, meta.edge_bytes);
        let mut nodes = graphstore::format::encode_node_header(&legacy);
        for (offset, degree) in entries {
            nodes.extend_from_slice(&graphstore::format::encode_node_entry(offset, degree));
        }
        std::fs::write(tmp.path().join("g.nodes"), nodes).unwrap();

        let report = fsck(&data, false).unwrap();
        assert_eq!(report.unrepaired(), 1, "{:?}", report.findings);
        assert!(
            report.findings[0]
                .problem
                .contains("node 2: adjacency offset 8 precedes"),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn two_entries_on_one_base_are_a_finding() {
        let tmp = TempDir::new("fsck").unwrap();
        let data = seeded_dir(&tmp);
        // A catalog written before the service refused a shared base: a
        // second name over g's tables, with sidecars of its own.
        let vfs = StdVfs::arc();
        let mut catalog = Catalog::read_with(&data, vfs.as_ref()).unwrap();
        let mut twin = catalog.entries[0].clone();
        twin.name = "twin".into();
        // The same tables spelled another way still count as one base.
        twin.base = tmp.path().join(".").join("g");
        catalog.entries.push(twin);
        catalog.write_with(&data, vfs.as_ref()).unwrap();
        std::fs::copy(data.join("g.ckpt"), data.join("twin.ckpt")).unwrap();
        std::fs::copy(data.join("g.wal"), data.join("twin.wal")).unwrap();

        let report = fsck(&data, true).unwrap();
        assert_eq!(report.unrepaired(), 1, "{:?}", report.findings);
        let finding = &report.findings[0];
        assert_eq!(finding.graph.as_deref(), Some("twin"));
        assert!(
            finding.problem.contains("share base"),
            "{}",
            finding.problem
        );
    }
}

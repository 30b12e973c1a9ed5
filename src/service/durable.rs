//! The write protocol: how a mutation of a served graph becomes durable.
//!
//! This is the only module that appends to a journal
//! ([`GroupCommitWal::submit`] has exactly one call site, in
//! [`CoreService::commit_locked`]), writes a checkpoint, or knows the
//! compaction commit protocol; the registry, the health machine and the
//! repair/scrub paths call into it. There is **one** write path —
//! [`CoreService::apply_batch`], whose docs state the stage → join →
//! barrier protocol — and one journal discipline: every durable graph's
//! journal is a [`GroupCommitWal`], and [`DurableOptions::group_commit`]
//! only sets its gather window.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use graphstore::{
    Catalog, CatalogEntry, DiskGraph, FormatVersion, GraphPaths, GroupCommitOptions,
    GroupCommitWal, IoCounter, Result, SharedPool, StateCheckpoint, UpdateBuffer, Vfs, Wal,
};
use semicore::{CoreState, MaintainOp, MaintainStats};

use super::health::HealthState;
use super::{lock_meta, lock_served, not_serving, CoreService, DurableOptions, Served, Slot};
use crate::fsck::{
    check_format, ckpt_path, continues_journal, encode_record, same_base, wal_path, JournalReplay,
};
use crate::CoreIndex;

/// Update-buffer capacity for durable graphs: self-flush is disabled (a
/// buffer-triggered flush would rewrite the base tables behind the
/// checkpoint protocol's back and double-apply edits on recovery). The
/// *actual* memory bound comes from the service instead: once a graph's
/// pending edits reach [`DurableOptions::compact_after_edits`] the apply
/// path runs a generational compaction, which rewrites the tables
/// *through* the commit protocol and folds the buffer into them.
pub(super) const DURABLE_BUFFER_CAPACITY: usize = usize::MAX;

/// Durability state of a service with a data directory.
#[derive(Debug)]
pub(super) struct Durable {
    pub(super) dir: PathBuf,
    checkpoint_every: u64,
    /// Compaction threshold in buffered edit entries (see
    /// [`DurableOptions::compact_after_edits`]).
    compact_after_edits: usize,
    /// Gather window every graph's journal is wrapped with.
    gather: GroupCommitOptions,
    /// The catalog manifest's entries as last committed (with a fresher,
    /// advisory `checkpoint_seq`). Only [`Durable::commit`] changes its
    /// shape, and only after the manifest holding the change is written.
    entries: Mutex<HashMap<String, CatalogEntry>>,
    /// Graphs with a compaction between its split and the end of its
    /// join: at most one per name, across repairs and evictions, because
    /// two would write the same next-generation files.
    folding: Mutex<HashSet<String>>,
    /// Where a test parks compaction stages (see [`park::StagePark`]).
    #[cfg(test)]
    pub(super) park: Mutex<Option<Arc<park::StagePark>>>,
}

/// A claim on a graph's one compaction slot, released on drop.
struct FoldClaim<'a> {
    durable: &'a Durable,
    name: String,
}

impl Drop for FoldClaim<'_> {
    fn drop(&mut self) {
        lock_meta(&self.durable.folding).remove(&self.name);
    }
}

/// What a compaction's split hands its stage and join.
struct Split {
    /// The catalog entry at the split: generation `G`, whose tables the
    /// stage reads and which must still be committed at the join.
    entry: CatalogEntry,
    /// The frozen net edits `F` the stage folds into generation `G + 1`.
    folded: Vec<(u32, u32, bool)>,
    /// Base path of generation `G + 1`.
    new_base: PathBuf,
}

impl Durable {
    /// Durability state over `dir`, whose manifest currently lists
    /// `committed`.
    pub(super) fn new(dir: &Path, opts: DurableOptions, committed: Vec<CatalogEntry>) -> Durable {
        Durable {
            dir: dir.to_path_buf(),
            checkpoint_every: opts.checkpoint_every.max(1),
            compact_after_edits: opts.compact_after_edits.max(2),
            gather: opts.group_commit.unwrap_or(GroupCommitOptions {
                max_delay: Duration::ZERO,
            }),
            entries: Mutex::new(committed.into_iter().map(|e| (e.name.clone(), e)).collect()),
            folding: Mutex::default(),
            #[cfg(test)]
            park: Mutex::default(),
        }
    }

    /// Claim `name`'s compaction slot; `None` while another compaction of
    /// it is in flight.
    fn claim_fold(&self, name: &str) -> Option<FoldClaim<'_>> {
        lock_meta(&self.folding)
            .insert(name.to_string())
            .then(|| FoldClaim {
                durable: self,
                name: name.to_string(),
            })
    }

    /// True while a compaction of `name` is between its split and the end
    /// of its join — its next-generation files are work in progress, not
    /// debris.
    pub(super) fn is_folding(&self, name: &str) -> bool {
        lock_meta(&self.folding).contains(name)
    }

    fn journal(&self, wal: Wal) -> Result<Arc<GroupCommitWal>> {
        Ok(Arc::new(GroupCommitWal::wrap(wal, self.gather)?))
    }

    /// Snapshot of the in-memory catalog entry for `name`.
    pub(super) fn entry(&self, name: &str) -> Result<CatalogEntry> {
        lock_meta(&self.entries)
            .get(name)
            .cloned()
            .ok_or_else(|| not_serving(name))
    }

    /// THE manifest rule — stage → write → publish, under one hold of the
    /// entries lock: clone the committed map, apply `edit` to the clone
    /// (an `edit` that refuses aborts the commit before any write), write
    /// the clone as the catalog manifest (atomic replace), and install it
    /// only once the write succeeded. A change is therefore
    /// never visible — to a query, or to a racing commit that would write
    /// it out — before its own manifest is durable, and a failed write
    /// leaves the map exactly as last committed, with nothing to roll
    /// back. Holding the lock across the write also orders the renames, so
    /// a stale manifest can never land last.
    pub(super) fn commit(
        &self,
        pool: &SharedPool,
        vfs: &dyn Vfs,
        edit: impl FnOnce(&mut HashMap<String, CatalogEntry>) -> Result<()>,
    ) -> Result<()> {
        let mut committed = lock_meta(&self.entries);
        let mut staged = committed.clone();
        edit(&mut staged)?;
        let mut entries: Vec<CatalogEntry> = staged.values().cloned().collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        Catalog {
            block_size: pool.block_size(),
            budget_bytes: pool.budget_bytes(),
            entries,
        }
        .write_with(&self.dir, vfs)?;
        *committed = staged;
        Ok(())
    }

    /// Refuse to catalog `name` on `base` when another name already holds
    /// it: a compaction names generation `G + 1` after the base alone, so
    /// two names on one base would write each other's generation files.
    pub(super) fn check_base_free(&self, name: &str, base: &Path) -> Result<()> {
        base_free(&lock_meta(&self.entries), name, base)
    }

    /// Refresh `name`'s in-memory `checkpoint_seq` without writing the
    /// manifest — the one change to the map outside [`Durable::commit`].
    /// The value is advisory (recovery trusts the checkpoint file's own
    /// sequence number), so the next commit carries it and three fsyncs
    /// per checkpoint on the hot apply path would buy nothing.
    fn note_checkpoint(&self, name: &str, seq: u64) {
        if let Some(e) = lock_meta(&self.entries).get_mut(name) {
            e.checkpoint_seq = seq;
        }
    }
}

/// [`Durable::check_base_free`] over a (staged) entry map.
fn base_free(entries: &HashMap<String, CatalogEntry>, name: &str, base: &Path) -> Result<()> {
    match entries
        .values()
        .find(|e| e.name != name && same_base(&e.base, base))
    {
        Some(owner) => Err(graphstore::Error::InvalidArgument(format!(
            "base {} is already catalogued as {:?}; two names on one base would \
             compact into the same generation files",
            base.display(),
            owner.name
        ))),
        None => Ok(()),
    }
}

/// Durable graph names become file names; restrict them so they can never
/// traverse out of the data directory.
pub(super) fn validate_durable_name(name: &str) -> Result<()> {
    let ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if ok {
        Ok(())
    } else {
        Err(graphstore::Error::InvalidArgument(format!(
            "durable graph name {name:?} must match [A-Za-z0-9_-]+ (it names on-disk files)"
        )))
    }
}

impl CoreService {
    /// Apply one typed maintenance operation to the named graph:
    /// [`CoreService::apply_batch`] with a batch of one (the only case in
    /// which the barrier leader waits out the journal's gather window).
    /// [`CoreService::insert_edge`] / [`CoreService::delete_edge`] are
    /// thin wrappers over it.
    pub fn apply(&self, name: &str, op: MaintainOp) -> Result<MaintainStats> {
        // An `Ok` batch carries one stats entry per op.
        self.apply_batch(name, &[op])
            .map(|mut all| all.swap_remove(0))
    }

    /// Apply a batch of typed maintenance operations to the named graph —
    /// **the** mutation path, in three steps:
    ///
    /// 1. **stage** each op under the graph's lock: validate it against
    ///    the current edges (one adjacency read; unlike
    ///    [`CoreIndex::apply`], which trusts its caller, this path is fed
    ///    raw user input) → append `(seq, op)` to the journal *unsynced*
    ///    → apply it to the index;
    /// 2. **join** once, still under the lock: every `checkpoint_every`
    ///    ops the maintained state is checkpointed and the journal
    ///    truncated;
    /// 3. **barrier** after the lock is released: one fsync wait on the
    ///    last staged record, so the next writer stages while this
    ///    batch's fsync is in flight and concurrent writers share
    ///    barriers. The batch is **acknowledged only after the barrier**,
    ///    so a crash at any instant loses at most ops whose success was
    ///    never reported. Past
    ///    [`compact_after_edits`](DurableOptions::compact_after_edits)
    ///    the batch then compacts the graph ([`CoreService::compact`],
    ///    whose rewrite runs without the lock) before it returns.
    ///
    /// Error semantics: ops are applied in order until the first failure;
    /// the already-applied prefix *stays* applied and is made durable
    /// before the error is returned (a batch is a convenience, not a
    /// transaction). A quarantined graph rejects the batch; an op that
    /// fails with an I/O or corruption error — journal append, dispatch,
    /// or the validating adjacency read — quarantines the graph, because
    /// after a mid-mutation failure the in-memory state can no longer be
    /// trusted (a full disk proven to have left the journal clean only
    /// degrades it to read-only), and so does a failed barrier, always.
    /// Validation rejections (duplicate insert, absent delete, bad node)
    /// leave the graph serving.
    pub fn apply_batch(&self, name: &str, ops: &[MaintainOp]) -> Result<Vec<MaintainStats>> {
        let _permit = self.admit(name)?;
        let (handle, health) = self.served_for(name, true)?;
        let mut served = lock_served(name, &handle, &health)?;
        let before = served.index.format_version();
        let (res, staged_lsn) = self.commit_locked(name, &mut served, ops, &health);
        self.note_format(name, &handle, before, &served);
        let fold_due = self.durable.as_ref().filter(|d| {
            res.is_ok() && served.index.graph_mut().pending_edits() >= d.compact_after_edits
        });
        let journal = served.wal.clone();
        // The barrier is crossed *after* the graph lock is gone: the next
        // writer can validate, journal and apply while this batch is
        // being synced — that overlap is where fsyncs get shared.
        drop(served);
        if let (Some(journal), Some(lsn)) = (journal, staged_lsn) {
            if let Err(e) = journal.wait_durable(lsn, ops.len() == 1) {
                // THE barrier rule: a failed barrier always quarantines —
                // never a read-only downgrade, even on a full disk, and
                // whatever the in-lock outcome was. The staged ops are
                // applied in memory but their durability is unknown, so
                // the state must be sealed and rebuilt from the
                // journal's durable prefix.
                lock_meta(&health).quarantine(&format!("journal barrier failed: {e}"));
                return Err(e);
            }
        }
        if let Err(e) = &res {
            lock_meta(&health).record_failure(e, "maintenance failed");
        }
        // Threshold compaction: the staged ops are durable already, so
        // their fate must not ride on it — its failure only moves the
        // health machine.
        if let Some(d) = fold_due {
            let _ = self.compact_served(d, name, &handle, &health);
        }
        res
    }

    /// Insert an edge into the named graph, maintaining its cores
    /// (SemiInsert\*). Equivalent to [`CoreService::apply`] with
    /// [`MaintainOp::Insert`]; inserting a present edge is an error.
    pub fn insert_edge(&self, name: &str, u: u32, v: u32) -> Result<MaintainStats> {
        self.apply(name, MaintainOp::Insert(u, v))
    }

    /// Delete an edge from the named graph, maintaining its cores
    /// (SemiDelete\*). Equivalent to [`CoreService::apply`] with
    /// [`MaintainOp::Delete`]; deleting an absent edge is an error.
    pub fn delete_edge(&self, name: &str, u: u32, v: u32) -> Result<MaintainStats> {
        self.apply(name, MaintainOp::Delete(u, v))
    }

    /// Validate `op` against the graph's current edges (one adjacency
    /// read): duplicate inserts and absent deletes are rejected before
    /// anything is journaled.
    fn validate_op(served: &mut Served, op: MaintainOp) -> Result<()> {
        let (u, v) = op.endpoints();
        let present = served.index.has_edge(u, v)?;
        if present == op.is_insert() {
            let state = if present { "already" } else { "not" };
            return Err(graphstore::Error::InvalidArgument(format!(
                "edge ({u}, {v}) {state} present"
            )));
        }
        Ok(())
    }

    /// Stage one op with the graph's lock held: validate → journal
    /// (unsynced) → apply. Returns the stats plus the record's LSN on a
    /// durable graph.
    fn stage_locked(
        &self,
        served: &mut Served,
        op: MaintainOp,
        health: &Mutex<HealthState>,
    ) -> Result<(MaintainStats, Option<u64>)> {
        {
            // The validation read is the only cancellable stretch of a
            // mutation: nothing is journaled or applied yet, so a
            // deadline expiry here is a clean typed rejection.
            let _deadline = self.arm_deadline(served);
            Self::validate_op(served, op)?;
        }
        let seq = served.seq + 1;
        let mut staged = None;
        if let Some(journal) = &served.wal {
            let mark = journal.mark();
            match journal.submit(&encode_record(seq, op)) {
                Ok(lsn) => staged = Some((mark, lsn)),
                Err(e) => {
                    // The journal already tried to clean its own partial
                    // record up; retry via rollback (idempotent) to
                    // *prove* it clean. Proven, a full disk is a
                    // degraded-mode condition the caller classifies;
                    // unproven, a record whose failure we report might
                    // replay after a crash — seal the graph here.
                    if journal.rollback_to(mark).is_err() {
                        lock_meta(health).quarantine(&format!(
                            "journal append failed and its rollback failed too: {e}"
                        ));
                    }
                    return Err(e);
                }
            }
        }
        match served.index.apply(op) {
            Ok(stats) => {
                served.seq = seq;
                Ok((stats, staged.map(|(_, lsn)| lsn)))
            }
            Err(e) => {
                // The op failed after it was journaled: undo the append so
                // the journal never records an op whose failure we report
                // (replaying it would diverge from the acknowledged
                // history). If even the rollback fails, the record stays —
                // then the op *is* durably recorded, so consume its
                // sequence number rather than let the next op reuse it and
                // poison the journal's gap check. (A rolled-back record's
                // LSN stays consumed too — the barrier can still advance
                // past it, it just vouches for nothing.)
                if let (Some(journal), Some((mark, _))) = (&served.wal, staged) {
                    if journal.rollback_to(mark).is_err() {
                        served.seq = seq;
                    }
                }
                Err(e)
            }
        }
    }

    /// [`CoreService::apply_batch`] past the registry/health gate, with
    /// the graph's lock held: stage every op, then join once (the
    /// threshold checkpoint). Returns the
    /// outcome plus the LSN of the last staged record — even when the
    /// outcome is an error, so the caller's barrier still covers the
    /// applied prefix before anything is reported.
    fn commit_locked(
        &self,
        name: &str,
        served: &mut Served,
        ops: &[MaintainOp],
        health: &Mutex<HealthState>,
    ) -> (Result<Vec<MaintainStats>>, Option<u64>) {
        let mut all = Vec::with_capacity(ops.len());
        let mut staged_lsn = None;
        for &op in ops {
            match self.stage_locked(served, op, health) {
                Ok((stats, lsn)) => {
                    all.push(stats);
                    staged_lsn = lsn.or(staged_lsn);
                }
                Err(e) => return (Err(e), staged_lsn),
            }
        }
        if let Some(d) = &self.durable {
            if served.seq - served.ck_seq >= d.checkpoint_every {
                // The ops are journaled and applied — durable once the
                // barrier lands — so a failed threshold checkpoint must
                // not turn their acknowledgement into an error (the caller
                // would retry ops that actually happened). `ck_seq` stays
                // put, the next batch retries the checkpoint, and the
                // journal simply grows until one succeeds. A *full disk*,
                // though, is actionable now: degrade to read-only so later
                // mutations get the typed refusal instead of failing their
                // appends one by one.
                if let Err(e) = self.checkpoint_locked(d, name, served) {
                    if e.is_disk_full() {
                        lock_meta(health).degrade_read_only(&format!(
                            "threshold checkpoint hit a full disk: {e}"
                        ));
                    }
                }
            }
        }
        (Ok(all), staged_lsn)
    }

    /// Checkpoint the named graph now — maintained state to `<name>.ckpt`,
    /// journal truncated — regardless of the `checkpoint_every` cadence.
    /// Errors on a non-durable service.
    pub fn save(&self, name: &str) -> Result<()> {
        let d = self.durable("nothing to save")?;
        let _permit = self.admit(name)?;
        let (handle, health) = self.served_for(name, true)?;
        let mut served = lock_served(name, &handle, &health)?;
        let res = self.checkpoint_locked(d, name, &mut served);
        if let Err(e) = &res {
            lock_meta(&health).record_failure(e, "checkpoint failed");
        }
        res
    }

    /// [`CoreService::save`] for every served graph.
    pub fn save_all(&self) -> Result<()> {
        for name in self.graph_names() {
            self.save(&name)?;
        }
        Ok(())
    }

    /// Checkpoint `served` (whose lock the caller holds): atomically
    /// replace `<name>.ckpt` with the maintained state at `served.seq`,
    /// then truncate the journal. The checkpoint rename is the commit
    /// point — a crash before it replays the old checkpoint plus the full
    /// journal, a crash after it skips the already-covered records by
    /// sequence number.
    pub(super) fn checkpoint_locked(
        &self,
        d: &Durable,
        name: &str,
        served: &mut Served,
    ) -> Result<()> {
        // The checkpoint file is keyed by the graph's current table
        // generation (0 while the entry map has nothing yet, i.e. the
        // seq-0 checkpoint written during publication).
        let generation = lock_meta(&d.entries).get(name).map_or(0, |e| e.generation);
        let edits = served.index.graph_mut().pending_net_edits();
        let counter = served.index.graph_mut().disk().counter().clone();
        let state = served.index.maintained_state();
        StateCheckpoint::write_parts(
            &ckpt_path(&d.dir, name, generation),
            &counter,
            served.seq,
            &state.core,
            &state.cnt,
            &edits,
        )?;
        if let Some(journal) = &served.wal {
            // The checkpoint is durably past every journaled op, so
            // emptying the file also satisfies any waiter still queued on
            // the barrier.
            journal.truncate_satisfy()?;
        }
        served.ck_seq = served.seq;
        d.note_checkpoint(name, served.seq);
        Ok(())
    }

    /// Flush every served graph's journal — the drain hook the server
    /// calls before closing sockets: records still awaiting a barrier are
    /// fsynced now. Best-effort: a graph whose flush fails is quarantined
    /// (the barrier rule) and the drain keeps going.
    pub fn flush_journals(&self) {
        for name in self.graph_names() {
            let Ok((handle, health)) = self.slot_parts(&name) else {
                continue;
            };
            // Skip poisoned graphs: their journals stop at the last
            // acknowledged op, which is exactly what recovery wants.
            let Ok(served) = handle.lock() else { continue };
            let journal = served.wal.clone();
            drop(served);
            if let Some(Err(e)) = journal.map(|j| j.flush()) {
                lock_meta(&health).quarantine(&format!("drain flush failed: {e}"));
            }
        }
    }

    /// Compact the named graph **now**, regardless of the
    /// [`DurableOptions::compact_after_edits`] threshold: fold its
    /// buffered edits into a fresh *generation* of v3 table files and
    /// commit the bumped generation in the catalog manifest. Returns the
    /// graph's generation afterwards.
    ///
    /// A compaction costs what it changes:
    ///
    /// * **Empty fold.** With no net edit buffered and v3 tables there is
    ///   nothing to rewrite: the call is a [`CoreService::save`] — the
    ///   journal is truncated, no tables are written, and the unchanged
    ///   generation is returned.
    /// * **Real fold.** The `O(m)` rewrite runs **without the graph's
    ///   lock**, beside the live graph, which keeps serving queries and
    ///   acknowledging edits; only a short split (copy the buffer's net
    ///   edits, `O(pending)`) and a short join (rebase the buffer, write
    ///   a checkpoint, commit) hold it. Afterwards the buffer holds only
    ///   the edits the rewrite did not fold, and recovery is one
    ///   sequential table scan plus those.
    ///
    /// Compaction is also the migration: a v1 graph always rewrites, and
    /// its entry flips to v3 at the same commit point as its generation.
    /// One compaction per graph is in flight at a time: a call that finds
    /// another one running returns the committed generation untouched.
    ///
    /// Errors on a non-durable service. A compaction that fails with an
    /// I/O or corruption error **quarantines** the graph: unlike a
    /// best-effort threshold checkpoint it may have died anywhere inside
    /// the multi-file commit protocol, and re-opening from the committed
    /// manifest is the safe way back (it recovers exactly the pre- or
    /// post-compaction state, never a third). One that finds the graph
    /// evicted, repaired, quarantined or read-only at its join abandons
    /// with an error and leaves no catalogued trace.
    pub fn compact(&self, name: &str) -> Result<u64> {
        let d = self.durable("nothing to compact")?;
        let _permit = self.admit(name)?;
        let (handle, health) = self.served_for(name, true)?;
        self.compact_served(d, name, &handle, &health)
    }

    /// The named graph's current table generation (0 until its first
    /// compaction). Errors on a non-durable service or an unknown name.
    pub fn generation(&self, name: &str) -> Result<u64> {
        let d = self.durable("graphs have no generations")?;
        d.entry(name).map(|e| e.generation)
    }

    /// [`CoreService::compact`] past the registry/health gate: the split,
    /// under the lock and `O(pending)` — claim the graph's one compaction
    /// slot, copy the buffer's net edits `F`, mark the served state; or,
    /// with nothing to fold over tables in the layout every writer writes
    /// (v3 edges, packed node index), checkpoint and stop — then
    /// [`CoreService::stage_fold`] without the lock and
    /// [`CoreService::join_fold`] under it. A failure is routed to the
    /// health machine by whether it struck before or after the catalog
    /// commit.
    fn compact_served(
        &self,
        d: &Durable,
        name: &str,
        handle: &Arc<Mutex<Served>>,
        health: &Mutex<HealthState>,
    ) -> Result<u64> {
        let mut committed = false;
        let res = (|| {
            let (split, _claim) = {
                let mut served = lock_served(name, handle, health)?;
                let entry = d.entry(name)?;
                let Some(claim) = d.claim_fold(name) else {
                    return Ok(entry.generation);
                };
                let folded = served.index.graph_mut().pending_net_edits();
                if folded.is_empty() && served.index.graph_mut().disk().meta().is_current() {
                    self.checkpoint_locked(d, name, &mut served)?;
                    return Ok(entry.generation);
                }
                served.folding = true;
                let split = Split {
                    new_base: graphstore::generation_base(&entry.base, entry.generation + 1),
                    entry,
                    folded,
                };
                (split, claim)
            };
            let staged = self.stage_fold(&split);
            self.join_fold(d, name, handle, health, &split, staged, &mut committed)
        })();
        if let Err(e) = &res {
            lock_meta(health).record_compact_failure(e, committed);
        }
        res
    }

    /// The stage, without the graph's lock: rewrite generation `G`'s
    /// immutable tables plus the frozen edits into generation `G + 1`
    /// through the table writer (temp-free: the generation suffix is the
    /// temp name until the catalog points at it). The old tables are read
    /// through the stage's own unpooled handle, which moves no tenant's
    /// pool residency, on the stage's own counter: the rewrite is not a
    /// tenant op, so it charges none of the graph's reads (and no op's
    /// deadline can cancel it).
    fn stage_fold(&self, split: &Split) -> Result<()> {
        let counter = IoCounter::with_vfs(self.pool.block_size(), Arc::clone(&self.vfs));
        let mut source = DiskGraph::open(&split.entry.table_base(), counter)?;
        let edits = UpdateBuffer::from_net_edits(&split.folded);
        graphstore::rewrite_tables(&mut source, &edits, &split.new_base, |_v| {
            #[cfg(test)]
            if let Some(d) = &self.durable {
                d.park_stage(_v);
            }
        })?;
        Ok(())
    }

    /// The join, with the graph's lock held. Sync-point order (each a
    /// crash window the torture suite walks):
    ///
    /// 1. abandon — before any write — if the graph was evicted,
    ///    repaired, quarantined or degraded since the split, or the stage
    ///    failed; else open the new tables against the pool (on the
    ///    graph's counter, which the open leaves as it is);
    /// 2. rebase the live buffer onto the new tables
    ///    ([`graphstore::rebase_edits`], `O(pending)`) and write the new
    ///    generation's checkpoint at `served.seq` with the rebased edits,
    ///    at its generation-keyed path, leaving the old checkpoint
    ///    untouched (3 sync events, atomic replace);
    /// 3. rewrite the catalog manifest with the bumped generation — THE
    ///    commit point: one rename atomically switches which tables and
    ///    which checkpoint recovery reads (3 sync events);
    /// 4. truncate the journal — safe on either side of a crash, every
    ///    journaled record is `<= served.seq` and the committed
    ///    checkpoint sits exactly at `served.seq`, so recovery skips
    ///    them by sequence number whether or not the truncate landed;
    /// 5. swap the live index onto the new tables in place behind the
    ///    rebased buffer (the maintained state is never copied) and drop
    ///    the old generation's files (plain unlinks: no sync points, no
    ///    new crash windows; failures leave orphans for fsck to sweep).
    ///    The registered generation-0 base is the user's file and is
    ///    never deleted; compaction output (g > 0) is service-owned.
    ///
    /// Ops acknowledged during the stage are in the live buffer and the
    /// live state, so the checkpoint of step 2 covers them; threshold
    /// checkpoints they triggered went to generation `G`'s path, which
    /// stays the committed one until step 3.
    #[allow(clippy::too_many_arguments)]
    fn join_fold(
        &self,
        d: &Durable,
        name: &str,
        handle: &Arc<Mutex<Served>>,
        health: &Mutex<HealthState>,
        split: &Split,
        staged: Result<()>,
        committed: &mut bool,
    ) -> Result<u64> {
        let new_gen = split.entry.generation + 1;
        type Prepared<'a> = (MutexGuard<'a, Served>, DiskGraph, Vec<(u32, u32, bool)>);
        let prepared = || -> Result<Prepared<'_>> {
            let mut served = lock_served(name, handle, health)?;
            // The split's mark is gone when a repair rebuilt the state.
            let rebuilt = !std::mem::take(&mut served.folding);
            // The abandonment rule, checked ahead of a stage failure (a
            // repair sweeping the stage's files is what failed it): the
            // graph must still take writes, be registered under `name`
            // and catalogued at `G`, and not have been rebuilt.
            lock_meta(health).gate(name, true)?;
            let registry = self.registry();
            if !registry
                .get(name)
                .is_some_and(|s| Arc::ptr_eq(&s.handle, handle))
            {
                return Err(not_serving(name));
            }
            drop(registry);
            if rebuilt || d.entry(name)?.generation != split.entry.generation {
                return Err(graphstore::Error::InvalidArgument(format!(
                    "compaction of {name:?} abandoned: the graph was rebuilt while it ran"
                )));
            }
            staged?;
            let counter = served.index.graph_mut().disk().counter().clone();
            let charge = split.entry.charge_bytes;
            let disk =
                DiskGraph::open_pooled(&split.new_base, counter.clone(), &self.pool, charge)?;
            let live = served.index.graph_mut().pending_net_edits();
            let pending = graphstore::rebase_edits(&live, &split.folded);
            let state = served.index.maintained_state();
            StateCheckpoint::write_parts(
                &ckpt_path(&d.dir, name, new_gen),
                &counter,
                served.seq,
                &state.core,
                &state.cnt,
                &pending,
            )?;
            Ok((served, disk, pending))
        };
        let (mut served, disk, pending) = prepared().inspect_err(|_| {
            // Nothing is catalogued yet: the stage's files are debris.
            let staged = CatalogEntry {
                generation: new_gen,
                ..split.entry.clone()
            };
            self.remove_generation_files(d, &staged);
        })?;
        let seq = served.seq;
        d.commit(&self.pool, self.vfs.as_ref(), |entries| {
            if let Some(e) = entries.get_mut(name) {
                e.generation = new_gen;
                e.checkpoint_seq = seq;
                e.format = FormatVersion::V3;
            }
            Ok(())
        })?;
        // The catalog rename landed: failures past this point leave the
        // artefacts between states, which the caller's classification
        // treats as seal-worthy whatever the error kind.
        *committed = true;
        if let Some(journal) = &served.wal {
            journal.truncate_satisfy()?;
        }
        served.ck_seq = seq;
        let before = served.index.format_version();
        served.index.adopt_tables(disk, &pending)?;
        self.note_format(name, handle, before, &served);
        self.remove_generation_files(d, &split.entry);
        Ok(new_gen)
    }

    /// Best-effort unlink of the files only `entry`'s generation owns:
    /// its checkpoint, and — for service-created generations (g > 0) —
    /// its tables. The registered generation-0 base is never touched.
    /// Failures leave orphans for fsck to sweep.
    fn remove_generation_files(&self, d: &Durable, entry: &CatalogEntry) {
        let _ = self
            .vfs
            .remove_file(&ckpt_path(&d.dir, &entry.name, entry.generation));
        if entry.generation > 0 {
            let paths = GraphPaths::from_base(&entry.table_base());
            let _ = self.vfs.remove_file(&paths.nodes);
            let _ = self.vfs.remove_file(&paths.edges);
        }
    }

    /// Make a freshly opened graph durable, with its lock held: seq-0
    /// checkpoint, empty journal, then the manifest commit that catalogues
    /// it. On failure nothing was committed, so the caller only has to
    /// stop serving it; a leftover checkpoint or journal is uncatalogued
    /// (recovery never reads it) and the next publish of the name replaces
    /// both.
    pub(super) fn publish_locked(
        &self,
        d: &Durable,
        entry: CatalogEntry,
        served: &mut Served,
    ) -> Result<()> {
        let name = entry.name.clone();
        // The seq-0 checkpoint: same writer as every later one
        // (`served.wal` is still None, so no journal to truncate, and the
        // entry map has nothing to refresh yet).
        self.checkpoint_locked(d, &name, served)?;
        let counter = served.index.graph_mut().disk().counter().clone();
        served.wal = Some(d.journal(Wal::create(&wal_path(&d.dir, &name), counter)?)?);
        d.commit(&self.pool, self.vfs.as_ref(), |entries| {
            base_free(entries, &name, &entry.base)?;
            entries.insert(name, entry);
            Ok(())
        })
    }

    /// Evict `name` from a durable service: commit a manifest without it,
    /// **then** drop its registry slot and remove its sidecars (the user's
    /// registered base tables are untouched). A failed commit leaves the
    /// graph served and catalogued, exactly as before the call.
    pub(super) fn retire(&self, d: &Durable, name: &str) -> Result<()> {
        let mut removed = None;
        d.commit(&self.pool, self.vfs.as_ref(), |entries| {
            removed = entries.remove(name);
            Ok(())
        })?;
        self.registry()
            .remove(name)
            .ok_or_else(|| not_serving(name))?;
        // Sidecars of an uncatalogued graph are dead weight; failures here
        // are harmless (recovery never reads uncatalogued files). With no
        // entry, a publish of this graph is still in flight and owns them.
        if let Some(e) = removed {
            let _ = self.vfs.remove_file(&wal_path(&d.dir, name));
            self.remove_generation_files(d, &e);
        }
        Ok(())
    }

    /// Restore one catalogued graph and serve it.
    pub(super) fn recover_entry(&self, entry: &CatalogEntry) -> Result<()> {
        let d = self.durable("nothing to recover into")?;
        if self.contains(&entry.name) {
            return Err(graphstore::Error::Corrupt {
                reason: format!("catalog lists {:?} twice", entry.name),
            });
        }
        let served = self.rebuild_served(d, entry)?;
        d.note_checkpoint(&entry.name, served.ck_seq);
        self.registry().insert(
            entry.name.clone(),
            Slot::new(
                Arc::new(Mutex::new(served)),
                entry.format,
                entry.charge_bytes,
                &entry.base,
            ),
        );
        Ok(())
    }

    /// Rebuild a served graph from its durable artefacts — the shared
    /// core of restart recovery ([`CoreService::recover_entry`]) and
    /// online repair ([`CoreService::repair`]): open the
    /// current-generation tables against the pool, load the checkpoint,
    /// re-inject the buffered edits, and replay the journal tail through
    /// [`CoreIndex::apply`].
    pub(super) fn rebuild_served(&self, d: &Durable, entry: &CatalogEntry) -> Result<Served> {
        let counter = IoCounter::with_vfs(self.pool.block_size(), Arc::clone(&self.vfs));
        // Open the entry's *current generation* tables: the registered
        // base for generation 0, `<base>.g<g>` after `g` compactions.
        let disk = DiskGraph::open_pooled(
            &entry.table_base(),
            counter.clone(),
            &self.pool,
            entry.charge_bytes,
        )?;
        check_format(entry, &disk)?;
        let ck =
            StateCheckpoint::read(&ckpt_path(&d.dir, &entry.name, entry.generation), &counter)?;
        let mut index = CoreIndex::restore(
            disk,
            DURABLE_BUFFER_CAPACITY,
            CoreState {
                core: ck.cores,
                cnt: ck.cnt,
            },
        )?;
        // A flush interrupted by a crash can leave `.rewrite` temp tables
        // next to the graph; they are dead (the rename never happened) and
        // would collide with the next rewrite, so sweep them on the way in.
        index.graph_mut().clean_stale_temps()?;
        // The checkpointed update-buffer edits: graph mutations only — the
        // restored cores/cnt already reflect them. The checked variants
        // cross-validate each edit against the merged view: a checkpoint
        // whose edits are already present in the tables (or vice versa)
        // is a protocol violation, not a state to silently absorb.
        for (u, v, inserted) in ck.edits {
            let res = if inserted {
                index.graph_mut().insert_edge_checked(u, v)
            } else {
                index.graph_mut().delete_edge_checked(u, v)
            };
            res.map_err(|e| match e {
                graphstore::Error::InvalidArgument(msg) => graphstore::Error::Corrupt {
                    reason: format!(
                        "checkpointed edit for {:?} contradicts its tables: {msg}",
                        entry.name
                    ),
                },
                other => other,
            })?;
        }
        // Replay the journal tail through the same typed-op dispatch used
        // live, admitting records by the one journal rule.
        let (wal, records) = Wal::open(&wal_path(&d.dir, &entry.name), counter, continues_journal)?;
        let mut replay = JournalReplay::new(ck.seq, index.num_nodes());
        for record in records {
            let admitted = replay.admit(&record).map_err(|problem| {
                graphstore::Error::corrupt(format!("{:?}: {problem}", entry.name))
            })?;
            if let Some(op) = admitted {
                index.apply(op)?;
            }
        }
        Ok(Served {
            index,
            wal: Some(d.journal(wal)?),
            seq: replay.seq,
            ck_seq: ck.seq,
            folding: false,
        })
    }
}

/// The compaction stage's test seam.
#[cfg(test)]
pub(super) mod park {
    use std::sync::{Condvar, Mutex};

    use super::{lock_meta, Durable};

    /// Parks compaction stages at one node of their rewrite until
    /// released — the deterministic seam the tests use to act on a graph
    /// while its compaction runs.
    #[derive(Debug, Default)]
    pub(in crate::service) struct StagePark {
        /// The node ahead of which stages park.
        node: u32,
        /// (a stage is parked, the park is released)
        state: Mutex<(bool, bool)>,
        changed: Condvar,
    }

    impl StagePark {
        /// A park ahead of `node`'s list.
        pub(in crate::service) fn at(node: u32) -> StagePark {
            StagePark {
                node,
                ..StagePark::default()
            }
        }

        /// Block until a stage has parked.
        pub(in crate::service) fn wait_parked(&self) {
            let mut state = lock_meta(&self.state);
            while !state.0 {
                state = self.changed.wait(state).unwrap();
            }
        }

        /// Let every parked stage (and every later one) run on.
        pub(in crate::service) fn release(&self) {
            lock_meta(&self.state).1 = true;
            self.changed.notify_all();
        }
    }

    impl Durable {
        /// Park the stage about to rewrite node `v` if the installed park
        /// is at `v`.
        pub(super) fn park_stage(&self, v: u32) {
            let park = lock_meta(&self.park).clone();
            let Some(park) = park.filter(|p| p.node == v) else {
                return;
            };
            let mut state = lock_meta(&park.state);
            state.0 = true;
            park.changed.notify_all();
            while !state.1 {
                state = park.changed.wait(state).unwrap();
            }
        }
    }
}

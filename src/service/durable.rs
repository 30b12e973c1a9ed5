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

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use graphstore::{
    Catalog, CatalogEntry, DiskGraph, FormatVersion, GroupCommitOptions, GroupCommitWal, IoCounter,
    Result, SharedPool, StateCheckpoint, Vfs, Wal,
};
use semicore::{CoreState, MaintainOp, MaintainStats};

use super::health::HealthState;
use super::{lock_meta, lock_served, not_serving, CoreService, DurableOptions, Served, Slot};
use crate::fsck::{check_format, ckpt_path, encode_record, wal_path, JournalReplay};
use crate::CoreIndex;

/// Update-buffer capacity for durable graphs: self-flush is disabled (a
/// buffer-triggered flush would rewrite the base tables behind the
/// checkpoint protocol's back and double-apply edits on recovery). The
/// *actual* memory bound comes from the service instead: once a graph's
/// pending edits reach [`DurableOptions::compact_after_edits`] the apply
/// path runs a generational compaction, which rewrites the tables
/// *through* the commit protocol and empties the buffer.
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
        }
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
    /// entries lock: clone the committed map, apply `edit` to the clone,
    /// write the clone as the catalog manifest (atomic replace), and
    /// install it only once the write succeeded. A change is therefore
    /// never visible — to a query, or to a racing commit that would write
    /// it out — before its own manifest is durable, and a failed write
    /// leaves the map exactly as last committed, with nothing to roll
    /// back. Holding the lock across the write also orders the renames, so
    /// a stale manifest can never land last.
    pub(super) fn commit(
        &self,
        pool: &SharedPool,
        vfs: &dyn Vfs,
        edit: impl FnOnce(&mut HashMap<String, CatalogEntry>),
    ) -> Result<()> {
        let mut committed = lock_meta(&self.entries);
        let mut staged = committed.clone();
        edit(&mut staged);
        let mut entries: Vec<CatalogEntry> = staged.values().cloned().collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        Catalog {
            block_size: pool.block_size(),
            budget_bytes: pool.budget_bytes(),
            policy: pool.policy(),
            entries,
        }
        .write_with(&self.dir, vfs)?;
        *committed = staged;
        Ok(())
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
    ///    truncated, and past
    ///    [`compact_after_edits`](DurableOptions::compact_after_edits)
    ///    the graph is compacted;
    /// 3. **barrier** after the lock is released: one fsync wait on the
    ///    last staged record, so the next writer stages while this
    ///    batch's fsync is in flight and concurrent writers share
    ///    barriers. The batch is **acknowledged only after the barrier**,
    ///    so a crash at any instant loses at most ops whose success was
    ///    never reported.
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
    /// the graph's lock held: stage every op, then join once. Returns the
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
            // Threshold compaction: same rule, the staged ops' fate must
            // not ride on it — its failure only moves the health machine.
            if served.index.graph_mut().pending_edits() >= d.compact_after_edits {
                let mut committed = false;
                if let Err(e) = self.compact_locked(d, name, served, &mut committed) {
                    lock_meta(health).record_compact_failure(&e, committed);
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
    /// [`DurableOptions::compact_after_edits`] threshold: rewrite its
    /// current tables plus every buffered edit into a fresh *generation*
    /// of v3 table files, commit the bumped generation in the catalog
    /// manifest, then truncate the update buffer and the journal.
    /// Afterwards the graph's checkpoint carries an empty edit list, so
    /// recovery is one sequential table scan with nothing to replay.
    /// Compaction is also the migration: a v1 graph's entry flips to v3 at
    /// the same commit point as its generation. Returns the new generation
    /// number.
    ///
    /// Errors on a non-durable service. A compaction that fails with an
    /// I/O or corruption error **quarantines** the graph: unlike a
    /// best-effort threshold checkpoint it may have died anywhere inside
    /// the multi-file commit protocol, and re-opening from the committed
    /// manifest is the safe way back (it recovers exactly the pre- or
    /// post-compaction state, never a third).
    pub fn compact(&self, name: &str) -> Result<u64> {
        let d = self.durable("nothing to compact")?;
        let _permit = self.admit(name)?;
        let (handle, health) = self.served_for(name, true)?;
        let mut served = lock_served(name, &handle, &health)?;
        let before = served.index.format_version();
        let mut committed = false;
        let res = self.compact_locked(d, name, &mut served, &mut committed);
        self.note_format(name, &handle, before, &served);
        if let Err(e) = &res {
            lock_meta(&health).record_compact_failure(e, committed);
        }
        res
    }

    /// The named graph's current table generation (0 until its first
    /// compaction). Errors on a non-durable service or an unknown name.
    pub fn generation(&self, name: &str) -> Result<u64> {
        let d = self.durable("graphs have no generations")?;
        d.entry(name).map(|e| e.generation)
    }

    /// The generational compaction protocol, with the graph lock held.
    /// Sync-point order (each a crash window the torture suite walks):
    ///
    /// 1. rewrite base ∪ buffered edits into `<base>.g<G>` tables — the
    ///    generation suffix *is* the temp name until the catalog points
    ///    at it (3 sync events in the table writer);
    /// 2. write the new generation's checkpoint (`served.seq`, **empty**
    ///    edits — they are baked into the new tables) at its
    ///    generation-keyed path, leaving the old checkpoint untouched
    ///    (3 sync events, atomic replace);
    /// 3. rewrite the catalog manifest with the bumped generation — THE
    ///    commit point: one rename atomically switches which tables and
    ///    which checkpoint recovery reads (3 sync events);
    /// 4. truncate the journal — safe on either side of a crash, every
    ///    journaled record is `<= served.seq` and the committed
    ///    checkpoint sits exactly at `served.seq`, so recovery skips
    ///    them by sequence number whether or not the truncate landed;
    /// 5. swap the live index onto the new tables and drop the old
    ///    generation's files (plain unlinks: no sync points, no new
    ///    crash windows; failures leave orphans for fsck to sweep). The
    ///    registered generation-0 base is the user's file and is never
    ///    deleted; compaction output (g > 0) is service-owned.
    fn compact_locked(
        &self,
        d: &Durable,
        name: &str,
        served: &mut Served,
        committed: &mut bool,
    ) -> Result<u64> {
        let old = d.entry(name)?;
        let new_gen = old.generation + 1;
        let new_base = graphstore::generation_base(&old.base, new_gen);
        served.index.graph_mut().rewrite_to(&new_base)?;
        let counter = served.index.graph_mut().disk().counter().clone();
        let state = served.index.maintained_state().clone();
        StateCheckpoint::write_parts(
            &ckpt_path(&d.dir, name, new_gen),
            &counter,
            served.seq,
            &state.core,
            &state.cnt,
            &[],
        )?;
        let seq = served.seq;
        d.commit(&self.pool, self.vfs.as_ref(), |entries| {
            if let Some(e) = entries.get_mut(name) {
                e.generation = new_gen;
                e.checkpoint_seq = seq;
                e.format = FormatVersion::V3;
            }
        })?;
        // The catalog rename landed: failures past this point leave the
        // artefacts between states, which the caller's classification
        // treats as seal-worthy whatever the error kind.
        *committed = true;
        if let Some(journal) = &served.wal {
            journal.truncate_satisfy()?;
        }
        served.ck_seq = served.seq;
        let disk = DiskGraph::open_pooled(&new_base, counter, &self.pool, old.charge_bytes)?;
        served.index = CoreIndex::restore(disk, DURABLE_BUFFER_CAPACITY, state)?;
        self.remove_generation_files(d, &old);
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
            let paths = graphstore::GraphPaths::from_base(&entry.table_base());
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
            entries.insert(name, entry);
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
        let (wal, records) = Wal::open(&wal_path(&d.dir, &entry.name), counter)?;
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
        })
    }
}

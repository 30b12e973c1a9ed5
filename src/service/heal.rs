//! Getting an unhealthy graph back: online repair, the integrity
//! scrubber, the read-only space probe, and the supervisor thread that
//! drives all three. Everything here *operates on* unhealthy graphs, so
//! it reaches them through [`CoreService::slot_parts`] (no health gate)
//! and reports every outcome to the health machine
//! ([`HealthState`](super::health::HealthState)).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphstore::{Result, ThrottledVfs, Vfs};

use super::health::HealthStatus;
use super::{lock_meta, lock_served, not_serving, CoreService, Served};
use crate::fsck::{
    check_generation_debris, check_journal, check_tables_and_checkpoint, FsckReport,
};

/// Default physical-read pacing of the online scrubber, bytes per second.
pub const DEFAULT_SCRUB_RATE: u64 = 8 << 20;

impl CoreService {
    /// Attempt an **online repair** of a quarantined graph: drop its live
    /// index, run the single-graph fsck tail-repair over its durable
    /// artefacts ([`crate::fsck::fsck_graph_with`]), rebuild it through the
    /// same recovery path a restart uses, and gate re-admission on the
    /// Theorem 4.1 fixpoint certificate. On success the graph returns to
    /// [`HealthStatus::Healthy`] with its repair counters (and any sticky
    /// flag) reset; on failure it goes back to quarantine with the
    /// failure appended to its reason chain. Other graphs keep serving
    /// throughout.
    ///
    /// On a non-durable service nothing journaled survives: repair
    /// re-opens and re-decomposes the tables at the registered base, which
    /// hold the graph's last buffer flush (a non-durable graph's flushes
    /// rewrite them in place; a durable graph never touches its generation
    /// 0).
    ///
    /// Errors when the graph is not quarantined (there is nothing to
    /// repair), when a repair is already running, or when the repair
    /// itself fails. The graph's lock is held for the duration and the
    /// `Repairing` status refuses new operations at the gate.
    pub fn repair(&self, name: &str) -> Result<()> {
        let (handle, health) = self.slot_parts(name)?;
        let attempt = lock_meta(&health).begin_repair(name)?;
        // A poisoned lock is exactly what repair exists for: take it
        // through the poison and clear the flag — the old state is about
        // to be dropped wholesale, never recovered into.
        let mut served = match handle.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                handle.clear_poison();
                poisoned.into_inner()
            }
        };
        let before = served.index.format_version();
        let res = self.repair_locked(name, &mut served);
        self.note_format(name, &handle, before, &served);
        drop(served);
        lock_meta(&health).finish_repair(attempt, &res);
        res
    }

    /// The rebuild inside [`CoreService::repair`], with the graph's lock
    /// held.
    fn repair_locked(&self, name: &str, served: &mut Served) -> Result<()> {
        let mut new_served = if let Some(d) = &self.durable {
            // 1. Repair the durable artefacts — journal-tail truncation,
            //    generation-debris sweep — through the same checks `kcore
            //    fsck` runs offline. Damage fsck refuses to repair (live
            //    tables, checkpoint, catalog) fails the attempt.
            let report = crate::fsck::fsck_graph_with(&d.dir, name, true, Arc::clone(&self.vfs))?;
            if report.unrepaired() > 0 {
                return Err(graphstore::Error::Corrupt {
                    reason: format!(
                        "{} problem(s) fsck cannot repair: {}",
                        report.unrepaired(),
                        report.unrepaired_problems()
                    ),
                });
            }
            // 2. Rebuild from the repaired artefacts through the same
            //    path a restart would use.
            self.rebuild_served(d, &d.entry(name)?)?
        } else {
            let (base, charge_bytes) = {
                let registry = self.registry();
                let slot = registry.get(name).ok_or_else(|| not_serving(name))?;
                (slot.base.clone(), slot.charge_bytes)
            };
            Served::new(self.decompose(&base, charge_bytes)?)
        };
        // 3. The fixpoint certificate gates re-admission: a rebuild that
        //    recovered structurally valid but *wrong* state must not
        //    serve.
        if !new_served.index.verify()? {
            return Err(graphstore::Error::Corrupt {
                reason: "fixpoint certificate failed after rebuild".to_string(),
            });
        }
        // 4. Swap. The old index — and its pool lease — drops here; the
        //    overlap with the new lease during the rebuild is fine, the
        //    pool keys leases by id, not path.
        *served = new_served;
        Ok(())
    }

    /// Run the **online integrity scrubber** over the named graph without
    /// taking it out of service: the current-generation tables and the
    /// checkpoint are walked lock-free (they are immutable between
    /// compactions, and a checkpoint replace is an atomic rename), then
    /// the journal scan and generation-debris sweep run under the graph's
    /// lock (a live append mid-scan would read as a torn tail). Physical
    /// reads are paced by a token bucket at [`DEFAULT_SCRUB_RATE`]
    /// ([`graphstore::ThrottledVfs`]); the scrub runs on a scratch I/O
    /// counter, so the graph's own charged `read_ios` stays bit-identical
    /// with and without scrubbing.
    ///
    /// Findings quarantine the graph — routing it into the repair
    /// supervisor — and the report is returned either way. If a
    /// compaction swaps the table generation mid-scrub, the stale
    /// findings are discarded and an empty report returned; the next pass
    /// rechecks the new generation. While a compaction is in flight the
    /// debris sweep is skipped: its stage is writing the next
    /// generation's files. Errors on a non-durable service.
    pub fn scrub(&self, name: &str) -> Result<FsckReport> {
        let d = self.durable("nothing to scrub")?;
        let (handle, health) = self.slot_parts(name)?;
        let entry = d.entry(name)?;
        let vfs: Arc<dyn Vfs> = ThrottledVfs::new(Arc::clone(&self.vfs), DEFAULT_SCRUB_RATE);
        let block_size = self.pool.block_size();
        let fresh = || FsckReport {
            graphs_checked: 1,
            ..FsckReport::default()
        };
        let mut report = fresh();
        let mut probe = check_tables_and_checkpoint(&d.dir, &entry, block_size, &vfs, &mut report);
        {
            let served = lock_served(name, &handle, &health)?;
            if d.entry(name).ok().map(|e| e.generation) != Some(entry.generation) {
                // A compaction swapped the tables mid-scrub: every
                // unlocked finding is about files that are no longer
                // live.
                return Ok(fresh());
            }
            // The live `ck_seq` is the truth the journal must extend —
            // the unlocked checkpoint read may predate a checkpoint that
            // truncated the journal since.
            probe.ck_seq = Some(served.ck_seq);
            check_journal(&d.dir, &entry, probe, block_size, false, &vfs, &mut report);
            // An in-flight compaction's next-generation files are work in
            // progress, not debris.
            if !d.is_folding(name) {
                check_generation_debris(&d.dir, &entry, false, &vfs, &mut report);
            }
        }
        if report.unrepaired() > 0 {
            lock_meta(&health).quarantine(&format!(
                "scrub found {} problem(s): {}",
                report.unrepaired(),
                report.unrepaired_problems()
            ));
        }
        Ok(report)
    }

    /// Probe a read-only graph for recovery by attempting a real
    /// checkpoint — the cheapest write that proves both the checkpoint
    /// and journal paths have space again. On success the graph is
    /// promoted back to [`HealthStatus::Healthy`]; the checkpoint also
    /// truncated its journal, so the next mutation starts on a clean log.
    /// A still-full disk returns `Ok(false)` quietly; any other failure
    /// routes through the normal quarantine classification. A graph that
    /// is not read-only returns `Ok(false)` untouched.
    pub fn probe_read_only(&self, name: &str) -> Result<bool> {
        let (handle, health) = self.slot_parts(name)?;
        if lock_meta(&health).status() != HealthStatus::ReadOnly {
            return Ok(false);
        }
        let mut served = lock_served(name, &handle, &health)?;
        let res = match &self.durable {
            Some(d) => self.checkpoint_locked(d, name, &mut served),
            None => Ok(()),
        };
        drop(served);
        match res {
            Ok(()) => {
                lock_meta(&health).promote();
                Ok(true)
            }
            Err(e) if e.is_disk_full() => Ok(false),
            Err(e) => {
                lock_meta(&health).quarantine(&format!("read-only probe failed: {e}"));
                Err(e)
            }
        }
    }
}

/// Tuning knobs for the self-heal supervisor ([`start_self_heal`]).
#[derive(Debug, Clone)]
pub struct SelfHealOptions {
    /// How often each healthy graph is scrubbed; `None` disables the
    /// scrubber (quarantine repair and read-only probing still run).
    pub scrub_interval: Option<Duration>,
    /// Automatic repair attempts per quarantine episode before the
    /// quarantine is escalated to sticky.
    pub repair_retries: u32,
    /// Base delay of the exponential backoff between repair attempts:
    /// attempt `n` waits `backoff_base * 2^n`.
    pub backoff_base: Duration,
    /// How often the supervisor wakes up to look at graph health.
    pub poll_interval: Duration,
}

impl Default for SelfHealOptions {
    fn default() -> Self {
        SelfHealOptions {
            scrub_interval: None,
            repair_retries: 3,
            backoff_base: Duration::from_millis(50),
            poll_interval: Duration::from_millis(50),
        }
    }
}

/// Handle to a running self-heal supervisor. Dropping it (or calling
/// [`SelfHealHandle::stop`]) signals the worker and joins it.
pub struct SelfHealHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl SelfHealHandle {
    /// Stop the supervisor and wait for its thread to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SelfHealHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start the **self-heal supervisor**: a background worker that, on every
/// poll tick,
///
/// * attempts an online [`CoreService::repair`] of each non-sticky
///   quarantined graph, with exponential backoff between attempts and
///   escalation to sticky quarantine once `repair_retries` attempts have
///   failed;
/// * probes each read-only graph for returned disk space
///   ([`CoreService::probe_read_only`]) and promotes it back to
///   read-write when a checkpoint succeeds;
/// * scrubs each healthy graph's durable artefacts on `scrub_interval`
///   ([`CoreService::scrub`]), routing findings into the
///   quarantine → repair pipeline.
///
/// The returned handle owns the worker; drop it to stop.
pub fn start_self_heal(svc: &Arc<CoreService>, opts: SelfHealOptions) -> SelfHealHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let svc = Arc::clone(svc);
    let flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("kcore-self-heal".to_string())
        .spawn(move || {
            let mut last_scrub: HashMap<String, Instant> = HashMap::new();
            while !flag.load(Ordering::Acquire) {
                heal_tick(&svc, &opts, &mut last_scrub);
                std::thread::sleep(opts.poll_interval);
            }
        })
        .ok();
    SelfHealHandle { stop, thread }
}

/// One supervisor pass over every served graph.
fn heal_tick(svc: &CoreService, opts: &SelfHealOptions, last_scrub: &mut HashMap<String, Instant>) {
    for name in svc.graph_names() {
        let Ok((_, health)) = svc.slot_parts(&name) else {
            last_scrub.remove(&name);
            continue;
        };
        let h = lock_meta(&health).brief();
        match h.status {
            HealthStatus::Quarantined if !h.sticky => {
                if h.repair_attempts >= opts.repair_retries {
                    lock_meta(&health).escalate_sticky();
                } else if h.next_attempt_at.is_none_or(|t| Instant::now() >= t)
                    && svc.repair(&name).is_err()
                {
                    // `repair` bumped `repair_attempts`; schedule the
                    // next try with exponential backoff.
                    let backoff =
                        opts.backoff_base * 2u32.saturating_pow(h.repair_attempts.min(16));
                    lock_meta(&health).defer_repair(Instant::now() + backoff);
                }
            }
            HealthStatus::ReadOnly => {
                let _ = svc.probe_read_only(&name);
            }
            HealthStatus::Healthy => {
                if let Some(interval) = opts.scrub_interval {
                    let due = last_scrub
                        .get(&name)
                        .is_none_or(|t| t.elapsed() >= interval);
                    if due {
                        last_scrub.insert(name.clone(), Instant::now());
                        let _ = svc.scrub(&name);
                    }
                }
            }
            _ => {}
        }
    }
}

//! The per-graph health machine: four states, and every transition
//! between them as a method of [`HealthState`]. Pure bookkeeping — no
//! I/O, no clock reads (callers pass instants in) — so the whole
//! transition table is unit-tested below without a disk or a sleep, and
//! nothing outside this file can assign a status.

use std::time::Instant;

use graphstore::{Error, Result};

/// Bound on a graph's degradation-reason history: enough to show a causal
/// chain (first failure → scrub finding → failed repairs) without letting
/// a crash-looping graph grow it without limit.
const MAX_HEALTH_REASONS: usize = 8;

/// Bound on a graph's repair/promotion event log.
const MAX_REPAIR_LOG: usize = 16;

/// Serving state of one graph (see the module docs of
/// [`CoreService`](crate::CoreService), "Failure containment and
/// self-healing").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthStatus {
    /// Serving reads and writes.
    #[default]
    Healthy,
    /// Serving the last committed state read-only: a recoverable
    /// durability failure (a full disk) stopped the journal and
    /// checkpoint writers. Mutations are refused with
    /// [`graphstore::Error::ReadOnly`]; the supervisor probes for space
    /// and promotes the graph back automatically.
    ReadOnly,
    /// An online repair is rebuilding the graph from its durable state;
    /// operations are refused until it finishes.
    Repairing,
    /// Untrusted after an I/O failure, corruption or a panicked
    /// operation; every operation is refused with
    /// [`graphstore::Error::Quarantined`] until the repair supervisor (or
    /// an explicit [`CoreService::repair`](crate::CoreService::repair))
    /// brings the graph back, or
    /// [`CoreService::evict`](crate::CoreService::evict) clears the slot.
    Quarantined,
}

impl HealthStatus {
    /// Stable lowercase tag (`healthy`, `read-only`, `repairing`,
    /// `quarantined`) used by the wire protocol's `health` verb.
    pub fn tag(&self) -> &'static str {
        match self {
            HealthStatus::Healthy => "healthy",
            HealthStatus::ReadOnly => "read-only",
            HealthStatus::Repairing => "repairing",
            HealthStatus::Quarantined => "quarantined",
        }
    }
}

/// Point-in-time snapshot of one graph's health, as returned by
/// [`CoreService::health`](crate::CoreService::health) (and rendered by
/// the server's `health` verb).
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Current serving state.
    pub status: HealthStatus,
    /// Causal chain of degradation reasons, oldest first (bounded — see
    /// `dropped_reasons`).
    pub reasons: Vec<String>,
    /// Reasons the bound dropped from the middle of the chain.
    pub dropped_reasons: u64,
    /// Failed repair attempts since the graph was last healthy.
    pub repair_attempts: u32,
    /// True once the supervisor exhausted its retries; the graph stays
    /// quarantined until repaired manually or evicted.
    pub sticky: bool,
    /// Repair/promotion event log, oldest first (bounded).
    pub repair_log: Vec<String>,
}

/// What the supervisor needs to schedule a graph, read in one lock hold.
#[derive(Debug, Clone, Copy)]
pub(super) struct HealthBrief {
    pub(super) status: HealthStatus,
    pub(super) repair_attempts: u32,
    pub(super) sticky: bool,
    /// Supervisor backoff: no automatic repair before this instant.
    pub(super) next_attempt_at: Option<Instant>,
}

/// Mutable health record of one served graph. Lives behind its own mutex,
/// shared out of the registry slot, so a failing operation can update it
/// after the registry lock is gone.
#[derive(Debug, Default)]
pub(super) struct HealthState {
    status: HealthStatus,
    /// Causal chain of degradations, oldest first (bounded; see
    /// [`HealthState::push_reason`]).
    reasons: Vec<String>,
    dropped_reasons: u64,
    repair_attempts: u32,
    /// Set by the supervisor once its retries are spent; sticky graphs
    /// are left alone by the supervisor (a manual repair still works and
    /// clears the flag on success).
    sticky: bool,
    next_attempt_at: Option<Instant>,
    repair_log: Vec<String>,
}

impl HealthState {
    /// Append to the reason chain. Every distinct failure is kept — not
    /// just the first — bounded by dropping the *second* entry when full,
    /// so the root cause and the freshest failures both survive. An exact
    /// repeat of the newest reason (a retry loop hitting one failure) is
    /// recorded once.
    fn push_reason(&mut self, reason: &str) {
        if self.reasons.last().is_some_and(|last| last == reason) {
            return;
        }
        if self.reasons.len() >= MAX_HEALTH_REASONS {
            self.reasons.remove(1);
            self.dropped_reasons += 1;
        }
        self.reasons.push(reason.to_string());
    }

    fn push_log(&mut self, line: String) {
        if self.repair_log.len() >= MAX_REPAIR_LOG {
            self.repair_log.remove(0);
        }
        self.repair_log.push(line);
    }

    fn last_reason(&self) -> String {
        self.reasons
            .last()
            .cloned()
            .unwrap_or_else(|| "unrecorded failure".to_string())
    }

    pub(super) fn status(&self) -> HealthStatus {
        self.status
    }

    pub(super) fn brief(&self) -> HealthBrief {
        HealthBrief {
            status: self.status,
            repair_attempts: self.repair_attempts,
            sticky: self.sticky,
            next_attempt_at: self.next_attempt_at,
        }
    }

    pub(super) fn report(&self) -> HealthReport {
        HealthReport {
            status: self.status,
            reasons: self.reasons.clone(),
            dropped_reasons: self.dropped_reasons,
            repair_attempts: self.repair_attempts,
            sticky: self.sticky,
            repair_log: self.repair_log.clone(),
        }
    }

    /// The newest reason while quarantined, `None` in any serving state.
    pub(super) fn quarantine_reason(&self) -> Option<String> {
        (self.status == HealthStatus::Quarantined).then(|| self.last_reason())
    }

    /// Any state → `Quarantined`. Every reason is kept in the bounded
    /// chain — not just the first — so the `health` verb and the repair
    /// log can show the full causal history.
    pub(super) fn quarantine(&mut self, reason: &str) {
        self.push_reason(reason);
        self.status = HealthStatus::Quarantined;
    }

    /// `Healthy`/`ReadOnly` → `ReadOnly`. Never *downgrades* a quarantine
    /// or an in-flight repair: a full disk hit while a graph is already
    /// sealed must not re-admit queries against untrusted state (the
    /// reason is still recorded).
    pub(super) fn degrade_read_only(&mut self, reason: &str) {
        self.push_reason(reason);
        if self.status == HealthStatus::Healthy {
            self.status = HealthStatus::ReadOnly;
        }
    }

    /// Route an operation failure: disk-full degrades to read-only (a
    /// full disk damages nothing, it only stops writers), any other I/O
    /// failure or corruption quarantines (the in-memory state can no
    /// longer be trusted), and validation/range/timeout errors leave the
    /// graph untouched — they are the caller's fault, or a deadline
    /// expiring at a safe point.
    pub(super) fn record_failure(&mut self, e: &Error, what: &str) {
        if e.is_disk_full() {
            self.degrade_read_only(&format!("{what}: {e}"));
        } else if matches!(e, Error::Io(_) | Error::Corrupt { .. }) {
            self.quarantine(&format!("{what}: {e}"));
        }
    }

    /// Route a compaction failure: before the catalog commit point
    /// nothing has switched, so a full disk only degrades the graph to
    /// read-only (the old generation keeps serving, new-generation debris
    /// is swept by fsck); after the commit — or on any non-space failure
    /// — the artefacts may sit between states, so the graph is sealed and
    /// the committed manifest decides on re-open.
    pub(super) fn record_compact_failure(&mut self, e: &Error, committed: bool) {
        if !committed && e.is_disk_full() {
            self.degrade_read_only(&format!(
                "compaction ran out of disk space before its commit point: {e}"
            ));
        } else if matches!(e, Error::Io(_) | Error::Corrupt { .. }) {
            self.quarantine(&format!("compaction failed: {e}"));
        }
    }

    /// The admission gate: quarantined and under-repair graphs refuse
    /// everything; read-only graphs refuse mutating entry points
    /// (`write`) with the typed [`Error::ReadOnly`] but keep serving
    /// queries.
    pub(super) fn gate(&self, name: &str, write: bool) -> Result<()> {
        match self.status {
            HealthStatus::Healthy => Ok(()),
            HealthStatus::ReadOnly if !write => Ok(()),
            HealthStatus::ReadOnly => Err(Error::ReadOnly {
                graph: name.to_string(),
                reason: self.last_reason(),
            }),
            HealthStatus::Repairing => Err(Error::Quarantined {
                graph: name.to_string(),
                reason: "an online repair is rebuilding this graph".to_string(),
            }),
            HealthStatus::Quarantined => Err(Error::Quarantined {
                graph: name.to_string(),
                reason: self.last_reason(),
            }),
        }
    }

    /// `Quarantined` → `Repairing`, returning this episode's attempt
    /// number. Any other state is refused: there is nothing to repair, or
    /// a repair already owns the graph.
    pub(super) fn begin_repair(&mut self, name: &str) -> Result<u32> {
        match self.status {
            HealthStatus::Quarantined => {}
            HealthStatus::Repairing => {
                return Err(Error::InvalidArgument(format!(
                    "a repair of {name:?} is already in progress"
                )));
            }
            status => {
                return Err(Error::InvalidArgument(format!(
                    "graph {name:?} is {}; repair applies to quarantined graphs",
                    status.tag()
                )));
            }
        }
        self.status = HealthStatus::Repairing;
        let attempt = self.repair_attempts + 1;
        self.push_log(format!("repair attempt {attempt} started"));
        Ok(attempt)
    }

    /// Close the repair [`HealthState::begin_repair`] opened: success →
    /// `Healthy` with the episode's counters (and any sticky flag) reset,
    /// failure → back to `Quarantined` with the failure appended to the
    /// chain. The repairing thread owns the graph's lock for the whole
    /// rebuild, so its verdict overrides anything recorded meanwhile.
    pub(super) fn finish_repair(&mut self, attempt: u32, outcome: &Result<()>) {
        match outcome {
            Ok(()) => {
                self.status = HealthStatus::Healthy;
                self.repair_attempts = 0;
                self.sticky = false;
                self.next_attempt_at = None;
                self.push_log(format!(
                    "repair attempt {attempt} succeeded; graph re-admitted"
                ));
            }
            Err(e) => {
                self.status = HealthStatus::Quarantined;
                self.repair_attempts = attempt;
                self.push_reason(&format!("repair attempt {attempt} failed: {e}"));
                self.push_log(format!("repair attempt {attempt} failed: {e}"));
            }
        }
    }

    /// `ReadOnly` → `Healthy` after a successful space probe; any other
    /// state is left alone (`false`).
    pub(super) fn promote(&mut self) -> bool {
        let promoted = self.status == HealthStatus::ReadOnly;
        if promoted {
            self.status = HealthStatus::Healthy;
            self.push_log("disk space returned; promoted back to read-write".to_string());
        }
        promoted
    }

    /// Mark a quarantine sticky after the supervisor exhausted its
    /// retries, recording the escalation in the repair log.
    pub(super) fn escalate_sticky(&mut self) {
        if self.status == HealthStatus::Quarantined && !self.sticky {
            self.sticky = true;
            let attempts = self.repair_attempts;
            self.push_log(format!(
                "automatic repair gave up after {attempts} attempt(s); \
                 quarantine is sticky until repaired manually or evicted"
            ));
        }
    }

    /// Supervisor backoff: no automatic repair before `at`.
    pub(super) fn defer_repair(&mut self, at: Instant) {
        self.next_attempt_at = Some(at);
    }
}

#[cfg(test)]
mod tests {
    use super::HealthStatus::{Healthy, Quarantined, ReadOnly, Repairing};
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Event {
        Quarantine,
        DegradeReadOnly,
        BeginRepair,
        FinishRepairOk,
        FinishRepairErr,
        Promote,
        EscalateSticky,
        GateRead,
        GateWrite,
    }

    /// What an event must answer, beyond the target status.
    #[derive(Debug, PartialEq)]
    enum Verdict {
        Done,
        Refused,
        ErrReadOnly,
        ErrQuarantined,
    }

    /// A state record sitting in `status`, reached only through legal
    /// transitions.
    fn at(status: HealthStatus) -> HealthState {
        let mut h = HealthState::default();
        match status {
            Healthy => {}
            ReadOnly => h.degrade_read_only("disk full"),
            Quarantined => h.quarantine("boom"),
            Repairing => {
                h.quarantine("boom");
                h.begin_repair("g").unwrap();
            }
        }
        assert_eq!(h.status(), status);
        h
    }

    fn fire(h: &mut HealthState, event: Event) -> Verdict {
        let gate = |r: Result<()>| match r {
            Ok(()) => Verdict::Done,
            Err(e) if e.is_read_only() => Verdict::ErrReadOnly,
            Err(e) if e.is_quarantined() => Verdict::ErrQuarantined,
            Err(e) => panic!("untyped gate refusal: {e}"),
        };
        let io = || Error::Io(std::io::Error::other("still broken"));
        match event {
            Event::Quarantine => h.quarantine("io failure"),
            Event::DegradeReadOnly => h.degrade_read_only("disk full again"),
            Event::BeginRepair => {
                return match h.begin_repair("g") {
                    Ok(_) => Verdict::Done,
                    Err(Error::InvalidArgument(_)) => Verdict::Refused,
                    Err(e) => panic!("untyped repair refusal: {e}"),
                }
            }
            Event::FinishRepairOk => h.finish_repair(1, &Ok(())),
            Event::FinishRepairErr => h.finish_repair(1, &Err(io())),
            Event::Promote => {
                return if h.promote() {
                    Verdict::Done
                } else {
                    Verdict::Refused
                }
            }
            Event::EscalateSticky => h.escalate_sticky(),
            Event::GateRead => return gate(h.gate("g", false)),
            Event::GateWrite => return gate(h.gate("g", true)),
        }
        Verdict::Done
    }

    /// The whole machine: every (status × event) pair with its legal
    /// target status and typed answer.
    #[test]
    fn transition_table_is_total_and_legal() {
        use Event::*;
        use Verdict::*;
        let table = [
            // Failures: quarantine always seals; read-only never
            // downgrades a quarantine or an in-flight repair.
            (Healthy, Quarantine, Quarantined, Done),
            (ReadOnly, Quarantine, Quarantined, Done),
            (Repairing, Quarantine, Quarantined, Done),
            (Quarantined, Quarantine, Quarantined, Done),
            (Healthy, DegradeReadOnly, ReadOnly, Done),
            (ReadOnly, DegradeReadOnly, ReadOnly, Done),
            (Repairing, DegradeReadOnly, Repairing, Done),
            (Quarantined, DegradeReadOnly, Quarantined, Done),
            // Repair only from Quarantined; its owner's verdict lands.
            (Healthy, BeginRepair, Healthy, Refused),
            (ReadOnly, BeginRepair, ReadOnly, Refused),
            (Repairing, BeginRepair, Repairing, Refused),
            (Quarantined, BeginRepair, Repairing, Done),
            // (`finish_repair` is only reachable through `begin_repair`;
            // a quarantine recorded mid-rebuild is the `Quarantined` row.)
            (Healthy, FinishRepairOk, Healthy, Done),
            (ReadOnly, FinishRepairOk, Healthy, Done),
            (Repairing, FinishRepairOk, Healthy, Done),
            (Quarantined, FinishRepairOk, Healthy, Done),
            (Healthy, FinishRepairErr, Quarantined, Done),
            (ReadOnly, FinishRepairErr, Quarantined, Done),
            (Repairing, FinishRepairErr, Quarantined, Done),
            (Quarantined, FinishRepairErr, Quarantined, Done),
            // Promote only from ReadOnly.
            (Healthy, Promote, Healthy, Refused),
            (ReadOnly, Promote, Healthy, Done),
            (Repairing, Promote, Repairing, Refused),
            (Quarantined, Promote, Quarantined, Refused),
            // Sticky is a flag on a quarantine, never a status change.
            (Healthy, EscalateSticky, Healthy, Done),
            (ReadOnly, EscalateSticky, ReadOnly, Done),
            (Repairing, EscalateSticky, Repairing, Done),
            (Quarantined, EscalateSticky, Quarantined, Done),
            // The gate never moves the machine.
            (Healthy, GateRead, Healthy, Done),
            (Healthy, GateWrite, Healthy, Done),
            (ReadOnly, GateRead, ReadOnly, Done),
            (ReadOnly, GateWrite, ReadOnly, ErrReadOnly),
            (Repairing, GateRead, Repairing, ErrQuarantined),
            (Repairing, GateWrite, Repairing, ErrQuarantined),
            (Quarantined, GateRead, Quarantined, ErrQuarantined),
            (Quarantined, GateWrite, Quarantined, ErrQuarantined),
        ];
        for from in [Healthy, ReadOnly, Repairing, Quarantined] {
            for event in [
                Quarantine,
                DegradeReadOnly,
                BeginRepair,
                FinishRepairOk,
                FinishRepairErr,
                Promote,
                EscalateSticky,
                GateRead,
                GateWrite,
            ] {
                let rows = table.iter().filter(|r| (r.0, r.1) == (from, event));
                assert_eq!(rows.count(), 1, "{from:?} × {event:?} listed once");
            }
        }
        for (from, event, to, verdict) in table {
            let mut h = at(from);
            assert_eq!(fire(&mut h, event), verdict, "{from:?} × {event:?}");
            assert_eq!(h.status(), to, "{from:?} × {event:?}");
        }
    }

    #[test]
    fn sticky_only_marks_quarantines_and_a_successful_repair_clears_it() {
        for status in [Healthy, ReadOnly, Repairing] {
            let mut h = at(status);
            h.escalate_sticky();
            assert!(!h.brief().sticky, "{status:?} cannot go sticky");
        }
        let mut h = at(Quarantined);
        h.escalate_sticky();
        h.escalate_sticky();
        let gave_up = |h: &HealthState| {
            h.report()
                .repair_log
                .iter()
                .filter(|l| l.contains("gave up"))
                .count()
        };
        assert!(h.brief().sticky);
        assert_eq!(gave_up(&h), 1, "escalation is logged once");
        // A manual repair still works on a sticky graph and resets it.
        let attempt = h.begin_repair("g").unwrap();
        h.defer_repair(Instant::now());
        h.finish_repair(attempt, &Ok(()));
        let b = h.brief();
        assert_eq!((b.status, b.repair_attempts, b.sticky), (Healthy, 0, false));
        assert!(b.next_attempt_at.is_none());
    }

    #[test]
    fn failed_repairs_count_attempts_and_extend_the_reason_chain() {
        let mut h = at(Quarantined);
        for want in 1..=3u32 {
            let attempt = h.begin_repair("g").unwrap();
            assert_eq!(attempt, want);
            h.finish_repair(attempt, &Err(Error::corrupt("checkpoint unreadable")));
            assert_eq!(h.brief().repair_attempts, want);
        }
        let r = h.report();
        assert_eq!(r.reasons.len(), 4, "root cause + three failures: {r:?}");
        assert_eq!(h.quarantine_reason(), r.reasons.last().cloned());
        assert_eq!(at(ReadOnly).quarantine_reason(), None);
    }

    #[test]
    fn reason_history_is_bounded_with_the_root_cause_kept() {
        let mut h = HealthState::default();
        h.quarantine("root cause");
        h.quarantine("root cause"); // exact repeat of the newest: once
        assert_eq!(h.report().reasons.len(), 1);
        for i in 0..20 {
            h.quarantine(&format!("failure {i}"));
        }
        let r = h.report();
        assert_eq!(r.reasons.len(), MAX_HEALTH_REASONS);
        assert_eq!(r.reasons[0], "root cause");
        assert_eq!(r.reasons.last().unwrap(), "failure 19");
        assert_eq!(r.dropped_reasons, 21 - MAX_HEALTH_REASONS as u64);
        // The repair log is bounded too, oldest dropped first.
        for _ in 0..MAX_REPAIR_LOG {
            let attempt = h.begin_repair("g").unwrap();
            h.finish_repair(attempt, &Err(Error::corrupt("nope")));
        }
        assert_eq!(h.report().repair_log.len(), MAX_REPAIR_LOG);
    }

    #[test]
    fn failure_routing_is_by_error_class() {
        let enospc = || Error::Io(std::io::ErrorKind::StorageFull.into());
        let eio = || Error::Io(std::io::Error::other("eio"));
        let usage = || Error::InvalidArgument("edge already present".into());

        let mut h = HealthState::default();
        h.record_failure(&usage(), "maintenance failed");
        assert_eq!(h.status(), Healthy, "caller errors never degrade");
        h.record_failure(&enospc(), "maintenance failed");
        assert_eq!(h.status(), ReadOnly, "disk-full only stops writers");
        h.record_failure(&eio(), "maintenance failed");
        assert_eq!(h.status(), Quarantined);

        // Compaction: disk-full is read-only only before the commit.
        let mut h = HealthState::default();
        h.record_compact_failure(&enospc(), false);
        assert_eq!(h.status(), ReadOnly);
        let mut h = HealthState::default();
        h.record_compact_failure(&enospc(), true);
        assert_eq!(h.status(), Quarantined);
        let mut h = HealthState::default();
        h.record_compact_failure(&usage(), true);
        assert_eq!(h.status(), Healthy);
    }
}

//! Property tests for the per-tenant admission controller — the QoS layer
//! `CoreService` puts in front of the shared charge budget:
//!
//! * **accounting**: after every step of an adversarial request / claim /
//!   release / cancel / reweight schedule, `in_use_bytes` equals the sum
//!   of the distinct admitted tenants' charges, never exceeds the
//!   configured capacity, and drains to exactly zero;
//! * **typed shedding**: `Error::Overloaded` fires *only* when the
//!   request genuinely cannot be served — bigger than the whole budget,
//!   or the wait queue already at its bound — never as a spurious
//!   rejection of an admittable request;
//! * **weighted fairness**: a queued tenant is never starved — while a
//!   request of `B` bytes at weight `w_t` waits, each competing tenant at
//!   weight `w_o` is granted at most `B·w_o/w_t` bytes plus one request
//!   of slack (the weighted-fair-queueing bound), and the waiter is
//!   always granted eventually.
//!
//! Schedules are seeded [`Lcg`] streams via the in-repo proptest shim, so
//! every run is deterministic.

use graphstore::{AdmissionController, AdmissionPermit, PendingAdmission, QosConfig};
use proptest::prelude::*;
use testutil::Lcg;

const TENANTS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// Per-tenant charge for a schedule: fixed for the test case, like a
/// served graph's working-set charge is fixed for its lifetime.
fn charges(rng: &mut Lcg, capacity: u64) -> Vec<u64> {
    TENANTS
        .iter()
        .map(|_| {
            // Mostly admittable charges, occasionally one bigger than the
            // whole budget so the oversize shed path is exercised too.
            match rng.below(8) {
                0 => capacity + 1 + rng.below(64) as u64,
                _ => 1 + (rng.below(capacity.max(2) as u32 - 1)) as u64,
            }
        })
        .collect()
}

/// Claim every pending grant. Single-threaded schedules run `grant_pass`
/// only inside request/release/cancel, so after one sweep every granted
/// ticket holds a permit and `in_use_bytes` is fully explained by them.
fn sweep(pending: &mut Vec<(usize, PendingAdmission)>, held: &mut Vec<(usize, AdmissionPermit)>) {
    let mut i = 0;
    while i < pending.len() {
        if let Some(permit) = pending[i].1.try_permit() {
            let (tenant, _) = pending.remove(i);
            held.push((tenant, permit));
        } else {
            i += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Accounting + typed shedding over an adversarial schedule.
    #[test]
    fn budget_accounting_is_exact_and_sheds_are_genuine(seed in any::<u64>()) {
        let mut rng = Lcg::new(seed);
        let capacity = 64 + rng.below(960) as u64;
        let max_waiters = 1 + rng.below(6) as usize;
        let ctl = AdmissionController::new(QosConfig {
            capacity_bytes: capacity,
            max_waiters,
        });
        let charge = charges(&mut rng, capacity);
        for name in TENANTS {
            let w = 1 + rng.below(8);
            ctl.set_weight(name, w);
        }

        let mut pending: Vec<(usize, PendingAdmission)> = Vec::new();
        let mut held: Vec<(usize, AdmissionPermit)> = Vec::new();
        for _step in 0..200 {
            match rng.below(10) {
                // Request admission for a random tenant.
                0..=4 => {
                    let t = rng.below(TENANTS.len() as u32) as usize;
                    let queue_before = ctl.queue_len();
                    match ctl.request(TENANTS[t], charge[t]) {
                        Ok(p) => pending.push((t, p)),
                        Err(e) => {
                            // A shed must be genuine: the request is
                            // bigger than the whole budget, or the queue
                            // was already at its configured bound.
                            prop_assert!(e.is_overloaded(), "wrong error: {e}");
                            prop_assert!(
                                charge[t] > capacity || queue_before >= max_waiters,
                                "spurious shed: {} B of {} B capacity, {} of {} waiters",
                                charge[t], capacity, queue_before, max_waiters
                            );
                        }
                    }
                }
                // Release a held permit.
                5 | 6 => {
                    if !held.is_empty() {
                        let i = rng.below(held.len() as u32) as usize;
                        held.swap_remove(i);
                    }
                }
                // Abandon a still-queued request.
                7 => {
                    if !pending.is_empty() {
                        let i = rng.below(pending.len() as u32) as usize;
                        pending.swap_remove(i);
                    }
                }
                // Reweight a tenant mid-stream.
                _ => {
                    let t = rng.below(TENANTS.len() as u32) as usize;
                    ctl.set_weight(TENANTS[t], 1 + rng.below(8));
                }
            }
            sweep(&mut pending, &mut held);

            // In-use is exactly the distinct admitted tenants' charges —
            // same-tenant admissions piggyback, never double-charge.
            let mut admitted: Vec<usize> = held.iter().map(|(t, _)| *t).collect();
            admitted.sort_unstable();
            admitted.dedup();
            let expect: u64 = admitted.iter().map(|&t| charge[t]).sum();
            prop_assert_eq!(ctl.in_use_bytes(), expect, "seed {}", seed);
            prop_assert!(
                ctl.in_use_bytes() <= capacity,
                "budget exceeded: {} > {}",
                ctl.in_use_bytes(), capacity
            );
            prop_assert!(ctl.queue_len() <= max_waiters);
        }

        // Drain: release everything; every queued admittable request must
        // be granted (nothing is lost in the queue) and the budget must
        // come back to exactly zero.
        while !held.is_empty() || !pending.is_empty() {
            let before = held.len() + pending.len();
            held.pop();
            sweep(&mut pending, &mut held);
            prop_assert!(
                held.len() + pending.len() < before,
                "queue failed to drain: {} held, {} pending",
                held.len(), pending.len()
            );
        }
        prop_assert_eq!(ctl.in_use_bytes(), 0);
        prop_assert_eq!(ctl.queue_len(), 0);
        prop_assert_eq!(ctl.queued_demand_bytes(), 0);
    }

    /// The WFQ no-starvation bound: while one big request waits, the
    /// competing tenants' granted bytes stay inside `B·w_o/w_t` plus one
    /// request of slack each, and the waiter is granted in the end.
    #[test]
    fn queued_tenant_is_never_starved_beyond_the_wfq_bound(seed in any::<u64>()) {
        let mut rng = Lcg::new(seed);
        let capacity = 1000u64;
        let w_fast = 1 + rng.below(8);
        let w_slow = 1 + rng.below(8);
        let slow_bytes = 600 + rng.below(300) as u64; // 600..900, admittable
        let fast_bytes = 300u64; // two can hold 600 ≤ capacity together

        let ctl = AdmissionController::new(QosConfig {
            capacity_bytes: capacity,
            max_waiters: 8,
        });
        for fast in ["fast-a", "fast-b"] {
            ctl.set_weight(fast, w_fast);
        }
        ctl.set_weight("slow", w_slow);

        // Both fast tenants admitted; the big request has to queue.
        let mut fast_permits = [
            Some(ctl.admit("fast-a", fast_bytes).unwrap()),
            Some(ctl.admit("fast-b", fast_bytes).unwrap()),
        ];
        let mut slow = ctl.request("slow", slow_bytes).unwrap();
        prop_assert!(slow.try_permit().is_none(), "must queue: budget is full");

        // Fast tenants churn: release, then immediately re-request. Count
        // every byte they are granted while the big request waits.
        let mut fast_pending: Vec<(usize, PendingAdmission)> = Vec::new();
        let mut granted_while_waiting = 0u64;
        let mut slow_permit = None;
        for round in 0..10_000 {
            let i = rng.below(2) as usize;
            fast_permits[i] = None; // release → grant_pass runs
            if let Some(p) = slow.try_permit() {
                slow_permit = Some(p);
                break;
            }
            let name = ["fast-a", "fast-b"][i];
            match ctl.request(name, fast_bytes) {
                Ok(p) => fast_pending.push((i, p)),
                Err(e) => prop_assert!(e.is_overloaded(), "round {round}: {e}"),
            }
            let mut claimed: Vec<(usize, AdmissionPermit)> = Vec::new();
            sweep(&mut fast_pending, &mut claimed);
            for (i, p) in claimed {
                granted_while_waiting += fast_bytes;
                fast_permits[i] = Some(p);
            }
            if let Some(p) = slow.try_permit() {
                slow_permit = Some(p);
                break;
            }
        }
        prop_assert!(slow_permit.is_some(), "starved: the queued request never ran");

        // Per competing tenant the WFQ bound is B·w_o/w_t + one request of
        // slack; two tenants compete, so double it.
        let bound = 2 * (slow_bytes * w_fast as u64 / w_slow as u64 + fast_bytes);
        prop_assert!(
            granted_while_waiting <= bound,
            "fast tenants got {granted_while_waiting} B past the waiter \
             (bound {bound}, weights fast {w_fast} / slow {w_slow})"
        );
    }
}

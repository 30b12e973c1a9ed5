//! Core maintenance under the semi-external model (§V).
//!
//! Edge deletions and insertions update the maintained
//! [`CoreState`](crate::state::CoreState) incrementally instead of
//! recomputing the decomposition from scratch:
//!
//! * [`delete::semi_delete_star`] — Algorithm 6 (SemiDelete*): after a
//!   deletion every old core number is still an upper bound (Theorem 3.1),
//!   so the SemiCore* convergence loop finishes the job.
//! * [`insert::semi_insert`] — Algorithm 7 (SemiInsert): two phases — lift
//!   the reachable `core = cold` candidate set by one (Theorem 3.2), then
//!   converge downward with Algorithm 5.
//! * [`insert_star::semi_insert_star`] — Algorithm 8 (SemiInsert*): one
//!   phase driven by the `cnt*` recurrence (Eq. 4) and the
//!   φ / ? / √ / × status machine, touching far fewer nodes.
//! * [`inmem`] — the in-memory maintenance baseline (IMInsert / IMDelete).
//! * [`engine`] — the typed [`MaintainOp`](engine::MaintainOp) value and
//!   the [`MaintenanceEngine`](engine::MaintenanceEngine) that owns
//!   dispatch; the functions above are its workers, and the
//!   journaling/replay/batching layers speak only in ops.

pub mod delete;
pub mod engine;
pub mod inmem;
pub mod insert;
pub mod insert_star;

use std::time::Duration;

use graphstore::IoSnapshot;

/// Measurements from one maintenance operation.
#[derive(Debug, Clone, Default)]
pub struct MaintainStats {
    /// Algorithm name ("SemiDelete*", "SemiInsert", "SemiInsert*", …).
    pub algorithm: &'static str,
    /// Convergence iterations executed.
    pub iterations: u64,
    /// Adjacency-list computations performed.
    pub node_computations: u64,
    /// Candidate nodes visited by the insertion expansion (|Vc| for
    /// SemiInsert, promoted-set size for SemiInsert*); 0 for deletions.
    pub candidates: u64,
    /// I/O performed by the operation.
    pub io: IoSnapshot,
    /// Wall-clock duration.
    pub wall_time: Duration,
}

impl MaintainStats {
    pub(crate) fn new(algorithm: &'static str) -> Self {
        MaintainStats {
            algorithm,
            ..Default::default()
        }
    }

    /// Total I/Os (read + write).
    pub fn total_ios(&self) -> u64 {
        self.io.total_ios()
    }
}

/// Epoch-stamped sparse node flags: O(1) set/test/clear-all without paying
/// an O(n) reset per maintenance operation.
///
/// Algorithms 7 and 8 pseudocode initialise `active(w)` / `status(w)` for
/// *all* nodes per update; doing that literally would make every single-edge
/// update Ω(n). The stamp trick preserves the semantics at O(1) per touched
/// node, which is what makes sub-millisecond updates possible.
#[derive(Debug)]
pub struct SparseMarks {
    stamp: Vec<u32>,
    value: Vec<u8>,
    epoch: u32,
}

impl SparseMarks {
    /// Fresh flag storage for a graph of `n` nodes.
    pub fn new(n: u32) -> Self {
        SparseMarks {
            stamp: vec![0; n as usize],
            value: vec![0; n as usize],
            epoch: 1,
        }
    }

    /// Reset all marks to the default value (O(1)).
    pub fn clear_all(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: physically reset the stamps once every 2^32 clears.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Current mark of `v` (0 when untouched this epoch).
    #[inline]
    pub fn get(&self, v: u32) -> u8 {
        if self.stamp[v as usize] == self.epoch {
            self.value[v as usize]
        } else {
            0
        }
    }

    /// Set the mark of `v`.
    #[inline]
    pub fn set(&mut self, v: u32, mark: u8) {
        self.stamp[v as usize] = self.epoch;
        self.value[v as usize] = mark;
    }

    /// Bytes resident (5 bytes per node).
    pub fn resident_bytes(&self) -> u64 {
        (self.stamp.len() * 4 + self.value.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_marks_default_to_zero() {
        let m = SparseMarks::new(4);
        assert_eq!(m.get(0), 0);
        assert_eq!(m.get(3), 0);
    }

    #[test]
    fn sparse_marks_set_get_and_clear() {
        let mut m = SparseMarks::new(4);
        m.set(1, 3);
        m.set(2, 1);
        assert_eq!(m.get(1), 3);
        assert_eq!(m.get(2), 1);
        m.clear_all();
        assert_eq!(m.get(1), 0);
        assert_eq!(m.get(2), 0);
        m.set(1, 2);
        assert_eq!(m.get(1), 2);
    }

    #[test]
    fn sparse_marks_survive_many_epochs() {
        let mut m = SparseMarks::new(2);
        for i in 0..1000u32 {
            m.clear_all();
            assert_eq!(m.get(0), 0);
            m.set(0, (i % 3) as u8 + 1);
            assert_eq!(m.get(0), (i % 3) as u8 + 1);
        }
        assert_eq!(m.resident_bytes(), 10);
    }
}

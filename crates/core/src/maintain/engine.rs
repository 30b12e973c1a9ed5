//! The typed maintenance operation and its dispatch engine.
//!
//! §V gives three maintenance entry points (SemiInsert, SemiInsert\*,
//! SemiDelete\*) as free functions. A serving system needs one more level
//! of structure above them: a *value* representing "what happened to the
//! graph" that can be validated once, appended to a write-ahead journal,
//! sent over a wire, replayed after a crash, and batched — and one place
//! that owns which algorithm implements it. [`MaintainOp`] is that value
//! and [`MaintenanceEngine`] that place; the §V functions are its workers.
//!
//! The engine also owns the reusable [`SparseMarks`] flag storage the
//! insertion algorithms need, so callers no longer thread it through every
//! call site.

use graphstore::{DynamicGraph, Error, Result};

use crate::state::CoreState;

use super::delete::semi_delete_star;
use super::insert_star::semi_insert_star;
use super::{MaintainStats, SparseMarks};

/// One graph maintenance operation, as journaled and replayed.
///
/// The wire encoding ([`MaintainOp::encode`] / [`MaintainOp::decode`]) is
/// a stable 9-byte record: a tag byte (1 = insert, 2 = delete) followed by
/// the two endpoints as little-endian `u32` — the payload format of the
/// maintenance WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintainOp {
    /// Insert the (absent) undirected edge `(u, v)`.
    Insert(u32, u32),
    /// Delete the (present) undirected edge `(u, v)`.
    Delete(u32, u32),
}

/// Byte length of an encoded [`MaintainOp`].
pub const MAINTAIN_OP_LEN: usize = 9;

const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;

impl MaintainOp {
    /// The operation's endpoints, in the order given.
    pub fn endpoints(&self) -> (u32, u32) {
        match *self {
            MaintainOp::Insert(u, v) | MaintainOp::Delete(u, v) => (u, v),
        }
    }

    /// True for insertions.
    pub fn is_insert(&self) -> bool {
        matches!(self, MaintainOp::Insert(_, _))
    }

    /// Encode into the stable 9-byte wire format.
    pub fn encode(&self) -> [u8; MAINTAIN_OP_LEN] {
        let (tag, (u, v)) = match *self {
            MaintainOp::Insert(u, v) => (TAG_INSERT, (u, v)),
            MaintainOp::Delete(u, v) => (TAG_DELETE, (u, v)),
        };
        let mut out = [0u8; MAINTAIN_OP_LEN];
        out[0] = tag;
        out[1..5].copy_from_slice(&u.to_le_bytes());
        out[5..9].copy_from_slice(&v.to_le_bytes());
        out
    }

    /// Decode the 9-byte wire format; anything else is a corruption error
    /// (journal records are checksummed, so a mismatch here means the
    /// writer and reader disagree, not bitrot).
    pub fn decode(bytes: &[u8]) -> Result<MaintainOp> {
        if bytes.len() != MAINTAIN_OP_LEN {
            return Err(Error::corrupt(format!(
                "maintenance op record of {} bytes (expected {MAINTAIN_OP_LEN})",
                bytes.len()
            )));
        }
        let u = u32::from_le_bytes(bytes[1..5].try_into().expect("length checked"));
        let v = u32::from_le_bytes(bytes[5..9].try_into().expect("length checked"));
        match bytes[0] {
            TAG_INSERT => Ok(MaintainOp::Insert(u, v)),
            TAG_DELETE => Ok(MaintainOp::Delete(u, v)),
            other => Err(Error::corrupt(format!(
                "unknown maintenance op tag {other}"
            ))),
        }
    }
}

/// Owns maintenance dispatch for one graph: insertions run SemiInsert\*
/// (Algorithm 8), deletions SemiDelete\* (Algorithm 6), and the engine
/// holds the reusable scratch state they need.
///
/// ```
/// use graphstore::{DynGraph, MemGraph};
/// use semicore::{semicore_star_state, DecomposeOptions, MaintainOp, MaintenanceEngine};
///
/// let g = MemGraph::from_edges([(0, 1), (1, 2), (0, 2)], 4);
/// let mut dynamic = DynGraph::from_mem(&g);
/// let (mut state, _) = semicore_star_state(&mut dynamic, &DecomposeOptions::default()).unwrap();
/// let mut engine = MaintenanceEngine::new(4);
/// engine.apply(&mut dynamic, &mut state, MaintainOp::Insert(2, 3)).unwrap();
/// engine.apply(&mut dynamic, &mut state, MaintainOp::Delete(0, 1)).unwrap();
/// assert_eq!(state.core, vec![1, 1, 1, 1]); // the triangle is broken
/// ```
#[derive(Debug)]
pub struct MaintenanceEngine {
    marks: SparseMarks,
}

impl MaintenanceEngine {
    /// An engine for a graph of `n` nodes.
    pub fn new(n: u32) -> MaintenanceEngine {
        MaintenanceEngine {
            marks: SparseMarks::new(n),
        }
    }

    /// Bytes of reusable scratch state held (the [`SparseMarks`] flags) —
    /// part of the semi-external memory footprint.
    pub fn resident_bytes(&self) -> u64 {
        self.marks.resident_bytes()
    }

    /// Apply one operation to `g`, maintaining `state` incrementally.
    ///
    /// Preconditions are those of the underlying §V algorithms: `state`
    /// must hold the exact decomposition (with the Eq. 2 invariant) of the
    /// graph before the op, the inserted edge must be absent and the
    /// deleted edge present. Callers feeding raw input validate first (as
    /// `CoreService` does); the journal replay path is exempt because it
    /// re-applies ops that were validated when first journaled.
    pub fn apply(
        &mut self,
        g: &mut impl DynamicGraph,
        state: &mut CoreState,
        op: MaintainOp,
    ) -> Result<MaintainStats> {
        match op {
            MaintainOp::Insert(u, v) => semi_insert_star(g, state, &mut self.marks, u, v),
            MaintainOp::Delete(u, v) => semi_delete_star(g, state, u, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imcore::imcore;
    use crate::semicore_star::semicore_star_state;
    use crate::stats::DecomposeOptions;
    use graphstore::{DynGraph, MemGraph};

    #[test]
    fn op_encoding_round_trips() {
        for op in [
            MaintainOp::Insert(0, 1),
            MaintainOp::Delete(7, 3),
            MaintainOp::Insert(u32::MAX, 0),
        ] {
            let bytes = op.encode();
            assert_eq!(MaintainOp::decode(&bytes).unwrap(), op);
        }
    }

    #[test]
    fn op_decode_rejects_garbage() {
        assert!(MaintainOp::decode(&[]).unwrap_err().is_corrupt());
        assert!(MaintainOp::decode(&[1u8; 8]).unwrap_err().is_corrupt());
        assert!(MaintainOp::decode(&[9u8; 9]).unwrap_err().is_corrupt());
        let mut ok = MaintainOp::Insert(1, 2).encode();
        ok[0] = 0;
        assert!(MaintainOp::decode(&ok).unwrap_err().is_corrupt());
    }

    #[test]
    fn op_accessors() {
        let i = MaintainOp::Insert(3, 5);
        let d = MaintainOp::Delete(5, 3);
        assert!(i.is_insert() && !d.is_insert());
        assert_eq!(i.endpoints(), (3, 5));
        assert_eq!(d.endpoints(), (5, 3));
    }

    fn decomposed(g: &MemGraph) -> (DynGraph, CoreState) {
        let mut dynamic = DynGraph::from_mem(g);
        let (state, _) = semicore_star_state(&mut dynamic, &DecomposeOptions::default()).unwrap();
        (dynamic, state)
    }

    #[test]
    fn engine_dispatch_matches_direct_worker_calls() {
        let mut rng = testutil::Lcg::new(99);
        let g = testutil::random_mem_graph(&mut rng, 4, 50, 3);
        let n = g.num_nodes();
        let (mut dynamic, mut state) = decomposed(&g);
        let mut engine = MaintenanceEngine::new(n);
        for _ in 0..25 {
            let (a, b) = (rng.below(n), rng.below(n));
            if a == b {
                continue;
            }
            let op = if dynamic.has_edge(a, b) {
                MaintainOp::Delete(a, b)
            } else {
                MaintainOp::Insert(a, b)
            };
            engine.apply(&mut dynamic, &mut state, op).unwrap();
            let oracle = imcore(&dynamic.to_mem());
            assert_eq!(state.core, oracle.core);
        }
        assert_eq!(state.check_cnt_invariant(&mut dynamic).unwrap(), None);
    }
}

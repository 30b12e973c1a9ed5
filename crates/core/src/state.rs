//! Maintained per-node state: core numbers plus the `cnt` counters.

use graphstore::{AdjacencyRead, Result};

use crate::localcore::compute_cnt;

/// The semi-external node state maintained by SemiCore* and consumed /
/// updated in place by the maintenance algorithms (§V).
///
/// Invariant between operations (Eq. 2):
/// `cnt[v] == |{u ∈ nbr(v) | core[u] ≥ core[v]}|` and `core` is the exact
/// core decomposition of the current graph. `cnt` is stored signed because
/// the algorithms decrement neighbours' counters before those neighbours are
/// first recomputed (transiently negative during iteration 1 of Algorithm 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreState {
    /// Core number (or in-flight estimate) per node.
    pub core: Vec<u32>,
    /// Eq. 2 counter per node.
    pub cnt: Vec<i32>,
}

impl CoreState {
    /// State with `core = deg` and `cnt = 0` — the starting point of
    /// Algorithm 5.
    pub fn initial(degrees: Vec<u32>) -> CoreState {
        let n = degrees.len();
        CoreState {
            core: degrees,
            cnt: vec![0; n],
        }
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> u32 {
        self.core.len() as u32
    }

    /// The degeneracy `kmax`.
    pub fn kmax(&self) -> u32 {
        self.core.iter().copied().max().unwrap_or(0)
    }

    /// Bytes of memory this state occupies — the semi-external footprint
    /// reported for SemiCore* in Fig. 9(c)/(d).
    pub fn resident_bytes(&self) -> u64 {
        (self.core.len() * 4 + self.cnt.len() * 4) as u64
    }

    /// Check the Eq. 2 invariant, returning the first violating node.
    pub fn check_cnt_invariant(&self, g: &mut impl AdjacencyRead) -> Result<Option<u32>> {
        let mut nbrs = Vec::new();
        for v in 0..self.num_nodes() {
            g.adjacency(v, &mut nbrs)?;
            let want = compute_cnt(self.core[v as usize], &self.core, &nbrs) as i32;
            if self.cnt[v as usize] != want {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_example_graph, PAPER_EXAMPLE_CORES};

    #[test]
    fn initial_state_shape() {
        let s = CoreState::initial(vec![3, 1, 0]);
        assert_eq!(s.num_nodes(), 3);
        assert_eq!(s.kmax(), 3);
        assert_eq!(s.cnt, vec![0, 0, 0]);
        assert_eq!(s.resident_bytes(), 24);
    }

    #[test]
    fn cnt_invariant_check_finds_a_stale_counter() {
        let mut g = paper_example_graph();
        let mut s = CoreState {
            core: PAPER_EXAMPLE_CORES.to_vec(),
            cnt: vec![0; 9],
        };
        assert_eq!(s.check_cnt_invariant(&mut g).unwrap(), Some(0));
        // v8 (core 1) has one neighbour v5 (core 2), so cnt[8] = 1; v5
        // (core 2) counts v3, v4, v6, v7 at core >= 2, so cnt[5] = 4.
        s.cnt = vec![3, 3, 3, 3, 3, 4, 3, 2, 1];
        assert_eq!(s.check_cnt_invariant(&mut g).unwrap(), None);
    }
}

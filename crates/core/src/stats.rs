//! Run statistics: the measurements the paper reports for every algorithm.

use std::time::Duration;

use graphstore::IoSnapshot;

/// Instrumentation captured by one algorithm execution.
///
/// These are exactly the quantities plotted in the paper's evaluation:
/// wall-clock time (Fig. 9a/b, 10a/b), I/Os (Fig. 9e/f, 10c/d), memory
/// (Fig. 9c/d), plus the internal counters used in its analysis sections
/// (iterations — §IV-A Discussion; node computations — Examples 4.1–4.3).
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Algorithm name as used in the paper ("SemiCore*", "EMCore", …).
    pub algorithm: &'static str,
    /// Number of convergence iterations (rounds for EMCore).
    pub iterations: u64,
    /// Number of `LocalCore`-style node computations performed.
    pub node_computations: u64,
    /// I/O performed during the run (block reads/writes).
    pub io: IoSnapshot,
    /// Peak bytes of in-memory state held by the algorithm (excluding the
    /// O(1) scan buffers). For the semi-external algorithms this is the
    /// `O(n)` node-state footprint; for EMCore/IMCore it includes loaded
    /// edges.
    pub peak_memory_bytes: u64,
    /// Wall-clock duration of the run.
    pub wall_time: Duration,
    /// Per-iteration count of nodes whose core estimate changed
    /// (populated when requested; the series behind Fig. 3).
    pub changed_per_iteration: Option<Vec<u64>>,
}

impl RunStats {
    /// New stats block for `algorithm`.
    pub fn new(algorithm: &'static str) -> Self {
        RunStats {
            algorithm,
            ..Default::default()
        }
    }

    /// Total I/Os (read + write).
    pub fn total_ios(&self) -> u64 {
        self.io.total_ios()
    }
}

/// Result of a full core decomposition.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// `core[v]` is the core number of node `v`.
    pub core: Vec<u32>,
    /// Execution measurements.
    pub stats: RunStats,
}

impl Decomposition {
    /// The degeneracy `kmax = max_v core(v)` (0 for the empty graph).
    pub fn kmax(&self) -> u32 {
        self.core.iter().copied().max().unwrap_or(0)
    }

    /// Number of nodes contained in the k-core (`core(v) ≥ k`).
    pub fn kcore_size(&self, k: u32) -> usize {
        self.core.iter().filter(|&&c| c >= k).count()
    }

    /// The node set of the k-core, per Lemma 2.1 (`G_k = G(V_k)` with
    /// `V_k = {v | core(v) ≥ k}`).
    pub fn kcore_nodes(&self, k: u32) -> Vec<u32> {
        (0..self.core.len() as u32)
            .filter(|&v| self.core[v as usize] >= k)
            .collect()
    }
}

/// Options shared by the decomposition algorithms.
#[derive(Debug, Clone, Default)]
pub struct DecomposeOptions {
    /// Record the number of changed nodes per iteration (Fig. 3).
    pub track_changed_per_iteration: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmax_and_kcore_queries() {
        let d = Decomposition {
            core: vec![3, 3, 3, 3, 2, 2, 2, 2, 1],
            stats: RunStats::new("test"),
        };
        assert_eq!(d.kmax(), 3);
        assert_eq!(d.kcore_size(3), 4);
        assert_eq!(d.kcore_size(2), 8);
        assert_eq!(d.kcore_size(1), 9);
        assert_eq!(d.kcore_nodes(3), vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_decomposition() {
        let d = Decomposition {
            core: vec![],
            stats: RunStats::new("test"),
        };
        assert_eq!(d.kmax(), 0);
        assert_eq!(d.kcore_size(1), 0);
    }
}

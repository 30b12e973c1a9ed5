//! The paper's evaluation protocols (§VI, Figs. 3 and 9–12), written once.
//!
//! `tests/paper_claims.rs` (root package) asserts on what these functions
//! return, and the `fig3`/`fig9`/`fig10`/`fig11`/`fig12` printers print it:
//! the same tables, charged in the same blocks, run through the same
//! algorithms on the same samples and victims. Nothing here checks a
//! result; the claims test certifies and orders them.

use std::path::Path;
use std::time::Duration;

use graphgen::{dataset_by_name, sample_edges, sample_nodes, DatasetSpec};
use graphstore::{mem_to_disk, BufferedGraph, DiskGraph, IoCounter, MemGraph, Result};
use rand::rngs::SmallRng;
use rand::{seq::SliceRandom, SeedableRng};
use semicore::{
    semi_delete_star, semi_insert, semi_insert_star, semicore_star_state, DecomposeOptions,
    Decomposition, EmCoreOptions, InMemoryCores, MaintainStats, SparseMarks,
};

/// The block size every table is charged in. At the default 4 KiB the
/// compressed small-group stand-ins span too few blocks for the trio's
/// read counts to differ (DBLP's tie); at 1 KiB each table spans four
/// times as many, and every scan still reads whole blocks.
pub const BLOCK_SIZE: usize = 1024;

/// The two graphs of Figs. 3, 11 and 12.
pub const SCALABILITY_PAIR: [&str; 2] = ["Twitter", "UK"];

/// EMCore's budget as a fraction of the raw adjacency it partitions (`8·m`
/// bytes: both directions of every edge as `u32`s, whatever the edge
/// table's encoding) — the regime the paper evaluates — and its partitions
/// as a fraction of that budget.
pub const EMCORE_BUDGET_DIVISOR: u64 = 4;
const EMCORE_PARTITIONS_PER_BUDGET: u64 = 4;

/// Write `g` as a table at `base`, charged in [`BLOCK_SIZE`] blocks.
pub fn write_table(g: &MemGraph, base: &Path) -> Result<DiskGraph> {
    mem_to_disk(base, g, IoCounter::new(BLOCK_SIZE))
}

/// A cold, uncached handle with its own counter: what the paper's `M = O(n)`
/// model charges, and nothing one algorithm's run can leave for the next.
pub fn open(base: &Path) -> Result<DiskGraph> {
    DiskGraph::open(base, IoCounter::new(BLOCK_SIZE))
}

/// SemiCore\*, SemiCore+ and SemiCore over the table at `base`, in that
/// order, each on its own cold handle.
pub fn trio(base: &Path) -> Result<[Decomposition; 3]> {
    let opts = DecomposeOptions::default();
    Ok([
        semicore::semicore_star(&mut open(base)?, &opts)?,
        semicore::semicore_plus(&mut open(base)?, &opts)?,
        semicore::semicore(&mut open(base)?, &opts)?,
    ])
}

/// Fig. 3: SemiCore over the table at `base`, counting the nodes each
/// iteration changes.
pub fn changed_per_iteration(base: &Path) -> Result<Decomposition> {
    let opts = DecomposeOptions {
        track_changed_per_iteration: true,
    };
    semicore::semicore(&mut open(base)?, &opts)
}

/// EMCore's budget for a graph of `num_edges` edges: a
/// [`EMCORE_BUDGET_DIVISOR`]th of its raw adjacency. (A constant budget
/// holds a small stand-in whole and turns its run into an in-memory one.)
pub fn emcore_budget(num_edges: u64) -> u64 {
    8 * num_edges / EMCORE_BUDGET_DIVISOR
}

/// EMCore over the table at `base` with `memory_budget` bytes, in
/// partitions of a quarter of [`emcore_budget`] whatever the budget.
pub fn emcore(base: &Path, memory_budget: u64) -> Result<Decomposition> {
    let mut disk = open(base)?;
    let opts = EmCoreOptions {
        partition_bytes: emcore_budget(disk.num_edges()) / EMCORE_PARTITIONS_PER_BUDGET,
        memory_budget,
    };
    semicore::emcore(&mut disk, &opts)
}

/// `count` distinct edges of `g`, drawn with `seed`.
fn victims(g: &MemGraph, seed: u64, count: usize) -> Vec<(u32, u32)> {
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    edges.shuffle(&mut SmallRng::seed_from_u64(seed));
    edges.truncate(count);
    edges
}

/// Fig. 10's victims: the paper's 100 edges, seeded per stand-in.
pub fn fig10_victims(spec: &DatasetSpec, g: &MemGraph) -> Vec<(u32, u32)> {
    victims(g, 0xF1610 + spec.seed, 100)
}

/// Fig. 12's victims: 30 edges of every sample.
pub fn fig12_victims(g: &MemGraph) -> Vec<(u32, u32)> {
    victims(g, 0xF1612, 30)
}

/// The cost of one maintenance phase, summed over its updates.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseCost {
    /// Wall-clock time.
    pub time: Duration,
    /// Charged read I/Os.
    pub reads: u64,
    /// Node computations.
    pub computations: u64,
}

impl PhaseCost {
    fn add(&mut self, st: &MaintainStats) {
        self.time += st.wall_time;
        self.reads += st.io.read_ios;
        self.computations += st.node_computations;
    }

    /// The clock-free part, `[reads, computations]`.
    pub fn counters(&self) -> [u64; 2] {
        [self.reads, self.computations]
    }

    /// The average over `updates` updates (at least one).
    pub fn per_update(self, updates: usize) -> PhaseCost {
        let n = updates.max(1) as u64;
        PhaseCost {
            time: self.time / n as u32,
            reads: self.reads / n,
            computations: self.computations / n,
        }
    }
}

/// The paper's Figs. 10/12 protocol on `g`, run twice, each time on a
/// fresh table (at `base` suffixed `-2`, then `-1`): remove the victims one
/// by one with SemiDelete\*, then put them back with SemiInsert, and in
/// the second run with SemiInsert\*. `check(reinserted, core)` sees the
/// maintained core numbers after each phase: first without the victims,
/// then with them back. Returns `[delete, insert]` of each run, in that
/// order.
pub fn delete_then_reinsert(
    g: &MemGraph,
    base: &Path,
    victims: &[(u32, u32)],
    mut check: impl FnMut(bool, &[u32]),
) -> Result<[[PhaseCost; 2]; 2]> {
    let mut run = |one_phase: bool| -> Result<[PhaseCost; 2]> {
        let mut table = base.as_os_str().to_owned();
        table.push(if one_phase { "-1" } else { "-2" });
        let mut graph = BufferedGraph::with_default_capacity(write_table(g, table.as_ref())?);
        let (mut state, _) = semicore_star_state(&mut graph, &DecomposeOptions::default())?;
        let mut marks = SparseMarks::new(g.num_nodes());
        let mut delete = PhaseCost::default();
        for &(u, v) in victims {
            delete.add(&semi_delete_star(&mut graph, &mut state, u, v)?);
        }
        check(false, &state.core);
        let mut insert = PhaseCost::default();
        for &(u, v) in victims {
            insert.add(&if one_phase {
                semi_insert_star(&mut graph, &mut state, &mut marks, u, v)?
            } else {
                semi_insert(&mut graph, &mut state, &mut marks, u, v)?
            });
        }
        check(true, &state.core);
        Ok([delete, insert])
    };
    Ok([run(false)?, run(true)?])
}

/// The same protocol through the in-memory algorithm (IMDelete /
/// IMInsert). Returns `[delete, insert]`.
pub fn in_memory_delete_then_reinsert(
    g: &MemGraph,
    victims: &[(u32, u32)],
) -> Result<[PhaseCost; 2]> {
    let mut cores = InMemoryCores::new(g)?;
    let mut delete = PhaseCost::default();
    for &(u, v) in victims {
        delete.add(&cores.delete_edge(u, v)?);
    }
    let mut insert = PhaseCost::default();
    for &(u, v) in victims {
        insert.add(&cores.insert_edge(u, v)?);
    }
    Ok([delete, insert])
}

/// The 20 %…100 % node samples (induced subgraph) and edge samples of one
/// stand-in at `scale`, as Figs. 11 and 12 vary them, tagged
/// `"{name} {pct}pct-V"` / `"-E"`. Both sweeps end at the whole stand-in,
/// which is listed once.
pub fn samples(name: &str, scale: f64) -> Vec<(String, MemGraph)> {
    let full = dataset_by_name(name)
        .expect("a Table I stand-in")
        .generate_mem(scale);
    let mut out = Vec::new();
    for pct in [20u64, 40, 60, 80] {
        let f = pct as f64 / 100.0;
        out.push((
            format!("{name} {pct}pct-V"),
            sample_nodes(&full, f, 1000 + pct),
        ));
        out.push((
            format!("{name} {pct}pct-E"),
            sample_edges(&full, f, 2000 + pct),
        ));
    }
    out.push((format!("{name} 100pct"), full));
    out
}

//! Seeded workload generator: the graph each workload runs on and the
//! request stream each client sends.
//!
//! `--seed` feeds this module and nothing else. The program under test only
//! ever sees what comes out of it: an on-disk table pair built from the
//! generated edge list, and protocol request lines.
//!
//! The seed picks each client's write slice and request sequence. It does
//! **not** pick the graph: a workload's graph is the same for every seed,
//! and so is the fixed tail of flips that ends a run. The charged read I/Os
//! of a decomposition and the bytes a data directory ends up with are exact
//! counts of a given graph; were the graph to change with the seed, their
//! run-to-run spread would be the difference between graphs, and no bound
//! tighter than that could ever be put on them.
//!
//! ## Why the streams are valid under any interleaving
//!
//! Pair `(u, v)` belongs to client `(u + v) mod CLIENTS`, so no two clients
//! ever write the same edge. Within its own slice a client toggles each pair
//! **twice in a row** — an edge of the base graph is deleted and then
//! re-inserted, an absent pair inserted and then deleted — so a pair is
//! always in its initial state when its turn comes, whatever the other
//! client is doing. No insert can hit a present edge and no delete a missing
//! one; the stream needs no feedback from the server and is a pure function
//! of the seed. After an even number of writes the slice is back in its
//! initial state, which is what lets the traced run replay one recorded
//! request sequence at one layer boundary after another, each starting
//! from the same graph.

use std::collections::BTreeSet;
use std::path::Path;

use kcore_suite::graphgen::dataset_by_name;
use kcore_suite::graphstore::{
    ExternalGraphBuilder, FormatVersion, GraphPaths, IoCounter, MemGraph, Result,
    DEFAULT_BLOCK_SIZE,
};
use kcore_suite::semicore::InMemoryCores;

/// Name the one served graph is registered under.
pub const GRAPH: &str = "g";

/// Client connections in every serve phase (the sandbox has two cores).
pub const CLIENTS: usize = 2;

/// One benchmark workload: a graph, a memory regime and a traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why the workload exists (copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// `graphgen` stand-in the graph is drawn from.
    pub dataset: &'static str,
    /// Stand-in scale of a full run.
    pub scale: f64,
    /// Stand-in scale under `--smoke`.
    pub smoke_scale: f64,
    /// Block-cache / pool budget as a share of the edge table's bytes;
    /// `None` sizes it to hold both tables, so nothing is ever evicted.
    pub cache_share: Option<f64>,
    /// Share of `--seconds` spent decomposing; the rest serves requests.
    pub decompose_share: f64,
    /// Percentage of each client's requests that are writes.
    pub write_pct: [u32; CLIENTS],
    /// Draw write slices from the edges whose re-insertion costs the engine
    /// most (see [`costly_pairs`]) instead of from any pair.
    pub costly_writes: bool,
    /// Client 0 also plays the operator and sends `compact g` after every
    /// this many of its writes. The toggles cancel in the update buffer, so
    /// the service's own edit-count threshold never fires; an explicit
    /// request is how a workload gets compaction cycles, and at a cadence
    /// that does not depend on how fast the server happens to be.
    pub compact_every: Option<u64>,
    /// What `why` claims about where the work goes, as `(per-layer metric,
    /// lowest, highest)`: the traced run at full size fails when a value
    /// falls outside its range, so the claim is measured, not asserted.
    pub claims: &'static [(&'static str, f64, f64)],
}

/// The four workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "scan_spill",
        why: "web graph 10x its block cache (hit ratio < 0.5, evictions): decomposing is io/cache/vfs work, the paper's M << graph regime; a fifth of the run serves it through a 10% pool",
        dataset: "Clueweb",
        scale: 0.15,
        smoke_scale: 0.004,
        cache_share: Some(0.10),
        decompose_share: 0.8,
        write_pct: [80, 80],
        costly_writes: false,
        compact_every: None,
        claims: &[("cache.hit_ratio", 0.0, 0.5), ("cache.evictions", 1.0, f64::MAX)],
    },
    WorkloadSpec {
        name: "scan_fit",
        why: "dense social graph wholly cached (hit ratio > 0.95, no eviction): decode and engine compute dominate, cache policy and readahead must not move it; a fifth of the run serves it resident",
        dataset: "Orkut",
        scale: 0.8,
        smoke_scale: 0.03,
        cache_share: None,
        decompose_share: 0.8,
        write_pct: [80, 80],
        costly_writes: false,
        compact_every: None,
        claims: &[("cache.hit_ratio", 0.95, 1.0), ("cache.evictions", 0.0, 0.0)],
    },
    WorkloadSpec {
        name: "serve_wal",
        why: "small resident graph, 2 clients at 80% writes on any pair, a compaction per 64: the journal commit is over half of write time, engine and socket the rest; nothing is evicted",
        dataset: "DBLP",
        scale: 1.0,
        smoke_scale: 0.1,
        cache_share: None,
        decompose_share: 0.15,
        write_pct: [80, 80],
        costly_writes: false,
        compact_every: Some(64),
        claims: &[("wal.share", 0.5, 1.0), ("pool.evictions", 0.0, 0.0)],
    },
    WorkloadSpec {
        name: "serve_engine",
        why: "web graph at a 10% pool, a writer re-inserting subcore-sweeping edges beside a reader: SemiInsert* and block reads own write time (journal < 0.2), the graph lock most of the reader's",
        dataset: "UK",
        scale: 0.25,
        smoke_scale: 0.01,
        cache_share: Some(0.10),
        decompose_share: 0.3,
        write_pct: [100, 0],
        costly_writes: true,
        compact_every: None,
        claims: &[("wal.share", 0.0, 0.2), ("service.lock_wait_share", 0.5, 1.0)],
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: small, well mixed, and the same on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * n as u64) >> 32) as u32
    }
}

/// Derive client `client`'s independent sub-seed from the run's seed.
fn sub_seed(seed: u64, client: usize) -> u64 {
    SplitMix64::new(seed ^ (1 + client as u64).wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// Generate the workload's graph in memory (the stand-in's own fixed
/// generator seed; see the module docs). This is also the generator's
/// replica of the edge set: the oracle the program's answers are checked
/// against is computed from it, never from the program's own tables.
pub fn generate_graph(spec: &WorkloadSpec, scale: f64) -> MemGraph {
    dataset_by_name(spec.dataset)
        .expect("workload names a known stand-in")
        .generate_mem(scale)
}

/// Write `graph` as a format-v3 table pair at `<base>.nodes/.edges` through
/// the memory-bounded external builder, the way a web-scale edge list would
/// be ingested.
pub fn build_tables(graph: &MemGraph, base: &Path) -> Result<()> {
    let mut builder = ExternalGraphBuilder::new_with_format(4 << 20, FormatVersion::V3)?;
    for (u, v) in graph.edges() {
        builder.add_edge(u, v)?;
    }
    builder.finish(base, graph.num_nodes(), IoCounter::new(DEFAULT_BLOCK_SIZE))?;
    // Flush the tables now, as part of set-up: left dirty, the kernel
    // writes them back in the middle of the measured phases.
    let paths = GraphPaths::from_base(base);
    for table in [&paths.nodes, &paths.edges] {
        std::fs::File::open(table)?.sync_all()?;
    }
    Ok(())
}

/// One request of the line protocol, in typed form so the traced run can
/// replay it below the protocol too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `insert g u v` (the pair is absent).
    Insert(u32, u32),
    /// `delete g u v` (the pair is present).
    Delete(u32, u32),
    /// `core g v`.
    Core(u32),
    /// `kmax g`.
    Kmax,
    /// `compact g` (the operator's request, see
    /// [`WorkloadSpec::compact_every`]).
    Compact,
}

/// Request classes latencies are reported by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Edge insertions (SemiInsert\*, milliseconds on a spilled graph).
    Insert,
    /// Edge deletions (SemiDelete\*).
    Delete,
    /// `core` / `kmax` queries.
    Read,
    /// Operator requests (`compact`): sent and checked, but not part of
    /// any reported latency or of the request throughput.
    Admin,
}

impl Kind {
    /// Lower-case name used in metric and span names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Insert => "insert",
            Kind::Delete => "delete",
            Kind::Read => "read",
            Kind::Admin => "admin",
        }
    }
}

impl Op {
    /// The request line sent to the server (no trailing newline).
    pub fn line(&self) -> String {
        match *self {
            Op::Insert(u, v) => format!("insert {GRAPH} {u} {v}"),
            Op::Delete(u, v) => format!("delete {GRAPH} {u} {v}"),
            Op::Core(v) => format!("core {GRAPH} {v}"),
            Op::Kmax => format!("kmax {GRAPH}"),
            Op::Compact => format!("compact {GRAPH}"),
        }
    }

    /// The class this request's latency is reported under.
    pub fn kind(&self) -> Kind {
        match self {
            Op::Insert(..) => Kind::Insert,
            Op::Delete(..) => Kind::Delete,
            Op::Core(_) | Op::Kmax => Kind::Read,
            Op::Compact => Kind::Admin,
        }
    }
}

/// A node pair of a client's slice and whether the base graph holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    /// Smaller endpoint.
    pub u: u32,
    /// Larger endpoint.
    pub v: u32,
    /// True when `(u, v)` is an edge of the generated graph.
    pub present: bool,
}

impl Pair {
    /// The one write that moves the pair out of its initial state.
    pub fn flip(&self) -> Op {
        if self.present {
            Op::Delete(self.u, self.v)
        } else {
            Op::Insert(self.u, self.v)
        }
    }
}

/// Draw `client`'s slice: up to `count` distinct pairs with
/// `(u + v) mod CLIENTS == client`, alternating edges of `graph` with
/// absent pairs so both "re-insert a known edge" and "insert a new edge"
/// are exercised from the first requests on.
fn client_pairs(graph: &MemGraph, rng: &mut SplitMix64, client: usize, count: usize) -> Vec<Pair> {
    let n = graph.num_nodes();
    let mut seen = BTreeSet::new();
    let mut halves: [Vec<Pair>; 2] = [Vec::new(), Vec::new()];
    let want = count.div_ceil(2);
    // Bounded rejection sampling: a degenerate graph (no edges of this
    // parity, or nearly complete) yields a shorter slice, never a hang.
    for _ in 0..count.saturating_mul(64) {
        if halves.iter().all(|h| h.len() >= want) {
            break;
        }
        let a = rng.below(n);
        let pick_edge = halves[0].len() < want && rng.below(2) == 0;
        let b = if pick_edge {
            let nbrs = graph.neighbors(a);
            if nbrs.is_empty() {
                continue;
            }
            nbrs[rng.below(nbrs.len() as u32) as usize]
        } else {
            rng.below(n)
        };
        let (u, v) = (a.min(b), a.max(b));
        if u == v || (u + v) as usize % CLIENTS != client {
            continue;
        }
        let present = graph.has_edge(u, v);
        let half = &mut halves[usize::from(!present)];
        if half.len() < want && seen.insert((u, v)) {
            half.push(Pair { u, v, present });
        }
    }
    let [edges, absent] = halves;
    let mut pairs = Vec::with_capacity(edges.len() + absent.len());
    let mut absent = absent.into_iter();
    for e in edges {
        pairs.push(e);
        pairs.extend(absent.next());
    }
    pairs.extend(absent);
    pairs
}

/// Of the sampled edges, one in this many makes a costly slice.
const COSTLY_ONE_IN: usize = 16;

/// Draw `sample` edges of `graph` for `client` and keep the sixteenth whose
/// re-insertion makes the engine recompute the most nodes.
///
/// An insertion either touches nothing — one node computation, the median
/// case on every stand-in — or sweeps a whole subcore, thousands of
/// adjacency lists. A slice drawn from any pair therefore has a
/// journal-bound median write with the engine in its tail only; this one
/// has the engine in its median. The cost is counted, not timed
/// (`node_computations` of deleting and re-inserting each sampled edge on an
/// in-memory replica), so the slice is a pure function of the seed.
fn costly_pairs(graph: &MemGraph, rng: &mut SplitMix64, client: usize, sample: usize) -> Vec<Pair> {
    let mut replica = InMemoryCores::new(graph).expect("in-memory decomposition cannot fail");
    let mut costed: Vec<(u64, Pair)> = client_pairs(graph, rng, client, 2 * sample)
        .into_iter()
        .filter(|p| p.present)
        .map(|p| {
            let toggled = replica
                .delete_edge(p.u, p.v)
                .and_then(|_| replica.insert_edge(p.u, p.v))
                .expect("toggling an edge of the replica");
            (toggled.node_computations, p)
        })
        .collect();
    // Stable: equal costs keep the order they were drawn in.
    costed.sort_by_key(|&(cost, _)| std::cmp::Reverse(cost));
    costed.truncate((sample / COSTLY_ONE_IN).max(1));
    costed.into_iter().map(|(_, p)| p).collect()
}

/// One client's deterministic request stream (see the module docs).
#[derive(Debug, Clone)]
pub struct ClientStream {
    pairs: Vec<Pair>,
    write_pct: u32,
    /// Send `compact` after every this many writes (0: never).
    compact_every: u64,
    compact_due: bool,
    num_nodes: u32,
    rng: SplitMix64,
    /// Toggle writes issued so far.
    writes: u64,
    /// Position in the read/write schedule.
    turn: u64,
}

impl ClientStream {
    /// The stream of `client` over `graph` under `spec`'s traffic mix: a
    /// slice of up to `slice` pairs (the costliest 1/32 of as many under
    /// [`WorkloadSpec::costly_writes`]), the client's share of toggle
    /// writes, the rest `core`/`kmax` reads.
    pub fn new(
        graph: &MemGraph,
        spec: &WorkloadSpec,
        seed: u64,
        client: usize,
        slice: usize,
    ) -> ClientStream {
        let write_pct = spec.write_pct[client];
        let mut rng = SplitMix64::new(sub_seed(seed, client));
        let pairs = if spec.costly_writes && write_pct > 0 {
            costly_pairs(graph, &mut rng, client, slice / 2)
        } else {
            client_pairs(graph, &mut rng, client, slice)
        };
        assert!(
            write_pct == 0 || !pairs.is_empty(),
            "graph too small to draw a write slice for client {client}"
        );
        ClientStream {
            pairs,
            write_pct,
            compact_every: spec.compact_every.filter(|_| client == 0).unwrap_or(0),
            compact_due: false,
            num_nodes: graph.num_nodes(),
            rng,
            writes: 0,
            turn: 0,
        }
    }

    /// The slice this client writes to.
    pub fn pairs(&self) -> &[Pair] {
        &self.pairs
    }

    /// The `w`-th toggle write: pair `w / 2`, first away from its initial
    /// state, then back.
    fn toggle(&self, w: u64) -> Op {
        let p = self.pairs[(w / 2) as usize % self.pairs.len()];
        if p.present == w.is_multiple_of(2) {
            Op::Delete(p.u, p.v)
        } else {
            Op::Insert(p.u, p.v)
        }
    }

    /// The next request.
    pub fn next_op(&mut self) -> Op {
        if std::mem::take(&mut self.compact_due) {
            return Op::Compact;
        }
        // Writes are spread evenly, not drawn: of any 100 consecutive turns
        // exactly `write_pct` are writes, so even a short phase sees the
        // intended mix (at 80 %: four writes, then a read).
        let pct = self.write_pct as u64;
        self.turn += 1;
        if self.turn * pct / 100 > (self.turn - 1) * pct / 100 {
            self.writes += 1;
            self.compact_due =
                self.compact_every > 0 && self.writes.is_multiple_of(self.compact_every);
            self.toggle(self.writes - 1)
        } else if self.rng.below(16) == 0 {
            Op::Kmax
        } else {
            Op::Core(self.rng.below(self.num_nodes))
        }
    }

    /// The write that returns the slice to its initial state, if the last
    /// toggle left a pair half-way.
    pub fn settle(&mut self) -> Option<Op> {
        (!self.writes.is_multiple_of(2)).then(|| {
            self.writes += 1;
            self.toggle(self.writes - 1)
        })
    }
}

/// The fixed tail of a run: `k` pairs — the same for every seed — each to
/// be flipped **once** and left flipped. These are the acknowledged writes
/// the end-of-run check looks for after the service is reopened: unlike the
/// toggles they do not cancel out, so losing them changes the answer.
pub fn tail_flips(graph: &MemGraph, k: usize) -> Vec<Pair> {
    client_pairs(graph, &mut SplitMix64::new(0x7A11), 0, k)
}

/// The edge set the served graph must hold at the end of a run: the
/// generated graph with every pair of `flips` toggled.
pub fn final_graph(graph: &MemGraph, flips: &[Pair]) -> MemGraph {
    let flipped: BTreeSet<(u32, u32)> = flips.iter().map(|p| (p.u, p.v)).collect();
    let kept = graph.edges().filter(|e| !flipped.contains(e));
    let added = flips.iter().filter(|p| !p.present).map(|p| (p.u, p.v));
    MemGraph::from_edges(kept.chain(added).collect::<Vec<_>>(), graph.num_nodes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcore_suite::graphstore::TempDir;

    fn small() -> MemGraph {
        generate_graph(&WORKLOADS[2], 0.1)
    }

    fn first_lines(graph: &MemGraph, seed: u64, client: usize, n: usize) -> Vec<String> {
        let mut s = ClientStream::new(graph, &WORKLOADS[2], seed, client, 64);
        (0..n).map(|_| s.next_op().line()).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_tables_and_streams() {
        let dir = TempDir::new("kbench-gen").unwrap();
        let mut tables = Vec::new();
        for run in 0..2 {
            let g = small();
            let base = dir.path().join(format!("g{run}"));
            build_tables(&g, &base).unwrap();
            let paths = GraphPaths::from_base(&base);
            tables.push((
                std::fs::read(paths.nodes).unwrap(),
                std::fs::read(paths.edges).unwrap(),
            ));
        }
        assert!(tables[0] == tables[1], "tables differ for one seed");
        let g = small();
        for client in 0..CLIENTS {
            assert_eq!(
                first_lines(&g, 7, client, 500),
                first_lines(&g, 7, client, 500)
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let g = small();
        assert_ne!(first_lines(&g, 7, 0, 200), first_lines(&g, 8, 0, 200));
        assert_ne!(first_lines(&g, 7, 0, 200), first_lines(&g, 7, 1, 200));
    }

    #[test]
    fn slices_are_disjoint_and_hold_both_kinds_of_pair() {
        let g = small();
        for client in 0..CLIENTS {
            let s = ClientStream::new(&g, &WORKLOADS[2], 3, client, 64);
            assert_eq!(s.pairs().len(), 64);
            assert!(s.pairs().iter().any(|p| p.present));
            assert!(s.pairs().iter().any(|p| !p.present));
            for p in s.pairs() {
                assert_eq!((p.u + p.v) as usize % CLIENTS, client);
                assert_eq!(g.has_edge(p.u, p.v), p.present);
            }
        }
    }

    /// Apply `op` to the replica, panicking on a duplicate insert or a
    /// missing delete — exactly what the server would reject.
    fn apply(edges: &mut BTreeSet<(u32, u32)>, op: Op) {
        match op {
            Op::Insert(u, v) => assert!(edges.insert((u, v)), "duplicate insert {u} {v}"),
            Op::Delete(u, v) => assert!(edges.remove(&(u, v)), "missing delete {u} {v}"),
            Op::Core(_) | Op::Kmax | Op::Compact => {}
        }
    }

    #[test]
    fn streams_stay_valid_under_any_interleaving() {
        let g = small();
        let base: BTreeSet<(u32, u32)> = g.edges().collect();
        for schedule_seed in 0..8u64 {
            let mut edges = base.clone();
            let mut streams: Vec<ClientStream> = (0..CLIENTS)
                .map(|c| ClientStream::new(&g, &WORKLOADS[2], 11, c, 16))
                .collect();
            // A seeded scheduler picks which client speaks next, including
            // long one-sided runs; slices of 16 pairs wrap many times.
            let mut sched = SplitMix64::new(schedule_seed);
            let mut burst = 0;
            let mut who = 0;
            for _ in 0..4000 {
                if burst == 0 {
                    who = sched.below(CLIENTS as u32) as usize;
                    burst = 1 + sched.below(40);
                }
                burst -= 1;
                apply(&mut edges, streams[who].next_op());
            }
            for s in &mut streams {
                if let Some(op) = s.settle() {
                    apply(&mut edges, op);
                }
            }
            assert!(edges == base, "settled streams must restore the graph");

            // The tail flips are valid on the settled graph, and
            // `final_graph` predicts the result.
            let flips = tail_flips(&g, 10);
            assert_eq!(flips.len(), 10);
            for p in &flips {
                apply(&mut edges, p.flip());
            }
            let expect: BTreeSet<(u32, u32)> = final_graph(&g, &flips).edges().collect();
            assert!(edges == expect);
            assert_ne!(edges, base);
        }
    }

    #[test]
    fn costly_slices_hold_the_costliest_edges_and_repeat() {
        let g = small();
        let draw = |seed| costly_pairs(&g, &mut SplitMix64::new(seed), 0, 64);
        let slice = draw(9);
        assert_eq!(slice.len(), 64 / COSTLY_ONE_IN);
        assert_eq!(slice, draw(9));
        assert_ne!(slice, draw(10));
        let mut replica = InMemoryCores::new(&g).unwrap();
        let mut cost = |p: &Pair| {
            assert!(p.present && p.u % 2 == p.v % 2);
            replica.delete_edge(p.u, p.v).unwrap();
            replica.insert_edge(p.u, p.v).unwrap().node_computations
        };
        let cheapest_kept = slice.iter().map(&mut cost).min().unwrap();
        // No edge of the same sample that was left out costs more.
        let sample = client_pairs(&g, &mut SplitMix64::new(9), 0, 128);
        for p in sample.iter().filter(|p| p.present && !slice.contains(p)) {
            assert!(cost(p) <= cheapest_kept);
        }
    }

    #[test]
    fn read_only_and_write_only_mixes() {
        let g = small();
        let engine = workload("serve_engine").unwrap();
        let mut writer = ClientStream::new(&g, engine, 5, 0, 32);
        let mut reader = ClientStream::new(&g, engine, 5, 1, 32);
        for _ in 0..200 {
            assert!(matches!(
                writer.next_op().kind(),
                Kind::Insert | Kind::Delete
            ));
            assert_eq!(reader.next_op().kind(), Kind::Read);
        }
        assert_eq!(reader.settle(), None);
    }

    #[test]
    fn only_client_zero_compacts_and_on_schedule() {
        let g = small();
        let wal = workload("serve_wal").unwrap();
        let every = wal.compact_every.unwrap();
        let mut operator = ClientStream::new(&g, wal, 5, 0, 32);
        let mut writes = 0;
        for _ in 0..2000 {
            match operator.next_op().kind() {
                Kind::Insert | Kind::Delete => writes += 1,
                Kind::Admin => assert!(writes > 0 && writes % every == 0),
                Kind::Read => {}
            }
        }
        assert!(writes > 2 * every);
        let mut other = ClientStream::new(&g, wal, 5, 1, 32);
        assert!((0..2000).all(|_| other.next_op() != Op::Compact));
    }
}

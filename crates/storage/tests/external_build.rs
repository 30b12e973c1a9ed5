//! Differential suite for [`ExternalGraphBuilder`]: its output is a pure
//! function of the edge *set*. For both written formats the `.nodes` and
//! `.edges` files must be byte-identical to
//! `write_mem_graph_with(MemGraph::from_edges(..))` whatever the run
//! capacity (one run, many runs, a run that fills exactly and leaves an
//! empty tail), the arrival order, the orientation of each pair, and however
//! often an edge repeats inside one run or across runs. A damaged scratch
//! run must surface as a typed error — never a panic, never a graph with
//! edges missing.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use graphstore::{
    write_mem_graph_with, Error, ExternalGraphBuilder, FormatVersion, GraphPaths, IoCounter,
    MemGraph, TempDir, DEFAULT_BLOCK_SIZE,
};
use proptest::prelude::*;
use testutil::Lcg;

const FORMATS: [FormatVersion; 2] = [FormatVersion::V1, FormatVersion::V3];

/// Serialises builder creation in this binary, so that
/// [`builder_with_scratch`] can tell which scratch directory is its own.
static CREATE: Mutex<()> = Mutex::new(());

fn builder(run_capacity: usize, version: FormatVersion) -> ExternalGraphBuilder {
    let _guard = CREATE.lock().unwrap_or_else(|e| e.into_inner());
    ExternalGraphBuilder::new_with_format(run_capacity, version).unwrap()
}

/// This process's builder scratch directories.
fn scratch_dirs() -> Vec<PathBuf> {
    let prefix = format!("kcore-build-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with(&prefix))
        })
        .collect()
}

/// A builder and the scratch directory its runs are spilled to. The
/// directory is not part of the builder's interface; it is found as the one
/// that appeared while no other test could create a builder.
fn builder_with_scratch(
    run_capacity: usize,
    version: FormatVersion,
) -> (ExternalGraphBuilder, PathBuf) {
    let _guard = CREATE.lock().unwrap_or_else(|e| e.into_inner());
    let before = scratch_dirs();
    let b = ExternalGraphBuilder::new_with_format(run_capacity, version).unwrap();
    let mut new: Vec<PathBuf> = scratch_dirs()
        .into_iter()
        .filter(|p| !before.contains(p))
        .collect();
    assert_eq!(new.len(), 1, "one scratch directory per builder: {new:?}");
    (b, new.pop().unwrap())
}

fn counter() -> std::sync::Arc<IoCounter> {
    IoCounter::new(DEFAULT_BLOCK_SIZE)
}

fn table_bytes(base: &Path) -> (Vec<u8>, Vec<u8>) {
    let paths = GraphPaths::from_base(base);
    (
        std::fs::read(paths.nodes).unwrap(),
        std::fs::read(paths.edges).unwrap(),
    )
}

/// The tables the in-memory path writes for this edge set.
fn reference(
    dir: &TempDir,
    edges: &[(u32, u32)],
    min_nodes: u32,
    v: FormatVersion,
) -> (Vec<u8>, Vec<u8>) {
    let base = dir.path().join("reference");
    let g = MemGraph::from_edges(edges.iter().copied(), min_nodes);
    write_mem_graph_with(&base, &g, counter(), v).unwrap();
    table_bytes(&base)
}

/// The tables the external builder writes for this arrival sequence.
fn external(
    dir: &TempDir,
    edges: &[(u32, u32)],
    min_nodes: u32,
    run_capacity: usize,
    v: FormatVersion,
) -> (Vec<u8>, Vec<u8>) {
    let base = dir.path().join("external");
    let mut b = builder(run_capacity, v);
    for &(u, w) in edges {
        b.add_edge(u, w).unwrap();
    }
    b.finish(&base, min_nodes, counter()).unwrap();
    table_bytes(&base)
}

fn shuffled(edges: &[(u32, u32)], rng: &mut Lcg) -> Vec<(u32, u32)> {
    let mut out = edges.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i as u32 + 1) as usize);
    }
    out
}

fn flipped(edges: &[(u32, u32)], rng: &mut Lcg) -> Vec<(u32, u32)> {
    edges
        .iter()
        .map(|&(u, v)| if rng.below(2) == 1 { (v, u) } else { (u, v) })
        .collect()
}

/// The arrival sequences one edge list is fed in: as given, sorted,
/// reversed, shuffled, and shuffled again with each pair's orientation
/// flipped on a coin toss.
fn arrival_orders(edges: &[(u32, u32)], seed: u64) -> Vec<(&'static str, Vec<(u32, u32)>)> {
    let mut rng = Lcg::new(seed);
    let mut sorted = edges.to_vec();
    sorted.sort_unstable();
    let reversed = sorted.iter().rev().copied().collect();
    let shuffle = shuffled(edges, &mut rng);
    let flip = flipped(&shuffled(edges, &mut rng), &mut rng);
    vec![
        ("as given", edges.to_vec()),
        ("sorted", sorted),
        ("reversed", reversed),
        ("shuffled", shuffle),
        ("shuffled and flipped", flip),
    ]
}

/// Run capacities for a list of `m` pairs: one pair per run (2 and 3), a
/// few pairs per run, two runs, a run that fills exactly on the last pair
/// (spilled runs and an empty tail), and one run with room to spare.
fn run_capacities(m: usize) -> Vec<usize> {
    let mut caps = vec![2, 3, 64, m.max(2), (2 * m).max(2), (4 * m).max(2)];
    caps.sort_unstable();
    caps.dedup();
    caps
}

/// Every format × run capacity × the given arrival sequences against the
/// in-memory reference.
fn assert_matches_reference(
    min_nodes: u32,
    orders: &[(&'static str, Vec<(u32, u32)>)],
) -> Result<(), String> {
    let dir = TempDir::new("external-build").unwrap();
    let edges = &orders[0].1;
    for v in FORMATS {
        let expect = reference(&dir, edges, min_nodes, v);
        for cap in run_capacities(edges.len()) {
            for (order, arrival) in orders {
                if external(&dir, arrival, min_nodes, cap, v) != expect {
                    return Err(format!(
                        "{} tables differ from the in-memory build: run capacity {cap}, \
                         order {order}, min_nodes {min_nodes}, edges {edges:?}",
                        v.tag()
                    ));
                }
            }
        }
    }
    Ok(())
}

fn assert_pure(edges: &[(u32, u32)], min_nodes: u32) {
    assert_matches_reference(min_nodes, &arrival_orders(edges, 0xE5CA_1ADE)).unwrap();
}

#[test]
fn empty_and_one_edge_graphs() {
    assert_pure(&[], 0);
    assert_pure(&[], 7);
    assert_pure(&[(0, 1)], 0);
    assert_pure(&[(1, 0)], 2);
    assert_pure(&[(3, 9)], 0);
}

#[test]
fn self_loops_leave_no_trace() {
    // A self-loop adds neither an edge nor a node, even as the largest id.
    assert_pure(&[(4, 4)], 0);
    assert_pure(&[(0, 1), (1, 1), (2, 1), (40, 40), (2, 2)], 0);
    assert_pure(&[(7, 7), (7, 7)], 3);
}

#[test]
fn isolated_nodes_below_between_and_above_the_edges() {
    // Nothing below node 5, a gap between 8 and 20, a `min_nodes` tail.
    let edges = [(5, 6), (6, 7), (5, 7), (7, 8), (20, 21), (21, 5), (23, 20)];
    for min_nodes in [0, 24, 25, 64] {
        assert_pure(&edges, min_nodes);
    }
}

#[test]
fn duplicates_inside_one_run_and_across_runs() {
    let base: Vec<(u32, u32)> = (0..40u32)
        .flat_map(|i| [(i, (i * 7 + 1) % 40), (i, (i * 11 + 3) % 40)])
        .collect();
    // Back to back (the same run at any capacity above 2) ...
    let adjacent: Vec<(u32, u32)> = base.iter().flat_map(|&e| [e, e, (e.1, e.0)]).collect();
    assert_pure(&adjacent, 0);
    // ... and a whole second and third copy (other runs at small capacities).
    let repeated: Vec<(u32, u32)> = base.iter().chain(&base).chain(&base).copied().collect();
    assert_pure(&repeated, 45);
}

#[test]
fn one_hub_longer_than_any_run() {
    // A list that no single small run holds: every run carries a piece of
    // node 0's adjacency and the merge unites them.
    let edges: Vec<(u32, u32)> = (1..=300u32).map(|v| (v, 0)).collect();
    assert_pure(&edges, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn output_is_a_function_of_the_edge_set(
        (n, edges) in (1u32..48).prop_flat_map(|n| {
            (Just(n), proptest::collection::vec((0..n, 0..n), 0usize..160))
        }),
        offset in 0u32..6,
        tail in 0u32..6,
        seed in any::<u64>(),
    ) {
        // `offset` leaves isolated nodes below the edges, `tail` above.
        let edges: Vec<(u32, u32)> =
            edges.into_iter().map(|(u, v)| (u + offset, v + offset)).collect();
        let mut rng = Lcg::new(seed);
        let flip = flipped(&shuffled(&edges, &mut rng), &mut rng);
        let orders = [("as given", edges), ("shuffled and flipped", flip)];
        let outcome = assert_matches_reference(n + offset + tail, &orders);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

// ---------------------------------------------------------------------------
// Damaged scratch runs.
// ---------------------------------------------------------------------------

/// 60 nodes, every list non-trivial, fed so that six pairs make a run.
fn damage_edges() -> Vec<(u32, u32)> {
    (0..60u32)
        .flat_map(|i| [(i, (i + 1) % 60), (i, (i + 7) % 60)])
        .collect()
}

/// Build [`damage_edges`] with several spilled runs, let `damage` loose on
/// the first run's file, and finish.
fn finish_after(damage: impl FnOnce(&Path)) -> graphstore::Result<u64> {
    let dir = TempDir::new("external-build").unwrap();
    let (mut b, scratch) = builder_with_scratch(12, FormatVersion::V3);
    for (u, v) in damage_edges() {
        b.add_edge(u, v).unwrap();
    }
    let run = scratch.join("run0.bin");
    assert!(run.is_file(), "the first run was spilled to {run:?}");
    damage(&run);
    b.finish(&dir.path().join("g"), 0, counter())
        .map(|g| g.num_edges())
}

fn assert_typed(outcome: graphstore::Result<u64>, what: &str) {
    match outcome {
        Err(
            Error::Corrupt { .. }
            | Error::Io(_)
            | Error::NodeOutOfRange { .. }
            | Error::InvalidArgument(_),
        ) => {}
        other => panic!("{what}: expected a typed error, got {other:?}"),
    }
}

#[test]
fn undamaged_scratch_runs_build_the_whole_graph() {
    assert_eq!(finish_after(|_| {}).unwrap(), 120);
}

#[test]
fn truncated_scratch_run_is_an_error_at_every_cut() {
    let len = {
        let (mut b, scratch) = builder_with_scratch(12, FormatVersion::V3);
        for (u, v) in damage_edges().into_iter().take(6) {
            b.add_edge(u, v).unwrap();
        }
        std::fs::metadata(scratch.join("run0.bin")).unwrap().len()
    };
    assert!(len >= 64, "{len}");
    // Every cut, the ones that fall between two records included: the
    // builder remembers how long the run it wrote was.
    for cut in 0..len {
        let outcome = finish_after(|run| {
            let f = std::fs::OpenOptions::new().write(true).open(run).unwrap();
            f.set_len(cut).unwrap();
        });
        assert!(
            matches!(outcome, Err(Error::Corrupt { .. })),
            "cut at {cut} of {len}: {outcome:?}"
        );
    }
    let outcome = finish_after(|run| {
        let mut bytes = std::fs::read(run).unwrap();
        bytes.extend_from_slice(&[0; 8]);
        std::fs::write(run, bytes).unwrap();
    });
    assert!(matches!(outcome, Err(Error::Corrupt { .. })), "{outcome:?}");
    assert_typed(
        finish_after(|run| std::fs::remove_file(run).unwrap()),
        "deleted run",
    );
}

#[test]
fn garbled_scratch_run_is_an_error_at_every_word() {
    let clean = std::cell::RefCell::new(Vec::new());
    finish_after(|run| *clean.borrow_mut() = std::fs::read(run).unwrap()).unwrap();
    let clean = clean.into_inner();
    // Whatever a word is — a node id, a length, a neighbour — the run does
    // not survive it changing: to an id no graph holds, to zero, or to the
    // word after it (which leaves a neighbour list that still looks sorted,
    // so only the run's checksum can tell).
    for at in (0..clean.len()).step_by(4) {
        let next = clean.get(at + 4..at + 8).unwrap_or(&[0xAB; 4]);
        for garble in [&[0xFF; 4], &[0; 4], next] {
            let outcome = finish_after(|run| {
                let mut bytes = clean.clone();
                bytes[at..at + 4].copy_from_slice(garble);
                std::fs::write(run, bytes).unwrap();
            });
            if &clean[at..at + 4] == garble {
                assert_eq!(outcome.unwrap(), 120);
            } else {
                assert_typed(outcome, &format!("byte {at} garbled with {garble:?}"));
            }
        }
    }
    // Two neighbours of one list swapped: every word still in range.
    let outcome = finish_after(|run| {
        let mut bytes = clean.clone();
        let (a, b) = (8, 12);
        assert_eq!(
            &bytes[..8],
            &[0, 0, 0, 0, 2, 0, 0, 0],
            "node 0, two neighbours"
        );
        for i in 0..4 {
            bytes.swap(a + i, b + i);
        }
        std::fs::write(run, bytes).unwrap();
    });
    assert_typed(outcome, "swapped neighbours");
}

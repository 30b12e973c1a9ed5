//! The paper's evaluation (§VI, Figs. 3 and 9–12) as deterministic
//! assertions on the `graphgen::dataset_by_name` stand-ins.
//!
//! Every claim here is an *ordering of charged counters* — `read_ios`,
//! `node_computations`, `peak_memory_bytes` — which this repo keeps
//! bit-identical across schedules, so the figures need no bench run and no
//! clock: nothing in this file reads time. Each test prints the numbers it
//! passed at (`-- --nocapture`, triples in the order `[SemiCore*, SemiCore+,
//! SemiCore]`); two runs print the same lines. README
//! "Reproduction" maps each claim to its test and records the two places
//! the stand-ins deviate from the paper.
//!
//! The protocols — the tables, compressed (v3) and charged in blocks of
//! [`paper::BLOCK_SIZE`] = 1 KiB, the algorithms' options, the victims
//! and the samples — are `kcore_bench::paper`'s, the code the `fig*`
//! printers of `crates/bench` print from at any `--scale`; this file
//! certifies and orders what they return. The model is stated in blocks
//! of `B` and the claims are orderings, so `B` is scaled down to the
//! stand-ins rather than the stand-ins up to `B`. The scales are what
//! keeps the file near 25 s in the debug profile on two cores.

use std::collections::HashSet;
use std::path::Path;

use graphgen::dataset_by_name;
use graphstore::{DiskGraph, IoCounter, MemGraph, TempDir};
use kcore_bench::paper::{self, EMCORE_BUDGET_DIVISOR, SCALABILITY_PAIR};
use semicore::{find_violations, Decomposition, EmCoreOptions, RunStats};

/// The paper's group one (Fig. 9 a/c/e, Fig. 10 a/c).
const SMALL_GROUP: [&str; 6] = ["DBLP", "Youtube", "WIKI", "CPT", "LJ", "Orkut"];

// Stand-in scales. At 1 KiB blocks 0.03 gives DBLP's three read counts
// room to differ; EMCore on Orkut, most of the Fig. 9 test's time, is what
// keeps it from being larger. Fig. 3 needs runs long enough to have a
// second half.
const FIG9_SCALE: f64 = 0.03;
const FIG3_SCALE: f64 = 0.06;
const FIG10_SCALE: f64 = 0.03;
const FIG11_12_SCALE: f64 = 0.015;

/// Theorem 4.2's bound with the constant written down: SemiCore\* holds
/// `core` and `cnt` (8 B/node) plus a kernel scratch of `O(d_max)` words,
/// which stays under 4 B/node on every stand-in.
const STAR_BYTES_PER_NODE: u64 = 12;
/// "Far below": the in-memory and partition baselines hold at least this
/// many times SemiCore\*'s peak on every small-group stand-in (the sparsest,
/// WIKI at `m/n` = 2.1, sets it; Orkut at 38 is above 25×).
const BASELINE_MEMORY_FACTOR: u64 = 4;
/// Fig. 3: everything the second half of a SemiCore run changes, as a
/// share of what its first iteration alone changed.
const FIG3_TAIL_DIVISOR: u64 = 4;

/// Theorem 4.1: the assignment is a fixpoint of Eq. 1 at every node. Every
/// algorithm here descends from `deg(v)`, so a clean certificate is
/// exactness. It is checked against the graph itself, in memory: that
/// charges no run, and a table or update buffer that is not a faithful
/// copy of `g` fails it too.
fn certify(g: &MemGraph, core: &[u32], what: &str) {
    let violations = find_violations(&mut g.clone(), core).unwrap();
    assert!(violations.is_empty(), "{what}: {}", violations[0]);
}

/// SemiCore\*, SemiCore+ and SemiCore over `g`'s table at `base`, certified.
fn semi_external_trio(g: &MemGraph, base: &Path, what: &str) -> [Decomposition; 3] {
    let trio = paper::trio(base).unwrap();
    for d in &trio {
        certify(g, &d.core, &format!("{what} {}", d.stats.algorithm));
    }
    trio
}

/// Run `each` on both graphs of [`SCALABILITY_PAIR`] at once, one thread
/// each: the two are independent, and v3 decoding in the debug profile
/// makes each one's tests about 1.5× longer than on raw tables.
fn on_each_of_the_pair(each: impl Fn(&'static str) + Sync) {
    let each = &each;
    std::thread::scope(|s| {
        for name in SCALABILITY_PAIR {
            s.spawn(move || each(name));
        }
    });
}

/// One counter of the trio, in the order `[SemiCore*, SemiCore+, SemiCore]`.
fn column(trio: &[Decomposition; 3], counter: impl Fn(&RunStats) -> u64) -> [u64; 3] {
    trio.each_ref().map(|d| counter(&d.stats))
}

/// Figs. 9 (e/f) and 11: both cost counters strictly ordered
/// SemiCore\* < SemiCore+ < SemiCore. Returns (reads, node computations).
fn assert_decomposition_ordering(trio: &[Decomposition; 3], what: &str) -> ([u64; 3], [u64; 3]) {
    let reads = column(trio, |s| s.io.read_ios);
    let computations = column(trio, |s| s.node_computations);
    for (counter, [star, plus, basic]) in [("reads", reads), ("node computations", computations)] {
        assert!(
            star < plus && plus < basic,
            "{what}: {counter} {star} / {plus} / {basic} not strictly SemiCore* < SemiCore+ < SemiCore"
        );
    }
    (reads, computations)
}

#[test]
fn fig09_decomposition_io_computations_and_memory() {
    let dir = TempDir::new("claims-fig9").unwrap();
    for name in SMALL_GROUP {
        let g = dataset_by_name(name).unwrap().generate_mem(FIG9_SCALE);
        let (n, m) = (u64::from(g.num_nodes()), g.num_edges());
        let base = dir.path().join(name);
        paper::write_table(&g, &base).unwrap();
        let raw_bytes = 8 * m;

        let trio = semi_external_trio(&g, &base, name);
        let (reads, computations) = assert_decomposition_ordering(&trio, name);
        let memory = column(&trio, |s| s.peak_memory_bytes);
        let star_bytes = memory[0];

        let im = semicore::imcore(&g);
        certify(&g, &im.core, &format!("{name} IMCore"));
        assert_eq!(trio[0].core, im.core, "{name}: SemiCore* vs IMCore");

        // EMCore at a budget that is a share of the adjacency it loads —
        // the paper's regime — and at one that holds all of it.
        let budget = paper::emcore_budget(m);
        let emcore = |memory_budget| {
            let d = paper::emcore(&base, memory_budget).unwrap();
            certify(&g, &d.core, &format!("{name} EMCore at {memory_budget} B"));
            d.stats
        };
        let em = emcore(budget);
        let em_resident = emcore(2 * raw_bytes);

        println!(
            "fig9 {name}: n {n} m {m} | reads {reads:?}, EMCore {} (graph in budget: {}) | \
             computations {computations:?} | memory {memory:?} against {}, IMCore {}, EMCore {} | \
             EMCore writes {}",
            em.io.read_ios,
            em_resident.io.read_ios,
            STAR_BYTES_PER_NODE * n,
            im.stats.peak_memory_bytes,
            em.peak_memory_bytes,
            em.io.write_ios,
        );

        // Fig. 9 (e): the semi-external trio is read-only; EMCore rewrites
        // its partitions every round.
        assert_eq!(column(&trio, |s| s.io.write_ios), [0; 3], "{name}: wrote");
        assert!(em.io.write_ios > 0, "{name}: EMCore wrote nothing");
        // Fig. 9 (e): EMCore's I/O is the worst — more in total than any
        // of the trio, more reads than SemiCore* — while its budget is a
        // share of the table. Once the budget holds the graph (what a fixed
        // budget does to a small stand-in) it reads every partition once,
        // less than SemiCore*'s passes: the paper's claim does not hold
        // there, and that is asserted rather than hidden.
        assert!(
            em.total_ios() > reads[2] && em.io.read_ios > reads[0],
            "{name}: EMCore at a 1/{EMCORE_BUDGET_DIVISOR} budget did {} I/Os, {} of them reads",
            em.total_ios(),
            em.io.read_ios
        );
        assert!(
            em_resident.io.read_ios < reads[0],
            "{name}: EMCore holding the graph read {}",
            em_resident.io.read_ios
        );

        // Fig. 9 (c): node-only memory. SemiCore keeps `core`, SemiCore+
        // adds a bit per node, SemiCore* adds `cnt`; all O(n) whatever `m`
        // is, while IMCore holds both copies of every edge.
        assert!(
            memory[2] <= memory[1] && memory[1] <= star_bytes,
            "{name}: memory {memory:?} not SemiCore <= SemiCore+ <= SemiCore*"
        );
        assert!(
            star_bytes <= STAR_BYTES_PER_NODE * n,
            "{name}: {star_bytes} B over {n} nodes"
        );
        assert!(im.stats.peak_memory_bytes >= 8 * m);
        for bytes in [im.stats.peak_memory_bytes, em.peak_memory_bytes] {
            assert!(
                bytes >= BASELINE_MEMORY_FACTOR * star_bytes,
                "{name}: a baseline held {bytes} B, SemiCore* {star_bytes}"
            );
        }
    }
}

/// Fig. 9 sets EMCore's I/O beside the trio's, so EMCore charges in the
/// blocks its input is read in: the partition store at that `B` (at least
/// one block a partition), and its reported I/O includes line 1's scan of
/// the input.
#[test]
fn emcore_charges_in_the_inputs_blocks_and_reports_its_input_scan() {
    let dir = TempDir::new("claims-emcore").unwrap();
    let g = dataset_by_name("Youtube").unwrap().generate_mem(FIG9_SCALE);
    let base = dir.path().join("g");
    paper::write_table(&g, &base).unwrap();
    // Partitions of 4 KiB, so every `B` below splits the graph alike.
    let opts = EmCoreOptions {
        partition_bytes: 4096,
        memory_budget: 8192,
    };
    // Over the graph in memory the input costs nothing, and the store is
    // charged at the default 4 KiB.
    let partitions_only = semicore::emcore(&mut g.clone(), &opts).unwrap();
    let mut partition_reads = Vec::new();
    for block in [512, 4096] {
        let mut disk = DiskGraph::open(&base, IoCounter::new(block)).unwrap();
        let d = semicore::emcore(&mut disk, &opts).unwrap();
        assert_eq!(d.core, partitions_only.core, "B = {block}");
        // EMCore is this handle's only user: its counter is the input scan.
        let scan = disk.io();
        assert!(
            scan.read_ios > 0,
            "B = {block}: the input scan read nothing"
        );
        if block == 4096 {
            let store = partitions_only.stats.io;
            assert_eq!(d.stats.io.read_ios, store.read_ios + scan.read_ios);
            assert_eq!(d.stats.io.write_ios, store.write_ios);
        }
        partition_reads.push(d.stats.io.read_ios - scan.read_ios);
    }
    println!("emcore: partition reads at B = 512 / 4096: {partition_reads:?}");
    assert!(
        partition_reads[0] > partition_reads[1],
        "partition reads {partition_reads:?} not charged in the input's blocks"
    );
}

#[test]
fn fig03_changed_nodes_collapse_after_the_first_iterations() {
    let dir = TempDir::new("claims-fig3").unwrap();
    on_each_of_the_pair(|name| {
        let g = dataset_by_name(name).unwrap().generate_mem(FIG3_SCALE);
        let base = dir.path().join(name);
        paper::write_table(&g, &base).unwrap();
        let d = paper::changed_per_iteration(&base).unwrap();
        certify(&g, &d.core, name);
        let series = d.stats.changed_per_iteration.unwrap();
        let first = series[0];
        let second_half: u64 = series[series.len() / 2..].iter().sum();
        println!(
            "fig3 {name}: n {} | {} iterations, first changed {first}, the whole second half \
             {second_half}, last {}",
            g.num_nodes(),
            series.len(),
            series[series.len() - 1]
        );
        assert!(
            second_half * FIG3_TAIL_DIVISOR < first,
            "{name}: second half of the run changed {second_half} nodes, first iteration {first}"
        );
    });
}

/// Figs. 10 and 12 on one graph: SemiDelete\* ≤ SemiInsert\* < SemiInsert in
/// reads and in node computations per update, with the state certified
/// after each phase. Returns SemiInsert\*'s `[reads, computations]`.
fn assert_maintenance_ordering(
    g: &MemGraph,
    dir: &TempDir,
    tag: &str,
    victims: &[(u32, u32)],
) -> [u64; 2] {
    let gone: HashSet<(u32, u32)> = victims.iter().copied().collect();
    let pruned = MemGraph::from_edges(g.edges().filter(|e| !gone.contains(e)), g.num_nodes());
    let [[delete, two_phase], [delete_again, one_phase]] =
        paper::delete_then_reinsert(g, &dir.path().join(tag), victims, |back, core| {
            certify(if back { g } else { &pruned }, core, tag)
        })
        .unwrap()
        .map(|run| run.map(|phase| phase.counters()));
    assert_eq!(
        delete, delete_again,
        "{tag}: the delete phase is the same run"
    );
    println!(
        "{tag}: n {} m {} | per {} updates, [reads, computations]: {delete:?} <= {one_phase:?} < {two_phase:?}",
        g.num_nodes(),
        g.num_edges(),
        victims.len(),
    );
    for (i, counter) in ["reads", "node computations"].into_iter().enumerate() {
        assert!(
            delete[i] <= one_phase[i] && one_phase[i] < two_phase[i],
            "{tag}: {counter} {} / {} / {} not SemiDelete* <= SemiInsert* < SemiInsert",
            delete[i],
            one_phase[i],
            two_phase[i]
        );
    }
    one_phase
}

#[test]
fn fig10_maintenance_cost_per_update() {
    let dir = TempDir::new("claims-fig10").unwrap();
    for name in SMALL_GROUP {
        let spec = dataset_by_name(name).unwrap();
        let g = spec.generate_mem(FIG10_SCALE);
        let victims = paper::fig10_victims(&spec, &g);
        let one_phase = assert_maintenance_ordering(&g, &dir, &format!("fig10 {name}"), &victims);

        // SemiInsert* visits exactly the nodes the in-memory algorithm
        // does: the semi-external model costs block reads, not extra work.
        let [_, in_memory] = paper::in_memory_delete_then_reinsert(&g, &victims).unwrap();
        assert_eq!(
            one_phase[1], in_memory.computations,
            "{name}: SemiInsert* vs the in-memory insert"
        );
    }
}

#[test]
fn fig11_decomposition_ordering_holds_at_every_sample() {
    let dir = TempDir::new("claims-fig11").unwrap();
    on_each_of_the_pair(|name| {
        for (tag, g) in paper::samples(name, FIG11_12_SCALE) {
            let base = dir.path().join(&tag);
            paper::write_table(&g, &base).unwrap();
            let trio = semi_external_trio(&g, &base, &tag);
            let (reads, computations) = assert_decomposition_ordering(&trio, &tag);
            println!(
                "fig11 {tag}: n {} m {} | reads {reads:?} | computations {computations:?}",
                g.num_nodes(),
                g.num_edges(),
            );
        }
    });
}

#[test]
fn fig12_maintenance_ordering_holds_at_every_sample() {
    let dir = TempDir::new("claims-fig12").unwrap();
    on_each_of_the_pair(|name| {
        for (tag, g) in paper::samples(name, FIG11_12_SCALE) {
            let victims = paper::fig12_victims(&g);
            assert_maintenance_ordering(&g, &dir, &format!("fig12 {tag}"), &victims);
        }
    });
}

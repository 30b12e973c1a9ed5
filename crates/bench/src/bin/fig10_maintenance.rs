//! Figure 10 — core maintenance: average time (10a/10b) and average I/Os
//! (10c/10d) per update, following the paper's protocol:
//!
//! *"We randomly select 100 distinct existing edges … remove the 100 edges
//! one by one and take the average … after the 100 edges are removed, we
//! insert them into the graph one by one and take the average."*
//!
//! Small group also runs the in-memory baseline (IMInsert / IMDelete).
//!
//! ```sh
//! cargo run --release -p kcore-bench --bin fig10_maintenance -- --group small
//! cargo run --release -p kcore-bench --bin fig10_maintenance -- --group big [--scale 0.5]
//! ```

use graphstore::{snapshot_mem, BufferedGraph, MemGraph};
use kcore_bench::harness::{build_dataset, fmt_count, fmt_secs, Args, Table, UpdateCost};
use rand::rngs::SmallRng;
use rand::{seq::SliceRandom, SeedableRng};
use semicore::{
    semi_delete_star, semi_insert, semi_insert_star, semicore_star_state, DecomposeOptions,
    InMemoryCores, SparseMarks,
};

const EDGES_PER_TEST: usize = 100;

fn pick_edges(mem: &MemGraph, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges: Vec<(u32, u32)> = mem.edges().collect();
    edges.shuffle(&mut rng);
    edges.truncate(EDGES_PER_TEST);
    edges
}

/// Run the delete-then-reinsert protocol on a disk graph with the given
/// insertion algorithm; returns (delete avg, insert avg).
fn run_semi(
    spec: &graphgen::DatasetSpec,
    scale: f64,
    dir: &graphstore::TempDir,
    use_star_insert: bool,
) -> graphstore::Result<(UpdateCost, UpdateCost)> {
    let disk = build_dataset(spec, scale, dir, graphstore::DEFAULT_BLOCK_SIZE)?;
    let mut g = BufferedGraph::with_default_capacity(disk);
    let victims = {
        let snap = snapshot_mem(&mut g)?;
        pick_edges(&snap, 0xF1610 + spec.seed)
    };
    let (mut state, _) = semicore_star_state(&mut g, &DecomposeOptions::default())?;
    let n = graphstore::AdjacencyRead::num_nodes(&g);
    let mut marks = SparseMarks::new(n);

    let mut deletes = UpdateCost::default();
    for &(u, v) in &victims {
        deletes.add(&semi_delete_star(&mut g, &mut state, u, v)?);
    }
    let mut inserts = UpdateCost::default();
    for &(u, v) in &victims {
        inserts.add(&if use_star_insert {
            semi_insert_star(&mut g, &mut state, &mut marks, u, v)?
        } else {
            semi_insert(&mut g, &mut state, &mut marks, u, v)?
        });
    }
    Ok((
        deletes.per_update(victims.len()),
        inserts.per_update(victims.len()),
    ))
}

/// The in-memory baseline on the same protocol.
fn run_inmem(
    spec: &graphgen::DatasetSpec,
    scale: f64,
    dir: &graphstore::TempDir,
) -> graphstore::Result<(UpdateCost, UpdateCost)> {
    let mut disk = build_dataset(spec, scale, dir, graphstore::DEFAULT_BLOCK_SIZE)?;
    let mem = snapshot_mem(&mut disk)?;
    let victims = pick_edges(&mem, 0xF1610 + spec.seed);
    let mut im = InMemoryCores::new(&mem)?;
    let mut deletes = UpdateCost::default();
    for &(u, v) in &victims {
        deletes.add(&im.delete_edge(u, v)?);
    }
    let mut inserts = UpdateCost::default();
    for &(u, v) in &victims {
        inserts.add(&im.insert_edge(u, v)?);
    }
    Ok((
        deletes.per_update(victims.len()),
        inserts.per_update(victims.len()),
    ))
}

fn main() -> graphstore::Result<()> {
    let args = Args::parse();
    let group = args.get("group", "small");
    let scale: f64 = args.get_num("scale", 1.0);
    let dir = graphstore::TempDir::new("fig10")?;
    let want = match group.as_str() {
        "big" => graphgen::DatasetGroup::Big,
        _ => graphgen::DatasetGroup::Small,
    };

    println!(
        "Fig. 10 — core maintenance, {group} graphs (scale {scale}): avg over {EDGES_PER_TEST} deletes then {EDGES_PER_TEST} inserts\n"
    );
    let mut t = Table::new(&[
        "dataset",
        "algorithm",
        "avg time",
        "avg I/Os",
        "avg node comps",
    ]);
    for spec in graphgen::paper_datasets() {
        if spec.group != want {
            continue;
        }
        // Two-phase insertion run (also yields the SemiDelete* numbers).
        let (del, ins_plain) = run_semi(&spec, scale, &dir, false)?;
        // One-phase insertion run on a fresh graph/state.
        let (_, ins_star) = run_semi(&spec, scale, &dir, true)?;
        let mut push = |algo: &str, a: &UpdateCost| {
            t.row(vec![
                spec.name.to_string(),
                algo.to_string(),
                fmt_secs(a.time),
                fmt_count(a.ios),
                fmt_count(a.computations),
            ]);
        };
        push("SemiInsert", &ins_plain);
        push("SemiInsert*", &ins_star);
        push("SemiDelete*", &del);
        if want == graphgen::DatasetGroup::Small {
            let (im_del, im_ins) = run_inmem(&spec, scale, &dir)?;
            push("IMInsert", &im_ins);
            push("IMDelete", &im_del);
        }
    }
    t.print();
    println!("\npaper shape to check: SemiDelete* cheapest; SemiInsert* well below SemiInsert;");
    println!("semi-external maintenance competitive with the in-memory baseline.");
    Ok(())
}

//! Figure 10 — core maintenance: average time (10a/10b), charged reads
//! (10c/10d) and node computations per update, following the paper's
//! protocol:
//!
//! *"We randomly select 100 distinct existing edges … remove the 100 edges
//! one by one and take the average … after the 100 edges are removed, we
//! insert them into the graph one by one and take the average."*
//!
//! Small group also runs the in-memory baseline (IMInsert / IMDelete).
//! The protocol and the victims are `kcore_bench::paper`'s, the ones
//! `tests/paper_claims.rs` asserts on at `--scale 0.03`.
//!
//! ```sh
//! cargo run --release -p kcore-bench --bin fig10_maintenance -- --group small
//! cargo run --release -p kcore-bench --bin fig10_maintenance -- --group big [--scale 0.5]
//! ```

use graphgen::DatasetGroup;
use kcore_bench::harness::{fmt_count, fmt_secs, Args, Table};
use kcore_bench::paper::{self, PhaseCost};

fn main() -> graphstore::Result<()> {
    let mut args = Args::parse();
    let group = args.group();
    let scale: f64 = args.get_num("scale", 1.0);
    args.finish();
    let dir = graphstore::TempDir::new("fig10")?;

    println!(
        "Fig. 10 — core maintenance, {group:?} graphs (scale {scale}): avg over the deletes, then over the re-inserts\n"
    );
    let mut t = Table::new(&[
        "dataset",
        "algorithm",
        "avg time",
        "avg reads",
        "avg node comps",
    ]);
    for spec in graphgen::paper_datasets() {
        if spec.group != group {
            continue;
        }
        let g = spec.generate_mem(scale);
        let victims = paper::fig10_victims(&spec, &g);
        let [[delete, two_phase], [_, one_phase]] =
            paper::delete_then_reinsert(&g, &dir.path().join(spec.name), &victims, |_, _| {})?;
        let mut push = |algo: &str, cost: PhaseCost| {
            let avg = cost.per_update(victims.len());
            t.row(vec![
                spec.name.to_string(),
                algo.to_string(),
                fmt_secs(avg.time),
                fmt_count(avg.reads),
                fmt_count(avg.computations),
            ]);
        };
        push("SemiInsert", two_phase);
        push("SemiInsert*", one_phase);
        push("SemiDelete*", delete);
        if group == DatasetGroup::Small {
            let [im_delete, im_insert] = paper::in_memory_delete_then_reinsert(&g, &victims)?;
            push("IMInsert", im_insert);
            push("IMDelete", im_delete);
        }
    }
    t.print();
    println!("\npaper shape to check: SemiDelete* cheapest; SemiInsert* well below SemiInsert;");
    println!("semi-external maintenance competitive with the in-memory baseline.");
    println!("(tests/paper_claims.rs asserts the counter orderings.)");
    Ok(())
}

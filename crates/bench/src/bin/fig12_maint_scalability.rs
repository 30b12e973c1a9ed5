//! Figure 12 — scalability of core maintenance on the Twitter and UK
//! stand-ins: average update time, charged reads and node computations
//! while varying |V| and |E| from 20% to 100%.
//!
//! The paper plots time only — on the stand-ins the one column its claim
//! fails on (page-cache warm, SemiInsert\* is slower at most points while
//! reading and computing less at every one), so the counters are printed
//! beside it. The samples, victims and protocol are `kcore_bench::paper`'s;
//! at `--scale 0.015` they are the ones `tests/paper_claims.rs` asserts
//! the counter ordering on.
//!
//! ```sh
//! cargo run --release -p kcore-bench --bin fig12_maint_scalability [-- --scale 1.0]
//! ```

use kcore_bench::harness::{fmt_count, fmt_secs, Args, Table};
use kcore_bench::paper::{self, PhaseCost};

/// One table cell: average time / reads / node computations per update.
fn cell(cost: PhaseCost, updates: usize) -> String {
    let avg = cost.per_update(updates);
    format!(
        "{} / {} / {}",
        fmt_secs(avg.time),
        fmt_count(avg.reads),
        fmt_count(avg.computations)
    )
}

fn main() -> graphstore::Result<()> {
    let mut args = Args::parse();
    let scale: f64 = args.get_num("scale", 1.0);
    args.finish();
    let dir = graphstore::TempDir::new("fig12")?;

    for name in paper::SCALABILITY_PAIR {
        println!(
            "\nFig. 12 — {name} stand-in (scale {scale}): avg time / reads / node computations per update"
        );
        let mut t = Table::new(&["sample", "SemiInsert", "SemiInsert*", "SemiDelete*"]);
        for (tag, g) in paper::samples(name, scale) {
            let victims = paper::fig12_victims(&g);
            let [[delete, two_phase], [_, one_phase]] =
                paper::delete_then_reinsert(&g, &dir.path().join(&tag), &victims, |_, _| {})?;
            let n = victims.len();
            t.row(vec![
                tag,
                cell(two_phase, n),
                cell(one_phase, n),
                cell(delete, n),
            ]);
        }
        t.print();
    }
    println!("\npaper shape: SemiDelete* best and stable; SemiInsert* below SemiInsert, whose");
    println!("candidate component can be large. Here the counter half holds at every point");
    println!("(tests/paper_claims.rs asserts it); the time half does not, page-cache warm:");
    println!("SemiInsert* is the slower insertion at most points (README, \"Reproduction\").");
    Ok(())
}

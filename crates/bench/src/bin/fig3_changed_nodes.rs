//! Figure 3 — number of nodes whose core estimate changes per SemiCore
//! iteration, on the Twitter and UK stand-ins.
//!
//! The paper's observation driving both optimisations: after the first few
//! iterations only a vanishing fraction of nodes still change, so full
//! re-scans are mostly wasted.
//!
//! ```sh
//! cargo run --release -p kcore-bench --bin fig3_changed_nodes [-- --scale 1.0]
//! ```

use kcore_bench::harness::Args;
use kcore_bench::paper;

fn main() -> graphstore::Result<()> {
    let mut args = Args::parse();
    let scale: f64 = args.get_num("scale", 1.0);
    args.finish();
    let dir = graphstore::TempDir::new("fig3")?;

    for name in paper::SCALABILITY_PAIR {
        let spec = graphgen::dataset_by_name(name).unwrap();
        let base = dir.path().join(name);
        let table = paper::write_table(&spec.generate_mem(scale), &base)?;
        let d = paper::changed_per_iteration(&base)?;
        let series = d.stats.changed_per_iteration.as_ref().unwrap();
        let n = table.num_nodes();
        println!(
            "\nFig. 3 ({name} stand-in): {n} nodes, {} edges, {} iterations",
            table.num_edges(),
            series.len()
        );
        println!(
            "{:>10} {:>14} {:>9}",
            "iteration", "changed nodes", "% of n"
        );
        for (i, &c) in series.iter().enumerate() {
            // Log-style sampling of the series, as the figure's log axis does.
            let it = i + 1;
            let is_pow2 = it & (it - 1) == 0;
            if is_pow2 || it == series.len() {
                println!("{it:>10} {c:>14} {:>8.3}%", 100.0 * c as f64 / n as f64);
            }
        }
        let first = series[0] as f64;
        let tail: u64 = series.iter().skip(series.len() / 2).sum();
        println!(
            "first iteration changed {first:.0} nodes; entire second half of the run changed {tail} — {:.2}% of the first",
            100.0 * tail as f64 / first
        );
    }
    Ok(())
}

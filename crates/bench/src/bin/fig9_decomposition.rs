//! Figure 9 — core decomposition on the 12 datasets: wall-clock time
//! (9a/9b), memory usage (9c/9d) and I/Os (9e/9f).
//!
//! Small group compares SemiCore*, SemiCore+, SemiCore, EMCore and IMCore;
//! big group runs the three semi-external algorithms, as in the paper.
//! Everything runs through `kcore_bench::paper`, so at `--scale 0.03` the
//! small group prints the rows `tests/paper_claims.rs` asserts on.
//!
//! ```sh
//! cargo run --release -p kcore-bench --bin fig9_decomposition -- --group small
//! cargo run --release -p kcore-bench --bin fig9_decomposition -- --group big [--scale 0.5]
//! ```

use graphgen::DatasetGroup;
use graphstore::snapshot_mem;
use kcore_bench::harness::{fmt_bytes, fmt_count, fmt_secs, Args, Table};
use kcore_bench::paper;
use semicore::Decomposition;

/// The in-memory baseline: load the whole graph (charged), then decompose.
fn imcore(base: &std::path::Path) -> graphstore::Result<Decomposition> {
    let t0 = std::time::Instant::now();
    let mut disk = paper::open(base)?;
    let mem = snapshot_mem(&mut disk)?;
    let mut d = semicore::imcore(&mem);
    d.stats.wall_time = t0.elapsed();
    d.stats.io = disk.io();
    Ok(d)
}

fn main() -> graphstore::Result<()> {
    let mut args = Args::parse();
    let group = args.group();
    let scale: f64 = args.get_num("scale", 1.0);
    args.finish();
    let dir = graphstore::TempDir::new("fig9")?;

    println!(
        "Fig. 9 — core decomposition, {group:?} graphs (scale {scale}): time (a/b), memory (c/d), I/Os (e/f)\n"
    );
    let mut t = Table::new(&[
        "dataset",
        "algorithm",
        "time",
        "memory",
        "read I/O",
        "write I/O",
        "iters",
        "node comps",
        "kmax",
    ]);
    for spec in graphgen::paper_datasets() {
        if spec.group != group {
            continue;
        }
        let base = dir.path().join(spec.name);
        let m = paper::write_table(&spec.generate_mem(scale), &base)?.num_edges();
        let mut runs = Vec::from(paper::trio(&base)?);
        if group == DatasetGroup::Small {
            runs.push(paper::emcore(&base, paper::emcore_budget(m))?);
            runs.push(imcore(&base)?);
        }
        for d in runs {
            t.row(vec![
                spec.name.to_string(),
                d.stats.algorithm.to_string(),
                fmt_secs(d.stats.wall_time),
                fmt_bytes(d.stats.peak_memory_bytes),
                fmt_count(d.stats.io.read_ios),
                fmt_count(d.stats.io.write_ios),
                d.stats.iterations.to_string(),
                fmt_count(d.stats.node_computations),
                d.kmax().to_string(),
            ]);
        }
    }
    t.print();
    println!("\npaper shape to check: SemiCore* fastest and lowest-I/O of the semi-external trio;");
    println!(
        "SemiCore lowest memory; EMCore, at its quarter-of-the-adjacency budget, pays write I/Os,"
    );
    println!(
        "does more I/O in total than any of the trio and reads more than SemiCore*, and holds"
    );
    println!("orders of magnitude more memory; IMCore memory ≈ whole graph.");
    println!("(tests/paper_claims.rs asserts the counter orderings.)");
    Ok(())
}

//! Figure 11 — scalability of core decomposition on the Twitter and UK
//! stand-ins, varying |V| (induced node sampling) and |E| (edge sampling)
//! from 20% to 100%: time / charged reads / node computations per
//! algorithm.
//!
//! The samples are `kcore_bench::paper`'s; at `--scale 0.015` they are the
//! ones `tests/paper_claims.rs` asserts the ordering on.
//!
//! ```sh
//! cargo run --release -p kcore-bench --bin fig11_scalability [-- --scale 1.0]
//! ```

use kcore_bench::harness::{fmt_count, fmt_secs, Args, Table};
use kcore_bench::paper;

fn main() -> graphstore::Result<()> {
    let mut args = Args::parse();
    let scale: f64 = args.get_num("scale", 1.0);
    args.finish();
    let dir = graphstore::TempDir::new("fig11")?;

    for name in paper::SCALABILITY_PAIR {
        println!("\nFig. 11 — {name} stand-in (scale {scale}): time / reads / node computations");
        let mut t = Table::new(&[
            "sample",
            "nodes",
            "edges",
            "SemiCore*",
            "SemiCore+",
            "SemiCore",
        ]);
        for (tag, g) in paper::samples(name, scale) {
            let base = dir.path().join(&tag);
            paper::write_table(&g, &base)?;
            let mut row = vec![
                tag,
                fmt_count(g.num_nodes().into()),
                fmt_count(g.num_edges()),
            ];
            row.extend(paper::trio(&base)?.iter().map(|d| {
                format!(
                    "{} / {} / {}",
                    fmt_secs(d.stats.wall_time),
                    fmt_count(d.stats.io.read_ios),
                    fmt_count(d.stats.node_computations)
                )
            }));
            t.row(row);
        }
        t.print();
    }
    println!("\npaper shape to check: time grows with the sample; SemiCore* best everywhere,");
    println!("with the SemiCore-vs-SemiCore* gap widening as |E| grows.");
    println!("(tests/paper_claims.rs asserts the counter ordering at every sample.)");
    Ok(())
}

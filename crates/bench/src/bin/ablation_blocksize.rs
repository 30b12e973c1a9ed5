//! Ablation — block size `B` sweep.
//!
//! The external-memory model charges per block of `B` bytes. This ablation
//! sweeps `B` to show (a) SemiCore*'s I/O count scales as ~1/B on its
//! sequential portions and (b) the algorithm ranking is robust to `B`.
//!
//! ```sh
//! cargo run --release -p kcore-bench --bin ablation_blocksize [-- --scale 0.5]
//! ```

use graphstore::{DiskGraph, IoCounter};
use kcore_bench::harness::{fmt_count, fmt_secs, Args, Table};
use semicore::DecomposeOptions;

fn main() -> graphstore::Result<()> {
    let mut args = Args::parse();
    let scale: f64 = args.get_num("scale", 0.5);
    args.finish();
    let dir = graphstore::TempDir::new("abl-block")?;
    let spec = graphgen::dataset_by_name("Twitter").unwrap();
    let base = dir.path().join("twitter");
    spec.build_disk(&base, scale, IoCounter::new(4096))?;

    println!("Ablation — block size sweep on the Twitter stand-in (scale {scale})\n");
    let mut t = Table::new(&[
        "B",
        "SemiCore* I/O",
        "SemiCore I/O",
        "ratio",
        "SemiCore* time",
    ]);
    for block in [1 << 10, 4 << 10, 16 << 10, 64 << 10] {
        let opts = DecomposeOptions::default();
        let mut d1 = DiskGraph::open(&base, IoCounter::new(block))?;
        let star = semicore::semicore_star(&mut d1, &opts)?;
        let mut d2 = DiskGraph::open(&base, IoCounter::new(block))?;
        let plain = semicore::semicore(&mut d2, &opts)?;
        assert_eq!(star.core, plain.core);
        t.row(vec![
            format!("{} KiB", block >> 10),
            fmt_count(star.stats.io.read_ios),
            fmt_count(plain.stats.io.read_ios),
            format!(
                "{:.1}x",
                plain.stats.io.read_ios as f64 / star.stats.io.read_ios.max(1) as f64
            ),
            fmt_secs(star.stats.wall_time),
        ]);
    }
    t.print();
    println!("\nexpected: both I/O counts fall ~linearly in B; SemiCore* stays ahead at every B.");
    Ok(())
}

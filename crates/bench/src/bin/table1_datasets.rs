//! Table I — dataset statistics.
//!
//! Prints, for each of the 12 stand-ins, the paper's published statistics
//! next to the generated stand-in's measured |V|, |E|, density and kmax.
//!
//! ```sh
//! cargo run --release -p kcore-bench --bin table1_datasets [-- --scale 1.0]
//! ```

use graphgen::paper_datasets;
use kcore_bench::harness::{fmt_count, Args, Table};
use semicore::imcore;

fn main() {
    let mut args = Args::parse();
    let scale: f64 = args.get_num("scale", 1.0);
    args.finish();

    println!("Table I — datasets (paper vs generated stand-ins, scale {scale})\n");
    let mut t = Table::new(&[
        "dataset",
        "|V| paper",
        "|E| paper",
        "dens",
        "kmax",
        "|V| ours",
        "|E| ours",
        "dens",
        "kmax",
    ]);
    for spec in paper_datasets() {
        // Small graphs at full scale, big ones at a quarter to keep Table I
        // generation quick; fig9 uses the full sizes.
        let s = match spec.group {
            graphgen::DatasetGroup::Small => scale,
            graphgen::DatasetGroup::Big => scale * 0.25,
        };
        let mem = spec.generate_mem(s);
        let d = imcore(&mem);
        t.row(vec![
            spec.name.to_string(),
            fmt_count(spec.paper.nodes),
            fmt_count(spec.paper.edges),
            format!("{:.2}", spec.paper.density),
            spec.paper.kmax.to_string(),
            fmt_count(mem.num_nodes() as u64),
            fmt_count(mem.num_edges()),
            format!("{:.2}", mem.num_edges() as f64 / mem.num_nodes() as f64),
            d.kmax().to_string(),
        ]);
    }
    t.print();
    println!("\nnote: kmax does not scale linearly with |V|; the stand-ins match density and skew, not absolute kmax.");
}

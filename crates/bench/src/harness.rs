//! Shared plumbing for the figure/table harness binaries: a tiny argument
//! parser, aligned table printing, and dataset preparation.

use std::collections::HashMap;

use graphgen::DatasetSpec;
use graphstore::{DiskGraph, IoCounter, MemGraph, Result, TempDir};

/// Deterministic ablation workload shared by the `ablation_*` sweeps:
/// a `family` ("ba" or "rmat") graph targeting `edges` edges at average
/// density `m/n ≈ density`.
pub fn graph_standin(family: &str, edges: u64, density: u64) -> MemGraph {
    let density = density.max(2);
    match family {
        "ba" => {
            let n = (edges / density).max(64) as u32;
            MemGraph::from_edges(graphgen::preferential_attachment(n, density as u32, 42), n)
        }
        _ => {
            let n_target = (edges / density).max(64);
            let scale = (64 - n_target.leading_zeros() as u64).clamp(8, 30) as u32;
            let p = graphgen::Rmat::web(scale);
            // Oversample: R-MAT repeats edges, normalisation dedups (heavily
            // at high density).
            MemGraph::from_edges(graphgen::rmat_edges(p, edges * 3, 42), p.num_nodes())
        }
    }
}

/// Minimal `--key value` / `--flag` argument parser (no external crates).
#[derive(Debug)]
pub struct Args {
    map: HashMap<String, String>,
}

impl Args {
    /// Parse the process arguments.
    pub fn parse() -> Args {
        let mut map = HashMap::new();
        let mut iter = std::env::args().skip(1).peekable();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => iter.next().unwrap(),
                    _ => String::from("true"),
                };
                map.insert(key.to_string(), value);
            }
        }
        Args { map }
    }

    /// String option with default.
    pub fn get(&self, key: &str, default: &str) -> String {
        self.map
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Parsed numeric option with default.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.map
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Boolean flag.
    pub fn flag(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }
}

/// Aligned plain-text table writer (the harness output format).
#[derive(Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Print with per-column alignment.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    s.push_str(&format!("{:<w$}", c, w = widths[i]));
                } else {
                    s.push_str(&format!("  {:>w$}", c, w = widths[i]));
                }
            }
            println!("{s}");
        };
        line(&self.headers);
        let total = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        println!("{}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Human format: durations.
pub fn fmt_secs(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s < 0.001 {
        format!("{:.0} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

/// Human format: byte counts.
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut x = b as f64;
    let mut u = 0;
    while x >= 1024.0 && u + 1 < UNITS.len() {
        x /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{x:.1} {}", UNITS[u])
    }
}

/// Human format: large counts (1.2K / 3.4M / 5.6G).
pub fn fmt_count(c: u64) -> String {
    const UNITS: [&str; 4] = ["", "K", "M", "G"];
    let mut x = c as f64;
    let mut u = 0;
    while x >= 1000.0 && u + 1 < UNITS.len() {
        x /= 1000.0;
        u += 1;
    }
    if u == 0 {
        format!("{c}")
    } else {
        format!("{x:.1}{}", UNITS[u])
    }
}

/// The `p`-th percentile (`0..=100`) of an ascending sample: the element
/// at rank `⌊len · p / 100⌋` (1-based, clamped to the first), 0 when the
/// sample is empty.
pub fn percentile(sorted: &[u64], p: usize) -> u64 {
    let rank = (sorted.len() * p / 100).max(1);
    sorted.get(rank - 1).copied().unwrap_or(0)
}

/// Cost of one maintenance phase (Figs. 10 and 12): wall time, charged I/Os
/// and node computations, summed over its updates by [`UpdateCost::add`].
#[derive(Debug, Default, Clone, Copy)]
pub struct UpdateCost {
    /// Wall-clock time.
    pub time: std::time::Duration,
    /// Charged I/Os, reads plus writes.
    pub ios: u64,
    /// Node computations.
    pub computations: u64,
}

impl UpdateCost {
    /// Add one update's stats.
    pub fn add(&mut self, st: &semicore::MaintainStats) {
        self.time += st.wall_time;
        self.ios += st.total_ios();
        self.computations += st.node_computations;
    }

    /// The average over `updates` updates (at least one).
    pub fn per_update(self, updates: usize) -> UpdateCost {
        let n = updates.max(1);
        UpdateCost {
            time: self.time / n as u32,
            ios: self.ios / n as u64,
            computations: self.computations / n as u64,
        }
    }
}

/// Build a dataset stand-in on disk inside `dir` (cached per scale) and
/// return a freshly counted handle (block size `block`).
pub fn build_dataset(
    spec: &DatasetSpec,
    scale: f64,
    dir: &TempDir,
    block: usize,
) -> Result<DiskGraph> {
    let base = dir
        .path()
        .join(format!("{}-{scale}", spec.name.to_lowercase()));
    let paths = graphstore::GraphPaths::from_base(&base);
    if !paths.nodes.exists() {
        spec.build_disk(&base, scale, IoCounter::new(block))?;
    }
    DiskGraph::open(&base, IoCounter::new(block))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1_500_000), "1.5M");
        assert_eq!(fmt_secs(std::time::Duration::from_millis(250)), "250.0 ms");
    }

    #[test]
    fn percentile_is_defined_on_tiny_samples() {
        assert_eq!(percentile(&[], 99), 0);
        assert_eq!(percentile(&[7], 99), 7);
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 99), 99);
        assert_eq!(percentile(&hundred, 50), 50);
        assert_eq!(percentile(&hundred, 100), 100);
    }

    #[test]
    fn table_prints_without_panic() {
        let mut t = Table::new(&["a", "bbb"]);
        t.row(vec!["x".into(), "123456".into()]);
        t.print();
    }

    #[test]
    fn dataset_build_is_cached() {
        let spec = graphgen::dataset_by_name("DBLP").unwrap();
        let dir = TempDir::new("harness").unwrap();
        let a = build_dataset(&spec, 0.02, &dir, 4096).unwrap();
        let b = build_dataset(&spec, 0.02, &dir, 4096).unwrap();
        assert_eq!(a.num_edges(), b.num_edges());
    }
}

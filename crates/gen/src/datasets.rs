//! Scaled stand-ins for the paper's 12 evaluation datasets (Table I).
//!
//! Each spec records the real graph's published statistics (for the
//! paper-vs-measured comparison in the README's "Reproduction" section and
//! the `table1_datasets` printer of `kcore-bench`) and a generator recipe that
//! reproduces its shape class at a size this machine chews through in
//! seconds: preferential attachment for the social/citation networks, R-MAT
//! for the web crawls, with the average density `m/n` matched to Table I.
//!
//! `scale = 1.0` targets the default stand-in sizes (small group ≈ n/50,
//! big group ≈ n/500 of the real graphs, capped to keep Clueweb tractable);
//! the bench harness exposes `--scale` to grow or shrink everything
//! proportionally.

use graphstore::memgraph::{in_ranges, range_count};
use graphstore::{DiskGraph, ExternalGraphBuilder, IoCounter, MemGraph, Result};
use std::path::Path;
use std::sync::Arc;

use crate::ba::preferential_attachment;
use crate::rmat::{rmat_range, rmat_stream, Rmat};

/// Which evaluation group a dataset belongs to (Fig. 9/10 split them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetGroup {
    /// Group one: the six memory-resident graphs.
    Small,
    /// Group two: the six big graphs.
    Big,
}

/// Published statistics of the real dataset (Table I).
#[derive(Debug, Clone, Copy)]
pub struct PaperStats {
    /// |V| of the real graph.
    pub nodes: u64,
    /// |E| of the real graph.
    pub edges: u64,
    /// Density m/n reported in Table I.
    pub density: f64,
    /// kmax reported in Table I.
    pub kmax: u32,
}

/// Generator family used for the stand-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Preferential attachment (social / citation shape).
    Social,
    /// R-MAT (web crawl shape).
    Web,
}

/// One Table I row: the real statistics plus the scaled stand-in recipe.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name as used in the paper.
    pub name: &'static str,
    /// Small or big group.
    pub group: DatasetGroup,
    /// Real-graph statistics from Table I.
    pub paper: PaperStats,
    /// Generator family.
    pub family: Family,
    /// Stand-in node count at `scale = 1.0`.
    pub base_nodes: u32,
    /// Deterministic seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// Stand-in node count at the given scale.
    pub fn nodes(&self, scale: f64) -> u32 {
        ((self.base_nodes as f64 * scale) as u32).max(64)
    }

    /// Stand-in edge target at the given scale (density matched to Table I).
    pub fn edge_target(&self, scale: f64) -> u64 {
        (self.nodes(scale) as f64 * self.paper.density) as u64
    }

    /// Generate the stand-in in memory (fine for the small group and for
    /// tests; the big group at large scales should go straight to disk).
    ///
    /// The Web arm draws [`range_count`] consecutive ranges of the R-MAT
    /// stream ([`rmat_range`]) on threads of their own and normalises them
    /// in order: the graph is the one a single sequential draw gives,
    /// whatever the count.
    pub fn generate_mem(&self, scale: f64) -> MemGraph {
        let n = self.nodes(scale);
        match self.family {
            Family::Social => {
                let k = (self.paper.density.round() as u32).max(1);
                MemGraph::from_edges(preferential_attachment(n, k, self.seed), n)
            }
            Family::Web => {
                let p = Rmat::web(log2_ceil(n));
                // Oversample: R-MAT repeats edges, normalisation dedups.
                let m = (self.edge_target(scale) as f64 * 1.15) as u64;
                let ranges = range_count(m) as u64;
                let parts = in_ranges((0..ranges).collect(), |j| {
                    let range = m * j / ranges..m * (j + 1) / ranges;
                    let mut part = Vec::with_capacity((range.end - range.start) as usize);
                    rmat_range(p, range, self.seed, |u, v| {
                        if u < n && v < n {
                            part.push((u, v));
                        }
                    });
                    part
                });
                MemGraph::from_edge_parts(parts, n)
            }
        }
    }

    /// Generate the stand-in directly on disk, returning the opened graph.
    /// Used for the big group.
    ///
    /// Memory depends on the family. The Web arm streams R-MAT draws
    /// straight into the external builder, so it holds only the builder's
    /// bound: a run of 4 Mi directed edges (32 MiB) plus `O(n)` node state
    /// (see [`ExternalGraphBuilder`]). The Social arm is not bounded:
    /// [`preferential_attachment`] returns the whole edge `Vec` (8 B per
    /// edge) and samples from an endpoint pool of two `u32`s per edge
    /// (8 B per edge more), 16 B per edge in all before the builder sees
    /// an edge.
    pub fn build_disk(
        &self,
        base: &Path,
        scale: f64,
        counter: Arc<IoCounter>,
    ) -> Result<DiskGraph> {
        let n = self.nodes(scale);
        let mut builder = ExternalGraphBuilder::new(4 << 20)?;
        match self.family {
            Family::Social => {
                let k = (self.paper.density.round() as u32).max(1);
                for (u, v) in preferential_attachment(n, k, self.seed) {
                    builder.add_edge(u, v)?;
                }
            }
            Family::Web => {
                let p = Rmat::web(log2_ceil(n));
                let m = (self.edge_target(scale) as f64 * 1.15) as u64;
                let mut err = None;
                rmat_stream(p, m, self.seed, |u, v| {
                    if err.is_none() && u < n && v < n {
                        if let Err(e) = builder.add_edge(u, v) {
                            err = Some(e);
                        }
                    }
                });
                if let Some(e) = err {
                    return Err(e);
                }
            }
        }
        builder.finish(base, n, counter)
    }
}

fn log2_ceil(n: u32) -> u32 {
    32 - n.next_power_of_two().leading_zeros() - 1
}

/// The 12 Table I rows with their stand-in recipes.
pub fn paper_datasets() -> Vec<DatasetSpec> {
    use DatasetGroup::*;
    use Family::*;
    let row = |name, group, nodes, edges, density, kmax, family, base_nodes, seed| DatasetSpec {
        name,
        group,
        paper: PaperStats {
            nodes,
            edges,
            density,
            kmax,
        },
        family,
        base_nodes,
        seed,
    };
    vec![
        // Small group: real n / 50.
        row(
            "DBLP", Small, 317_080, 1_049_866, 3.31, 113, Social, 6_342, 101,
        ),
        row(
            "Youtube", Small, 1_134_890, 2_987_624, 2.63, 51, Social, 22_698, 102,
        ),
        row(
            "WIKI", Small, 2_394_385, 5_021_410, 2.10, 131, Web, 47_888, 103,
        ),
        row(
            "CPT", Small, 3_774_768, 16_518_948, 4.38, 64, Social, 75_495, 104,
        ),
        row(
            "LJ", Small, 3_997_962, 34_681_189, 8.67, 360, Social, 79_959, 105,
        ),
        row(
            "Orkut",
            Small,
            3_072_441,
            117_185_083,
            38.14,
            253,
            Social,
            61_449,
            106,
        ),
        // Big group: real n / 500, Clueweb capped for tractability.
        row(
            "Webbase",
            Big,
            118_142_155,
            1_019_903_190,
            8.63,
            1506,
            Web,
            236_284,
            107,
        ),
        row(
            "IT",
            Big,
            41_291_594,
            1_150_725_436,
            27.86,
            3224,
            Web,
            82_583,
            108,
        ),
        row(
            "Twitter",
            Big,
            41_652_230,
            1_468_365_182,
            35.25,
            2488,
            Social,
            83_304,
            109,
        ),
        row(
            "SK",
            Big,
            50_636_154,
            1_949_412_601,
            38.49,
            4510,
            Web,
            101_272,
            110,
        ),
        row(
            "UK",
            Big,
            105_896_555,
            3_738_733_648,
            35.30,
            5704,
            Web,
            211_793,
            111,
        ),
        row(
            "Clueweb",
            Big,
            978_408_098,
            42_574_107_469,
            43.51,
            4244,
            Web,
            489_204,
            112,
        ),
    ]
}

/// Look up a dataset spec by (case-insensitive) name.
pub fn dataset_by_name(name: &str) -> Option<DatasetSpec> {
    paper_datasets()
        .into_iter()
        .find(|d| d.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstore::TempDir;

    #[test]
    fn twelve_rows_matching_table_one() {
        let ds = paper_datasets();
        assert_eq!(ds.len(), 12);
        assert_eq!(
            ds.iter().filter(|d| d.group == DatasetGroup::Small).count(),
            6
        );
        let clueweb = ds.last().unwrap();
        assert_eq!(clueweb.name, "Clueweb");
        assert_eq!(clueweb.paper.nodes, 978_408_098);
        assert_eq!(clueweb.paper.kmax, 4244);
    }

    #[test]
    fn density_of_standins_tracks_table_one() {
        for d in paper_datasets()
            .iter()
            .filter(|d| d.group == DatasetGroup::Small)
        {
            let g = d.generate_mem(0.1);
            let density = g.num_edges() as f64 / g.num_nodes() as f64;
            let target = d.paper.density;
            assert!(
                density > 0.4 * target && density < 2.0 * target,
                "{}: density {density:.2} vs target {target:.2}",
                d.name
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let d = dataset_by_name("dblp").unwrap();
        assert_eq!(d.generate_mem(0.05), d.generate_mem(0.05));
    }

    #[test]
    fn disk_build_matches_mem_build() {
        let d = dataset_by_name("WIKI").unwrap();
        let mem = d.generate_mem(0.02);
        let dir = TempDir::new("dataset").unwrap();
        let mut disk = d
            .build_disk(
                &dir.path().join("g"),
                0.02,
                IoCounter::new(graphstore::DEFAULT_BLOCK_SIZE),
            )
            .unwrap();
        assert_eq!(disk.num_nodes(), mem.num_nodes());
        assert_eq!(disk.num_edges(), mem.num_edges());
        let back = graphstore::disk_to_mem(&mut disk).unwrap();
        assert_eq!(back, mem);
    }

    #[test]
    fn unknown_dataset_is_none() {
        assert!(dataset_by_name("nope").is_none());
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(64), 6);
        assert_eq!(log2_ceil(65), 7);
        assert_eq!(log2_ceil(1), 0);
    }
}

//! Serving tables from before the packed node index.
//!
//! A legacy node table (12-byte entries, magic `KCORNOD1`) serves as it
//! is, and a compaction is its migration: the next generation is written
//! as a packed index whatever is buffered, even with nothing to fold, and
//! the directory stays fsck-clean and reopens on the same cores.

use std::path::Path;

use graphstore::format::{NODE_INDEX_MAGIC, NODE_MAGIC};
use graphstore::{
    generation_base, DiskGraph, FormatVersion, GraphPaths, IoCounter, NodeLayout, TempDir,
    DEFAULT_BLOCK_SIZE,
};
use testutil::{oracle_cores, random_mem_graph, write_legacy_tables, Lcg};

fn layout(base: &Path) -> NodeLayout {
    DiskGraph::open(base, IoCounter::new(DEFAULT_BLOCK_SIZE))
        .unwrap()
        .meta()
        .layout
}

fn magic(base: &Path) -> [u8; 8] {
    let bytes = std::fs::read(GraphPaths::from_base(base).nodes).unwrap();
    bytes[..8].try_into().unwrap()
}

#[test]
fn a_compaction_migrates_a_legacy_node_table_to_the_packed_index() {
    let dir = TempDir::new("node-index-migrate").unwrap();
    let g = random_mem_graph(&mut Lcg::new(55), 150, 60, 5);
    for (round, insert) in [(0, true), (1, false)] {
        let data = dir.path().join(format!("data{round}"));
        let base = dir.path().join(format!("g{round}"));
        write_legacy_tables(&base, &g, FormatVersion::V3).unwrap();
        assert_eq!(&magic(&base), NODE_MAGIC);
        let cores = {
            let svc = testutil::create_durable(&data, 1 << 20).unwrap();
            svc.open("g", &base).unwrap();
            assert_eq!(svc.format_version("g").unwrap(), FormatVersion::V3);
            assert_eq!(svc.cores("g").unwrap(), oracle_cores(&g));
            let mut expected = g.clone();
            if insert {
                let (u, v) = (0..g.num_nodes())
                    .flat_map(|u| (u + 1..g.num_nodes()).map(move |v| (u, v)))
                    .find(|&(u, v)| !g.neighbors(u).contains(&v))
                    .unwrap();
                svc.insert_edge("g", u, v).unwrap();
                let edges = g.edges().chain([(u, v)]);
                expected = graphstore::MemGraph::from_edges(edges, g.num_nodes());
            }
            // Nothing to fold or not, the legacy layout is rewritten.
            assert_eq!(svc.compact("g").unwrap(), 1, "round {round}");
            let cores = svc.cores("g").unwrap();
            assert_eq!(cores, oracle_cores(&expected), "round {round}");
            assert!(svc.verify("g").unwrap());
            cores
        };
        let g1 = generation_base(&base, 1);
        assert_eq!(&magic(&g1), NODE_INDEX_MAGIC, "round {round}");
        assert!(matches!(layout(&g1), NodeLayout::Packed { .. }));
        // The user's generation-0 tables are left as they were.
        assert_eq!(layout(&base), NodeLayout::Entries);
        let report = kcore_suite::fsck(&data, false).unwrap();
        assert!(report.clean(), "round {round}: {:?}", report.findings);
        let svc = testutil::open_catalog(&data).unwrap();
        assert_eq!(svc.cores("g").unwrap(), cores, "round {round}");
        assert!(svc.verify("g").unwrap());
        // Packed now: a second empty compaction is a checkpoint.
        assert_eq!(svc.compact("g").unwrap(), 1, "round {round}");
        assert!(!GraphPaths::from_base(&generation_base(&base, 2))
            .nodes
            .exists());
    }
}

#[test]
fn legacy_v1_tables_serve_and_migrate_to_packed_v3() {
    let dir = TempDir::new("node-index-v1").unwrap();
    let data = dir.path().join("data");
    let base = dir.path().join("g");
    let g = random_mem_graph(&mut Lcg::new(7), 90, 30, 4);
    write_legacy_tables(&base, &g, FormatVersion::V1).unwrap();
    let svc = testutil::create_durable(&data, 1 << 20).unwrap();
    svc.open("g", &base).unwrap();
    assert_eq!(svc.format_version("g").unwrap(), FormatVersion::V1);
    assert_eq!(svc.cores("g").unwrap(), oracle_cores(&g));
    assert_eq!(svc.compact("g").unwrap(), 1);
    let g1 = generation_base(&base, 1);
    let disk = DiskGraph::open(&g1, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
    assert!(disk.meta().is_current(), "{:?}", disk.meta());
    assert_eq!(svc.cores("g").unwrap(), oracle_cores(&g));
}

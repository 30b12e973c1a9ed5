//! End-to-end flows across all crates: dataset presets → disk graphs →
//! decomposition → maintenance → verification, exactly as the bench harness
//! drives them.

use graphgen::{dataset_by_name, paper_datasets, sample_edges, sample_nodes};
use graphstore::{snapshot_mem, IoCounter, TempDir, DEFAULT_BLOCK_SIZE};
use kcore_suite::CoreIndex;
use semicore::{verify_exact, DecomposeOptions, EmCoreOptions};

#[test]
fn every_dataset_standin_decomposes_consistently() {
    // A tiny scale keeps this under a second per dataset while still
    // exercising every preset's generator path.
    for spec in paper_datasets() {
        let mut g = spec.generate_mem(0.01);
        let star = semicore::semicore_star(&mut g, &DecomposeOptions::default()).unwrap();
        let oracle = semicore::imcore(&g);
        assert_eq!(star.core, oracle.core, "{}", spec.name);
        assert!(star.kmax() >= 1, "{} stand-in degenerate", spec.name);
    }
}

#[test]
fn emcore_runs_on_disk_built_dataset() {
    let spec = dataset_by_name("DBLP").unwrap();
    let dir = TempDir::new("e2e").unwrap();
    let mut disk = spec
        .build_disk(
            &dir.path().join("g"),
            0.05,
            IoCounter::new(DEFAULT_BLOCK_SIZE),
        )
        .unwrap();
    let opts = EmCoreOptions {
        partition_bytes: 8192,
        memory_budget: 64 << 10,
    };
    let em = semicore::emcore(&mut disk, &opts).unwrap();
    let mem = snapshot_mem(&mut disk).unwrap();
    assert_eq!(em.core, semicore::imcore(&mem).core);
    assert!(em.stats.io.write_ios > 0);
}

#[test]
fn scalability_samplers_preserve_decomposability() {
    let spec = dataset_by_name("Twitter").unwrap();
    let g = spec.generate_mem(0.02);
    for pct in [0.2, 0.6, 1.0] {
        let mut sn = sample_nodes(&g, pct, 9);
        let mut se = sample_edges(&g, pct, 9);
        let dn = semicore::semicore_star(&mut sn, &DecomposeOptions::default()).unwrap();
        let de = semicore::semicore_star(&mut se, &DecomposeOptions::default()).unwrap();
        assert!(verify_exact(&mut sn, &dn.core).unwrap());
        assert!(verify_exact(&mut se, &de.core).unwrap());
    }
}

#[test]
fn core_index_maintains_through_heavy_stream() {
    let spec = dataset_by_name("Youtube").unwrap();
    let g = spec.generate_mem(0.02);
    let dir = TempDir::new("e2e").unwrap();
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let mut idx =
        CoreIndex::create(&dir.path().join("g"), edges.iter().copied(), g.num_nodes()).unwrap();

    // Delete 50 edges, reinsert them (the Fig. 10 protocol), then verify.
    let victims: Vec<(u32, u32)> = edges.iter().step_by(edges.len() / 50).copied().collect();
    for &(u, v) in &victims {
        idx.delete_edge(u, v).unwrap();
    }
    for &(u, v) in &victims {
        idx.insert_edge(u, v).unwrap();
    }
    // After delete+reinsert the decomposition must equal the original.
    let mut g2 = g.clone();
    let fresh = semicore::semicore_star(&mut g2, &DecomposeOptions::default()).unwrap();
    assert_eq!(idx.cores(), fresh.core.as_slice());
    assert!(idx.verify().unwrap());
}

#[test]
fn decomposition_io_scales_with_iterations_not_updates() {
    // SemiCore* on a disk graph: re-running on the identical graph performs
    // identical I/O (deterministic accounting).
    let spec = dataset_by_name("WIKI").unwrap();
    let g = spec.generate_mem(0.02);
    let dir = TempDir::new("e2e").unwrap();
    let run = || {
        let mut disk = graphstore::mem_to_disk(
            &dir.path().join(format!("g{}", std::process::id())),
            &g,
            IoCounter::new(DEFAULT_BLOCK_SIZE),
        )
        .unwrap();
        semicore::semicore_star(&mut disk, &DecomposeOptions::default()).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.stats.io, b.stats.io);
    assert_eq!(a.stats.node_computations, b.stats.node_computations);
}

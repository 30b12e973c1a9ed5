//! Every stand-in graph, pinned bit for bit.
//!
//! The charged counts behind each paper claim and each benchmark workload
//! are counts over these graphs, so a generator or normaliser change that
//! moves a single edge moves them all. Each row pins `(n, m, FNV-1a 64)`
//! of the CSR a spec's `generate_mem` returns — the hash runs over the
//! offsets (`u64` little-endian) and then the neighbour array (`u32`
//! little-endian). The constants were recorded from the sort-based
//! normaliser and the float R-MAT sampler; a faster kernel must reproduce
//! them exactly.

use graphgen::{dataset_by_name, paper_datasets};
use graphstore::MemGraph;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// `(n, m, hash over offsets then neighbours)`.
fn fingerprint(g: &MemGraph) -> (u32, u64, u64) {
    let mut hash = FNV_OFFSET;
    let mut offset = 0u64;
    hash = fnv1a(hash, &offset.to_le_bytes());
    for v in 0..g.num_nodes() {
        offset += g.degree(v) as u64;
        hash = fnv1a(hash, &offset.to_le_bytes());
    }
    for v in 0..g.num_nodes() {
        for &u in g.neighbors(v) {
            hash = fnv1a(hash, &u.to_le_bytes());
        }
    }
    (g.num_nodes(), g.num_edges(), hash)
}

/// Table I scale for the twelve rows: the printers' small CI scale.
const TABLE1_SCALE: f64 = 0.02;

/// The twelve Table I stand-ins at [`TABLE1_SCALE`], in Table I order.
const TABLE1: [(&str, u32, u64, u64); 12] = [
    ("DBLP", 126, 376, 0x51a7_f603_366e_34ec),
    ("Youtube", 453, 1_328, 0xeb73_6c7f_0f11_c72d),
    ("WIKI", 957, 2_023, 0xaf88_3176_dfdb_30f5),
    ("CPT", 1_509, 6_028, 0x4017_4b4b_7c9d_c255),
    ("LJ", 1_599, 14_331, 0x35cb_6946_8dee_72d2),
    ("Orkut", 1_228, 45_344, 0x9f6f_8579_5554_9078),
    ("Webbase", 4_725, 31_018, 0xa8c5_b989_e9e8_961c),
    ("IT", 1_651, 30_986, 0x5e94_43f4_749f_6493),
    ("Twitter", 1_666, 55_843, 0x76a1_61be_3e3e_5b50),
    ("SK", 2_025, 49_603, 0xccc2_0c9a_8b6d_75c7),
    ("UK", 4_235, 80_723, 0xd038_72f2_4a8a_638c),
    ("Clueweb", 9_784, 278_313, 0xaef1_be97_ca7d_0662),
];

/// The benchmark's four `(dataset, smoke scale)` stand-ins.
const BENCH_SMOKE: [(&str, f64, u32, u64, u64); 4] = [
    ("Clueweb", 0.004, 1_956, 52_672, 0xb194_66cf_7e72_353c),
    ("Orkut", 0.03, 1_843, 69_335, 0x21a9_ce54_6171_d8b5),
    ("DBLP", 0.1, 634, 1_857, 0x0261_ad7e_0f21_e7cd),
    ("UK", 0.01, 2_117, 37_276, 0xb1ea_47aa_0422_1418),
];

fn check(rows: impl Iterator<Item = (&'static str, f64, (u32, u64, u64))>) {
    let mut wrong = Vec::new();
    for (name, scale, want) in rows {
        let spec = dataset_by_name(name).unwrap();
        let got = fingerprint(&spec.generate_mem(scale));
        if got != want {
            wrong.push(format!(
                "{name} at {scale}: got ({}, {}, {:#018x}), pinned ({}, {}, {:#018x})",
                got.0, got.1, got.2, want.0, want.1, want.2
            ));
        }
    }
    assert!(wrong.is_empty(), "stand-ins moved:\n{}", wrong.join("\n"));
}

#[test]
fn table1_standins_are_pinned() {
    let names: Vec<_> = paper_datasets().iter().map(|d| d.name).collect();
    assert_eq!(names, TABLE1.map(|row| row.0));
    check(
        TABLE1
            .into_iter()
            .map(|(name, n, m, h)| (name, TABLE1_SCALE, (n, m, h))),
    );
}

#[test]
fn benchmark_smoke_standins_are_pinned() {
    check(
        BENCH_SMOKE
            .into_iter()
            .map(|(name, scale, n, m, h)| (name, scale, (n, m, h))),
    );
}

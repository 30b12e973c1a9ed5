//! Decode bandwidth — format v2 (delta-gap varints) vs v3 (stream-vbyte
//! groups), plus the readahead-pipelined full scan.
//!
//! Varint decode is branchy: every byte carries a continuation bit, so the
//! decoder cannot know where value `i + 1` starts before finishing value
//! `i`. Format v3 moves the length information into a separate control
//! stream (one 2-bit code per gap, four to a control byte), which turns
//! the data stream into straight-line loads — and on AVX2 hardware into
//! one `vpshufb` per eight gaps. This harness measures the in-memory
//! decode rate of both codecs over the same R-MAT adjacency lists, the rate
//! of a fully cached `with_adjacency` sweep of the same lists on disk (the
//! storage stack's overhead on top of the kernel: node-table lookups,
//! block transitions, accounting, validation), and the end-to-end
//! full-scan wall time with block readahead on and off.
//!
//! The binary is also the format's regression gate: it **fails loudly**
//! (non-zero exit) if the v3 decoder (runtime-dispatched) delivers less
//! than 2x the v2 scalar decode bandwidth, if the cached sweep sustains
//! less than half the kernel's rate (the first layer-vs-layer gate of the
//! roofline in ARCHITECTURE.md), or if readahead changes any charged
//! counter. The full (non-`--smoke`) run on a machine with at
//! least two cores additionally requires the readahead scan's
//! best-of-trials wall time to be no slower than 1.05x the synchronous
//! scan (with one core the worker has nothing to overlap with and the
//! comparison only measures scheduling overhead).
//!
//! ```sh
//! cargo run --release -p kcore-bench --bin decode_bw \
//!     [-- --family rmat --edges 400000 --smoke]
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

use graphstore::codec::{
    decode_gap_run, decode_group_run, decode_group_run_scalar, encode_gap_run, encode_group_run,
};
use graphstore::{
    write_mem_graph_with, DiskGraph, FormatVersion, GraphPaths, IoCounter, MemGraph,
    DEFAULT_BLOCK_SIZE,
};
use kcore_bench::harness::{fmt_bytes, fmt_count, Args, Table};

/// One encoded corpus: every adjacency list of `g` as a separate run,
/// matching the on-disk per-node layout.
struct Corpus {
    /// `(byte_range, count)` per node into `bytes`.
    runs: Vec<(std::ops::Range<usize>, usize)>,
    bytes: Vec<u8>,
    total_ids: u64,
}

fn encode_corpus(g: &MemGraph, mut enc: impl FnMut(&[u32], &mut Vec<u8>)) -> Corpus {
    let mut bytes = Vec::new();
    let mut runs = Vec::with_capacity(g.num_nodes() as usize);
    let mut total_ids = 0u64;
    for v in 0..g.num_nodes() {
        let nbrs = g.neighbors(v);
        let at = bytes.len();
        enc(nbrs, &mut bytes);
        runs.push((at..bytes.len(), nbrs.len()));
        total_ids += nbrs.len() as u64;
    }
    Corpus {
        runs,
        bytes,
        total_ids,
    }
}

/// One full-corpus decode pass; returns its wall time.
fn decode_pass(c: &Corpus, mut decode: impl FnMut(&[u8], usize, &mut Vec<u32>)) -> Duration {
    let mut out = Vec::new();
    let t0 = Instant::now();
    for (range, count) in &c.runs {
        out.clear();
        decode(&c.bytes[range.clone()], *count, &mut out);
        black_box(out.last());
    }
    t0.elapsed()
}

/// One full-graph `with_adjacency` sweep of `dg`; returns its wall time.
fn sweep_pass(dg: &mut DiskGraph) -> graphstore::Result<Duration> {
    let t0 = Instant::now();
    let mut checksum = 0u64;
    for v in 0..dg.num_nodes() {
        checksum ^= dg.with_adjacency(v, |nbrs| nbrs.last().copied().unwrap_or(0) as u64)?;
    }
    black_box(checksum);
    Ok(t0.elapsed())
}

/// Cold uncached full-graph sweep; returns (wall, charged snapshot).
fn sweep(
    base: &std::path::Path,
    readahead: bool,
) -> graphstore::Result<(Duration, graphstore::IoSnapshot)> {
    let counter = IoCounter::new(DEFAULT_BLOCK_SIZE);
    let mut dg = DiskGraph::open(base, counter.clone())?;
    dg.set_readahead(readahead)?;
    Ok((sweep_pass(&mut dg)?, counter.snapshot()))
}

fn main() -> graphstore::Result<()> {
    let mut args = Args::parse();
    let family = args.family();
    let smoke = args.flag("smoke");
    let target_edges: u64 = args.get_num("edges", if smoke { 120_000 } else { 400_000 });
    let density: u64 = args.get_num("density", 24);
    let trials: usize = args.get_num("trials", if smoke { 5 } else { 7 });
    args.finish();

    let g = kcore_bench::harness::graph_standin(family, target_edges, density);
    let v2 = encode_corpus(&g, encode_gap_run);
    let v3 = encode_corpus(&g, encode_group_run);
    let ids = v2.total_ids;
    println!(
        "Decode bandwidth — {family}, {} nodes, {} directed neighbour ids\n\
         encoded adjacency: v2 {} vs v3 {} ({:.2}x v2 size)\n",
        g.num_nodes(),
        fmt_count(ids),
        fmt_bytes(v2.bytes.len() as u64),
        fmt_bytes(v3.bytes.len() as u64),
        v3.bytes.len() as f64 / v2.bytes.len().max(1) as f64,
    );

    // The same lists on disk in v3, behind a cache holding both tables and
    // warmed by one sweep: every later sweep is decode plus the storage
    // stack's per-list overhead, no physical I/O.
    let dir = graphstore::TempDir::new("decode-bw")?;
    let base = dir.path().join("g3");
    write_mem_graph_with(
        &base,
        &g,
        IoCounter::new(DEFAULT_BLOCK_SIZE),
        FormatVersion::V3,
    )?;
    let edge_bytes = std::fs::metadata(GraphPaths::from_base(&base).edges)?.len();
    let mut cached = DiskGraph::open_with_cache(
        &base,
        IoCounter::new(DEFAULT_BLOCK_SIZE),
        graphstore::working_set_charge_budget(&base, DEFAULT_BLOCK_SIZE)?,
    )?;
    sweep_pass(&mut cached)?;
    let cold_reads = cached.io().read_ios;

    // In-memory decode rates, measured in interleaved rounds (one pass per
    // decoder per round, best round kept) so a load burst from elsewhere on
    // the machine skews every decoder alike instead of poisoning the
    // ratios. The memcpy row is the ceiling: v1's raw little-endian u32
    // payload copied straight into the output vec.
    let raw: Vec<u8> = (0..g.num_nodes())
        .flat_map(|v| g.neighbors(v).iter().flat_map(|n| n.to_le_bytes()))
        .collect();
    let mut best = [Duration::MAX; 5];
    let mut memcpy_out: Vec<u8> = Vec::new();
    for _ in 0..trials {
        best[0] = best[0].min(decode_pass(&v2, |b, n, out| {
            decode_gap_run(b, n, out).unwrap();
        }));
        best[1] = best[1].min(decode_pass(&v3, |b, n, out| {
            decode_group_run_scalar(b, n, out).unwrap();
        }));
        best[2] = best[2].min(decode_pass(&v3, |b, n, out| {
            decode_group_run(b, n, out).unwrap();
        }));
        let t0 = Instant::now();
        memcpy_out.clear();
        memcpy_out.extend_from_slice(&raw);
        black_box(memcpy_out.last());
        best[3] = best[3].min(t0.elapsed());
        best[4] = best[4].min(sweep_pass(&mut cached)?);
    }
    assert_eq!(
        cached.io().read_ios,
        cold_reads,
        "the warmed sweeps must be served from the cache"
    );
    let rate = |d: Duration| ids as f64 / d.as_secs_f64().max(1e-12);
    let (v2_rate, v3_scalar_rate, v3_rate, memcpy_rate, sweep_rate) = (
        rate(best[0]),
        rate(best[1]),
        rate(best[2]),
        rate(best[3]),
        rate(best[4]),
    );
    let sweep_to_kernel = sweep_rate / v3_rate;

    let mibs = |rate: f64| format!("{:.0} MiB/s", rate * 4.0 / (1024.0 * 1024.0));
    let mut t = Table::new(&["decoder", "ids/s", "output", "vs v2 scalar", "vs v3 auto"]);
    for (label, rate) in [
        ("v2 scalar (varint)", v2_rate),
        ("v3 scalar (group)", v3_scalar_rate),
        ("v3 auto (group, simd)", v3_rate),
        ("v3 cached with_adjacency sweep", sweep_rate),
        ("memcpy (v1 raw)", memcpy_rate),
    ] {
        t.row(vec![
            label.to_string(),
            fmt_count(rate as u64),
            mibs(rate),
            format!("{:.2}x", rate / v2_rate),
            format!("{:.2}x", rate / v3_rate),
        ]);
    }
    t.print();

    // End-to-end: the same table read cold, full scan with the block
    // readahead pipeline on vs off. Charged counters must be bit-identical
    // — readahead only moves *physical* fetches off the critical path.
    let mut wall = [Duration::MAX; 2]; // [off, on]
    let mut snaps = [None, None];
    for _ in 0..trials {
        for (i, ra) in [(0usize, false), (1usize, true)] {
            let (w, s) = sweep(&base, ra)?;
            wall[i] = wall[i].min(w);
            if let Some(prev) = &snaps[i] {
                assert_eq!(prev, &s, "scan charging must be deterministic");
            }
            snaps[i] = Some(s);
        }
    }
    let (s_off, s_on) = (snaps[0].unwrap(), snaps[1].unwrap());
    println!(
        "\nfull v3 scan ({} on disk): sync {:.1} ms vs readahead {:.1} ms; charged reads {} both",
        fmt_bytes(edge_bytes),
        wall[0].as_secs_f64() * 1e3,
        wall[1].as_secs_f64() * 1e3,
        fmt_count(s_off.read_ios),
    );

    // Regression gates.
    let mut violations = Vec::new();
    if v3_rate < 2.0 * v2_rate {
        violations.push(format!(
            "v3 decode bandwidth {:.0} ids/s is below 2x the v2 scalar {:.0} ids/s",
            v3_rate, v2_rate
        ));
    }
    if sweep_to_kernel < 0.5 {
        violations.push(format!(
            "cached with_adjacency sweep {:.0} ids/s is below 0.5x the v3 kernel {:.0} ids/s ({:.2}x)",
            sweep_rate, v3_rate, sweep_to_kernel
        ));
    }
    if s_on != s_off {
        violations.push(format!(
            "readahead changed charged counters: {s_on:?} vs {s_off:?}"
        ));
    }
    // The wall gate needs real work per scan to rise above scheduler noise
    // (the smoke corpus finishes in microseconds) and a second core for the
    // prefetch worker to run on — on one CPU the pipeline cannot overlap
    // anything and the comparison measures pure scheduling overhead, so it
    // is reported above but only enforced with ≥ 2 cores (best-of-trials,
    // 5% tolerance).
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if !smoke && cores >= 2 && wall[1] > wall[0].mul_f64(1.05) {
        violations.push(format!(
            "readahead scan {:.1} ms is slower than sync {:.1} ms (>5%)",
            wall[1].as_secs_f64() * 1e3,
            wall[0].as_secs_f64() * 1e3,
        ));
    }
    if !violations.is_empty() {
        eprintln!("DECODE BANDWIDTH REGRESSION: {}", violations.join("; "));
        std::process::exit(1);
    }
    Ok(())
}

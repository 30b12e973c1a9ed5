//! Multi-client serving load: sustained throughput and tail latency for
//! `N` concurrent clients mixing maintenance and queries on **one shared
//! durable graph**, at journal gather window 0 vs `--gather-us`.
//!
//! There is one write path: every update is journaled unsynced under the
//! graph's lock and acknowledged by an fsync barrier crossed after the
//! lock is released, so concurrent writers coalesce behind one barrier
//! whatever the window; the window only makes the barrier's leader wait
//! for more of them. The shared graph is the hard case on purpose: every
//! update serializes on the same graph lock, so sharing fsyncs is the
//! *only* available win.
//!
//! Each client owns a disjoint slice of the node-pair space (pair `(u,v)`
//! belongs to client `(u + v) mod N`), so its toggles stay valid under
//! any interleaving and the final state is schedule-independent.
//!
//! The binary is also the barrier-sharing regression gate: it **fails
//! loudly** (non-zero exit) unless, at the multi-client point, both arms
//! issue fewer fsyncs than journaled ops and the windowed arm no more
//! than the zero-window arm — and, at 1 client, exactly one fsync per op
//! (nobody to share with, nothing lost). Throughput is reported, not
//! gated: fsync counts are what the mechanism controls, wall-clock on a
//! shared box is noise on top.
//!
//! ```sh
//! cargo run --release -p kcore-bench --bin serve_load \
//!     [-- --clients 4 --ops 200 --gather-us 150 --smoke --json BENCH_serve.json]
//! ```

use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphstore::{
    EvictionPolicy, FaultPlan, FaultVfs, GroupCommitOptions, TempDir, Vfs, DEFAULT_BLOCK_SIZE,
};
use kcore_bench::harness::{fmt_count, percentile, Args, Table};
use kcore_suite::{CoreService, DurableOptions};
use semicore::ScanExecutor;

const GRAPH: &str = "shared";
const NODES: u32 = 48;

/// The client's toggle schedule over its own pair slice, valid by
/// construction: pair `(u,v)` starts in `base` or not, and alternates.
fn client_toggles(c: usize, clients: usize, ops: usize) -> Vec<(u32, u32)> {
    let mut mine = Vec::new();
    for u in 0..NODES {
        for v in (u + 1)..NODES {
            if (u + v) as usize % clients == c {
                mine.push((u, v));
            }
        }
    }
    // Walk the slice round-robin with a stride so consecutive ops touch
    // different regions of the adjacency table.
    (0..ops).map(|i| mine[(i * 7 + c) % mine.len()]).collect()
}

struct ModeResult {
    ops_per_sec: f64,
    p99_us: u64,
    fsyncs: u64,
}

/// Run the full fleet once at the given journal gather window (`None` is
/// the default, zero).
fn run_mode(
    clients: usize,
    ops: usize,
    group: Option<GroupCommitOptions>,
) -> graphstore::Result<ModeResult> {
    let dir = TempDir::new("serve-load")?;
    let fault = FaultVfs::new(FaultPlan::default());
    let svc = Arc::new(CoreService::create_durable_with_vfs(
        &dir.path().join("data"),
        DEFAULT_BLOCK_SIZE,
        16 << 20,
        EvictionPolicy::ScanLifo,
        ScanExecutor::Sequential,
        DurableOptions {
            checkpoint_every: u64::MAX, // isolate journal batching from checkpoints
            group_commit: group,
            ..Default::default()
        },
        Arc::clone(&fault) as Arc<dyn Vfs>,
    )?);
    // Base graph: a ring, so no client pair collides with a base edge
    // except its own (0 strides handle presence via the local set anyway).
    let base: Vec<(u32, u32)> = (0..NODES).map(|u| (u, (u + 1) % NODES)).collect();
    svc.create(GRAPH, &dir.path().join("base"), base.iter().copied(), NODES)?;
    let base_set: std::collections::BTreeSet<(u32, u32)> =
        base.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();

    let before = fault.sync_events();
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let svc = Arc::clone(&svc);
            let toggles = client_toggles(c, clients, ops);
            let mut present: std::collections::BTreeSet<(u32, u32)> = base_set
                .iter()
                .copied()
                .filter(|&(u, v)| (u + v) as usize % clients == c)
                .collect();
            std::thread::spawn(move || -> graphstore::Result<Vec<u64>> {
                let mut lat = Vec::with_capacity(toggles.len());
                for (i, &e) in toggles.iter().enumerate() {
                    let t = Instant::now();
                    if present.remove(&e) {
                        svc.delete_edge(GRAPH, e.0, e.1)?;
                    } else {
                        present.insert(e);
                        svc.insert_edge(GRAPH, e.0, e.1)?;
                    }
                    lat.push(t.elapsed().as_micros() as u64);
                    // Mixed load: every few updates, a query rides along
                    // (answered from memory, no fsync).
                    if i % 4 == 0 {
                        let _ = svc.kmax(GRAPH)?;
                    }
                }
                Ok(lat)
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(clients * ops);
    for h in handles {
        latencies.extend(h.join().expect("client thread")?);
    }
    let elapsed = t0.elapsed();
    let fsyncs = fault.sync_events() - before;

    latencies.sort_unstable();
    Ok(ModeResult {
        ops_per_sec: (clients * ops) as f64 / elapsed.as_secs_f64(),
        p99_us: percentile(&latencies, 99),
        fsyncs,
    })
}

fn main() -> graphstore::Result<()> {
    let args = Args::parse();
    let smoke = args.flag("smoke");
    let clients: usize = args.get_num("clients", 4);
    let ops: usize = args.get_num("ops", if smoke { 60 } else { 200 });
    let gather_us: u64 = args.get_num("gather-us", 150);
    let json_path = args.get("json", "");

    println!(
        "Serving load — {clients} clients × {ops} updates on one shared graph\n\
         (queries ride along 1:4; gather window {gather_us} µs)\n"
    );

    let mut t = Table::new(&["clients", "window", "ops/sec", "p99 latency", "fsyncs"]);
    let mut json = String::new();
    let mut failures = Vec::new();
    let counts: Vec<usize> = if smoke {
        vec![clients]
    } else {
        [1, 2, clients].iter().copied().filter(|&n| n > 0).collect()
    };
    let windowed_mode = format!("gather-{gather_us}us");
    for &n in &counts {
        let zero = run_mode(n, ops, None)?;
        let windowed = run_mode(
            n,
            ops,
            Some(GroupCommitOptions {
                max_delay: Duration::from_micros(gather_us),
            }),
        )?;
        let journaled = (n * ops) as u64;
        let multi = n == clients && n >= 2;
        for (mode, r) in [("gather-0", &zero), (windowed_mode.as_str(), &windowed)] {
            t.row(vec![
                n.to_string(),
                mode.to_string(),
                format!("{:.0}", r.ops_per_sec),
                format!("{} µs", fmt_count(r.p99_us)),
                fmt_count(r.fsyncs),
            ]);
            json.push_str(&format!(
                "{{\"bench\":\"serve_load\",\"clients\":{n},\"ops\":{ops},\"mode\":\"{mode}\",\"ops_per_sec\":{:.1},\"p99_us\":{},\"fsyncs\":{}}}\n",
                r.ops_per_sec, r.p99_us, r.fsyncs
            ));
            // One writer has nobody to share a barrier with: exactly one
            // fsync per acknowledged op. At the multi-client point the
            // barrier must be shared.
            if n == 1 && r.fsyncs != journaled {
                failures.push(format!(
                    "1 client, {mode}: {} fsyncs != {journaled} journaled ops",
                    r.fsyncs
                ));
            } else if multi && r.fsyncs >= journaled {
                failures.push(format!(
                    "{n} clients, {mode}: {} fsyncs >= {journaled} journaled ops (no barrier shared)",
                    r.fsyncs
                ));
            }
        }
        if multi && windowed.fsyncs > zero.fsyncs {
            failures.push(format!(
                "{n} clients: a {gather_us} µs window issued {} fsyncs > {} at window 0",
                windowed.fsyncs, zero.fsyncs
            ));
        }
    }
    t.print();

    if !json_path.is_empty() {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&json_path)?;
        f.write_all(json.as_bytes())?;
        println!("results appended to {json_path}");
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("BARRIER SHARING REGRESSION: {f}");
        }
        std::process::exit(1);
    }
    Ok(())
}

//! Scrub overhead: what the background integrity scrubber costs the
//! tenants it is protecting. The same single-tenant update/query workload
//! runs twice on a durable graph — once with the self-heal supervisor's
//! scrubber off, once with it scrubbing in a tight loop — and the binary
//! **fails loudly** (non-zero exit) unless scrub-on p99 op latency is
//! ≤ 1.10× the scrub-off p99: the scrubber is token-bucket rate-limited
//! and only takes the graph lock for its short journal phase, so it must
//! stay out of the way. (That it is also invisible to the cost model — the
//! tenant's charged `read_ios` bit-identical with and without it — is
//! deterministic and lives in `tests/self_heal.rs`.)
//!
//! ```sh
//! cargo run --release -p kcore-bench --bin scrub_overhead \
//!     [-- --ops 400 --smoke]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use graphstore::{EvictionPolicy, TempDir, DEFAULT_BLOCK_SIZE};
use kcore_bench::harness::{fmt_count, percentile, Args, Table};
use kcore_suite::{start_self_heal, CoreService, DurableOptions, SelfHealOptions};
use semicore::ScanExecutor;

const GRAPH: &str = "tenant";
const NODES: u32 = 64;

struct ModeResult {
    p99_us: u64,
    ops_per_sec: f64,
}

/// The deterministic toggle schedule: walk the pair space with a stride
/// so consecutive ops touch different adjacency regions.
fn toggles(ops: usize) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    for u in 0..NODES {
        for v in (u + 1)..NODES {
            pairs.push((u, v));
        }
    }
    (0..ops).map(|i| pairs[(i * 13) % pairs.len()]).collect()
}

fn run_mode(scrub: bool, ops: usize) -> graphstore::Result<ModeResult> {
    let dir = TempDir::new("scrub-overhead")?;
    let svc = Arc::new(CoreService::create_durable_with(
        &dir.path().join("data"),
        DEFAULT_BLOCK_SIZE,
        16 << 20,
        EvictionPolicy::ScanLifo,
        ScanExecutor::Sequential,
        DurableOptions {
            checkpoint_every: u64::MAX, // isolate the scrubber from checkpoints
            group_commit: None,
            ..Default::default()
        },
    )?);
    let base: Vec<(u32, u32)> = (0..NODES).map(|u| (u, (u + 1) % NODES)).collect();
    svc.create(GRAPH, &dir.path().join("base"), base.iter().copied(), NODES)?;

    // Scrub-on mode: the supervisor re-walks the tenant's durable
    // artefacts essentially continuously — far harsher than any
    // production interval, so the measured overhead is an upper bound.
    let heal = scrub.then(|| {
        start_self_heal(
            &svc,
            SelfHealOptions {
                scrub_interval: Some(Duration::from_millis(2)),
                poll_interval: Duration::from_millis(1),
                ..SelfHealOptions::default()
            },
        )
    });

    let mut present: std::collections::BTreeSet<(u32, u32)> =
        base.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
    let schedule = toggles(ops);
    let mut lat = Vec::with_capacity(schedule.len());
    let t0 = Instant::now();
    for (i, &e) in schedule.iter().enumerate() {
        let t = Instant::now();
        if present.remove(&e) {
            svc.delete_edge(GRAPH, e.0, e.1)?;
        } else {
            present.insert(e);
            svc.insert_edge(GRAPH, e.0, e.1)?;
        }
        lat.push(t.elapsed().as_micros() as u64);
        if i % 4 == 0 {
            let _ = svc.kmax(GRAPH)?;
        }
    }
    let elapsed = t0.elapsed();
    drop(heal);

    lat.sort_unstable();
    Ok(ModeResult {
        p99_us: percentile(&lat, 99),
        ops_per_sec: ops as f64 / elapsed.as_secs_f64(),
    })
}

fn main() -> graphstore::Result<()> {
    let mut args = Args::parse();
    let smoke = args.flag("smoke");
    let ops: usize = args.get_num("ops", if smoke { 120 } else { 400 });
    args.finish();

    println!(
        "Scrub overhead — {ops} updates (queries riding 1:4) on one durable graph,\n\
         scrubber off vs scrubbing every 2 ms at the default throttled rate\n"
    );

    // Wall-clock on a loaded box is noisy; the latency verdict gets up to
    // three attempts.
    let mut off = run_mode(false, ops)?;
    let mut on = run_mode(true, ops)?;
    for _ in 0..2 {
        if (on.p99_us as f64) <= off.p99_us as f64 * 1.10 {
            break;
        }
        off = run_mode(false, ops)?;
        on = run_mode(true, ops)?;
    }

    let mut t = Table::new(&["mode", "ops/sec", "p99 latency"]);
    for (mode, r) in [("scrub-off", &off), ("scrub-on", &on)] {
        t.row(vec![
            mode.to_string(),
            format!("{:.0}", r.ops_per_sec),
            format!("{} µs", fmt_count(r.p99_us)),
        ]);
    }
    t.print();

    println!(
        "\np99 {} -> {} µs ({:+.1}%)",
        off.p99_us,
        on.p99_us,
        100.0 * (on.p99_us as f64 - off.p99_us as f64) / off.p99_us.max(1) as f64,
    );
    if (on.p99_us as f64) > off.p99_us as f64 * 1.10 {
        eprintln!(
            "SCRUB LATENCY REGRESSION: scrub-on p99 {} µs > 1.10x scrub-off p99 {} µs",
            on.p99_us, off.p99_us
        );
        std::process::exit(1);
    }
    Ok(())
}

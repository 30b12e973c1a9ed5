//! Decomposition modes — is the cold `scan_spill` decomposition's spread
//! in the code or in the host?
//!
//! kbench's `decompose_medges_per_s` on `scan_spill` has read bimodal:
//! runs cluster at two rates on both sides of a comparison, whatever the
//! build. This printer builds the same stand-in once (Clueweb at kbench's
//! `scan_spill` scale, 0.15, with its 10 % block cache) and decomposes it
//! cold `--reps` times in one process, the way kbench's decomposition phase
//! does (`CoreIndex::open_with_cache`, a fresh private cache each time).
//! Per repetition it prints the wall time, the decomposing thread's on-CPU
//! time and run-queue wait (the first two fields of
//! `/proc/thread-self/schedstat`, read before and after), the machine's
//! steal ticks across it (`/proc/stat`), the CPU it ended on and the
//! charged `read_ios`; then the median and interquartile range of the wall-clock
//! and the on-CPU rate. The decomposition runs on the calling thread, so
//! its on-CPU time is all the compute the rate pays for: a wall-clock rate
//! that spreads while the on-CPU rate does not is time the host took away.
//!
//! It reads `/proc` only and changes no setting. It exits non-zero if a
//! repetition charges other than kbench's 10 956 read I/Os (the stand-in or
//! the schedule moved) or disagrees with the first repetition's cores.
//!
//! ```sh
//! cargo run --release -p kcore-bench --bin decompose_modes [-- --reps 30 --smoke]
//! ```

use std::time::Instant;

use graphstore::{write_mem_graph, IoCounter, DEFAULT_BLOCK_SIZE};
use kcore_bench::harness::{Args, Table};
use kcore_suite::CoreIndex;

/// kbench's `scan_spill` stand-in, scale and cache share of the edge table.
const DATASET: &str = "Clueweb";
const SCALE: f64 = 0.15;
const CACHE_SHARE: f64 = 0.10;
/// kbench's `decompose_read_ios` on `scan_spill`.
const READ_IOS: u64 = 10_956;

/// The calling thread's `(on-CPU, run-queue wait)` nanoseconds so far, or
/// `None` where the kernel does not expose schedstat.
fn schedstat() -> Option<(u64, u64)> {
    // The kernel folds a running thread's time into its on-CPU total only
    // at a tick or a reschedule; yielding first makes the reading exact
    // instead of up to a tick stale.
    std::thread::yield_now();
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = s.split_whitespace().map(|f| f.parse().ok());
    Some((fields.next()??, fields.next()??))
}

/// The machine's steal time so far (the hypervisor running something else
/// on a virtual CPU), in clock ticks, from `/proc/stat`.
fn steal_ticks() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/stat").ok()?;
    s.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// The CPU the calling thread last ran on (field 39 of
/// `/proc/thread-self/stat`).
fn last_cpu() -> Option<u32> {
    let s = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3.
    s.rsplit_once(')')?
        .1
        .split_whitespace()
        .nth(36)?
        .parse()
        .ok()
}

/// `(q1, median, q3)` of `xs` by linear interpolation.
fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

fn main() -> graphstore::Result<()> {
    let mut args = Args::parse();
    let smoke = args.flag("smoke");
    let reps: usize = args.get_num("reps", 30);
    args.finish();
    let reps = if smoke { 3 } else { reps.max(1) };

    let dir = graphstore::TempDir::new("decompose-modes")?;
    let base = dir.path().join("g");
    let g = graphgen::dataset_by_name(DATASET)
        .expect("a Table I stand-in")
        .generate_mem(SCALE);
    let paths = write_mem_graph(&base, &g, IoCounter::new(DEFAULT_BLOCK_SIZE))?;
    let edge_bytes = std::fs::metadata(&paths.edges)?.len();
    let cache = ((edge_bytes as f64 * CACHE_SHARE) as u64).max(16 * DEFAULT_BLOCK_SIZE as u64);
    let medges = g.num_edges() as f64 / 1e6;
    println!(
        "Decomposition modes — {DATASET} at {SCALE} ({} nodes, {} edges), {cache} B cache, {reps} cold repetitions\n",
        g.num_nodes(),
        g.num_edges()
    );

    let mut t = Table::new(&[
        "rep",
        "wall ms",
        "on-CPU ms",
        "run-queue ms",
        "steal ticks",
        "cpu",
        "read_ios",
    ]);
    let (mut wall_rates, mut cpu_rates) = (Vec::new(), Vec::new());
    let mut first: Option<Vec<u32>> = None;
    let mut failed = false;
    for rep in 0..reps {
        let (before, steal) = (schedstat(), steal_ticks());
        let start = Instant::now();
        let index = CoreIndex::open_with_cache(&base, cache)?;
        let wall = start.elapsed().as_secs_f64();
        let after = schedstat();
        let steal = steal.zip(steal_ticks()).map(|(b, a)| a - b);
        let read_ios = index.decompose_stats().io.read_ios;
        let sched = before.zip(after).map(|(b, a)| (a.0 - b.0, a.1 - b.1));
        let ms = |ns: Option<u64>| ns.map_or("-".into(), |ns| format!("{:.1}", ns as f64 / 1e6));
        t.row(vec![
            rep.to_string(),
            format!("{:.1}", wall * 1e3),
            ms(sched.map(|s| s.0)),
            ms(sched.map(|s| s.1)),
            steal.map_or("-".into(), |t| t.to_string()),
            last_cpu().map_or("-".into(), |c| c.to_string()),
            read_ios.to_string(),
        ]);
        wall_rates.push(medges / wall);
        if let Some((cpu, _)) = sched.filter(|s| s.0 > 0) {
            cpu_rates.push(medges / (cpu as f64 / 1e9));
        }
        if read_ios != READ_IOS {
            eprintln!(
                "rep {rep}: {read_ios} read I/Os charged, kbench's scan_spill charges {READ_IOS}"
            );
            failed = true;
        }
        match &first {
            None => first = Some(index.cores().to_vec()),
            Some(cores) if cores.as_slice() != index.cores() => {
                eprintln!("rep {rep}: cores differ from the first repetition's");
                failed = true;
            }
            Some(_) => {}
        }
    }
    t.print();

    println!();
    let mut s = Table::new(&["rate (Medges/s)", "q1", "median", "q3", "IQR / median"]);
    for (label, rates) in [("wall clock", &wall_rates), ("on-CPU", &cpu_rates)] {
        if rates.is_empty() {
            s.row([label, "-", "-", "-", "-"].map(String::from).to_vec());
            continue;
        }
        let (q1, med, q3) = quartiles(rates);
        s.row(vec![
            label.into(),
            format!("{q1:.2}"),
            format!("{med:.2}"),
            format!("{q3:.2}"),
            format!("{:.1}%", 100.0 * (q3 - q1) / med),
        ]);
    }
    s.print();
    if failed {
        std::process::exit(1);
    }
    Ok(())
}

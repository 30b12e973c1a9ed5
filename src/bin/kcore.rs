//! `kcore` — command-line front end for the suite.
//!
//! ```text
//! kcore build  <edges.txt> <graph-base>      ingest a text edge list to disk (v3)
//! kcore decompose <graph-base> [--algo star|plus|basic|emcore]
//!                 [--cache-mb M] [--out cores.txt]
//! kcore query  <graph-base> --k 8            print the k-core's nodes/components
//! kcore stats  <graph-base>                  core profile (onion levels, nucleus)
//! kcore serve  [--budget-mb M] [--data-dir DIR]
//!              [--listen ADDR] [--max-conns N] [--qos-mb M]
//!              [--qos-queue N] [--group-commit-us U] [--compact-after E]
//!              [--scrub-interval S] [--repair-retries R] [--op-timeout-ms T]
//!              [name=graph-base ...]         serve many graphs on one budget
//! kcore fsck   <data-dir> [--repair]         check (and repair) a durable dir
//! kcore compact <data-dir> <name>            fold buffered edits into fresh tables
//! ```
//!
//! Every subcommand parses and validates its whole command line before it
//! acts: an unknown flag, a valued flag without its value, an unparsable
//! value or a wrong positional is a usage error (exit 2) that has touched
//! nothing.
//!
//! All runs print the I/O and memory accounting the paper reports.
//! `kcore build` writes the compressed stream-vbyte edge table (format v3,
//! typically 3× fewer bytes than raw v1 and proportionally fewer charged
//! reads on every scan); it spills its sorted runs under `std::env::temp_dir()`
//! (`$TMPDIR`, `/tmp` by default); where that is a tmpfs the runs are held
//! in RAM, so point `TMPDIR` at a disk for an input beyond memory.
//! `--cache-mb M` serves disk blocks through an `M`-MiB buffer pool.
//!
//! `kcore serve` starts a [`CoreService`]: every named graph is opened
//! against one process-wide pool of `--budget-mb` MiB, then commands are
//! read line by line from stdin (`open`, `core`, `kmax`, `insert`,
//! `delete`, `stats`, `weight`, `qos`, `graphs`, `save`, `compact`,
//! `verify`, `pool`, `evict`, `quit` — see `help`). With `--data-dir DIR`
//! the registry is durable: every maintenance op is journaled before it is
//! applied, and restarting with the same directory restores every graph —
//! maintained cores included — without re-decomposing (the directory's
//! catalog then also supplies the pool budget, so that flag is ignored on
//! reopen). `--group-commit-us U` (durable mode only) is
//! the journal's gather window, default 0: concurrent writers always
//! share fsync barriers, and a barrier waits `U` µs for more of them to
//! join. `--compact-after E` (durable mode only) bounds every
//! graph's update buffer: once `E` buffered edit entries accumulate the
//! apply path folds tables + edits into a fresh table generation and
//! truncates buffer and journal (default one million entries).
//!
//! `kcore compact <data-dir> <name>` runs that same generational rewrite
//! offline. A rewrite always writes v3, so compacting a graph served from
//! raw v1 tables is also its migration.
//!
//! `--listen ADDR` additionally serves the same line protocol over TCP
//! (thread per connection, at most `--max-conns` of them) while stdin
//! keeps working as a local admin console. `--qos-mb M` caps admitted
//! working sets at `M` MiB across all clients: requests beyond the budget
//! queue weighted-fair (`weight <name> <w>` favours a tenant), and
//! requests that cannot queue are shed with `err overloaded`.
//!
//! The REPL never dies on a failed command: every error is reported as one
//! structured `err <kind>: <detail>` line (kinds: `io`, `corrupt`,
//! `quarantined`, `readonly`, `timeout`, `range`, `usage`, `limit`,
//! `overloaded`) and the session keeps reading, so a scripted driver can
//! match on the prefix and carry on.
//!
//! `kcore serve` also runs the **self-heal supervisor**: quarantined
//! graphs are repaired online (`--repair-retries R` attempts with
//! exponential backoff, then sticky quarantine), graphs degraded to
//! read-only by a full disk are probed and promoted back automatically,
//! and with `--scrub-interval S` each healthy graph's durable artefacts
//! are re-walked through the fsck invariants every `S` seconds at a
//! throttled read rate, feeding findings into the same quarantine →
//! repair pipeline. `--op-timeout-ms T` bounds each query's charged-read
//! phase; over-deadline ops return `err timeout:` without quarantining.
//! The `health`, `scrub` and `repair` REPL verbs drive the same machinery
//! manually.
//!
//! `kcore fsck` walks a durable data directory offline: catalog, base
//! tables (full adjacency walk), checkpoints and journals. `--repair`
//! truncates damaged journal tails back to the last good record; exit
//! status is nonzero while unrepaired problems remain.

use std::collections::HashMap;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use graphstore::{
    edgelist, DiskGraph, GroupCommitOptions, IoCounter, QosConfig, StdVfs, DEFAULT_BLOCK_SIZE,
};
use kcore_suite::semicore::{self, analysis, DecomposeOptions, EmCoreOptions};
use kcore_suite::server::{dispatch, Server, ServerOptions};
use kcore_suite::CoreService;

fn usage() -> ! {
    eprintln!(
        "usage:\n  kcore build <edges.txt> <graph-base>\n              (writes format v3; scratch runs go under $TMPDIR, /tmp by default: on a tmpfs\n               that is RAM, so point TMPDIR at a disk for an input beyond memory)\n  kcore decompose <graph-base> [--algo star|plus|basic|emcore] [--cache-mb M] [--out cores.txt]\n  kcore query <graph-base> --k <K>\n  kcore stats <graph-base>\n  kcore serve [--budget-mb M] [--data-dir DIR] [--listen ADDR] [--max-conns N]\n              [--qos-mb M] [--qos-queue N] [--group-commit-us U] [--compact-after E]\n              [--scrub-interval S] [--repair-retries R] [--op-timeout-ms T]\n              [name=graph-base ...]\n  kcore fsck <data-dir> [--repair]\n  kcore compact <data-dir> <name>"
    );
    std::process::exit(2)
}

/// One subcommand's command line, parsed and validated before it acts:
/// its positionals in order and the flags it was given, with their values
/// (empty for a switch).
#[derive(Default)]
struct Cli {
    positional: Vec<String>,
    values: HashMap<&'static str, String>,
}

impl Cli {
    /// Split `args` into positionals, the `valued` flags (each followed by
    /// its value) and the `switches`. Any other flag, or a valued flag
    /// whose value is missing, is a usage error.
    fn parse(args: &[String], valued: &[&'static str], switches: &[&'static str]) -> Cli {
        let mut cli = Cli::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                cli.positional.push(arg.clone());
            } else if let Some(&flag) = valued.iter().find(|&f| f == arg) {
                match args.next() {
                    Some(value) if !value.starts_with("--") => {
                        cli.values.insert(flag, value.clone());
                    }
                    _ => usage(),
                }
            } else if let Some(&flag) = switches.iter().find(|&f| f == arg) {
                cli.values.insert(flag, String::new());
            } else {
                eprintln!("unknown flag {arg:?}");
                usage()
            }
        }
        cli
    }

    /// Exactly `N` positionals, or a usage error.
    fn positionals<const N: usize>(&self) -> [String; N] {
        self.positional
            .clone()
            .try_into()
            .unwrap_or_else(|_| usage())
    }

    /// `flag`'s value as a `T` (`None` when absent); a value that does not
    /// parse is a usage error.
    fn value<T: FromStr>(&self, flag: &str) -> Option<T> {
        let value = self.values.get(flag)?;
        Some(value.parse().unwrap_or_else(|_| {
            eprintln!("invalid value {value:?} for {flag}");
            usage()
        }))
    }

    /// `flag`'s value in MiB, as a byte count (`None` when absent); a
    /// count that overflows `u64` is a usage error, not a wrapped budget.
    fn mib(&self, flag: &str) -> Option<u64> {
        let mb: u64 = self.value(flag)?;
        Some(mb.checked_mul(1 << 20).unwrap_or_else(|| {
            eprintln!("{flag} {mb} MiB overflows a byte count");
            usage()
        }))
    }

    fn has(&self, flag: &str) -> bool {
        self.values.contains_key(flag)
    }
}

type Algorithm = fn(&mut DiskGraph) -> graphstore::Result<semicore::Decomposition>;

/// The decomposition `--algo` names; anything else is a usage error.
fn algorithm(name: &str) -> Algorithm {
    match name {
        "star" => |g| semicore::semicore_star(g, &DecomposeOptions::default()),
        "plus" => |g| semicore::semicore_plus(g, &DecomposeOptions::default()),
        "basic" => |g| semicore::semicore(g, &DecomposeOptions::default()),
        "emcore" => |g| semicore::emcore(g, &EmCoreOptions::default()),
        other => {
            eprintln!("unknown algorithm {other:?} (expected star|plus|basic|emcore)");
            usage()
        }
    }
}

fn open(base: &Path) -> graphstore::Result<DiskGraph> {
    DiskGraph::open(base, IoCounter::new(DEFAULT_BLOCK_SIZE))
}

// Internal decompositions (query/stats) run uncached.
fn decompose(base: &Path) -> graphstore::Result<semicore::Decomposition> {
    semicore::semicore_star(&mut open(base)?, &DecomposeOptions::default())
}

fn main() -> graphstore::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, args)) = args.split_first() else {
        usage()
    };
    match cmd.as_str() {
        "build" => {
            let [input, base] = Cli::parse(args, &[], &[]).positionals();
            let t0 = std::time::Instant::now();
            let counter = IoCounter::new(DEFAULT_BLOCK_SIZE);
            let g = edgelist::edge_list_to_disk(Path::new(&input), Path::new(&base), counter)?;
            let meta = g.meta();
            println!(
                "built {base}.nodes/.edges ({}): {} nodes, {} edges, edge table {} B ({:.2} B/neighbour) in {:.2} s",
                meta.version.tag(),
                g.num_nodes(),
                g.num_edges(),
                meta.edge_bytes,
                meta.edge_bytes as f64 / meta.degree_sum.max(1) as f64,
                t0.elapsed().as_secs_f64()
            );
        }
        "decompose" => {
            let cli = Cli::parse(args, &["--algo", "--cache-mb", "--out"], &[]);
            let [base] = cli.positionals();
            let algo: String = cli.value("--algo").unwrap_or_else(|| "star".into());
            let run = algorithm(&algo);
            let cache_bytes = cli.mib("--cache-mb").unwrap_or(0);
            let out: Option<PathBuf> = cli.value("--out");
            let counter = IoCounter::new(DEFAULT_BLOCK_SIZE);
            let mut g = DiskGraph::open_with_cache(Path::new(&base), counter, cache_bytes)?;
            let d = run(&mut g)?;
            let s = &d.stats;
            println!(
                "{}: kmax = {}, {} iterations, {} node computations",
                s.algorithm,
                d.kmax(),
                s.iterations,
                s.node_computations
            );
            println!(
                "time {:.3} s | memory {} B | read I/Os {} | write I/Os {}",
                s.wall_time.as_secs_f64(),
                s.peak_memory_bytes,
                s.io.read_ios,
                s.io.write_ios
            );
            if let Some(out) = out {
                let mut text = String::with_capacity(d.core.len() * 8);
                for (v, c) in d.core.iter().enumerate() {
                    text.push_str(&format!("{v} {c}\n"));
                }
                std::fs::write(&out, text)?;
                println!("core numbers written to {}", out.display());
            }
        }
        "query" => {
            let cli = Cli::parse(args, &["--k"], &[]);
            let [base] = cli.positionals();
            let k: u32 = cli.value("--k").unwrap_or_else(|| usage());
            let d = decompose(Path::new(&base))?;
            let mut g = open(Path::new(&base))?;
            let comps = analysis::kcore_components(&mut g, &d.core, k)?;
            let total: usize = comps.iter().map(|c| c.len()).sum();
            println!(
                "{k}-core: {total} nodes in {} connected component(s)",
                comps.len()
            );
            for (i, c) in comps.iter().enumerate().take(5) {
                let preview: Vec<u32> = c.iter().copied().take(12).collect();
                println!("  component {i}: {} nodes, e.g. {preview:?}", c.len());
            }
        }
        "stats" => {
            let [base] = Cli::parse(args, &[], &[]).positionals();
            let d = decompose(Path::new(&base))?;
            print!("{}", analysis::CoreProfile::new(&d.core));
            let mut g = open(Path::new(&base))?;
            let (nucleus, density) = analysis::densest_core(&mut g, &d.core)?;
            println!(
                "densest-core approximation: {} nodes at density {:.2}",
                nucleus.len(),
                density
            );
        }
        "serve" => serve(args)?,
        "fsck" => fsck_cmd(args)?,
        "compact" => {
            // Fold the named graph's buffered edits into a fresh v3
            // generation of table files (the same commit protocol the
            // serving path uses at its threshold), truncating its update
            // buffer and journal.
            let [dir, name] = Cli::parse(args, &[], &[]).positionals();
            let opts = kcore_suite::DurableOptions::default();
            let svc = CoreService::open_catalog(Path::new(&dir), opts, StdVfs::arc())?;
            let generation = svc.compact(&name)?;
            println!(
                "compacted {name}: now generation {generation} (update buffer and journal empty)"
            );
        }
        _ => usage(),
    }
    Ok(())
}

/// `kcore fsck <data-dir> [--repair]`: offline integrity check of a durable
/// directory. Prints one line per finding, then a summary; exits 1 while
/// unrepaired problems remain so scripts can gate on it.
fn fsck_cmd(args: &[String]) -> graphstore::Result<()> {
    let cli = Cli::parse(args, &[], &["--repair"]);
    let [dir] = cli.positionals();
    let report = kcore_suite::fsck(Path::new(&dir), cli.has("--repair"))?;
    for f in &report.findings {
        let scope = f.graph.as_deref().unwrap_or("<catalog>");
        let status = if f.repaired { " [repaired]" } else { "" };
        println!("{scope}: {}{status}", f.problem);
    }
    let unrepaired = report.unrepaired();
    println!(
        "fsck: {} graph(s) checked, {} problem(s), {} repaired",
        report.graphs_checked,
        report.findings.len(),
        report.findings.len() - unrepaired
    );
    if unrepaired > 0 {
        std::process::exit(1);
    }
    Ok(())
}

/// The value-taking flags of `kcore serve`.
const SERVE_FLAGS: [&str; 11] = [
    "--budget-mb",
    "--data-dir",
    "--listen",
    "--max-conns",
    "--qos-mb",
    "--qos-queue",
    "--group-commit-us",
    "--compact-after",
    "--scrub-interval",
    "--repair-retries",
    "--op-timeout-ms",
];

/// `kcore serve`: a [`CoreService`] REPL over stdin, optionally also
/// served over TCP with `--listen`. Non-interactive use pipes a command
/// script in; every response is a single line, errors are reported and do
/// not end the session. The whole command line is validated before the
/// data directory is touched.
fn serve(args: &[String]) -> graphstore::Result<()> {
    let cli = Cli::parse(args, &SERVE_FLAGS, &[]);
    let budget_bytes = cli.mib("--budget-mb").unwrap_or(64 << 20);
    let data_dir: Option<PathBuf> = cli.value("--data-dir");
    for (flag, why) in [
        ("--group-commit-us", "there is no journal without one"),
        ("--compact-after", "only durable graphs compact"),
        ("--scrub-interval", "the scrubber walks durable artefacts"),
    ] {
        if cli.has(flag) && data_dir.is_none() {
            eprintln!("{flag} requires --data-dir ({why})");
            usage()
        }
    }
    // `--group-commit-us U` is the journal's gather window (default 0);
    // `--compact-after E` bounds each durable graph's update buffer at `E`
    // edit entries before the apply path compacts it.
    let durable_opts = kcore_suite::DurableOptions {
        group_commit: cli.value("--group-commit-us").map(|us| GroupCommitOptions {
            max_delay: Duration::from_micros(us),
        }),
        compact_after_edits: cli
            .value("--compact-after")
            .unwrap_or(kcore_suite::DEFAULT_COMPACT_AFTER_EDITS),
        ..kcore_suite::DurableOptions::default()
    };
    // `--qos-mb M` turns on per-tenant admission control over the charge
    // budget; `--qos-queue N` bounds how many requests may wait (default
    // 16) and is meaningless without a budget to wait for.
    let qos_bytes = cli.mib("--qos-mb");
    let qos_queue: usize = cli.value("--qos-queue").unwrap_or(16);
    if cli.has("--qos-queue") && qos_bytes.is_none() {
        eprintln!("--qos-queue requires --qos-mb (there is no queue without a budget)");
        usage()
    }
    // `--op-timeout-ms T` bounds every query's charged-read phase: an op
    // over its deadline comes back as one `err timeout:` line (and never
    // quarantines — a slow graph is not a broken graph).
    let op_timeout_ms: Option<u64> = cli.value("--op-timeout-ms");
    // Self-healing: `--scrub-interval S` walks each healthy graph's
    // durable artefacts through the fsck invariants every `S` seconds;
    // `--repair-retries R` bounds automatic online repairs per quarantine
    // episode. The supervisor always runs under `serve` — quarantined
    // graphs get repaired and read-only graphs re-probed even with the
    // scrubber off.
    let heal_opts = kcore_suite::SelfHealOptions {
        scrub_interval: cli.value("--scrub-interval").map(Duration::from_secs),
        repair_retries: cli
            .value("--repair-retries")
            .unwrap_or(kcore_suite::SelfHealOptions::default().repair_retries),
        ..kcore_suite::SelfHealOptions::default()
    };
    // `--listen ADDR` serves the same protocol over TCP alongside stdin.
    let listen: Option<String> = cli.value("--listen");
    let max_connections = cli
        .value("--max-conns")
        .unwrap_or(ServerOptions::default().max_connections);
    // Positional `name=base` specs pre-open graphs before the REPL starts.
    let specs: Vec<(&str, &str)> = cli
        .positional
        .iter()
        .map(|spec| spec.split_once('=').unwrap_or_else(|| usage()))
        .collect();

    let svc = match &data_dir {
        Some(dir) if graphstore::Catalog::exists_in(dir) => {
            let svc = CoreService::open_catalog(dir, durable_opts, StdVfs::arc())?;
            println!(
                "reopened catalog {} ({} MiB pool from manifest): restored [{}]",
                dir.display(),
                svc.pool().budget_bytes() >> 20,
                svc.graph_names().join(", ")
            );
            svc
        }
        Some(dir) => {
            let svc = CoreService::create_durable(
                dir,
                DEFAULT_BLOCK_SIZE,
                budget_bytes,
                durable_opts,
                StdVfs::arc(),
            )?;
            println!(
                "serving durably from {} on a {} MiB shared pool",
                dir.display(),
                budget_bytes >> 20
            );
            svc
        }
        None => {
            let svc = CoreService::new(DEFAULT_BLOCK_SIZE, budget_bytes)?;
            println!(
                "serving on a {} MiB shared pool; 'help' lists commands",
                budget_bytes >> 20
            );
            svc
        }
    };
    let svc = Arc::new(svc);
    if let Some(bytes) = qos_bytes {
        svc.set_qos(Some(QosConfig {
            capacity_bytes: bytes,
            max_waiters: qos_queue,
        }));
        println!(
            "qos: {} MiB admission budget, {qos_queue} queued requests max",
            bytes >> 20
        );
    }
    if let Some(ms) = op_timeout_ms {
        svc.set_op_timeout(Some(Duration::from_millis(ms)));
        println!("per-op deadline: {ms} ms");
    }
    let _self_heal = kcore_suite::start_self_heal(&svc, heal_opts);
    for (name, base) in specs {
        for l in &dispatch(&svc, &format!("open {name} {base}")).lines {
            println!("{l}");
        }
    }
    let mut server = match listen {
        Some(addr) => {
            let opts = ServerOptions {
                max_connections,
                ..ServerOptions::default()
            };
            let server = Server::start(Arc::clone(&svc), &addr, opts)?;
            println!(
                "listening on {} ({} connections max)",
                server.local_addr(),
                max_connections
            );
            Some(server)
        }
        None => None,
    };

    let stdin = std::io::stdin();
    let mut quit = false;
    for line in stdin.lock().lines() {
        let line = line?;
        let resp = dispatch(&svc, &line);
        for l in &resp.lines {
            println!("{l}");
        }
        if resp.quit {
            quit = true;
            break;
        }
    }

    if let Some(server) = server.as_mut() {
        if quit {
            server.shutdown();
        } else {
            // stdin closed (e.g. the server was started with </dev/null):
            // keep serving TCP until the process is killed.
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
    }
    Ok(())
}

//! `kcore` — command-line front end for the suite.
//!
//! ```text
//! kcore build  <edges.txt> <graph-base>      ingest a text edge list to disk
//! kcore decompose <graph-base> [--algo star|plus|basic|emcore]
//!                 [--workers N] [--cache-mb M] [--out cores.txt]
//! kcore query  <graph-base> --k 8            print the k-core's nodes/components
//! kcore stats  <graph-base>                  core profile (onion levels, nucleus)
//! kcore serve  [--budget-mb M] [--workers N] [--data-dir DIR]
//!              [--listen ADDR] [--max-conns N] [--qos-mb M]
//!              [--qos-queue N] [--group-commit-us U] [--compact-after E]
//!              [--scrub-interval S] [--repair-retries R] [--op-timeout-ms T]
//!              [name=graph-base ...]         serve many graphs on one budget
//! kcore fsck   <data-dir> [--repair]         check (and repair) a durable dir
//! kcore compact <data-dir> <name>            fold buffered edits into fresh tables
//! kcore recompress <data-dir> [--to v1|v3]  migrate a catalog's tables
//! ```
//!
//! All runs print the I/O and memory accounting the paper reports.
//! `kcore build` spills its sorted runs under `std::env::temp_dir()`
//! (`$TMPDIR`, `/tmp` by default); where that is a tmpfs the runs are held
//! in RAM, so point `TMPDIR` at a disk for an input beyond memory.
//! `--workers N` shards SemiCore\*'s convergence scans across `N` threads
//! (absent, or with any other algorithm, the scan is sequential);
//! `--cache-mb M` serves disk blocks through an `M`-MiB shared buffer pool
//! (required for the parallel scans to pay sequential-equivalent I/O).
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
//! offline, and `kcore recompress <data-dir> [--to v1|v3]` migrates
//! every catalogued graph to the chosen encoding through it (default v3,
//! the compressed stream-vbyte layout), reporting the charged-read savings
//! per graph.
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

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use graphstore::{
    edgelist, DiskGraph, EvictionPolicy, GroupCommitOptions, IoCounter, QosConfig,
    DEFAULT_BLOCK_SIZE,
};
use kcore_suite::semicore::{self, analysis, DecomposeOptions, EmCoreOptions, ScanExecutor};
use kcore_suite::server::{dispatch, Server, ServerOptions};
use kcore_suite::CoreService;

fn usage() -> ! {
    eprintln!(
        "usage:\n  kcore build <edges.txt> <graph-base> [--compress[=v3]]\n              (scratch runs go under $TMPDIR, /tmp by default: on a tmpfs that is RAM,\n               so point TMPDIR at a disk for an input beyond memory)\n  kcore decompose <graph-base> [--algo star|plus|basic|emcore] [--workers N] [--cache-mb M] [--out cores.txt]\n  kcore query <graph-base> --k <K>\n  kcore stats <graph-base>\n  kcore serve [--budget-mb M] [--workers N] [--data-dir DIR] [--listen ADDR]\n              [--max-conns N] [--qos-mb M] [--qos-queue N] [--group-commit-us U]\n              [--compact-after E] [--scrub-interval S] [--repair-retries R]\n              [--op-timeout-ms T] [name=graph-base ...]\n  kcore fsck <data-dir> [--repair]\n  kcore compact <data-dir> <name>\n  kcore recompress <data-dir> [--to v1|v3]"
    );
    std::process::exit(2)
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parse a format tag (as `--compress=` and `--to` take): `v1` (raw) or
/// `v3` (compressed). Anything else exits 2.
fn parse_format(tag: &str) -> graphstore::FormatVersion {
    match tag {
        "v1" => graphstore::FormatVersion::V1,
        "v3" => graphstore::FormatVersion::V3,
        other => {
            eprintln!("unknown format {other:?} (expected v1|v3)");
            std::process::exit(2)
        }
    }
}

/// The edge-table format `kcore build` was asked for: `--compress` means
/// v3, the one compressed format (`--compress=v3` spells it out); absent
/// means raw v1.
fn build_format(args: &[String]) -> graphstore::FormatVersion {
    for a in args {
        if a == "--compress" {
            return graphstore::FormatVersion::V3;
        }
        if let Some(tag) = a.strip_prefix("--compress=") {
            return parse_format(tag);
        }
    }
    graphstore::FormatVersion::V1
}

fn open(base: &Path) -> graphstore::Result<DiskGraph> {
    DiskGraph::open(base, IoCounter::new(DEFAULT_BLOCK_SIZE))
}

// Internal decompositions (query/stats) run uncached, where the sequential
// schedule is the right configuration — the parallel path wants a cache
// budget so shard handles share fetched blocks.
fn decompose(base: &Path, algo: &str) -> graphstore::Result<semicore::Decomposition> {
    decompose_with(base, algo, ScanExecutor::Sequential, 0)
}

fn decompose_with(
    base: &Path,
    algo: &str,
    exec: ScanExecutor,
    cache_bytes: u64,
) -> graphstore::Result<semicore::Decomposition> {
    let mut g = DiskGraph::open_with_cache(base, IoCounter::new(DEFAULT_BLOCK_SIZE), cache_bytes)?;
    let opts = DecomposeOptions::default();
    if exec != ScanExecutor::Sequential && matches!(algo, "plus" | "basic" | "emcore") {
        eprintln!("note: --workers applies to SemiCore* only; {algo} runs sequentially");
    }
    match algo {
        "star" => semicore::semicore_star_with(&mut g, &opts, exec),
        "plus" => semicore::semicore_plus(&mut g, &opts),
        "basic" => semicore::semicore(&mut g, &opts),
        "emcore" => semicore::emcore(&mut g, &EmCoreOptions::default()),
        other => {
            eprintln!("unknown algorithm {other:?} (expected star|plus|basic|emcore)");
            std::process::exit(2)
        }
    }
}

fn main() -> graphstore::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    // A trailing flag with its value forgotten would otherwise be
    // indistinguishable from an absent flag and silently get the default.
    if args
        .last()
        .is_some_and(|a| SERVE_FLAGS.contains(&a.as_str()) || ONE_SHOT_FLAGS.contains(&a.as_str()))
    {
        usage()
    }
    match cmd.as_str() {
        "build" => {
            let (Some(input), Some(base)) = (args.get(1), args.get(2)) else {
                usage()
            };
            // `--compress` writes the stream-vbyte edge table (format v3):
            // same adjacency lists, typically 3× fewer edge-table bytes —
            // and proportionally fewer charged read I/Os on every scan.
            let version = build_format(&args);
            let t0 = std::time::Instant::now();
            let counter = IoCounter::new(DEFAULT_BLOCK_SIZE);
            let g = edgelist::edge_list_to_disk_with(
                Path::new(input),
                Path::new(base),
                counter,
                version,
            )?;
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
            let Some(base) = args.get(1) else { usage() };
            let algo = arg_value(&args, "--algo").unwrap_or_else(|| "star".into());
            let exec = match arg_value(&args, "--workers").map(|w| w.parse::<usize>()) {
                Some(Ok(w)) if w >= 2 => ScanExecutor::parallel(w),
                Some(Ok(_)) => ScanExecutor::Sequential,
                Some(Err(_)) => usage(),
                None => ScanExecutor::Sequential,
            };
            let cache_bytes = match arg_value(&args, "--cache-mb").map(|m| m.parse::<u64>()) {
                Some(Ok(mb)) => mb << 20,
                Some(Err(_)) => usage(),
                None => 0,
            };
            let d = decompose_with(Path::new(base), &algo, exec, cache_bytes)?;
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
            if let Some(out) = arg_value(&args, "--out") {
                let mut text = String::with_capacity(d.core.len() * 8);
                for (v, c) in d.core.iter().enumerate() {
                    text.push_str(&format!("{v} {c}\n"));
                }
                std::fs::write(PathBuf::from(&out), text)?;
                println!("core numbers written to {out}");
            }
        }
        "query" => {
            let Some(base) = args.get(1) else { usage() };
            let k: u32 = arg_value(&args, "--k")
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage());
            let d = decompose(Path::new(base), "star")?;
            let mut g = open(Path::new(base))?;
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
            let Some(base) = args.get(1) else { usage() };
            let d = decompose(Path::new(base), "star")?;
            print!("{}", analysis::CoreProfile::new(&d.core));
            let mut g = open(Path::new(base))?;
            let (nucleus, density) = analysis::densest_core(&mut g, &d.core)?;
            println!(
                "densest-core approximation: {} nodes at density {:.2}",
                nucleus.len(),
                density
            );
        }
        "serve" => serve(&args)?,
        "fsck" => fsck_cmd(&args)?,
        "compact" => compact_cmd(&args)?,
        "recompress" => recompress_cmd(&args)?,
        _ => usage(),
    }
    Ok(())
}

/// `kcore fsck <data-dir> [--repair]`: offline integrity check of a durable
/// directory. Prints one line per finding, then a summary; exits 1 while
/// unrepaired problems remain so scripts can gate on it.
fn fsck_cmd(args: &[String]) -> graphstore::Result<()> {
    let Some(dir) = args.get(1).filter(|a| !a.starts_with("--")) else {
        usage()
    };
    let repair = args.iter().any(|a| a == "--repair");
    let report = kcore_suite::fsck(Path::new(dir), repair)?;
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

/// `kcore compact <data-dir> <name>`: open the durable catalog, fold the
/// named graph's buffered edits into a fresh generation of table files
/// (the same commit protocol the serving path uses at its threshold),
/// and truncate its update buffer and journal.
fn compact_cmd(args: &[String]) -> graphstore::Result<()> {
    let (Some(dir), Some(name)) = (args.get(1), args.get(2)) else {
        usage()
    };
    let svc = CoreService::open_catalog(Path::new(dir))?;
    let generation = svc.compact(name)?;
    println!("compacted {name}: now generation {generation} (update buffer and journal empty)");
    Ok(())
}

/// `kcore recompress <data-dir> [--to v1|v3]`: migrate every
/// catalogued graph to the requested edge encoding in place (default v3,
/// the compressed layout), through the same generational rewrite
/// `compact` uses — the catalog commit switches tables, checkpoint and
/// format atomically per graph. Reports the edge table shrink and the
/// equivalent full-scan charged-read savings.
fn recompress_cmd(args: &[String]) -> graphstore::Result<()> {
    let Some(dir) = args.get(1).filter(|a| !a.starts_with("--")) else {
        usage()
    };
    let to = match arg_value(args, "--to") {
        Some(tag) => parse_format(&tag),
        None => graphstore::FormatVersion::V3,
    };
    let svc = CoreService::open_catalog(Path::new(dir))?;
    let block = svc.pool().block_size() as u64;
    let table = |name: &str| {
        svc.with_graph(name, |idx| {
            let meta = idx.graph_mut().disk().meta();
            Ok((meta.edge_bytes, meta.version.tag()))
        })
    };
    let names = svc.graph_names();
    for name in &names {
        let (old_bytes, old_tag) = table(name)?;
        let generation = svc.recompress_to(name, to)?;
        let (new_bytes, new_tag) = table(name)?;
        println!(
            "{name}: {old_tag} -> {new_tag} (generation {generation}); edge table {old_bytes} -> {new_bytes} B, full-scan charged reads {} -> {}",
            old_bytes.div_ceil(block),
            new_bytes.div_ceil(block),
        );
    }
    println!("recompressed {} graph(s) in {dir}", names.len());
    Ok(())
}

/// The value-taking flags of the one-shot subcommands (`decompose`, `query`,
/// `recompress`; `--workers` is in [`SERVE_FLAGS`]).
const ONE_SHOT_FLAGS: [&str; 5] = ["--algo", "--cache-mb", "--out", "--k", "--to"];

/// The value-taking flags of `kcore serve` — the single list both the
/// flag parsers and the positional-argument scan below work from.
const SERVE_FLAGS: [&str; 12] = [
    "--budget-mb",
    "--workers",
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
/// not end the session.
fn serve(args: &[String]) -> graphstore::Result<()> {
    let budget_mb: u64 = match arg_value(args, SERVE_FLAGS[0]).map(|v| v.parse()) {
        Some(Ok(mb)) => mb,
        Some(Err(_)) => usage(),
        None => 64,
    };
    let exec = match arg_value(args, SERVE_FLAGS[1]).map(|w| w.parse::<usize>()) {
        Some(Ok(w)) if w >= 2 => ScanExecutor::parallel(w),
        Some(Ok(_)) => ScanExecutor::Sequential,
        Some(Err(_)) => usage(),
        None => ScanExecutor::Sequential,
    };
    // `--group-commit-us U` is the journal's gather window (default 0);
    // it only means anything when there is a journal, i.e. with
    // `--data-dir`.
    let group_commit = match arg_value(args, SERVE_FLAGS[7]).map(|v| v.parse::<u64>()) {
        Some(Ok(us)) => Some(GroupCommitOptions {
            max_delay: Duration::from_micros(us),
        }),
        Some(Err(_)) => usage(),
        None => None,
    };
    if group_commit.is_some() && arg_value(args, SERVE_FLAGS[2]).is_none() {
        eprintln!("--group-commit-us requires --data-dir (there is no journal without one)");
        usage()
    }
    // `--compact-after E` bounds each durable graph's update buffer at
    // `E` edit entries before the apply path compacts it.
    let compact_after = match arg_value(args, SERVE_FLAGS[8]).map(|v| v.parse::<usize>()) {
        Some(Ok(entries)) => Some(entries),
        Some(Err(_)) => usage(),
        None => None,
    };
    if compact_after.is_some() && arg_value(args, SERVE_FLAGS[2]).is_none() {
        eprintln!("--compact-after requires --data-dir (only durable graphs compact)");
        usage()
    }
    let durable_opts = kcore_suite::DurableOptions {
        group_commit,
        compact_after_edits: compact_after.unwrap_or(kcore_suite::DEFAULT_COMPACT_AFTER_EDITS),
        ..kcore_suite::DurableOptions::default()
    };
    let svc = match arg_value(args, SERVE_FLAGS[2]) {
        Some(dir) => {
            let dir = Path::new(&dir);
            if graphstore::Catalog::exists_in(dir) {
                let svc = CoreService::open_catalog_with(dir, exec, durable_opts)?;
                println!(
                    "reopened catalog {} ({} MiB pool from manifest): restored [{}]",
                    dir.display(),
                    svc.pool().budget_bytes() >> 20,
                    svc.graph_names().join(", ")
                );
                svc
            } else {
                let svc = CoreService::create_durable_with(
                    dir,
                    DEFAULT_BLOCK_SIZE,
                    budget_mb << 20,
                    EvictionPolicy::ScanLifo,
                    exec,
                    durable_opts,
                )?;
                println!(
                    "serving durably from {} on a {budget_mb} MiB shared pool ({exec:?})",
                    dir.display()
                );
                svc
            }
        }
        None => {
            let svc = CoreService::with_config(
                DEFAULT_BLOCK_SIZE,
                budget_mb << 20,
                EvictionPolicy::ScanLifo,
                exec,
            )?;
            println!("serving on a {budget_mb} MiB shared pool ({exec:?}); 'help' lists commands");
            svc
        }
    };
    let svc = Arc::new(svc);

    // `--qos-mb M` turns on per-tenant admission control over the charge
    // budget; `--qos-queue N` bounds how many requests may wait (default
    // 16) and is meaningless without a budget to wait for.
    let qos_mb = match arg_value(args, SERVE_FLAGS[5]).map(|v| v.parse::<u64>()) {
        Some(Ok(mb)) => Some(mb),
        Some(Err(_)) => usage(),
        None => None,
    };
    let qos_queue = match arg_value(args, SERVE_FLAGS[6]).map(|v| v.parse::<usize>()) {
        Some(Ok(n)) => Some(n),
        Some(Err(_)) => usage(),
        None => None,
    };
    match (qos_mb, qos_queue) {
        (Some(mb), queue) => {
            svc.set_qos(Some(QosConfig {
                capacity_bytes: mb << 20,
                max_waiters: queue.unwrap_or(16),
            }));
            println!(
                "qos: {} MiB admission budget, {} queued requests max",
                mb,
                queue.unwrap_or(16)
            );
        }
        (None, Some(_)) => {
            eprintln!("--qos-queue requires --qos-mb (there is no queue without a budget)");
            usage()
        }
        (None, None) => {}
    }

    // `--op-timeout-ms T` bounds every query's charged-read phase: an op
    // over its deadline comes back as one `err timeout:` line (and never
    // quarantines — a slow graph is not a broken graph).
    match arg_value(args, SERVE_FLAGS[11]).map(|v| v.parse::<u64>()) {
        Some(Ok(ms)) => {
            svc.set_op_timeout(Some(Duration::from_millis(ms)));
            println!("per-op deadline: {ms} ms");
        }
        Some(Err(_)) => usage(),
        None => {}
    }

    // Self-healing: `--scrub-interval S` walks each healthy graph's
    // durable artefacts through the fsck invariants every `S` seconds;
    // `--repair-retries R` bounds automatic online repairs per quarantine
    // episode. The supervisor always runs under `serve` — quarantined
    // graphs get repaired and read-only graphs re-probed even with the
    // scrubber off.
    let scrub_interval = match arg_value(args, SERVE_FLAGS[9]).map(|v| v.parse::<u64>()) {
        Some(Ok(secs)) => Some(Duration::from_secs(secs)),
        Some(Err(_)) => usage(),
        None => None,
    };
    if scrub_interval.is_some() && arg_value(args, SERVE_FLAGS[2]).is_none() {
        eprintln!("--scrub-interval requires --data-dir (the scrubber walks durable artefacts)");
        usage()
    }
    let repair_retries = match arg_value(args, SERVE_FLAGS[10]).map(|v| v.parse::<u32>()) {
        Some(Ok(n)) => Some(n),
        Some(Err(_)) => usage(),
        None => None,
    };
    let heal_opts = kcore_suite::SelfHealOptions {
        scrub_interval,
        repair_retries: repair_retries
            .unwrap_or(kcore_suite::SelfHealOptions::default().repair_retries),
        ..kcore_suite::SelfHealOptions::default()
    };
    let _self_heal = kcore_suite::start_self_heal(&svc, heal_opts);

    // Positional `name=base` specs pre-open graphs before the REPL starts.
    let mut i = 1usize;
    while i < args.len() {
        if SERVE_FLAGS.contains(&args[i].as_str()) {
            i += 2; // skip the flag and its value
        } else {
            let Some((name, base)) = args[i].split_once('=') else {
                usage()
            };
            let resp = dispatch(&svc, &format!("open {name} {base}"));
            for l in &resp.lines {
                println!("{l}");
            }
            i += 1;
        }
    }

    // `--listen ADDR` serves the same protocol over TCP alongside stdin.
    let mut server = match arg_value(args, SERVE_FLAGS[3]) {
        Some(addr) => {
            let max_connections = match arg_value(args, SERVE_FLAGS[4]).map(|v| v.parse()) {
                Some(Ok(n)) => n,
                Some(Err(_)) => usage(),
                None => ServerOptions::default().max_connections,
            };
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

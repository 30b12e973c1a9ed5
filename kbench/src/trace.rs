//! The traced run (`--trace 1`): the per-layer numbers.
//!
//! Three instruments, all on this side of the program's public interface:
//!
//! 1. **Layer probes** — each storage layer driven alone over the
//!    workload's own graph: `Vfs` sequential read, an uncached
//!    `BlockReader` sweep, the codecs over the adjacency lists, a full
//!    `DiskGraph` adjacency sweep (v3 with readahead off and on, and the
//!    same graph rebuilt v1). Together they are the roofline a
//!    decomposition is read against.
//! 2. **Seam wrappers** — [`SpanGraph`] between SemiCore\* and the storage
//!    stack and [`SpanVfs`] between the storage stack and the filesystem,
//!    during one decomposition and one closed-loop serve phase. The storage
//!    stack's self time is `graph.call_s − vfs.read_s`.
//! 3. **Layer peeling** — one recorded request sequence replayed at each
//!    public boundary in turn: TCP client → `dispatch` → durable
//!    `CoreService` → non-durable `CoreService` → `CoreIndex` → the
//!    in-memory engine. A layer's self time is the difference between two
//!    adjacent boundaries **on the same request**. The toggle streams
//!    return the graph to its initial state (see [`crate::workload`]), so
//!    every boundary starts from the same graph.
//!
//! Every timed call is a span; spans are written as JSON lines at the end.

use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kcore_suite::graphstore::codec::{
    decode_gap_run, decode_group_run, decode_group_run_scalar, encode_gap_run, encode_group_run,
};
use kcore_suite::graphstore::io::BlockReader;
use kcore_suite::graphstore::{
    write_mem_graph_with, BufferedGraph, DiskGraph, Error, EvictionPolicy, FormatVersion,
    GraphPaths, GroupCommitOptions, GroupCommitWal, IoCounter, MemGraph, Result, StdVfs, Vfs, Wal,
    DEFAULT_BLOCK_SIZE, DEFAULT_BUFFER_CAPACITY,
};
use kcore_suite::semicore::{
    imcore, semicore_star_state, DecomposeOptions, InMemoryCores, ScanExecutor,
};
use kcore_suite::server::dispatch;
use kcore_suite::{CoreIndex, CoreService};

use crate::e2e::{
    budget_bytes, build, check_reopened, describe, median, reopen, send_all, serve, serve_phase,
    Built, Client, RunConfig, GATHER,
};
use crate::metrics::Outcome;
use crate::spans::{Recorder, SpanGraph, SpanVfs};
use crate::summary::Summary;
use crate::workload::{tail_flips, ClientStream, Kind, Op, Pair, SplitMix64, CLIENTS, GRAPH};

/// Share of `--seconds` the traced serve phase runs for.
const SERVE_SHARE: f64 = 0.30;
/// Share of `--seconds` the TCP boundary of the peeling run may take; the
/// boundaries below it replay what it recorded.
const PEEL_SHARE: f64 = 0.15;
/// Requests the peeling run records at most.
const PEEL_MAX_OPS: usize = 1500;
/// Requests it records at least, however short the run: one full turn of
/// each client's write schedule, so every request class occurs.
const PEEL_MIN_OPS: usize = 10;
/// Share of `--seconds` of each of the four short probes (reads solo,
/// reads beside a writer, `Wal::append`, `GroupCommitWal`).
const PROBE_SHARE: f64 = 0.04;
/// Reads the stock client sends (44 ms each while the reply stall stands).
const STOCK_READS: usize = 16;
/// `op` of the first peeled request in `spans.jsonl`.
const PEEL_OP_BASE: u64 = 1 << 32;

/// Smallest wall time of `trials` runs of `f`, in seconds.
fn best_secs(trials: usize, mut f: impl FnMut() -> Result<f64>) -> Result<f64> {
    let mut best = f64::MAX;
    for _ in 0..trials {
        best = best.min(f()?);
    }
    Ok(best.max(1e-9))
}

/// Every adjacency list of a graph encoded as its own run, as on disk.
struct Corpus {
    runs: Vec<(std::ops::Range<usize>, usize)>,
    bytes: Vec<u8>,
}

fn encode_corpus(g: &MemGraph, enc: impl Fn(&[u32], &mut Vec<u8>)) -> Corpus {
    let mut bytes = Vec::new();
    let mut runs = Vec::with_capacity(g.num_nodes() as usize);
    for v in 0..g.num_nodes() {
        let at = bytes.len();
        enc(g.neighbors(v), &mut bytes);
        runs.push((at..bytes.len(), g.neighbors(v).len()));
    }
    Corpus { runs, bytes }
}

fn decode_secs(
    c: &Corpus,
    decode: impl Fn(&[u8], usize, &mut Vec<u32>) -> Result<usize>,
) -> Result<f64> {
    let mut out = Vec::new();
    let t = Instant::now();
    for (range, count) in &c.runs {
        out.clear();
        decode(&c.bytes[range.clone()], *count, &mut out)?;
        black_box(out.last());
    }
    Ok(t.elapsed().as_secs_f64())
}

/// In-memory decode rate of each codec over the graph's adjacency lists;
/// the memcpy row (v1's raw payload) is the ceiling.
fn codec_probe(g: &MemGraph, trials: usize, out: &mut Outcome) -> Result<()> {
    let ids = g.degree_sum().max(1) as f64;
    let v2 = encode_corpus(g, encode_gap_run);
    let v3 = encode_corpus(g, encode_group_run);
    let raw: Vec<u8> = (0..g.num_nodes())
        .flat_map(|v| g.neighbors(v).iter().flat_map(|n| n.to_le_bytes()))
        .collect();
    let mids = |secs: f64| ids / secs / 1e6;
    out.put(
        "codec.v3_decode_mids_per_s",
        mids(best_secs(trials, || decode_secs(&v3, decode_group_run))?),
    );
    out.put(
        "codec.v3_scalar_decode_mids_per_s",
        mids(best_secs(trials, || {
            decode_secs(&v3, decode_group_run_scalar)
        })?),
    );
    out.put(
        "codec.v2_decode_mids_per_s",
        mids(best_secs(trials, || decode_secs(&v2, decode_gap_run))?),
    );
    let mut copy: Vec<u8> = Vec::with_capacity(raw.len());
    out.put(
        "codec.memcpy_mids_per_s",
        mids(best_secs(trials, || {
            let t = Instant::now();
            copy.clear();
            copy.extend_from_slice(&raw);
            black_box(copy.last());
            Ok(t.elapsed().as_secs_f64())
        })?),
    );
    out.put("codec.v3_bytes_per_id", v3.bytes.len() as f64 / ids);
    Ok(())
}

/// Full `with_adjacency` sweep of the table pair at `base`, uncached.
fn sweep_secs(base: &Path, readahead: bool) -> Result<f64> {
    let mut g = DiskGraph::open(base, IoCounter::new(DEFAULT_BLOCK_SIZE))?;
    g.set_readahead(readahead)?;
    let t = Instant::now();
    let mut checksum = 0u64;
    for v in 0..g.num_nodes() {
        checksum ^= g.with_adjacency(v, |nbrs| nbrs.last().copied().unwrap_or(0) as u64)?;
    }
    black_box(checksum);
    Ok(t.elapsed().as_secs_f64())
}

/// The storage stack bottom-up over the workload's own edge table.
fn storage_probes(built: &Built, trials: usize, out: &mut Outcome) -> Result<()> {
    let edges = GraphPaths::from_base(&built.base).edges;
    let len = built.edge_bytes;

    let seq = best_secs(trials, || {
        let mut f = StdVfs.open_read(&edges)?;
        let mut buf = vec![0u8; 1 << 20];
        let t = Instant::now();
        let mut at = 0u64;
        while at < len {
            let n = (len - at).min(buf.len() as u64) as usize;
            f.read_exact_at(at, &mut buf[..n])?;
            at += n as u64;
        }
        black_box(buf.last());
        Ok(t.elapsed().as_secs_f64())
    })?;
    out.put("vfs.seq_read_mb_per_s", len as f64 / 1e6 / seq);

    let block = DEFAULT_BLOCK_SIZE as u64;
    let blocks = best_secs(trials, || {
        let mut r = BlockReader::open(&edges, IoCounter::new(DEFAULT_BLOCK_SIZE))?;
        let mut buf = vec![0u8; DEFAULT_BLOCK_SIZE];
        let t = Instant::now();
        let mut at = 0u64;
        while at < len {
            let n = (len - at).min(block) as usize;
            r.read_exact_at(at, &mut buf[..n])?;
            at += n as u64;
        }
        black_box(buf.last());
        Ok(t.elapsed().as_secs_f64())
    })?;
    out.put("io.blocks_per_s", len.div_ceil(block) as f64 / blocks);

    let mids = built.graph.degree_sum().max(1) as f64 / 1e6;
    let sync = best_secs(trials, || sweep_secs(&built.base, false))?;
    let ahead = best_secs(trials, || sweep_secs(&built.base, true))?;
    out.put("graph.scan_mids_per_s", mids / sync);
    out.put("graph.readahead_speedup", sync / ahead);
    // The same graph in the raw-u32 format: does v1 earn its keep?
    let v1 = built.dir.path().join("base-v1");
    write_mem_graph_with(
        &v1,
        &built.graph,
        IoCounter::new(DEFAULT_BLOCK_SIZE),
        FormatVersion::V1,
    )?;
    out.put(
        "graph.scan_v1_mids_per_s",
        mids / best_secs(trials, || sweep_secs(&v1, false))?,
    );
    let paths = GraphPaths::from_base(&v1);
    std::fs::remove_file(paths.nodes)?;
    std::fs::remove_file(paths.edges)?;
    Ok(())
}

/// One decomposition bare, one through both seam wrappers, one on the
/// two-worker executor; all three must agree with the oracle and charge
/// the same read I/Os.
fn decompose_traced(
    built: &Built,
    cache: u64,
    oracle: &[u32],
    vfs: &Arc<SpanVfs>,
    trials: usize,
    out: &mut Outcome,
) -> Result<()> {
    let mut bare_ios = 0;
    let bare = best_secs(trials, || {
        let t = Instant::now();
        let index = CoreIndex::open_with_cache(&built.base, cache)?;
        let wall = t.elapsed().as_secs_f64();
        bare_ios = index.decompose_stats().io.read_ios;
        if index.cores() != oracle {
            out.problem("decomposition disagrees with imcore on the generator's replica".into());
        }
        Ok(wall)
    })?;
    out.attempted += trials as u64;

    // The same calls `CoreIndex::open_with_cache` makes, with the wrappers
    // in between. Measurement must not move a charged counter.
    let mut last = None;
    let traced = best_secs(trials, || {
        let before = vfs.counts();
        let t = Instant::now();
        let counter = IoCounter::with_vfs(DEFAULT_BLOCK_SIZE, Arc::clone(vfs) as Arc<dyn Vfs>);
        let disk = DiskGraph::open_with_cache(&built.base, counter, cache)?;
        let mut g = SpanGraph::new(BufferedGraph::new(disk, DEFAULT_BUFFER_CAPACITY));
        let (state, stats) = semicore_star_state(&mut g, &DecomposeOptions::default())?;
        let wall = t.elapsed().as_secs_f64();
        if state.core != oracle {
            out.problem("traced decomposition disagrees with imcore".into());
        }
        let cache_stats = g.inner().disk().cache_stats().unwrap_or_default();
        last = Some((g.counts(), stats, cache_stats, vfs.counts().since(&before)));
        Ok(wall)
    })?;
    out.attempted += trials as u64;
    let (graph, stats, cache_stats, files) = last.expect("at least one traced decomposition");
    if stats.io.read_ios != bare_ios {
        out.problem(format!(
            "tracing changed the charged read I/Os: {} traced, {bare_ios} bare",
            stats.io.read_ios
        ));
    }

    let pair = best_secs(trials, || {
        let t = Instant::now();
        let disk =
            DiskGraph::open_with_cache(&built.base, IoCounter::new(DEFAULT_BLOCK_SIZE), cache)?;
        let index =
            CoreIndex::from_disk_graph(disk, DEFAULT_BUFFER_CAPACITY, ScanExecutor::parallel(2))?;
        let wall = t.elapsed().as_secs_f64();
        if index.cores() != oracle {
            out.problem("two-worker decomposition disagrees with imcore".into());
        }
        Ok(wall)
    })?;
    out.attempted += trials as u64;

    let call_s = graph.call_ns as f64 / 1e9;
    out.put("vfs.reads", files.reads as f64);
    out.put("vfs.read_s", files.read_ns as f64 / 1e9);
    out.put("vfs.read_bytes", files.read_bytes as f64);
    out.put("io.physical_reads", stats.io.physical_reads as f64);
    out.put("cache.hit_ratio", cache_stats.hit_rate());
    out.put("cache.misses", cache_stats.misses as f64);
    out.put("cache.evictions", cache_stats.evictions as f64);
    out.put("graph.ids_delivered", graph.ids_delivered as f64);
    out.put("graph.call_s", call_s);
    out.put("semicore_star.self_s", (traced - call_s).max(0.0));
    out.put("semicore_star.passes", stats.iterations as f64);
    out.put(
        "semicore_star.node_computations",
        stats.node_computations as f64,
    );
    let ids_per_s = graph.ids_delivered as f64 / bare / 1e6;
    out.put("semicore_star.ids_per_s", ids_per_s);
    out.put(
        "semicore_star.decode_roofline_fraction",
        ids_per_s / out.get("codec.v3_decode_mids_per_s").unwrap_or(f64::NAN),
    );
    out.put(
        "semicore_star.mem_model_bytes",
        stats.peak_memory_bytes as f64,
    );
    out.put("executor.parallel2_speedup", bare / pair);
    out.put("trace.overhead_ratio", traced / bare);
    Ok(())
}

/// Run `op` against a service directly, below the line protocol.
fn service_op(svc: &CoreService, op: &Op) -> Result<()> {
    match *op {
        Op::Insert(u, v) => svc.insert_edge(GRAPH, u, v).map(drop),
        Op::Delete(u, v) => svc.delete_edge(GRAPH, u, v).map(drop),
        Op::Core(v) => svc.core(GRAPH, v).map(|c| {
            black_box(c);
        }),
        Op::Kmax => svc.kmax(GRAPH).map(|k| {
            black_box(k);
        }),
        Op::Compact => svc.compact(GRAPH).map(drop),
    }
}

/// The top boundary: one TCP connection sending the clients' streams
/// interleaved until `seconds` pass or [`PEEL_MAX_OPS`] requests are
/// recorded, then settling. Returns the requests and their latencies (µs).
fn peel_tcp(
    rec: &Recorder,
    addr: SocketAddr,
    streams: &mut [ClientStream],
    seconds: f64,
) -> Result<(Vec<Op>, Vec<f64>)> {
    let mut conn = Client::connect(addr)?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut ops, mut lat) = (Vec::new(), Vec::new());
    loop {
        let more = ops.len() < PEEL_MIN_OPS || Instant::now() < deadline;
        let op = if more && ops.len() < PEEL_MAX_OPS {
            match streams[ops.len() % CLIENTS].next_op() {
                // The boundaries below the durable service cannot compact.
                Op::Compact => continue,
                op => op,
            }
        } else {
            match streams.iter_mut().find_map(ClientStream::settle) {
                Some(op) => op,
                None => break,
            }
        };
        let line = op.line();
        let id = PEEL_OP_BASE + ops.len() as u64;
        let (ok, ns) = rec.request("peel.tcp", id, || conn.call(&line));
        if !ok? {
            return Err(Error::InvalidArgument(format!(
                "{line:?} refused: {}",
                conn.reply()
            )));
        }
        ops.push(op);
        lat.push(ns as f64 / 1e3);
    }
    Ok((ops, lat))
}

/// Replay the recorded requests at a lower boundary; latencies in µs.
fn replay(
    rec: &Recorder,
    name: &'static str,
    ops: &[Op],
    mut f: impl FnMut(&Op) -> Result<()>,
) -> Result<Vec<f64>> {
    let mut lat = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let (res, ns) = rec.request(name, PEEL_OP_BASE + i as u64, || f(op));
        res?;
        lat.push(ns as f64 / 1e3);
    }
    Ok(lat)
}

/// Median over the requests `keep` selects of `upper[i] − lower[i]`: the
/// self time of the layer between two boundaries.
fn self_time(ops: &[Op], upper: &[f64], lower: &[f64], keep: impl Fn(Kind) -> bool) -> f64 {
    let diffs: Vec<f64> = ops
        .iter()
        .zip(upper.iter().zip(lower))
        .filter(|(op, _)| keep(op.kind()))
        .map(|(_, (u, l))| u - l)
        .collect();
    Summary::new(diffs).median().unwrap_or(0.0)
}

fn of_kind(ops: &[Op], lat: &[f64], keep: impl Fn(Kind) -> bool) -> Summary {
    Summary::new(
        ops.iter()
            .zip(lat)
            .filter(|(op, _)| keep(op.kind()))
            .map(|(_, &l)| l)
            .collect(),
    )
}

/// Layer peeling (see the module docs). `svc` is the durable service behind
/// the server at `addr`; the three boundaries below it each open the same
/// base tables fresh.
fn peel(
    rec: &Recorder,
    cfg: &RunConfig,
    built: &Built,
    addr: SocketAddr,
    svc: &CoreService,
    streams: &mut [ClientStream],
    out: &mut Outcome,
) -> Result<()> {
    let budget = budget_bytes(cfg.spec, built)?;
    let (ops, tcp) = peel_tcp(rec, addr, streams, cfg.seconds * PEEL_SHARE)?;
    out.attempted += ops.len() as u64;
    let dispatched = replay(rec, "peel.dispatch", &ops, |op| {
        let response = dispatch(svc, &op.line());
        match response.lines.first() {
            Some(l) if l.starts_with("err") => Err(Error::InvalidArgument(l.clone())),
            _ => Ok(()),
        }
    })?;
    let durable = replay(rec, "peel.service_durable", &ops, |op| service_op(svc, op))?;

    let volatile_svc = CoreService::with_config(
        DEFAULT_BLOCK_SIZE,
        budget,
        EvictionPolicy::ScanLifo,
        ScanExecutor::Sequential,
    )?;
    volatile_svc.open_with_charge(GRAPH, &built.base, budget)?;
    let volatile = replay(rec, "peel.service_volatile", &ops, |op| {
        service_op(&volatile_svc, op)
    })?;
    drop(volatile_svc);

    let mut index = CoreIndex::open_with_cache(&built.base, budget)?;
    let (mut inserts, mut computations, mut read_ios) = (0u64, 0u64, 0u64);
    let engine = replay(rec, "peel.index", &ops, |op| {
        match *op {
            Op::Insert(u, v) => {
                let stats = index.insert_edge(u, v)?;
                inserts += 1;
                computations += stats.node_computations;
                read_ios += stats.io.read_ios;
            }
            Op::Delete(u, v) => {
                index.delete_edge(u, v)?;
            }
            Op::Core(v) => {
                black_box(index.core(v));
            }
            Op::Kmax => {
                black_box(index.kmax());
            }
            Op::Compact => unreachable!("not recorded"),
        }
        Ok(())
    })?;
    drop(index);

    let mut mem = InMemoryCores::new(&built.graph)?;
    let floor = replay(rec, "peel.inmem", &ops, |op| {
        match *op {
            Op::Insert(u, v) => {
                mem.insert_edge(u, v)?;
            }
            Op::Delete(u, v) => {
                mem.delete_edge(u, v)?;
            }
            Op::Core(v) => {
                black_box(mem.core(v));
            }
            Op::Kmax => {
                black_box(mem.cores().iter().max());
            }
            Op::Compact => unreachable!("not recorded"),
        }
        Ok(())
    })?;

    // The front end's self times come from the reads: below `dispatch` a
    // read costs a fraction of a microsecond, whereas a write carries an
    // fsync on both sides of the difference and its jitter would drown a
    // layer this thin.
    let read = |k| k == Kind::Read;
    let write = |k| matches!(k, Kind::Insert | Kind::Delete);
    let reads = of_kind(&ops, &tcp, read).count();
    let socket = self_time(&ops, &tcp, &dispatched, read);
    let dispatch_self = self_time(&ops, &dispatched, &durable, read);
    let commit = self_time(&ops, &durable, &volatile, write);
    let overhead = self_time(&ops, &volatile, &engine, write);
    out.put_timing("server.socket_us_p50", socket, reads, "");
    out.put_timing("server.dispatch_us_p50", dispatch_self, reads, "");
    let writes = of_kind(&ops, &tcp, write).count();
    out.put_timing("wal.commit_us_p50", commit, writes, "");
    // Against the mean, not the median, of what the client saw: writes are
    // bimodal (a cheap delete, an insert that may sweep a subcore), and the
    // question is what share of the time spent waiting for writes is the
    // journal's. The commit's own median is robust: it is nearly the same
    // for every write.
    let seen: Vec<f64> = ops
        .iter()
        .zip(&tcp)
        .filter(|(op, _)| write(op.kind()))
        .map(|(_, &l)| l)
        .collect();
    let mean_write = seen.iter().sum::<f64>() / seen.len().max(1) as f64;
    out.put("wal.share", commit / mean_write);
    out.put_timing("service.overhead_us_p50", overhead, writes, "");

    let ins = of_kind(&ops, &engine, |k| k == Kind::Insert);
    let del = of_kind(&ops, &engine, |k| k == Kind::Delete);
    let (ins_tail, which) = ins.p99_or_best().unwrap_or((f64::NAN, ""));
    out.put_timing(
        "maintain.insert_us_p50",
        ins.median().unwrap_or(f64::NAN),
        ins.count(),
        "",
    );
    out.put_timing("maintain.insert_us_p99", ins_tail, ins.count(), which);
    out.put_timing(
        "maintain.delete_us_p50",
        del.median().unwrap_or(f64::NAN),
        del.count(),
        "",
    );
    out.put_timing(
        "maintain.mem_insert_us_p50",
        of_kind(&ops, &floor, |k| k == Kind::Insert)
            .median()
            .unwrap_or(f64::NAN),
        ins.count(),
        "",
    );
    let per_insert = |total: u64| total as f64 / inserts.max(1) as f64;
    out.put(
        "maintain.node_computations_per_insert",
        per_insert(computations),
    );
    out.put("maintain.read_ios_per_insert", per_insert(read_ios));

    // The peeled self times of an insert, summed, against what the client
    // saw (inserts alone: pooled with deletes the median would sit on the
    // boundary between the two).
    let insert = |k| k == Kind::Insert;
    let layers = [&tcp, &dispatched, &durable, &volatile, &engine];
    let peeled: f64 = layers
        .windows(2)
        .map(|pair| self_time(&ops, pair[0], pair[1], insert))
        .sum();
    let seen = of_kind(&ops, &tcp, insert).median().unwrap_or(f64::NAN);
    out.put(
        "trace.peel_sum_ratio",
        (peeled + ins.median().unwrap_or(f64::NAN)) / seen,
    );
    Ok(())
}

/// `core` reads straight at the service for `seconds`; latencies in µs.
fn read_loop(svc: &CoreService, nodes: u32, seed: u64, seconds: f64) -> Result<Vec<f64>> {
    let mut rng = SplitMix64::new(seed);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut lat = Vec::new();
    while Instant::now() < deadline {
        let v = rng.below(nodes);
        let t = Instant::now();
        black_box(svc.core(GRAPH, v)?);
        lat.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(lat)
}

/// What a read waits for the graph lock: the same reads solo and beside a
/// thread applying the writer's stream.
fn lock_wait(
    cfg: &RunConfig,
    built: &Built,
    svc: &CoreService,
    writer: &mut ClientStream,
    out: &mut Outcome,
) -> Result<()> {
    let nodes = built.graph.num_nodes();
    let seconds = cfg.seconds * PROBE_SHARE;
    let solo = Summary::new(read_loop(svc, nodes, cfg.seed, seconds)?);
    let stop = AtomicBool::new(false);
    let beside = std::thread::scope(|scope| -> Result<Vec<f64>> {
        let writing = scope.spawn(|| -> Result<()> {
            while !stop.load(Ordering::Relaxed) {
                let op = writer.next_op();
                if matches!(op.kind(), Kind::Insert | Kind::Delete) {
                    service_op(svc, &op)?;
                }
            }
            writer.settle().map_or(Ok(()), |op| service_op(svc, &op))
        });
        let reads = read_loop(svc, nodes, cfg.seed, seconds);
        stop.store(true, Ordering::Relaxed);
        writing.join().expect("writer thread panicked")?;
        reads
    })?;
    let beside = Summary::new(beside);
    let p50 = |s: &Summary| s.median().unwrap_or(f64::NAN);
    let tail = |s: &Summary| s.p99_or_best().map_or(f64::NAN, |t| t.0);
    out.put_timing("service.read_solo_us_p50", p50(&solo), solo.count(), "");
    out.put_timing(
        "service.lock_wait_us_p50",
        p50(&beside) - p50(&solo),
        beside.count(),
        "",
    );
    out.put_timing(
        "service.lock_wait_us_p99",
        tail(&beside) - tail(&solo),
        beside.count(),
        beside.p99_or_best().map_or("", |t| t.1),
    );
    // A closed-loop reader blocked for a whole insert is one sample among
    // the thousands it takes between inserts, so no percentile shows the
    // wait; the share of its time it spent waiting does. Both loops ran for
    // the same time, so that is the share of reads it did not get to make.
    out.put(
        "service.lock_wait_share",
        1.0 - beside.count() as f64 / solo.count().max(1) as f64,
    );
    Ok(())
}

/// The reply round trip as a client sees it that leaves the kernel's delayed
/// ACK on (see [`Client::connect_stock`]): the median of a few reads.
fn stock_client_rtt(
    addr: SocketAddr,
    nodes: u32,
    reads: usize,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let mut conn = Client::connect_stock(addr)?;
    let mut lat = Vec::with_capacity(reads);
    for i in 0..reads {
        let line = Op::Core(i as u32 % nodes).line();
        out.attempted += 1;
        let t = Instant::now();
        if !conn.call(&line)? {
            out.failed += 1;
        }
        lat.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.put_timing("server.stock_client_rtt_us_p50", median(&lat), reads, "");
    Ok(())
}

/// The journal alone: `Wal::append` (write + fsync), and two threads
/// sharing barriers through a `GroupCommitWal`.
fn wal_probes(cfg: &RunConfig, built: &Built, out: &mut Outcome) -> Result<()> {
    let seconds = Duration::from_secs_f64(cfg.seconds * PROBE_SHARE);
    // A journal record of the served graph: 8-byte sequence number + op.
    let payload = [0u8; 8 + kcore_suite::semicore::MAINTAIN_OP_LEN];
    let path = built.dir.path().join("probe.wal");

    let mut wal = Wal::create(&path, IoCounter::new(DEFAULT_BLOCK_SIZE))?;
    let deadline = Instant::now() + seconds;
    let mut lat = Vec::new();
    while Instant::now() < deadline {
        let t = Instant::now();
        wal.append(&payload)?;
        lat.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(wal);
    let s = Summary::new(lat);
    out.put_timing(
        "wal.append_sync_us_p50",
        s.median().unwrap_or(f64::NAN),
        s.count(),
        "",
    );

    let group = GroupCommitWal::wrap(
        Wal::create(&path, IoCounter::new(DEFAULT_BLOCK_SIZE))?,
        GroupCommitOptions { max_delay: GATHER },
    )?;
    let deadline = Instant::now() + seconds;
    let lat = std::thread::scope(|scope| -> Result<Vec<f64>> {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| -> Result<Vec<f64>> {
                    let mut lat = Vec::new();
                    while Instant::now() < deadline {
                        let t = Instant::now();
                        let lsn = group.submit(&payload)?;
                        group.wait_durable(lsn, true)?;
                        lat.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                    Ok(lat)
                })
            })
            .collect();
        let mut all = Vec::new();
        for w in workers {
            all.extend(w.join().expect("group-commit thread panicked")?);
        }
        Ok(all)
    })?;
    drop(group);
    std::fs::remove_file(&path)?;
    let s = Summary::new(lat);
    out.put_timing(
        "wal.group_wait_us_p50",
        s.median().unwrap_or(f64::NAN),
        s.count(),
        "",
    );
    Ok(())
}

/// The traced run of one workload; spans go to `spans_path`.
pub fn run(cfg: &RunConfig, spans_path: &Path) -> Result<Outcome> {
    let spec = cfg.spec;
    let trials = if cfg.smoke { 1 } else { 3 };
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let rec = Recorder::new();
    let vfs = SpanVfs::new(Arc::clone(&rec));

    let built = build(cfg)?;
    describe(&built, spec)?;
    let edges = built.graph.num_edges();
    out.put(
        "builder.build_medges_per_s",
        edges as f64 / built.build_s.max(1e-9) / 1e6,
    );
    codec_probe(&built.graph, trials, &mut out)?;
    storage_probes(&built, trials, &mut out)?;
    let oracle = imcore(&built.graph).core;
    let cache = budget_bytes(spec, &built)?;
    decompose_traced(&built, cache, &oracle, &vfs, trials.min(2), &mut out)?;

    // The closed-loop serve phase again, with `SpanVfs` under the service
    // and a span per request.
    let mut serving = serve(&built, spec, Arc::clone(&vfs) as Arc<dyn Vfs>)?;
    let addr = serving.server.local_addr();
    let svc = Arc::clone(&serving.svc);
    let mut streams = cfg.streams(&built.graph);
    let (files0, pool0, io0) = (vfs.counts(), svc.pool().stats(), svc.io(GRAPH)?);
    let served = serve_phase(addr, &mut streams, cfg.seconds * SERVE_SHARE, Some(&rec))?;
    let files = vfs.counts().since(&files0);
    let (pool1, io1) = (svc.pool().stats(), svc.io(GRAPH)?.since(&io0));
    served.report(&mut out);
    let writes = served.acked_writes.max(1) as f64;
    let fsyncs = Summary::new(files.fsync_ns.iter().map(|&ns| ns as f64 / 1e3).collect());
    out.put_timing(
        "vfs.fsync_us_p50",
        fsyncs.median().unwrap_or(f64::NAN),
        fsyncs.count(),
        "",
    );
    out.put("vfs.fsyncs", files.fsyncs as f64);
    out.put("vfs.write_bytes", files.write_bytes as f64);
    out.put(
        "io.physical_reads_per_write",
        io1.physical_reads as f64 / writes,
    );
    let (hits, misses) = (pool1.hits - pool0.hits, pool1.misses - pool0.misses);
    out.put(
        "pool.hit_ratio",
        hits as f64 / ((hits + misses).max(1)) as f64,
    );
    out.put("pool.evictions", (pool1.evictions - pool0.evictions) as f64);
    out.put("wal.fsyncs_per_write", files.fsyncs as f64 / writes);
    out.put("wal.bytes_per_write", files.wal_write_bytes as f64 / writes);
    peel(&rec, cfg, &built, addr, &svc, &mut streams, &mut out)?;
    let stock_reads = if cfg.smoke { 4 } else { STOCK_READS };
    stock_client_rtt(addr, built.graph.num_nodes(), stock_reads, &mut out)?;
    lock_wait(cfg, &built, &svc, &mut streams[0], &mut out)?;
    wal_probes(cfg, &built, &mut out)?;

    // The catalog's own operations, then the same fixed epilogue, drain,
    // reopen and checks as the untraced run.
    let t = Instant::now();
    svc.save(GRAPH)?;
    out.put("catalog.checkpoint_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    svc.compact(GRAPH)?;
    out.put("catalog.compact_ms", t.elapsed().as_secs_f64() * 1e3);
    out.put("catalog.compactions", svc.generation(GRAPH)? as f64);
    let flips = tail_flips(&built.graph, cfg.size().flips);
    let tail: Vec<Op> = flips.iter().map(Pair::flip).collect();
    send_all(addr, &tail, &mut out)?;
    serving.server.shutdown();
    drop((serving, svc));
    let (reopen_s, reopened) = reopen(
        &built,
        cfg.size().reopen_reps,
        Arc::clone(&vfs) as Arc<dyn Vfs>,
    )?;
    out.attempted += reopen_s.len() as u64;
    out.put_timing(
        "catalog.reopen_ms",
        median(&reopen_s) * 1e3,
        reopen_s.len(),
        "",
    );
    out.put(
        "catalog.reopen_read_ios",
        reopened.io(GRAPH)?.read_ios as f64,
    );
    check_reopened(&reopened, &built, &streams, &flips, &mut out)?;

    // What the workload is said to stress must be what it stresses. Only at
    // full size: a smoke graph of a few blocks has no regime.
    for &(name, lowest, highest) in spec.claims.iter().filter(|_| !cfg.smoke) {
        match out.get(name) {
            Some(v) if (lowest..=highest).contains(&v) => {}
            v => out.problem(format!(
                "{} claims {name} in {lowest}..={highest}, measured {v:?}",
                spec.name
            )),
        }
    }

    rec.write_jsonl(spans_path)?;
    let (kept, dropped) = rec.counts();
    eprintln!(
        "  {kept} spans written to {} ({dropped} dropped at the cap)",
        spans_path.display()
    );
    Ok(out)
}

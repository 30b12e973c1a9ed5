//! The untraced run: set-up, a decomposition phase, a closed-loop serve
//! phase over TCP, a fixed epilogue, drain, reopen, and the output checks.
//! Every workload goes through this one pipeline; the workloads differ in
//! the graph, the cache budget, the traffic mix and how `--seconds` is split
//! between decomposing and serving (see [`crate::workload::WORKLOADS`]).
//!
//! The two timed phases run for a share of `--seconds`; everything whose
//! cost depends on how much state has piled up (reopen time, bytes on disk)
//! is measured after a **fixed** epilogue — one compaction, then a fixed
//! number of single flips — so those numbers do not drift with how many
//! requests happened to fit in the window.
//!
//! The sandbox is shared, and its neighbours slow a run down by a third for
//! seconds at a time. So nothing is measured in one stretch: the run is cut
//! into [`ROUNDS`] rounds, each a slice of the decomposition phase, a slice
//! of the serve phase and one more set-up, and every metric pools its
//! samples over all rounds. A burst then reaches a part of every metric's
//! samples instead of all the samples of one, and the medians reported
//! shrug it off.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use kcore_suite::graphstore::{
    working_set_charge_budget, EvictionPolicy, GraphPaths, GroupCommitOptions, MemGraph, Result,
    StdVfs, TempDir, Vfs, DEFAULT_BLOCK_SIZE,
};
use kcore_suite::semicore::{imcore, ScanExecutor};
use kcore_suite::{fsck, CoreIndex, CoreService, DurableOptions, Server, ServerOptions};

use crate::metrics::Outcome;
use crate::spans::Recorder;
use crate::summary::Summary;
use crate::workload::{
    build_tables, final_graph, generate_graph, tail_flips, ClientStream, Kind, Op, Pair,
    WorkloadSpec, CLIENTS, GRAPH,
};

/// Group-commit gather window of every served graph.
pub const GATHER: Duration = Duration::from_micros(150);
/// Checkpoint cadence of every served graph.
pub const CHECKPOINT_EVERY: u64 = 64;
/// Share of the serve phase that warms up unmeasured.
const WARMUP_SHARE: f64 = 0.05;
/// A reply slower than this counts as a failed request.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Blocks the measured window is cut into for the throughput median.
const THROUGHPUT_BLOCKS: usize = 20;
/// Rounds a run is cut into (see the module docs).
pub const ROUNDS: usize = 4;
/// Requests every client measures in a serve phase however short it is: one
/// full turn of the 80 % write schedule, so every request class occurs.
const MIN_MEASURED: usize = 5;

/// One invocation: which workload, which inputs, for how long.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub spec: &'static WorkloadSpec,
    /// Generator seed.
    pub seed: u64,
    /// Seconds the timed phases run for.
    pub seconds: f64,
    /// Shrunk sizes for `--smoke` and the in-process test.
    pub smoke: bool,
}

/// The knobs `--smoke` shrinks, beside the graph's scale.
#[derive(Debug)]
pub(crate) struct Size {
    /// Pairs in each client's write slice.
    slice: usize,
    /// Rounds a run is cut into.
    rounds: usize,
    /// Reopens per run at least; `reopen_s` is their median.
    pub(crate) reopen_reps: usize,
    /// Single flips that end a run: a journal tail for the reopen to replay
    /// (and the check to find), half a checkpoint interval long.
    pub(crate) flips: usize,
}

const FULL: Size = Size {
    slice: 2048,
    rounds: ROUNDS,
    reopen_reps: 7,
    flips: (CHECKPOINT_EVERY / 2) as usize,
};

const SMOKE: Size = Size {
    slice: 64,
    rounds: 1,
    reopen_reps: 2,
    flips: 4,
};

impl RunConfig {
    pub(crate) fn size(&self) -> &'static Size {
        if self.smoke {
            &SMOKE
        } else {
            &FULL
        }
    }

    fn scale(&self) -> f64 {
        if self.smoke {
            self.spec.smoke_scale
        } else {
            self.spec.scale
        }
    }

    /// Seconds of the decomposition phase.
    pub(crate) fn decompose_secs(&self) -> f64 {
        self.seconds * self.spec.decompose_share
    }

    /// Seconds of the serve phase, warm-up included.
    pub(crate) fn serve_secs(&self) -> f64 {
        self.seconds * (1.0 - self.spec.decompose_share)
    }

    /// One stream per client over `graph`.
    pub(crate) fn streams(&self, graph: &MemGraph) -> Vec<ClientStream> {
        (0..CLIENTS)
            .map(|c| ClientStream::new(graph, self.spec, self.seed, c, self.size().slice))
            .collect()
    }
}

/// A generated graph on disk, with the generator's in-memory replica.
#[derive(Debug)]
pub struct Built {
    /// Holds the tables, and later the service's data directory.
    pub dir: TempDir,
    /// `<base>.nodes` / `<base>.edges`.
    pub base: PathBuf,
    /// The generator's replica of the edge set.
    pub graph: MemGraph,
    /// Size of the edge table.
    pub edge_bytes: u64,
    /// Wall time of the external build alone.
    pub build_s: f64,
}

impl Built {
    /// Where the durable service keeps its catalog, checkpoints and journal.
    pub fn data_dir(&self) -> PathBuf {
        self.dir.path().join("data")
    }
}

/// Generate the workload's graph and build its tables.
pub fn build(cfg: &RunConfig) -> Result<Built> {
    let dir = TempDir::new(&format!("kbench-{}", cfg.spec.name))?;
    let base = dir.path().join("base");
    let graph = generate_graph(cfg.spec, cfg.scale());
    let t = Instant::now();
    build_tables(&graph, &base)?;
    let build_s = t.elapsed().as_secs_f64();
    let edge_bytes = std::fs::metadata(GraphPaths::from_base(&base).edges)?.len();
    Ok(Built {
        dir,
        base,
        graph,
        edge_bytes,
        build_s,
    })
}

/// The workload's memory budget `M`: the private block cache of a
/// decomposition and the pool (and charge budget) of the served graph.
pub fn budget_bytes(spec: &WorkloadSpec, built: &Built) -> Result<u64> {
    Ok(match spec.cache_share {
        Some(share) => {
            ((built.edge_bytes as f64 * share) as u64).max(16 * DEFAULT_BLOCK_SIZE as u64)
        }
        None => working_set_charge_budget(&built.base, DEFAULT_BLOCK_SIZE)?,
    })
}

/// The flush policy, identical on every workload and both sides of any
/// later comparison: group commit with a 150 µs gather window, a checkpoint
/// every 64 writes, and the default compaction threshold.
pub fn durable_options() -> DurableOptions {
    DurableOptions {
        checkpoint_every: CHECKPOINT_EVERY,
        group_commit: Some(GroupCommitOptions { max_delay: GATHER }),
        ..DurableOptions::default()
    }
}

/// A durable service with the workload's graph open, behind a TCP server.
#[derive(Debug)]
pub struct Serving {
    /// The service.
    pub svc: Arc<CoreService>,
    /// Its front-end on an ephemeral loopback port.
    pub server: Server,
}

/// Create the durable service in `built`'s directory (through `vfs`), open
/// the graph — which decomposes it through the pool — and start the server.
pub fn serve(built: &Built, spec: &WorkloadSpec, vfs: Arc<dyn Vfs>) -> Result<Serving> {
    let budget = budget_bytes(spec, built)?;
    let svc = Arc::new(CoreService::create_durable_with_vfs(
        &built.data_dir(),
        DEFAULT_BLOCK_SIZE,
        budget,
        EvictionPolicy::ScanLifo,
        ScanExecutor::Sequential,
        durable_options(),
        vfs,
    )?);
    svc.open_with_charge(GRAPH, &built.base, budget)?;
    let server = Server::start(
        Arc::clone(&svc),
        "127.0.0.1:0",
        ServerOptions {
            max_connections: CLIENTS + 2,
            ..ServerOptions::default()
        },
    )?;
    Ok(Serving { svc, server })
}

/// A line-protocol client: one request line out, one reply line back.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Acknowledge replies at once (see [`quick_ack`]).
    quick_ack: bool,
    line: String,
    reply: String,
}

impl Client {
    /// Connect to the server.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            reader,
            writer,
            quick_ack: true,
            line: String::new(),
            reply: String::new(),
        })
    }

    /// Connect as a client that leaves the kernel's delayed ACK alone, which
    /// is what any client written without this benchmark's hindsight does.
    pub fn connect_stock(addr: SocketAddr) -> io::Result<Client> {
        let mut client = Client::connect(addr)?;
        client.quick_ack = false;
        Ok(client)
    }

    /// Send `request` and wait for its reply; `Ok(true)` unless the reply
    /// is an `err …` line.
    pub fn call(&mut self, request: &str) -> io::Result<bool> {
        self.line.clear();
        self.line.push_str(request);
        self.line.push('\n');
        self.writer.write_all(self.line.as_bytes())?;
        if self.quick_ack {
            quick_ack(&self.writer);
        }
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(!self.reply.starts_with("err"))
    }

    /// The last reply line.
    pub fn reply(&self) -> &str {
        self.reply.trim_end()
    }
}

/// Ask the kernel to acknowledge what arrives on `stream` at once, until
/// the next send (which puts the socket back into delayed-ACK mode, hence
/// the call after every request).
///
/// The server writes a reply in two segments, text then newline, with
/// Nagle's algorithm on: the newline waits for the text's ACK, and a client
/// with nothing to send delays that ACK by 40 ms. A client that leaves it so
/// measures 44 ms per request whatever the request did (README, "The reply
/// stall"); this one acknowledges at once, as a latency-minded caller would,
/// so that what is left is the server's own time.
/// `server.stock_client_rtt_us_p50` keeps the stall in view.
#[cfg(target_os = "linux")]
fn quick_ack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // SAFETY: `setsockopt(2)` with a live descriptor borrowed from `stream`,
    // a pointer to an `i32` that outlives the call, and that `i32`'s size.
    // A refusal only costs the stall back, so the result is not checked.
    unsafe {
        setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &on, 4);
    }
}

#[cfg(not(target_os = "linux"))]
fn quick_ack(_: &TcpStream) {}

/// What the clients of a serve phase saw.
#[derive(Debug, Default)]
pub struct ServeReport {
    /// Client-side latency in µs, request line sent → reply line read, of
    /// every acknowledged request of the measured window, by [`Kind`].
    pub latency_us: [Vec<f64>; 4],
    /// When each of those requests (operator requests aside) completed,
    /// seconds into the window.
    pub done_s: Vec<f64>,
    /// Requests sent, warm-up and settling included.
    pub attempted: u64,
    /// Requests answered `err …`, timed out, or cut off.
    pub failed: u64,
    /// Writes acknowledged, warm-up and settling included.
    pub acked_writes: u64,
}

impl ServeReport {
    /// Acknowledged requests in the measured window.
    pub fn measured_ops(&self) -> usize {
        self.done_s.len()
    }

    /// Acknowledged requests per second: the measured window is cut into
    /// [`THROUGHPUT_BLOCKS`] runs of equally many consecutive completions
    /// and the median of their rates is reported, so that a burst of
    /// interference from the shared sandbox costs a few blocks, not a share
    /// of the figure.
    pub fn ops_per_s(&self) -> Option<f64> {
        let mut done = self.done_s.clone();
        done.sort_by(|a, b| a.partial_cmp(b).expect("completion times are never NaN"));
        let per_block = done.len().div_ceil(THROUGHPUT_BLOCKS).max(1);
        let mut from = 0.0;
        let rates: Vec<f64> = done
            .chunks(per_block)
            .filter_map(|block| {
                let until = *block.last()?;
                let rate = (until > from).then(|| block.len() as f64 / (until - from));
                from = until;
                rate
            })
            .collect();
        Summary::new(rates).median()
    }

    /// Latency summary of one request class.
    pub fn summary(&self, kind: Kind) -> Summary {
        Summary::new(self.latency_us[kind as usize].clone())
    }

    /// Count the requests into `out` and put the client-side metrics there:
    /// throughput, and per request class the median and the tail.
    pub fn report(&self, out: &mut Outcome) {
        out.attempted += self.attempted;
        out.failed += self.failed;
        match self.ops_per_s() {
            Some(rate) => out.put_timing("serve_ops_per_s", rate, self.measured_ops(), ""),
            None => out.problem("no request was acknowledged in the measured window".into()),
        }
        for (kind, p50_name, p99_name) in [
            (Kind::Insert, "insert_p50_us", "insert_p99_us"),
            (Kind::Delete, "delete_p50_us", "delete_p99_us"),
            (Kind::Read, "read_p50_us", "read_p99_us"),
        ] {
            let s = self.summary(kind);
            match (s.median(), s.p99_or_best()) {
                (Some(p50), Some((tail, which))) => {
                    out.put_timing(p50_name, p50, s.count(), "");
                    out.put_timing(p99_name, tail, s.count(), which);
                }
                _ => out.problem(format!("no {} was acknowledged", kind.name())),
            }
        }
    }

    /// Add `other`, whose measured window starts `offset_s` seconds into
    /// this report's.
    pub fn merge(&mut self, other: ServeReport, offset_s: f64) {
        for (mine, theirs) in self.latency_us.iter_mut().zip(other.latency_us) {
            mine.extend(theirs);
        }
        self.done_s
            .extend(other.done_s.into_iter().map(|t| t + offset_s));
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.acked_writes += other.acked_writes;
    }
}

/// Span name of a request class at the TCP boundary.
fn tcp_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Insert => "tcp.insert",
        Kind::Delete => "tcp.delete",
        Kind::Read => "tcp.read",
        Kind::Admin => "tcp.admin",
    }
}

/// One client's closed loop: send, wait for the reply, send the next. A
/// request counts towards the measured window when it was sent after the
/// warm-up; the client stops at the deadline (or, in a phase too short for
/// it, after [`MIN_MEASURED`] measured requests) and settles its slice.
fn client_loop(
    mut conn: Client,
    client: usize,
    stream: &mut ClientStream,
    start: &Barrier,
    warmup: Duration,
    measure: Duration,
    recorder: Option<&Recorder>,
) -> ServeReport {
    let mut report = ServeReport::default();
    start.wait();
    let warm_until = Instant::now() + warmup;
    let deadline = warm_until + measure;
    let mut seq = 0u64;
    let mut measured = 0;
    loop {
        let settling = Instant::now() >= deadline && measured >= MIN_MEASURED;
        let op = if settling {
            match stream.settle() {
                Some(op) => op,
                None => break,
            }
        } else {
            stream.next_op()
        };
        let line = op.line();
        // Requests of client c are numbered c+1, c+1+CLIENTS, …
        let id = seq * CLIENTS as u64 + client as u64 + 1;
        seq += 1;
        report.attempted += 1;
        let sent = Instant::now();
        let ok = match recorder {
            Some(rec) => rec.request(tcp_span(op.kind()), id, || conn.call(&line)).0,
            None => conn.call(&line),
        };
        let done = Instant::now();
        match ok {
            Ok(true) => {
                let kind = op.kind();
                if matches!(kind, Kind::Insert | Kind::Delete) {
                    report.acked_writes += 1;
                }
                if sent >= warm_until && !settling {
                    measured += 1;
                    report.latency_us[kind as usize].push((done - sent).as_secs_f64() * 1e6);
                    if kind != Kind::Admin {
                        report.done_s.push((done - warm_until).as_secs_f64());
                    }
                }
            }
            Ok(false) => report.failed += 1,
            Err(_) => {
                // The connection is gone or the reply never came: the
                // stream's position no longer matches the server's state.
                report.failed += 1;
                break;
            }
        }
    }
    report
}

/// Run the closed-loop serve phase: [`CLIENTS`] connections, each sending
/// its own stream for `seconds` (the first [`WARMUP_SHARE`] unmeasured),
/// then settling its slice. With a recorder every request is a span.
pub fn serve_phase(
    addr: SocketAddr,
    streams: &mut [ClientStream],
    seconds: f64,
    recorder: Option<&Recorder>,
) -> io::Result<ServeReport> {
    let warmup = Duration::from_secs_f64(seconds * WARMUP_SHARE);
    let measure = Duration::from_secs_f64(seconds * (1.0 - WARMUP_SHARE));
    // Everything that can fail happens before the threads exist, so every
    // thread reaches the barrier.
    let conns = streams
        .iter()
        .map(|_| Client::connect(addr))
        .collect::<io::Result<Vec<Client>>>()?;
    let start = Barrier::new(streams.len());
    let mut total = ServeReport::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .zip(conns)
            .enumerate()
            .map(|(c, (stream, conn))| {
                let start = &start;
                scope.spawn(move || client_loop(conn, c, stream, start, warmup, measure, recorder))
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("client thread panicked"), 0.0);
        }
    });
    Ok(total)
}

/// What the decomposition phase measured.
#[derive(Debug, Default)]
pub struct DecomposeReport {
    /// Wall time of each `CoreIndex::open_with_cache`, seconds.
    pub walls: Vec<f64>,
    /// Charged read I/Os of one decomposition.
    pub read_ios: u64,
}

/// Decompose the graph cold (a fresh private cache each time) until
/// `seconds` have passed, at least once, adding to `report`. Every
/// repetition's cores are compared with `oracle`; the last one also checks
/// the certificate.
pub fn decompose_phase(
    built: &Built,
    cache_bytes: u64,
    seconds: f64,
    oracle: &[u32],
    report: &mut DecomposeReport,
    out: &mut Outcome,
) -> Result<()> {
    let phase = Instant::now();
    let mut last = None;
    while last.is_none() || phase.elapsed().as_secs_f64() < seconds {
        out.attempted += 1;
        let t = Instant::now();
        let index = CoreIndex::open_with_cache(&built.base, cache_bytes)?;
        report.walls.push(t.elapsed().as_secs_f64());
        let read_ios = index.decompose_stats().io.read_ios;
        if report.walls.len() > 1 && read_ios != report.read_ios {
            out.problem(format!(
                "decomposition charged {read_ios} read I/Os, an earlier repetition {}",
                report.read_ios
            ));
        }
        report.read_ios = read_ios;
        if index.cores() != oracle {
            out.failed += 1;
            out.problem("decomposition disagrees with imcore on the generator's replica".into());
        }
        last = Some(index);
    }
    if let Some(mut index) = last {
        if !index.verify()? {
            out.problem("Theorem 4.1 certificate violated after decomposition".into());
        }
    }
    Ok(())
}

/// Send `ops` over one connection, counting attempts and failures.
pub fn send_all(addr: SocketAddr, ops: &[Op], out: &mut Outcome) -> io::Result<()> {
    let mut conn = Client::connect(addr)?;
    for op in ops {
        out.attempted += 1;
        if !conn.call(&op.line())? {
            out.failed += 1;
            out.problem(format!("{:?} refused: {}", op, conn.reply()));
        }
    }
    Ok(())
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Reopen the drained data directory at least `reps` times, and for up to
/// half a second while reopens are quick (a handful of millisecond timings
/// is mostly noise); returns each `open_catalog` wall time in seconds and
/// the last reopened service.
pub fn reopen(built: &Built, reps: usize, vfs: Arc<dyn Vfs>) -> Result<(Vec<f64>, CoreService)> {
    let mut walls: Vec<f64> = Vec::with_capacity(reps);
    let mut svc = None;
    while walls.len() < reps.max(1) || (walls.iter().sum::<f64>() < 0.5 && walls.len() < 8 * reps) {
        drop(svc.take());
        let t = Instant::now();
        let reopened = CoreService::open_catalog_with_vfs(
            &built.data_dir(),
            ScanExecutor::Sequential,
            durable_options(),
            Arc::clone(&vfs),
        )?;
        walls.push(t.elapsed().as_secs_f64());
        svc = Some(reopened);
    }
    Ok((walls, svc.expect("at least one reopen")))
}

/// The output checks on the reopened service: cores equal `imcore` on the
/// generator's replica of the final edge set, the certificate holds, every
/// acknowledged flip (and every settled pair of the clients' slices) is in
/// the state the replica says, and `fsck` finds nothing. Returns the number
/// of live edges.
pub fn check_reopened(
    svc: &CoreService,
    built: &Built,
    streams: &[ClientStream],
    flips: &[Pair],
    out: &mut Outcome,
) -> Result<u64> {
    let expect = final_graph(&built.graph, flips);
    if svc.cores(GRAPH)? != imcore(&expect).core {
        out.problem("reopened cores disagree with imcore on the final edge set".into());
    }
    if !svc.verify(GRAPH)? {
        out.problem("Theorem 4.1 certificate violated after reopen".into());
    }
    let wrong = svc.with_graph(GRAPH, |index| {
        let mut wrong = 0usize;
        for p in streams.iter().flat_map(|s| s.pairs()).chain(flips) {
            if index.has_edge(p.u, p.v)? != expect.has_edge(p.u, p.v) {
                wrong += 1;
            }
        }
        Ok(wrong)
    })?;
    if wrong > 0 {
        out.problem(format!(
            "{wrong} pairs differ from the acknowledged writes after reopen"
        ));
    }
    let report = fsck(&built.data_dir(), false)?;
    if !report.clean() {
        out.problem(format!("fsck: {:?}", report.findings));
    }
    Ok(expect.num_edges())
}

/// Median of `values` (must be non-empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::new(values.to_vec())
        .median()
        .expect("median of an empty sample")
}

/// Print the sizes a run works at: they decide which layers do the work.
pub fn describe(built: &Built, spec: &WorkloadSpec) -> Result<()> {
    eprintln!(
        "  {}: {} nodes, {} edges, edge table {} B, cache/pool {} B",
        spec.dataset,
        built.graph.num_nodes(),
        built.graph.num_edges(),
        built.edge_bytes,
        budget_bytes(spec, built)?
    );
    Ok(())
}

/// The end-to-end run of one workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome> {
    let spec = cfg.spec;
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };

    let mut setup_s = Vec::new();
    let mut set_up = || -> Result<(Built, Serving)> {
        let t = Instant::now();
        let built = build(cfg)?;
        let serving = serve(&built, spec, StdVfs::arc())?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok((built, serving))
    };
    let (built, mut serving) = set_up()?;
    let addr = serving.server.local_addr();
    describe(&built, spec)?;
    let oracle = imcore(&built.graph).core;
    let cache = budget_bytes(spec, &built)?;
    let mut streams = cfg.streams(&built.graph);

    let rounds = cfg.size().rounds;
    let mut dec = DecomposeReport::default();
    let mut served = ServeReport::default();
    for round in 0..rounds {
        let share = 1.0 / rounds as f64;
        decompose_phase(
            &built,
            cache,
            cfg.decompose_secs() * share,
            &oracle,
            &mut dec,
            &mut out,
        )?;
        let secs = cfg.serve_secs() * share;
        let slice = serve_phase(addr, &mut streams, secs, None)?;
        // Measured windows are laid end to end, warm-ups left out.
        served.merge(slice, round as f64 * secs * (1.0 - WARMUP_SHARE));
        // One more set-up between rounds (several while they take
        // milliseconds), torn down at once: `setup_s` is the median of
        // set-ups spread over the whole run.
        let slot = Instant::now();
        let mut extra = 0;
        while round + 1 < rounds && extra < 6 && (extra == 0 || slot.elapsed().as_secs_f64() < 0.2)
        {
            set_up()?.1.server.shutdown();
            extra += 1;
        }
    }
    out.put_timing("setup_s", median(&setup_s), setup_s.len(), "");
    out.put_timing(
        "decompose_medges_per_s",
        built.graph.num_edges() as f64 / median(&dec.walls) / 1e6,
        dec.walls.len(),
        "",
    );
    out.put("decompose_read_ios", dec.read_ios as f64);
    // What the clients saw is printed, not reported: on this sandbox it
    // does not repeat (README, "Demoted"), so it is a per-layer metric.
    served.report(&mut out);

    // Fixed epilogue: compact, then leave a fixed journal tail of flips.
    let flips = tail_flips(&built.graph, cfg.size().flips);
    let mut epilogue = vec![Op::Compact];
    epilogue.extend(flips.iter().map(Pair::flip));
    send_all(addr, &epilogue, &mut out)?;

    // Drain (every acknowledged write is durable on return), reopen, check.
    serving.server.shutdown();
    drop(serving);
    let disk_bytes = dir_bytes(built.dir.path())?;
    let (reopen_s, reopened) = reopen(&built, cfg.size().reopen_reps, StdVfs::arc())?;
    out.attempted += reopen_s.len() as u64;
    out.put_timing(
        "catalog.reopen_ms",
        median(&reopen_s) * 1e3,
        reopen_s.len(),
        "",
    );
    let live_edges = check_reopened(&reopened, &built, &streams, &flips, &mut out)?;
    out.put("disk_bytes_per_edge", disk_bytes as f64 / live_edges as f64);
    Ok(out)
}

//! Smoke tests of the `kcore serve` surface: the stdin REPL binary, and
//! the TCP front-end. A session must survive failed commands — each
//! reported as one structured `err <kind>: …` line — and keep answering
//! correctly afterwards; over TCP, one connection degrading a tenant to
//! read-only must not disturb a concurrent connection serving another
//! tenant, the connection limit must shed with a parseable line, and
//! shutdown must drain in-flight ops and flush the group-commit journal
//! before closing sockets.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use graphstore::{
    FormatVersion, GroupCommitOptions, IoCounter, MemGraph, QosConfig, StdVfs, TempDir, Vfs,
    DEFAULT_BLOCK_SIZE,
};
use kcore_suite::server::{Server, ServerOptions};
use kcore_suite::{CoreService, DurableOptions};
use testutil::{FaultPlan, FaultVfs};

fn triangle_tail() -> MemGraph {
    MemGraph::from_edges(vec![(0u32, 1u32), (1, 2), (0, 2), (2, 3)], 4)
}

fn write_triangle_tail(base: &Path) {
    graphstore::write_mem_graph(base, &triangle_tail(), IoCounter::new(DEFAULT_BLOCK_SIZE))
        .unwrap();
}

fn run_session(args: &[&str], script: &str) -> (String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_kcore"))
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn kcore serve");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("kcore serve exits");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    )
}

#[test]
fn errors_are_structured_and_do_not_end_the_session() {
    let dir = TempDir::new("repl").unwrap();
    let base = dir.path().join("g");
    write_triangle_tail(&base);

    let script = "\
core g 999\n\
core g notanumber\n\
insert g 0 1\n\
kmax nosuchgraph\n\
definitely not a command\n\
kmax g\n\
insert g 1 3\n\
insert g 0 3\n\
kmax g\n\
quit\n";
    let (stdout, ok) = run_session(&[&format!("g={}", base.display())], script);
    assert!(ok, "session must exit cleanly, got:\n{stdout}");

    // Every failure is one structured `err <kind>: …` line.
    assert!(
        stdout.contains("err range:"),
        "out-of-range query:\n{stdout}"
    );
    assert!(
        stdout.contains("err usage: node id"),
        "unparsable node id:\n{stdout}"
    );
    assert!(
        stdout.contains("err usage: invalid argument: edge (0, 1) already present"),
        "duplicate insert:\n{stdout}"
    );
    assert!(
        stdout.contains("err usage: invalid argument: no graph named"),
        "unknown graph:\n{stdout}"
    );
    assert!(
        stdout.contains("err usage: unrecognised command"),
        "unknown command:\n{stdout}"
    );

    // The same session still serves correct answers *after* the errors:
    // kmax twice (2 before the inserts, 3 after the K4-completing edges).
    let answers: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("kmax = "))
        .collect();
    assert_eq!(answers, vec!["kmax = 2", "kmax = 3"], "\n{stdout}");
    let err_count = stdout.lines().filter(|l| l.starts_with("err ")).count();
    assert_eq!(err_count, 5, "exactly one err line per failure:\n{stdout}");
}

#[test]
fn fsck_reports_clean_directory_and_flags_damage() {
    let dir = TempDir::new("repl-fsck").unwrap();
    let base = dir.path().join("g");
    write_triangle_tail(&base);
    let data = dir.path().join("data");

    // Seed a durable directory through one serve session.
    let script = "insert g 1 3\nsave\nquit\n";
    let (stdout, ok) = run_session(
        &[
            "--data-dir",
            &data.display().to_string(),
            &format!("g={}", base.display()),
        ],
        script,
    );
    assert!(ok, "durable session:\n{stdout}");

    // Clean directory: fsck exits 0.
    let clean = Command::new(env!("CARGO_BIN_EXE_kcore"))
        .args(["fsck", &data.display().to_string()])
        .output()
        .expect("run fsck");
    assert!(clean.status.success(), "clean fsck must exit 0");

    // Tear the journal tail; fsck must fail, repair, then pass again.
    use std::fs::OpenOptions;
    let mut f = OpenOptions::new()
        .append(true)
        .open(data.join("g.wal"))
        .unwrap();
    f.write_all(&[0xba, 0xad]).unwrap();
    drop(f);

    let torn = Command::new(env!("CARGO_BIN_EXE_kcore"))
        .args(["fsck", &data.display().to_string()])
        .output()
        .expect("run fsck");
    assert!(!torn.status.success(), "torn tail must exit nonzero");
    assert!(String::from_utf8_lossy(&torn.stdout).contains("torn journal tail"));

    let repaired = Command::new(env!("CARGO_BIN_EXE_kcore"))
        .args(["fsck", &data.display().to_string(), "--repair"])
        .output()
        .expect("run fsck --repair");
    assert!(repaired.status.success(), "repair must clear the problem");

    let after = Command::new(env!("CARGO_BIN_EXE_kcore"))
        .args(["fsck", &data.display().to_string()])
        .output()
        .expect("run fsck");
    assert!(after.status.success(), "directory clean after repair");
}

/// `kcore` writes one format and has no knob for it: `build` writes v3,
/// `compact` migrates a durable v1 graph to v3, and the retired
/// `--compress[=…]` flag and `recompress` subcommand are usage errors
/// (exit 2) — whatever format they ask for.
#[test]
fn cli_builds_v3_compacts_v1_to_v3_and_refuses_the_retired_format_knobs() {
    let dir = TempDir::new("repl-compress").unwrap();
    let edges = dir.path().join("edges.txt");
    std::fs::write(&edges, "0 1\n1 2\n0 2\n2 3\n").unwrap();
    let (base, data) = (dir.path().join("g"), dir.path().join("data"));
    let raw = dir.path().join("raw");
    let counter = IoCounter::new(DEFAULT_BLOCK_SIZE);
    graphstore::write_mem_graph_with(&raw, &triangle_tail(), counter, FormatVersion::V1).unwrap();
    let kcore = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_kcore"))
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("run kcore")
    };
    let (edges, base, data, raw) = (
        edges.to_str().unwrap(),
        base.to_str().unwrap(),
        data.to_str().unwrap(),
        raw.to_str().unwrap(),
    );

    let built = kcore(&["build", edges, base]);
    assert!(built.status.success());
    let text = String::from_utf8_lossy(&built.stdout);
    assert!(text.contains("(v3)"), "stdout: {text}");

    // A durable graph served from raw v1 tables becomes v3 at `compact`.
    let (out, ok) = run_session(
        &["--data-dir", data],
        &format!("open g {raw}\ninsert g 1 3\ngraphs\nquit\n"),
    );
    assert!(ok && out.contains("serving: g(v1)"), "{out}");
    let compacted = kcore(&["compact", data, "g"]);
    let text = String::from_utf8_lossy(&compacted.stdout);
    assert!(text.contains("now generation 1"), "stdout: {text}");
    let (out, ok) = run_session(&["--data-dir", data], "graphs\nkmax g\nquit\n");
    assert!(
        ok && out.contains("serving: g(v3)") && out.contains("kmax = 2"),
        "{out}"
    );

    for refused in [
        &["build", edges, base, "--compress"][..],
        &["build", edges, base, "--compress=v3"],
        &["build", edges, base, "--compress=v2"],
        &["recompress", data],
        &["recompress", data, "--to", "v2"],
    ] {
        let out = kcore(refused);
        assert_eq!(out.status.code(), Some(2), "{refused:?}");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(text.contains("usage:"), "{refused:?}: {text}");
    }
}

/// `kcore serve` validates its whole command line before it acts: a
/// rejected invocation leaves no catalog behind, so the corrected run
/// creates the directory with its own budget instead of reopening the
/// rejected one's.
#[test]
fn serve_rejects_a_bad_command_line_before_touching_the_data_dir() {
    let dir = TempDir::new("repl-validate").unwrap();
    let data = dir.path().join("data");
    let d = data.to_str().unwrap();
    for bad in [
        &["--bogus"][..],
        &["--qos-mb", "x"],
        &["--qos-queue", "x"],
        &["--op-timeout-ms", "x"],
        &["--scrub-interval", "x"],
        &["--repair-retries", "x"],
        &["--max-conns", "x"],
        &["not-a-spec"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_kcore"))
            .args(["serve", "--data-dir", d, "--budget-mb", "8"])
            .args(bad)
            .stdin(Stdio::null())
            .output()
            .expect("run kcore serve");
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(
            !data.join("catalog.kc").exists(),
            "{bad:?} wrote a catalog before it was refused"
        );
    }
    let (out, ok) = run_session(&["--data-dir", d, "--budget-mb", "64"], "quit\n");
    assert!(ok && out.contains("on a 64 MiB shared pool"), "{out}");
}

/// A MiB count whose byte value overflows `u64` is a usage error (exit 2)
/// raised before anything is written — not a budget wrapped to its low
/// bits (2^44 + 1 MiB would serve a 1 MiB pool, 2^44 MiB an uncached run).
#[test]
fn mib_flags_that_overflow_a_byte_count_are_usage_errors() {
    let dir = TempDir::new("repl-mib").unwrap();
    let base = dir.path().join("g");
    write_triangle_tail(&base);
    let data = dir.path().join("data");
    let (base, d) = (base.to_str().unwrap(), data.to_str().unwrap());
    for args in [
        &["serve", "--data-dir", d, "--budget-mb", "17592186044417"][..],
        &["serve", "--data-dir", d, "--qos-mb", "17592186044416"],
        &["decompose", base, "--cache-mb", "17592186044416"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_kcore"))
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("run kcore");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(
            text.contains("overflows") && text.contains("usage:"),
            "{args:?}: {text}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran before it was refused");
        assert!(
            !data.join("catalog.kc").exists(),
            "{args:?} wrote a catalog"
        );
    }
}

/// A misspelled flag is a usage error (exit 2) in every subcommand, never
/// silently ignored.
#[test]
fn a_misspelled_flag_is_a_usage_error_in_every_subcommand() {
    let dir = TempDir::new("repl-typo").unwrap();
    let edges = dir.path().join("edges.txt");
    std::fs::write(&edges, "0 1\n1 2\n0 2\n2 3\n").unwrap();
    let base = dir.path().join("g");
    write_triangle_tail(&base);
    let data = dir.path().join("data");
    let (edges, base, data) = (
        edges.to_str().unwrap(),
        base.to_str().unwrap(),
        data.to_str().unwrap(),
    );
    for args in [
        &["build", edges, base, "--compres"][..],
        &["decompose", base, "--wokers", "4"],
        &["query", base, "--k", "2", "--kk", "3"],
        &["stats", base, "--verbose"],
        &["serve", "--budgt-mb", "8"],
        &["fsck", data, "--repiar"],
        &["compact", data, "g", "--now"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_kcore"))
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("run kcore");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(text.contains("usage:"), "{args:?}: {text}");
    }
}

/// A flag whose value was forgotten is a usage error (exit 2) on every
/// subcommand, not a silent default; so are the retired `--policy` and
/// `--workers` (there is one scan schedule), whatever the algorithm.
#[test]
fn cli_refuses_forgotten_flag_values_and_notes_ignored_workers() {
    let dir = TempDir::new("repl-flags").unwrap();
    let base = dir.path().join("g");
    write_triangle_tail(&base);
    let base = base.to_str().unwrap();
    let kcore = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_kcore"))
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("run kcore")
    };
    for args in [
        &["decompose", base, "--workers"][..],
        &["decompose", base, "--cache-mb"],
        &["decompose", base, "--out"],
        &["decompose", base, "--algo"],
        &["query", base, "--k"],
        &["recompress", base, "--to"],
        &["serve", "--budget-mb"],
        &["serve", "--policy", "lru"],
    ] {
        let out = kcore(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(text.contains("usage:"), "{args:?}: {text}");
    }
    for algo in ["star", "basic", "plus", "emcore"] {
        let out = kcore(&["decompose", base, "--algo", algo, "--workers", "2"]);
        assert_eq!(out.status.code(), Some(2), "{algo}");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(
            text.contains("unknown flag \"--workers\"") && text.contains("usage:"),
            "{algo}: {text}"
        );
        let out = kcore(&["decompose", base, "--algo", algo]);
        assert!(out.status.success(), "{algo}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("kmax = 2"), "{algo}: {text}");
    }
    let out = kcore(&["serve", "--workers", "2"]);
    assert_eq!(out.status.code(), Some(2));
}

/// The triangle-with-a-tail graph as a format-v2 pair, as the writer
/// retired in PR 13 laid it out: `KCOREDG2`, LEB128 gap runs, and the
/// 40-byte node header carrying version 2.
fn write_v2_triangle_tail(base: &Path) {
    let mem = triangle_tail();
    let mut edges = b"KCOREDG2".to_vec();
    let mut entries = Vec::new();
    for v in 0..mem.num_nodes() {
        let nbrs = mem.neighbors(v);
        let entry = graphstore::format::encode_node_entry(edges.len() as u64, nbrs.len() as u32);
        entries.extend_from_slice(&entry);
        graphstore::codec::encode_gap_run(nbrs, &mut edges);
    }
    let payload = edges.len() as u64 - graphstore::format::EDGE_HEADER_LEN;
    let meta = graphstore::GraphMeta::v3(mem.num_nodes(), mem.degree_sum(), payload);
    let mut nodes = graphstore::format::encode_node_header(&meta);
    nodes[8..12].copy_from_slice(&2u32.to_le_bytes());
    nodes.extend_from_slice(&entries);
    let paths = graphstore::GraphPaths::from_base(base);
    std::fs::write(paths.nodes, nodes).unwrap();
    std::fs::write(paths.edges, edges).unwrap();
}

/// A format-v2 table is refused by name at every door — library open,
/// service open, the REPL's `open` verb — and `fsck` reports it as a
/// finding instead of walking it.
#[test]
fn retired_format_v2_tables_are_refused_by_name_at_every_door() {
    let dir = TempDir::new("repl-v2").unwrap();
    let v2 = dir.path().join("old");
    write_v2_triangle_tail(&v2);
    let refused = |err: graphstore::Error| {
        assert!(err.is_corrupt(), "{err}");
        let text = err.to_string();
        assert!(
            text.contains("format v2") && text.contains("kcore recompress"),
            "{text}"
        );
    };
    refused(graphstore::DiskGraph::open(&v2, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap_err());
    let svc = testutil::service(1 << 20);
    refused(svc.open("old", &v2).unwrap_err());
    assert!(svc.graph_names().is_empty());

    let (stdout, ok) = run_session(&[], &format!("open old {}\ngraphs\nquit\n", v2.display()));
    assert!(ok, "the refusal must not end the session:\n{stdout}");
    let errs: Vec<&str> = stdout.lines().filter(|l| l.starts_with("err ")).collect();
    assert_eq!(errs.len(), 1, "{stdout}");
    assert!(
        errs[0].starts_with("err corrupt:") && errs[0].contains("format v2"),
        "{stdout}"
    );

    // A durable directory whose base tables are v2 underneath: seed it
    // over a current table, then put the old pair in its place.
    let base = dir.path().join("g");
    write_triangle_tail(&base);
    let data = dir.path().join("data");
    let (stdout, ok) = run_session(
        &[
            "--data-dir",
            &data.display().to_string(),
            &format!("g={}", base.display()),
        ],
        "save\nquit\n",
    );
    assert!(ok, "durable session:\n{stdout}");
    write_v2_triangle_tail(&base);
    let fsck = Command::new(env!("CARGO_BIN_EXE_kcore"))
        .args(["fsck", &data.display().to_string()])
        .output()
        .expect("run fsck");
    assert_eq!(fsck.status.code(), Some(1), "a finding, not a crash");
    let text = String::from_utf8_lossy(&fsck.stdout);
    assert!(text.contains("g: ") && text.contains("format v2"), "{text}");
}

// ---------------------------------------------------------------------------
// TCP front-end: the same protocol over sockets, with fault isolation.
// ---------------------------------------------------------------------------

/// One line-protocol exchange over a socket: send the command, read back
/// exactly one reply line.
fn ask(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, cmd: &str) -> String {
    writeln!(stream, "{cmd}").expect("send command");
    stream.flush().expect("flush command");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    line.trim_end().to_string()
}

fn connect(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().expect("clone socket"));
    (stream, reader)
}

/// Two concurrent connections: one trips a tenant's quarantine through an
/// injected I/O failure, the other keeps serving its own tenant through
/// it all — and every failure crosses the socket as one structured
/// `err <kind>: …` line.
#[test]
fn tcp_connection_tripping_quarantine_does_not_disturb_the_other() {
    let dir = TempDir::new("tcp-serve").unwrap();
    let (data, bases) = (dir.path().join("data"), dir.path().join("bases"));
    std::fs::create_dir_all(&bases).unwrap();

    // A durable service through a FaultVfs, so one tenant's disk can
    // "fail" on cue while the server stays up.
    let fault = FaultVfs::new(FaultPlan::default());
    let svc = Arc::new(
        CoreService::create_durable(
            &data,
            DEFAULT_BLOCK_SIZE,
            4 << 20,
            DurableOptions {
                checkpoint_every: 8,
                group_commit: None,
                ..Default::default()
            },
            Arc::clone(&fault) as Arc<dyn Vfs>,
        )
        .unwrap(),
    );
    let edges = [(0u32, 1u32), (1, 2), (0, 2), (2, 3)];
    svc.create("well", &bases.join("well"), edges.iter().copied(), 4)
        .unwrap();
    svc.create("sick", &bases.join("sick"), edges.iter().copied(), 4)
        .unwrap();
    svc.set_qos(Some(QosConfig {
        capacity_bytes: 4 << 20,
        max_waiters: 8,
    }));

    let mut server = Server::start(Arc::clone(&svc), "127.0.0.1:0", ServerOptions::default())
        .expect("bind server");
    let (mut a, mut ra) = connect(&server);
    let (mut b, mut rb) = connect(&server);

    // Both connections serve normally first.
    assert_eq!(ask(&mut a, &mut ra, "kmax sick"), "kmax = 2");
    assert_eq!(ask(&mut b, &mut rb, "kmax well"), "kmax = 2");
    assert!(
        ask(&mut b, &mut rb, "qos").starts_with("qos: "),
        "qos line over the socket"
    );
    assert_eq!(ask(&mut b, &mut rb, "weight well 3"), "weight(well) = 3");

    // Connection A's tenant hits disk-full mid-insert: a structured io
    // error crosses the socket and the graph degrades to read-only —
    // mutations are refused with `err readonly:` but queries keep
    // serving the committed state.
    fault.set_plan(FaultPlan {
        enospc_after: Some(0),
        ..FaultPlan::default()
    });
    let io_err = ask(&mut a, &mut ra, "insert sick 1 3");
    assert!(io_err.starts_with("err io:"), "typed io error: {io_err}");
    fault.set_plan(FaultPlan::default());
    let ro_err = ask(&mut a, &mut ra, "insert sick 1 3");
    assert!(
        ro_err.starts_with("err readonly:"),
        "degraded to read-only: {ro_err}"
    );
    assert_eq!(
        ask(&mut a, &mut ra, "kmax sick"),
        "kmax = 2",
        "read-only graphs keep answering queries"
    );
    assert!(
        ask(&mut a, &mut ra, "health sick").starts_with("health sick: read-only"),
        "health verb reports the degradation"
    );

    // Connection B never noticed: its tenant keeps serving and mutating.
    assert!(ask(&mut b, &mut rb, "insert well 1 3").contains("node computations"));
    assert!(ask(&mut b, &mut rb, "insert well 0 3").contains("node computations"));
    assert_eq!(ask(&mut b, &mut rb, "kmax well"), "kmax = 3");
    assert!(ask(&mut b, &mut rb, "verify well").contains("certificate holds"));

    // `quit` ends connection A only; B still answers afterwards.
    writeln!(a, "quit").unwrap();
    let mut rest = String::new();
    ra.read_line(&mut rest).unwrap(); // EOF: server closed A
    assert_eq!(rest, "", "quit closes the connection");
    assert_eq!(ask(&mut b, &mut rb, "kmax well"), "kmax = 3");

    server.shutdown();
}

/// Graceful drain: `Server::shutdown` must let an in-flight command
/// finish and write its reply (never cut the socket mid-op), then flush
/// the group-commit journal so the acknowledged op survives a reopen.
#[test]
fn shutdown_drains_in_flight_ops_and_flushes_group_commit() {
    let dir = TempDir::new("tcp-drain").unwrap();
    let (data, bases) = (dir.path().join("data"), dir.path().join("bases"));
    std::fs::create_dir_all(&bases).unwrap();
    let svc = Arc::new(
        CoreService::create_durable(
            &data,
            DEFAULT_BLOCK_SIZE,
            4 << 20,
            DurableOptions {
                // A long gather window keeps the insert's durability
                // barrier in flight while shutdown starts.
                group_commit: Some(GroupCommitOptions {
                    max_delay: Duration::from_millis(150),
                }),
                ..Default::default()
            },
            StdVfs::arc(),
        )
        .unwrap(),
    );
    let edges = [(0u32, 1u32), (1, 2), (0, 2), (2, 3)];
    svc.create("g", &bases.join("g"), edges.iter().copied(), 4)
        .unwrap();

    let mut server = Server::start(Arc::clone(&svc), "127.0.0.1:0", ServerOptions::default())
        .expect("bind server");
    let (mut a, mut ra) = connect(&server);
    assert_eq!(ask(&mut a, &mut ra, "kmax g"), "kmax = 2");

    // Launch the mutation on its own thread, then drain while its
    // group-commit barrier still gathers.
    let inflight = std::thread::spawn(move || ask(&mut a, &mut ra, "insert g 1 3"));
    std::thread::sleep(Duration::from_millis(30));
    server.shutdown();
    let reply = inflight.join().expect("in-flight client thread");
    assert!(
        reply.contains("node computations"),
        "the in-flight insert completed and its reply crossed the socket: {reply:?}"
    );

    // The acknowledged op is durable: a fresh catalog open replays it.
    drop(server);
    drop(svc);
    let svc2 = testutil::open_catalog(&data).unwrap();
    let edges_after = svc2
        .with_graph("g", |idx| Ok(idx.num_edges()))
        .expect("reopen the drained graph");
    assert_eq!(edges_after, 5, "the drained insert survived the restart");
    assert!(svc2.verify("g").unwrap());
}

/// The accept bound: with `max_connections = 1`, a second client is not
/// silently queued — it gets one `err overloaded: …` line and the socket
/// closes, while the admitted client keeps serving.
#[test]
fn tcp_connection_limit_sheds_with_a_structured_line() {
    let svc = Arc::new(CoreService::new(DEFAULT_BLOCK_SIZE, 4 << 20).unwrap());
    let opts = ServerOptions {
        max_connections: 1,
        ..ServerOptions::default()
    };
    let mut server = Server::start(Arc::clone(&svc), "127.0.0.1:0", opts).expect("bind server");

    let (mut a, mut ra) = connect(&server);
    // Prove the first connection is live (so the second is really over
    // the limit, not racing the accept loop).
    assert!(ask(&mut a, &mut ra, "help").starts_with("commands:"));

    let (_b, mut rb) = connect(&server);
    let mut line = String::new();
    rb.read_line(&mut line).expect("read refusal");
    assert!(
        line.starts_with("err overloaded: connection limit (1)"),
        "refusal line: {line}"
    );
    let mut rest = String::new();
    assert_eq!(rb.read_line(&mut rest).unwrap(), 0, "refused socket closes");

    // The admitted connection is untouched.
    assert!(ask(&mut a, &mut ra, "graphs").starts_with("serving:"));
    server.shutdown();
}

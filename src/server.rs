//! Multi-client network serving: the line protocol, factored out of the
//! `kcore serve` REPL, plus a TCP front-end that runs it for many
//! concurrent connections.
//!
//! ## Protocol
//!
//! One request line in, one (occasionally several) reply lines out — the
//! same commands the stdin REPL accepts (`open`, `core`, `kmax`, `insert`,
//! `delete`, `stats`, `weight`, `qos`, `graphs`, `save`, `compact`,
//! `verify`, `health`, `scrub`, `repair`, `pool`, `evict`, `quit`,
//! `help`). Failures never end a session: every error is
//! one structured `err <kind>: <detail>` line (kinds: `io`, `corrupt`,
//! `range`, `usage`, `limit`, `overloaded`, `quarantined`, `readonly`,
//! `timeout`), so a scripted
//! client can match on the prefix and carry on. [`dispatch`](crate::server::dispatch) is the whole
//! protocol; the stdin REPL and every TCP connection call it.
//!
//! ## Threading model
//!
//! [`Server`] is deliberately boring: one accept thread, one thread per
//! connection, all of them stateless frames around the shared
//! [`CoreService`] — whose own locking already gives the right
//! concurrency (registry lock for lookups only, one mutex per graph, so
//! different tenants proceed in parallel and one tenant's requests
//! serialize). Fairness between tenants is not the server's job either:
//! it falls out of the service's admission controller
//! ([`CoreService::set_qos`]). What the server *does* own is protection of
//! the process itself:
//!
//! * **bounded accept** — at most [`ServerOptions::max_connections`]
//!   concurrent connections; an over-limit client gets one
//!   `err overloaded: …` line and is closed, it is never silently queued;
//! * **read/write timeouts** — a stalled peer cannot pin a connection
//!   thread: reads tick every [`ServerOptions::read_timeout`] (also the
//!   shutdown poll), writes abort after [`ServerOptions::write_timeout`]
//!   and drop the connection.
//!
//! `quit` ends that connection only; [`Server::shutdown`] (or dropping the
//! server) is a **graceful drain**: it stops accepting, joins every
//! connection thread (each finishes its in-flight command and writes the
//! reply first), then flushes pending group-commit journal barriers
//! ([`CoreService::flush_journals`]) so no acknowledged op is lost to the
//! process exiting between the ack and its batch's fsync.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use graphstore::Result;

use crate::CoreService;

/// Knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Concurrent connections served; the next one is refused with an
    /// `err overloaded` line.
    pub max_connections: usize,
    /// Idle-read tick per connection: how long a blocking read may sit
    /// before the thread rechecks the shutdown flag. Bounds how long a
    /// silent peer can pin a thread past shutdown, not an idle disconnect.
    pub read_timeout: Duration,
    /// A reply write blocked longer than this drops the connection.
    pub write_timeout: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            max_connections: 64,
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// A TCP front-end serving the line protocol for one [`CoreService`].
/// See the [module docs](self) for the threading model.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    svc: Arc<CoreService>,
    shutdown: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// accepting connections against `svc`.
    pub fn start(svc: Arc<CoreService>, addr: &str, opts: ServerOptions) -> Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let svc = Arc::clone(&svc);
            let shutdown = Arc::clone(&shutdown);
            let active = Arc::new(AtomicUsize::new(0));
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || accept_loop(listener, svc, opts, shutdown, active, conns))
        };
        Ok(Server {
            addr,
            svc,
            shutdown,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting, let every in-flight command finish
    /// (connection threads notice the flag within one read tick; their
    /// current command always completes and its reply is written), then
    /// flush pending group-commit journal barriers so every acknowledged
    /// op is durable before the port is released.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept loop sits in a blocking accept(); a throwaway
        // connection from ourselves is the portable way to wake it.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let drained = match self.conns.lock() {
            Ok(mut conns) => std::mem::take(&mut *conns),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        };
        for conn in drained {
            let _ = conn.join();
        }
        // Every reply already written has now left dispatch; make the ops
        // behind them durable before the caller tears the process down.
        self.svc.flush_journals();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    svc: Arc<CoreService>,
    opts: ServerOptions,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    for conn in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Single acceptor, so load-then-increment cannot race with itself;
        // concurrent decrements only make the check conservative.
        if active.load(Ordering::Relaxed) >= opts.max_connections {
            refuse(stream, opts.max_connections, opts.write_timeout);
            continue;
        }
        let guard = ConnGuard::new(Arc::clone(&active));
        let svc = Arc::clone(&svc);
        let opts = opts.clone();
        let shutdown_flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || {
            let _guard = guard;
            serve_connection(stream, &svc, &opts, &shutdown_flag);
        });
        if let Ok(mut conns) = conns.lock() {
            // Sweep finished threads so a long-lived server does not
            // accumulate one dead handle per past connection.
            conns.retain(|h| !h.is_finished());
            conns.push(handle);
        }
    }
}

/// Over-capacity connections get one structured line, then the socket
/// closes — a client that can parse `err overloaded` can back off, and one
/// that cannot at least is not silently hung.
fn refuse(mut stream: TcpStream, limit: usize, write_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(write_timeout));
    let _ = writeln!(
        stream,
        "err overloaded: connection limit ({limit}) reached, try again later"
    );
}

/// Decrements the active-connection count however the thread exits.
struct ConnGuard(Arc<AtomicUsize>);

impl ConnGuard {
    fn new(active: Arc<AtomicUsize>) -> ConnGuard {
        active.fetch_add(1, Ordering::Relaxed);
        ConnGuard(active)
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

fn serve_connection(
    stream: TcpStream,
    svc: &CoreService,
    opts: &ServerOptions,
    shutdown: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(opts.read_timeout));
    let _ = stream.set_write_timeout(Some(opts.write_timeout));
    // Replies are small and latency-bound: a segment held back by Nagle
    // until the client's delayed ACK costs a stock client ~40 ms a reply.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut out = stream;
    let mut line = String::new();
    let mut reply = String::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // `read_line` appends, so a partial line that straddles a timeout
        // tick survives in `line` and completes on a later read.
        match reader.read_line(&mut line) {
            Ok(0) => return, // peer closed
            Ok(_) => {
                let response = dispatch(svc, line.trim_end_matches(['\r', '\n']));
                line.clear();
                // The whole response leaves in one write: `writeln!` on
                // the unbuffered socket sends text and newline as separate
                // segments.
                reply.clear();
                for text in &response.lines {
                    reply.push_str(text);
                    reply.push('\n');
                }
                if out.write_all(reply.as_bytes()).is_err() || response.quit {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

/// One dispatched command's outcome: the reply lines, and whether the
/// session asked to end (`quit`/`exit`).
#[derive(Debug, Default)]
pub struct Response {
    /// Reply lines, in order, without trailing newlines.
    pub lines: Vec<String>,
    /// True when the command ends the session (the connection, over TCP).
    pub quit: bool,
}

impl Response {
    fn say(text: String) -> Response {
        Response {
            lines: vec![text],
            quit: false,
        }
    }

    fn result(res: Result<String>) -> Response {
        Response::say(match res {
            Ok(text) => text,
            Err(e) => err_line(&e),
        })
    }
}

/// Execute one protocol line against the service — the single
/// implementation behind the stdin REPL and every TCP connection. Never
/// panics on malformed input; unknown commands and bad arguments come back
/// as `err usage: …` lines.
pub fn dispatch(svc: &CoreService, line: &str) -> Response {
    let words: Vec<&str> = line.split_whitespace().collect();
    let parse_node = |w: &str| w.parse::<u32>().ok();
    match words.as_slice() {
        [] => Response::default(),
        ["quit"] | ["exit"] => Response {
            lines: Vec::new(),
            quit: true,
        },
        ["help"] => Response::say(
            "commands: open <name> <base> | core <name> <v> | kmax <name> | \
             insert <name> <u> <v> | delete <name> <u> <v> | stats <name> | \
             verify <name> | health <name> | scrub <name> | repair <name> | \
             weight <name> <w> | qos | graphs | save [<name>] | \
             compact <name> | pool | list | evict <name> | quit"
                .to_string(),
        ),
        ["open", name, base] => Response::say(open_report(svc, name, Path::new(base))),
        ["core", name, v] => match parse_node(v) {
            Some(v) => Response::result(svc.core(name, v).map(|c| format!("core({v}) = {c}"))),
            None => Response::say(format!("err usage: node id {v:?} is not a number")),
        },
        ["kmax", name] => Response::result(svc.kmax(name).map(|k| format!("kmax = {k}"))),
        ["insert", name, u, v] | ["delete", name, u, v] => {
            match (parse_node(u), parse_node(v)) {
                (Some(u), Some(v)) => {
                    let res = if words[0] == "insert" {
                        svc.insert_edge(name, u, v)
                    } else {
                        svc.delete_edge(name, u, v)
                    };
                    Response::result(res.map(|s| {
                        format!(
                            "{}: {} node computations, {} read I/Os",
                            s.algorithm, s.node_computations, s.io.read_ios
                        )
                    }))
                }
                _ => Response::say("err usage: edge endpoints must be numbers".to_string()),
            }
        }
        ["stats", name] => Response::result(svc.with_graph(name, |idx| {
            let io = idx.io();
            Ok(format!(
                "{} nodes, {} edges, kmax {}, format {}; charged reads {}, physical reads {}, writes {}",
                idx.num_nodes(),
                idx.num_edges(),
                idx.kmax(),
                idx.format_version().tag(),
                io.read_ios,
                io.physical_reads,
                io.write_ios
            ))
        })),
        ["weight", name, w] => match w.parse::<u32>() {
            Ok(w) => Response::result(
                svc.set_tenant_weight(name, w)
                    .map(|()| format!("weight({name}) = {}", w.max(1))),
            ),
            Err(_) => Response::say(format!("err usage: weight {w:?} is not a number")),
        },
        ["qos"] => Response::say(match svc.qos() {
            Some(ctl) => format!(
                "qos: {}/{} B admitted, {} queued ({} B demand)",
                ctl.in_use_bytes(),
                ctl.capacity_bytes(),
                ctl.queue_len(),
                ctl.queued_demand_bytes()
            ),
            None => "qos: off (admit everything)".to_string(),
        }),
        ["pool"] => {
            let p = svc.pool();
            let s = p.stats();
            Response::say(format!(
                "pool: {} graphs, {}/{} B resident, {} hits / {} misses / {} evictions",
                p.registered_graphs(),
                p.resident_bytes(),
                p.budget_bytes(),
                s.hits,
                s.misses,
                s.evictions
            ))
        }
        ["list"] | ["graphs"] => {
            // Each served graph is listed with its edge-table format, so an
            // operator can see at a glance which tenants run compressed
            // tables.
            let listed: Vec<String> = svc
                .graph_names()
                .into_iter()
                .map(|n| match svc.format_version(&n) {
                    Ok(v) => format!("{n}({})", v.tag()),
                    Err(_) => n,
                })
                .collect();
            Response::say(format!("serving: {}", listed.join(", ")))
        }
        ["save"] => Response::result(svc.save_all().map(|()| "saved all graphs".to_string())),
        ["save", name] => Response::result(svc.save(name).map(|()| format!("saved {name}"))),
        ["compact", name] => Response::result(
            svc.compact(name)
                .map(|generation| format!("compacted {name}: now generation {generation}")),
        ),
        ["verify", name] => Response::result(svc.verify(name).map(|ok| {
            if ok {
                format!("{name}: certificate holds (Theorem 4.1 fixpoint)")
            } else {
                format!("{name}: CERTIFICATE VIOLATED")
            }
        })),
        ["evict", name] => Response::result(svc.evict(name).map(|()| format!("evicted {name}"))),
        ["health", name] => health_report(svc, name),
        ["scrub", name] => Response::result(svc.scrub(name).map(|report| {
            let bad = report.unrepaired();
            if bad == 0 {
                format!("scrub {name}: clean")
            } else {
                format!(
                    "scrub {name}: {bad} problem(s) found, graph quarantined: {}",
                    report.unrepaired_problems()
                )
            }
        })),
        ["repair", name] => Response::result(
            svc.repair(name)
                .map(|()| format!("repaired {name}: certificate verified, graph re-admitted")),
        ),
        _ => Response::say("err usage: unrecognised command (try 'help')".to_string()),
    }
}

/// Render one graph's health as a single machine-matchable line: the
/// status tag first, then the bounded reason chain (oldest surviving
/// first) and the repair log — the full causal chain, not only the first
/// failure, without breaking the one-reply-line protocol.
fn health_report(svc: &CoreService, name: &str) -> Response {
    let report = match svc.health(name) {
        Ok(r) => r,
        Err(e) => return Response::say(err_line(&e)),
    };
    let mut line = format!("health {name}: {}", report.status.tag());
    if report.repair_attempts > 0 {
        line.push_str(&format!(
            ", {} repair attempt(s) this episode",
            report.repair_attempts
        ));
    }
    if report.sticky {
        line.push_str(", sticky (automatic repair exhausted)");
    }
    if report.dropped_reasons > 0 {
        line.push_str(&format!(
            " ({} older reason(s) dropped; root cause kept)",
            report.dropped_reasons
        ));
    }
    for reason in &report.reasons {
        line.push_str(&format!(" | reason: {reason}"));
    }
    for entry in &report.repair_log {
        line.push_str(&format!(" | repair: {entry}"));
    }
    Response::say(line)
}

/// Open `base` as `name` on the service, reporting the outcome either way.
fn open_report(svc: &CoreService, name: &str, base: &Path) -> String {
    let res = svc.open(name, base).and_then(|()| {
        svc.with_graph(name, |idx| {
            Ok(format!(
                "opened {name} ({}): {} nodes, {} edges, kmax {} ({} read I/Os to decompose)",
                idx.format_version().tag(),
                idx.num_nodes(),
                idx.num_edges(),
                idx.kmax(),
                idx.decompose_stats().io.read_ios
            ))
        })
    });
    match res {
        Ok(text) => text,
        Err(e) => err_line(&e),
    }
}

/// One stable machine-matchable token per error class, shared by the REPL
/// and the TCP protocol.
pub fn err_line(e: &graphstore::Error) -> String {
    let kind = match e {
        graphstore::Error::Io(_) => "io",
        graphstore::Error::Corrupt { .. } => "corrupt",
        graphstore::Error::NodeOutOfRange { .. } => "range",
        graphstore::Error::InvalidArgument(_) => "usage",
        graphstore::Error::TooLarge(_) => "limit",
        graphstore::Error::Overloaded { .. } => "overloaded",
        graphstore::Error::Quarantined { .. } => "quarantined",
        graphstore::Error::ReadOnly { .. } => "readonly",
        graphstore::Error::Timeout { .. } => "timeout",
    };
    format!("err {kind}: {e}")
}

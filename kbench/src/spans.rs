//! Tracing from outside the program: an in-memory span recorder and the two
//! seam wrappers the storage stack already has room for —
//! [`SpanGraph`] on top ([`AdjacencyRead`]) and [`SpanVfs`] underneath
//! ([`Vfs`]). Nothing in here is compiled into the program under test; the
//! wrappers are handed in through its public constructors, and only by the
//! traced run (`--trace 1`). End-to-end metrics never see them.
//!
//! A span is `(id, name, start_ns, end_ns, parent, op)`. Spans are kept in
//! memory and written as JSON lines when the run ends. `op` ties the spans
//! of one request together and `parent` is the id of the span that caused
//! this one; both are taken from a thread-local context, so they are known
//! for everything that happens on the thread that issued the request (the
//! in-process boundaries of the peeling run) and are `0` for work the
//! server does on its own connection threads.

use std::cell::Cell;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use kcore_suite::graphstore::{AdjacencyRead, IoSnapshot, Result, StdVfs, Vfs, VfsFile};

/// Spans kept per run; later ones are dropped (and counted). Counters and
/// time totals are exact regardless.
const MAX_SPANS: usize = 400_000;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// `layer.what`, e.g. `vfs.fsync` or `tcp.insert`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Id of the span that caused this one (0: none known).
    pub parent: u64,
    /// Request the span belongs to (0: none known).
    pub op: u64,
}

thread_local! {
    /// `(op, parent span id)` of the request this thread is executing.
    static CONTEXT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Collects spans from every thread of a traced run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    dropped: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished call under the calling thread's request context.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        let (op, parent) = CONTEXT.get();
        self.push(
            self.next_id.fetch_add(1, Relaxed),
            name,
            start,
            end,
            parent,
            op,
        );
    }

    fn push(
        &self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        op: u64,
    ) {
        let mut spans = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        if spans.len() >= MAX_SPANS {
            self.dropped.fetch_add(1, Relaxed);
            return;
        }
        spans.push(Span {
            id,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        });
    }

    /// Time `f` as the root span of request `op`: spans recorded on this
    /// thread while `f` runs name it as their parent. Returns `f`'s result
    /// and its duration in nanoseconds.
    pub fn request<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.next_id.fetch_add(1, Relaxed);
        let outer = CONTEXT.replace((op, id));
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        CONTEXT.set(outer);
        self.push(id, name, start, end, outer.1, op);
        (out, (end - start).as_nanos() as u64)
    }

    /// Spans recorded and spans dropped at the cap.
    pub fn counts(&self) -> (usize, u64) {
        let kept = self.spans.lock().unwrap_or_else(|p| p.into_inner()).len();
        (kept, self.dropped.load(Relaxed))
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        use io::Write as _;
        let spans = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.op
            )?;
        }
        out.flush()
    }
}

/// Counters of a [`SpanGraph`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphCounts {
    /// `adjacency` / `with_adjacency` calls.
    pub calls: u64,
    /// Neighbour ids handed to the caller.
    pub ids_delivered: u64,
    /// Time inside the wrapped graph, the caller's closure excluded.
    pub call_ns: u64,
}

/// [`AdjacencyRead`] wrapper: counts the ids delivered and times every
/// adjacency call into the storage stack, minus the time the caller's own
/// closure runs inside it. There are millions of such calls per
/// decomposition, so they are totalled, not recorded as individual spans.
#[derive(Debug)]
pub struct SpanGraph<G> {
    inner: G,
    counts: GraphCounts,
}

impl<G: AdjacencyRead> SpanGraph<G> {
    /// Wrap `inner`.
    pub fn new(inner: G) -> SpanGraph<G> {
        SpanGraph {
            inner,
            counts: GraphCounts::default(),
        }
    }

    /// Totals so far.
    pub fn counts(&self) -> GraphCounts {
        self.counts
    }

    /// The wrapped graph.
    pub fn inner(&self) -> &G {
        &self.inner
    }
}

impl<G: AdjacencyRead> AdjacencyRead for SpanGraph<G> {
    fn num_nodes(&self) -> u32 {
        self.inner.num_nodes()
    }

    fn degree_sum(&self) -> u64 {
        self.inner.degree_sum()
    }

    fn read_degrees(&mut self) -> Result<Vec<u32>> {
        let t = Instant::now();
        let out = self.inner.read_degrees();
        self.counts.call_ns += t.elapsed().as_nanos() as u64;
        out
    }

    fn adjacency(&mut self, v: u32, buf: &mut Vec<u32>) -> Result<()> {
        let t = Instant::now();
        let out = self.inner.adjacency(v, buf);
        self.counts.call_ns += t.elapsed().as_nanos() as u64;
        self.counts.calls += 1;
        self.counts.ids_delivered += buf.len() as u64;
        out
    }

    fn with_adjacency<R>(&mut self, v: u32, f: impl FnOnce(&[u32]) -> R) -> Result<R> {
        let mut ids = 0u64;
        let mut closure_ns = 0u64;
        let t = Instant::now();
        let out = self.inner.with_adjacency(v, |nbrs| {
            let inside = Instant::now();
            ids = nbrs.len() as u64;
            let r = f(nbrs);
            closure_ns = inside.elapsed().as_nanos() as u64;
            r
        });
        let total = t.elapsed().as_nanos() as u64;
        self.counts.call_ns += total.saturating_sub(closure_ns);
        self.counts.calls += 1;
        self.counts.ids_delivered += ids;
        out
    }

    fn io(&self) -> IoSnapshot {
        self.inner.io()
    }
}

/// Counters of a [`SpanVfs`], all since creation.
#[derive(Debug, Default)]
struct VfsTotals {
    reads: AtomicU64,
    read_ns: AtomicU64,
    read_bytes: AtomicU64,
    writes: AtomicU64,
    write_bytes: AtomicU64,
    wal_write_bytes: AtomicU64,
    fsyncs: AtomicU64,
    renames: AtomicU64,
    dir_syncs: AtomicU64,
    fsync_ns: Mutex<Vec<u64>>,
}

/// A point-in-time copy of a [`SpanVfs`]'s counters.
#[derive(Debug, Clone, Default)]
pub struct VfsCounts {
    /// Positional reads and whole-file reads.
    pub reads: u64,
    /// Time inside those reads.
    pub read_ns: u64,
    /// Bytes they returned.
    pub read_bytes: u64,
    /// File writes.
    pub writes: u64,
    /// Bytes written, all files.
    pub write_bytes: u64,
    /// Bytes written to `*.wal` journals.
    pub wal_write_bytes: u64,
    /// File `sync_all` calls.
    pub fsyncs: u64,
    /// Renames.
    pub renames: u64,
    /// Parent-directory syncs.
    pub dir_syncs: u64,
    /// Duration of every file `sync_all`, nanoseconds.
    pub fsync_ns: Vec<u64>,
}

impl VfsCounts {
    /// Counter growth since `earlier` (fsync samples: the new ones only).
    pub fn since(&self, earlier: &VfsCounts) -> VfsCounts {
        VfsCounts {
            reads: self.reads - earlier.reads,
            read_ns: self.read_ns - earlier.read_ns,
            read_bytes: self.read_bytes - earlier.read_bytes,
            writes: self.writes - earlier.writes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            wal_write_bytes: self.wal_write_bytes - earlier.wal_write_bytes,
            fsyncs: self.fsyncs - earlier.fsyncs,
            renames: self.renames - earlier.renames,
            dir_syncs: self.dir_syncs - earlier.dir_syncs,
            fsync_ns: self.fsync_ns[earlier.fsync_ns.len()..].to_vec(),
        }
    }
}

/// [`Vfs`] wrapper over [`StdVfs`]: counts and times reads, writes, fsyncs,
/// renames and directory syncs, and records each as a span.
#[derive(Debug)]
pub struct SpanVfs {
    inner: StdVfs,
    totals: Arc<VfsTotals>,
    recorder: Arc<Recorder>,
}

impl SpanVfs {
    /// A counting passthrough recording into `recorder`.
    pub fn new(recorder: Arc<Recorder>) -> Arc<SpanVfs> {
        Arc::new(SpanVfs {
            inner: StdVfs,
            totals: Arc::default(),
            recorder,
        })
    }

    /// Snapshot the counters.
    pub fn counts(&self) -> VfsCounts {
        let t = &self.totals;
        VfsCounts {
            reads: t.reads.load(Relaxed),
            read_ns: t.read_ns.load(Relaxed),
            read_bytes: t.read_bytes.load(Relaxed),
            writes: t.writes.load(Relaxed),
            write_bytes: t.write_bytes.load(Relaxed),
            wal_write_bytes: t.wal_write_bytes.load(Relaxed),
            fsyncs: t.fsyncs.load(Relaxed),
            renames: t.renames.load(Relaxed),
            dir_syncs: t.dir_syncs.load(Relaxed),
            fsync_ns: t.fsync_ns.lock().unwrap_or_else(|p| p.into_inner()).clone(),
        }
    }

    fn wrap(&self, path: &Path, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(SpanFile {
            inner: file,
            is_wal: path.extension().is_some_and(|e| e == "wal"),
            totals: Arc::clone(&self.totals),
            recorder: Arc::clone(&self.recorder),
        })
    }
}

/// Time `f`, record it as a span, and return its result and duration in
/// nanoseconds.
fn timed<T>(recorder: &Recorder, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    recorder.record(name, start, end);
    (out, (end - start).as_nanos() as u64)
}

impl Vfs for SpanVfs {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.open_read(path).map(|f| self.wrap(path, f))
    }

    fn open_read_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.open_read_write(path).map(|f| self.wrap(path, f))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.create(path).map(|f| self.wrap(path, f))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.totals.renames.fetch_add(1, Relaxed);
        timed(&self.recorder, "vfs.rename", || self.inner.rename(from, to)).0
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        self.totals.dir_syncs.fetch_add(1, Relaxed);
        timed(&self.recorder, "vfs.dir_sync", || {
            self.inner.sync_parent_dir(path)
        })
        .0
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let (out, ns) = timed(&self.recorder, "vfs.read", || self.inner.read(path));
        self.totals.reads.fetch_add(1, Relaxed);
        self.totals.read_ns.fetch_add(ns, Relaxed);
        if let Ok(bytes) = &out {
            self.totals
                .read_bytes
                .fetch_add(bytes.len() as u64, Relaxed);
        }
        out
    }
}

#[derive(Debug)]
struct SpanFile {
    inner: Box<dyn VfsFile>,
    is_wal: bool,
    totals: Arc<VfsTotals>,
    recorder: Arc<Recorder>,
}

impl VfsFile for SpanFile {
    fn read_exact_at(&mut self, offset: u64, out: &mut [u8]) -> io::Result<()> {
        let len = out.len() as u64;
        let (res, ns) = timed(&self.recorder, "vfs.read", || {
            self.inner.read_exact_at(offset, out)
        });
        self.totals.reads.fetch_add(1, Relaxed);
        self.totals.read_ns.fetch_add(ns, Relaxed);
        self.totals.read_bytes.fetch_add(len, Relaxed);
        res
    }

    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        let res = timed(&self.recorder, "vfs.write", || self.inner.write_all(data)).0;
        self.totals.writes.fetch_add(1, Relaxed);
        self.totals
            .write_bytes
            .fetch_add(data.len() as u64, Relaxed);
        if self.is_wal {
            self.totals
                .wal_write_bytes
                .fetch_add(data.len() as u64, Relaxed);
        }
        res
    }

    fn seek_to(&mut self, offset: u64) -> io::Result<()> {
        self.inner.seek_to(offset)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        let (res, ns) = timed(&self.recorder, "vfs.fsync", || self.inner.sync_all());
        self.totals.fsyncs.fetch_add(1, Relaxed);
        self.totals
            .fsync_ns
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(ns);
        res
    }

    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcore_suite::graphstore::{MemGraph, TempDir};

    #[test]
    fn span_graph_counts_ids_and_excludes_the_callers_closure() {
        let g = MemGraph::from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], 4);
        let mut traced = SpanGraph::new(g);
        let mut buf = Vec::new();
        traced.adjacency(2, &mut buf).unwrap();
        assert_eq!(buf, vec![0, 1, 3]);
        let slow = traced
            .with_adjacency(0, |nbrs| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                nbrs.len()
            })
            .unwrap();
        assert_eq!(slow, 2);
        let c = traced.counts();
        assert_eq!((c.calls, c.ids_delivered), (2, 5));
        assert!(c.call_ns < 15_000_000, "closure time leaked into call_ns");
    }

    #[test]
    fn span_vfs_counts_and_parents_spans_to_the_request() {
        let dir = TempDir::new("kbench-spans").unwrap();
        let rec = Recorder::new();
        let vfs = SpanVfs::new(Arc::clone(&rec));
        let path = dir.path().join("j.wal");
        let before = vfs.counts();
        rec.request("test.op", 7, || {
            let mut f = vfs.create(&path).unwrap();
            f.write_all(b"hello").unwrap();
            f.sync_all().unwrap();
        });
        let mut f = vfs.open_read(&path).unwrap();
        let mut out = [0u8; 5];
        f.read_exact_at(0, &mut out).unwrap();
        assert_eq!(&out, b"hello");

        let c = vfs.counts().since(&before);
        assert_eq!((c.writes, c.write_bytes, c.wal_write_bytes), (1, 5, 5));
        assert_eq!((c.fsyncs, c.fsync_ns.len()), (1, 1));
        assert_eq!((c.reads, c.read_bytes), (1, 5));

        let out = dir.path().join("spans.jsonl");
        rec.write_jsonl(&out).unwrap();
        let text = std::fs::read_to_string(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // write, fsync, request, read
        let root = lines.iter().find(|l| l.contains("test.op")).unwrap();
        let root_id: u64 = root
            .split("\"id\":")
            .nth(1)
            .and_then(|r| r.split(',').next())
            .unwrap()
            .parse()
            .unwrap();
        let fsync = lines.iter().find(|l| l.contains("vfs.fsync")).unwrap();
        assert!(fsync.contains(&format!("\"parent\":{root_id},\"op\":7")));
        let read = lines.iter().find(|l| l.contains("vfs.read")).unwrap();
        assert!(read.contains("\"parent\":0,\"op\":0"));
    }
}

//! Recovery suite for the durable serving layer.
//!
//! Three families of guarantees:
//!
//! * **Torn-tail tolerance** — truncating the journal at *every* byte
//!   offset of its final record must never corrupt recovery and must drop
//!   at most the torn trailing op (the one whose append never completed).
//! * **Restart differential** — after any seeded maintenance stream, a
//!   process that was dropped and reopened (`CoreService::open_catalog`)
//!   at arbitrary points serves bit-identical `cores`/`kmax` to the
//!   never-restarted process, across both eviction policies, and both
//!   match recomputation from scratch.
//! * **Reopen cost** — restoring a maintained graph charges strictly fewer
//!   read I/Os than the fresh decomposition it replaces (the whole point
//!   of checkpoint + journal-tail replay).
//! * **One journal rule** — recovery refuses a damaged journal exactly
//!   when fsck reports it, and `fsck --repair` keeps exactly the records
//!   recovery would replay.

use std::path::Path;

use graphstore::{DynGraph, IoCounter, MemGraph, StdVfs, TempDir, Wal, DEFAULT_BLOCK_SIZE};
use kcore_suite::{CoreService, DurableOptions};
use proptest::prelude::*;
use semicore::MaintainOp;
use testutil::{arb_toggle_stream, oracle_cores, Lcg};

/// Recover the undirected edge list of a memgraph (`u < v` once each).
fn edges_of(g: &MemGraph) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for v in 0..g.num_nodes() {
        for &u in g.neighbors(v) {
            if v < u {
                edges.push((v, u));
            }
        }
    }
    edges
}

/// Copy a data directory's durability artefacts (catalog + sidecars) so a
/// test can mutilate the copy while the original stays intact. Graph base
/// tables are immutable and referenced by absolute path, so they are
/// shared, not copied.
fn copy_data_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn durable_service(data: &Path, checkpoint_every: u64) -> CoreService {
    durable_service_at(data, DEFAULT_BLOCK_SIZE, checkpoint_every)
}

fn durable_service_at(data: &Path, block_size: usize, checkpoint_every: u64) -> CoreService {
    CoreService::create_durable(
        data,
        block_size,
        1 << 20,
        DurableOptions {
            checkpoint_every,
            group_commit: None,
            ..Default::default()
        },
        StdVfs::arc(),
    )
    .unwrap()
}

/// Overwrite the manifest's policy byte (offset 24: magic, layout version,
/// block size, budget) and re-seal the checksum — byte 0 is what a build
/// that still had the LRU policy stored for it.
fn set_manifest_policy_byte(data: &Path, byte: u8) {
    let path = graphstore::Catalog::path_in(data);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[24] = byte;
    let body_end = bytes.len() - 4;
    let crc = graphstore::codec::crc32(&bytes[8..body_end]);
    bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, bytes).unwrap();
}

/// Apply a toggle to service + mirror, returning whether it was a real op.
fn toggle(svc: &CoreService, mirror: &mut DynGraph, a: u32, b: u32) -> bool {
    if a == b {
        return false;
    }
    if mirror.has_edge(a, b) {
        svc.delete_edge("g", a, b).unwrap();
        mirror.delete_edge(a, b).unwrap();
    } else {
        svc.insert_edge("g", a, b).unwrap();
        mirror.insert_edge(a, b).unwrap();
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Truncate the journal at every byte offset of its final record:
    /// recovery must succeed at every cut, restore exactly the all-ops
    /// state (cut == intact file) or the all-but-last-op state (any torn
    /// cut), and pass the Theorem 4.1 certificate.
    #[test]
    fn torn_journal_tail_drops_at_most_the_trailing_op((g, ops) in arb_toggle_stream()) {
        let dir = TempDir::new("torn").unwrap();
        let data = dir.path().join("data");
        // No threshold checkpoints: the journal must carry the whole stream.
        let svc = durable_service(&data, u64::MAX);
        svc.create("g", &dir.path().join("g"), edges_of(&g), g.num_nodes())
            .unwrap();
        let mut mirror = DynGraph::from_mem(&g);
        let mut applied: Vec<(u32, u32)> = Vec::new();
        for (a, b) in ops {
            if toggle(&svc, &mut mirror, a, b) {
                applied.push((a, b));
            }
        }
        drop(svc);
        if applied.is_empty() {
            // Nothing journaled; just check the empty-journal reopen.
            let svc = testutil::open_catalog(&data).unwrap();
            prop_assert_eq!(svc.cores("g").unwrap(), oracle_cores(&mirror.to_mem()));
            return Ok(());
        }

        let oracle_full = oracle_cores(&mirror.to_mem());
        // The state with the final op undone.
        let mut mirror_minus = DynGraph::from_mem(&g);
        for &(a, b) in &applied[..applied.len() - 1] {
            if mirror_minus.has_edge(a, b) {
                mirror_minus.delete_edge(a, b).unwrap();
            } else {
                mirror_minus.insert_edge(a, b).unwrap();
            }
        }
        let oracle_minus = oracle_cores(&mirror_minus.to_mem());

        let wal_bytes = std::fs::read(data.join("g.wal")).unwrap();
        // Record framing: len(4) + crc(4) + payload(8 seq + 9 op).
        let record_len = 4 + 4 + 8 + 9;
        let intact_len = wal_bytes.len() - record_len;
        for cut in intact_len..=wal_bytes.len() {
            let case = dir.path().join(format!("cut{cut}"));
            copy_data_dir(&data, &case);
            std::fs::write(case.join("g.wal"), &wal_bytes[..cut]).unwrap();
            let svc = testutil::open_catalog(&case).unwrap();
            let cores = svc.cores("g").unwrap();
            if cut == wal_bytes.len() {
                prop_assert_eq!(&cores, &oracle_full, "intact journal at cut {}", cut);
            } else {
                prop_assert_eq!(&cores, &oracle_minus, "torn journal at cut {}", cut);
            }
            prop_assert!(svc.verify("g").unwrap(), "certificate at cut {cut}");
            // The recovered registry keeps serving and journaling.
            let n = g.num_nodes();
            if n >= 2 {
                let _ = svc.insert_edge("g", 0, 1); // may exist: error is fine
            }
        }
    }

    /// Kill (drop without save) + reopen after every prefix of a stream
    /// equals the never-restarted process: the journal alone carries the
    /// maintained state across the restart.
    #[test]
    fn kill_and_reopen_equals_uninterrupted_process((g, ops) in arb_toggle_stream()) {
        let dir = TempDir::new("diff").unwrap();
        let data_a = dir.path().join("data-a");
        let data_b = dir.path().join("data-b");
        let svc_a = durable_service(&data_a, 4);
        let mut svc_b = Some(durable_service(&data_b, 4));
        svc_a
            .create("g", &dir.path().join("ga"), edges_of(&g), g.num_nodes())
            .unwrap();
        svc_b
            .as_ref()
            .unwrap()
            .create("g", &dir.path().join("gb"), edges_of(&g), g.num_nodes())
            .unwrap();

        let mut mirror_a = DynGraph::from_mem(&g);
        let mut mirror_b = DynGraph::from_mem(&g);
        for (i, (a, b)) in ops.iter().copied().enumerate() {
            toggle(&svc_a, &mut mirror_a, a, b);
            toggle(svc_b.as_ref().unwrap(), &mut mirror_b, a, b);
            if i % 5 == 2 {
                // SIGKILL stand-in: drop with no save, reopen from disk.
                drop(svc_b.take());
                svc_b = Some(testutil::open_catalog(&data_b).unwrap());
            }
        }
        let svc_b = svc_b.unwrap();
        prop_assert_eq!(svc_a.cores("g").unwrap(), svc_b.cores("g").unwrap());
        prop_assert_eq!(svc_a.kmax("g").unwrap(), svc_b.kmax("g").unwrap());
        let oracle = oracle_cores(&mirror_a.to_mem());
        prop_assert_eq!(&svc_b.cores("g").unwrap(), &oracle);
        prop_assert!(svc_b.verify("g").unwrap());
        // The Eq. 2 invariant survives recovery (replay runs the real
        // maintenance algorithms, not a state transplant).
        let violation = svc_b
            .with_graph("g", |idx| {
                let state = idx.maintained_state().clone();
                state.check_cnt_invariant(idx.graph_mut())
            })
            .unwrap();
        prop_assert_eq!(violation, None);
    }
}

/// The acceptance differential at a fixed, denser workload: seeded stream,
/// restarts at arbitrary points (one of them from a manifest a build that
/// still had the LRU policy saved) — bit-identical `cores`/`kmax` vs the
/// never-restarted process, and the reopen's charged reads strictly below
/// a fresh decomposition's.
#[test]
fn restart_differential_across_policies_with_reopen_cost_bound() {
    let mut rng = Lcg::new(0xD00E);
    let n = 400u32;
    let g = MemGraph::from_edges(testutil::random_edges(&mut rng, n, 1200), n);
    let dir = TempDir::new("acc").unwrap();
    let data_a = dir.path().join("data-a");
    let data_b = dir.path().join("data-b");
    let svc_a = durable_service(&data_a, 6);
    let mut svc_b = Some(durable_service(&data_b, 6));
    svc_a
        .create("g", &dir.path().join("ga"), edges_of(&g), n)
        .unwrap();
    svc_b
        .as_ref()
        .unwrap()
        .create("g", &dir.path().join("gb"), edges_of(&g), n)
        .unwrap();

    let mut mirror = DynGraph::from_mem(&g);
    let mut mirror_b = DynGraph::from_mem(&g);
    for step in 0..80 {
        let (a, b) = (rng.below(n), rng.below(n));
        toggle(&svc_a, &mut mirror, a, b);
        toggle(svc_b.as_ref().unwrap(), &mut mirror_b, a, b);
        if step == 17 || step == 40 || step == 71 {
            drop(svc_b.take());
            if step == 40 {
                set_manifest_policy_byte(&data_b, 0);
            }
            svc_b = Some(testutil::open_catalog(&data_b).unwrap());
        }
    }
    let svc_b = svc_b.unwrap();
    assert_eq!(
        svc_a.cores("g").unwrap(),
        svc_b.cores("g").unwrap(),
        "cores must be bit-identical across restarts"
    );
    assert_eq!(svc_a.kmax("g").unwrap(), svc_b.kmax("g").unwrap());
    assert_eq!(svc_a.cores("g").unwrap(), oracle_cores(&mirror.to_mem()));
    assert!(svc_a.verify("g").unwrap() && svc_b.verify("g").unwrap());
    // The strict reopen-vs-decomposition I/O bound lives in
    // `reopen_charges_strictly_less_than_redecomposition`, on a graph
    // large enough that the comparison has teeth (this one's whole
    // working set is a handful of blocks).
}

/// Reopen cost on a graph large enough that the bound has teeth: recovery
/// after a checkpoint is a small constant number of blocks; even with a
/// journal tail it stays strictly below re-decomposition.
#[test]
fn reopen_charges_strictly_less_than_redecomposition() {
    // A web-like R-MAT graph: skewed degrees keep maintenance local (the
    // paper's regime), so a short journal tail replays a handful of
    // blocks while decomposition must scan every one. A clean reopen reads
    // the node table and the checkpoint, O(n) bytes, so the bound needs an
    // edge table well over that once compressed: 80k draws over 2048
    // nodes, charged in 1 KiB blocks so the tail's scattered reads stay
    // small against the scan.
    let params = graphgen::Rmat::web(11);
    let n = params.num_nodes();
    let edges = graphgen::rmat_edges(params, 80_000, 0xBEEF);
    let dir = TempDir::new("cost").unwrap();
    let data = dir.path().join("data");
    let svc = durable_service_at(&data, 1024, 8);
    svc.create("g", &dir.path().join("g"), edges.iter().copied(), n)
        .unwrap();
    let decompose_ios = svc
        .with_graph("g", |idx| Ok(idx.decompose_stats().io.read_ios))
        .unwrap();

    let mut rng = Lcg::new(0xCAFE);
    let mirror = MemGraph::from_edges(edges.iter().copied(), n);
    let mut mirror = DynGraph::from_mem(&mirror);
    // 21 real ops at checkpoint_every = 8: checkpoints land at 8 and 16,
    // leaving a journal tail of 5 ops — a realistic kill window whose
    // replay touches a handful of adjacency blocks, far under a scan.
    let mut real_ops = 0;
    while real_ops < 21 {
        let (a, b) = (rng.below(n), rng.below(n));
        if toggle(&svc, &mut mirror, a, b) {
            real_ops += 1;
        }
    }

    // Variant 1: the 5-op journal tail is replayed at reopen.
    drop(svc);
    let svc = testutil::open_catalog(&data).unwrap();
    let reopen_with_tail = svc.io("g").unwrap().read_ios;
    assert!(
        reopen_with_tail < decompose_ios,
        "reopen with journal tail charged {reopen_with_tail} vs decomposition {decompose_ios}"
    );
    assert_eq!(svc.cores("g").unwrap(), oracle_cores(&mirror.to_mem()));

    // Variant 2: checkpointed shutdown — recovery replays nothing and
    // should land far below (checkpoint scan + header blocks only).
    svc.save_all().unwrap();
    drop(svc);
    let svc = testutil::open_catalog(&data).unwrap();
    let reopen_clean = svc.io("g").unwrap().read_ios;
    assert!(
        reopen_clean * 2 < decompose_ios,
        "clean reopen charged {reopen_clean}, expected well under decomposition {decompose_ios}"
    );
    assert_eq!(svc.cores("g").unwrap(), oracle_cores(&mirror.to_mem()));
    assert!(svc.verify("g").unwrap());
}

/// Checkpoint cadence is an amortisation knob, never a semantic one: the
/// same stream at `checkpoint_every` 1, 3 and ∞ recovers identical state.
#[test]
fn checkpoint_cadence_does_not_change_recovered_state() {
    let mut rng = Lcg::new(0x5EED);
    let n = 60u32;
    let g = MemGraph::from_edges(testutil::random_edges(&mut rng, n, 150), n);
    let stream: Vec<(u32, u32)> = (0..40).map(|_| (rng.below(n), rng.below(n))).collect();

    let mut recovered: Vec<Vec<u32>> = Vec::new();
    for (tag, every) in [("one", 1), ("three", 3), ("inf", u64::MAX)] {
        let dir = TempDir::new("cadence").unwrap();
        let data = dir.path().join(format!("data-{tag}"));
        let svc = durable_service(&data, every);
        svc.create("g", &dir.path().join("g"), edges_of(&g), n)
            .unwrap();
        let mut mirror = DynGraph::from_mem(&g);
        for &(a, b) in &stream {
            toggle(&svc, &mut mirror, a, b);
        }
        drop(svc);
        let svc = testutil::open_catalog(&data).unwrap();
        assert_eq!(svc.cores("g").unwrap(), oracle_cores(&mirror.to_mem()));
        recovered.push(svc.cores("g").unwrap());
    }
    assert_eq!(recovered[0], recovered[1]);
    assert_eq!(recovered[1], recovered[2]);
}

/// A corrupted checkpoint or catalog surfaces as a structured error — a
/// durable service must never panic or silently serve garbage on damaged
/// artefacts.
#[test]
fn corrupted_artifacts_error_cleanly() {
    let dir = TempDir::new("corrupt").unwrap();
    let data = dir.path().join("data");
    {
        let svc = durable_service(&data, 4);
        svc.create(
            "g",
            &dir.path().join("g"),
            [(0u32, 1u32), (1, 2), (0, 2)],
            3,
        )
        .unwrap();
        svc.insert_edge("g", 0, 2).err(); // duplicate: rejected, not journaled
    }
    // Flip a byte inside the checkpoint body.
    let ckpt = data.join("g.ckpt");
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&ckpt, &bytes).unwrap();
    let err = testutil::open_catalog(&data).unwrap_err();
    assert!(err.is_corrupt(), "checkpoint bitrot: {err}");

    // Same for the catalog.
    bytes[mid] ^= 0x10;
    std::fs::write(&ckpt, &bytes).unwrap(); // restore
    assert!(testutil::open_catalog(&data).is_ok());
    let cat = data.join("catalog.kc");
    let mut bytes = std::fs::read(&cat).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&cat, &bytes).unwrap();
    assert!(testutil::open_catalog(&data).unwrap_err().is_corrupt());
}

/// One journal record as the service writes it: `seq u64 | MaintainOp`.
fn record(seq: u64, op: MaintainOp) -> Vec<u8> {
    [&seq.to_le_bytes()[..], &op.encode()].concat()
}

/// Recovery and fsck judge a journal by one rule. For each kind of damage,
/// written with the journal's own framing (every record CRC-valid):
/// `open_catalog` fails iff `fsck` reports an unrepaired journal finding,
/// and after `fsck --repair` it succeeds and has replayed exactly the
/// records the rule admits — everything before the first refused record
/// that the checkpoint does not already cover.
#[test]
fn recovery_and_fsck_agree_on_every_journal_record() {
    // A path plus two journaled inserts, checkpointed at sequence 2.
    let path: Vec<(u32, u32)> = (0..7).map(|v| (v, v + 1)).collect();
    let (ins, del) = (MaintainOp::Insert, MaintainOp::Delete);
    let [a, b, c] = [ins(1, 3), ins(1, 4), del(0, 1)];
    // (damage, records, how many the rule admits above the checkpoint,
    // whether it refuses one)
    let cases: Vec<(&str, Vec<Vec<u8>>, usize, bool)> = vec![
        (
            "none",
            vec![record(3, a), record(4, b), record(5, c)],
            3,
            false,
        ),
        (
            "undersized record",
            vec![record(3, a), vec![4, 0, 0], record(4, b)],
            1,
            true,
        ),
        (
            "undecodable op",
            vec![record(3, a), [&4u64.to_le_bytes()[..], &[9; 9]].concat()],
            1,
            true,
        ),
        (
            "gap above the checkpoint",
            vec![record(3, a), record(5, b)],
            1,
            true,
        ),
        (
            "repeated sequence number",
            vec![record(3, a), record(3, b), record(4, c)],
            1,
            true,
        ),
        (
            "out-of-range endpoints above the checkpoint",
            vec![record(3, a), record(4, ins(1, 99))],
            1,
            true,
        ),
        (
            "out-of-range record at or below the checkpoint",
            vec![
                record(1, ins(0, 2)),
                record(2, ins(1, 99)),
                record(3, a),
                record(4, b),
            ],
            2,
            false,
        ),
    ];
    for (case, records, admitted, damaged) in cases {
        let dir = TempDir::new("journal-rule").unwrap();
        let data = dir.path().join("data");
        {
            let svc = testutil::create_durable(&data, 1 << 20).unwrap();
            svc.create("g", &dir.path().join("g"), path.iter().copied(), 8)
                .unwrap();
            svc.insert_edge("g", 0, 2).unwrap();
            svc.insert_edge("g", 0, 3).unwrap();
            svc.save("g").unwrap();
        }
        let mut wal = Wal::create(&data.join("g.wal"), IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
        for r in &records {
            wal.append(r).unwrap();
        }
        drop(wal);

        let refused = testutil::open_catalog(&data).is_err();
        let report = kcore_suite::fsck(&data, false).unwrap();
        let reported = report
            .findings
            .iter()
            .any(|f| f.problem.starts_with("journal") && !f.repaired);
        assert_eq!(refused, reported, "{case}: {:?}", report.findings);
        assert_eq!(refused, damaged, "{case}");

        kcore_suite::fsck(&data, true).unwrap();
        assert!(kcore_suite::fsck(&data, false).unwrap().clean(), "{case}");
        let svc = testutil::open_catalog(&data).unwrap();
        let mut mirror = DynGraph::from_mem(&MemGraph::from_edges(path.iter().copied(), 8));
        for op in [ins(0, 2), ins(0, 3), a, b, c]
            .into_iter()
            .take(2 + admitted)
        {
            let (u, v) = op.endpoints();
            match op {
                MaintainOp::Insert(..) => graphstore::DynamicGraph::insert_edge(&mut mirror, u, v),
                MaintainOp::Delete(..) => graphstore::DynamicGraph::delete_edge(&mut mirror, u, v),
            }
            .unwrap();
        }
        let want = graphstore::snapshot_mem(&mut mirror).unwrap();
        assert_eq!(svc.cores("g").unwrap(), oracle_cores(&want), "{case}");
        for (u, v) in [(1, 3), (1, 4), (0, 1)] {
            let present = svc.with_graph("g", |i| i.has_edge(u, v)).unwrap();
            assert_eq!(
                present,
                want.neighbors(u).contains(&v),
                "{case}: edge ({u}, {v})"
            );
        }
    }
}

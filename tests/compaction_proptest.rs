//! Property tests for generational compaction on the durable serving
//! path.
//!
//! The main property interleaves arbitrary maintenance ops with forced
//! compactions and kill/reopen cycles (drop the service without any
//! shutdown courtesy, recover through [`CoreService::open_catalog`]): the
//! surviving service's maintained state — core numbers *and* the Eq. 2
//! `cnt` array — must be bit-identical to a reference service that ran
//! the same op stream with no compaction and no restart. Compaction and
//! recovery are allowed to change how bytes are laid out, never what is
//! served.
//!
//! A second, deterministic test pins the point of compacting at all:
//! recovering a compacted directory charges strictly fewer `read_ios`
//! than recovering the same history by journal replay, because the edits
//! are baked into the tables and the replay loop has nothing to do.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Mutex;

use graphstore::{MemGraph, StdVfs, TempDir, DEFAULT_BLOCK_SIZE};
use kcore_suite::{CoreService, DurableOptions};
use proptest::prelude::*;
use testutil::{arb_toggle_stream, oracle_cores, Lcg};

const BUDGET: u64 = 8 << 20;
const G: &str = "g";

fn durable(data: &Path) -> CoreService {
    CoreService::create_durable(
        data,
        DEFAULT_BLOCK_SIZE,
        BUDGET,
        // Default threshold: the apply path never self-compacts here, so
        // every compaction in the test is one the script forced.
        DurableOptions::default(),
        StdVfs::arc(),
    )
    .unwrap()
}

/// Apply one toggle through the service, tracking presence so every op is
/// valid by construction.
fn toggle(svc: &CoreService, present: &mut BTreeSet<(u32, u32)>, e: (u32, u32)) {
    let res = if present.remove(&e) {
        svc.delete_edge(G, e.0, e.1)
    } else {
        present.insert(e);
        svc.insert_edge(G, e.0, e.1)
    };
    res.unwrap_or_else(|err| panic!("toggle {e:?} failed: {err}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn compactions_and_restarts_never_change_the_maintained_state(
        (g, raw_ops) in arb_toggle_stream(),
        seed in any::<u64>(),
    ) {
        let ops: Vec<(u32, u32)> = raw_ops
            .into_iter()
            .filter(|&(u, v)| u != v)
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        let base: Vec<(u32, u32)> = g.edges().collect();
        let nodes = g.num_nodes();
        let dir = TempDir::new("compact-prop").unwrap();

        // Reference: same stream, no compaction, no restart.
        let reference = {
            let svc = durable(&dir.path().join("ref-data"));
            svc.create(G, &dir.path().join("ref-base"), base.iter().copied(), nodes)
                .unwrap();
            let mut present: BTreeSet<(u32, u32)> = base.iter().copied().collect();
            for &e in &ops {
                toggle(&svc, &mut present, e);
            }
            svc.with_graph(G, |idx| Ok(idx.maintained_state().clone()))
                .unwrap()
        };

        // Perturbed: the same stream with compactions forced and the
        // process "killed" (dropped, no save) and reopened, at
        // seed-chosen points.
        let data = dir.path().join("tort-data");
        let mut svc = durable(&data);
        svc.create(G, &dir.path().join("tort-base"), base.iter().copied(), nodes)
            .unwrap();
        let mut present: BTreeSet<(u32, u32)> = base.iter().copied().collect();
        let mut rng = Lcg::new(seed);
        // Every seed also compacts twice back to back once, ahead of a
        // seed-chosen op (or after the last): the second call finds
        // nothing to fold and must be a checkpoint that keeps the
        // generation. Drawn from its own stream, so the draws below are
        // the ones each seed always made.
        let twice_at = Lcg::new(seed ^ 0x5eed_f01d).below(ops.len() as u32 + 1) as usize;
        for i in 0..=ops.len() {
            if i == twice_at {
                let generation = svc.compact(G).unwrap();
                prop_assert_eq!(svc.compact(G).unwrap(), generation, "an empty fold moved");
                let next = graphstore::generation_base(&dir.path().join("tort-base"), generation + 1);
                prop_assert!(
                    !graphstore::GraphPaths::from_base(&next).nodes.exists(),
                    "an empty fold wrote tables"
                );
            }
            let Some(&e) = ops.get(i) else { break };
            toggle(&svc, &mut present, e);
            match rng.below(4) {
                0 => {
                    svc.compact(G).unwrap();
                }
                1 => {
                    drop(svc);
                    svc = testutil::open_catalog(&data).unwrap();
                }
                _ => {}
            }
        }
        // One final kill/reopen so the last segment always recovers too.
        drop(svc);
        let svc = testutil::open_catalog(&data).unwrap();
        let got = svc
            .with_graph(G, |idx| Ok(idx.maintained_state().clone()))
            .unwrap();

        prop_assert_eq!(&got.core, &reference.core, "core numbers diverged");
        prop_assert_eq!(&got.cnt, &reference.cnt, "Eq. 2 cnt diverged");
        prop_assert!(svc.verify(G).unwrap(), "fixpoint certificate");
        prop_assert_eq!(
            &got.core,
            &oracle_cores(&MemGraph::from_edges(present, nodes)),
            "oracle mismatch"
        );
        drop(svc);
        let report = kcore_suite::fsck(&data, false).unwrap();
        prop_assert!(report.clean(), "fsck: {:?}", report.findings);
    }
}

/// Compactions racing live writers: two threads toggle edges through the
/// service while this one compacts back to back until they finish, so
/// real folds rewrite beside acknowledged edits, and the threshold trigger
/// and checkpoints fire between them. The served state must be the oracle
/// of every acknowledged op, and a reopen must serve the same `cnt`. A
/// stress net for the join's rebase; the service's unit tests force the
/// interleavings deterministically with a parked stage.
#[test]
fn compactions_beside_live_writers_keep_every_acknowledged_op() {
    for seed in 0..2u64 {
        let dir = TempDir::new("compact-race").unwrap();
        let data = dir.path().join("data");
        let opts = DurableOptions {
            checkpoint_every: 5,
            compact_after_edits: 40,
            ..DurableOptions::default()
        };
        let svc =
            CoreService::create_durable(&data, DEFAULT_BLOCK_SIZE, BUDGET, opts, StdVfs::arc())
                .unwrap();
        let g = testutil::random_mem_graph(&mut Lcg::new(seed), 300, 1, 4);
        let n = g.num_nodes();
        svc.create(G, &dir.path().join("base"), g.edges(), n)
            .unwrap();
        let present = Mutex::new(g.edges().collect::<BTreeSet<_>>());
        let folds = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..2)
                .map(|w| {
                    let (svc, present) = (&svc, &present);
                    scope.spawn(move || {
                        let mut rng = Lcg::new(seed * 7 + w);
                        for _ in 0..300 {
                            let (u, v) = (rng.below(n), rng.below(n));
                            if u != v {
                                toggle(svc, &mut present.lock().unwrap(), (u.min(v), u.max(v)));
                            }
                        }
                    })
                })
                .collect();
            let mut folds = 0;
            while !writers.iter().all(|w| w.is_finished()) {
                svc.compact(G).unwrap();
                folds += 1;
            }
            folds
        });
        assert!(
            svc.generation(G).unwrap() > 1,
            "seed {seed}: {folds} calls folded little"
        );
        let present = present.into_inner().unwrap();
        let want = oracle_cores(&MemGraph::from_edges(present.iter().copied(), n));
        // The served edges, cores and Eq. 2 counters.
        let state = |svc: &CoreService| {
            svc.with_graph(G, |idx| {
                let graph = graphstore::snapshot_mem(idx.graph_mut())?;
                let state = idx.maintained_state();
                Ok((
                    graph.edges().collect::<BTreeSet<_>>(),
                    state.core.clone(),
                    state.cnt.clone(),
                ))
            })
            .unwrap()
        };
        let live = state(&svc);
        assert_eq!((&live.0, &live.1), (&present, &want), "seed {seed}");
        assert!(svc.verify(G).unwrap());
        drop(svc);
        let report = kcore_suite::fsck(&data, false).unwrap();
        assert!(report.clean(), "seed {seed}: {:?}", report.findings);
        assert_eq!(state(&testutil::open_catalog(&data).unwrap()), live);
    }
}

/// Compaction's I/O dividend, on the paper's charged-block model: two
/// directories with identical histories, one compacted before the kill.
/// Recovery of the compacted directory must charge strictly fewer
/// `read_ios` — its checkpoint already covers every edit, while the
/// uncompacted twin re-runs the whole journal through the maintenance
/// algorithms and pays their adjacency reads again. The directory itself
/// (catalog, checkpoint, journal) must be strictly smaller too: the edits
/// now live in the new generation's tables, not in a log beside them.
#[test]
fn recovering_a_compacted_directory_charges_strictly_fewer_reads() {
    let mut rng = Lcg::new(0xC0FFEE);
    let base: BTreeSet<(u32, u32)> = graphgen::gnm(64, 150, 9)
        .into_iter()
        .filter(|&(u, v)| u != v)
        .map(|(u, v)| (u.min(v), u.max(v)))
        .collect();
    let base: Vec<(u32, u32)> = base.into_iter().collect();
    let dir = TempDir::new("compact-io").unwrap();

    let mut services = ["compacted", "replayed"].map(|tag| {
        let data = dir.path().join(format!("{tag}-data"));
        let svc = CoreService::create_durable(
            &data,
            DEFAULT_BLOCK_SIZE,
            BUDGET,
            DurableOptions {
                // No checkpoint threshold in range: the uncompacted twin
                // must recover by journal replay alone.
                checkpoint_every: 1_000_000,
                ..Default::default()
            },
            StdVfs::arc(),
        )
        .unwrap();
        svc.create(
            G,
            &dir.path().join(format!("{tag}-base")),
            base.iter().copied(),
            64,
        )
        .unwrap();
        (data, svc)
    });

    let mut present: BTreeSet<(u32, u32)> = base.iter().copied().collect();
    for _ in 0..60 {
        let u = rng.below(64);
        let mut v = rng.below(64);
        if v == u {
            v = (v + 1) % 64;
        }
        let e = (u.min(v), u.max(v));
        let inserting = !present.remove(&e);
        if inserting {
            present.insert(e);
        }
        for (_, svc) in &mut services {
            if inserting {
                svc.insert_edge(G, e.0, e.1).unwrap();
            } else {
                svc.delete_edge(G, e.0, e.1).unwrap();
            }
        }
    }

    let [(compacted_data, compacted_svc), (replayed_data, replayed_svc)] = services;
    compacted_svc.compact(G).unwrap();
    drop(compacted_svc);
    drop(replayed_svc);

    let dir_bytes = |data: &std::path::Path| -> u64 {
        std::fs::read_dir(data)
            .unwrap()
            .map(|entry| entry.unwrap().metadata().unwrap().len())
            .sum()
    };
    let (small, large) = (dir_bytes(&compacted_data), dir_bytes(&replayed_data));
    assert!(
        small < large,
        "compacted data dir holds {small} B, its uncompacted twin {large} B: \
         checkpoint + journal must shrink"
    );

    let compacted = testutil::open_catalog(&compacted_data).unwrap();
    let replayed = testutil::open_catalog(&replayed_data).unwrap();
    let (a, b) = (
        compacted.io(G).unwrap().read_ios,
        replayed.io(G).unwrap().read_ios,
    );
    assert!(
        a < b,
        "compacted recovery charged {a} read I/Os, replay charged {b}: \
         compaction must make recovery strictly cheaper"
    );
    // And both recovered the same world.
    assert_eq!(compacted.cores(G).unwrap(), replayed.cores(G).unwrap());
    assert_eq!(
        compacted.cores(G).unwrap(),
        oracle_cores(&MemGraph::from_edges(present, 64))
    );
}

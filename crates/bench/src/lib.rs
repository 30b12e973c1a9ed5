//! # kcore-bench — the paper's evaluation, regenerated
//!
//! One printer binary per table/figure of §VI (`fig*`, `table1_datasets`),
//! the storage-layer sweeps (`ablation_{cache,blocksize,buffer}`) and two
//! wall-clock gates (`decode_bw`, `scrub_overhead`); see `src/bin/`. The
//! figure binaries accept `--scale` to grow or shrink the dataset
//! stand-ins; defaults finish in minutes.
//!
//! This crate measures nothing that gates a change. The orderings the
//! figures show are asserted by `tests/paper_claims.rs` (root package), and
//! the repository's benchmark is `kbench/`.

#![warn(missing_docs)]

pub mod harness;

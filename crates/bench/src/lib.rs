//! # kcore-bench — the paper's evaluation, regenerated
//!
//! [`paper`] holds each §VI protocol once — the tables and the block size
//! they are charged in, the semi-external trio, EMCore's budget rule,
//! victim sampling, the delete-then-reinsert protocol and the Figs. 11/12
//! samples. `tests/paper_claims.rs` (root package) asserts the orderings
//! on what it returns, and one printer binary per table/figure of §VI
//! (`fig*`, `table1_datasets`) prints it; beside them sit the
//! storage-layer sweeps (`ablation_{cache,blocksize,buffer}`), two
//! wall-clock gates (`decode_bw`, `scrub_overhead`) and the decomposition
//! rate's spread (`decompose_modes`); see `src/bin/`. The
//! figure binaries accept `--scale` to grow or shrink the dataset
//! stand-ins; defaults finish in minutes, and at the claims' scales they
//! print the rows the claims pass at.
//!
//! This crate measures nothing that gates a change; the repository's
//! benchmark is `kbench/`.

#![warn(missing_docs)]

pub mod harness;
pub mod paper;

//! # kbench — one end-to-end + per-layer benchmark for kcore-suite
//!
//! `BENCHMARK.json` at the repository root names this package's binary as
//! the benchmark command. One invocation runs one workload
//! (`--workload <name> --seed <n> --seconds <s> --trace <0|1>`), checks the
//! program's outputs, prints every metric by name with its unit on stderr
//! and one JSON result line on stdout. See `README.md` in this directory.
//!
//! Everything is measured **from outside** the program under test: by
//! timing calls into its public functions, and — in the traced run only —
//! by wrapping the two public seams its storage stack already has
//! (`AdjacencyRead` on top, `Vfs` underneath).

#![warn(missing_docs)]

pub mod cli;
pub mod e2e;
pub mod metrics;
pub mod spans;
pub mod summary;
pub mod trace;
pub mod workload;

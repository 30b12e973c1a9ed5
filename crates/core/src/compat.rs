//! Kbench-only names (ROADMAP item 12b), re-exported under their pinned
//! path `semicore::ScanExecutor`.

/// How SemiCore\*'s passes are scheduled: one way, the paper's sequential
/// in-place scan. A sharded executor was measured at 0.14–0.20× the
/// sequential scan with two workers and retired; this type outlives it only
/// because kbench names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanExecutor {
    /// The paper's single-threaded schedule (in-place propagation).
    #[default]
    Sequential,
}

impl ScanExecutor {
    /// Runs the sequential schedule whatever `_workers` says.
    pub fn parallel(_workers: usize) -> ScanExecutor {
        ScanExecutor::Sequential
    }
}

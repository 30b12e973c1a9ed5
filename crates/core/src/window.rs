//! The `[vmin, vmax]` scan window and `UpdateRange` procedure shared by
//! Algorithms 4–8.
//!
//! All optimized semi-external algorithms avoid touching every node each
//! iteration by tracking the smallest and largest node that may still need
//! work. During an iteration the scan runs from `vmin` to `vmax`; when the
//! recomputation of `v` implicates a neighbour `u`, `UpdateRange` either
//! extends the *current* window (`u > v`: `u` can still be handled this
//! iteration) or the *next* window (`u < v`: the scan has already passed it).

/// Scan window state for one convergence loop.
#[derive(Debug, Clone)]
pub struct ScanWindow {
    /// First node of the current iteration's range.
    pub vmin: u32,
    /// Last node of the current iteration's range (inclusive; may grow while
    /// the iteration runs).
    pub vmax: u32,
    /// Whether another iteration is required.
    pub update: bool,
    next_min: u32,
    next_max: u32,
    num_nodes: u32,
}

impl ScanWindow {
    /// A window covering all nodes (used by the first iteration of the
    /// decomposition algorithms).
    pub fn full(num_nodes: u32) -> Self {
        ScanWindow {
            vmin: 0,
            vmax: num_nodes.saturating_sub(1),
            update: true,
            next_min: num_nodes,
            next_max: 0,
            num_nodes,
        }
    }

    /// A window initially covering `[lo, hi]` (used by the maintenance
    /// algorithms, which start from the updated edge's endpoints).
    pub fn span(lo: u32, hi: u32, num_nodes: u32) -> Self {
        debug_assert!(lo <= hi && hi < num_nodes);
        ScanWindow {
            vmin: lo,
            vmax: hi,
            update: true,
            next_min: num_nodes,
            next_max: 0,
            num_nodes,
        }
    }

    /// Begin an iteration: reset the next-window accumulator and the update
    /// flag (Alg. 4 line 6: `update ← false; v'min ← vn; v'max ← v1`).
    pub fn begin_iteration(&mut self) {
        self.update = false;
        self.next_min = self.num_nodes;
        self.next_max = 0;
    }

    /// The `UpdateRange` procedure (Alg. 4 lines 17–21): node `u` became
    /// relevant while processing node `v`.
    #[inline]
    pub fn schedule(&mut self, u: u32, v: u32) {
        // u > v: extend the current scan so u is computed this iteration
        // rather than delayed to the next.
        if u > self.vmax {
            self.vmax = u;
        }
        if u < v {
            self.schedule_next(u);
        }
    }

    /// Schedule `u` for the *next* iteration: it lies behind the scan.
    #[inline]
    fn schedule_next(&mut self, u: u32) {
        self.update = true;
        if u < self.next_min {
            self.next_min = u;
        }
        if u > self.next_max {
            self.next_max = u;
        }
    }

    /// End an iteration: adopt the accumulated next window
    /// (Alg. 4 line 15).
    pub fn end_iteration(&mut self) {
        self.vmin = self.next_min;
        self.vmax = self.next_max;
    }

    /// Iterate the current window, tolerating in-flight `vmax` growth.
    ///
    /// Returns an iterator-like closure driver: calls `f(v)` for each `v`
    /// from `vmin` while `v <= self.vmax` *at the time `v` is reached*.
    pub fn current_range(&self) -> (u32, u32) {
        (self.vmin, self.vmax)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_window_covers_everything() {
        let w = ScanWindow::full(10);
        assert_eq!(w.current_range(), (0, 9));
        assert!(w.update);
    }

    #[test]
    fn schedule_forward_extends_current_window_only() {
        let mut w = ScanWindow::span(2, 4, 20);
        w.begin_iteration();
        w.schedule(9, 3);
        assert_eq!(w.vmax, 9);
        assert!(!w.update, "forward work needs no extra iteration");
        w.end_iteration();
        // Nothing scheduled backward: next window is the empty sentinel.
        assert!(w.vmin > w.vmax);
    }

    #[test]
    fn schedule_backward_populates_next_window() {
        let mut w = ScanWindow::span(5, 8, 20);
        w.begin_iteration();
        w.schedule(3, 6);
        w.schedule(1, 7);
        w.schedule(4, 7);
        assert!(w.update);
        w.end_iteration();
        assert_eq!(w.current_range(), (1, 4));
    }

    #[test]
    fn mixed_schedules() {
        let mut w = ScanWindow::span(5, 5, 100);
        w.begin_iteration();
        w.schedule(50, 5); // forward
        w.schedule(2, 10); // backward
        assert_eq!(w.vmax, 50);
        w.end_iteration();
        assert_eq!(w.current_range(), (2, 2));
        assert!(w.update);
    }

    #[test]
    fn empty_graph_window_is_degenerate() {
        let w = ScanWindow::full(0);
        // vmin (0) > vmax is impossible for u32 here: both are 0; callers
        // guard on num_nodes == 0 before scanning.
        assert_eq!(w.current_range(), (0, 0));
    }
}

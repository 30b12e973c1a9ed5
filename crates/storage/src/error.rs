//! Error type shared by all storage operations.

use std::fmt;

/// Result alias used throughout the storage crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by the disk graph substrate.
///
/// Corruption and argument errors are reported as structured variants so that
/// callers (and tests) can distinguish "the file is damaged" from "the caller
/// asked for something impossible" without string matching.
#[derive(Debug)]
pub enum Error {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// The file exists but its contents are not a valid graph.
    Corrupt {
        /// Human-readable description of what failed to validate.
        reason: String,
    },
    /// A node id outside `0..n` was requested.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// Number of nodes in the graph.
        num_nodes: u32,
    },
    /// An API contract was violated (e.g. scanning backwards).
    InvalidArgument(String),
    /// The graph would exceed a structural limit (e.g. more than `u32::MAX` nodes).
    TooLarge(String),
    /// The serving layer's admission controller shed this request: the
    /// tenant's working set cannot be granted without blowing the
    /// configured charge budget, and the wait queue is already full (or the
    /// request alone exceeds the whole budget). Unlike [`Error::Quarantined`]
    /// this is a *load* condition, not damage — retrying later, raising the
    /// budget, or evicting idle tenants all clear it.
    Overloaded {
        /// Tenant (graph name) whose request was shed.
        tenant: String,
        /// Why admission refused it.
        reason: String,
    },
    /// The named graph has been quarantined by the serving layer: an earlier
    /// I/O failure, corruption, or a panicked operation left its in-memory
    /// state untrusted, so further operations are rejected until it is
    /// evicted and re-opened. Other graphs keep serving.
    Quarantined {
        /// Name of the quarantined graph.
        graph: String,
        /// What sent the graph into quarantine.
        reason: String,
    },
    /// The named graph is serving in degraded read-only mode: a disk-full
    /// condition (or another recoverable durability failure) stopped the
    /// journal and checkpoint writers, so mutations are refused while
    /// queries keep serving the last committed state. Unlike
    /// [`Error::Quarantined`] the in-memory state is still trusted; the
    /// graph auto-promotes back to read-write once space returns.
    ReadOnly {
        /// Name of the degraded graph.
        graph: String,
        /// Why mutations are refused.
        reason: String,
    },
    /// The operation exceeded its per-op deadline and was cancelled at a
    /// safe point. No maintained state was mutated; the admission claim is
    /// released. A retry (or a raised `--op-timeout-ms`) may succeed.
    Timeout {
        /// What ran out of time.
        reason: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::Corrupt { reason } => write!(f, "corrupt graph file: {reason}"),
            Error::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range (graph has {num_nodes} nodes)")
            }
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            Error::TooLarge(msg) => write!(f, "graph too large: {msg}"),
            Error::Overloaded { tenant, reason } => {
                write!(f, "tenant {tenant:?} overloaded: {reason}")
            }
            Error::Quarantined { graph, reason } => {
                write!(f, "graph {graph:?} is quarantined: {reason}")
            }
            Error::ReadOnly { graph, reason } => {
                write!(f, "graph {graph:?} is read-only: {reason}")
            }
            Error::Timeout { reason } => write!(f, "operation timed out: {reason}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl Error {
    /// Construct a corruption error from anything displayable.
    pub fn corrupt(reason: impl Into<String>) -> Self {
        Error::Corrupt {
            reason: reason.into(),
        }
    }

    /// `Ok` when `node` is an id of a graph with `num_nodes` nodes, else
    /// [`Error::NodeOutOfRange`].
    pub fn check_node(node: u32, num_nodes: u32) -> Result<()> {
        if node >= num_nodes {
            return Err(Error::NodeOutOfRange { node, num_nodes });
        }
        Ok(())
    }

    /// `Ok` unless `node` is `u32::MAX`, the one id no graph can hold
    /// because its node count must fit `u32`; that id is
    /// [`Error::InvalidArgument`].
    pub fn check_node_id(node: u32) -> Result<()> {
        if node == u32::MAX {
            return Err(Error::InvalidArgument(format!(
                "node id {node} is out of range: the node count must fit u32"
            )));
        }
        Ok(())
    }

    /// True when the error indicates damaged on-disk data.
    pub fn is_corrupt(&self) -> bool {
        matches!(self, Error::Corrupt { .. })
    }

    /// True when the error reports a quarantined graph.
    pub fn is_quarantined(&self) -> bool {
        matches!(self, Error::Quarantined { .. })
    }

    /// True when the error reports admission-control shedding (a load
    /// condition that clears on its own, unlike quarantine).
    pub fn is_overloaded(&self) -> bool {
        matches!(self, Error::Overloaded { .. })
    }

    /// True when the error reports a graph serving in degraded read-only
    /// mode.
    pub fn is_read_only(&self) -> bool {
        matches!(self, Error::ReadOnly { .. })
    }

    /// True when the error reports a per-op deadline expiry.
    pub fn is_timeout(&self) -> bool {
        matches!(self, Error::Timeout { .. })
    }

    /// True when the root cause is the filesystem running out of space
    /// (`ENOSPC`/`EDQUOT`, surfaced as [`std::io::ErrorKind::StorageFull`]).
    /// The serving layer uses this to choose degraded read-only mode over
    /// quarantine: a full disk damages nothing, it only stops writers.
    pub fn is_disk_full(&self) -> bool {
        matches!(self, Error::Io(e) if e.kind() == std::io::ErrorKind::StorageFull)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        let e = Error::corrupt("bad magic");
        assert_eq!(e.to_string(), "corrupt graph file: bad magic");
        assert!(e.is_corrupt());

        let e = Error::NodeOutOfRange {
            node: 9,
            num_nodes: 4,
        };
        assert_eq!(e.to_string(), "node 9 out of range (graph has 4 nodes)");
        assert!(!e.is_corrupt());

        let e = Error::Quarantined {
            graph: "g".into(),
            reason: "i/o failure".into(),
        };
        assert_eq!(e.to_string(), "graph \"g\" is quarantined: i/o failure");
        assert!(e.is_quarantined() && !e.is_corrupt());

        let e = Error::Overloaded {
            tenant: "t".into(),
            reason: "admission queue full".into(),
        };
        assert_eq!(
            e.to_string(),
            "tenant \"t\" overloaded: admission queue full"
        );
        assert!(e.is_overloaded() && !e.is_quarantined());
    }

    #[test]
    fn degraded_and_timeout_variants_classify() {
        let e = Error::ReadOnly {
            graph: "g".into(),
            reason: "disk full".into(),
        };
        assert_eq!(e.to_string(), "graph \"g\" is read-only: disk full");
        assert!(e.is_read_only() && !e.is_quarantined());

        let e = Error::Timeout {
            reason: "per-op deadline of 5 ms exceeded".into(),
        };
        assert_eq!(
            e.to_string(),
            "operation timed out: per-op deadline of 5 ms exceeded"
        );
        assert!(e.is_timeout() && !e.is_read_only());

        let full = Error::Io(std::io::Error::new(
            std::io::ErrorKind::StorageFull,
            "injected disk full (ENOSPC)",
        ));
        assert!(full.is_disk_full());
        let other = Error::Io(std::io::Error::other("boom"));
        assert!(!other.is_disk_full());
    }

    #[test]
    fn io_error_round_trips_through_source() {
        let inner = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: Error = inner.into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("gone"));
    }
}

//! On-disk graph layout.
//!
//! Following §II "Graph Storage" of the paper, a graph is stored as two files:
//!
//! * **node table** (`<base>.nodes`): fixed-size header followed by one entry
//!   per node holding the byte offset of its adjacency list in the edge table
//!   and its degree. Entries are 12 bytes: `offset: u64, degree: u32`.
//! * **edge table** (`<base>.edges`): a short header followed by the adjacency
//!   lists `nbr(v1), nbr(v2), …, nbr(vn)` stored consecutively.
//!
//! Loading `nbr(v)` therefore takes one node-table access (offset + degree)
//! plus a contiguous edge-table read, exactly the access pattern the paper's
//! algorithms assume. Each neighbour list is stored sorted ascending, which
//! the update buffer relies on for merging.
//!
//! ## Format versions
//!
//! Two edge-table encodings exist — one raw, one compressed — negotiated
//! by the version field of the node-table header. Both are read. Every
//! writer — ingest ([`crate::ExternalGraphBuilder::new`]), the in-memory
//! constructors ([`crate::write_mem_graph`]) and every rewrite (an
//! update-buffer flush, a generational compaction) — writes v3. A v1 table
//! is served as it is and upgraded at its next flush or compaction:
//!
//! * **v1** ([`FormatVersion::V1`]): raw little-endian `u32` ids, 4 bytes per
//!   neighbour. Node header is 32 bytes; the edge-table length is derived
//!   (`8 + 4 · degree_sum`). Supports the zero-copy borrowed-slice visit.
//! * **v3** ([`FormatVersion::V3`]), the compressed format: stream-vbyte
//!   groups — each list stores its first id absolute and every later id as
//!   `gap − 1` to its predecessor (consecutive ids cost zero data bytes),
//!   with control and data bytes separated per list: `ceil(degree / 4)`
//!   control bytes (one 2-bit length code per value, packed four per byte)
//!   followed by the raw little-endian payload
//!   ([`crate::codec::encode_group_run`]). A decoder processes four values
//!   per control byte with table-driven gathers (two control bytes per
//!   AVX2 `vpshufb` when available, an unaligned-load scalar quad
//!   otherwise). Sorted neighbour
//!   lists typically shrink 3×, which under the block-charged cost model is
//!   proportionally fewer `read_ios` on every edge-table path. The node
//!   header grows to 40 bytes to record the (now data-dependent) edge-table
//!   payload length; node *entries* are unchanged (byte offset + degree).
//!
//! Header version 2 (`KCOREDG2`, LEB128 gap varints) was the compressed
//! format before v3 and has had no writer since PR 13; its reader is gone.
//! [`decode_node_header`] refuses such a table with a `Corrupt` error that
//! names the version and the way out (`kcore recompress` from a build at
//! or before PR 23 rewrites it as v3).

use std::path::{Path, PathBuf};

use crate::codec;
use crate::error::{Error, Result};

/// Magic bytes opening the node table file (both format versions).
pub const NODE_MAGIC: &[u8; 8] = b"KCORNOD1";
/// Magic bytes opening a v1 (raw `u32`) edge table file.
pub const EDGE_MAGIC: &[u8; 8] = b"KCOREDG1";
/// Magic bytes opening a v3 (stream-vbyte group) edge table file.
pub const EDGE_MAGIC_V3: &[u8; 8] = b"KCOREDG3";

/// Size of the v1 node-table header in bytes.
pub const NODE_HEADER_LEN_V1: u64 = 32;
/// Size of the v3 node-table header in bytes (v1 plus the edge-table
/// payload length, which compression makes data-dependent).
pub const NODE_HEADER_LEN_V3: u64 = 40;
/// The largest node-table header across versions — what an opener reads
/// before it knows the version.
pub const MAX_NODE_HEADER_LEN: u64 = NODE_HEADER_LEN_V3;
/// Size of one node-table entry in bytes (`offset: u64, degree: u32`).
pub const NODE_ENTRY_LEN: u64 = 12;
/// Size of the edge-table header in bytes (both versions).
pub const EDGE_HEADER_LEN: u64 = 8;

/// Edge-table encoding of a stored graph. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatVersion {
    /// Raw little-endian `u32` ids (4 bytes per neighbour).
    V1,
    /// Stream-vbyte groups (2-bit length codes packed four per control
    /// byte, then raw little-endian data; later values store `gap − 1`).
    V3,
}

impl FormatVersion {
    /// The version number written into the node-table header.
    pub fn as_u32(self) -> u32 {
        match self {
            FormatVersion::V1 => 1,
            FormatVersion::V3 => 3,
        }
    }

    /// Parse a header version number.
    pub fn from_u32(v: u32) -> Result<FormatVersion> {
        match v {
            1 => Ok(FormatVersion::V1),
            3 => Ok(FormatVersion::V3),
            2 => Err(Error::corrupt(
                "format v2 (LEB128 gap varints) is no longer readable; a build at or \
                 before PR 23 can `kcore recompress` it to v3",
            )),
            other => Err(Error::corrupt(format!(
                "unsupported format version {other} (expected 1 or 3)"
            ))),
        }
    }

    /// The magic bytes this version's edge table must open with.
    pub fn edge_magic(self) -> &'static [u8; 8] {
        match self {
            FormatVersion::V1 => EDGE_MAGIC,
            FormatVersion::V3 => EDGE_MAGIC_V3,
        }
    }

    /// Short human-readable tag (`"v1"` / `"v3"`), as the CLI reports it.
    pub fn tag(self) -> &'static str {
        match self {
            FormatVersion::V1 => "v1",
            FormatVersion::V3 => "v3",
        }
    }
}

/// Graph-level metadata stored in the node-table header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphMeta {
    /// Number of nodes `n`. Node ids are `0..n`.
    pub num_nodes: u32,
    /// Sum of degrees (twice the number of undirected edges).
    pub degree_sum: u64,
    /// Edge-table encoding.
    pub version: FormatVersion,
    /// Edge-table payload length in bytes (excluding its 8-byte header).
    /// For v1 this is always `4 · degree_sum`; for v3 it is
    /// data-dependent and recorded in the header.
    pub edge_bytes: u64,
}

impl GraphMeta {
    /// Metadata of a v1 (raw `u32`) graph.
    pub fn v1(num_nodes: u32, degree_sum: u64) -> GraphMeta {
        GraphMeta {
            num_nodes,
            degree_sum,
            version: FormatVersion::V1,
            edge_bytes: 4 * degree_sum,
        }
    }

    /// Metadata of a v3 (stream-vbyte group) graph whose encoded adjacency
    /// lists total `edge_bytes` bytes.
    pub fn v3(num_nodes: u32, degree_sum: u64, edge_bytes: u64) -> GraphMeta {
        GraphMeta {
            num_nodes,
            degree_sum,
            version: FormatVersion::V3,
            edge_bytes,
        }
    }

    /// Number of undirected edges `m`.
    pub fn num_edges(&self) -> u64 {
        self.degree_sum / 2
    }

    /// Size of this graph's node-table header.
    pub fn node_header_len(&self) -> u64 {
        match self.version {
            FormatVersion::V1 => NODE_HEADER_LEN_V1,
            FormatVersion::V3 => NODE_HEADER_LEN_V3,
        }
    }

    /// Byte offset of node `v`'s entry within the node table file.
    pub fn node_entry_offset(&self, v: u32) -> u64 {
        self.node_header_len() + NODE_ENTRY_LEN * v as u64
    }

    /// Expected node table file length.
    pub fn node_file_len(&self) -> u64 {
        self.node_header_len() + NODE_ENTRY_LEN * self.num_nodes as u64
    }

    /// Expected edge table file length.
    pub fn edge_file_len(&self) -> u64 {
        EDGE_HEADER_LEN + self.edge_bytes
    }
}

/// Encode the node-table header (32 bytes for v1, 40 for v3).
pub fn encode_node_header(meta: &GraphMeta) -> Vec<u8> {
    let mut h = vec![0u8; meta.node_header_len() as usize];
    h[0..8].copy_from_slice(NODE_MAGIC);
    codec::put_u32(&mut h, 8, meta.version.as_u32());
    // h[12..16] reserved, zero.
    codec::put_u64(&mut h, 16, meta.num_nodes as u64);
    codec::put_u64(&mut h, 24, meta.degree_sum);
    if meta.version != FormatVersion::V1 {
        codec::put_u64(&mut h, 32, meta.edge_bytes);
    }
    h
}

/// Decode and validate the node-table header. Pass at least
/// [`MAX_NODE_HEADER_LEN`] bytes when the file is long enough — the version
/// field decides how much is actually consumed.
pub fn decode_node_header(h: &[u8]) -> Result<GraphMeta> {
    if h.len() < NODE_HEADER_LEN_V1 as usize {
        return Err(Error::corrupt("node table shorter than header"));
    }
    if &h[0..8] != NODE_MAGIC {
        return Err(Error::corrupt("bad node table magic"));
    }
    let version = FormatVersion::from_u32(codec::try_get_u32(h, 8, "format version")?)?;
    let n = codec::try_get_u64(h, 16, "node count")?;
    if n > u32::MAX as u64 {
        return Err(Error::corrupt(format!("node count {n} exceeds u32 range")));
    }
    let degree_sum = codec::try_get_u64(h, 24, "degree sum")?;
    // Reject degree sums whose edge-table byte extent cannot fit in u64
    // (up to MAX_GROUP_BYTES_PER_ID bytes per id plus the table header):
    // these are raw disk bytes, and letting them through would overflow the
    // length arithmetic below and in the size accessors.
    if degree_sum > (u64::MAX - EDGE_HEADER_LEN) / codec::MAX_GROUP_BYTES_PER_ID as u64 {
        return Err(Error::corrupt(format!(
            "degree sum {degree_sum} exceeds the representable edge-table extent"
        )));
    }
    match version {
        FormatVersion::V1 => Ok(GraphMeta::v1(n as u32, degree_sum)),
        FormatVersion::V3 => {
            let edge_bytes = codec::try_get_u64(h, 32, "edge table payload length")?;
            // Every id costs at least a quarter control byte (per-list
            // ceil sums are only larger) and at most 1 control share + 4
            // data bytes; a payload outside that envelope cannot be a
            // well-formed v3 edge table.
            if edge_bytes < degree_sum.div_ceil(4)
                || edge_bytes > codec::MAX_GROUP_BYTES_PER_ID as u64 * degree_sum
            {
                return Err(Error::corrupt(format!(
                    "v3 edge payload of {edge_bytes} B impossible for degree sum {degree_sum}"
                )));
            }
            Ok(GraphMeta::v3(n as u32, degree_sum, edge_bytes))
        }
    }
}

/// Encode one node-table entry.
#[inline]
pub fn encode_node_entry(offset: u64, degree: u32) -> [u8; NODE_ENTRY_LEN as usize] {
    let mut e = [0u8; NODE_ENTRY_LEN as usize];
    codec::put_u64(&mut e, 0, offset);
    codec::put_u32(&mut e, 8, degree);
    e
}

/// Decode one node-table entry into `(offset, degree)`.
#[inline]
pub fn decode_node_entry(e: &[u8]) -> (u64, u32) {
    (codec::get_u64(e, 0), codec::get_u32(e, 8))
}

/// Paths of the two files comprising a stored graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphPaths {
    /// Node table path (`<base>.nodes`).
    pub nodes: PathBuf,
    /// Edge table path (`<base>.edges`).
    pub edges: PathBuf,
}

impl GraphPaths {
    /// Derive the file pair from a base path (extension is appended).
    pub fn from_base(base: &Path) -> Self {
        let mut nodes = base.as_os_str().to_owned();
        nodes.push(".nodes");
        let mut edges = base.as_os_str().to_owned();
        edges.push(".edges");
        GraphPaths {
            nodes: PathBuf::from(nodes),
            edges: PathBuf::from(edges),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip_v1() {
        let meta = GraphMeta::v1(12345, 99_999);
        let h = encode_node_header(&meta);
        assert_eq!(h.len() as u64, NODE_HEADER_LEN_V1);
        assert_eq!(decode_node_header(&h).unwrap(), meta);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut h = encode_node_header(&GraphMeta::v1(1, 0));
        h[0] = b'X';
        assert!(decode_node_header(&h).unwrap_err().is_corrupt());
    }

    #[test]
    fn bad_version_rejected() {
        let mut h = encode_node_header(&GraphMeta::v1(1, 0));
        codec::put_u32(&mut h, 8, 77);
        let err = decode_node_header(&h).unwrap_err();
        assert!(err.to_string().contains("version 77"));
        // The retired compressed format: a well-formed v2 header is refused
        // by name, with the way out, not decoded as anything.
        let mut h = encode_node_header(&GraphMeta::v3(3, 6, 9));
        codec::put_u32(&mut h, 8, 2);
        let err = decode_node_header(&h).unwrap_err();
        assert!(err.is_corrupt(), "{err}");
        assert!(err.to_string().contains("format v2"), "{err}");
        assert!(err.to_string().contains("kcore recompress"), "{err}");
    }

    #[test]
    fn short_header_rejected() {
        assert!(decode_node_header(&[0u8; 5]).unwrap_err().is_corrupt());
        // A v3 header truncated to v1 length must not decode.
        let h = encode_node_header(&GraphMeta::v3(3, 6, 9));
        assert!(decode_node_header(&h[..NODE_HEADER_LEN_V1 as usize])
            .unwrap_err()
            .is_corrupt());
    }

    #[test]
    fn absurd_degree_sum_is_corrupt_not_a_panic() {
        // A crafted header whose degree sum implies an edge-table extent
        // past u64 must decode to a corruption error; unchecked length
        // arithmetic would overflow (a panic in debug builds).
        for version in [1u32, 2, 3] {
            let mut h = encode_node_header(&GraphMeta::v3(3, 6, 9));
            codec::put_u32(&mut h, 8, version);
            codec::put_u64(&mut h, 24, u64::MAX / 2);
            assert!(decode_node_header(&h).unwrap_err().is_corrupt());
        }
    }

    #[test]
    fn header_round_trip_v3() {
        let meta = GraphMeta::v3(12345, 99_999, 80_000);
        let h = encode_node_header(&meta);
        assert_eq!(h.len() as u64, NODE_HEADER_LEN_V3);
        assert_eq!(decode_node_header(&h).unwrap(), meta);
    }

    #[test]
    fn v3_payload_envelope_enforced() {
        // Fewer than a quarter byte per id is impossible (30 ids need at
        // least 8 control bytes even when every data length is zero).
        let h = encode_node_header(&GraphMeta::v3(10, 30, 7));
        assert!(decode_node_header(&h).unwrap_err().is_corrupt());
        assert!(decode_node_header(&encode_node_header(&GraphMeta::v3(10, 30, 8))).is_ok());
        // More than five bytes per id is impossible.
        let h = encode_node_header(&GraphMeta::v3(10, 30, 151));
        assert!(decode_node_header(&h).unwrap_err().is_corrupt());
    }

    #[test]
    fn entry_round_trip() {
        let e = encode_node_entry(1 << 40, 777);
        assert_eq!(decode_node_entry(&e), (1 << 40, 777));
    }

    #[test]
    fn meta_derived_sizes() {
        let meta = GraphMeta::v1(10, 30);
        assert_eq!(meta.num_edges(), 15);
        assert_eq!(meta.node_file_len(), 32 + 120);
        assert_eq!(meta.edge_file_len(), 8 + 120);
        assert_eq!(meta.node_entry_offset(0), 32);
        assert_eq!(meta.node_entry_offset(3), 32 + 36);

        let meta = GraphMeta::v3(10, 30, 45);
        assert_eq!(meta.node_file_len(), 40 + 120);
        assert_eq!(meta.edge_file_len(), 8 + 45);
        assert_eq!(meta.node_entry_offset(0), 40);
    }

    #[test]
    fn version_tags_and_magic() {
        assert_eq!(FormatVersion::V1.tag(), "v1");
        assert_eq!(FormatVersion::V3.tag(), "v3");
        assert_eq!(FormatVersion::from_u32(3).unwrap(), FormatVersion::V3);
        assert!(FormatVersion::from_u32(0).is_err());
        assert!(FormatVersion::from_u32(4).is_err());
        assert_ne!(
            FormatVersion::V1.edge_magic(),
            FormatVersion::V3.edge_magic()
        );
    }

    #[test]
    fn paths_from_base() {
        let p = GraphPaths::from_base(Path::new("/tmp/foo/g"));
        assert_eq!(p.nodes, Path::new("/tmp/foo/g.nodes"));
        assert_eq!(p.edges, Path::new("/tmp/foo/g.edges"));
    }
}

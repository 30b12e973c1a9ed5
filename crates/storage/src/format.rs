//! On-disk graph layout.
//!
//! Following §II "Graph Storage" of the paper, a graph is stored as two files:
//!
//! * **node table** (`<base>.nodes`): a fixed-size header followed by each
//!   node's byte offset of its adjacency list in the edge table and its
//!   degree, as a *packed node index* (below).
//! * **edge table** (`<base>.edges`): a short header followed by the adjacency
//!   lists `nbr(v1), nbr(v2), …, nbr(vn)` stored consecutively.
//!
//! Loading `nbr(v)` therefore takes one node-table access (offset + degree)
//! plus a contiguous edge-table read, exactly the access pattern the paper's
//! algorithms assume. Each neighbour list is stored sorted ascending, which
//! the update buffer relies on for merging.
//!
//! ## The packed node index
//!
//! Every writer writes the node table as a packed index (magic
//! [`NODE_INDEX_MAGIC`], [`NodeLayout::Packed`]). Nodes go in groups of
//! [`NODE_GROUP`] = 64. A group is a `u64` *anchor* — the edge-table offset
//! of its first node — followed by two bit-packed arrays of 64 values
//! each: the degrees at `dw` bits, then each node's offset from the anchor
//! at `ow` bits (values little-endian, low bits first). The two widths are
//! fixed for the whole file and recorded in its header: `dw` is the bit
//! length of the largest degree, `ow` of the largest `last offset − anchor`
//! over all groups (each at least 1). A group is therefore
//! `8 + 8·(dw + ow)` bytes; the last group is padded with zeros. On
//! web-graph stand-ins that is 3–4 bytes per node where a plain entry takes
//! 12, and since the semi-external algorithms rescan the node table every
//! iteration, its size is charged I/O. A lookup still touches exactly one
//! node-table record — the group — so there is no directory and no
//! in-memory index.
//!
//! The 40-byte header of a packed index is `magic | version: u32 | dw: u8 |
//! ow: u8 | 0: u16 | n: u64 | degree sum: u64 | edge payload length: u64`.
//!
//! Node tables written before the packed index (magic [`NODE_MAGIC`],
//! [`NodeLayout::Entries`]) hold one 12-byte `(offset: u64, degree: u32)`
//! entry per node after a 32-byte (v1) or 40-byte (v3) header. They are
//! still read, and rewritten as a packed index at their graph's next flush
//! or compaction.
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
//!   neighbour. The edge-table length is `8 + 4 · degree_sum` (a legacy
//!   entry table's 32-byte v1 header leaves it out). Supports the
//!   zero-copy borrowed-slice visit.
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
//!   header records the (now data-dependent) edge-table payload length;
//!   the node entries are the same (byte offset + degree) either way.
//!
//! Header version 2 (`KCOREDG2`, LEB128 gap varints) was the compressed
//! format before v3 and has had no writer since PR 13; its reader is gone.
//! [`decode_node_header`] refuses such a table with a `Corrupt` error that
//! names the version and the way out (`kcore recompress` from a build at
//! or before PR 23 rewrites it as v3).

use std::path::{Path, PathBuf};

use crate::codec;
use crate::error::{Error, Result};

/// Magic bytes opening a legacy node table of 12-byte entries (both
/// format versions).
pub const NODE_MAGIC: &[u8; 8] = b"KCORNOD1";
/// Magic bytes opening a packed node index (both format versions) — what
/// every writer writes.
pub const NODE_INDEX_MAGIC: &[u8; 8] = b"KCORNIX1";
/// Magic bytes opening a v1 (raw `u32`) edge table file.
pub const EDGE_MAGIC: &[u8; 8] = b"KCOREDG1";
/// Magic bytes opening a v3 (stream-vbyte group) edge table file.
pub const EDGE_MAGIC_V3: &[u8; 8] = b"KCOREDG3";

/// Size of the legacy v1 node-table header in bytes.
pub const NODE_HEADER_LEN_V1: u64 = 32;
/// Size of the legacy v3 node-table header in bytes (v1 plus the
/// edge-table payload length, which compression makes data-dependent), and
/// of every packed node-index header.
pub const NODE_HEADER_LEN_V3: u64 = 40;
/// The largest node-table header across versions — what an opener reads
/// before it knows the version.
pub const MAX_NODE_HEADER_LEN: u64 = NODE_HEADER_LEN_V3;
/// Size of one legacy node-table entry in bytes (`offset: u64, degree: u32`).
pub const NODE_ENTRY_LEN: u64 = 12;
/// Nodes per group of a packed node index.
pub const NODE_GROUP: u32 = 64;
/// Size of the edge-table header in bytes (both versions).
pub const EDGE_HEADER_LEN: u64 = 8;

/// How a node table lays out its `(offset, degree)` pairs. See the
/// [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeLayout {
    /// Legacy: one 12-byte entry per node ([`NODE_MAGIC`]).
    Entries,
    /// A packed node index ([`NODE_INDEX_MAGIC`]): groups of
    /// [`NODE_GROUP`] nodes, degrees at `degree_bits` bits and offsets from
    /// the group's anchor at `offset_bits` bits.
    Packed {
        /// Bits per degree, `1..=32`.
        degree_bits: u8,
        /// Bits per offset from the group's anchor, `1..=64`.
        offset_bits: u8,
    },
}

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
    /// Node-table layout.
    pub layout: NodeLayout,
}

impl GraphMeta {
    /// Metadata of a v1 (raw `u32`) graph with a legacy entry table
    /// ([`GraphMeta::packed`] switches the layout).
    pub fn v1(num_nodes: u32, degree_sum: u64) -> GraphMeta {
        GraphMeta {
            num_nodes,
            degree_sum,
            version: FormatVersion::V1,
            edge_bytes: 4 * degree_sum,
            layout: NodeLayout::Entries,
        }
    }

    /// Metadata of a v3 (stream-vbyte group) graph whose encoded adjacency
    /// lists total `edge_bytes` bytes, with a legacy entry table
    /// ([`GraphMeta::packed`] switches the layout).
    pub fn v3(num_nodes: u32, degree_sum: u64, edge_bytes: u64) -> GraphMeta {
        GraphMeta {
            num_nodes,
            degree_sum,
            version: FormatVersion::V3,
            edge_bytes,
            layout: NodeLayout::Entries,
        }
    }

    /// The same graph stored with a packed node index at the given widths.
    pub fn packed(self, degree_bits: u8, offset_bits: u8) -> GraphMeta {
        GraphMeta {
            layout: NodeLayout::Packed {
                degree_bits,
                offset_bits,
            },
            ..self
        }
    }

    /// True when a rewrite would write these tables' own layout back: v3
    /// edges under a packed node index. A compaction with nothing to fold
    /// over such tables has nothing to do but checkpoint.
    pub fn is_current(&self) -> bool {
        self.version == FormatVersion::V3 && matches!(self.layout, NodeLayout::Packed { .. })
    }

    /// Number of undirected edges `m`.
    pub fn num_edges(&self) -> u64 {
        self.degree_sum / 2
    }

    /// Size of this graph's node-table header.
    pub fn node_header_len(&self) -> u64 {
        match (self.layout, self.version) {
            (NodeLayout::Entries, FormatVersion::V1) => NODE_HEADER_LEN_V1,
            _ => NODE_HEADER_LEN_V3,
        }
    }

    /// Nodes per node-table record: the unit one lookup reads — an entry
    /// (1) or a packed group ([`NODE_GROUP`]).
    pub fn nodes_per_record(&self) -> u32 {
        match self.layout {
            NodeLayout::Entries => 1,
            NodeLayout::Packed { .. } => NODE_GROUP,
        }
    }

    /// Size of one node-table record in bytes: [`NODE_ENTRY_LEN`], or a
    /// packed group's `8 + 8·(dw + ow)`.
    pub fn node_record_len(&self) -> u64 {
        match self.layout {
            NodeLayout::Entries => NODE_ENTRY_LEN,
            NodeLayout::Packed {
                degree_bits,
                offset_bits,
            } => 8 + 8 * (degree_bits as u64 + offset_bits as u64),
        }
    }

    /// Number of records in the node table.
    pub fn node_records(&self) -> u64 {
        (self.num_nodes as u64).div_ceil(self.nodes_per_record() as u64)
    }

    /// The byte range `[start, end)` of node-table record `r` — for a
    /// lookup of `v`, record `v / nodes_per_record()`.
    pub fn node_record_span(&self, r: u64) -> (u64, u64) {
        let start = self.node_header_len() + r * self.node_record_len();
        (start, start + self.node_record_len())
    }

    /// Expected node table file length.
    pub fn node_file_len(&self) -> u64 {
        self.node_header_len() + self.node_records() * self.node_record_len()
    }

    /// Expected edge table file length.
    pub fn edge_file_len(&self) -> u64 {
        EDGE_HEADER_LEN + self.edge_bytes
    }
}

/// Encode the node-table header: 40 bytes for a packed index; 32 for a
/// legacy v1 entry table, 40 for a legacy v3 one.
pub fn encode_node_header(meta: &GraphMeta) -> Vec<u8> {
    let mut h = vec![0u8; meta.node_header_len() as usize];
    codec::put_u32(&mut h, 8, meta.version.as_u32());
    match meta.layout {
        NodeLayout::Entries => h[0..8].copy_from_slice(NODE_MAGIC),
        NodeLayout::Packed {
            degree_bits,
            offset_bits,
        } => {
            h[0..8].copy_from_slice(NODE_INDEX_MAGIC);
            h[12] = degree_bits;
            h[13] = offset_bits;
        }
    }
    // h[14..16] reserved, zero (h[12..16] in a legacy header).
    codec::put_u64(&mut h, 16, meta.num_nodes as u64);
    codec::put_u64(&mut h, 24, meta.degree_sum);
    if meta.node_header_len() > NODE_HEADER_LEN_V1 {
        codec::put_u64(&mut h, 32, meta.edge_bytes);
    }
    h
}

/// Decode and validate the node-table header. Pass at least
/// [`MAX_NODE_HEADER_LEN`] bytes when the file is long enough — the magic
/// and the version field decide how much is actually consumed.
pub fn decode_node_header(h: &[u8]) -> Result<GraphMeta> {
    if h.len() < NODE_HEADER_LEN_V1 as usize {
        return Err(Error::corrupt("node table shorter than header"));
    }
    let packed = match &h[0..8] {
        m if m == NODE_INDEX_MAGIC => true,
        m if m == NODE_MAGIC => false,
        _ => return Err(Error::corrupt("bad node table magic")),
    };
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
    let meta = match version {
        FormatVersion::V1 if !packed => GraphMeta::v1(n as u32, degree_sum),
        FormatVersion::V1 => {
            let meta = GraphMeta::v1(n as u32, degree_sum);
            let edge_bytes = codec::try_get_u64(h, 32, "edge table payload length")?;
            if edge_bytes != meta.edge_bytes {
                return Err(Error::corrupt(format!(
                    "v1 edge payload of {edge_bytes} B impossible for degree sum {degree_sum}"
                )));
            }
            meta
        }
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
            GraphMeta::v3(n as u32, degree_sum, edge_bytes)
        }
    };
    if !packed {
        return Ok(meta);
    }
    let (degree_bits, offset_bits) = (h[12], h[13]);
    if !(1..=32).contains(&degree_bits) || !(1..=64).contains(&offset_bits) {
        return Err(Error::corrupt(format!(
            "node index widths {degree_bits}/{offset_bits} bits (degree 1..=32, offset 1..=64)"
        )));
    }
    Ok(meta.packed(degree_bits, offset_bits))
}

/// Encode one legacy node-table entry.
#[inline]
pub fn encode_node_entry(offset: u64, degree: u32) -> [u8; NODE_ENTRY_LEN as usize] {
    let mut e = [0u8; NODE_ENTRY_LEN as usize];
    codec::put_u64(&mut e, 0, offset);
    codec::put_u32(&mut e, 8, degree);
    e
}

/// Decode one legacy node-table entry into `(offset, degree)`.
#[inline]
pub fn decode_node_entry(e: &[u8]) -> (u64, u32) {
    (codec::get_u64(e, 0), codec::get_u32(e, 8))
}

/// Bits needed to write `x` (at least 1): a packed node index's width rule.
pub fn width_of(x: u64) -> u8 {
    (u64::BITS - x.leading_zeros()).max(1) as u8
}

/// The packed widths `(dw, ow)` of a node table holding `offsets` and
/// `degrees` (node `v` at index `v`; offsets non-decreasing).
pub fn node_index_widths(offsets: &[u64], degrees: &[u32]) -> (u8, u8) {
    let max_degree = degrees.iter().copied().max().unwrap_or(0);
    let max_span = offsets
        .chunks(NODE_GROUP as usize)
        .map(|g| g[g.len() - 1] - g[0])
        .max()
        .unwrap_or(0);
    (width_of(max_degree.into()), width_of(max_span))
}

/// Append one packed group — up to [`NODE_GROUP`] consecutive nodes'
/// `offsets` (non-decreasing) and `degrees` — at widths `dw`/`ow` to
/// `out`, padded with zeros to the full `8 + 8·(dw + ow)` bytes.
pub fn encode_node_group(offsets: &[u64], degrees: &[u32], dw: u8, ow: u8, out: &mut Vec<u8>) {
    debug_assert!(offsets.len() == degrees.len() && offsets.len() <= NODE_GROUP as usize);
    let anchor = offsets.first().copied().unwrap_or(0);
    out.extend_from_slice(&anchor.to_le_bytes());
    pack_group(degrees.iter().map(|&d| u64::from(d)), dw, out);
    pack_group(offsets.iter().map(|&o| o - anchor), ow, out);
}

/// Append [`NODE_GROUP`] values (missing ones zero) at `width` bits each,
/// low bits first: exactly `8 · width` bytes.
fn pack_group(values: impl Iterator<Item = u64>, width: u8, out: &mut Vec<u8>) {
    let mut values = values.chain(std::iter::repeat(0));
    let (mut acc, mut held) = (0u128, 0u32);
    for _ in 0..NODE_GROUP {
        acc |= u128::from(values.next().unwrap_or(0)) << held;
        held += u32::from(width);
        while held >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            held -= 8;
        }
    }
}

/// The `width`-bit value at bit `bit` of `group`, low bits first: one
/// 16-byte load where the group has the bytes (a reader pads its copy so
/// that it always does), a zero-filled copy near its end otherwise.
#[inline]
fn unpack(group: &[u8], bit: usize, width: u8) -> u64 {
    let start = bit / 8;
    let word = match group[start..].first_chunk::<16>() {
        Some(word) => u128::from_le_bytes(*word),
        None => {
            let mut word = [0u8; 16];
            word[..group.len() - start].copy_from_slice(&group[start..]);
            u128::from_le_bytes(word)
        }
    };
    ((word >> (bit % 8)) & ((1u128 << width) - 1)) as u64
}

/// Node `i`'s `(offset, degree)` within the packed group `group` (the
/// record's `8 + 8·(dw + ow)` bytes, possibly followed by padding). An
/// offset past `u64` is `Corrupt`; range checks against the edge table
/// are the caller's.
#[inline]
pub fn decode_node_group_entry(group: &[u8], i: usize, dw: u8, ow: u8) -> Result<(u64, u32)> {
    let anchor = codec::get_u64(group, 0);
    let degree = unpack(group, 64 + i * dw as usize, dw) as u32;
    let offsets = 64 + 64 * dw as usize;
    anchor
        .checked_add(unpack(group, offsets + i * ow as usize, ow))
        .map(|offset| (offset, degree))
        .ok_or_else(|| Error::corrupt(format!("node index group anchor {anchor} overflows")))
}

/// The degrees of the first `take` nodes of packed group `group`,
/// appended to `out`.
pub fn decode_node_group_degrees(group: &[u8], take: usize, dw: u8, out: &mut Vec<u32>) {
    out.extend((0..take).map(|i| unpack(group, 64 + i * dw as usize, dw) as u32));
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
        assert_eq!(meta.node_record_span(0), (32, 44));
        assert_eq!(meta.node_record_span(3), (32 + 36, 32 + 48));

        let meta = GraphMeta::v3(10, 30, 45);
        assert_eq!(meta.node_file_len(), 40 + 120);
        assert_eq!(meta.edge_file_len(), 8 + 45);
        assert_eq!(meta.node_record_span(0), (40, 52));
        assert!(!meta.is_current());

        // Packed: 130 nodes are three groups of 8 + 8·(5 + 11) = 136 bytes,
        // after a 40-byte header whatever the version.
        for meta in [GraphMeta::v1(130, 30), GraphMeta::v3(130, 30, 45)] {
            let meta = meta.packed(5, 11);
            assert_eq!(meta.node_header_len(), 40);
            assert_eq!(meta.nodes_per_record(), 64);
            assert_eq!(meta.node_record_len(), 136);
            assert_eq!(meta.node_records(), 3);
            assert_eq!(meta.node_record_span(2), (40 + 272, 40 + 408));
            assert_eq!(meta.node_file_len(), 40 + 408);
            assert_eq!(meta.is_current(), meta.version == FormatVersion::V3);
        }
    }

    #[test]
    fn packed_header_round_trips_and_refuses_bad_widths() {
        for meta in [
            GraphMeta::v1(12345, 99_998).packed(7, 13),
            GraphMeta::v3(12345, 99_999, 80_000).packed(32, 64),
            GraphMeta::v3(0, 0, 0).packed(1, 1),
        ] {
            let h = encode_node_header(&meta);
            assert_eq!(&h[0..8], NODE_INDEX_MAGIC);
            assert_eq!(h.len() as u64, NODE_HEADER_LEN_V3);
            assert_eq!(decode_node_header(&h).unwrap(), meta);
            // Truncated to a legacy v1 header's length: refused.
            assert!(decode_node_header(&h[..32]).unwrap_err().is_corrupt());
        }
        let good = encode_node_header(&GraphMeta::v3(100, 30, 45).packed(5, 11));
        for (at, width) in [(12, 0u8), (12, 33), (13, 0), (13, 65), (12, 255)] {
            let mut h = good.clone();
            h[at] = width;
            let err = decode_node_header(&h).unwrap_err();
            assert!(
                err.is_corrupt() && err.to_string().contains("widths"),
                "{err}"
            );
        }
        // A packed v1 header must record exactly 4 B per neighbour.
        let mut h = encode_node_header(&GraphMeta::v1(10, 30).packed(2, 7));
        codec::put_u64(&mut h, 32, 121);
        assert!(decode_node_header(&h).unwrap_err().is_corrupt());
        // The retired format is refused by name under the new magic too.
        codec::put_u32(&mut h, 8, 2);
        assert!(decode_node_header(&h)
            .unwrap_err()
            .to_string()
            .contains("format v2"));
    }

    /// Pack `offsets`/`degrees` group by group at their own widths and
    /// read every node back, as a reader would.
    fn pack_round_trip(offsets: &[u64], degrees: &[u32]) -> (u8, u8) {
        let (dw, ow) = node_index_widths(offsets, degrees);
        let len = 8 + 8 * (dw as usize + ow as usize);
        let mut table = Vec::new();
        for (o, d) in offsets.chunks(64).zip(degrees.chunks(64)) {
            encode_node_group(o, d, dw, ow, &mut table);
        }
        assert_eq!(table.len(), offsets.len().div_ceil(64) * len);
        let mut all_degrees = Vec::new();
        for (g, group) in table.chunks_exact(len).enumerate() {
            let nodes = 64.min(offsets.len() - 64 * g);
            decode_node_group_degrees(group, nodes, dw, &mut all_degrees);
            for i in 0..nodes {
                let v = 64 * g + i;
                let got = decode_node_group_entry(group, i, dw, ow).unwrap();
                assert_eq!(got, (offsets[v], degrees[v]), "node {v} at {dw}/{ow} bits");
            }
        }
        assert_eq!(all_degrees, degrees);
        (dw, ow)
    }

    #[test]
    fn node_groups_round_trip_at_every_shape() {
        // Node counts around the group boundary, contiguous runs of 3 B
        // per neighbour.
        for n in [0usize, 1, 63, 64, 65, 129] {
            let degrees: Vec<u32> = (0..n as u32).map(|v| v % 5).collect();
            let mut offsets = Vec::with_capacity(n);
            let mut at = EDGE_HEADER_LEN;
            for &d in &degrees {
                offsets.push(at);
                at += 3 * d as u64;
            }
            let (dw, _) = pack_round_trip(&offsets, &degrees);
            assert_eq!(
                dw,
                if n < 5 {
                    width_of(n.saturating_sub(1) as u64)
                } else {
                    3
                }
            );
        }
        // All-zero degrees: every offset the same, both widths 1.
        assert_eq!(pack_round_trip(&[8; 100], &[0; 100]), (1, 1));
        // One hub: a wide degree and a wide span in its group only.
        let mut degrees = vec![1u32; 200];
        degrees[70] = 1 << 20;
        let mut offsets = Vec::new();
        let mut at = EDGE_HEADER_LEN;
        for &d in &degrees {
            offsets.push(at);
            at += 2 * d as u64;
        }
        assert_eq!(pack_round_trip(&offsets, &degrees), (21, 22));
        // The widest widths: degree u32::MAX and offsets spanning u64.
        let degrees = [u32::MAX, 0, 7, u32::MAX - 1];
        let offsets = [0, 1 << 40, u64::MAX - 5, u64::MAX];
        assert_eq!(pack_round_trip(&offsets, &degrees), (32, 64));
        let degrees: Vec<u32> = (0..70).map(|i| u32::MAX - i).collect();
        let offsets: Vec<u64> = (0..70).map(|i| i * (u64::MAX / 70)).collect();
        assert_eq!(pack_round_trip(&offsets, &degrees), (32, 64));
    }

    #[test]
    fn an_anchor_past_u64_is_corrupt() {
        let mut group = Vec::new();
        encode_node_group(&[10, 20], &[1, 1], 1, 5, &mut group);
        codec::put_u64(&mut group, 0, u64::MAX - 3);
        assert!(decode_node_group_entry(&group, 0, 1, 5).is_ok());
        assert!(decode_node_group_entry(&group, 1, 1, 5)
            .unwrap_err()
            .is_corrupt());
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

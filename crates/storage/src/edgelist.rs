//! Text edge-list ingestion (SNAP / KONECT style files).
//!
//! The paper's datasets are distributed as whitespace-separated `u v` lines
//! with optional `#`/`%` comment lines. [`read_edge_list`] streams such a
//! file into any sink with bounded memory, so arbitrarily large lists can be
//! fed straight into the [`ExternalGraphBuilder`](crate::ExternalGraphBuilder).

use std::io::BufRead;
use std::path::Path;

use crate::error::{Error, Result};

/// Parse a whitespace-separated edge-list file, invoking `sink(u, v)` per
/// edge. Lines starting with `#`, `%` or `//` and blank lines are skipped.
/// Returns the number of edges delivered.
pub fn read_edge_list(path: &Path, mut sink: impl FnMut(u32, u32) -> Result<()>) -> Result<u64> {
    let file = std::fs::File::open(path)?;
    let mut reader = std::io::BufReader::with_capacity(1 << 20, file);
    let mut line = String::new();
    let mut lineno = 0u64;
    let mut count = 0u64;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') || t.starts_with("//") {
            continue;
        }
        let mut it = t.split_whitespace();
        let (a, b) = match (it.next(), it.next()) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(Error::corrupt(format!(
                    "line {lineno}: expected `u v`, got {t:?}"
                )))
            }
        };
        let u: u32 = a
            .parse()
            .map_err(|_| Error::corrupt(format!("line {lineno}: invalid node id {a:?}")))?;
        let v: u32 = b
            .parse()
            .map_err(|_| Error::corrupt(format!("line {lineno}: invalid node id {b:?}")))?;
        sink(u, v)?;
        count += 1;
    }
    Ok(count)
}

/// Convenience: ingest a text edge list into an on-disk graph at `base`
/// with bounded memory (format v1), returning the opened
/// [`DiskGraph`](crate::DiskGraph).
pub fn edge_list_to_disk(
    input: &Path,
    base: &Path,
    counter: std::sync::Arc<crate::io::IoCounter>,
) -> Result<crate::DiskGraph> {
    edge_list_to_disk_with(input, base, counter, crate::FormatVersion::V1)
}

/// [`edge_list_to_disk`] with an explicit edge-table encoding — what
/// `kcore build --compress` runs to produce a v3 graph.
pub fn edge_list_to_disk_with(
    input: &Path,
    base: &Path,
    counter: std::sync::Arc<crate::io::IoCounter>,
    version: crate::FormatVersion,
) -> Result<crate::DiskGraph> {
    let mut builder = crate::ExternalGraphBuilder::new_with_format(4 << 20, version)?;
    read_edge_list(input, |u, v| builder.add_edge(u, v))?;
    builder.finish(base, 0, counter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{IoCounter, DEFAULT_BLOCK_SIZE};
    use crate::tempdir::TempDir;

    fn write_file(dir: &TempDir, name: &str, contents: &str) -> std::path::PathBuf {
        let p = dir.path().join(name);
        std::fs::write(&p, contents).unwrap();
        p
    }

    #[test]
    fn parses_edges_skipping_comments() {
        let dir = TempDir::new("edgelist").unwrap();
        let p = write_file(
            &dir,
            "g.txt",
            "# a SNAP-style header\n% konect style\n0 1\n\n1 2\t\n// trailing comment\n2 0\n",
        );
        let mut edges = Vec::new();
        let n = read_edge_list(&p, |u, v| {
            edges.push((u, v));
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 3);
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn reports_malformed_lines_with_numbers() {
        let dir = TempDir::new("edgelist").unwrap();
        let p = write_file(&dir, "bad.txt", "0 1\nnot numbers\n");
        let err = read_edge_list(&p, |_, _| Ok(())).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");

        let p = write_file(&dir, "half.txt", "0\n");
        let err = read_edge_list(&p, |_, _| Ok(())).unwrap_err();
        assert!(err.is_corrupt());
    }

    #[test]
    fn ingests_to_disk_graph() {
        let dir = TempDir::new("edgelist").unwrap();
        let p = write_file(&dir, "g.txt", "0 1\n1 2\n0 2\n2 3\n3 3\n0 1\n");
        let disk = edge_list_to_disk(
            &p,
            &dir.path().join("g"),
            IoCounter::new(DEFAULT_BLOCK_SIZE),
        )
        .unwrap();
        // Self-loop and duplicate dropped.
        assert_eq!(disk.num_nodes(), 4);
        assert_eq!(disk.num_edges(), 4);
    }

    #[test]
    fn missing_file_is_io_error() {
        let dir = TempDir::new("edgelist").unwrap();
        let err = read_edge_list(&dir.path().join("absent.txt"), |_, _| Ok(())).unwrap_err();
        assert!(matches!(err, Error::Io(_)));
    }
}

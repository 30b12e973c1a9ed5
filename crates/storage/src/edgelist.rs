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
/// edge. Lines starting with `#`, `%` or `//` and blank lines are skipped;
/// columns after the second (weights, timestamps) are ignored. Returns the
/// number of edges delivered.
///
/// The file is parsed as bytes, straight out of the read buffer: a node id
/// is what `u32::from_str` accepts (an optional `+`, decimal digits, no
/// overflow) and whitespace is ASCII whitespace.
pub fn read_edge_list(path: &Path, sink: impl FnMut(u32, u32) -> Result<()>) -> Result<u64> {
    let file = std::fs::File::open(path)?;
    parse_edges(std::io::BufReader::with_capacity(1 << 20, file), sink)
}

/// [`read_edge_list`] over any buffered reader. A line is parsed where it
/// lies in the reader's buffer; only one that straddles two fills is copied.
fn parse_edges(
    mut reader: impl BufRead,
    mut sink: impl FnMut(u32, u32) -> Result<()>,
) -> Result<u64> {
    let mut straddler: Vec<u8> = Vec::new();
    let mut lineno = 0u64;
    let mut count = 0u64;
    let mut deliver = |line: &[u8], lineno: u64| -> Result<()> {
        if let Some((u, v)) = parse_line(line, lineno)? {
            sink(u, v)?;
            count += 1;
        }
        Ok(())
    };
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            break;
        }
        let mut rest = buf;
        while let Some(end) = rest.iter().position(|&b| b == b'\n') {
            lineno += 1;
            if straddler.is_empty() {
                deliver(&rest[..end], lineno)?;
            } else {
                straddler.extend_from_slice(&rest[..end]);
                deliver(&straddler, lineno)?;
                straddler.clear();
            }
            rest = &rest[end + 1..];
        }
        straddler.extend_from_slice(rest);
        let used = buf.len();
        reader.consume(used);
    }
    if !straddler.is_empty() {
        // A last line without its newline.
        deliver(&straddler, lineno + 1)?;
    }
    Ok(count)
}

/// What `str::trim` and `split_whitespace` treat as space, within ASCII.
fn is_space(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// Split off the first whitespace-delimited token of `s` (empty when `s`
/// holds none) and return it with what follows it.
fn next_token(s: &[u8]) -> (&[u8], &[u8]) {
    let start = s.iter().position(|&b| !is_space(b)).unwrap_or(s.len());
    let s = &s[start..];
    s.split_at(s.iter().position(|&b| is_space(b)).unwrap_or(s.len()))
}

/// `u32::from_str` over bytes: an optional `+`, at least one decimal digit,
/// nothing else, no overflow.
fn parse_u32(token: &[u8]) -> Option<u32> {
    let digits = token.strip_prefix(b"+").unwrap_or(token);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u32, |acc, &b| {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        acc.checked_mul(10)?.checked_add(d as u32)
    })
}

/// One line of an edge list: `None` for a blank or comment line.
fn parse_line(line: &[u8], lineno: u64) -> Result<Option<(u32, u32)>> {
    let (a, rest) = next_token(line);
    if a.is_empty() || a[0] == b'#' || a[0] == b'%' || a.starts_with(b"//") {
        return Ok(None);
    }
    let (b, _) = next_token(rest);
    if b.is_empty() {
        return Err(Error::corrupt(format!(
            "line {lineno}: expected `u v`, got {:?}",
            String::from_utf8_lossy(a)
        )));
    }
    let id = |token: &[u8]| {
        parse_u32(token).ok_or_else(|| {
            Error::corrupt(format!(
                "line {lineno}: invalid node id {:?}",
                String::from_utf8_lossy(token)
            ))
        })
    };
    Ok(Some((id(a)?, id(b)?)))
}

/// Convenience: ingest a text edge list into an on-disk graph at `base`
/// with bounded memory (format v3, as every ingest writes), returning the
/// opened [`DiskGraph`](crate::DiskGraph). What `kcore build` runs.
pub fn edge_list_to_disk(
    input: &Path,
    base: &Path,
    counter: std::sync::Arc<crate::io::IoCounter>,
) -> Result<crate::DiskGraph> {
    let mut builder = crate::ExternalGraphBuilder::new(4 << 20)?;
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

    /// The parser this module had before it read bytes — `read_line`,
    /// `trim`, `split_whitespace`, `str::parse` — as the reference.
    fn reference_parse(text: &str) -> Result<Vec<(u32, u32)>> {
        let mut edges = Vec::new();
        for (i, line) in text.split_inclusive('\n').enumerate() {
            let lineno = i + 1;
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
            edges.push((u, v));
        }
        Ok(edges)
    }

    /// Both parsers on `text`, the byte parser through read buffers small
    /// enough that lines, tokens and digits straddle their fills.
    fn assert_parses_like_reference(text: &str) {
        let expect = reference_parse(text).map_err(|e| e.to_string());
        for capacity in [1, 2, 7, 64, 1 << 20] {
            let mut edges = Vec::new();
            let reader = std::io::BufReader::with_capacity(capacity, text.as_bytes());
            let got = parse_edges(reader, |u, v| {
                edges.push((u, v));
                Ok(())
            });
            match (&expect, got) {
                (Ok(expect), Ok(count)) => {
                    assert_eq!(&edges, expect, "{text:?} at {capacity}");
                    assert_eq!(count, expect.len() as u64, "{text:?} at {capacity}");
                }
                (Err(expect), Err(got)) => {
                    assert_eq!(&got.to_string(), expect, "{text:?} at {capacity}")
                }
                (expect, got) => panic!("{text:?} at {capacity}: {got:?}, expected {expect:?}"),
            }
        }
    }

    #[test]
    fn byte_parser_agrees_with_the_str_reference() {
        let good = [
            "0 1",
            "7\t9",
            "  12   34  ",
            "+5 +6",
            "007 0000000000000000008",
            "4294967295 4294967294",
            "3 4 0.25 1700000000",
            "1 2\r",
            "",
            "   \t",
            "# comment 1 2",
            "% konect",
            "// c++ style",
            "  # indented comment",
            "9 8 # trailing words",
        ];
        let bad = [
            "5",
            "+",
            "x y",
            "1 y",
            "-1 2",
            "1 -2",
            "4294967296 1",
            "1 99999999999999999999",
            "+ 1",
            "1 +",
            "++1 2",
            "1 2x",
            "1e3 2",
            "0x10 2",
            "1,2",
            "1_000 2",
            "é 1",
            "1 é",
            "/ 1",
        ];
        // Every good line alone, with and without its newline; all of them
        // as one file.
        for line in good {
            assert_parses_like_reference(line);
            assert_parses_like_reference(&format!("{line}\n"));
        }
        assert_parses_like_reference(&good.join("\n"));
        assert!(reference_parse(&good.join("\n")).unwrap().len() == 9);
        // Every bad line after a seeded number of good ones, so the line
        // number in the message is the thing compared; with and without a
        // newline of its own, and with good lines after it.
        let mut rng = 0x9E37_79B9u32;
        for line in bad {
            assert!(reference_parse(line).is_err(), "{line:?}");
            let mut text = String::new();
            rng = rng.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            for i in 0..(rng >> 28) {
                text.push_str(good[(i as usize * 7 + 3) % good.len()]);
                text.push('\n');
            }
            assert_parses_like_reference(&format!("{text}{line}"));
            assert_parses_like_reference(&format!("{text}{line}\n0 1\n"));
        }
        // Generated ids around the `u32` overflow boundary, signed, padded
        // and suffixed: a file of four such lines per round, good and
        // bad as they fall.
        let mut next = move || {
            rng = rng.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (rng >> 16) as u64
        };
        let id = |next: &mut dyn FnMut() -> u64| {
            let value = match next() % 8 {
                0..=2 => next() % 100,
                3..=5 => u32::MAX as u64 - next() % 3,
                6 => u32::MAX as u64 + 1 + next() % 3,
                _ => next() * next() * next(),
            };
            let sign = ["", "", "", "", "", "", "+", "-"][(next() % 8) as usize];
            let zeros = ["", "", "0", "000"][(next() % 4) as usize];
            let junk = if next().is_multiple_of(12) { "x" } else { "" };
            format!("{sign}{zeros}{value}{junk}")
        };
        for _ in 0..400 {
            let mut text = String::new();
            for _ in 0..4 {
                let sep = [" ", "\t", "   "][(next() % 3) as usize];
                text.push_str(&format!("{}{sep}{}\n", id(&mut next), id(&mut next)));
            }
            assert_parses_like_reference(&text);
        }
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
        assert_eq!(disk.format_version(), crate::FormatVersion::V3);
    }

    #[test]
    fn missing_file_is_io_error() {
        let dir = TempDir::new("edgelist").unwrap();
        let err = read_edge_list(&dir.path().join("absent.txt"), |_, _| Ok(())).unwrap_err();
        assert!(matches!(err, Error::Io(_)));
    }
}

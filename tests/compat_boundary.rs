//! Product code calls no kbench-only name.
//!
//! The names the repository benchmark pins (ROADMAP item 12b) live in one
//! `compat.rs` per crate, re-exported under their pinned paths, and the
//! fault injector lives in the dev-only `testutil` crate. This suite scans
//! the product sources of the facade, `graphstore` and `semicore` — with
//! comments, string literals and `#[cfg(test)]` items stripped, and with
//! `compat.rs` and the `pub use` lines that re-export it excepted — and
//! fails on any use of those names, printing `file:line` for each.

use std::path::{Path, PathBuf};

/// The names only kbench (and the tests) may use.
const KBENCH_ONLY: &[&str] = &[
    "ScanExecutor",
    "EvictionPolicy",
    "with_config",
    "create_durable_with_vfs",
    "open_catalog_with_vfs",
    "from_disk_graph",
    "encode_gap_run",
    "decode_gap_run",
    "FaultVfs",
    "FaultPlan",
];

/// The product source trees, relative to the workspace root.
const PRODUCT_DIRS: &[&str] = &["src", "crates/storage/src", "crates/core/src"];

/// `source` with comments and the contents of string and char literals
/// blanked (newlines kept, so line numbers survive).
fn strip_comments_and_literals(source: &str) -> String {
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 0;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(chars[i]));
                    i += 1;
                }
            }
        } else if c == 'r' && matches!(next, Some('"') | Some('#')) && !ident_before(&chars, i) {
            // A raw string: r"…" or r#"…"#.
            let mut j = i + 1;
            let mut hashes = 0;
            while chars.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if chars.get(j) != Some(&'"') {
                out.push(c);
                i += 1;
                continue;
            }
            out.push_str("r\"");
            j += 1;
            loop {
                match chars.get(j) {
                    None => break,
                    Some('"') if (1..=hashes).all(|k| chars.get(j + k) == Some(&'#')) => {
                        j += 1 + hashes;
                        break;
                    }
                    Some(&ch) => {
                        out.push(blank(ch));
                        j += 1;
                    }
                }
            }
            out.push('"');
            i = j;
        } else if c == '"' {
            out.push('"');
            i += 1;
            while i < chars.len() && chars[i] != '"' {
                if chars[i] == '\\' {
                    out.push(' ');
                    i += 1;
                }
                if i < chars.len() {
                    out.push(blank(chars[i]));
                    i += 1;
                }
            }
            out.push('"');
            i += 1;
        } else if c == '\''
            && (next == Some('\\') || chars.get(i + 2) == Some(&'\''))
            && next.is_some()
        {
            // A char literal ('x' or '\n'); a lone quote is a lifetime.
            out.push('\'');
            i += 1;
            while i < chars.len() && chars[i] != '\'' {
                if chars[i] == '\\' {
                    i += 1;
                }
                i += 1;
            }
            out.push('\'');
            i += 1;
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn ident_before(chars: &[char], i: usize) -> bool {
    i > 0 && is_ident(chars[i - 1])
}

/// One stripped source file with every `#[cfg(test)]` item blanked. Returns
/// the remaining text (line numbers intact) and the names of the modules
/// declared out of line under `#[cfg(test)]` (`mod name;`), whose files
/// are test code too.
fn strip_test_items(stripped: &str) -> (String, Vec<String>) {
    const ATTR: &str = "#[cfg(test)]";
    let mut out = String::with_capacity(stripped.len());
    let mut test_modules = Vec::new();
    let mut rest = stripped;
    while let Some(at) = rest.find(ATTR) {
        out.push_str(&rest[..at]);
        let item = &rest[at..];
        // The item ends at a `;` before any brace, or at its closing brace.
        let mut depth = 0usize;
        let mut end = item.len();
        for (k, ch) in item.char_indices().skip(ATTR.len()) {
            match ch {
                '{' => depth += 1,
                // A brace that closes an enclosing block ends the item
                // before it.
                '}' if depth == 0 => {
                    end = k;
                    break;
                }
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = k + 1;
                        break;
                    }
                }
                ';' if depth == 0 => {
                    let decl = item[ATTR.len()..k].trim();
                    if let Some(name) = decl
                        .strip_prefix("mod ")
                        .or_else(|| decl.strip_prefix("pub mod "))
                    {
                        test_modules.push(name.trim().to_string());
                    }
                    end = k + 1;
                    break;
                }
                _ => {}
            }
        }
        out.extend(
            item[..end]
                .chars()
                .map(|c| if c == '\n' { '\n' } else { ' ' }),
        );
        rest = &item[end..];
    }
    out.push_str(rest);
    (out, test_modules)
}

/// `file:line: name` for every kbench-only name used in `source`, except
/// on a `pub use` line that re-exports from `compat`.
fn findings(file: &str, source: &str) -> (Vec<String>, Vec<String>) {
    let (code, test_modules) = strip_test_items(&strip_comments_and_literals(source));
    let mut found = Vec::new();
    for (n, line) in code.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("pub use") && trimmed.contains("compat::") {
            continue;
        }
        for name in KBENCH_ONLY {
            let hit = line.match_indices(name).any(|(at, _)| {
                let before = line[..at].chars().next_back();
                let after = line[at + name.len()..].chars().next();
                !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
            });
            if hit {
                found.push(format!("{file}:{}: {name}", n + 1));
            }
        }
    }
    (found, test_modules)
}

fn rust_files(dir: &Path, files: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, files);
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
}

/// Where `mod name;` declared in `parent` keeps its file.
fn module_files(parent: &Path, name: &str) -> [PathBuf; 2] {
    let dir = parent.parent().unwrap();
    let stem = parent.file_stem().unwrap();
    let base = if ["lib", "main", "mod"].iter().any(|s| stem == *s) {
        dir.to_path_buf()
    } else {
        dir.join(stem)
    };
    [
        base.join(format!("{name}.rs")),
        base.join(name).join("mod.rs"),
    ]
}

#[test]
fn product_code_calls_no_kbench_only_name() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in PRODUCT_DIRS {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    let mut test_only = Vec::new();
    let mut scanned = Vec::new();
    for path in &files {
        if path.file_name().is_some_and(|f| f == "compat.rs") {
            continue;
        }
        let rel = path.strip_prefix(root).unwrap().display().to_string();
        let (found, modules) = findings(&rel, &std::fs::read_to_string(path).unwrap());
        for m in modules {
            test_only.extend(module_files(path, &m));
        }
        scanned.push((path.clone(), found));
    }
    let mut violations = Vec::new();
    for (path, found) in scanned {
        if !test_only.contains(&path) {
            violations.extend(found);
        }
    }
    assert!(
        files.iter().any(|p| p.ends_with("src/service/mod.rs")),
        "the scan must reach the facade's service module"
    );
    assert!(
        violations.is_empty(),
        "product code uses kbench-only names (move the use behind compat.rs):\n{}",
        violations.join("\n")
    );
}

#[test]
fn scanner_sees_code_and_skips_comments_literals_and_test_items() {
    let source = r##"
// ScanExecutor in a line comment
/* FaultVfs in /* a nested */ block comment */
fn product() {
    let s = "with_config in a string, // not a comment";
    let r = r#"from_disk_graph in a raw string"#;
    let c = '"';
    let q = '\'';
    let x = CoreIndex::from_disk_graph(d, 1, e);
}
pub use compat::EvictionPolicy;
pub use other::EvictionPolicy;
fn helper<'a>(v: &'a str) -> ScanExecutor { todo!() }
let no_match = my_with_config_x + FaultPlanner;
#[cfg(test)]
mod kernel_differential;
#[cfg(test)]
mod tests {
    fn inner() { let f = FaultVfs::new(FaultPlan::default()); { nested(); } }
}
fn after_tests() { decode_gap_run(b, 1, &mut out); }
"##;
    let (found, modules) = findings("f.rs", source);
    assert_eq!(
        found,
        vec![
            "f.rs:9: from_disk_graph",
            "f.rs:12: EvictionPolicy",
            "f.rs:13: ScanExecutor",
            "f.rs:21: decode_gap_run",
        ]
    );
    assert_eq!(modules, vec!["kernel_differential".to_string()]);
}

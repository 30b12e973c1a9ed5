//! Shared plumbing for the figure/table harness binaries: a tiny, strict
//! argument parser, aligned table printing and the ablation workload.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::str::FromStr;

use graphgen::DatasetGroup;
use graphstore::MemGraph;

/// Deterministic ablation workload shared by the `ablation_*` sweeps:
/// a `family` ([`Args::family`]: "rmat" or "ba") graph targeting `edges`
/// edges at average density `m/n ≈ density`.
pub fn graph_standin(family: &str, edges: u64, density: u64) -> MemGraph {
    let density = density.max(2);
    match family {
        "ba" => {
            let n = (edges / density).max(64) as u32;
            MemGraph::from_edges(graphgen::preferential_attachment(n, density as u32, 42), n)
        }
        "rmat" => {
            let n_target = (edges / density).max(64);
            let scale = (64 - n_target.leading_zeros() as u64).clamp(8, 30) as u32;
            let p = graphgen::Rmat::web(scale);
            // Oversample: R-MAT repeats edges, normalisation dedups (heavily
            // at high density).
            MemGraph::from_edges(graphgen::rmat_edges(p, edges * 3, 42), p.num_nodes())
        }
        other => panic!("no graph family `{other}`: \"rmat\" or \"ba\""),
    }
}

/// Minimal `--key value` / `--flag` argument parser (no external crates).
///
/// Strict: a binary reads every key it accepts through the getters, then
/// calls [`Args::finish`], which refuses a key no getter read, a value that
/// does not parse and a stray positional argument — a typo must not run the
/// full-size default for minutes.
#[derive(Debug)]
pub struct Args {
    /// Given and not read yet.
    given: BTreeMap<String, String>,
    /// `usage: <program>`, then one `[--key default]` per key read.
    usage: String,
    errors: Vec<String>,
}

impl Args {
    /// Parse the process arguments.
    pub fn parse() -> Args {
        let mut argv = std::env::args();
        let program = argv.next().unwrap_or_default();
        Args::from_args(&program, argv)
    }

    /// Parse `argv` (without the program name) for `program`.
    fn from_args(program: &str, argv: impl IntoIterator<Item = String>) -> Args {
        let mut args = Args {
            given: BTreeMap::new(),
            usage: format!("usage: {program}"),
            errors: Vec::new(),
        };
        let mut iter = argv.into_iter().peekable();
        while let Some(a) = iter.next() {
            let Some(key) = a.strip_prefix("--") else {
                args.errors.push(format!("unexpected argument `{a}`"));
                continue;
            };
            let value = match iter.peek() {
                Some(v) if !v.starts_with("--") => iter.next().unwrap(),
                _ => String::from("true"),
            };
            args.given.insert(key.to_string(), value);
        }
        args
    }

    fn take(&mut self, key: &str, usage: &str) -> Option<String> {
        self.usage += &format!(" [{usage}]");
        self.given.remove(key)
    }

    /// Parsed numeric option with default.
    pub fn get_num<T: FromStr + Display>(&mut self, key: &str, default: T) -> T {
        let value = self.take(key, &format!("--{key} {default}"));
        match value.map(|v| v.parse().map_err(|_| v)) {
            None => default,
            Some(Ok(v)) => v,
            Some(Err(v)) => {
                self.errors
                    .push(format!("--{key} takes a number, not `{v}`"));
                default
            }
        }
    }

    /// Boolean flag.
    pub fn flag(&mut self, key: &str) -> bool {
        let value = self.take(key, &format!("--{key}"));
        if let Some(v) = value.as_ref().filter(|v| *v != "true") {
            self.errors
                .push(format!("--{key} takes no value, not `{v}`"));
        }
        value.is_some()
    }

    /// Option `key`, one of `choices`, the first by default.
    fn choice(&mut self, key: &str, choices: [&'static str; 2]) -> &'static str {
        let [first, second] = choices;
        match self.take(key, &format!("--{key} {first}|{second}")) {
            None => first,
            Some(v) if v == first => first,
            Some(v) if v == second => second,
            Some(v) => {
                self.errors
                    .push(format!("--{key} is `{first}` or `{second}`, not `{v}`"));
                first
            }
        }
    }

    /// The `--group small|big` option (Figs. 9 and 10), `small` by default.
    pub fn group(&mut self) -> DatasetGroup {
        match self.choice("group", ["small", "big"]) {
            "big" => DatasetGroup::Big,
            _ => DatasetGroup::Small,
        }
    }

    /// The `--family rmat|ba` option of the [`graph_standin`] sweeps,
    /// `rmat` by default.
    pub fn family(&mut self) -> &'static str {
        self.choice("family", ["rmat", "ba"])
    }

    /// What is wrong with the command line, given the keys read so far.
    fn check(&self) -> Result<(), String> {
        let unknown = self.given.keys().map(|k| format!("unknown option --{k}"));
        let problems: Vec<String> = self.errors.iter().cloned().chain(unknown).collect();
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }

    /// Call once every option is read: on an option no getter read, a
    /// value that did not parse or a stray argument, print the problems
    /// with the usage line and exit 2.
    pub fn finish(self) {
        if let Err(problems) = self.check() {
            eprintln!("{problems}\n{}", self.usage);
            std::process::exit(2);
        }
    }
}

/// Aligned plain-text table writer (the harness output format).
#[derive(Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Print with per-column alignment.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    s.push_str(&format!("{:<w$}", c, w = widths[i]));
                } else {
                    s.push_str(&format!("  {:>w$}", c, w = widths[i]));
                }
            }
            println!("{s}");
        };
        line(&self.headers);
        let total = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        println!("{}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Human format: durations.
pub fn fmt_secs(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s < 0.001 {
        format!("{:.0} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

/// Human format: byte counts.
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut x = b as f64;
    let mut u = 0;
    while x >= 1024.0 && u + 1 < UNITS.len() {
        x /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{x:.1} {}", UNITS[u])
    }
}

/// Human format: large counts (1.2K / 3.4M / 5.6G).
pub fn fmt_count(c: u64) -> String {
    const UNITS: [&str; 4] = ["", "K", "M", "G"];
    let mut x = c as f64;
    let mut u = 0;
    while x >= 1000.0 && u + 1 < UNITS.len() {
        x /= 1000.0;
        u += 1;
    }
    if u == 0 {
        format!("{c}")
    } else {
        format!("{x:.1}{}", UNITS[u])
    }
}

/// The `p`-th percentile (`0..=100`) of an ascending sample: the element
/// at rank `⌊len · p / 100⌋` (1-based, clamped to the first), 0 when the
/// sample is empty.
pub fn percentile(sorted: &[u64], p: usize) -> u64 {
    let rank = (sorted.len() * p / 100).max(1);
    sorted.get(rank - 1).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1_500_000), "1.5M");
        assert_eq!(fmt_secs(std::time::Duration::from_millis(250)), "250.0 ms");
    }

    #[test]
    fn percentile_is_defined_on_tiny_samples() {
        assert_eq!(percentile(&[], 99), 0);
        assert_eq!(percentile(&[7], 99), 7);
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 99), 99);
        assert_eq!(percentile(&hundred, 50), 50);
        assert_eq!(percentile(&hundred, 100), 100);
    }

    #[test]
    fn table_prints_without_panic() {
        let mut t = Table::new(&["a", "bbb"]);
        t.row(vec!["x".into(), "123456".into()]);
        t.print();
    }

    fn args(argv: &[&str]) -> Args {
        Args::from_args("fig", argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn args_read_what_they_are_given() {
        let mut a = args(&[
            "--group", "big", "--scale", "0.02", "--smoke", "--family", "ba",
        ]);
        assert_eq!(a.group(), DatasetGroup::Big);
        assert_eq!(a.get_num("scale", 1.0), 0.02);
        assert!(a.flag("smoke"));
        assert_eq!(a.family(), "ba");
        assert!(!a.flag("maintenance"));
        assert_eq!(a.get_num("ops", 7), 7);
        assert_eq!(a.check(), Ok(()));
        assert_eq!(
            a.usage,
            "usage: fig [--group small|big] [--scale 1] [--smoke] [--family rmat|ba] \
             [--maintenance] [--ops 7]"
        );
    }

    #[test]
    fn args_refuse_what_no_getter_reads_or_parses() {
        for (argv, problem) in [
            (&["--scle", "0.02"][..], "unknown option --scle"),
            (&["--scale", "0,02"], "--scale takes a number, not `0,02`"),
            (&["--scale"], "--scale takes a number, not `true`"),
            (
                &["--group", "Big"],
                "--group is `small` or `big`, not `Big`",
            ),
            (&["--family", "BA"], "--family is `rmat` or `ba`, not `BA`"),
            (&["--family"], "--family is `rmat` or `ba`, not `true`"),
            (&["small"], "unexpected argument `small`"),
            (&["--smoke", "3"], "--smoke takes no value, not `3`"),
        ] {
            let mut a = args(argv);
            a.group();
            a.get_num("scale", 1.0);
            a.flag("smoke");
            a.family();
            assert_eq!(a.check(), Err(problem.to_string()), "{argv:?}");
        }
    }
}

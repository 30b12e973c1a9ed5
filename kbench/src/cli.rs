//! Command line of the `kbench` binary.
//!
//! ```text
//! kbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--json OUT]
//! kbench --smoke                  every workload, both modes, shrunk to seconds in total
//! kbench --repeat-check N         N sets back to back on seeds S, S+1, ..; spread vs. bound
//! kbench --emit-benchmark-json    print the text of BENCHMARK.json
//! ```
//!
//! The result of every run is one JSON line on stdout (the last line is the
//! last workload's); the human-readable metric table goes to stderr.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use kcore_suite::graphstore::Result;

use crate::e2e::RunConfig;
use crate::metrics::{benchmark_json, Outcome, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::summary::{quartiles, relative_iqr};
use crate::workload::{workload, WorkloadSpec, WORKLOADS};

/// Seconds each run of `--smoke` measures for.
const SMOKE_SECONDS: f64 = 0.4;

/// Point every temporary directory the benchmark (and the program's own
/// builder) creates at a directory beside the running executable, i.e.
/// inside the build directory of the checkout: the benchmark must not
/// write outside its checkout, and the data must sit on a real filesystem
/// with a real `fsync`, not on whatever `/tmp` happens to be.
pub fn use_scratch_beside_exe() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe.parent().unwrap_or(Path::new(".")).join("kbench-tmp");
    std::fs::create_dir_all(&dir)?;
    std::env::set_var("TMPDIR", &dir);
    Ok(dir)
}

/// Run one workload in one mode and report it: table on stderr, result
/// line on stdout (and appended to `json` when given).
fn run_one(cfg: &RunConfig, spans: Option<&Path>, json: Option<&Path>) -> Result<Outcome> {
    let (defs, mut outcome) = match spans {
        Some(path) => (PER_LAYER, crate::trace::run(cfg, path)?),
        None => (END_TO_END, crate::e2e::run(cfg)?),
    };
    for gap in outcome.gaps(defs) {
        outcome.problem(gap);
    }
    eprintln!(
        "== {} seed {} {:.1}s {} ==",
        cfg.spec.name,
        cfg.seed,
        cfg.seconds,
        if spans.is_some() {
            "traced"
        } else {
            "end to end"
        }
    );
    eprint!("{}", outcome.table());
    for p in &outcome.problems {
        eprintln!("  CHECK FAILED: {p}");
    }
    eprintln!(
        "  correct {}  attempted {}  failed {}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    let line = outcome.result_line(defs);
    println!("{line}");
    if let Some(path) = json {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(
            f,
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {:?}, \"trace\": {}, \"result\": {line}}}",
            cfg.spec.name,
            cfg.seed,
            cfg.seconds,
            u8::from(spans.is_some())
        )?;
    }
    Ok(outcome)
}

/// `--smoke`: every workload end to end and traced, at smoke size.
fn smoke(seed: u64, scratch: &Path) -> Result<bool> {
    let mut ok = true;
    for spec in &WORKLOADS {
        let cfg = RunConfig {
            spec,
            seed,
            seconds: SMOKE_SECONDS,
            smoke: true,
        };
        let spans = scratch.join(format!("smoke-spans-{}.jsonl", spec.name));
        ok &= run_one(&cfg, None, None)?.correct;
        ok &= run_one(&cfg, Some(&spans), None)?.correct;
    }
    Ok(ok)
}

/// How far apart the sets of one metric lie, as a share of their median:
/// the interquartile range from four sets up (what the benchmark contract
/// bounds), the full range below that.
fn spread(values: &[f64]) -> f64 {
    if values.len() >= 4 {
        return relative_iqr(values).unwrap_or(0.0);
    }
    let median = quartiles(values).map_or(values[0], |q| q[1]);
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    if median == 0.0 {
        0.0
    } else {
        (hi - lo) / median.abs()
    }
}

/// `--repeat-check N`: run `sets` sets back to back, each on the next seed
/// (what the benchmark's driver does), and print, per metric and workload,
/// every set's value, the spread and the bound. False when an end-to-end
/// metric's spread exceeds its bound.
fn repeat_check(
    specs: &[&'static WorkloadSpec],
    sets: usize,
    seed: u64,
    seconds: f64,
) -> Result<bool> {
    let mut values: HashMap<(&str, &str), Vec<f64>> = HashMap::new();
    let mut ok = true;
    for set in 0..sets {
        for &spec in specs {
            let cfg = RunConfig {
                spec,
                seed: seed + set as u64,
                seconds,
                smoke: false,
            };
            let outcome = crate::e2e::run(&cfg)?;
            eprintln!(
                "set {} {}: correct {} failed {}",
                set + 1,
                spec.name,
                outcome.correct,
                outcome.failed
            );
            ok &= outcome.correct && outcome.failed == 0;
            for def in END_TO_END {
                if let Some(v) = outcome.get(def.name) {
                    values.entry((spec.name, def.name)).or_default().push(v);
                }
            }
        }
    }
    println!(
        "{:<26} {:<13} {:>8} {:>7}  values",
        "metric", "workload", "spread", "bound"
    );
    for def in END_TO_END {
        for &spec in specs {
            let Some(v) = values.get(&(spec.name, def.name)) else {
                println!("{:<26} {:<13} never measured", def.name, spec.name);
                ok = false;
                continue;
            };
            let s = spread(v);
            let bound = def.bound.unwrap_or(0.0);
            // The set-up time's spread is reported but not held to the
            // bound (the contract only compares its medians).
            let over = s > bound && def.name != "setup_s";
            ok &= !over;
            let shown: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            println!(
                "{:<26} {:<13} {:>8.4} {:>7.2}{} {}",
                def.name,
                spec.name,
                s,
                bound,
                if over { " OVER" } else { "     " },
                shown.join(" ")
            );
        }
    }
    Ok(ok)
}

fn usage() -> i32 {
    eprintln!(
        "usage: kbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--json OUT]\n       \
         kbench --smoke | --repeat-check N | --emit-benchmark-json",
        WORKLOADS.map(|w| w.name).join("|")
    );
    2
}

/// Entry point; returns the process exit code.
pub fn main(args: Vec<String>) -> i32 {
    let mut opts: HashMap<String, String> = HashMap::new();
    let mut it = args.into_iter().peekable();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return usage();
        };
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().unwrap_or_default(),
            _ => "true".to_string(),
        };
        opts.insert(key.to_string(), value);
    }
    if opts.contains_key("emit-benchmark-json") {
        print!("{}", benchmark_json());
        return 0;
    }
    // `None`: the option was given but does not parse.
    let whole = |key: &str, default: u64| match opts.get(key) {
        Some(v) => v.parse::<u64>().ok(),
        None => Some(default),
    };
    let seconds = match opts.get("seconds") {
        Some(v) => v.parse().ok().filter(|s: &f64| s.is_finite() && *s >= 0.0),
        None => Some(RUN_SECONDS as f64),
    };
    let (Some(seed), Some(seconds), Some(sets)) =
        (whole("seed", 1), seconds, whole("repeat-check", 0))
    else {
        return usage();
    };
    let traced = match opts.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage(),
    };
    let specs: Vec<&'static WorkloadSpec> = match opts.get("workload").map(String::as_str) {
        None | Some("all") => WORKLOADS.iter().collect(),
        Some(name) => match workload(name) {
            Some(w) => vec![w],
            None => return usage(),
        },
    };
    let scratch = match use_scratch_beside_exe() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("kbench: cannot create a scratch directory: {e}");
            return 1;
        }
    };

    let result = if opts.contains_key("smoke") {
        smoke(seed, &scratch)
    } else if sets >= 1 {
        repeat_check(&specs, sets as usize, seed, seconds)
    } else {
        let json = opts.get("json").map(PathBuf::from);
        specs.iter().try_fold(true, |ok, &spec| {
            let cfg = RunConfig {
                spec,
                seed,
                seconds,
                smoke: false,
            };
            let spans = traced.then(|| scratch.join(format!("spans-{}.jsonl", spec.name)));
            Ok(ok & run_one(&cfg, spans.as_deref(), json.as_deref())?.correct)
        })
    };
    match result {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("kbench: {e}");
            1
        }
    }
}

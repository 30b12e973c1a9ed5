//! Runs `kbench --smoke` in-process: every workload, end to end and traced,
//! at smoke size with all output checks on — and asserts that each run
//! reports exactly the metrics `BENCHMARK.json` lists for its mode, once
//! each, finite, so the JSON and the binary cannot drift.

use kbench::e2e::RunConfig;
use kbench::metrics::{END_TO_END, PER_LAYER};
use kbench::workload::WORKLOADS;

#[test]
fn every_listed_metric_is_emitted_once_per_workload() {
    let scratch = kbench::cli::use_scratch_beside_exe().unwrap();
    for spec in &WORKLOADS {
        let cfg = RunConfig {
            spec,
            seed: 3,
            seconds: 0.4,
            smoke: true,
        };
        let e2e = kbench::e2e::run(&cfg).unwrap();
        assert!(e2e.correct, "{}: {:?}", spec.name, e2e.problems);
        assert_eq!(e2e.failed, 0, "{}", spec.name);
        assert!(e2e.attempted >= 1);
        assert_eq!(e2e.gaps(END_TO_END), Vec::<String>::new(), "{}", spec.name);
        let line = e2e.result_line(END_TO_END);
        for def in END_TO_END {
            let key = format!("\"{}\": {{\"value\": ", def.name);
            assert_eq!(line.matches(&key).count(), 1, "{line}");
            assert!(line.contains(&format!("\"unit\": \"{}\"", def.unit)));
        }

        let spans = scratch.join(format!("test-spans-{}.jsonl", spec.name));
        let traced = kbench::trace::run(&cfg, &spans).unwrap();
        assert!(traced.correct, "{}: {:?}", spec.name, traced.problems);
        assert_eq!(traced.failed, 0, "{}", spec.name);
        assert_eq!(
            traced.gaps(PER_LAYER),
            Vec::<String>::new(),
            "{}",
            spec.name
        );
        // Nothing is measured that the tables do not list.
        for m in &traced.metrics {
            assert!(PER_LAYER.iter().any(|d| d.name == m.name), "{}", m.name);
        }
        let text = std::fs::read_to_string(&spans).unwrap();
        assert!(text.lines().count() > 10);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        std::fs::remove_file(spans).unwrap();
    }
}

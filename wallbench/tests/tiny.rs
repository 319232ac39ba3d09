//! Self-test: every workload at a tiny size, untraced and traced.
//!
//! Checks that every metric `BENCHMARK.json` names is printed with its unit,
//! that no request fails, and that the exact counts repeat across two runs
//! of one seed and across a second seed.

use sympack_wallbench::{run, Outcome, RunConfig, Scale, Workload};

const EXACT: [&str; 9] = [
    "symbolic.supernodes",
    "symbolic.l_nnz",
    "symbolic.flops",
    "symbolic.avg_sn_width",
    "taskgraph.tasks",
    "dense.gemm_calls",
    "dense.syrk_calls",
    "dense.trsm_calls",
    "dense.potrf_calls",
];

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("closed string") + open;
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let cfg = RunConfig {
        workload,
        seed,
        seconds: 0.3,
        trace,
        scale: Scale::Tiny,
    };
    let (outcome, tracer) = run(&cfg).expect("workload runs");
    assert_eq!(tracer.is_some(), trace);
    assert!(
        outcome.correct,
        "{}: {:?}",
        workload.name(),
        outcome.problems
    );
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted >= 1);
    outcome
}

fn assert_declared(outcome: &Outcome, section: &str) {
    let want = declared(section);
    let got: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(got, want, "{section} metrics and units");
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{} is not finite", m.name);
    }
}

fn exact_counts(o: &Outcome) -> Vec<f64> {
    EXACT
        .iter()
        .map(|name| o.get(name).unwrap_or_else(|| panic!("{name} reported")))
        .collect()
}

#[test]
fn every_workload_reports_its_metrics_and_repeats_its_counts() {
    for w in Workload::ALL {
        let e2e = tiny(w, 7, false);
        assert_declared(&e2e, "end_to_end");

        let first = tiny(w, 7, true);
        assert_declared(&first, "per_layer");
        assert_eq!(first.get("failed_frac"), Some(0.0));
        let counts = exact_counts(&first);
        assert!(counts.iter().all(|&c| c > 0.0), "{}: {counts:?}", w.name());
        assert_eq!(
            exact_counts(&tiny(w, 7, true)),
            counts,
            "{}: same seed",
            w.name()
        );
        assert_eq!(
            exact_counts(&tiny(w, 8, true)),
            counts,
            "{}: second seed",
            w.name()
        );
    }
}

//! Self-test of the pipeline benchmark's arithmetic and of its contract
//! with `BENCHMARK.json`.
//!
//! ```sh
//! cargo test --offline --manifest-path crates/bench/pipeline/Cargo.toml
//! ```

use raven_pipeline_bench::{
    catalog_for, enclosed_by, quantile, quartiles_f64, result_line, self_times_ns, table4_err_pp,
    END_TO_END, PAPER_TABLE4, PER_LAYER,
};
use serde_json::Value;
use simbus::obs::spans;
use simbus::{SimTime, SpanRecord};

fn span(name: &'static str, parent: Option<usize>, begin: u64, end: u64) -> SpanRecord {
    SpanRecord {
        name,
        parent,
        depth: 0,
        vt_begin: SimTime::ZERO,
        vt_end: SimTime::ZERO,
        wall_begin_ns: begin,
        wall_ns: end - begin,
        closed: true,
    }
}

#[test]
fn self_time_subtracts_stacked_children_but_not_floating_ones() {
    let tree = vec![
        span(spans::SESSION_RUN, None, 0, 1_000),
        span(spans::CYCLE, Some(0), 0, 100),
        span(spans::STAGE_CONSOLE, Some(1), 10, 30),
        span(spans::STAGE_INTERCEPTORS, Some(1), 30, 70),
        span(spans::DETECTOR_VERDICT, Some(3), 40, 50),
        // Opened inside the verdict, lasting until the session ends.
        span(spans::MITIGATION_WINDOW, Some(4), 45, 1_000),
        span(spans::STAGE_PLANT, Some(1), 80, 95),
    ];
    let self_ns = self_times_ns(&tree);
    // cycle 100 − (20 + 40 + 15); interceptors 40 − 10; verdict keeps
    // all 10 ns because the window floats.
    assert_eq!(self_ns, vec![900, 25, 20, 30, 10, 955, 15]);
}

#[test]
fn enclosure_follows_parent_indices() {
    let tree = vec![
        span(spans::SESSION_BOOT, None, 0, 10),
        span(spans::CYCLE, Some(0), 0, 5),
        span(spans::SESSION_RUN, None, 10, 30),
        span(spans::CYCLE, Some(2), 10, 20),
        span(spans::STAGE_PLANT, Some(3), 12, 18),
    ];
    assert_eq!(enclosed_by(&tree, spans::SESSION_RUN), vec![false, false, false, true, true]);
    assert_eq!(enclosed_by(&tree, spans::SESSION_BOOT), vec![false, true, false, false, false]);
}

#[test]
fn percentiles_use_nearest_rank() {
    let mut samples = vec![7, 3, 10, 1, 9, 2, 8, 4, 6, 5];
    assert_eq!(quantile(&mut samples, 0.25), 3); // rank ceil(2.5) = 3
    assert_eq!(quantile(&mut samples, 0.50), 5);
    assert_eq!(quantile(&mut samples, 0.98), 10);
    let mut values = vec![4.0, 1.0, 3.0, 2.0];
    let [p25, p50, p75] = quartiles_f64(&mut values);
    assert!((p25 - 1.0).abs() < 1e-12 && (p50 - 2.0).abs() < 1e-12 && (p75 - 3.0).abs() < 1e-12);
    let mut single = vec![0.5];
    assert!(quartiles_f64(&mut single).iter().all(|v| (v - 0.5).abs() < 1e-12));
}

#[test]
fn table4_error_is_the_mean_absolute_cell_delta() {
    assert!(table4_err_pp(&PAPER_TABLE4).abs() < 1e-12);
    // The paper-scale reproduction in EXPERIMENTS.md. Deltas per row:
    // A model 7.7+10.2+2.0+22.2, A RAVEN 17.7+0.7+7.7+11.2,
    // B model 3.8+0.2+2.1+8.0, B RAVEN 42.7+55.4+4.6+44.3 = 240.5.
    let measured = [
        [[95.7, 100.0, 14.4, 97.0], [66.9, 52.6, 0.0, 69.0]],
        [[95.8, 100.0, 13.9, 97.1], [48.0, 25.6, 0.0, 40.8]],
    ];
    assert!((table4_err_pp(&measured) - 240.5 / 16.0).abs() < 1e-9);
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::value_from_str(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Value, tier: &str) -> Vec<(String, String)> {
    let Some(Value::Seq(metrics)) = doc.get(tier) else { panic!("BENCHMARK.json lacks {tier}") };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(name)), Some(Value::Str(unit))) => (name.clone(), unit.clone()),
            _ => panic!("{tier} entry without name/unit: {m:?}"),
        })
        .collect()
}

fn printed(traced: bool) -> Vec<String> {
    let values: Vec<(&str, f64)> = catalog_for(traced).iter().map(|(n, _)| (*n, 1.5)).collect();
    let line = result_line(traced, 3, 0, &values);
    let parsed = serde_json::value_from_str(&line).expect("result line parses");
    assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
    let Some(Value::Map(metrics)) = parsed.get("metrics") else { panic!("no metrics: {line}") };
    metrics.iter().map(|(name, _)| name.clone()).collect()
}

#[test]
fn printed_metrics_match_benchmark_json_both_ways() {
    let doc = benchmark_json();
    for (tier, catalog, traced) in
        [("end_to_end", &END_TO_END[..], false), ("per_layer", &PER_LAYER[..], true)]
    {
        let declared = declared(&doc, tier);
        let catalogued: Vec<(String, String)> =
            catalog.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(declared, catalogued, "{tier}: BENCHMARK.json and the catalogue disagree");
        let printed = printed(traced);
        let names: Vec<String> = declared.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(printed, names, "{tier}: printed names differ from BENCHMARK.json");
        for name in &printed {
            let valid = !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
            assert!(valid, "{name} is not [A-Za-z0-9_.-]+");
        }
    }
    let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n).collect();
    for (i, name) in all.iter().enumerate() {
        assert!(!all[..i].contains(name), "{name} is declared twice");
    }
}

#[test]
fn failed_run_reports_no_metrics() {
    let line = result_line(false, 3, 3, &[]);
    let parsed = serde_json::value_from_str(&line).expect("result line parses");
    assert_eq!(parsed.get("correct"), Some(&Value::Bool(false)));
    assert_eq!(parsed.get("failed"), Some(&Value::U64(3)));
    assert_eq!(parsed.get("metrics"), Some(&Value::Map(Vec::new())));
}

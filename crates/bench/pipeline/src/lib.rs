//! Arithmetic behind the pipeline benchmark (`benches/pipeline.rs`): the
//! metric catalogue, span-tree self time, nearest-rank order statistics,
//! the result line, and the Table IV accuracy figure.
//!
//! It lives in a library so the self-test target (`tests/selftest.rs`)
//! can check each piece against hand-computed values.

#![forbid(unsafe_code)]

use raven_core::experiments::Table4Result;
use serde_json::Value;
use simbus::obs::percentile_nearest_rank;
use simbus::SpanRecord;

/// End-to-end metrics (`--trace 0`), as `(name, unit)`: every workload
/// reports each of them, measured with tracing off.
pub const END_TO_END: [(&str, &str); 3] =
    [("units_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics (`--trace 1`), as `(name, unit)`: every workload
/// reports each of them from its traced pass.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("stage.console_ns", "ns"),
    ("stage.link_ns", "ns"),
    ("stage.feedback_ns", "ns"),
    ("stage.controller_ns", "ns"),
    ("stage.interceptors_ns", "ns"),
    ("stage.detector_ns", "ns"),
    ("stage.plant_ns", "ns"),
    ("stage.observe_ns", "ns"),
    ("teleop.encode_ns", "ns"),
    ("teleop.decode_ns", "ns"),
    ("detect.verdict_ns", "ns"),
    ("detect.verdict_p99_ns", "ns"),
    ("hw.board_cycle_ns", "ns"),
    ("sim.boot_ns_per_cycle", "ns"),
    ("sim.burst_p50_ns", "ns"),
    ("sim.burst_p98_ns", "ns"),
    ("span.overhead_ns", "ns"),
    ("span.overhead_pct", "%"),
    ("exec.training_s", "s"),
    ("exec.scored_s", "s"),
    ("exec.busy_pct", "%"),
    ("exec.tail_idle_pct", "%"),
    ("exec.run_ms_p50", "ms"),
    ("exec.run_ms_p95", "ms"),
    ("exec.merge_wait_ms_p95", "ms"),
    ("exec.speedup_vs_serial", "ratio"),
    ("fleet.build_s", "s"),
    ("fleet.ns_per_assessment", "ns"),
    ("fleet.admit_ratio", "ratio"),
    ("detect.verdict_count", "count"),
    ("detect.assessment_count", "count"),
    ("detect.alarm_count", "count"),
    ("sim.run_count", "count"),
    ("fleet.cycle_count", "count"),
    ("fleet.deferral_count", "count"),
];

/// The metrics one mode reports: [`PER_LAYER`] when traced, else
/// [`END_TO_END`].
pub fn catalog_for(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Renders the benchmark's result line: one JSON object with `correct`,
/// `attempted`, `failed` and `metrics`, the last holding one
/// `{"value", "unit"}` entry per catalogue metric, in catalogue order.
///
/// # Panics
///
/// Panics if `values` names a metric the mode's catalogue lacks, or
/// misses one it has (a failed run passes no values at all).
pub fn result_line(traced: bool, attempted: u64, failed: u64, values: &[(&str, f64)]) -> String {
    let catalog = catalog_for(traced);
    let mut metrics = Vec::new();
    if !values.is_empty() {
        for (name, _) in values {
            assert!(catalog.iter().any(|(n, _)| n == name), "metric {name} is not catalogued");
        }
        for (name, unit) in catalog {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            metrics.push((
                name.to_string(),
                Value::Map(vec![
                    ("value".to_string(), Value::F64(value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]),
            ));
        }
    }
    let line = Value::Map(vec![
        ("correct".to_string(), Value::Bool(failed == 0 && !values.is_empty())),
        ("attempted".to_string(), Value::U64(attempted)),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("result line serializes")
}

/// Where a span ends, in nanoseconds since its recorder's epoch.
pub fn span_end_ns(span: &SpanRecord) -> u64 {
    span.wall_begin_ns + span.wall_ns
}

/// Self time of every span in a recorder's arena: its wall duration
/// minus the part of that interval its children cover, found through the
/// parent indices.
///
/// A child that ends after its parent is a floating span
/// (`SpanHandle::begin_floating`, e.g. the mitigation window that opens
/// inside one verdict and lasts until the session ends); it is not work
/// done inside the parent and covers nothing. Call `finish()` on the
/// recorder first, so every span is closed.
pub fn self_times_ns(spans: &[SpanRecord]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    // Furthest end already counted per parent: stacked siblings open in
    // arena order, so clipping each child at this mark counts overlap once.
    let mut counted_to = vec![0u64; spans.len()];
    for span in spans {
        let Some(p) = span.parent else { continue };
        let parent = &spans[p];
        let end = span_end_ns(span);
        if end > span_end_ns(parent) {
            continue;
        }
        let begin = span.wall_begin_ns.max(parent.wall_begin_ns).max(counted_to[p]);
        if end > begin {
            covered[p] += end - begin;
            counted_to[p] = end;
        }
    }
    spans.iter().zip(covered).map(|(s, c)| s.wall_ns.saturating_sub(c)).collect()
}

/// For every span, whether an ancestor named `ancestor` encloses it.
pub fn enclosed_by(spans: &[SpanRecord], ancestor: &str) -> Vec<bool> {
    let mut inside = vec![false; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        inside[i] = span.parent.is_some_and(|p| inside[p] || spans[p].name == ancestor);
    }
    inside
}

/// Nearest-rank `q`-quantile of `samples` (sorted in place), through
/// `simbus::obs::percentile_nearest_rank`.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    percentile_nearest_rank(samples, q)
}

/// Nearest-rank quartiles `[p25, p50, p75]` of per-repeat values
/// (sorted in place), ranked by the same rule as [`quantile`].
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles_f64(values: &mut [f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    values.sort_by(f64::total_cmp);
    let ranks: Vec<u64> = (0..values.len() as u64).collect();
    [0.25, 0.50, 0.75].map(|q| values[percentile_nearest_rank(&ranks, q) as usize])
}

/// The paper's Table IV in percent, indexed `[scenario A, B][dynamic
/// model, RAVEN][ACC, TPR, FPR, F1]`.
pub const PAPER_TABLE4: [[[f64; 4]; 2]; 2] = [
    [[88.0, 89.8, 12.4, 74.8], [84.6, 53.3, 7.7, 57.8]],
    [[92.0, 99.8, 11.8, 89.1], [90.7, 81.0, 4.6, 85.1]],
];

/// A Table IV result's 16 cells, in [`PAPER_TABLE4`]'s layout.
///
/// # Panics
///
/// Panics unless the result holds exactly scenarios A and B.
pub fn table4_cells(result: &Table4Result) -> [[[f64; 4]; 2]; 2] {
    assert_eq!(result.scenarios.len(), 2, "Table IV has scenarios A and B");
    let row = |s: &raven_core::experiments::table4::DetectorScore| [s.acc, s.tpr, s.fpr, s.f1];
    [0, 1].map(|i| {
        let s = &result.scenarios[i];
        [row(&s.dynamic_model), row(&s.raven)]
    })
}

/// Mean absolute error of 16 Table IV cells against the paper, in
/// percentage points.
pub fn table4_err_pp(cells: &[[[f64; 4]; 2]; 2]) -> f64 {
    let mut sum = 0.0;
    for (measured, paper) in
        cells.iter().flatten().flatten().zip(PAPER_TABLE4.iter().flatten().flatten())
    {
        sum += (measured - paper).abs();
    }
    sum / 16.0
}

//! Sweep-level tracing: the `queued → running → merged` lifecycle of every
//! campaign run, on a per-worker track.
//!
//! Install an `Arc<SweepTraceCollector>` in
//! [`ExecutorConfig::trace`](super::ExecutorConfig) and every
//! `run_sweep`/`run_sweep_observed` call stamps one [`SweepSegment`] per
//! sweep: wall-clock begin/end, the merge phase, and a [`RunLifecycle`]
//! per run (which worker ran it, when it started/finished, and when the
//! run-order merge consumed it). Consumers:
//!
//! * [`SweepTraceCollector::chrome_events`] — Chrome Trace Event export,
//!   one pid per worker (`--trace-out`);
//! * [`SweepTraceCollector::utilization`] — per-worker busy% and
//!   merge-stall summary (`raven-sim profile`).
//!
//! All timestamps are wall-clock nanoseconds against the collector's
//! epoch: like span wall durations, this is sidecar-only telemetry and must
//! never be folded into a serialized artifact. The default executor path
//! (`trace: None`) takes no timestamps at all, so golden artifacts stay
//! byte-identical.

#![expect(
    clippy::disallowed_methods,
    reason = "sweep lifecycle timestamps feed only sidecar surfaces (trace JSON, utilization report); merged run results never see them"
)]
#![expect(
    clippy::disallowed_types,
    reason = "leaf lock: the segment list's Mutex is a private field, and whoever holds it only pushes, clones or counts SweepSegments, which lock nothing"
)]

use std::time::Instant;

use parking_lot::Mutex;
use simbus::obs::{spans, StageStats};
use simbus::ChromeTraceBuilder;

/// One run's wall-clock lifecycle inside a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunLifecycle {
    /// Run index (its slot in the merged output).
    pub index: usize,
    /// The seed the run executed under.
    pub seed: u64,
    /// Worker thread that executed the run (0-based; serial sweeps use 0).
    pub worker: usize,
    /// When the run became runnable (sweep start — all runs queue at once).
    pub queued_ns: u64,
    /// When a worker picked the run up.
    pub started_ns: u64,
    /// When the run's job returned (or panicked).
    pub finished_ns: u64,
    /// When the run-order merge consumed the run's slot.
    pub merged_ns: u64,
    /// Whether the run completed without panicking.
    pub ok: bool,
}

/// One executed sweep: its wall-clock envelope, merge phase, and runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSegment {
    /// The sweep's label (e.g. `fig9`, `table4-A`).
    pub label: String,
    /// Worker threads used.
    pub workers: usize,
    /// Sweep start (ns since the collector's epoch).
    pub begin_ns: u64,
    /// Sweep end, after the merge.
    pub end_ns: u64,
    /// Start of the run-order merge phase.
    pub merge_begin_ns: u64,
    /// End of the run-order merge phase.
    pub merge_end_ns: u64,
    /// Per-run lifecycles, in run order.
    pub runs: Vec<RunLifecycle>,
}

/// Per-worker utilization inside one sweep segment.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerUtilization {
    /// Worker index.
    pub worker: usize,
    /// Runs the worker executed.
    pub runs: usize,
    /// Total nanoseconds spent inside run jobs.
    pub busy_ns: u64,
    /// `busy_ns` over the sweep's wall-clock envelope, in percent.
    pub busy_pct: f64,
}

/// Utilization summary of one sweep segment.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentUtilization {
    /// The sweep's label.
    pub label: String,
    /// Sweep wall-clock envelope (ns).
    pub wall_ns: u64,
    /// Total runs.
    pub runs: usize,
    /// Per-worker rows, by worker index.
    pub per_worker: Vec<WorkerUtilization>,
    /// Total run-completion → merge-consumption wait across runs (ns).
    pub merge_stall_total_ns: u64,
    /// The longest single run's merge stall (ns).
    pub merge_stall_max_ns: u64,
}

impl SegmentUtilization {
    /// Renders the summary as an aligned terminal block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "sweep {:<12} {:>6} runs  {:>9.1} ms wall  merge stall {:.1} ms total / {:.1} ms max\n",
            self.label,
            self.runs,
            self.wall_ns as f64 / 1e6,
            self.merge_stall_total_ns as f64 / 1e6,
            self.merge_stall_max_ns as f64 / 1e6,
        ));
        for w in &self.per_worker {
            out.push_str(&format!(
                "  worker {:<3} {:>6} runs  {:>9.1} ms busy  {:>5.1}% utilized\n",
                w.worker,
                w.runs,
                w.busy_ns as f64 / 1e6,
                w.busy_pct,
            ));
        }
        out
    }
}

/// Collects [`SweepSegment`]s across every sweep executed under one
/// `ExecutorConfig`. Shareable across threads; cheap when absent (the
/// executor takes no timestamps without one installed).
pub struct SweepTraceCollector {
    epoch: Instant,
    segments: Mutex<Vec<SweepSegment>>,
}

impl Default for SweepTraceCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepTraceCollector {
    /// A collector whose epoch is now.
    pub fn new() -> Self {
        SweepTraceCollector { epoch: Instant::now(), segments: Mutex::new(Vec::new()) }
    }

    /// Nanoseconds since the collector's epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Appends one executed sweep (called by the executor).
    pub fn record_segment(&self, segment: SweepSegment) {
        self.segments.lock().push(segment);
    }

    /// Snapshot of every recorded segment, in execution order.
    pub fn segments(&self) -> Vec<SweepSegment> {
        self.segments.lock().clone()
    }

    /// Per-worker busy% and merge-stall summary of each recorded segment.
    pub fn utilization(&self) -> Vec<SegmentUtilization> {
        self.segments()
            .iter()
            .map(|seg| {
                let wall_ns = seg.end_ns.saturating_sub(seg.begin_ns);
                let mut per_worker: Vec<WorkerUtilization> = (0..seg.workers)
                    .map(|worker| WorkerUtilization { worker, runs: 0, busy_ns: 0, busy_pct: 0.0 })
                    .collect();
                let mut merge_stall_total_ns = 0u64;
                let mut merge_stall_max_ns = 0u64;
                for run in &seg.runs {
                    if let Some(row) = per_worker.get_mut(run.worker) {
                        row.runs += 1;
                        row.busy_ns += run.finished_ns.saturating_sub(run.started_ns);
                    }
                    let stall = run.merged_ns.saturating_sub(run.finished_ns);
                    merge_stall_total_ns += stall;
                    merge_stall_max_ns = merge_stall_max_ns.max(stall);
                }
                for row in &mut per_worker {
                    row.busy_pct =
                        if wall_ns > 0 { row.busy_ns as f64 * 100.0 / wall_ns as f64 } else { 0.0 };
                }
                SegmentUtilization {
                    label: seg.label.clone(),
                    wall_ns,
                    runs: seg.runs.len(),
                    per_worker,
                    merge_stall_total_ns,
                    merge_stall_max_ns,
                }
            })
            .collect()
    }

    /// Renders every segment's utilization summary.
    pub fn render(&self) -> String {
        self.utilization().iter().map(SegmentUtilization::render).collect()
    }

    /// One [`StageStats`] row per recorded segment over its run durations
    /// (`exec/<label>`): the schema of the span layer's
    /// `SpanHandle::stage_stats`, so both feed one `--profile-json` file
    /// format.
    pub fn stage_stats(&self) -> Vec<StageStats> {
        self.segments()
            .iter()
            .map(|seg| {
                let mut samples: Vec<u64> =
                    seg.runs.iter().map(|r| r.finished_ns.saturating_sub(r.started_ns)).collect();
                StageStats::from_samples_ns(format!("exec/{}", seg.label), &mut samples)
            })
            .collect()
    }

    /// Emits every recorded segment as Chrome Trace events: pid 0 is the
    /// executor (sweep envelope + merge phase), pid `w + 1` is worker `w`,
    /// and each run gets its own tid inside its worker's process with
    /// `queued → running → merged` complete events.
    pub fn chrome_events(&self, out: &mut ChromeTraceBuilder) {
        let segments = self.segments();
        out.set_process_name(0, "executor");
        out.set_thread_name(0, 1, "sweeps");
        out.set_thread_name(0, 2, "merge");
        let max_workers = segments.iter().map(|s| s.workers).max().unwrap_or(0);
        for w in 0..max_workers {
            out.set_process_name(w as u64 + 1, &format!("worker-{w}"));
        }
        for seg in &segments {
            let us = |ns: u64| ns as f64 / 1_000.0;
            out.push_complete(
                spans::EXEC_SWEEP,
                0,
                1,
                us(seg.begin_ns),
                us(seg.end_ns.saturating_sub(seg.begin_ns)),
                &[
                    ("label", seg.label.clone()),
                    ("workers", seg.workers.to_string()),
                    ("runs", seg.runs.len().to_string()),
                ],
            );
            out.push_complete(
                spans::EXEC_MERGE,
                0,
                2,
                us(seg.merge_begin_ns),
                us(seg.merge_end_ns.saturating_sub(seg.merge_begin_ns)),
                &[("label", seg.label.clone())],
            );
            for run in &seg.runs {
                let pid = run.worker as u64 + 1;
                let tid = run.index as u64 + 1;
                let args = [
                    ("index", run.index.to_string()),
                    ("seed", format!("{:#x}", run.seed)),
                    ("ok", run.ok.to_string()),
                ];
                out.push_complete(
                    spans::EXEC_QUEUED,
                    pid,
                    tid,
                    us(run.queued_ns),
                    us(run.started_ns.saturating_sub(run.queued_ns)),
                    &args,
                );
                out.push_complete(
                    spans::EXEC_RUN,
                    pid,
                    tid,
                    us(run.started_ns),
                    us(run.finished_ns.saturating_sub(run.started_ns)),
                    &args,
                );
                out.push_complete(
                    spans::EXEC_MERGE,
                    pid,
                    tid,
                    us(run.finished_ns),
                    us(run.merged_ns.saturating_sub(run.finished_ns)),
                    &args,
                );
            }
        }
    }
}

impl std::fmt::Debug for SweepTraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepTraceCollector")
            .field("segments", &self.segments.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_segment() -> SweepSegment {
        SweepSegment {
            label: "t".to_string(),
            workers: 2,
            begin_ns: 0,
            end_ns: 10_000,
            merge_begin_ns: 8_000,
            merge_end_ns: 10_000,
            runs: vec![
                RunLifecycle {
                    index: 0,
                    seed: 0xa,
                    worker: 0,
                    queued_ns: 0,
                    started_ns: 1_000,
                    finished_ns: 5_000,
                    merged_ns: 8_500,
                    ok: true,
                },
                RunLifecycle {
                    index: 1,
                    seed: 0xb,
                    worker: 1,
                    queued_ns: 0,
                    started_ns: 1_000,
                    finished_ns: 7_000,
                    merged_ns: 9_000,
                    ok: false,
                },
            ],
        }
    }

    #[test]
    fn utilization_computes_busy_and_stall() {
        let collector = SweepTraceCollector::new();
        collector.record_segment(synthetic_segment());
        let util = collector.utilization();
        assert_eq!(util.len(), 1);
        let seg = &util[0];
        assert_eq!(seg.runs, 2);
        assert_eq!(seg.wall_ns, 10_000);
        assert_eq!(seg.per_worker.len(), 2);
        assert_eq!(seg.per_worker[0].busy_ns, 4_000);
        assert!((seg.per_worker[0].busy_pct - 40.0).abs() < 1e-9);
        assert_eq!(seg.per_worker[1].busy_ns, 6_000);
        // Stalls: 8_500 - 5_000 = 3_500 and 9_000 - 7_000 = 2_000.
        assert_eq!(seg.merge_stall_total_ns, 5_500);
        assert_eq!(seg.merge_stall_max_ns, 3_500);
        let rendered = seg.render();
        assert!(rendered.contains("worker 0"), "{rendered}");
        assert!(rendered.contains("worker 1"), "{rendered}");
    }

    #[test]
    fn chrome_events_cover_every_lifecycle_phase() {
        let collector = SweepTraceCollector::new();
        collector.record_segment(synthetic_segment());
        let mut trace = ChromeTraceBuilder::new();
        collector.chrome_events(&mut trace);
        let doc = trace.build();
        // 1 sweep + 1 merge + 2 runs × 3 phases = 8 complete events.
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 8);
        // pid 0 = executor, pids 1–2 = the two workers.
        assert!(doc.contains("\"name\":\"worker-0\""));
        assert!(doc.contains("\"name\":\"worker-1\""));
        assert!(doc.contains(spans::EXEC_QUEUED));
        assert!(doc.contains(spans::EXEC_RUN));
        assert!(doc.contains(spans::EXEC_MERGE));
    }

    #[test]
    fn empty_collector_renders_nothing() {
        let collector = SweepTraceCollector::new();
        assert!(collector.segments().is_empty());
        assert!(collector.render().is_empty());
        let mut trace = ChromeTraceBuilder::new();
        collector.chrome_events(&mut trace);
        // Only the executor metadata events.
        assert_eq!(doc_complete_count(&trace.build()), 0);
    }

    fn doc_complete_count(doc: &str) -> usize {
        doc.matches("\"ph\":\"X\"").count()
    }
}

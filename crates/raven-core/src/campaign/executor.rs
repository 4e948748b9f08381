//! Parallel experiment-campaign executor.
//!
//! Every Monte-Carlo sweep in this reproduction — threshold training,
//! Table IV, Fig. 9, the ablations, generic campaigns — has the same
//! shape: `n` independent runs, each a pure function of a seed derived
//! from `(root seed, run index)`, merged **in run order**. That makes the
//! sweeps embarrassingly parallel *without* giving up determinism: this
//! executor fans runs over a scoped worker pool and slots each result by
//! its run index, so the merged output is bit-identical to a serial
//! execution regardless of worker count or scheduling.
//!
//! Guarantees:
//!
//! * **Deterministic ordering** — `SweepResult::outcomes[i]` is run `i`'s
//!   result; consumers fold in index order, exactly as the serial loops
//!   did.
//! * **Panic isolation** — a panicking run is caught (`catch_unwind`) and
//!   recorded as a [`RunError`] for its index; every other run completes.
//! * **Telemetry** — optional progress lines on stderr (runs completed,
//!   runs/sec, ETA) plus a final [`SweepStats`] with wall-clock and
//!   throughput, surfaced by the `raven-sim` CLI and the bench harnesses.

#![expect(
    clippy::disallowed_methods,
    reason = "sweep wall-time lands only in SweepStats.elapsed_s and stderr progress telemetry, never in merged per-run results"
)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use simbus::obs::{log, Metrics, Severity};

use super::trace::{RunLifecycle, SweepSegment, SweepTraceCollector};

/// Environment variable overriding the default worker count.
pub const WORKERS_ENV: &str = "RAVEN_WORKERS";

/// How a sweep is executed.
#[derive(Debug, Clone, Default)]
pub struct ExecutorConfig {
    /// Worker threads. `None` resolves to `$RAVEN_WORKERS` if set (a
    /// positive integer — anything else is an error, not a silent
    /// fallback), else `std::thread::available_parallelism()`.
    pub workers: Option<usize>,
    /// Emit progress/throughput lines to stderr while running.
    pub progress: bool,
    /// Optional sweep-trace collector recording each run's
    /// `queued → running → merged` lifecycle (see [`SweepTraceCollector`]).
    /// `None` (the default) takes no timestamps at all, keeping the
    /// executor's artifact output byte-identical to untraced runs.
    pub trace: Option<Arc<SweepTraceCollector>>,
}

impl ExecutorConfig {
    /// Serial execution (one worker, no progress output). The baseline the
    /// parallel output must be byte-identical to.
    pub fn serial() -> Self {
        ExecutorConfig { workers: Some(1), progress: false, trace: None }
    }

    /// A fixed worker count.
    pub fn with_workers(workers: usize) -> Self {
        ExecutorConfig { workers: Some(workers), progress: false, trace: None }
    }

    /// This config with `collector` recording every sweep's lifecycle.
    #[must_use]
    pub fn traced(mut self, collector: Arc<SweepTraceCollector>) -> Self {
        self.trace = Some(collector);
        self
    }

    /// The worker count this config resolves to (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics when `$RAVEN_WORKERS` is set but invalid (zero, negative,
    /// or not a number): a silently ignored override would run the sweep
    /// with an unintended worker count.
    pub fn resolved_workers(&self) -> usize {
        if let Some(workers) = self.workers {
            return workers.max(1);
        }
        match std::env::var(WORKERS_ENV) {
            Ok(raw) => match parse_workers(&raw) {
                Ok(workers) => workers,
                Err(e) => panic!("invalid {WORKERS_ENV}: {e}"),
            },
            Err(_) => std::thread::available_parallelism().map(usize::from).unwrap_or(1),
        }
    }
}

/// Parses a worker-count override (the `$RAVEN_WORKERS` format): a
/// positive integer, surrounding whitespace allowed.
pub fn parse_workers(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    match trimmed.parse::<usize>() {
        Ok(0) => Err(format!("`{trimmed}` — worker count must be at least 1")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("`{trimmed}` — expected a positive integer worker count")),
    }
}

/// A run that panicked instead of producing a result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunError {
    /// The run's index in the sweep (its slot in `outcomes`).
    pub index: usize,
    /// The seed the run executed under.
    pub seed: u64,
    /// The panic payload, as text.
    pub message: String,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run {} (seed {:#x}) panicked: {}", self.index, self.seed, self.message)
    }
}

/// Wall-clock/throughput summary of one sweep, plus the aggregated per-run
/// metrics.
///
/// `elapsed_s`/`runs_per_sec` are wall clock and vary run to run; `metrics`
/// is merged **in run order** from each run's deterministic registry, so it
/// is byte-identical for any worker count (serialize `metrics` alone when
/// byte-comparing artifacts).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepStats {
    /// Runs attempted.
    pub runs: usize,
    /// Runs that panicked.
    pub errors: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds.
    pub elapsed_s: f64,
    /// Completed runs per second.
    pub runs_per_sec: f64,
    /// Per-run metrics merged in run order (empty for jobs that record
    /// none; panicked runs contribute nothing).
    pub metrics: Metrics,
}

/// A sweep's outcome: one slot per run, in run order, plus stats.
#[derive(Debug)]
pub struct SweepResult<T> {
    /// `outcomes[i]` is run `i`'s result or its captured panic.
    pub outcomes: Vec<Result<T, RunError>>,
    /// Execution telemetry.
    pub stats: SweepStats,
}

impl<T> SweepResult<T> {
    /// Splits into successes (in run order) and errors (in run order).
    pub fn split(self) -> (Vec<T>, Vec<RunError>) {
        let mut ok = Vec::with_capacity(self.outcomes.len());
        let mut errors = Vec::new();
        for outcome in self.outcomes {
            match outcome {
                Ok(v) => ok.push(v),
                Err(e) => errors.push(e),
            }
        }
        (ok, errors)
    }

    /// All results in run order; panics listing every failed run if any
    /// run panicked. Use this where the serial code would have panicked
    /// anyway (e.g. training asserts fault-free runs).
    pub fn expect_all(self, what: &str) -> Vec<T> {
        let (ok, errors) = self.split();
        assert!(
            errors.is_empty(),
            "{what}: {} of {} runs failed:\n{}",
            errors.len(),
            errors.len() + ok.len(),
            errors.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        );
        ok
    }
}

/// Runs `n` independent jobs over a scoped worker pool and returns their
/// results **in run order**.
///
/// `seed_of(i)` names run `i`'s seed (recorded in [`RunError`]s and handed
/// to the job); `job(i, seed)` executes it. Jobs must be independent —
/// each receives only its index and seed, never another run's output —
/// which is what makes worker count and scheduling unobservable in the
/// merged result.
pub fn run_sweep<T, S, F>(
    label: &str,
    n: usize,
    config: &ExecutorConfig,
    seed_of: S,
    job: F,
) -> SweepResult<T>
where
    T: Send,
    S: Fn(usize) -> u64 + Sync,
    F: Fn(usize, u64) -> T + Sync,
{
    run_sweep_observed(label, n, config, seed_of, |i, seed, _metrics| job(i, seed))
}

/// [`run_sweep`] with per-run metrics aggregation: each job receives a
/// fresh [`Metrics`] registry, and completed runs' registries are merged
/// **in run order** into [`SweepStats::metrics`] — so sweep-level counters
/// and histograms (e.g. the Table IV detection-latency distribution) come
/// out byte-identical for any worker count. A panicked run's partial
/// registry is discarded along with its result.
pub fn run_sweep_observed<T, S, F>(
    label: &str,
    n: usize,
    config: &ExecutorConfig,
    seed_of: S,
    job: F,
) -> SweepResult<T>
where
    T: Send,
    S: Fn(usize) -> u64 + Sync,
    F: Fn(usize, u64, &mut Metrics) -> T + Sync,
{
    // One run's wall-clock lifecycle stamp (all zeros when untraced).
    struct RunStamp {
        seed: u64,
        worker: usize,
        started_ns: u64,
        finished_ns: u64,
    }
    // One run's slot: its outcome, private metrics registry, and stamp.
    type RunSlot<T> = (Result<T, RunError>, Metrics, RunStamp);

    let workers = config.resolved_workers().min(n.max(1));
    let started = Instant::now();
    let progress = Progress::new(label, n, config.progress);
    let trace = config.trace.clone();
    let now_ns = |t: &Option<Arc<SweepTraceCollector>>| t.as_ref().map_or(0, |c| c.now_ns());
    let sweep_begin_ns = now_ns(&trace);

    let run_one = |i: usize, worker: usize| -> RunSlot<T> {
        let seed = seed_of(i);
        let started_ns = now_ns(&trace);
        let mut metrics = Metrics::new();
        let outcome = catch_unwind(AssertUnwindSafe(|| job(i, seed, &mut metrics)))
            .map_err(|payload| RunError { index: i, seed, message: panic_text(&*payload) });
        if outcome.is_err() {
            metrics = Metrics::new();
        }
        let finished_ns = now_ns(&trace);
        progress.completed();
        (outcome, metrics, RunStamp { seed, worker, started_ns, finished_ns })
    };

    let slotted: Vec<RunSlot<T>> = if workers <= 1 {
        (0..n).map(|i| run_one(i, 0)).collect()
    } else {
        // Each worker keeps the runs it claimed and hands them back when it
        // joins; the merge scatters them into run order.
        let next = AtomicUsize::new(0);
        let (next_ref, run_one_ref) = (&next, &run_one);
        let claimed: Vec<Vec<(usize, RunSlot<T>)>> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    scope.spawn(move |_| {
                        let mut done = Vec::new();
                        loop {
                            let i = next_ref.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break done;
                            }
                            done.push((i, run_one_ref(i, worker)));
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("campaign worker")).collect()
        })
        .expect("campaign worker pool");
        let mut slots: Vec<Option<RunSlot<T>>> = (0..n).map(|_| None).collect();
        for (i, slot) in claimed.into_iter().flatten() {
            slots[i] = Some(slot);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("run {i} never ran")))
            .collect()
    };

    let merge_begin_ns = now_ns(&trace);
    let mut metrics = Metrics::new();
    let mut outcomes = Vec::with_capacity(n);
    let mut lifecycles = Vec::with_capacity(if trace.is_some() { n } else { 0 });
    for (outcome, run_metrics, stamp) in slotted {
        metrics.merge(&run_metrics);
        if let Some(collector) = &trace {
            lifecycles.push(RunLifecycle {
                index: lifecycles.len(),
                seed: stamp.seed,
                worker: stamp.worker,
                queued_ns: sweep_begin_ns,
                started_ns: stamp.started_ns,
                finished_ns: stamp.finished_ns,
                merged_ns: collector.now_ns(),
                ok: outcome.is_ok(),
            });
        }
        outcomes.push(outcome);
    }
    if let Some(collector) = &trace {
        let end_ns = collector.now_ns();
        collector.record_segment(SweepSegment {
            label: label.to_string(),
            workers,
            begin_ns: sweep_begin_ns,
            end_ns,
            merge_begin_ns,
            merge_end_ns: end_ns,
            runs: lifecycles,
        });
    }

    let elapsed_s = started.elapsed().as_secs_f64();
    let errors = outcomes.iter().filter(|o| o.is_err()).count();
    let stats = SweepStats {
        runs: n,
        errors,
        workers,
        elapsed_s,
        runs_per_sec: if elapsed_s > 0.0 { n as f64 / elapsed_s } else { f64::INFINITY },
        metrics,
    };
    progress.finish(&stats);
    SweepResult { outcomes, stats }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Throttled progress reporter (thread-safe, lock-free). Lines go through
/// the `RAVEN_LOG`-filtered log layer at `info`, so sweeps are silent by
/// default under `cargo test` and visible in the CLI (which raises the
/// default level to `info`) or with `RAVEN_LOG=info`.
struct Progress {
    label: String,
    total: usize,
    enabled: bool,
    done: AtomicUsize,
    started: Instant,
    last_print_ms: AtomicU64,
}

impl Progress {
    const PRINT_EVERY_MS: u64 = 500;

    fn new(label: &str, total: usize, enabled: bool) -> Self {
        Progress {
            label: label.to_string(),
            total,
            enabled: enabled && log::enabled(Severity::Info),
            done: AtomicUsize::new(0),
            started: Instant::now(),
            last_print_ms: AtomicU64::new(0),
        }
    }

    fn completed(&self) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.enabled || done == self.total {
            return; // the final line comes from finish()
        }
        let now_ms = self.started.elapsed().as_millis() as u64;
        let last = self.last_print_ms.load(Ordering::Relaxed);
        if now_ms.saturating_sub(last) < Self::PRINT_EVERY_MS {
            return;
        }
        // One winner per window; losers skip printing.
        if self
            .last_print_ms
            .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = done as f64 / elapsed.max(1e-9);
        let eta = (self.total - done) as f64 / rate.max(1e-9);
        log::emit(
            Severity::Info,
            &self.label,
            &format!("{}/{} runs ({:.1} runs/s, ETA {:.0} s)", done, self.total, rate, eta),
        );
    }

    fn finish(&self, stats: &SweepStats) {
        if self.enabled {
            log::emit(
                Severity::Info,
                &self.label,
                &format!(
                    "{} runs in {:.1} s ({:.1} runs/s, {} workers{})",
                    stats.runs,
                    stats.elapsed_s,
                    stats.runs_per_sec,
                    stats.workers,
                    if stats.errors > 0 {
                        format!(", {} FAILED", stats.errors)
                    } else {
                        String::new()
                    }
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds(i: usize) -> u64 {
        simbus::rng::derive_seed(99, &format!("exec-test-{i}"))
    }

    #[test]
    fn parallel_matches_serial_in_order() {
        let job = |i: usize, seed: u64| (i, seed.wrapping_mul(0x9e37_79b9));
        let serial = run_sweep("t", 64, &ExecutorConfig::serial(), seeds, job).expect_all("serial");
        for workers in [2, 3, 8] {
            let par = run_sweep("t", 64, &ExecutorConfig::with_workers(workers), seeds, job)
                .expect_all("parallel");
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn one_poisoned_run_yields_one_error_others_complete() {
        let result = run_sweep("t", 16, &ExecutorConfig::with_workers(4), seeds, |i, _seed| {
            assert!(i != 5, "poisoned run");
            i * 2
        });
        assert_eq!(result.stats.errors, 1);
        let (ok, errors) = result.split();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].index, 5);
        assert_eq!(errors[0].seed, seeds(5));
        assert!(errors[0].message.contains("poisoned run"));
        let expected: Vec<usize> = (0..16).filter(|i| *i != 5).map(|i| i * 2).collect();
        assert_eq!(ok, expected);
    }

    #[test]
    fn worker_resolution_prefers_explicit_count() {
        assert_eq!(ExecutorConfig::with_workers(3).resolved_workers(), 3);
        assert_eq!(ExecutorConfig::serial().resolved_workers(), 1);
        assert!(ExecutorConfig::default().resolved_workers() >= 1);
    }

    #[test]
    fn stats_count_runs_and_workers() {
        let r = run_sweep("t", 10, &ExecutorConfig::with_workers(32), seeds, |i, _| i);
        // Worker count is clamped to the number of runs.
        assert_eq!(r.stats.workers, 10);
        assert_eq!(r.stats.runs, 10);
        assert_eq!(r.stats.errors, 0);
        assert!(r.stats.elapsed_s >= 0.0);
        assert!(r.stats.metrics.is_empty(), "plain run_sweep records no metrics");
    }

    #[test]
    fn observed_sweep_aggregates_metrics_identically_for_any_worker_count() {
        let job = |i: usize, seed: u64, m: &mut Metrics| {
            m.inc("runs.completed");
            m.observe("run.index", i as f64);
            seed
        };
        let serial = run_sweep_observed("t", 20, &ExecutorConfig::serial(), seeds, job);
        assert_eq!(serial.stats.metrics.counter("runs.completed"), 20);
        assert_eq!(serial.stats.metrics.histogram("run.index").unwrap().count, 20);
        let reference = serde_json::to_string(&serial.stats.metrics).expect("serialize metrics");
        for workers in [2, 3, 8] {
            let par =
                run_sweep_observed("t", 20, &ExecutorConfig::with_workers(workers), seeds, job);
            let got = serde_json::to_string(&par.stats.metrics).expect("serialize metrics");
            assert_eq!(got, reference, "metrics diverged at workers={workers}");
        }
    }

    #[test]
    fn panicked_run_contributes_no_metrics() {
        let r = run_sweep_observed(
            "t",
            8,
            &ExecutorConfig::with_workers(4),
            seeds,
            |i, _seed, m: &mut Metrics| {
                m.inc("runs.completed");
                assert!(i != 3, "poisoned run");
                i
            },
        );
        assert_eq!(r.stats.errors, 1);
        // Run 3 incremented its counter before panicking; the partial
        // registry must not leak into the aggregate.
        assert_eq!(r.stats.metrics.counter("runs.completed"), 7);
    }

    #[test]
    fn parse_workers_accepts_positive_integers() {
        assert_eq!(parse_workers("1"), Ok(1));
        assert_eq!(parse_workers("16"), Ok(16));
        assert_eq!(parse_workers("  4 \n"), Ok(4));
    }

    #[test]
    fn parse_workers_rejects_zero_and_garbage() {
        for raw in ["0", " 0 ", "-2", "two", "1.5", "", "4x"] {
            let err = parse_workers(raw).expect_err(raw);
            assert!(err.contains(raw.trim()), "error must echo the bad value: {err}");
        }
    }

    #[test]
    fn traced_sweep_records_a_full_lifecycle_per_run() {
        for workers in [1, 4] {
            let collector = Arc::new(SweepTraceCollector::new());
            let config = ExecutorConfig::with_workers(workers).traced(Arc::clone(&collector));
            let result = run_sweep("traced", 12, &config, seeds, |i, _seed| {
                assert!(i != 7, "poisoned run");
                i
            });
            assert_eq!(result.stats.errors, 1);
            let segments = collector.segments();
            assert_eq!(segments.len(), 1, "workers={workers}");
            let seg = &segments[0];
            assert_eq!(seg.label, "traced");
            assert_eq!(seg.workers, workers);
            assert_eq!(seg.runs.len(), 12);
            for (i, run) in seg.runs.iter().enumerate() {
                assert_eq!(run.index, i);
                assert_eq!(run.seed, seeds(i));
                assert!(run.worker < workers);
                assert_eq!(run.ok, i != 7);
                // Monotone lifecycle within the segment envelope.
                assert!(run.queued_ns >= seg.begin_ns);
                assert!(run.started_ns >= run.queued_ns);
                assert!(run.finished_ns >= run.started_ns);
                assert!(run.merged_ns >= run.finished_ns);
                assert!(run.merged_ns <= seg.end_ns);
            }
            assert!(seg.merge_begin_ns <= seg.merge_end_ns);
            assert!(seg.merge_end_ns <= seg.end_ns);
            // Every worker row shows up in the utilization report.
            let util = collector.utilization();
            assert_eq!(util[0].per_worker.len(), workers);
        }
    }

    #[test]
    fn untraced_sweep_results_match_traced_ones() {
        let job = |i: usize, seed: u64| (i, seed.rotate_left(11));
        let plain =
            run_sweep("t", 24, &ExecutorConfig::with_workers(3), seeds, job).expect_all("plain");
        let collector = Arc::new(SweepTraceCollector::new());
        let traced_cfg = ExecutorConfig::with_workers(3).traced(collector);
        let traced = run_sweep("t", 24, &traced_cfg, seeds, job).expect_all("traced");
        assert_eq!(plain, traced, "tracing must not perturb sweep results");
    }

    #[test]
    fn explicit_worker_count_bypasses_the_env_override() {
        // `workers: Some(..)` must never consult `$RAVEN_WORKERS` — the
        // serial baselines in the determinism tests depend on it.
        assert_eq!(ExecutorConfig::serial().resolved_workers(), 1);
        assert_eq!(ExecutorConfig::with_workers(3).resolved_workers(), 3);
    }
}

//! Parallel experiment-campaign executor.
//!
//! Every Monte-Carlo sweep in this reproduction — threshold training,
//! Table IV, Fig. 9, the ablations, generic campaigns — has the same
//! shape: `n` independent runs, each a pure function of a seed derived
//! from `(root seed, run index)`, merged **in run order**. That makes the
//! sweeps embarrassingly parallel *without* giving up determinism: this
//! executor fans runs over a scoped worker pool and folds each finished
//! run into the result in run index order, so the merged output is
//! bit-identical to a serial execution regardless of worker count or
//! scheduling.
//!
//! Guarantees:
//!
//! * **Deterministic ordering** — [`run_sweep`], the one entry point,
//!   hands runs to its fold in index order, exactly as the serial loops
//!   did, and merges their metrics registries in the same order.
//! * **Streaming** — a run is folded and dropped as soon as its
//!   predecessors are in, and no run starts more than a few runs per
//!   worker ahead of the fold, so memory does not grow with the run count.
//! * **Panic isolation** — a panicking run is caught (`catch_unwind`) and
//!   recorded as a [`RunError`] for its index; every other run completes.
//! * **Telemetry** — optional progress lines on stderr (runs completed,
//!   runs/sec, ETA) plus a final [`SweepStats`] with wall-clock and
//!   throughput, surfaced by the `raven-sim` CLI and the benches.

#![expect(
    clippy::disallowed_methods,
    reason = "sweep wall-time lands only in SweepStats.elapsed_s and stderr progress telemetry, never in merged per-run results"
)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
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
    /// The run's index in the sweep.
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

/// What a [`run_sweep`] returns beside its fold: the runs that panicked,
/// in run order, and the stats.
#[derive(Debug)]
pub struct FoldedSweep {
    /// Every run that panicked instead of reaching the fold.
    pub errors: Vec<RunError>,
    /// Execution telemetry.
    pub stats: SweepStats,
}

impl FoldedSweep {
    /// The stats; panics listing every failed run if any run panicked.
    /// Use this where the serial code would have panicked anyway (e.g.
    /// training asserts fault-free runs).
    pub fn expect_all(self, what: &str) -> SweepStats {
        assert_all_ran(what, &self.errors, self.stats.runs);
        self.stats
    }
}

fn assert_all_ran(what: &str, errors: &[RunError], runs: usize) {
    assert!(
        errors.is_empty(),
        "{what}: {} of {runs} runs failed:\n{}",
        errors.len(),
        errors.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

/// Runs `n` independent jobs over a scoped worker pool and folds their
/// results **in run order** as they finish.
///
/// `seed_of(i)` names run `i`'s seed (recorded in [`RunError`]s and handed
/// to the job); `job(i, seed, metrics)` executes it and may record into
/// `metrics`, a fresh registry of its own (a job that runs a session
/// merges the session's registry into it). Jobs must be independent —
/// each receives only its index and seed, never another run's output —
/// which is what makes worker count and scheduling unobservable in the
/// fold.
///
/// Workers hand each finished run to the calling thread, which calls
/// `fold(i, result)` for runs `0, 1, 2, …` as soon as every earlier run is
/// in, and merges the run's [`Metrics`] into [`SweepStats::metrics`] at the
/// same point, so sweep-level counters and histograms come out
/// byte-identical for any worker count. Only runs that finish ahead of a
/// predecessor still running wait in a buffer; every other run's result
/// and registry are folded and dropped at once. A worker starts run `i`
/// only once run `i − 4·workers` is folded, so at most `4·workers` runs are
/// running or waiting at any time, however slow one of them is: a sweep's
/// memory does not grow with its run count unless `fold` keeps what it is
/// given (a caller that wants a `Vec` pushes to one). A panicked run is
/// kept out of the fold, its partial registry is discarded, and it is
/// returned as a [`RunError`] in [`FoldedSweep::errors`].
pub fn run_sweep<T, S, F, G>(
    label: &str,
    n: usize,
    config: &ExecutorConfig,
    seed_of: S,
    job: F,
    mut fold: G,
) -> FoldedSweep
where
    T: Send,
    S: Fn(usize) -> u64 + Sync,
    F: Fn(usize, u64, &mut Metrics) -> T + Sync,
    G: FnMut(usize, T),
{
    // One run's wall-clock lifecycle stamp (all zeros when untraced).
    struct RunStamp {
        index: usize,
        seed: u64,
        worker: usize,
        started_ns: u64,
        finished_ns: u64,
    }
    // One finished run: its outcome, private metrics registry, and stamp.
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
        let finished_ns = now_ns(&trace);
        progress.completed();
        (outcome, metrics, RunStamp { index: i, seed, worker, started_ns, finished_ns })
    };

    let mut metrics = Metrics::new();
    let mut errors = Vec::new();
    let mut lifecycles = Vec::with_capacity(if trace.is_some() { n } else { 0 });
    let mut merge_begin_ns = None;
    // Folds the next run in run order.
    let mut merge = |(outcome, run_metrics, stamp): RunSlot<T>| {
        let ok = outcome.is_ok();
        match outcome {
            Ok(value) => {
                metrics.merge(&run_metrics);
                fold(stamp.index, value);
            }
            Err(error) => errors.push(error),
        }
        if let Some(collector) = &trace {
            let merged_ns = collector.now_ns();
            merge_begin_ns.get_or_insert(merged_ns);
            lifecycles.push(RunLifecycle {
                index: stamp.index,
                seed: stamp.seed,
                worker: stamp.worker,
                queued_ns: sweep_begin_ns,
                started_ns: stamp.started_ns,
                finished_ns: stamp.finished_ns,
                merged_ns,
                ok,
            });
        }
    };

    if workers <= 1 {
        for i in 0..n {
            merge(run_one(i, 0));
        }
    } else {
        // Runs started but not yet folded, at most.
        let window = 4 * workers;
        let next = AtomicUsize::new(0);
        // Runs folded so far. It publishes no other data, so every access
        // is `Relaxed`.
        let folded = AtomicUsize::new(0);
        let (next_ref, folded_ref, run_one_ref) = (&next, &folded, &run_one);
        let (sender, finished) = mpsc::channel::<RunSlot<T>>();
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let sender = sender.clone();
                scope.spawn(move || loop {
                    let i = next_ref.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // Wait while run `i` is `window` or more past the fold:
                    // only a run slower than the `window` after it makes a
                    // worker wait.
                    while i >= folded_ref.load(Ordering::Relaxed).saturating_add(window) {
                        std::thread::sleep(std::time::Duration::from_micros(100));
                    }
                    // A closed channel means the merge unwound: stop claiming.
                    if sender.send(run_one_ref(i, worker)).is_err() {
                        break;
                    }
                });
            }
            drop(sender);
            // Frees every waiting worker once the merge ends, also when it
            // unwinds, so the scope can join them.
            let _release = ReleaseOnDrop(folded_ref);
            // `early[k]` holds run `merged + k` once it is in; the front is
            // folded as soon as it arrives.
            let mut early: VecDeque<Option<RunSlot<T>>> = VecDeque::new();
            let mut merged = 0;
            for slot in finished {
                let offset = slot.2.index - merged;
                if early.len() <= offset {
                    early.resize_with(offset + 1, || None);
                }
                early[offset] = Some(slot);
                while let Some(slot) = early.front_mut().and_then(Option::take) {
                    early.pop_front();
                    merge(slot);
                    merged += 1;
                }
                folded_ref.store(merged, Ordering::Relaxed);
            }
            assert_eq!(merged, n, "run {merged} never ran");
        });
    }

    if let Some(collector) = &trace {
        let end_ns = collector.now_ns();
        collector.record_segment(SweepSegment {
            label: label.to_string(),
            workers,
            begin_ns: sweep_begin_ns,
            end_ns,
            merge_begin_ns: merge_begin_ns.unwrap_or(end_ns),
            merge_end_ns: end_ns,
            runs: lifecycles,
        });
    }

    let elapsed_s = started.elapsed().as_secs_f64();
    let stats = SweepStats {
        runs: n,
        errors: errors.len(),
        workers,
        elapsed_s,
        runs_per_sec: if elapsed_s > 0.0 { n as f64 / elapsed_s } else { f64::INFINITY },
        metrics,
    };
    progress.finish(&stats);
    FoldedSweep { errors, stats }
}

/// Sets the fold count a waiting worker compares against past every run.
struct ReleaseOnDrop<'a>(&'a AtomicUsize);

impl Drop for ReleaseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(usize::MAX, Ordering::Relaxed);
    }
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
        simbus::rng::splitmix64(99 ^ i as u64)
    }

    /// `job`'s `n` runs as one sweep, their results collected in run order.
    fn collect<T: Send>(
        label: &str,
        n: usize,
        config: &ExecutorConfig,
        job: impl Fn(usize, u64, &mut Metrics) -> T + Sync,
    ) -> (Vec<T>, FoldedSweep) {
        let mut results = Vec::new();
        let swept = run_sweep(label, n, config, seeds, job, |_, value| results.push(value));
        (results, swept)
    }

    #[test]
    fn parallel_matches_serial_in_order() {
        let job = |i: usize, seed: u64, _: &mut Metrics| (i, seed.wrapping_mul(0x9e37_79b9));
        let (serial, swept) = collect("t", 64, &ExecutorConfig::serial(), job);
        swept.expect_all("serial");
        for workers in [2, 3, 8] {
            let (par, swept) = collect("t", 64, &ExecutorConfig::with_workers(workers), job);
            swept.expect_all("parallel");
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    /// Every fourth run sleeps, so later runs finish first and wait in the
    /// merge buffer; run 9 panics after writing to its registry. The float
    /// sum and the last-write-wins gauge read the merge order.
    fn uneven_job(i: usize, seed: u64, m: &mut Metrics) -> usize {
        if i.is_multiple_of(4) {
            std::thread::sleep(std::time::Duration::from_millis(4));
        }
        m.inc("runs.completed");
        m.observe("run.index", i as f64 / 7.0);
        m.set_gauge("run.seed_low_bits", (seed & 0xffff) as f64);
        assert!(i != 9, "poisoned run");
        i
    }

    /// `uneven_job`'s 24-run `SweepStats::metrics`, as the executor that
    /// collected every run before merging serialized it on 1, 2 and 3
    /// workers.
    const UNEVEN_METRICS: &str = concat!(
        r#"{"counters":{"runs.completed":23},"gauges":{"run.seed_low_bits":65393.0},"#,
        r#""histograms":{"run.index":{"bounds":[1.0,2.0,5.0,10.0,20.0,50.0,100.0,200.0,500.0,1000.0],"#,
        r#""counts":[8,6,9,0,0,0,0,0,0,0,0],"count":23,"sum":38.142857142857146,"#,
        r#""min":0.0,"max":3.2857142857142856,"nonfinite":0}}}"#
    );

    #[test]
    fn fold_sees_runs_in_order_whatever_their_lengths() {
        let expected: Vec<usize> = (0..24).filter(|&i| i != 9).collect();
        for workers in [1, 2, 3] {
            let config = ExecutorConfig::with_workers(workers);
            let mut seen = Vec::new();
            let swept = run_sweep("t", 24, &config, seeds, uneven_job, |i, value| {
                assert_eq!(i, value);
                seen.push(i);
            });
            assert_eq!(seen, expected, "workers={workers}");
            assert_eq!(swept.stats.errors, 1);
            assert_eq!(swept.errors.len(), 1);
            assert_eq!((swept.errors[0].index, swept.errors[0].seed), (9, seeds(9)));
            assert!(swept.errors[0].message.contains("poisoned run"));
            let metrics = serde_json::to_string(&swept.stats.metrics).expect("serialize metrics");
            assert_eq!(metrics, UNEVEN_METRICS, "workers={workers}");
        }
    }

    #[test]
    fn no_run_starts_more_than_the_window_ahead_of_the_fold() {
        for workers in [2, 3] {
            let window = 4 * workers;
            // The highest run index started so far.
            let highest = AtomicUsize::new(0);
            let mut folded = 0;
            run_sweep(
                "t",
                10 * window,
                &ExecutorConfig::with_workers(workers),
                seeds,
                |i, _seed, _m| {
                    highest.fetch_max(i, Ordering::SeqCst);
                    if i % window == 0 {
                        // Time for the other workers to reach the window;
                        // the fold's check holds for any timing.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                },
                |i, ()| {
                    let started = highest.load(Ordering::SeqCst);
                    assert!(started < i + window, "run {started} started before run {i} folded");
                    folded += 1;
                },
            )
            .expect_all("window");
            assert_eq!(folded, 10 * window);
        }
    }

    #[test]
    #[should_panic(expected = "the fold refused run 5")]
    fn a_panicking_fold_unwinds_with_its_own_message() {
        let _ = run_sweep(
            "t",
            16,
            &ExecutorConfig::with_workers(2),
            seeds,
            |i, _seed, _m| i,
            |i, _| assert!(i != 5, "the fold refused run {i}"),
        );
    }

    #[test]
    fn one_poisoned_run_yields_one_error_others_complete() {
        let (ok, swept) = collect("t", 16, &ExecutorConfig::with_workers(4), |i, _seed, _m| {
            assert!(i != 5, "poisoned run");
            i * 2
        });
        assert_eq!(swept.stats.errors, 1);
        assert_eq!(swept.errors.len(), 1);
        assert_eq!(swept.errors[0].index, 5);
        assert_eq!(swept.errors[0].seed, seeds(5));
        assert!(swept.errors[0].message.contains("poisoned run"));
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
        let (_, swept) = collect("t", 10, &ExecutorConfig::with_workers(32), |i, _, _| i);
        let stats = swept.expect_all("stats");
        // Worker count is clamped to the number of runs.
        assert_eq!(stats.workers, 10);
        assert_eq!(stats.runs, 10);
        assert_eq!(stats.errors, 0);
        assert!(stats.elapsed_s >= 0.0);
        assert!(stats.metrics.is_empty(), "jobs that record nothing merge nothing");
    }

    #[test]
    fn sweep_metrics_merge_identically_for_any_worker_count() {
        let job = |i: usize, seed: u64, m: &mut Metrics| {
            m.inc("runs.completed");
            m.observe("run.index", i as f64);
            seed
        };
        let (_, serial) = collect("t", 20, &ExecutorConfig::serial(), job);
        assert_eq!(serial.stats.metrics.counter("runs.completed"), 20);
        assert_eq!(serial.stats.metrics.histogram("run.index").unwrap().count, 20);
        let reference = serde_json::to_string(&serial.stats.metrics).expect("serialize metrics");
        for workers in [2, 3, 8] {
            let (_, par) = collect("t", 20, &ExecutorConfig::with_workers(workers), job);
            let got = serde_json::to_string(&par.stats.metrics).expect("serialize metrics");
            assert_eq!(got, reference, "metrics diverged at workers={workers}");
        }
    }

    #[test]
    fn panicked_run_contributes_no_metrics() {
        let (_, swept) = collect("t", 8, &ExecutorConfig::with_workers(4), |i, _seed, m| {
            m.inc("runs.completed");
            assert!(i != 3, "poisoned run");
            i
        });
        assert_eq!(swept.stats.errors, 1);
        // Run 3 incremented its counter before panicking; the partial
        // registry must not leak into the aggregate.
        assert_eq!(swept.stats.metrics.counter("runs.completed"), 7);
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
            let (_, swept) = collect("traced", 12, &config, |i, _seed, _m| {
                assert!(i != 7, "poisoned run");
                i
            });
            assert_eq!(swept.stats.errors, 1);
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
        let job = |i: usize, seed: u64, _: &mut Metrics| (i, seed.rotate_left(11));
        let (plain, swept) = collect("t", 24, &ExecutorConfig::with_workers(3), job);
        swept.expect_all("plain");
        let collector = Arc::new(SweepTraceCollector::new());
        let traced_cfg = ExecutorConfig::with_workers(3).traced(collector);
        let (traced, swept) = collect("t", 24, &traced_cfg, job);
        swept.expect_all("traced");
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

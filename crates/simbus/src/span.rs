//! Hierarchical span tracing: a balanced span tree per run, and the one
//! wall-clock stage timer in the workspace.
//!
//! Every instrumented region opens a [`SpanGuard`] on a shared
//! [`SpanRecorder`], producing a tree of [`SpanRecord`]s (cycle → stage →
//! codec/verdict nests). The tree answers both "where did *this* run's
//! cycles go" (Chrome Trace Event JSON for Perfetto) and "how long does
//! each pipeline stage take" ([`SpanHandle::stage_stats`]: one
//! [`StageStats`] row per span path, the `--profile-json` sidecar schema).
//!
//! The determinism contract:
//!
//! * **Span boundaries are virtual-time** (`vt_begin`/`vt_end` in
//!   [`SimTime`]), so the tree *shape* and its virtual timeline are
//!   byte-identical across runs and worker counts
//!   ([`SpanHandle::deterministic_view`] pins exactly that surface).
//! * **Wall-clock durations are sidecar-only** (`wall_begin_ns`/`wall_ns`
//!   against a recorder-local epoch): they feed the Chrome trace and the
//!   p50/p99 path statistics, and must never be folded into an
//!   `EventLog`, `Metrics`, or any other byte-compared artifact.
//! * **Disabled is free**: a default [`SpanHandle`] holds no recorder, so
//!   every instrumentation site costs one `Option` check — no RNG draw,
//!   no allocation, no wall-clock read — and serialized artifacts are
//!   untouched (enforced by the golden/manifest guards).
//!
//! Guards close their span on `Drop`, so the tree stays balanced even
//! when an instrumented region returns early or unwinds.

#![expect(
    clippy::disallowed_methods,
    reason = "span wall durations are sidecar-only (Chrome traces, profile JSON, terminal reports); span boundaries and the deterministic view use virtual time exclusively"
)]
#![expect(
    clippy::disallowed_types,
    reason = "leaf lock: the recorder's Mutex is reachable only through the private fields of SpanHandle and SpanGuard, and whoever holds it calls only SpanRecorder methods, which lock nothing"
)]

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::obs::StageStats;
use crate::time::SimTime;

/// One recorded span: a named region with virtual-time boundaries and a
/// sidecar wall-clock duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Registered span name (`simbus::obs::spans`).
    pub name: &'static str,
    /// Index of the enclosing span in the recorder's arena, if nested.
    pub parent: Option<usize>,
    /// Nesting depth (0 = root).
    pub depth: usize,
    /// Virtual time when the span opened.
    pub vt_begin: SimTime,
    /// Virtual time when the span closed (== `vt_begin` until closed).
    pub vt_end: SimTime,
    /// Wall-clock offset of the open edge from the recorder's epoch (ns).
    pub wall_begin_ns: u64,
    /// Wall-clock duration (ns); 0 until closed.
    pub wall_ns: u64,
    /// Whether the span has been closed.
    pub closed: bool,
}

/// Arena of [`SpanRecord`]s plus the open-span stack of one run.
///
/// Spans append in open order, so a parent always precedes its children
/// and the arena doubles as a pre-order traversal of the tree.
#[derive(Debug)]
pub struct SpanRecorder {
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
    now_vt: SimTime,
    epoch: Instant,
    max_spans: usize,
    dropped: u64,
}

/// Hard cap on retained spans per recorder (~10 MB worst case); further
/// opens are counted in [`SpanRecorder::dropped`] instead of recorded.
pub const MAX_SPANS: usize = 1 << 18;

impl SpanRecorder {
    /// Creates an empty recorder whose wall-clock epoch is now.
    pub fn new() -> Self {
        Self {
            spans: Vec::new(),
            stack: Vec::new(),
            now_vt: SimTime::ZERO,
            epoch: Instant::now(),
            max_spans: MAX_SPANS,
            dropped: 0,
        }
    }

    /// Advances the recorder's virtual clock; subsequent open/close edges
    /// are stamped with this instant.
    pub fn set_time(&mut self, vt: SimTime) {
        self.now_vt = vt;
    }

    /// Opens a span under the currently open one. Returns its arena index,
    /// or `None` once the [`MAX_SPANS`] cap is reached (the drop is
    /// tallied; nesting of later spans is unaffected).
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if self.spans.len() >= self.max_spans {
            self.dropped += 1;
            return None;
        }
        let index = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            parent: self.stack.last().copied(),
            depth: self.stack.len(),
            vt_begin: self.now_vt,
            vt_end: self.now_vt,
            wall_begin_ns: self.elapsed_ns(),
            wall_ns: 0,
            closed: false,
        });
        self.stack.push(index);
        Some(index)
    }

    /// Opens a span attributed to the currently open one but *not* pushed
    /// onto the nesting stack, so it can outlive its parent (the
    /// mitigation window opens inside one detector verdict and closes many
    /// cycles later). Close it with [`SpanRecorder::close`] as usual.
    pub fn begin_floating(&mut self, name: &'static str) -> Option<usize> {
        if self.spans.len() >= self.max_spans {
            self.dropped += 1;
            return None;
        }
        let index = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            parent: self.stack.last().copied(),
            depth: self.stack.len(),
            vt_begin: self.now_vt,
            vt_end: self.now_vt,
            wall_begin_ns: self.elapsed_ns(),
            wall_ns: 0,
            closed: false,
        });
        Some(index)
    }

    /// Closes the span at `index`. For a stacked span this first closes any
    /// children still open above it (an early return may drop guards out of
    /// nesting order; the tree stays balanced regardless); a floating span
    /// seals directly. Closing an already-closed span is a no-op.
    pub fn close(&mut self, index: usize) {
        if self.stack.contains(&index) {
            while let Some(top) = self.stack.pop() {
                self.seal(top);
                if top == index {
                    break;
                }
            }
        } else {
            self.seal(index);
        }
    }

    /// Closes every span still open — stacked or floating (session
    /// teardown: e.g. a mitigation window that never saw the session end).
    pub fn finish(&mut self) {
        while let Some(top) = self.stack.pop() {
            self.seal(top);
        }
        for i in 0..self.spans.len() {
            if !self.spans[i].closed {
                self.seal(i);
            }
        }
    }

    fn seal(&mut self, index: usize) {
        let wall_end = self.elapsed_ns();
        let span = &mut self.spans[index];
        if !span.closed {
            span.closed = true;
            span.vt_end = self.now_vt;
            span.wall_ns = wall_end.saturating_sub(span.wall_begin_ns);
        }
    }

    fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Recorded spans, in open (pre-)order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Number of spans currently open.
    pub fn open_count(&self) -> usize {
        self.stack.len()
    }

    /// Spans refused because the arena hit [`MAX_SPANS`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The slash-joined name path of each span (`span.cycle/span.stage.
    /// detector/span.detector.verdict`), in arena order.
    pub fn paths(&self) -> Vec<String> {
        let mut paths: Vec<String> = Vec::with_capacity(self.spans.len());
        for span in &self.spans {
            let path = match span.parent {
                Some(p) => format!("{}/{}", paths[p], span.name),
                None => span.name.to_string(),
            };
            paths.push(path);
        }
        paths
    }
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new()
    }
}

/// A cloneable handle to an optional shared recorder.
///
/// `SpanHandle::default()` is the disabled handle: every method is a
/// near-free no-op and [`begin`](SpanHandle::begin) returns an inert
/// guard. [`SpanHandle::recording`] creates the live handle the CLI
/// installs when `--trace-out`/`--profile-json`/`profile` ask for spans.
#[derive(Debug, Clone, Default)]
pub struct SpanHandle {
    inner: Option<Arc<Mutex<SpanRecorder>>>,
}

impl SpanHandle {
    /// The disabled handle (same as `default()`).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A handle backed by a fresh shared recorder.
    pub fn recording() -> Self {
        Self { inner: Some(Arc::new(Mutex::new(SpanRecorder::new()))) }
    }

    /// `true` when spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Advances the recorder's virtual clock (no-op when disabled).
    pub fn set_time(&self, vt: SimTime) {
        if let Some(rec) = &self.inner {
            rec.lock().set_time(vt);
        }
    }

    /// Opens a span; the returned guard closes it on drop.
    pub fn begin(&self, name: &'static str) -> SpanGuard {
        match &self.inner {
            Some(rec) => {
                let index = rec.lock().begin(name);
                SpanGuard { rec: index.map(|i| (Arc::clone(rec), i)) }
            }
            None => SpanGuard { rec: None },
        }
    }

    /// Opens a floating span (see [`SpanRecorder::begin_floating`]): held
    /// across cycles without pinning the nesting stack.
    pub fn begin_floating(&self, name: &'static str) -> SpanGuard {
        match &self.inner {
            Some(rec) => {
                let index = rec.lock().begin_floating(name);
                SpanGuard { rec: index.map(|i| (Arc::clone(rec), i)) }
            }
            None => SpanGuard { rec: None },
        }
    }

    /// Closes every span still open.
    pub fn finish(&self) {
        if let Some(rec) = &self.inner {
            rec.lock().finish();
        }
    }

    /// Clones the recorded spans, in open order (empty when disabled).
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(rec) => rec.lock().spans().to_vec(),
            None => Vec::new(),
        }
    }

    /// Spans refused at the [`MAX_SPANS`] cap.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |rec| rec.lock().dropped())
    }

    /// The deterministic projection of the tree: name, depth, parent, and
    /// virtual-time boundaries (ns) — every field that must be
    /// byte-identical across runs and worker counts, and nothing
    /// wall-clock.
    pub fn deterministic_view(&self) -> Vec<(String, usize, Option<usize>, u64, u64)> {
        self.snapshot()
            .iter()
            .map(|s| {
                (s.name.to_string(), s.depth, s.parent, s.vt_begin.as_nanos(), s.vt_end.as_nanos())
            })
            .collect()
    }

    /// Wall-clock statistics per span path over the closed spans, in
    /// first-opened path order, keyed by the slash-joined path.
    pub fn stage_stats(&self) -> Vec<StageStats> {
        let Some(rec) = &self.inner else {
            return Vec::new();
        };
        let rec = rec.lock();
        let paths = rec.paths();
        // Vec, not a hash map: first-opened order is the report order and
        // must be deterministic (clippy.toml bans hash collections).
        let mut grouped: Vec<(String, Vec<u64>)> = Vec::new();
        for (span, path) in rec.spans().iter().zip(paths) {
            if !span.closed {
                continue;
            }
            match grouped.iter_mut().find(|(p, _)| *p == path) {
                Some((_, samples)) => samples.push(span.wall_ns),
                None => grouped.push((path, vec![span.wall_ns])),
            }
        }
        grouped
            .into_iter()
            .map(|(path, mut samples)| StageStats::from_samples_ns(path, &mut samples))
            .collect()
    }

    /// Emits the recorded tree as Chrome Trace complete events on one
    /// pid/tid track. Only closed spans are emitted; wall-clock open
    /// offsets and durations become `ts`/`dur` microseconds.
    pub fn chrome_events(&self, pid: u64, tid: u64, out: &mut ChromeTraceBuilder) {
        for span in self.snapshot() {
            if !span.closed {
                continue;
            }
            out.push_complete(
                span.name,
                pid,
                tid,
                span.wall_begin_ns as f64 / 1_000.0,
                span.wall_ns as f64 / 1_000.0,
                &[("vt_begin_ns", span.vt_begin.as_nanos().to_string())],
            );
        }
    }
}

/// RAII guard closing its span when dropped — including on early return
/// and unwind, which is what keeps the tree balanced.
#[derive(Debug)]
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    rec: Option<(Arc<Mutex<SpanRecorder>>, usize)>,
}

impl SpanGuard {
    /// An inert guard (what a disabled handle returns).
    pub fn inert() -> Self {
        Self { rec: None }
    }

    /// `true` when this guard holds a live span.
    pub fn is_recording(&self) -> bool {
        self.rec.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((rec, index)) = self.rec.take() {
            rec.lock().close(index);
        }
    }
}

/// Incremental builder for Chrome Trace Event Format JSON
/// (`{"traceEvents": […]}`), loadable in Perfetto and `chrome://tracing`.
///
/// The workspace builds offline against a JSON stub, so the builder
/// writes the (small, flat) event objects by hand: `ph:"X"` complete
/// events with `ts`/`dur` in microseconds, and `ph:"M"` metadata events
/// naming processes and threads.
#[derive(Debug, Default)]
pub struct ChromeTraceBuilder {
    events: Vec<String>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl ChromeTraceBuilder {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events queued so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Queues a `ph:"X"` complete event (`ts`/`dur` in microseconds).
    pub fn push_complete(
        &mut self,
        name: &str,
        pid: u64,
        tid: u64,
        ts_us: f64,
        dur_us: f64,
        args: &[(&str, String)],
    ) {
        let mut event = format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\
             \"ts\":{ts_us:.3},\"dur\":{dur_us:.3}",
            json_escape(name)
        );
        if !args.is_empty() {
            event.push_str(",\"args\":{");
            for (i, (k, v)) in args.iter().enumerate() {
                if i > 0 {
                    event.push(',');
                }
                event.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
            }
            event.push('}');
        }
        event.push('}');
        self.events.push(event);
    }

    /// Queues a `ph:"M"` `process_name` metadata event.
    pub fn set_process_name(&mut self, pid: u64, name: &str) {
        self.events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }

    /// Queues a `ph:"M"` `thread_name` metadata event.
    pub fn set_thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }

    /// Renders the final `{"traceEvents":[…]}` document.
    pub fn build(self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(event);
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::spans;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = SpanHandle::default();
        assert!(!h.is_enabled());
        let guard = h.begin(spans::CYCLE);
        assert!(!guard.is_recording());
        drop(guard);
        h.set_time(t(5));
        h.finish();
        assert!(h.snapshot().is_empty());
        assert!(h.stage_stats().is_empty());
        assert_eq!(h.dropped(), 0);
    }

    #[test]
    fn guards_nest_and_balance() {
        let h = SpanHandle::recording();
        h.set_time(t(1));
        {
            let _cycle = h.begin(spans::CYCLE);
            {
                let _stage = h.begin(spans::STAGE_CONSOLE);
                let _codec = h.begin(spans::TELEOP_ENCODE);
            }
            h.set_time(t(2));
        }
        let recorded = h.snapshot();
        assert_eq!(recorded.len(), 3);
        assert!(recorded.iter().all(|s| s.closed), "{recorded:?}");
        assert_eq!(recorded[0].name, spans::CYCLE);
        assert_eq!(recorded[0].parent, None);
        assert_eq!(recorded[1].parent, Some(0));
        assert_eq!(recorded[2].parent, Some(1));
        assert_eq!(recorded[2].depth, 2);
        // The inner guards dropped before set_time(2): vt_end pinned at 1 ms.
        assert_eq!(recorded[1].vt_end, t(1));
        // The cycle closed after the clock advanced.
        assert_eq!(recorded[0].vt_end, t(2));
    }

    #[test]
    fn early_return_closes_span_via_drop() {
        fn instrumented(h: &SpanHandle, bail: bool) -> u32 {
            let _span = h.begin(spans::STAGE_DETECTOR);
            if bail {
                return 1; // the guard drops here
            }
            2
        }
        let h = SpanHandle::recording();
        assert_eq!(instrumented(&h, true), 1);
        let recorded = h.snapshot();
        assert_eq!(recorded.len(), 1);
        assert!(recorded[0].closed, "early return must close the span");
    }

    #[test]
    fn out_of_order_close_seals_children() {
        let mut rec = SpanRecorder::new();
        let outer = rec.begin(spans::SESSION_RUN).unwrap();
        let _inner = rec.begin(spans::MITIGATION_WINDOW).unwrap();
        // Closing the outer span first (e.g. its guard dropped while a
        // window guard is still held elsewhere) seals the child too.
        rec.close(outer);
        assert_eq!(rec.open_count(), 0);
        assert!(rec.spans().iter().all(|s| s.closed));
        // Double close is a no-op.
        rec.close(outer);
        assert_eq!(rec.spans().len(), 2);
    }

    #[test]
    fn floating_span_outlives_its_parent() {
        let h = SpanHandle::recording();
        h.set_time(t(1));
        let window;
        {
            let _verdict = h.begin(spans::DETECTOR_VERDICT);
            window = h.begin_floating(spans::MITIGATION_WINDOW);
        }
        // The verdict guard dropped; the floating window stays open.
        h.set_time(t(9));
        drop(window);
        let recorded = h.snapshot();
        assert_eq!(recorded.len(), 2);
        let verdict = &recorded[0];
        let win = &recorded[1];
        assert_eq!(verdict.name, spans::DETECTOR_VERDICT);
        assert_eq!(verdict.vt_end, t(1));
        assert_eq!(win.name, spans::MITIGATION_WINDOW);
        assert_eq!(win.parent, Some(0), "window attributed to the opening verdict");
        assert!(win.closed);
        assert_eq!(win.vt_end, t(9), "window spans cycles beyond the verdict");
    }

    #[test]
    fn finish_seals_floating_spans_too() {
        let h = SpanHandle::recording();
        let _w = h.begin_floating(spans::MITIGATION_WINDOW);
        h.finish();
        assert!(h.snapshot().iter().all(|s| s.closed));
    }

    #[test]
    fn finish_closes_everything_open() {
        let h = SpanHandle::recording();
        let _a = h.begin(spans::SESSION_BOOT);
        let _b = h.begin(spans::STAGE_PLANT);
        h.finish();
        assert!(h.snapshot().iter().all(|s| s.closed));
    }

    #[test]
    fn re_entrant_stage_produces_sibling_spans() {
        let h = SpanHandle::recording();
        let _cycle = h.begin(spans::CYCLE);
        for _ in 0..3 {
            let _verdict = h.begin(spans::DETECTOR_VERDICT);
        }
        let recorded = h.snapshot();
        assert_eq!(recorded.len(), 4);
        for s in &recorded[1..] {
            assert_eq!(s.parent, Some(0));
            assert_eq!(s.depth, 1);
        }
    }

    #[test]
    fn arena_cap_drops_and_counts() {
        let mut rec = SpanRecorder::new();
        rec.max_spans = 2;
        assert!(rec.begin(spans::CYCLE).is_some());
        assert!(rec.begin(spans::STAGE_LINK).is_some());
        assert!(rec.begin(spans::STAGE_PLANT).is_none());
        assert_eq!(rec.dropped(), 1);
        rec.finish();
        assert_eq!(rec.spans().len(), 2);
    }

    #[test]
    fn paths_join_parent_chain() {
        let h = SpanHandle::recording();
        {
            let _c = h.begin(spans::CYCLE);
            let _s = h.begin(spans::STAGE_CONSOLE);
            let _e = h.begin(spans::TELEOP_ENCODE);
        }
        let stats = h.stage_stats();
        let paths: Vec<&str> = stats.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "span.cycle",
                "span.cycle/span.stage.console",
                "span.cycle/span.stage.console/span.teleop.encode",
            ]
        );
    }

    #[test]
    fn path_stats_use_nearest_rank_percentiles() {
        // Synthesizes closed root spans with known wall durations (µs) by
        // sealing manually, and returns the one path's row.
        let stats_of = |durations_us: &[u64]| {
            let mut rec = SpanRecorder::new();
            for &us in durations_us {
                let idx = rec.begin(spans::EXEC_RUN).unwrap();
                rec.close(idx);
                rec.spans[idx].wall_ns = us * 1_000;
            }
            let h = SpanHandle { inner: Some(Arc::new(Mutex::new(rec))) };
            let stats = h.stage_stats();
            assert_eq!(stats.len(), 1);
            assert_eq!(stats[0].name, "span.exec.run");
            stats[0].clone()
        };

        // 10 samples: p50 is rank ceil(5) = 5 µs; p99 is rank ceil(9.9) =
        // 10, the maximum — small windows never under-report.
        let ten = stats_of(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 100]);
        assert_eq!(ten.count, 10);
        assert!((ten.p50_us - 5.0).abs() < 1e-9, "{ten:?}");
        assert!((ten.p99_us - 100.0).abs() < 1e-9, "{ten:?}");
        assert!((ten.mean_us - 14.5).abs() < 1e-9, "{ten:?}");
        assert!((ten.min_us - 1.0).abs() < 1e-9);
        assert!((ten.max_us - 100.0).abs() < 1e-9);

        // 67 samples: p99 is rank ceil(66.33) = 67, the maximum (rounding
        // the rank down would report 66 µs).
        let sixty_seven: Vec<u64> = (1..=67).collect();
        let row = stats_of(&sixty_seven);
        assert!((row.p99_us - 67.0).abs() < 1e-9, "{row:?}");

        // A single sample is every statistic of itself.
        let single = stats_of(&[5]);
        assert_eq!(single.count, 1);
        for v in [single.mean_us, single.min_us, single.max_us, single.p50_us, single.p99_us] {
            assert!((v - 5.0).abs() < 1e-9, "{single:?}");
        }
    }

    #[test]
    fn deterministic_view_excludes_wall_clock() {
        let h = SpanHandle::recording();
        h.set_time(t(3));
        {
            let _c = h.begin(spans::CYCLE);
            h.set_time(t(4));
        }
        let view = h.deterministic_view();
        assert_eq!(view, vec![("span.cycle".to_string(), 0, None, 3_000_000, 4_000_000)]);
    }

    fn field<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
        v.get(key).unwrap_or_else(|| panic!("missing field {key}: {v:?}"))
    }

    fn as_num(v: &serde_json::Value) -> f64 {
        match v {
            serde_json::Value::I64(i) => *i as f64,
            serde_json::Value::U64(u) => *u as f64,
            serde_json::Value::F64(f) => *f,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn as_str(v: &serde_json::Value) -> &str {
        match v {
            serde_json::Value::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    #[test]
    fn chrome_trace_document_is_valid_json_shape() {
        let h = SpanHandle::recording();
        {
            let _c = h.begin(spans::CYCLE);
            let _s = h.begin(spans::STAGE_FEEDBACK);
        }
        let mut trace = ChromeTraceBuilder::new();
        trace.set_process_name(1, "session");
        trace.set_thread_name(1, 1, "sim");
        h.chrome_events(1, 1, &mut trace);
        assert_eq!(trace.len(), 4);
        let doc = trace.build();
        let parsed: serde_json::Value = serde_json::from_str(&doc).expect("valid JSON");
        let serde_json::Value::Seq(events) = field(&parsed, "traceEvents") else {
            panic!("traceEvents is not an array: {parsed:?}");
        };
        assert_eq!(events.len(), 4);
        let complete: Vec<_> = events.iter().filter(|e| as_str(field(e, "ph")) == "X").collect();
        assert_eq!(complete.len(), 2);
        for e in complete {
            assert!(as_num(field(e, "ts")) >= 0.0, "{e:?}");
            assert!(as_num(field(e, "dur")) >= 0.0, "{e:?}");
            assert!((as_num(field(e, "pid")) - 1.0).abs() < 1e-9);
            assert!((as_num(field(e, "tid")) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn json_escaping_handles_quotes_and_control() {
        let mut trace = ChromeTraceBuilder::new();
        trace.push_complete("a\"b\\c\nd", 0, 0, 0.0, 1.0, &[]);
        let doc = trace.build();
        let parsed: serde_json::Value = serde_json::from_str(&doc).expect("valid JSON");
        let serde_json::Value::Seq(events) = field(&parsed, "traceEvents") else {
            panic!("traceEvents is not an array: {parsed:?}");
        };
        assert_eq!(as_str(field(&events[0], "name")), "a\"b\\c\nd");
    }
}

//! Time-series trace recording.
//!
//! Experiments log named scalar signals against virtual time — exactly what
//! the paper's validation does when it compares model trajectories against
//! robot trajectories (Fig. 8) or plots USB packet bytes over a run (Fig. 5).

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// A sample violated its signal's time ordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfOrder {
    /// Signal the sample was destined for.
    pub signal: String,
    /// Timestamp of the signal's latest accepted sample.
    pub last: SimTime,
    /// Timestamp of the rejected sample.
    pub attempted: SimTime,
}

impl fmt::Display for OutOfOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace for {} must be recorded in time order (last sample at {}, got {})",
            self.signal, self.last, self.attempted
        )
    }
}

impl std::error::Error for OutOfOrder {}

/// One sample of a named signal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Virtual timestamp.
    pub time: SimTime,
    /// Signal value.
    pub value: f64,
}

/// Records named scalar signals over virtual time.
///
/// # Example
///
/// ```
/// use simbus::{SimTime, TraceRecorder};
///
/// let mut trace = TraceRecorder::new();
/// trace.record("jpos1", SimTime::from_nanos(0), 0.1);
/// trace.record("jpos1", SimTime::from_nanos(1_000_000), 0.2);
/// assert_eq!(trace.values("jpos1"), vec![0.1, 0.2]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceRecorder {
    signals: BTreeMap<String, Vec<Sample>>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample to a signal (creating the signal on first use).
    ///
    /// # Panics
    ///
    /// Panics — in **all** builds — if samples for one signal go backwards
    /// in time. A time-reversed trace would silently corrupt every
    /// downstream statistic (`max_abs_step`, the detector thresholds, the
    /// flight-recorder window), so it is a hard error; use
    /// [`try_record`](Self::try_record) to handle it without panicking.
    #[expect(
        clippy::panic,
        reason = "documented fail-fast: a time-reversed sample would corrupt every downstream \
                  statistic; callers who want fallibility use try_record"
    )]
    pub fn record(&mut self, signal: &str, time: SimTime, value: f64) {
        if let Err(e) = self.try_record(signal, time, value) {
            panic!("{e}");
        }
    }

    /// Appends a sample to a signal, rejecting time-reversed samples.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfOrder`] (and records nothing) when `time` precedes the
    /// signal's latest sample.
    pub fn try_record(
        &mut self,
        signal: &str,
        time: SimTime,
        value: f64,
    ) -> Result<(), OutOfOrder> {
        let series = match self.signals.get_mut(signal) {
            Some(s) => s,
            None => self.signals.entry(signal.to_string()).or_default(),
        };
        if let Some(last) = series.last() {
            if last.time > time {
                return Err(OutOfOrder {
                    signal: signal.to_string(),
                    last: last.time,
                    attempted: time,
                });
            }
        }
        series.push(Sample { time, value });
        Ok(())
    }

    /// All samples of a signal, in time order. Empty if never recorded.
    pub fn samples(&self, signal: &str) -> &[Sample] {
        self.signals.get(signal).map_or(&[], Vec::as_slice)
    }

    /// Just the values of a signal, in time order.
    pub fn values(&self, signal: &str) -> Vec<f64> {
        self.samples(signal).iter().map(|s| s.value).collect()
    }

    /// Names of all recorded signals, sorted.
    pub fn signal_names(&self) -> Vec<&str> {
        self.signals.keys().map(String::as_str).collect()
    }

    /// Number of samples of a signal.
    pub fn len(&self, signal: &str) -> usize {
        self.samples(signal).len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.signals.is_empty()
    }

    /// Last value of a signal, if any.
    pub fn last(&self, signal: &str) -> Option<f64> {
        self.samples(signal).last().map(|s| s.value)
    }

    /// Maximum absolute first difference of a signal — the "instant
    /// velocity" statistic the detector thresholds (paper §IV.C).
    pub fn max_abs_step(&self, signal: &str) -> Option<f64> {
        let s = self.samples(signal);
        if s.len() < 2 {
            return None;
        }
        Some(s.windows(2).map(|w| (w[1].value - w[0].value).abs()).fold(0.0, f64::max))
    }

    /// Renders the trace as CSV with a shared, merged time column. Signals
    /// missing a sample at some timestamp get an empty cell.
    pub fn to_csv(&self) -> String {
        let names: Vec<&String> = self.signals.keys().collect();
        let mut times: Vec<SimTime> =
            self.signals.values().flat_map(|s| s.iter().map(|x| x.time)).collect();
        times.sort_unstable();
        times.dedup();

        let mut out = String::from("time_ms");
        for n in &names {
            out.push(',');
            out.push_str(n);
        }
        out.push('\n');

        // Per-signal cursor walk over the merged timeline.
        let mut cursors = vec![0usize; names.len()];
        for t in &times {
            out.push_str(&format!("{:.6}", t.as_millis_f64()));
            for (i, n) in names.iter().enumerate() {
                let series = &self.signals[*n];
                out.push(',');
                if cursors[i] < series.len() && series[cursors[i]].time == *t {
                    out.push_str(&format!("{}", series[cursors[i]].value));
                    cursors[i] += 1;
                }
            }
            out.push('\n');
        }
        out
    }

    /// Extracts, per signal, the samples at or after `from` — the flight
    /// recorder's "last N ms" window. Signals with no samples in the window
    /// map to empty vectors.
    pub fn window_from(&self, from: SimTime) -> BTreeMap<String, Vec<Sample>> {
        self.signals
            .iter()
            .map(|(name, series)| {
                let start = series.partition_point(|s| s.time < from);
                (name.clone(), series[start..].to_vec())
            })
            .collect()
    }

    /// Merges another recorder's signals into this one.
    ///
    /// # Panics
    ///
    /// Panics if both recorders contain the same signal name (merging would
    /// interleave two time-lines).
    pub fn merge(&mut self, other: TraceRecorder) {
        for (name, series) in other.signals {
            assert!(!self.signals.contains_key(&name), "duplicate signal {name} in trace merge");
            self.signals.insert(name, series);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn record_and_query() {
        let mut tr = TraceRecorder::new();
        assert!(tr.is_empty());
        tr.record("a", t(0), 1.0);
        tr.record("a", t(1), 2.0);
        tr.record("b", t(0), -1.0);
        assert_eq!(tr.values("a"), vec![1.0, 2.0]);
        assert_eq!(tr.len("b"), 1);
        assert_eq!(tr.last("a"), Some(2.0));
        assert_eq!(tr.signal_names(), vec!["a", "b"]);
        assert!(tr.values("missing").is_empty());
        assert_eq!(tr.last("missing"), None);
    }

    #[test]
    fn max_abs_step_finds_jump() {
        let mut tr = TraceRecorder::new();
        for (i, v) in [0.0, 0.1, 0.2, 5.0, 5.1].iter().enumerate() {
            tr.record("x", t(i as u64), *v);
        }
        let step = tr.max_abs_step("x").unwrap();
        assert!((step - 4.8).abs() < 1e-12);
        assert_eq!(tr.max_abs_step("missing"), None);
        let mut single = TraceRecorder::new();
        single.record("y", t(0), 1.0);
        assert_eq!(single.max_abs_step("y"), None);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut tr = TraceRecorder::new();
        tr.record("a", t(0), 1.0);
        tr.record("b", t(1), 2.0);
        let csv = tr.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_ms,a,b");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("0.000000,1,"));
        assert!(lines[2].starts_with("1.000000,,2"));
    }

    #[test]
    fn merge_disjoint_signals() {
        let mut a = TraceRecorder::new();
        a.record("x", t(0), 1.0);
        let mut b = TraceRecorder::new();
        b.record("y", t(0), 2.0);
        a.merge(b);
        assert_eq!(a.signal_names(), vec!["x", "y"]);
    }

    #[test]
    fn try_record_rejects_time_reversal_and_keeps_series_intact() {
        let mut tr = TraceRecorder::new();
        tr.record("x", t(5), 1.0);
        let err = tr.try_record("x", t(3), 2.0).unwrap_err();
        assert_eq!(err.signal, "x");
        assert_eq!(err.last, t(5));
        assert_eq!(err.attempted, t(3));
        assert!(err.to_string().contains("time order"));
        // The rejected sample was not recorded; the series still accepts
        // in-order samples (equal timestamps included).
        assert_eq!(tr.len("x"), 1);
        tr.try_record("x", t(5), 3.0).expect("equal timestamp is in order");
        tr.try_record("x", t(6), 4.0).expect("later timestamp is in order");
        assert_eq!(tr.values("x"), vec![1.0, 3.0, 4.0]);
        // Ordering is per signal: an earlier time on another signal is fine.
        tr.try_record("y", t(0), 0.0).expect("fresh signal starts anywhere");
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn record_panics_on_time_reversal_in_all_builds() {
        let mut tr = TraceRecorder::new();
        tr.record("x", t(5), 1.0);
        tr.record("x", t(3), 2.0);
    }

    #[test]
    fn window_from_slices_every_signal() {
        let mut tr = TraceRecorder::new();
        for ms in 0..10 {
            tr.record("a", t(ms), ms as f64);
        }
        tr.record("b", t(1), 1.0);
        let window = tr.window_from(t(7));
        assert_eq!(window["a"].len(), 3);
        assert_eq!(window["a"][0].time, t(7));
        assert!(window["b"].is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate signal")]
    fn merge_conflicting_signal_panics() {
        let mut a = TraceRecorder::new();
        a.record("x", t(0), 1.0);
        let mut b = TraceRecorder::new();
        b.record("x", t(0), 2.0);
        a.merge(b);
    }
}

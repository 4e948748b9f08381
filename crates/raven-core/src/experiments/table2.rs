//! Table II — performance overhead of the malicious system-call wrappers.
//!
//! The paper times 50,000 `write(2)` invocations in the RAVEN process under
//! three configurations: baseline, with the logging wrapper, and with the
//! injection wrapper (Table II, µs: baseline 0.9/12.7/1.3/0.2;
//! logging 7.9/38.1/20.0/7.5; injection 1.5/6.7/3.6/1.1). We time the
//! simulated channel's write path identically. Absolute numbers differ —
//! there is no kernel crossing here — but the *ordering* (logging ≫
//! injection > baseline) and the headroom against the 1 ms real-time budget
//! are the reproduced claims.

#![expect(
    clippy::disallowed_methods,
    reason = "Table II *is* a latency measurement: per-stage wall time is the experiment's subject, reported separately from deterministic outputs"
)]

use std::time::Instant;

use raven_attack::{ActivationWindow, Corruption, InjectionWrapper, LoggingWrapper};
use raven_hw::{RobotState, UsbChannel, UsbCommandPacket};
use raven_math::stats::RunningStats;
use serde::{Deserialize, Serialize};
use simbus::{LinkConfig, Observer, SimLink, SimTime};

/// One row of Table II.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverheadRow {
    /// Configuration label.
    pub label: String,
    /// Minimum write time (µs).
    pub min_us: f64,
    /// Maximum write time (µs).
    pub max_us: f64,
    /// Mean write time (µs).
    pub mean_us: f64,
    /// Sample standard deviation (µs).
    pub std_us: f64,
    /// Timed writes.
    pub samples: u64,
}

/// The Table II reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Result {
    /// Baseline, logging, injection rows.
    pub rows: Vec<OverheadRow>,
}

impl Table2Result {
    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut out =
            String::from("TABLE II. PERFORMANCE OVERHEAD OF MALICIOUS SYSTEM CALL (reproduced)\n");
        out.push_str(&format!(
            "{:<28} {:>9} {:>9} {:>9} {:>9}\n",
            "Time (µs)", "Min", "Max", "Mean", "Std."
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<28} {:>9.3} {:>9.3} {:>9.3} {:>9.3}\n",
                r.label, r.min_us, r.max_us, r.mean_us, r.std_us
            ));
        }
        out
    }

    /// The mean overhead of a row relative to the baseline (µs).
    pub fn mean_overhead_us(&self, label: &str) -> Option<f64> {
        let base = self.rows.first()?.mean_us;
        self.rows.iter().find(|r| r.label == label).map(|r| r.mean_us - base)
    }
}

fn time_writes(channel: &mut UsbChannel, iters: u64) -> RunningStats {
    let pkt = UsbCommandPacket {
        state: RobotState::PedalDown,
        watchdog: true,
        dac: [1200, -800, 400, 100, 0, 0, 0, 0],
    };
    let bytes = pkt.encode().to_vec();
    let mut stats = RunningStats::new();
    let mut obs = Observer::default();
    // Warm-up to fault in code paths and allocator state. Every write gets
    // a fresh copy of the packet: the chain edits its buffer in place.
    for _ in 0..1000 {
        let _ = channel.write(&mut bytes.clone(), SimTime::ZERO, None, &mut obs);
    }
    for _ in 0..iters {
        let mut buf = bytes.clone();
        let start = Instant::now();
        let action = channel.write(&mut buf, SimTime::ZERO, None, &mut obs);
        let elapsed = start.elapsed();
        std::hint::black_box((action, buf));
        stats.push(elapsed.as_secs_f64() * 1e6);
    }
    stats
}

/// Runs the Table II measurement with `iters` timed writes per
/// configuration (the paper uses 50,000).
///
/// # Panics
///
/// Panics if `iters` is zero.
pub fn run_table2(iters: u64) -> Table2Result {
    assert!(iters > 0, "need at least one timed write");
    let mut rows = Vec::new();

    // Baseline: empty interceptor chain.
    let mut channel = UsbChannel::new();
    let stats = time_writes(&mut channel, iters);
    rows.push(row("Baseline System Call", &stats));

    // Logging wrapper: process/fd check + copy + UDP exfiltration.
    let mut channel = UsbChannel::new();
    let link = SimLink::new(LinkConfig::lan(), 7);
    channel.install(LoggingWrapper::new().with_exfiltration(link));
    let stats = time_writes(&mut channel, iters);
    rows.push(row("With Malicious Wrapper: Logging", &stats));

    // Injection wrapper: process/fd check + trigger check + byte overwrite.
    let mut channel = UsbChannel::new();
    channel.install(InjectionWrapper::pedal_down_trigger(
        Corruption::AddDacWord { channel: 0, delta: 50 },
        ActivationWindow::immediate_persistent(),
    ));
    let stats = time_writes(&mut channel, iters);
    rows.push(row("With Malicious Wrapper: Injection", &stats));

    Table2Result { rows }
}

fn row(label: &str, stats: &RunningStats) -> OverheadRow {
    OverheadRow {
        label: label.to_string(),
        min_us: stats.min(),
        max_us: stats.max(),
        mean_us: stats.mean(),
        std_us: stats.sample_std(),
        samples: stats.count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_ordering_matches_paper() {
        // Small sample for test speed; the bench uses 50,000.
        let result = run_table2(3_000);
        assert_eq!(result.rows.len(), 3);
        let base = result.rows[0].mean_us;
        let logging = result.rows[1].mean_us;
        let injection = result.rows[2].mean_us;
        assert!(
            logging > injection,
            "logging ({logging:.3} µs) must cost more than injection ({injection:.3} µs)"
        );
        assert!(
            injection >= base,
            "injection ({injection:.3} µs) must not be cheaper than baseline ({base:.3} µs)"
        );
        // Everything far below the 1 ms real-time budget.
        assert!(logging < 1000.0, "write path must stay well under 1 ms");
    }

    #[test]
    fn render_contains_rows() {
        // Hand-made rows with exactly representable means: the timing
        // claims live in `overhead_ordering_matches_paper`, so this test
        // reads no clock.
        let fixed = |label: &str, mean_us: f64| OverheadRow {
            label: label.to_string(),
            min_us: 0.25,
            max_us: 4.0,
            mean_us,
            std_us: 0.5,
            samples: 200,
        };
        let result = Table2Result {
            rows: vec![
                fixed("Baseline System Call", 0.5),
                fixed("With Malicious Wrapper: Logging", 2.75),
                fixed("With Malicious Wrapper: Injection", 0.625),
            ],
        };
        let table = result.render();
        for label in ["Baseline System Call", "Logging", "Injection"] {
            assert!(table.contains(label), "{label} missing:\n{table}");
        }
        assert_eq!(result.mean_overhead_us("Baseline System Call"), Some(0.0));
        assert_eq!(result.mean_overhead_us("With Malicious Wrapper: Logging"), Some(2.25));
        assert_eq!(result.mean_overhead_us("With Malicious Wrapper: Injection"), Some(0.125));
        assert_eq!(result.mean_overhead_us("No Such Row"), None);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_iters_panics() {
        let _ = run_table2(0);
    }
}

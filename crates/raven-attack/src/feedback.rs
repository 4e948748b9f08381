//! Read-path eavesdropping and motion-aware triggering.
//!
//! The paper notes that the same byte-level analysis applied to the `write`
//! stream "can be done on the data collected from the read system calls to
//! eavesdrop on the feedback received from motor encoders" (§III.B.2). This
//! module implements that direction:
//!
//! * [`FeedbackLogger`] — the read-path twin of the logging wrapper;
//! * [`encoder_activity`] — recovers a per-packet motion-activity signal
//!   from raw feedback bytes, without knowing the packet layout (the
//!   attacker hypothesizes 3-byte little-endian words and measures their
//!   frame-to-frame deltas);
//! * [`GatedInjection`] — a sharper trigger than Byte 0 alone: inject only
//!   when the robot is in Pedal Down *and the encoders show active motion*,
//!   i.e. while the surgeon is actually cutting — maximizing harm and
//!   minimizing the attacker's exposure window. Like the paper's one
//!   preloaded library, it hooks both calls: it watches `read` and strikes
//!   on `write`.

use raven_hw::channel::{Interceptor, WriteAction, WriteContext};
use serde::{Deserialize, Serialize};

use crate::wrappers::{Corruption, InjectionWrapper, LoggedPacket};

/// Read-path eavesdropper: records every feedback buffer into the capture
/// it owns.
#[derive(Debug, Default)]
pub struct FeedbackLogger {
    log: Vec<LoggedPacket>,
}

impl FeedbackLogger {
    /// Interceptor name.
    pub const NAME: &'static str = "malicious-feedback-logger";

    /// Creates a logger with an empty capture.
    pub fn new() -> Self {
        Self::default()
    }

    /// The feedback packets captured so far, in read order.
    pub fn capture(&self) -> &[LoggedPacket] {
        &self.log
    }
}

impl Interceptor for FeedbackLogger {
    fn on_read(&mut self, buf: &mut Vec<u8>, ctx: &mut WriteContext<'_>) {
        self.log.push(LoggedPacket { time: ctx.time, seq: ctx.seq, bytes: buf.clone() });
    }

    fn name(&self) -> &str {
        Self::NAME
    }
}

/// Decodes a feedback buffer the way the attacker hypothesizes it into
/// `words`: byte 0 is status, the payload is consecutive 3-byte
/// little-endian signed words.
fn hypothesized_words(bytes: &[u8], words: &mut Vec<i32>) {
    let payload = &bytes[1..bytes.len().saturating_sub(1)];
    words.clear();
    words.extend(payload.chunks_exact(3).map(|c| {
        let raw = u32::from(c[0]) | u32::from(c[1]) << 8 | u32::from(c[2]) << 16;
        ((raw << 8) as i32) >> 8
    }));
}

/// Summed absolute word deltas between two frames (encoder counts per
/// packet), or `None` when their layouts differ.
fn activity(words: &[i32], prev: &[i32]) -> Option<f64> {
    (words.len() == prev.len())
        .then(|| words.iter().zip(prev).map(|(a, b)| f64::from((a - b).abs().min(1 << 20))).sum())
}

/// Per-packet motion activity: the summed absolute word deltas between
/// consecutive feedback packets (encoder counts per packet). High values =
/// the robot is moving.
pub fn encoder_activity(capture: &[LoggedPacket]) -> Vec<(simbus::SimTime, f64)> {
    let mut out = Vec::new();
    let (mut words, mut last) = (Vec::new(), Vec::new());
    for (i, pkt) in capture.iter().enumerate() {
        hypothesized_words(&pkt.bytes, &mut words);
        if i > 0 {
            if let Some(a) = activity(&words, &last) {
                out.push((pkt.time, a));
            }
        }
        std::mem::swap(&mut words, &mut last);
    }
    out
}

/// Summary of the attacker's motion analysis over a capture.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MotionSummary {
    /// Fraction of packets showing activity above the threshold.
    pub active_fraction: f64,
    /// Mean activity while active (counts/packet).
    pub mean_active_level: f64,
    /// The activity threshold used.
    pub threshold: f64,
}

/// Summarizes motion over a feedback capture with a given activity
/// threshold (encoder counts per packet).
pub fn summarize_motion(capture: &[LoggedPacket], threshold: f64) -> MotionSummary {
    let activity = encoder_activity(capture);
    if activity.is_empty() {
        return MotionSummary { active_fraction: 0.0, mean_active_level: 0.0, threshold };
    }
    let active: Vec<f64> = activity.iter().map(|(_, a)| *a).filter(|a| *a > threshold).collect();
    MotionSummary {
        active_fraction: active.len() as f64 / activity.len() as f64,
        mean_active_level: if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        },
        threshold,
    }
}

/// An [`InjectionWrapper`] that additionally requires live encoder
/// activity above a threshold before corrupting. Its read hook keeps an
/// exponential moving average of per-packet activity; its write hook
/// gates on it.
#[derive(Debug)]
pub struct GatedInjection {
    inner: InjectionWrapper,
    /// Minimum activity EMA (counts/packet) to fire.
    pub activity_threshold: f64,
    activity_ema: f64,
    /// The latest read's hypothesized words, and the read's before; both
    /// buffers are reused, so a steady-state read does not allocate.
    words: Vec<i32>,
    last_words: Vec<i32>,
    reads: u64,
    gated_out: u64,
}

impl GatedInjection {
    /// Interceptor name.
    pub const NAME: &'static str = "motion-gated-injection";

    /// Wraps an injection wrapper with a motion gate.
    pub fn new(inner: InjectionWrapper, activity_threshold: f64) -> Self {
        GatedInjection {
            inner,
            activity_threshold,
            activity_ema: 0.0,
            words: Vec::new(),
            last_words: Vec::new(),
            reads: 0,
            gated_out: 0,
        }
    }

    /// Packets that matched the state trigger but were suppressed by the
    /// motion gate.
    pub fn gated_out(&self) -> u64 {
        self.gated_out
    }

    /// Corruptions actually performed.
    pub fn injections(&self) -> u64 {
        self.inner.injections()
    }
}

impl Interceptor for GatedInjection {
    fn on_read(&mut self, buf: &mut Vec<u8>, _ctx: &mut WriteContext<'_>) {
        hypothesized_words(buf, &mut self.words);
        if self.reads > 0 {
            if let Some(a) = activity(&self.words, &self.last_words) {
                // ~30 ms EMA at the 1 kHz read rate.
                self.activity_ema += (a - self.activity_ema) / 30.0;
            }
        }
        std::mem::swap(&mut self.words, &mut self.last_words);
        self.reads += 1;
    }

    fn on_write(&mut self, buf: &mut Vec<u8>, ctx: &mut WriteContext<'_>) -> WriteAction {
        if self.activity_ema > self.activity_threshold {
            self.inner.on_write(buf, ctx)
        } else {
            // Count suppressions that *would* have matched the state trigger.
            if self.inner.triggers_on(buf, ctx) {
                self.gated_out += 1;
            }
            WriteAction::Forward
        }
    }

    fn name(&self) -> &str {
        Self::NAME
    }
}

/// Convenience: builds the motion gate around a standard Pedal-Down
/// injection.
pub fn motion_gated_attack(
    corruption: Corruption,
    window: crate::wrappers::ActivationWindow,
    activity_threshold: f64,
) -> GatedInjection {
    GatedInjection::new(
        InjectionWrapper::pedal_down_trigger(corruption, window),
        activity_threshold,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrappers::ActivationWindow;
    use raven_hw::{RobotState, UsbChannel, UsbCommandPacket, UsbFeedbackPacket};
    use simbus::Observer;
    use simbus::SimTime;

    fn feedback(encoders: [i32; 8]) -> Vec<u8> {
        UsbFeedbackPacket {
            state: RobotState::PedalDown,
            watchdog: false,
            plc_fault: false,
            encoders,
        }
        .encode()
        .to_vec()
    }

    fn ctx(seq: u64, obs: &mut Observer) -> WriteContext<'_> {
        WriteContext {
            time: SimTime::ZERO,
            seq,
            process: UsbChannel::PROCESS,
            fd: UsbChannel::BOARD_FD,
            obs,
        }
    }

    #[test]
    fn activity_tracks_motion() {
        let mut capture = Vec::new();
        // 50 idle packets, then 50 moving packets (300 counts/packet).
        for i in 0..100i32 {
            let pos = if i < 50 { 1000 } else { 1000 + (i - 50) * 300 };
            capture.push(LoggedPacket {
                time: SimTime::from_nanos(i as u64 * 1_000_000),
                seq: i as u64,
                bytes: feedback([pos, 0, 0, 0, 0, 0, 0, 0]),
            });
        }
        let activity = encoder_activity(&capture);
        assert_eq!(activity.len(), 99);
        assert!(activity[10].1 < 1.0, "idle phase must be quiet");
        assert!(activity[80].1 > 100.0, "moving phase must be loud");
        let summary = summarize_motion(&capture, 50.0);
        assert!((summary.active_fraction - 0.5).abs() < 0.05, "{summary:?}");
        assert!(summary.mean_active_level > 100.0);
    }

    #[test]
    fn empty_capture_summarizes_safely() {
        let s = summarize_motion(&[], 10.0);
        assert_eq!(s.active_fraction, 0.0);
    }

    #[test]
    fn gate_suppresses_injection_while_idle() {
        let mut obs = Observer::default();
        let mut gate = motion_gated_attack(
            Corruption::AddDacWord { channel: 0, delta: 9000 },
            ActivationWindow::immediate_persistent(),
            50.0,
        );
        let pedal_down =
            UsbCommandPacket { state: RobotState::PedalDown, watchdog: true, dac: [0; 8] };

        // Idle feedback: the gate stays closed.
        for i in 0..40u64 {
            let mut fb = feedback([1000, 0, 0, 0, 0, 0, 0, 0]);
            gate.on_read(&mut fb, &mut ctx(i, &mut obs));
        }
        let mut buf = pedal_down.encode().to_vec();
        gate.on_write(&mut buf, &mut ctx(100, &mut obs));
        assert_eq!(gate.injections(), 0);
        assert_eq!(gate.gated_out(), 1);
        assert_eq!(
            UsbCommandPacket::decode_unchecked(&buf).unwrap().dac[0],
            0,
            "idle robot must not be attacked"
        );

        // Moving feedback: the gate opens.
        for i in 0..60u64 {
            let mut fb = feedback([1000 + 400 * i as i32, 0, 0, 0, 0, 0, 0, 0]);
            gate.on_read(&mut fb, &mut ctx(200 + i, &mut obs));
        }
        let mut buf = pedal_down.encode().to_vec();
        gate.on_write(&mut buf, &mut ctx(300, &mut obs));
        assert_eq!(gate.injections(), 1);
        assert_eq!(UsbCommandPacket::decode_unchecked(&buf).unwrap().dac[0], 9000);
    }

    #[test]
    fn gate_still_respects_state_trigger() {
        let mut obs = Observer::default();
        let mut gate = motion_gated_attack(
            Corruption::SetByte { offset: 3, value: 9 },
            ActivationWindow::immediate_persistent(),
            10.0,
        );
        for i in 0..60u64 {
            let mut fb = feedback([1000 + 500 * i as i32, 0, 0, 0, 0, 0, 0, 0]);
            gate.on_read(&mut fb, &mut ctx(i, &mut obs));
        }
        // Moving, but Pedal Up: inner trigger refuses.
        let pedal_up = UsbCommandPacket { state: RobotState::PedalUp, watchdog: true, dac: [0; 8] };
        let mut buf = pedal_up.encode().to_vec();
        gate.on_write(&mut buf, &mut ctx(100, &mut obs));
        assert_eq!(gate.injections(), 0);
        assert_eq!(buf[3], pedal_up.encode()[3]);
    }

    #[test]
    fn feedback_logger_captures() {
        let mut obs = Observer::default();
        let mut logger = FeedbackLogger::new();
        let mut fb = feedback([1, 2, 3, 4, 5, 6, 7, 8]);
        logger.on_read(&mut fb, &mut ctx(0, &mut obs));
        assert_eq!(logger.capture().len(), 1);
        assert_eq!(logger.capture()[0].bytes, fb);
    }

    #[test]
    fn closed_gate_counts_only_the_inner_trigger_set() {
        let mut obs = Observer::default();
        let mut gate = GatedInjection::new(
            InjectionWrapper::with_trigger(
                vec![0x2F],
                Corruption::SetByte { offset: 3, value: 9 },
                ActivationWindow::immediate_persistent(),
            ),
            50.0,
        );
        let mut hot = vec![0x2F, 0, 0, 0];
        gate.on_write(&mut hot, &mut ctx(0, &mut obs));
        assert_eq!(gate.gated_out(), 1, "a closed gate suppressed a trigger packet");
        let mut pedal_down = vec![0x0F, 0, 0, 0];
        gate.on_write(&mut pedal_down, &mut ctx(1, &mut obs));
        assert_eq!(gate.gated_out(), 1, "0x0F is not in this wrapper's trigger set");
        // Another process's write is not a trigger either.
        let mut other = WriteContext { process: "bash", ..ctx(2, &mut obs) };
        gate.on_write(&mut hot, &mut other);
        assert_eq!(gate.gated_out(), 1);
        assert_eq!(gate.injections(), 0);
    }
}

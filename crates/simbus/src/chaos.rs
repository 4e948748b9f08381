//! Deterministic chaos schedules: seed-driven fault injection.
//!
//! The paper's §V distinguishes the *malicious* injections of Scenarios A/B
//! from *accidental* faults — packet corruption, stuck sensors, board
//! failures — that the same dynamic-model detector must also flag. This
//! module is the fault generator for that wider surface: a
//! [`ChaosSchedule`] drawn **entirely at construction time** from its own
//! dedicated RNG stream, listing which fault fires at which virtual-clock
//! tick.
//!
//! Determinism contract:
//!
//! * The schedule is a pure function of `(seed, config, window)`. Two
//!   schedules built from the same triple are identical, so chaos runs are
//!   replay-deterministic.
//! * All randomness is consumed up front from per-class
//!   `stream_rng(seed, "chaos.<class>")` streams that no other component
//!   draws from. A simulation that never installs a schedule consumes
//!   **zero** chaos RNG, and installing an all-zero [`ChaosConfig`] yields
//!   an empty schedule; either way the byte-identity of non-chaos
//!   artifacts (`results/*.json`) is untouched.
//! * Each fault class has its own stream, and a class with probability
//!   `0.0` draws nothing — so reconfiguring one class never shifts
//!   another's draws, mirroring how [`crate::net::SimLink`] only consumes
//!   loss RNG when loss is enabled.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::obs::streams::{self, Stream};
use crate::rng::stream_rng;
use crate::time::{SimDuration, SimTime};

/// Per-tick fault probabilities and fault-window lengths.
///
/// Probabilities are per 1 ms control tick inside the scheduled window, so
/// an expected fault count is `probability × window_ticks`. The default is
/// fully off (every probability zero).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Per-tick probability of reordering a console packet past its
    /// successor.
    pub reorder: f64,
    /// Per-tick probability of duplicating a console packet.
    pub duplicate: f64,
    /// Per-tick probability of flipping bits in a console packet.
    pub corrupt: f64,
    /// Per-tick probability of starting a 100%-loss burst on the link.
    pub burst_loss: f64,
    /// Length of one loss burst (ms).
    pub burst_loss_ms: u64,
    /// Per-tick probability of an encoder channel freezing at its current
    /// count.
    pub stuck_encoder: f64,
    /// Length of one stuck-encoder window (ms).
    pub stuck_ms: u64,
    /// Per-tick probability of a bit-flip window on an encoder channel.
    pub encoder_bitflip: f64,
    /// Length of one bit-flip window (ms).
    pub bitflip_ms: u64,
    /// Per-tick probability of the USB board dropping command frames.
    pub usb_frame_drop: f64,
    /// Length of one frame-drop window (ms).
    pub frame_drop_ms: u64,
    /// Per-tick probability of transient board silence (commands dropped
    /// *and* feedback frozen).
    pub board_silence: f64,
    /// Length of one board-silence window (ms).
    pub silence_ms: u64,
}

impl ChaosConfig {
    /// Everything off: an empty schedule for any seed and window.
    pub fn off() -> Self {
        ChaosConfig {
            reorder: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            burst_loss: 0.0,
            burst_loss_ms: 0,
            stuck_encoder: 0.0,
            stuck_ms: 0,
            encoder_bitflip: 0.0,
            bitflip_ms: 0,
            usb_frame_drop: 0.0,
            frame_drop_ms: 0,
            board_silence: 0.0,
            silence_ms: 0,
        }
    }

    /// The standard accidental-fault mix used by the chaos matrix: a
    /// handful of link faults and roughly one short hardware-fault window
    /// per few seconds of session.
    pub fn standard() -> Self {
        ChaosConfig {
            reorder: 2.0e-3,
            duplicate: 2.0e-3,
            corrupt: 2.0e-3,
            burst_loss: 4.0e-4,
            burst_loss_ms: 40,
            stuck_encoder: 3.0e-4,
            stuck_ms: 25,
            encoder_bitflip: 3.0e-4,
            bitflip_ms: 4,
            usb_frame_drop: 3.0e-4,
            frame_drop_ms: 6,
            board_silence: 2.0e-4,
            silence_ms: 5,
        }
    }

    /// Link-layer faults only (reorder/duplicate/corrupt/burst loss).
    pub fn link_only() -> Self {
        ChaosConfig {
            stuck_encoder: 0.0,
            encoder_bitflip: 0.0,
            usb_frame_drop: 0.0,
            board_silence: 0.0,
            ..Self::standard()
        }
    }

    /// `true` when every fault class is disabled.
    pub fn is_off(&self) -> bool {
        [
            self.reorder,
            self.duplicate,
            self.corrupt,
            self.burst_loss,
            self.stuck_encoder,
            self.encoder_bitflip,
            self.usb_frame_drop,
            self.board_silence,
        ]
        .iter()
        .all(|p| *p <= 0.0)
    }
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// One scheduled fault class, with its drawn parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChaosFaultKind {
    /// Hold this tick's console packet and release it *after* the next
    /// tick's packet (a one-tick reorder).
    ReorderNext,
    /// Send this tick's console packet twice.
    DuplicateNext,
    /// XOR `mask` into byte `byte` (modulo packet length) of this tick's
    /// console packet before it enters the link.
    CorruptPacket {
        /// Byte index (reduced modulo the packet length at application).
        byte: u8,
        /// Non-zero XOR mask.
        mask: u8,
    },
    /// Drive the link to 100% loss for `ms` milliseconds.
    BurstLoss {
        /// Burst length (ms).
        ms: u64,
    },
    /// Freeze one encoder channel at its current count for `ms` ms.
    StuckEncoder {
        /// Positioning channel index (0–2).
        channel: u8,
        /// Window length (ms).
        ms: u64,
    },
    /// XOR one bit into an encoder channel's count for `ms` ms.
    EncoderBitFlip {
        /// Positioning channel index (0–2).
        channel: u8,
        /// Bit index within the 24-bit count.
        bit: u8,
        /// Window length (ms).
        ms: u64,
    },
    /// The USB board drops every command frame for `ms` ms.
    DropUsbFrames {
        /// Window length (ms).
        ms: u64,
    },
    /// Transient board silence: command frames dropped *and* feedback
    /// frozen at its last value for `ms` ms.
    BoardSilence {
        /// Window length (ms).
        ms: u64,
    },
}

impl ChaosFaultKind {
    /// Stable dotted slug for event attribution (the `fault` field of
    /// `chaos.injected` events).
    pub fn slug(&self) -> &'static str {
        match self {
            ChaosFaultKind::ReorderNext => "link.reorder",
            ChaosFaultKind::DuplicateNext => "link.duplicate",
            ChaosFaultKind::CorruptPacket { .. } => "link.corrupt",
            ChaosFaultKind::BurstLoss { .. } => "link.burst_loss",
            ChaosFaultKind::StuckEncoder { .. } => "hw.stuck_encoder",
            ChaosFaultKind::EncoderBitFlip { .. } => "hw.encoder_bitflip",
            ChaosFaultKind::DropUsbFrames { .. } => "hw.usb_frame_drop",
            ChaosFaultKind::BoardSilence { .. } => "hw.board_silence",
        }
    }

    /// `true` for faults applied on the console→robot link (the rest are
    /// hardware-level and live in interceptors on the USB paths).
    pub fn is_link_fault(&self) -> bool {
        match self {
            ChaosFaultKind::ReorderNext
            | ChaosFaultKind::DuplicateNext
            | ChaosFaultKind::CorruptPacket { .. }
            | ChaosFaultKind::BurstLoss { .. } => true,
            ChaosFaultKind::StuckEncoder { .. }
            | ChaosFaultKind::EncoderBitFlip { .. }
            | ChaosFaultKind::DropUsbFrames { .. }
            | ChaosFaultKind::BoardSilence { .. } => false,
        }
    }
}

/// A fault scheduled at a virtual instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosFault {
    /// The tick at which the fault fires (window faults start here).
    pub at: SimTime,
    /// Which fault, with its drawn parameters.
    pub kind: ChaosFaultKind,
}

/// Per-class parameter draw, fed by that class's dedicated RNG stream.
type FaultDraw<'a> = Box<dyn FnMut(&mut SmallRng) -> ChaosFaultKind + 'a>;

/// A fully materialized fault schedule, sorted by time.
///
/// Built once from `(seed, config, window)`; consumed by popping due faults
/// as the virtual clock advances. See the module docs for the determinism
/// contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosSchedule {
    faults: VecDeque<ChaosFault>,
    scheduled: usize,
}

impl ChaosSchedule {
    /// Draws a schedule for the window `[start, start + span)`.
    ///
    /// Each fault class draws from its **own** derived stream
    /// (`"chaos.<class>"` of `seed`), and a disabled class (probability
    /// ≤ 0) draws nothing — so changing one class's probability never
    /// shifts another class's draws. Faults are merged into a single list
    /// sorted by `(time, class order)`.
    pub fn generate(seed: u64, config: &ChaosConfig, start: SimTime, span: SimDuration) -> Self {
        let span_ms = span.as_nanos() / 1_000_000;
        let mut faults: Vec<(u64, u8, ChaosFault)> = Vec::new();
        // Class order is part of the determinism contract: ties at the
        // same tick resolve in this order.
        let mut class = 0u8;
        let mut push_class = |name: Stream<'static>, p: f64, mut draw: FaultDraw<'_>| {
            let order = class;
            class += 1;
            if p <= 0.0 {
                return;
            }
            let mut rng = stream_rng(seed, name);
            for tick in 0..span_ms {
                if rng.gen::<f64>() < p {
                    let at = start + SimDuration::from_millis(tick);
                    faults.push((at.as_nanos(), order, ChaosFault { at, kind: draw(&mut rng) }));
                }
            }
        };
        push_class(
            streams::CHAOS_REORDER,
            config.reorder,
            Box::new(|_| ChaosFaultKind::ReorderNext),
        );
        push_class(
            streams::CHAOS_DUPLICATE,
            config.duplicate,
            Box::new(|_| ChaosFaultKind::DuplicateNext),
        );
        push_class(
            streams::CHAOS_CORRUPT,
            config.corrupt,
            Box::new(|rng| {
                let byte = (rng.gen::<u64>() % 32) as u8;
                let mask = (rng.gen::<u64>() % 255) as u8 + 1; // never zero
                ChaosFaultKind::CorruptPacket { byte, mask }
            }),
        );
        push_class(
            streams::CHAOS_BURST_LOSS,
            config.burst_loss,
            Box::new(|_| ChaosFaultKind::BurstLoss { ms: config.burst_loss_ms }),
        );
        push_class(
            streams::CHAOS_STUCK_ENCODER,
            config.stuck_encoder,
            Box::new(|rng| {
                let channel = (rng.gen::<u64>() % 3) as u8;
                ChaosFaultKind::StuckEncoder { channel, ms: config.stuck_ms }
            }),
        );
        push_class(
            streams::CHAOS_ENCODER_BITFLIP,
            config.encoder_bitflip,
            Box::new(|rng| {
                let channel = (rng.gen::<u64>() % 3) as u8;
                // Mid-range bits: large enough to matter (2^10..2^17
                // counts), small enough to stay within the 24-bit field.
                let bit = (rng.gen::<u64>() % 8) as u8 + 10;
                ChaosFaultKind::EncoderBitFlip { channel, bit, ms: config.bitflip_ms }
            }),
        );
        push_class(
            streams::CHAOS_USB_FRAME_DROP,
            config.usb_frame_drop,
            Box::new(|_| ChaosFaultKind::DropUsbFrames { ms: config.frame_drop_ms }),
        );
        push_class(
            streams::CHAOS_BOARD_SILENCE,
            config.board_silence,
            Box::new(|_| ChaosFaultKind::BoardSilence { ms: config.silence_ms }),
        );
        faults.sort_by_key(|(at_ns, order, _)| (*at_ns, *order));
        let scheduled = faults.len();
        ChaosSchedule { faults: faults.into_iter().map(|(_, _, f)| f).collect(), scheduled }
    }

    /// Total faults drawn at generation time (fixed for the schedule's
    /// lifetime; [`ChaosSchedule::pop_due`] does not change it).
    pub fn scheduled(&self) -> usize {
        self.scheduled
    }

    /// Faults not yet popped.
    pub fn remaining(&self) -> usize {
        self.faults.len()
    }

    /// `true` when nothing was scheduled.
    pub fn is_empty(&self) -> bool {
        self.scheduled == 0
    }

    /// The scheduled faults still pending, in time order.
    pub fn pending(&self) -> impl Iterator<Item = &ChaosFault> {
        self.faults.iter()
    }

    /// Pops the next fault due at or before `now`, if any. Call in a loop
    /// each tick to drain everything scheduled for the current instant.
    pub fn pop_due(&mut self, now: SimTime) -> Option<ChaosFault> {
        if self.faults.front().is_some_and(|f| f.at <= now) {
            self.faults.pop_front()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> (SimTime, SimDuration) {
        (SimTime::ZERO + SimDuration::from_millis(2_500), SimDuration::from_millis(4_000))
    }

    #[test]
    fn same_seed_same_schedule() {
        let (start, span) = window();
        let a = ChaosSchedule::generate(42, &ChaosConfig::standard(), start, span);
        let b = ChaosSchedule::generate(42, &ChaosConfig::standard(), start, span);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "standard config over 4 s should schedule something");
    }

    #[test]
    fn different_seeds_diverge() {
        let (start, span) = window();
        let a = ChaosSchedule::generate(1, &ChaosConfig::standard(), start, span);
        let b = ChaosSchedule::generate(2, &ChaosConfig::standard(), start, span);
        assert_ne!(a, b, "schedules should differ across seeds");
    }

    #[test]
    fn off_config_schedules_nothing_for_any_seed() {
        let (start, span) = window();
        for seed in 0..16 {
            let s = ChaosSchedule::generate(seed, &ChaosConfig::off(), start, span);
            assert!(s.is_empty());
            assert_eq!(s.scheduled(), 0);
        }
        assert!(ChaosConfig::off().is_off());
        assert!(ChaosConfig::default().is_off());
        assert!(!ChaosConfig::standard().is_off());
    }

    #[test]
    fn faults_are_time_ordered_and_inside_the_window() {
        let (start, span) = window();
        let s = ChaosSchedule::generate(7, &ChaosConfig::standard(), start, span);
        let mut last = SimTime::ZERO;
        for fault in s.pending() {
            assert!(fault.at >= last, "schedule must be sorted");
            assert!(fault.at >= start && fault.at < start + span, "fault outside window");
            last = fault.at;
        }
    }

    #[test]
    fn pop_due_drains_in_order() {
        let (start, span) = window();
        let mut s = ChaosSchedule::generate(9, &ChaosConfig::standard(), start, span);
        let total = s.scheduled();
        assert_eq!(s.remaining(), total);
        assert!(s.pop_due(SimTime::ZERO).is_none(), "nothing due before the window");
        let mut popped = 0;
        let end = start + span;
        while s.pop_due(end).is_some() {
            popped += 1;
        }
        assert_eq!(popped, total);
        assert_eq!(s.remaining(), 0);
        assert_eq!(s.scheduled(), total, "scheduled count is stable");
    }

    #[test]
    fn corrupt_masks_are_never_zero() {
        let (start, span) = window();
        let cfg = ChaosConfig { corrupt: 0.5, ..ChaosConfig::off() };
        let s = ChaosSchedule::generate(3, &cfg, start, span);
        assert!(!s.is_empty());
        for fault in s.pending() {
            match fault.kind {
                ChaosFaultKind::CorruptPacket { mask, .. } => {
                    assert_ne!(mask, 0, "a zero mask would be a no-op fault")
                }
                ChaosFaultKind::ReorderNext
                | ChaosFaultKind::DuplicateNext
                | ChaosFaultKind::BurstLoss { .. }
                | ChaosFaultKind::StuckEncoder { .. }
                | ChaosFaultKind::EncoderBitFlip { .. }
                | ChaosFaultKind::DropUsbFrames { .. }
                | ChaosFaultKind::BoardSilence { .. } => {
                    panic!("only corruption was enabled: {fault:?}")
                }
            }
        }
    }

    #[test]
    fn disabled_classes_do_not_shift_enabled_draws() {
        // Turning a *later* class off must not change the draws of the
        // classes before it; earlier classes gate later ones, which is why
        // each class draws only when enabled.
        let (start, span) = window();
        let full = ChaosConfig::standard();
        let link = ChaosConfig::link_only();
        let a = ChaosSchedule::generate(11, &full, start, span);
        let b = ChaosSchedule::generate(11, &link, start, span);
        let a_link: Vec<ChaosFault> =
            a.pending().filter(|f| f.kind.is_link_fault()).copied().collect();
        let b_link: Vec<ChaosFault> = b.pending().copied().collect();
        // Same seed, same link-class probabilities, hardware classes drawn
        // after the link classes each tick: identical link faults. (The
        // hardware classes are drawn last per tick by construction.)
        assert_eq!(a_link, b_link);
    }

    #[test]
    fn schedule_serializes_round_trip() {
        let (start, span) = window();
        let s = ChaosSchedule::generate(5, &ChaosConfig::standard(), start, span);
        let json = serde_json::to_string(&s).expect("serialize schedule");
        let back: ChaosSchedule = serde_json::from_str(&json).expect("deserialize schedule");
        assert_eq!(back, s);
    }
}

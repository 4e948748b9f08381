//! Hardware-level chaos faults: windowed interceptors on the USB paths.
//!
//! `simbus::chaos` schedules *what* goes wrong and *when*; this module is
//! the *how* for the hardware-level fault classes — each scheduled fault
//! becomes one windowed interceptor installed on the rig's
//! [`UsbChannel`](crate::channel::UsbChannel):
//!
//! * [`ChaosFrameDrop`] — the board misses command frames (write path);
//! * [`ChaosStuckEncoder`] — one encoder freezes at its current count
//!   (read path);
//! * [`ChaosEncoderBitFlip`] — one bit of an encoder count flips (read
//!   path);
//! * [`ChaosFeedbackHold`] — the read half of transient board silence:
//!   feedback frozen at the last frame (pair it with a [`ChaosFrameDrop`]
//!   for the write half).
//!
//! Faults announce themselves **once per window** as a `chaos.injected`
//! event (+ the `chaos.injections` counter), so every incident a chaos run
//! produces is attributable to its cause in the event log. The write-path
//! faults drop frames *without touching bytes*, so they count as channel
//! `drops`, never as `mutations` — chaos is not mistaken for the paper's
//! injection malware in `attack.injections`.
//!
//! Everything here is panic-free (the crate denies clippy's panic lints): malformed buffers are
//! forwarded unchanged rather than unwrapped.

use simbus::obs::{names, Event, EventKind, Severity};
use simbus::{Observer, SimDuration, SimTime};

use crate::channel::{Interceptor, WriteAction, WriteContext};
use crate::packet::{checksum, FEEDBACK_PACKET_LEN};

/// A half-open virtual-time window `[from, until)` during which a fault is
/// active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First instant the fault is active.
    pub from: SimTime,
    /// First instant after the fault (exclusive).
    pub until: SimTime,
}

impl FaultWindow {
    /// A window starting at `from` and lasting `ms` milliseconds.
    pub fn starting_at(from: SimTime, ms: u64) -> Self {
        FaultWindow { from, until: from + SimDuration::from_millis(ms) }
    }

    /// `true` while the fault is active.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.from && t < self.until
    }
}

/// Emits the one-per-window `chaos.injected` announcement.
fn announce(
    obs: &mut Observer,
    now: SimTime,
    slug: &'static str,
    window: &FaultWindow,
    details: &[(&'static str, i64)],
) {
    obs.metrics.inc(names::CHAOS_INJECTIONS);
    let span_ms = window.until.saturating_since(window.from).as_nanos() / 1_000_000;
    let mut event = Event::new(now, "chaos", Severity::Warn, EventKind::ChaosInjected)
        .with("fault", slug)
        .with("window_ms", span_ms);
    for (key, value) in details {
        event = event.with(*key, *value);
    }
    obs.event(event);
}

/// Write-path fault: the board misses every command frame inside the
/// window (models dropped USB frames; also the write half of transient
/// board silence).
///
/// Frames are dropped with their bytes untouched, so the channel counts
/// them under `drops`, not `mutations`.
#[derive(Debug)]
pub struct ChaosFrameDrop {
    name: &'static str,
    slug: &'static str,
    window: FaultWindow,
    announced: bool,
}

impl ChaosFrameDrop {
    /// A dropped-USB-frames fault over `window`.
    pub fn usb_frames(window: FaultWindow) -> Self {
        ChaosFrameDrop {
            name: "chaos.usb_frame_drop",
            slug: "hw.usb_frame_drop",
            window,
            announced: false,
        }
    }

    /// The write half of a board-silence fault over `window`. Announces as
    /// `hw.board_silence`; a [`ChaosFeedbackHold`] for the read half
    /// stays silent, so the pair emits one announcement.
    pub fn board_silence(window: FaultWindow) -> Self {
        ChaosFrameDrop {
            name: "chaos.board_silence.write",
            slug: "hw.board_silence",
            window,
            announced: false,
        }
    }
}

impl Interceptor for ChaosFrameDrop {
    fn on_write(&mut self, _buf: &mut Vec<u8>, ctx: &mut WriteContext<'_>) -> WriteAction {
        if !self.window.contains(ctx.time) {
            return WriteAction::Forward;
        }
        if !self.announced {
            self.announced = true;
            announce(ctx.obs, ctx.time, self.slug, &self.window, &[]);
        }
        WriteAction::Drop
    }

    fn name(&self) -> &str {
        self.name
    }
}

/// Byte offset of encoder `channel` in a feedback frame.
fn encoder_offset(channel: usize) -> usize {
    1 + 3 * channel
}

/// Rewrites the additive checksum after a feedback mutation, keeping the
/// frame well-formed on the wire.
fn fix_feedback_checksum(buf: &mut [u8]) {
    if buf.len() == FEEDBACK_PACKET_LEN {
        buf[FEEDBACK_PACKET_LEN - 1] = checksum(&buf[..FEEDBACK_PACKET_LEN - 1]);
    }
}

/// Read-path fault: one encoder channel freezes at the count it had when
/// the window opened (a stuck sensor, §V's accidental-fault class).
#[derive(Debug)]
pub struct ChaosStuckEncoder {
    channel: usize,
    window: FaultWindow,
    held: Option<[u8; 3]>,
    announced: bool,
}

impl ChaosStuckEncoder {
    /// Freezes positioning channel `channel` (0–2) over `window`.
    pub fn new(channel: usize, window: FaultWindow) -> Self {
        ChaosStuckEncoder { channel, window, held: None, announced: false }
    }
}

impl Interceptor for ChaosStuckEncoder {
    fn on_read(&mut self, buf: &mut Vec<u8>, ctx: &mut WriteContext<'_>) {
        let off = encoder_offset(self.channel);
        if buf.len() != FEEDBACK_PACKET_LEN || off + 3 > buf.len() {
            return;
        }
        if !self.window.contains(ctx.time) {
            return;
        }
        if !self.announced {
            self.announced = true;
            announce(
                ctx.obs,
                ctx.time,
                "hw.stuck_encoder",
                &self.window,
                &[("channel", self.channel as i64)],
            );
        }
        let held = *self.held.get_or_insert([buf[off], buf[off + 1], buf[off + 2]]);
        buf[off..off + 3].copy_from_slice(&held);
        fix_feedback_checksum(buf);
    }

    fn name(&self) -> &str {
        "chaos.stuck_encoder"
    }
}

/// Read-path fault: one bit of an encoder count is flipped for the whole
/// window (a flaky sensor line / register bit).
#[derive(Debug)]
pub struct ChaosEncoderBitFlip {
    channel: usize,
    bit: u8,
    window: FaultWindow,
    announced: bool,
}

impl ChaosEncoderBitFlip {
    /// Flips bit `bit` (0–23) of positioning channel `channel` over
    /// `window`.
    pub fn new(channel: usize, bit: u8, window: FaultWindow) -> Self {
        ChaosEncoderBitFlip { channel, bit, window, announced: false }
    }
}

impl Interceptor for ChaosEncoderBitFlip {
    fn on_read(&mut self, buf: &mut Vec<u8>, ctx: &mut WriteContext<'_>) {
        let off = encoder_offset(self.channel) + usize::from(self.bit / 8);
        if buf.len() != FEEDBACK_PACKET_LEN || off >= buf.len() - 1 || self.bit >= 24 {
            return;
        }
        if !self.window.contains(ctx.time) {
            return;
        }
        if !self.announced {
            self.announced = true;
            announce(
                ctx.obs,
                ctx.time,
                "hw.encoder_bitflip",
                &self.window,
                &[("channel", self.channel as i64), ("bit", i64::from(self.bit))],
            );
        }
        buf[off] ^= 1 << (self.bit % 8);
        fix_feedback_checksum(buf);
    }

    fn name(&self) -> &str {
        "chaos.encoder_bitflip"
    }
}

/// Read-path half of transient board silence: while the window is open the
/// control software keeps reading the last frame the board produced before
/// going silent.
///
/// Silent: the paired [`ChaosFrameDrop::board_silence`] owns the
/// announcement.
#[derive(Debug)]
pub struct ChaosFeedbackHold {
    window: FaultWindow,
    last: Option<Vec<u8>>,
}

impl ChaosFeedbackHold {
    /// Holds feedback at its pre-window value over `window`.
    pub fn new(window: FaultWindow) -> Self {
        ChaosFeedbackHold { window, last: None }
    }
}

impl Interceptor for ChaosFeedbackHold {
    fn on_read(&mut self, buf: &mut Vec<u8>, ctx: &mut WriteContext<'_>) {
        if buf.len() != FEEDBACK_PACKET_LEN {
            return;
        }
        if self.window.contains(ctx.time) {
            if let Some(last) = &self.last {
                buf.clone_from(last);
            }
        } else {
            self.last = Some(buf.clone());
        }
    }

    fn name(&self) -> &str {
        "chaos.feedback_hold"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::UsbChannel;
    use crate::packet::{RobotState, UsbCommandPacket, UsbFeedbackPacket};

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn feedback(encoders: [i32; 8]) -> Vec<u8> {
        UsbFeedbackPacket {
            state: RobotState::PedalDown,
            watchdog: true,
            plc_fault: false,
            encoders,
        }
        .encode()
        .to_vec()
    }

    #[test]
    fn frame_drop_only_inside_window_and_never_mutates() {
        let mut obs = Observer::new(16);
        let mut ch = UsbChannel::new();
        ch.install(ChaosFrameDrop::usb_frames(FaultWindow::starting_at(at(10), 5)));
        let pkt = UsbCommandPacket::default().encode().to_vec();
        let mut buf = pkt.clone();
        assert_eq!(ch.write(&mut buf, at(9), None, &mut obs), WriteAction::Forward);
        for ms in 10..15 {
            assert_eq!(ch.write(&mut buf, at(ms), None, &mut obs), WriteAction::Drop);
            assert_eq!(buf, pkt);
            assert_eq!(ch.mutations(), 0, "chaos drops must not count as mutations");
        }
        assert_eq!(ch.write(&mut buf, at(15), None, &mut obs), WriteAction::Forward);
        assert_eq!(buf, pkt);
        assert_eq!(ch.drops(), 5);
        assert_eq!(ch.mutations(), 0);
        assert_eq!(obs.metrics.counter(names::CHAOS_INJECTIONS), 1, "one announcement per window");
        assert_eq!(obs.events.count_kind(EventKind::ChaosInjected.as_str()), 1);
    }

    #[test]
    fn stuck_encoder_holds_window_entry_value() {
        let mut obs = Observer::default();
        let mut ch = UsbChannel::new();
        ch.install(ChaosStuckEncoder::new(1, FaultWindow::starting_at(at(5), 3)));
        let decode = |b: &[u8]| UsbFeedbackPacket::decode_unchecked(b).map(|f| f.encoders);
        let before = ch.read(feedback([0, 100, 0, 0, 0, 0, 0, 0]), at(4), &mut obs);
        assert_eq!(decode(&before).map(|e| e[1]), Ok(100));
        // Window opens at count 200; later reads keep reporting 200.
        let first = ch.read(feedback([0, 200, 0, 0, 0, 0, 0, 0]), at(5), &mut obs);
        assert_eq!(decode(&first).map(|e| e[1]), Ok(200));
        let held = ch.read(feedback([7, 300, 9, 0, 0, 0, 0, 0]), at(6), &mut obs);
        let held = decode(&held).unwrap();
        assert_eq!(held[1], 200, "stuck channel holds its window-entry count");
        assert_eq!((held[0], held[2]), (7, 9), "other channels flow through");
        // After the window the live value is visible again.
        let after = ch.read(feedback([0, 400, 0, 0, 0, 0, 0, 0]), at(8), &mut obs);
        assert_eq!(decode(&after).map(|e| e[1]), Ok(400));
    }

    #[test]
    fn bitflip_xors_exactly_one_bit() {
        let mut obs = Observer::default();
        let mut ch = UsbChannel::new();
        ch.install(ChaosEncoderBitFlip::new(0, 12, FaultWindow::starting_at(at(1), 2)));
        let clean = ch.read(feedback([1000, 0, 0, 0, 0, 0, 0, 0]), at(0), &mut obs);
        assert_eq!(UsbFeedbackPacket::decode_unchecked(&clean).unwrap().encoders[0], 1000);
        let flipped = ch.read(feedback([1000, 0, 0, 0, 0, 0, 0, 0]), at(1), &mut obs);
        let got = UsbFeedbackPacket::decode_unchecked(&flipped).unwrap().encoders[0];
        assert_eq!(got, 1000 ^ (1 << 12));
    }

    #[test]
    fn feedback_hold_replays_last_pre_window_frame() {
        let mut obs = Observer::default();
        let mut ch = UsbChannel::new();
        ch.install(ChaosFeedbackHold::new(FaultWindow::starting_at(at(3), 2)));
        let _ = ch.read(feedback([10, 0, 0, 0, 0, 0, 0, 0]), at(1), &mut obs);
        let last = ch.read(feedback([20, 0, 0, 0, 0, 0, 0, 0]), at(2), &mut obs);
        let silent = ch.read(feedback([999, 999, 0, 0, 0, 0, 0, 0]), at(3), &mut obs);
        assert_eq!(silent, last, "silence replays the last live frame");
        let live = ch.read(feedback([30, 0, 0, 0, 0, 0, 0, 0]), at(5), &mut obs);
        assert_eq!(UsbFeedbackPacket::decode_unchecked(&live).unwrap().encoders[0], 30);
    }

    #[test]
    fn malformed_buffers_pass_through_unchanged() {
        let mut obs = Observer::default();
        let mut ch = UsbChannel::new();
        ch.install(ChaosStuckEncoder::new(0, FaultWindow::starting_at(at(0), 10)));
        ch.install(ChaosEncoderBitFlip::new(0, 5, FaultWindow::starting_at(at(0), 10)));
        ch.install(ChaosFeedbackHold::new(FaultWindow::starting_at(at(0), 10)));
        let short = vec![1, 2, 3];
        assert_eq!(ch.read(short.clone(), at(1), &mut obs), short);
    }

    #[test]
    fn mutated_feedback_keeps_a_valid_checksum() {
        let mut obs = Observer::default();
        let mut ch = UsbChannel::new();
        ch.install(ChaosEncoderBitFlip::new(2, 15, FaultWindow::starting_at(at(0), 10)));
        let out = ch.read(feedback([0, 0, 5000, 0, 0, 0, 0, 0]), at(1), &mut obs);
        assert_eq!(out[FEEDBACK_PACKET_LEN - 1], checksum(&out[..FEEDBACK_PACKET_LEN - 1]));
    }
}

//! Malicious `write` wrappers — the reproduction of the paper's Fig. 4.
//!
//! The paper's malware is a shared library that shadows `write(2)` via
//! `LD_PRELOAD`. Two variants are measured in Table II:
//!
//! * the **logging wrapper** (Attack-Preparation phase): "checking the
//!   process name and the file descriptor and sending the UDP packets to the
//!   remote attacker" — here [`LoggingWrapper`], which copies each USB buffer
//!   into a shared capture log and exfiltrates it over a simulated UDP link;
//! * the **injection wrapper** (Deployment phase): "checking for the process
//!   name and file descriptor, checking the packet contents to determine if
//!   the desired robot state is reached, and overwriting the malicious
//!   value" — here [`InjectionWrapper`], which fires only when Byte 0
//!   matches the trigger values (0x0F/0x1F = Pedal Down) and then corrupts
//!   payload bytes for a configured activation period.
//!
//! These run **research/defensive evaluation only** — they operate purely on
//! the in-process simulated USB channel.

use std::sync::Arc;

use parking_lot::Mutex;
use raven_hw::channel::{WriteAction, WriteContext, WriteInterceptor};
use serde::{Deserialize, Serialize};
use simbus::{SimLink, SimTime};

/// One captured USB write, as the attacker's remote server receives it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoggedPacket {
    /// Capture time.
    pub time: SimTime,
    /// Write sequence number on the channel.
    pub seq: u64,
    /// The raw bytes.
    pub bytes: Vec<u8>,
}

/// Shared capture log (the attacker's collection server).
pub type CaptureLog = Arc<Mutex<Vec<LoggedPacket>>>;

/// Creates an empty capture log.
pub fn capture_log() -> CaptureLog {
    Arc::new(Mutex::new(Vec::new()))
}

/// The eavesdropping wrapper of the Attack-Preparation phase.
#[derive(Debug)]
pub struct LoggingWrapper {
    log: CaptureLog,
    exfil: Option<SimLink<LoggedPacket>>,
    expected_process: &'static str,
    expected_fd: i32,
    captured: u64,
}

impl LoggingWrapper {
    /// Name under which the wrapper installs (for `uninstall`).
    pub const NAME: &'static str = "malicious-logging-wrapper";

    /// Creates a wrapper that records into `log`.
    pub fn new(log: CaptureLog) -> Self {
        LoggingWrapper {
            log,
            exfil: None,
            expected_process: raven_hw::UsbChannel::PROCESS,
            expected_fd: raven_hw::UsbChannel::BOARD_FD,
            captured: 0,
        }
    }

    /// Additionally exfiltrates captures over a simulated UDP link to the
    /// attacker's remote server (paper §III.B.1 step 3).
    pub fn with_exfiltration(mut self, link: SimLink<LoggedPacket>) -> Self {
        self.exfil = Some(link);
        self
    }

    /// Packets captured so far.
    pub fn captured(&self) -> u64 {
        self.captured
    }
}

impl WriteInterceptor for LoggingWrapper {
    fn on_write(&mut self, buf: &mut Vec<u8>, ctx: &mut WriteContext<'_>) -> WriteAction {
        // The wrapper shadows write(2) for *every* process; it must act only
        // on the robot's USB traffic (paper: "checking the process name and
        // the file descriptor").
        if ctx.process == self.expected_process && ctx.fd == self.expected_fd {
            let pkt = LoggedPacket { time: ctx.time, seq: ctx.seq, bytes: buf.clone() };
            if let Some(link) = &mut self.exfil {
                link.send(ctx.time, pkt.clone());
            }
            self.log.lock().push(pkt);
            self.captured += 1;
        }
        WriteAction::Forward
    }

    fn name(&self) -> &str {
        Self::NAME
    }
}

/// How the injection wrapper corrupts a triggered packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Corruption {
    /// Overwrite one raw byte with a fixed value (the paper injects "a
    /// random value (e.g., between 0 and 100) to one of the bytes").
    SetByte {
        /// Byte offset within the packet.
        offset: usize,
        /// Value to write.
        value: u8,
    },
    /// Add a signed delta to one 16-bit little-endian DAC word (channels
    /// 0–7 live at offsets 1..17 of the command packet).
    AddDacWord {
        /// DAC channel 0–7.
        channel: usize,
        /// Signed delta in DAC counts.
        delta: i16,
    },
}

impl Corruption {
    fn apply(&self, buf: &mut [u8]) -> bool {
        match *self {
            Corruption::SetByte { offset, value } => {
                if offset < buf.len() {
                    buf[offset] = value;
                    true
                } else {
                    false
                }
            }
            Corruption::AddDacWord { channel, delta } => {
                let lo = 1 + 2 * channel;
                if lo + 1 < buf.len() {
                    let word = i16::from_le_bytes([buf[lo], buf[lo + 1]]);
                    let corrupted = word.wrapping_add(delta).to_le_bytes();
                    buf[lo] = corrupted[0];
                    buf[lo + 1] = corrupted[1];
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// When, and for how long, the injection fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivationWindow {
    /// Number of triggered packets to skip before the first corruption
    /// (lets experiments fire mid-trajectory).
    pub delay_triggers: u64,
    /// Number of consecutive packets to corrupt once active — the paper's
    /// "activation period" axis of Fig. 9 (one packet per millisecond).
    pub duration_packets: u64,
}

impl ActivationWindow {
    /// Fire immediately and keep firing.
    pub fn immediate_persistent() -> Self {
        ActivationWindow { delay_triggers: 0, duration_packets: u64::MAX }
    }

    /// Fire after `delay` triggered packets, for `duration` packets
    /// (≈ milliseconds).
    pub fn delayed(delay: u64, duration: u64) -> Self {
        ActivationWindow { delay_triggers: delay, duration_packets: duration }
    }
}

/// The self-triggered injection wrapper of the Deployment phase.
#[derive(Debug)]
pub struct InjectionWrapper {
    /// Byte-0 values that identify the target state (0x0F/0x1F by default).
    trigger_values: Vec<u8>,
    corruption: Corruption,
    window: ActivationWindow,
    expected_process: &'static str,
    expected_fd: i32,
    triggers_seen: u64,
    injections: u64,
}

impl InjectionWrapper {
    /// Name under which the wrapper installs.
    pub const NAME: &'static str = "malicious-injection-wrapper";

    /// Creates a wrapper triggering on the paper's Pedal-Down byte values
    /// (0x0F and 0x1F).
    pub fn pedal_down_trigger(corruption: Corruption, window: ActivationWindow) -> Self {
        Self::with_trigger(vec![0x0F, 0x1F], corruption, window)
    }

    /// Creates a wrapper with attacker-derived trigger values (the output of
    /// the offline Analysis phase).
    ///
    /// # Panics
    ///
    /// Panics if `trigger_values` is empty.
    pub fn with_trigger(
        trigger_values: Vec<u8>,
        corruption: Corruption,
        window: ActivationWindow,
    ) -> Self {
        assert!(!trigger_values.is_empty(), "trigger set must be non-empty");
        InjectionWrapper {
            trigger_values,
            corruption,
            window,
            expected_process: raven_hw::UsbChannel::PROCESS,
            expected_fd: raven_hw::UsbChannel::BOARD_FD,
            triggers_seen: 0,
            injections: 0,
        }
    }

    /// Packets that matched the trigger so far.
    pub fn triggers_seen(&self) -> u64 {
        self.triggers_seen
    }

    /// Packets actually corrupted so far.
    pub fn injections(&self) -> u64 {
        self.injections
    }

    /// `true` once the activation window is exhausted.
    pub fn exhausted(&self) -> bool {
        self.window.duration_packets != u64::MAX && self.injections >= self.window.duration_packets
    }
}

impl WriteInterceptor for InjectionWrapper {
    fn on_write(&mut self, buf: &mut Vec<u8>, ctx: &mut WriteContext<'_>) -> WriteAction {
        if ctx.process != self.expected_process || ctx.fd != self.expected_fd {
            return WriteAction::Forward;
        }
        let Some(&byte0) = buf.first() else {
            return WriteAction::Forward;
        };
        if !self.trigger_values.contains(&byte0) {
            return WriteAction::Forward;
        }
        self.triggers_seen += 1;
        let past_delay = self.triggers_seen > self.window.delay_triggers;
        if past_delay && !self.exhausted() && self.corruption.apply(buf) {
            self.injections += 1;
        }
        WriteAction::Forward
    }

    fn name(&self) -> &str {
        Self::NAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_hw::{RobotState, UsbChannel, UsbCommandPacket};
    use simbus::LinkConfig;
    use simbus::Observer;

    fn ctx(seq: u64, obs: &mut Observer) -> WriteContext<'_> {
        WriteContext {
            time: SimTime::ZERO,
            seq,
            process: UsbChannel::PROCESS,
            fd: UsbChannel::BOARD_FD,
            obs,
        }
    }

    fn packet(state: RobotState, wd: bool) -> Vec<u8> {
        UsbCommandPacket { state, watchdog: wd, dac: [100, 200, 300, 0, 0, 0, 0, 0] }
            .encode()
            .to_vec()
    }

    #[test]
    fn logging_wrapper_captures_robot_traffic_only() {
        let mut obs = Observer::default();
        let log = capture_log();
        let mut w = LoggingWrapper::new(Arc::clone(&log));
        let mut buf = packet(RobotState::PedalDown, true);
        assert_eq!(w.on_write(&mut buf, &mut ctx(0, &mut obs)), WriteAction::Forward);
        // A write from a different process is ignored.
        let mut other = WriteContext { process: "bash", ..ctx(1, &mut obs) };
        w.on_write(&mut buf, &mut other);
        // A write to a different fd is ignored.
        let mut other_fd = WriteContext { fd: 3, ..ctx(2, &mut obs) };
        w.on_write(&mut buf, &mut other_fd);
        assert_eq!(w.captured(), 1);
        assert_eq!(log.lock().len(), 1);
        assert_eq!(log.lock()[0].bytes, buf);
    }

    #[test]
    fn logging_wrapper_never_mutates() {
        let mut obs = Observer::default();
        let log = capture_log();
        let mut w = LoggingWrapper::new(log);
        let original = packet(RobotState::PedalDown, false);
        let mut buf = original.clone();
        w.on_write(&mut buf, &mut ctx(0, &mut obs));
        assert_eq!(buf, original);
    }

    #[test]
    fn logging_wrapper_exfiltrates_over_udp() {
        let mut obs = Observer::default();
        let log = capture_log();
        let link: SimLink<LoggedPacket> = SimLink::new(LinkConfig::ideal(), 1);
        let mut w = LoggingWrapper::new(log).with_exfiltration(link);
        let mut buf = packet(RobotState::Init, true);
        w.on_write(&mut buf, &mut ctx(0, &mut obs));
        assert_eq!(w.captured(), 1);
    }

    #[test]
    fn injection_fires_only_in_pedal_down() {
        let mut obs = Observer::default();
        let mut w = InjectionWrapper::pedal_down_trigger(
            Corruption::SetByte { offset: 2, value: 77 },
            ActivationWindow::immediate_persistent(),
        );
        // Pedal Up: byte0 = 0x07/0x17, not in trigger set.
        let mut up = packet(RobotState::PedalUp, true);
        let before = up.clone();
        w.on_write(&mut up, &mut ctx(0, &mut obs));
        assert_eq!(up, before);
        assert_eq!(w.injections(), 0);
        // Pedal Down with watchdog (0x1F) fires.
        let mut down = packet(RobotState::PedalDown, true);
        w.on_write(&mut down, &mut ctx(1, &mut obs));
        assert_eq!(down[2], 77);
        assert_eq!(w.injections(), 1);
        // Pedal Down without watchdog (0x0F) also fires.
        let mut down = packet(RobotState::PedalDown, false);
        w.on_write(&mut down, &mut ctx(2, &mut obs));
        assert_eq!(w.injections(), 2);
    }

    #[test]
    fn corrupted_packet_still_decodes_on_stock_board() {
        let mut obs = Observer::default();
        // The essence of the TOCTOU attack: the corrupted packet is accepted
        // downstream because the board never verifies integrity.
        let mut w = InjectionWrapper::pedal_down_trigger(
            Corruption::AddDacWord { channel: 0, delta: 12_000 },
            ActivationWindow::immediate_persistent(),
        );
        let mut buf = packet(RobotState::PedalDown, true);
        w.on_write(&mut buf, &mut ctx(0, &mut obs));
        let decoded = UsbCommandPacket::decode_unchecked(&buf).unwrap();
        assert_eq!(decoded.dac[0], 12_100);
        assert_eq!(decoded.state, RobotState::PedalDown);
    }

    #[test]
    fn activation_window_delay_and_duration() {
        let mut obs = Observer::default();
        let mut w = InjectionWrapper::pedal_down_trigger(
            Corruption::SetByte { offset: 3, value: 9 },
            ActivationWindow::delayed(2, 3),
        );
        let mut hits = 0;
        for seq in 0..10 {
            let mut buf = packet(RobotState::PedalDown, seq % 2 == 0);
            w.on_write(&mut buf, &mut ctx(seq, &mut obs));
            if buf[3] == 9 {
                hits += 1;
            }
        }
        assert_eq!(hits, 3, "exactly `duration` packets corrupted");
        assert_eq!(w.triggers_seen(), 10);
        assert!(w.exhausted());
    }

    #[test]
    fn add_dac_word_wraps_like_hardware() {
        let c = Corruption::AddDacWord { channel: 1, delta: i16::MAX };
        let mut buf = packet(RobotState::PedalDown, false);
        assert!(c.apply(&mut buf));
        let decoded = UsbCommandPacket::decode_unchecked(&buf).unwrap();
        assert_eq!(decoded.dac[1], 200i16.wrapping_add(i16::MAX));
    }

    #[test]
    fn out_of_range_corruption_is_noop() {
        let c = Corruption::SetByte { offset: 99, value: 1 };
        let mut buf = packet(RobotState::PedalDown, false);
        let before = buf.clone();
        assert!(!c.apply(&mut buf));
        assert_eq!(buf, before);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_trigger_set_panics() {
        let _ = InjectionWrapper::with_trigger(
            vec![],
            Corruption::SetByte { offset: 0, value: 0 },
            ActivationWindow::immediate_persistent(),
        );
    }
}

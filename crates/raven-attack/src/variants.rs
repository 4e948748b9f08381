//! The Table I attack-variant catalog.
//!
//! The paper's Table I lists attack variants by target layer of the control
//! structure, the wrapped system library, the malicious action, and the
//! observed impact. This module provides (a) the machine-readable catalog —
//! regenerated verbatim by the `table1_variants` bench — and (b) concrete
//! interceptor implementations for the variants that act on paths our
//! simulation exposes (ITP network, USB write, USB read).

use raven_hw::channel::{Interceptor, WriteAction, WriteContext};
use raven_teleop::{ItpPacket, ITP_PACKET_LEN};
use serde::{Deserialize, Serialize};

/// Target layer in the control structure (column 1 of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TargetLayer {
    /// Master console ↔ control software (network).
    MasterConsoleAndControl,
    /// Inside the control software (math library).
    ControlSoftware,
    /// Control software ↔ hardware interface (read/write of PLC state).
    ControlAndHardwareInterface,
    /// Software ↔ physical robot (motor commands, encoder feedback).
    SoftwareAndPhysical,
}

/// Observed impact class (column 4 of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObservedImpact {
    /// The robot follows a trajectory the operator never commanded.
    HijackTrajectory,
    /// Transition to an unwanted halt state (E-STOP).
    UnwantedEStop,
    /// Inverse-kinematics failure halt ("IK-fail").
    UnwantedIkFail,
    /// Initialization never completes.
    HomingFailure,
    /// Abrupt jump of the robotic arms.
    AbruptJump,
    /// No observable impact.
    None,
}

impl std::fmt::Display for ObservedImpact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ObservedImpact::HijackTrajectory => "Hijack trajectory",
            ObservedImpact::UnwantedEStop => "Unwanted state (E-STOP)",
            ObservedImpact::UnwantedIkFail => "Unwanted state (IK-fail)",
            ObservedImpact::HomingFailure => "Homing Failure",
            ObservedImpact::AbruptJump => "Abrupt Jump",
            ObservedImpact::None => "None",
        };
        f.write_str(s)
    }
}

/// One row of Table I.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct VariantSpec {
    /// Short identifier used by the experiment harness.
    pub id: &'static str,
    /// Target layer.
    pub layer: TargetLayer,
    /// The system library the paper's malware wraps.
    pub target_library: &'static str,
    /// The malicious action.
    pub action: &'static str,
    /// The impact the paper reports.
    pub paper_impact: ObservedImpact,
}

/// The full Table I catalog.
pub fn catalog() -> Vec<VariantSpec> {
    vec![
        VariantSpec {
            id: "net-port",
            layer: TargetLayer::MasterConsoleAndControl,
            target_library: "socket (bind, recv_from)",
            action: "change port number",
            paper_impact: ObservedImpact::UnwantedEStop,
        },
        VariantSpec {
            id: "net-content",
            layer: TargetLayer::MasterConsoleAndControl,
            target_library: "socket (bind, recv_from)",
            action: "change packet content",
            paper_impact: ObservedImpact::HijackTrajectory,
        },
        VariantSpec {
            id: "math-drift",
            layer: TargetLayer::ControlSoftware,
            target_library: "math (sin, cos)",
            action: "add drift to output/input",
            paper_impact: ObservedImpact::UnwantedIkFail,
        },
        VariantSpec {
            id: "plc-state",
            layer: TargetLayer::ControlAndHardwareInterface,
            target_library: "interface (read, write)",
            action: "change robot state in PLC",
            paper_impact: ObservedImpact::HomingFailure,
        },
        VariantSpec {
            id: "motor-cmd",
            layer: TargetLayer::SoftwareAndPhysical,
            target_library: "interface (write)",
            action: "change motor commands",
            paper_impact: ObservedImpact::AbruptJump,
        },
        VariantSpec {
            id: "encoder-fb",
            layer: TargetLayer::SoftwareAndPhysical,
            target_library: "interface (read)",
            action: "change encoder feedback",
            paper_impact: ObservedImpact::AbruptJump,
        },
    ]
}

/// Scenario-A man-in-the-middle on the ITP stream: re-encodes packets with a
/// constant additional displacement per cycle while the pedal is down,
/// for a bounded number of packets.
///
/// The injected motion is well-formed ITP — "preserving their legitimate
/// format" (paper §I) — so the network-layer checksum validation passes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItpMitm {
    /// Extra displacement injected per packet (meters).
    pub extra_delta: raven_math::Vec3,
    /// Packets to corrupt once triggered.
    pub duration_packets: u64,
    /// Triggered packets to skip first.
    pub delay_packets: u64,
    corrupted: u64,
    seen: u64,
}

impl ItpMitm {
    /// Creates a MITM injecting `extra_delta` per packet for
    /// `duration_packets` packets after `delay_packets` pedal-down packets.
    pub fn new(extra_delta: raven_math::Vec3, delay_packets: u64, duration_packets: u64) -> Self {
        ItpMitm { extra_delta, duration_packets, delay_packets, corrupted: 0, seen: 0 }
    }

    /// Processes one on-the-wire ITP buffer, possibly replacing it with a
    /// corrupted re-encoding.
    pub fn process(&mut self, buf: &mut [u8; ITP_PACKET_LEN]) {
        let Ok(mut pkt) = ItpPacket::decode(buf) else {
            return;
        };
        if !pkt.pedal {
            return;
        }
        self.seen += 1;
        if self.seen > self.delay_packets && self.corrupted < self.duration_packets {
            pkt.delta_pos += self.extra_delta;
            *buf = pkt.encode();
            self.corrupted += 1;
        }
    }

    /// Packets corrupted so far.
    pub fn corrupted(&self) -> u64 {
        self.corrupted
    }
}

/// The `plc-state` variant: rewrites the state nibble of Byte 0 on the USB
/// write path so the PLC sees a state the software never commanded.
#[derive(Debug)]
pub struct StateNibbleRewrite {
    /// The nibble to substitute.
    pub forced_nibble: u8,
    rewrites: u64,
}

impl StateNibbleRewrite {
    /// Interceptor name.
    pub const NAME: &'static str = "plc-state-rewrite";

    /// Forces every command packet's state nibble to `forced_nibble`.
    pub fn new(forced_nibble: u8) -> Self {
        StateNibbleRewrite { forced_nibble: forced_nibble & 0x0F, rewrites: 0 }
    }

    /// Rewrites performed.
    pub fn rewrites(&self) -> u64 {
        self.rewrites
    }
}

impl Interceptor for StateNibbleRewrite {
    fn on_write(&mut self, buf: &mut Vec<u8>, _ctx: &mut WriteContext<'_>) -> WriteAction {
        if let Some(b0) = buf.first_mut() {
            *b0 = (*b0 & 0xF0) | self.forced_nibble;
            self.rewrites += 1;
        }
        WriteAction::Forward
    }

    fn name(&self) -> &str {
        Self::NAME
    }
}

/// The `encoder-fb` variant: adds a constant offset to one encoder word on
/// the USB read path, creating a phantom position error the PID then
/// "corrects" — physically moving the arm.
#[derive(Debug)]
pub struct EncoderCorruption {
    /// Encoder channel 0–7.
    pub channel: usize,
    /// Counts added to every reading.
    pub offset_counts: i32,
    /// Reads to pass through unmodified before the corruption engages —
    /// a constant offset present from power-up is calibrated away by
    /// homing; the attack works by engaging *mid-operation*.
    pub activate_after_reads: u64,
    reads: u64,
    corruptions: u64,
}

impl EncoderCorruption {
    /// Interceptor name.
    pub const NAME: &'static str = "encoder-feedback-corruption";

    /// Creates a corruption active from the first read.
    pub fn new(channel: usize, offset_counts: i32) -> Self {
        Self::delayed(channel, offset_counts, 0)
    }

    /// Creates a corruption that engages after `activate_after_reads`.
    pub fn delayed(channel: usize, offset_counts: i32, activate_after_reads: u64) -> Self {
        EncoderCorruption { channel, offset_counts, activate_after_reads, reads: 0, corruptions: 0 }
    }

    /// Corruptions applied.
    pub fn corruptions(&self) -> u64 {
        self.corruptions
    }
}

impl Interceptor for EncoderCorruption {
    fn on_read(&mut self, buf: &mut Vec<u8>, _ctx: &mut WriteContext<'_>) {
        self.reads += 1;
        if self.reads <= self.activate_after_reads {
            return;
        }
        // Feedback layout: byte 0 status, then 3 bytes per channel (i24 LE).
        let lo = 1 + 3 * self.channel;
        if lo + 2 >= buf.len() {
            return;
        }
        let raw = u32::from(buf[lo]) | u32::from(buf[lo + 1]) << 8 | u32::from(buf[lo + 2]) << 16;
        let value = ((raw << 8) as i32) >> 8;
        let corrupted = value.wrapping_add(self.offset_counts);
        let le = corrupted.to_le_bytes();
        buf[lo] = le[0];
        buf[lo + 1] = le[1];
        buf[lo + 2] = le[2];
        self.corruptions += 1;
    }

    fn name(&self) -> &str {
        Self::NAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_hw::{RobotState, UsbCommandPacket, UsbFeedbackPacket};
    use raven_math::Vec3;
    use simbus::Observer;
    use simbus::SimTime;

    fn ctx(obs: &mut Observer) -> WriteContext<'_> {
        WriteContext {
            time: SimTime::ZERO,
            seq: 0,
            process: raven_hw::UsbChannel::PROCESS,
            fd: raven_hw::UsbChannel::BOARD_FD,
            obs,
        }
    }

    #[test]
    fn catalog_covers_all_layers() {
        let cat = catalog();
        assert_eq!(cat.len(), 6);
        let layers: std::collections::BTreeSet<_> =
            cat.iter().map(|v| format!("{:?}", v.layer)).collect();
        assert_eq!(layers.len(), 4, "all four layers of Table I present");
        // IDs unique.
        let ids: std::collections::BTreeSet<_> = cat.iter().map(|v| v.id).collect();
        assert_eq!(ids.len(), cat.len());
    }

    #[test]
    fn itp_mitm_corrupts_only_pedal_down_packets() {
        let mut mitm = ItpMitm::new(Vec3::new(1e-3, 0.0, 0.0), 0, u64::MAX);
        let up = ItpPacket { pedal: false, ..Default::default() };
        let mut buf = up.encode();
        mitm.process(&mut buf);
        assert_eq!(ItpPacket::decode(&buf).unwrap().delta_pos, Vec3::ZERO);
        assert_eq!(mitm.corrupted(), 0);

        let down = ItpPacket { pedal: true, ..Default::default() };
        let mut buf = down.encode();
        mitm.process(&mut buf);
        let decoded = ItpPacket::decode(&buf).unwrap();
        assert!((decoded.delta_pos.x - 1e-3).abs() < 1e-7);
        assert_eq!(mitm.corrupted(), 1);
    }

    #[test]
    fn itp_mitm_respects_delay_and_duration() {
        let mut mitm = ItpMitm::new(Vec3::new(1e-3, 0.0, 0.0), 2, 3);
        let mut hits = 0;
        for _ in 0..10 {
            let mut buf = ItpPacket { pedal: true, ..Default::default() }.encode();
            mitm.process(&mut buf);
            if ItpPacket::decode(&buf).unwrap().delta_pos.x > 1e-4 {
                hits += 1;
            }
        }
        assert_eq!(hits, 3);
    }

    #[test]
    fn itp_mitm_output_always_validates() {
        let mut mitm = ItpMitm::new(Vec3::new(5e-3, -1e-3, 2e-3), 0, u64::MAX);
        let mut buf = ItpPacket { pedal: true, seq: 42, ..Default::default() }.encode();
        mitm.process(&mut buf);
        assert!(ItpPacket::decode(&buf).is_ok(), "MITM output must remain well-formed");
    }

    #[test]
    fn state_nibble_rewrite_changes_plc_view() {
        let mut obs = Observer::default();
        let mut rw = StateNibbleRewrite::new(RobotState::EStop.nibble());
        let pkt = UsbCommandPacket { state: RobotState::PedalDown, watchdog: true, dac: [0; 8] };
        let mut buf = pkt.encode().to_vec();
        rw.on_write(&mut buf, &mut ctx(&mut obs));
        let decoded = UsbCommandPacket::decode_unchecked(&buf).unwrap();
        assert_eq!(decoded.state, RobotState::EStop);
        assert!(decoded.watchdog, "watchdog bit preserved");
        assert_eq!(rw.rewrites(), 1);
    }

    #[test]
    fn encoder_corruption_shifts_reading() {
        let mut obs = Observer::default();
        let mut ec = EncoderCorruption::new(1, 5000);
        let fb = UsbFeedbackPacket {
            state: RobotState::PedalDown,
            watchdog: false,
            plc_fault: false,
            encoders: [100, 200, 300, 0, 0, 0, 0, 0],
        };
        let mut buf = fb.encode().to_vec();
        ec.on_read(&mut buf, &mut ctx(&mut obs));
        let decoded = UsbFeedbackPacket::decode_unchecked(&buf).unwrap();
        assert_eq!(decoded.encoders[1], 5200);
        assert_eq!(decoded.encoders[0], 100, "other channels untouched");
        assert_eq!(ec.corruptions(), 1);
    }

    #[test]
    fn encoder_corruption_handles_negative_values() {
        let mut obs = Observer::default();
        let mut ec = EncoderCorruption::new(0, -1000);
        let fb = UsbFeedbackPacket {
            state: RobotState::PedalUp,
            watchdog: false,
            plc_fault: false,
            encoders: [500, 0, 0, 0, 0, 0, 0, 0],
        };
        let mut buf = fb.encode().to_vec();
        ec.on_read(&mut buf, &mut ctx(&mut obs));
        let decoded = UsbFeedbackPacket::decode_unchecked(&buf).unwrap();
        assert_eq!(decoded.encoders[0], -500);
    }

    #[test]
    fn impact_display_matches_table_wording() {
        assert_eq!(format!("{}", ObservedImpact::UnwantedEStop), "Unwanted state (E-STOP)");
        assert_eq!(format!("{}", ObservedImpact::AbruptJump), "Abrupt Jump");
    }
}

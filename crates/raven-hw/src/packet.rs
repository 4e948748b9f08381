//! Byte-exact USB packet formats.
//!
//! The attack in the paper works because the USB packets between the control
//! software and the I/O boards *leak the robot's operational state*: "Byte 0
//! switches among 8 different values in a surgical run whereas other bytes
//! either stay constant or switch between many values … the fifth bit of
//! Byte 0 might be the watchdog signal … the values 31 (0x1F) or 15 (0x0F)
//! in Byte 0 indicate that the robot is engaged and in operation (in the
//! 'Pedal Down' state)" (§III.B.2, Figs. 5–6).
//!
//! Command packets are 18 bytes:
//!
//! ```text
//! byte 0      : state nibble (low 4 bits) | watchdog bit (bit 4)
//! bytes 1..17 : 8 × i16 little-endian DAC words (channels 0–7)
//! byte 17     : additive checksum of bytes 0..17
//! ```
//!
//! Crucially — and this is the vulnerability the paper exploits — the USB
//! boards *do not verify* the checksum on receipt ("the integrity of the
//! packets is not checked after the USB boards receive them", §III.B.3).
//! [`UsbCommandPacket::decode_unchecked`] models the board's behavior;
//! [`UsbCommandPacket::decode_verified`] exists but nothing in the stock pipeline
//! calls it.

use serde::{Deserialize, Serialize};

/// Operational state of the robot (Fig. 1(c) of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RobotState {
    /// Emergency stop: PLC holds the brakes, software halted.
    #[default]
    EStop,
    /// Initialization/homing after the start button.
    Init,
    /// Ready for teleoperation, brakes engaged.
    PedalUp,
    /// Foot pedal pressed: brakes released, console drives the arms.
    PedalDown,
}

impl RobotState {
    /// The state nibble placed in Byte 0 of every USB packet.
    ///
    /// The concrete values make Byte 0 "switch among 4 values" (8 with the
    /// watchdog bit), as the paper observes; `0x0F` is Pedal Down, matching
    /// the 0x0F/0x1F trigger values of §III.B.2.
    pub const fn nibble(self) -> u8 {
        match self {
            RobotState::EStop => 0x0,
            RobotState::Init => 0x3,
            RobotState::PedalUp => 0x7,
            RobotState::PedalDown => 0xF,
        }
    }

    /// Parses a state nibble.
    pub const fn from_nibble(nibble: u8) -> Option<RobotState> {
        match nibble {
            0x0 => Some(RobotState::EStop),
            0x3 => Some(RobotState::Init),
            0x7 => Some(RobotState::PedalUp),
            0xF => Some(RobotState::PedalDown),
            _ => None,
        }
    }

    /// All states in the order the state machine visits them.
    pub const fn all() -> [RobotState; 4] {
        [RobotState::EStop, RobotState::Init, RobotState::PedalUp, RobotState::PedalDown]
    }
}

impl std::fmt::Display for RobotState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RobotState::EStop => "E-STOP",
            RobotState::Init => "Init",
            RobotState::PedalUp => "Pedal Up",
            RobotState::PedalDown => "Pedal Down",
        };
        f.write_str(s)
    }
}

/// Length of a command packet on the wire.
pub const COMMAND_PACKET_LEN: usize = 18;

/// Number of DAC channels per board.
pub const DAC_CHANNELS: usize = 8;

/// Bit 4 of Byte 0: the software watchdog ("I'm alive") square wave.
pub const WATCHDOG_BIT: u8 = 0x10;

/// A decoded command packet (control software → USB board).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct UsbCommandPacket {
    /// Operational state advertised to the PLC.
    pub state: RobotState,
    /// Watchdog square-wave phase.
    pub watchdog: bool,
    /// DAC words for motor channels 0–7 (0–2 positioning, 3–6 wrist,
    /// 7 unused).
    pub dac: [i16; DAC_CHANNELS],
}

/// Why a packet failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PacketError {
    /// Wrong wire length.
    WrongLength {
        /// Observed length.
        got: usize,
        /// Required length.
        want: usize,
    },
    /// Byte 0 carries an unknown state nibble.
    UnknownState {
        /// The offending nibble.
        nibble: u8,
    },
    /// Checksum mismatch (only reported by the *verifying* decoder).
    BadChecksum {
        /// Checksum computed over the payload.
        computed: u8,
        /// Checksum found on the wire.
        found: u8,
    },
}

impl std::fmt::Display for PacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PacketError::WrongLength { got, want } => {
                write!(f, "wrong packet length: got {got}, want {want}")
            }
            PacketError::UnknownState { nibble } => {
                write!(f, "unknown state nibble {nibble:#x}")
            }
            PacketError::BadChecksum { computed, found } => {
                write!(f, "checksum mismatch: computed {computed:#04x}, found {found:#04x}")
            }
        }
    }
}

impl std::error::Error for PacketError {}

impl UsbCommandPacket {
    /// Encodes to the 18-byte wire format (with a valid checksum).
    pub fn encode(&self) -> [u8; COMMAND_PACKET_LEN] {
        let mut buf = [0u8; COMMAND_PACKET_LEN];
        buf[0] = self.state.nibble() | if self.watchdog { WATCHDOG_BIT } else { 0 };
        for (i, word) in self.dac.iter().enumerate() {
            let le = word.to_le_bytes();
            buf[1 + 2 * i] = le[0];
            buf[2 + 2 * i] = le[1];
        }
        buf[COMMAND_PACKET_LEN - 1] = checksum(&buf[..COMMAND_PACKET_LEN - 1]);
        buf
    }

    /// Decodes the wire format *without verifying the checksum* — the stock
    /// USB board behavior the attack exploits. Unknown state nibbles are
    /// still rejected (the board cannot act on them).
    ///
    /// # Errors
    ///
    /// [`PacketError::WrongLength`] or [`PacketError::UnknownState`].
    pub fn decode_unchecked(buf: &[u8]) -> Result<UsbCommandPacket, PacketError> {
        if buf.len() != COMMAND_PACKET_LEN {
            return Err(PacketError::WrongLength { got: buf.len(), want: COMMAND_PACKET_LEN });
        }
        let state = RobotState::from_nibble(buf[0] & 0x0F)
            .ok_or(PacketError::UnknownState { nibble: buf[0] & 0x0F })?;
        let watchdog = buf[0] & WATCHDOG_BIT != 0;
        let mut dac = [0i16; DAC_CHANNELS];
        for (i, word) in dac.iter_mut().enumerate() {
            *word = i16::from_le_bytes([buf[1 + 2 * i], buf[2 + 2 * i]]);
        }
        Ok(UsbCommandPacket { state, watchdog, dac })
    }

    /// Decodes *and* verifies the checksum — the integrity check the boards
    /// should have had. Provided for the hardening experiments.
    ///
    /// # Errors
    ///
    /// Everything [`UsbCommandPacket::decode_unchecked`] returns, plus
    /// [`PacketError::BadChecksum`].
    pub fn decode_verified(buf: &[u8]) -> Result<UsbCommandPacket, PacketError> {
        if buf.len() != COMMAND_PACKET_LEN {
            return Err(PacketError::WrongLength { got: buf.len(), want: COMMAND_PACKET_LEN });
        }
        let computed = checksum(&buf[..COMMAND_PACKET_LEN - 1]);
        let found = buf[COMMAND_PACKET_LEN - 1];
        if computed != found {
            return Err(PacketError::BadChecksum { computed, found });
        }
        Self::decode_unchecked(buf)
    }
}

/// Length of a feedback packet on the wire: Byte 0 echoes the state byte,
/// then 8 × i24 little-endian encoder counts, then a checksum.
pub const FEEDBACK_PACKET_LEN: usize = 26;

/// Bit 5 of feedback Byte 0: the PLC's E-STOP latch, reported back to the
/// control software ("the PLC … monitors the system state by communicating
/// with the robotic software", paper §II.B).
pub const PLC_FAULT_BIT: u8 = 0x20;

/// A decoded feedback packet (USB board → control software).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct UsbFeedbackPacket {
    /// Echo of the last accepted state.
    pub state: RobotState,
    /// Echo of the watchdog phase.
    pub watchdog: bool,
    /// The PLC's E-STOP latch (set on watchdog timeout, hardware trips, or
    /// the physical button).
    pub plc_fault: bool,
    /// Encoder counts for channels 0–7 (24-bit signed on the wire).
    pub encoders: [i32; DAC_CHANNELS],
}

impl UsbFeedbackPacket {
    /// Encodes to the 26-byte wire format.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if an encoder count exceeds the signed 24-bit
    /// range (the hardware register would have wrapped long before).
    pub fn encode(&self) -> [u8; FEEDBACK_PACKET_LEN] {
        let mut buf = [0u8; FEEDBACK_PACKET_LEN];
        buf[0] = self.state.nibble()
            | if self.watchdog { WATCHDOG_BIT } else { 0 }
            | if self.plc_fault { PLC_FAULT_BIT } else { 0 };
        for (i, count) in self.encoders.iter().enumerate() {
            debug_assert!(
                (-(1 << 23)..(1 << 23)).contains(count),
                "encoder count {count} exceeds i24"
            );
            let le = count.to_le_bytes();
            buf[1 + 3 * i] = le[0];
            buf[2 + 3 * i] = le[1];
            buf[3 + 3 * i] = le[2];
        }
        buf[FEEDBACK_PACKET_LEN - 1] = checksum(&buf[..FEEDBACK_PACKET_LEN - 1]);
        buf
    }

    /// Decodes the wire format without checksum verification (the control
    /// software trusts the boards just as the boards trust the software).
    ///
    /// # Errors
    ///
    /// [`PacketError::WrongLength`] or [`PacketError::UnknownState`].
    pub fn decode_unchecked(buf: &[u8]) -> Result<UsbFeedbackPacket, PacketError> {
        if buf.len() != FEEDBACK_PACKET_LEN {
            return Err(PacketError::WrongLength { got: buf.len(), want: FEEDBACK_PACKET_LEN });
        }
        let state = RobotState::from_nibble(buf[0] & 0x0F)
            .ok_or(PacketError::UnknownState { nibble: buf[0] & 0x0F })?;
        let watchdog = buf[0] & WATCHDOG_BIT != 0;
        let plc_fault = buf[0] & PLC_FAULT_BIT != 0;
        let mut encoders = [0i32; DAC_CHANNELS];
        for (i, out) in encoders.iter_mut().enumerate() {
            let raw = u32::from(buf[1 + 3 * i])
                | u32::from(buf[2 + 3 * i]) << 8
                | u32::from(buf[3 + 3 * i]) << 16;
            // Sign-extend from 24 bits.
            *out = ((raw << 8) as i32) >> 8;
        }
        Ok(UsbFeedbackPacket { state, watchdog, plc_fault, encoders })
    }
}

/// The additive checksum used on both packet types.
pub fn checksum(payload: &[u8]) -> u8 {
    payload.iter().fold(0u8, |acc, b| acc.wrapping_add(*b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_nibbles_are_distinct_and_roundtrip() {
        for s in RobotState::all() {
            assert_eq!(RobotState::from_nibble(s.nibble()), Some(s));
        }
        assert_eq!(RobotState::from_nibble(0x5), None);
        // Pedal Down must be 0x0F: the paper's malware triggers on 0x0F/0x1F.
        assert_eq!(RobotState::PedalDown.nibble(), 0x0F);
    }

    #[test]
    fn byte0_has_eight_values_four_without_watchdog() {
        let mut values = std::collections::BTreeSet::new();
        for s in RobotState::all() {
            for wd in [false, true] {
                let pkt = UsbCommandPacket { state: s, watchdog: wd, dac: [0; 8] };
                values.insert(pkt.encode()[0]);
            }
        }
        assert_eq!(values.len(), 8);
        let without_wd: std::collections::BTreeSet<u8> =
            values.iter().map(|b| b & !WATCHDOG_BIT).collect();
        assert_eq!(without_wd.len(), 4);
    }

    #[test]
    fn command_roundtrip() {
        let pkt = UsbCommandPacket {
            state: RobotState::PedalDown,
            watchdog: true,
            dac: [100, -200, 3000, -4000, 0, 1, -1, i16::MAX],
        };
        let buf = pkt.encode();
        assert_eq!(buf.len(), COMMAND_PACKET_LEN);
        assert_eq!(buf[0], 0x1F);
        assert_eq!(UsbCommandPacket::decode_unchecked(&buf).unwrap(), pkt);
        assert_eq!(UsbCommandPacket::decode_verified(&buf).unwrap(), pkt);
    }

    #[test]
    fn board_accepts_corrupted_payload_without_checksum_check() {
        // The TOCTOU attack: mutate a DAC byte after encoding; the stock
        // decoder accepts it, the verifying decoder rejects it.
        let pkt = UsbCommandPacket { state: RobotState::PedalDown, watchdog: false, dac: [0; 8] };
        let mut buf = pkt.encode();
        buf[2] = buf[2].wrapping_add(77); // high byte of channel 0
        let decoded = UsbCommandPacket::decode_unchecked(&buf).unwrap();
        assert_ne!(decoded.dac[0], 0, "corruption must reach the DAC");
        assert!(matches!(
            UsbCommandPacket::decode_verified(&buf),
            Err(PacketError::BadChecksum { .. })
        ));
    }

    #[test]
    fn wrong_length_rejected() {
        assert!(matches!(
            UsbCommandPacket::decode_unchecked(&[0u8; 5]),
            Err(PacketError::WrongLength { got: 5, want: COMMAND_PACKET_LEN })
        ));
        assert!(matches!(
            UsbFeedbackPacket::decode_unchecked(&[0u8; 5]),
            Err(PacketError::WrongLength { .. })
        ));
    }

    #[test]
    fn unknown_state_rejected() {
        let mut buf = UsbCommandPacket::default().encode();
        buf[0] = 0x05;
        assert!(matches!(
            UsbCommandPacket::decode_unchecked(&buf),
            Err(PacketError::UnknownState { nibble: 0x5 })
        ));
    }

    #[test]
    fn feedback_roundtrip_with_negative_counts() {
        let pkt = UsbFeedbackPacket {
            state: RobotState::PedalUp,
            watchdog: true,
            plc_fault: true,
            encoders: [0, 1, -1, 123_456, -123_456, 8_388_607, -8_388_608, 42],
        };
        let buf = pkt.encode();
        assert_eq!(UsbFeedbackPacket::decode_unchecked(&buf).unwrap(), pkt);
    }

    #[test]
    fn checksum_is_additive() {
        assert_eq!(checksum(&[1, 2, 3]), 6);
        assert_eq!(checksum(&[255, 1]), 0); // wraps
        assert_eq!(checksum(&[]), 0);
    }

    #[test]
    fn packet_error_display() {
        let e = PacketError::WrongLength { got: 3, want: 18 };
        assert!(format!("{e}").contains("length"));
        let e = PacketError::BadChecksum { computed: 1, found: 2 };
        assert!(format!("{e}").contains("checksum"));
        let e = PacketError::UnknownState { nibble: 9 };
        assert!(format!("{e}").contains("state"));
    }
}

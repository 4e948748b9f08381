//! Simulated RAVEN II hardware substrate.
//!
//! Everything below the control software in the paper's Fig. 1(b):
//!
//! * [`packet`] — byte-exact USB command/feedback packet formats, including
//!   the state/watchdog leak in Byte 0 (Figs. 5–6) and the *missing*
//!   integrity check the attack exploits (§III.B.3);
//! * [`channel`] — the USB write/read paths with an interceptor chain, the
//!   analog of the `LD_PRELOAD` system-call-wrapper hook (Fig. 4): attack
//!   wrappers from `raven-attack` install here, and the dynamic-model guard
//!   from `raven-detect` runs at the chain's reserved guard slot;
//! * [`board`] — the 8-channel interface board (stock: no integrity check;
//!   [`board::UsbBoard::hardened`] for the counterfactual);
//! * [`chaos`] — windowed accidental-fault interceptors (stuck/bit-flipped
//!   encoders, dropped USB frames, transient board silence) for the
//!   chaos-testing harness;
//! * [`plc`] — the PLC safety processor: watchdog monitor, fail-safe brakes,
//!   E-STOP latch;
//! * [`rig`] — the assembled hardware: channel → board → PLC/motor
//!   controllers → plant → encoders → read path.

#![forbid(unsafe_code)]
// The 1 ms safety cycle runs through this crate: no panic path outside
// tests (each sanctioned site is an item-level `#[expect]` with its reason).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod bitw;
pub mod board;
pub mod channel;
pub mod chaos;
pub mod packet;
pub mod plc;
pub mod rig;

pub use bitw::{BitwCodec, BitwPlacement, BITW_OVERHEAD};
pub use board::UsbBoard;
pub use channel::{Interceptor, UsbChannel, WriteAction, WriteContext};
pub use chaos::{
    ChaosEncoderBitFlip, ChaosFeedbackHold, ChaosFrameDrop, ChaosStuckEncoder, FaultWindow,
};
pub use packet::{
    PacketError, RobotState, UsbCommandPacket, UsbFeedbackPacket, COMMAND_PACKET_LEN, DAC_CHANNELS,
    FEEDBACK_PACKET_LEN, WATCHDOG_BIT,
};
pub use plc::{EStopCause, Plc};
pub use rig::{HardwareRig, OVERSPEED_LIMITS, WRIST_RAD_PER_COUNT};

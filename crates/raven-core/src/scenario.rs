//! Attack setups the simulation can install — the bridge between
//! `raven-attack`'s mechanisms and the full-system loop.

use serde::{Deserialize, Serialize};

/// An attack to install before a session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AttackSetup {
    /// No attack (clean run).
    None,
    /// Scenario A: unintended user inputs — extra displacement injected
    /// into the ITP stream per packet (meters), for a bounded window.
    ScenarioA {
        /// Extra displacement per packet (meters).
        magnitude: f64,
        /// Pedal-down packets to skip first.
        delay_packets: u64,
        /// Packets to corrupt (≈ ms).
        duration_packets: u64,
    },
    /// Scenario B: unintended motor torque commands — DAC counts added to
    /// one positioning channel after the software safety checks.
    ScenarioB {
        /// DAC counts added per packet.
        dac_delta: i16,
        /// Positioning channel 0–2.
        channel: usize,
        /// Triggered packets to skip first.
        delay_packets: u64,
        /// Packets to corrupt (≈ ms).
        duration_packets: u64,
    },
    /// Table I `plc-state`: force the state nibble the PLC sees.
    PlcStateRewrite {
        /// The nibble to force.
        forced_nibble: u8,
    },
    /// Table I `encoder-fb`: offset one encoder channel on the read path.
    EncoderCorruption {
        /// Encoder channel 0–7.
        channel: usize,
        /// Counts added to every reading.
        offset_counts: i32,
        /// Reads to pass before the corruption engages.
        delay_reads: u64,
    },
    /// Table I `net-port`: the ITP stream never reaches the robot.
    DropItp,
}

impl AttackSetup {
    /// `true` when this setup is an actual attack.
    pub fn is_attack(&self) -> bool {
        !matches!(self, AttackSetup::None)
    }
}

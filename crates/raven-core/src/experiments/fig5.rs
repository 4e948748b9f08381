//! Figure 5 — the contents of USB packets over one robot run.
//!
//! The paper plots every byte of the captured command packets over a full
//! teleoperation session and observes: Byte 0 switches among 8 values (4
//! after removing the toggling fifth bit — the watchdog), while the other
//! bytes either stay constant or switch among many values. This runner
//! boots the full system with the eavesdropping wrapper installed, captures
//! a session, and reproduces those per-byte statistics.

use raven_attack::{byte_profiles, find_state_byte, LoggingWrapper};
use serde::{Deserialize, Serialize};

use crate::sim::{PedalPattern, SimConfig, Simulation};

/// Per-byte summary of the captured traffic (one subplot of Fig. 5(a)).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ByteSummary {
    /// Byte offset in the packet.
    pub offset: usize,
    /// Distinct values observed.
    pub alphabet_size: usize,
    /// Value changes over the capture.
    pub transitions: u64,
}

/// The Fig. 5 reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Result {
    /// Packets captured.
    pub packets: usize,
    /// Per-byte summaries.
    pub bytes: Vec<ByteSummary>,
    /// Distinct Byte 0 values (Fig. 5(c): 8 on a full session).
    pub byte0_values: Vec<u8>,
    /// Distinct Byte 0 values after removing the discovered toggling bit
    /// (Fig. 5(c): 4).
    pub byte0_values_masked: Vec<u8>,
    /// The discovered toggling-bit mask (the watchdog; 0x10).
    pub watchdog_mask: Option<u8>,
}

impl Fig5Result {
    /// Renders the figure's findings as text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "FIGURE 5 (reproduced): per-byte analysis of {} captured USB packets\n",
            self.packets
        );
        out.push_str(&format!("{:<8} {:>14} {:>12}\n", "byte", "alphabet size", "transitions"));
        for b in &self.bytes {
            out.push_str(&format!(
                "{:<8} {:>14} {:>12}\n",
                format!("Byte {}", b.offset),
                b.alphabet_size,
                b.transitions
            ));
        }
        out.push_str(&format!(
            "Byte 0 values: {:02X?} ({} values)\n",
            self.byte0_values,
            self.byte0_values.len()
        ));
        out.push_str(&format!(
            "After removing toggling bit {:#04x}: {:02X?} ({} values)\n",
            self.watchdog_mask.unwrap_or(0),
            self.byte0_values_masked,
            self.byte0_values_masked.len()
        ));
        out
    }
}

/// Captures one full session and analyzes it byte-by-byte.
pub fn run_fig5(seed: u64, session_ms: u64) -> Fig5Result {
    let mut sim = Simulation::new(SimConfig {
        session_ms,
        // Pedal cycling so the capture contains the full state alphabet.
        pedal: PedalPattern::DutyCycle {
            work_ms: session_ms / 3,
            rest_ms: session_ms / 10,
            cycles: 3,
        },
        ..SimConfig::standard(seed)
    });
    // Attacker installs the eavesdropping wrapper before the session.
    sim.rig_mut().channel.install_first(LoggingWrapper::new());
    sim.boot();
    let _ = sim.run_session();

    let capture = sim.rig().channel.interceptor::<LoggingWrapper>().expect("installed").capture();
    let profiles = byte_profiles(capture);
    let bytes = profiles
        .iter()
        .map(|p| ByteSummary {
            offset: p.offset,
            alphabet_size: p.alphabet_size(),
            transitions: p.transitions,
        })
        .collect();
    let byte0_values: Vec<u8> =
        profiles.first().map(|p| p.alphabet.iter().copied().collect()).unwrap_or_default();
    let hypothesis = find_state_byte(capture).ok();
    let watchdog_mask = hypothesis.as_ref().and_then(|h| h.watchdog_mask);
    let mut byte0_values_masked: Vec<u8> =
        byte0_values.iter().map(|b| b & !watchdog_mask.unwrap_or(0)).collect();
    byte0_values_masked.sort_unstable();
    byte0_values_masked.dedup();

    Fig5Result { packets: capture.len(), bytes, byte0_values, byte0_values_masked, watchdog_mask }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_session_shows_paper_byte0_structure() {
        let r = run_fig5(3, 3_000);
        assert!(r.packets > 2_000);
        // Byte 0: 8 values, 4 after the watchdog mask — exactly Fig. 5(c).
        assert_eq!(r.byte0_values.len(), 8, "byte0 values: {:02X?}", r.byte0_values);
        assert_eq!(r.watchdog_mask, Some(0x10));
        assert_eq!(r.byte0_values_masked, vec![0x0, 0x3, 0x7, 0xF]);
        // DAC bytes switch among many values (Fig. 5(b)).
        let busy = r.bytes.iter().filter(|b| b.alphabet_size > 16).count();
        assert!(busy >= 2, "expected data-like bytes; summaries: {:?}", r.bytes);
        let render = r.render();
        assert!(render.contains("Byte 0 values"));
    }
}

//! Offline analysis of captured USB traffic — the Analysis phase of the
//! paper's Fig. 3, reproducing the methodology of Figs. 5 and 6.
//!
//! The attacker does not know the packet format. The paper's approach: "look
//! at the values of the packets byte by byte over time to see whether there
//! are patterns indicating a specific byte that may contain the state
//! information" (§III.B.2). The analysis finds that Byte 0 switches among 8
//! values; that its fifth bit toggles periodically (the watchdog square
//! wave); and that the remaining nibble takes exactly 4 values — matching
//! the 4-state operational state machine known from public documents. The
//! values observed while the robot is being actively teleoperated identify
//! "Pedal Down" and become the malware's trigger.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::wrappers::LoggedPacket;

/// Per-byte value statistics over a capture.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ByteProfile {
    /// Byte offset within the packet.
    pub offset: usize,
    /// Distinct values observed.
    pub alphabet: BTreeSet<u8>,
    /// Number of value *changes* over the capture (low = state-like,
    /// high = data-like).
    pub transitions: u64,
}

impl ByteProfile {
    /// Distinct-value count.
    pub fn alphabet_size(&self) -> usize {
        self.alphabet.len()
    }
}

/// Computes the per-byte profiles of a capture (the data behind Fig. 5(a)).
///
/// Only packets of the dominant length are considered (the attacker cannot
/// assume a single packet type on the channel).
pub fn byte_profiles(capture: &[LoggedPacket]) -> Vec<ByteProfile> {
    let Some(len) = dominant_length(capture) else {
        return Vec::new();
    };
    let packets: Vec<&LoggedPacket> = capture.iter().filter(|p| p.bytes.len() == len).collect();
    let mut profiles: Vec<ByteProfile> = (0..len)
        .map(|offset| ByteProfile { offset, alphabet: BTreeSet::new(), transitions: 0 })
        .collect();
    for (i, pkt) in packets.iter().enumerate() {
        for (offset, profile) in profiles.iter_mut().enumerate() {
            let b = pkt.bytes[offset];
            profile.alphabet.insert(b);
            if i > 0 && packets[i - 1].bytes[offset] != b {
                profile.transitions += 1;
            }
        }
    }
    profiles
}

fn dominant_length(capture: &[LoggedPacket]) -> Option<usize> {
    // BTreeMap, not HashMap: `max_by_key` keeps the *last* maximum, so with
    // sorted keys a tie deterministically resolves to the largest length
    // instead of whatever hash order produced (clippy.toml bans HashMap).
    let mut counts = std::collections::BTreeMap::new();
    for p in capture {
        *counts.entry(p.bytes.len()).or_insert(0usize) += 1;
    }
    counts.into_iter().max_by_key(|(_, c)| *c).map(|(len, _)| len)
}

/// The attacker's hypothesis about where the robot state lives.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateByteHypothesis {
    /// Byte offset carrying the state.
    pub offset: usize,
    /// Bit mask of the periodically-toggling (watchdog) bit, if found.
    pub watchdog_mask: Option<u8>,
    /// The distinct state values after removing the watchdog bit, in order
    /// of first appearance in the capture.
    pub state_values: Vec<u8>,
}

impl StateByteHypothesis {
    /// The raw Byte-0 trigger values for the *last* state to appear —
    /// "Pedal Down" on a capture that reaches teleoperation — including
    /// both watchdog phases (the paper's 0x0F and 0x1F).
    pub fn trigger_values(&self) -> Vec<u8> {
        let Some(&operational) = self.state_values.last() else {
            return Vec::new();
        };
        match self.watchdog_mask {
            Some(mask) => vec![operational, operational | mask],
            None => vec![operational],
        }
    }
}

/// Why the analysis failed to find a state byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnalysisError {
    /// Not enough packets to analyze.
    CaptureTooSmall,
    /// No byte with a small, state-like alphabet was found.
    NoStateLikeByte,
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::CaptureTooSmall => f.write_str("capture too small to analyze"),
            AnalysisError::NoStateLikeByte => f.write_str("no state-like byte found"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Identifies the state byte: the byte whose alphabet is small (3–16
/// values) but not constant, preferring the smallest alphabet after
/// removing one toggling bit.
///
/// # Errors
///
/// [`AnalysisError`] when the capture is too small or featureless.
pub fn find_state_byte(capture: &[LoggedPacket]) -> Result<StateByteHypothesis, AnalysisError> {
    if capture.len() < 64 {
        return Err(AnalysisError::CaptureTooSmall);
    }
    let profiles = byte_profiles(capture);
    let len = profiles.len();
    let packets: Vec<&LoggedPacket> = capture.iter().filter(|p| p.bytes.len() == len).collect();

    let mut best: Option<StateByteHypothesis> = None;
    let mut best_score = usize::MAX;
    for profile in &profiles {
        let size = profile.alphabet_size();
        if !(3..=16).contains(&size) {
            continue;
        }
        let series: Vec<u8> = packets.iter().map(|p| p.bytes[profile.offset]).collect();
        let watchdog_mask = find_toggling_bit(&series);
        let masked: Vec<u8> = match watchdog_mask {
            Some(mask) => series.iter().map(|b| b & !mask).collect(),
            None => series.clone(),
        };
        let state_values = first_appearance_order(&masked);
        // Score: fewer residual states is more state-machine-like, and a
        // byte carrying a periodic (watchdog-like) bit is a far stronger
        // candidate than one without — a monotone counter byte can have a
        // small alphabet too, but no embedded square wave (the structure
        // the paper keys on in §III.B.2).
        let score = state_values.len() + if watchdog_mask.is_none() { 100 } else { 0 };
        if state_values.len() >= 2 && score < best_score {
            best_score = score;
            best =
                Some(StateByteHypothesis { offset: profile.offset, watchdog_mask, state_values });
        }
    }
    best.ok_or(AnalysisError::NoStateLikeByte)
}

/// Finds a bit that toggles on ≥25% of consecutive samples — the signature
/// of the watchdog square wave (it toggles every packet in our system; the
/// loose bound tolerates captures that interleave packet types).
fn find_toggling_bit(series: &[u8]) -> Option<u8> {
    for bit in 0..8u8 {
        let mask = 1u8 << bit;
        let toggles = series.windows(2).filter(|w| (w[0] ^ w[1]) & mask != 0).count();
        if toggles * 4 >= series.len().saturating_sub(1) && toggles > 8 {
            return Some(mask);
        }
    }
    None
}

fn first_appearance_order(series: &[u8]) -> Vec<u8> {
    let mut seen = Vec::new();
    for &b in series {
        if !seen.contains(&b) {
            seen.push(b);
        }
    }
    seen
}

/// Segments a capture into runs of inferred state (the labeled staircase of
/// Fig. 6), using a hypothesis from [`find_state_byte`].
pub fn infer_state_segments(
    capture: &[LoggedPacket],
    hypothesis: &StateByteHypothesis,
) -> Vec<StateSegment> {
    let mask = hypothesis.watchdog_mask.unwrap_or(0);
    let mut segments: Vec<StateSegment> = Vec::new();
    for pkt in capture {
        let Some(&b) = pkt.bytes.get(hypothesis.offset) else {
            continue;
        };
        let value = b & !mask;
        match segments.last_mut() {
            Some(seg) if seg.value == value => seg.packets += 1,
            _ => segments.push(StateSegment { value, start: pkt.time, packets: 1 }),
        }
    }
    segments
}

/// One run of constant inferred state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateSegment {
    /// The masked state value.
    pub value: u8,
    /// Capture time of the first packet in the run.
    pub start: simbus::SimTime,
    /// Packets in the run.
    pub packets: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_hw::{RobotState, UsbCommandPacket};
    use simbus::{SimDuration, SimTime};

    /// Builds a synthetic capture mimicking a full session:
    /// E-STOP → Init → Pedal Up → Pedal Down → Pedal Up → Pedal Down.
    fn session_capture() -> Vec<LoggedPacket> {
        let phases: &[(RobotState, u64)] = &[
            (RobotState::EStop, 50),
            (RobotState::Init, 200),
            (RobotState::PedalUp, 100),
            (RobotState::PedalDown, 400),
            (RobotState::PedalUp, 50),
            (RobotState::PedalDown, 200),
        ];
        let mut out = Vec::new();
        let mut seq = 0u64;
        for &(state, count) in phases {
            for k in 0..count {
                let pkt = UsbCommandPacket {
                    state,
                    watchdog: seq.is_multiple_of(2),
                    // DAC values vary like real motion (data-like bytes).
                    dac: [
                        (1000.0 * ((seq as f64) * 0.1).sin()) as i16,
                        (800.0 * ((seq as f64) * 0.07).cos()) as i16,
                        (k as i16).wrapping_mul(13),
                        0,
                        0,
                        0,
                        0,
                        0,
                    ],
                };
                out.push(LoggedPacket {
                    time: SimTime::ZERO + SimDuration::from_millis(seq),
                    seq,
                    bytes: pkt.encode().to_vec(),
                });
                seq += 1;
            }
        }
        out
    }

    #[test]
    fn byte_profiles_show_byte0_small_alphabet() {
        let profiles = byte_profiles(&session_capture());
        assert_eq!(profiles.len(), 18);
        // Byte 0: 4 states × 2 watchdog phases = 8 values (Fig. 5(c)).
        assert_eq!(profiles[0].alphabet_size(), 8);
        // DAC bytes are data-like: many values.
        assert!(profiles[1].alphabet_size() > 16 || profiles[2].alphabet_size() > 16);
    }

    #[test]
    fn finds_byte0_with_watchdog_mask() {
        let h = find_state_byte(&session_capture()).unwrap();
        assert_eq!(h.offset, 0);
        assert_eq!(h.watchdog_mask, Some(0x10), "fifth bit is the watchdog");
        // Four residual values, in state-machine order of appearance.
        assert_eq!(h.state_values.len(), 4);
        assert_eq!(h.state_values[0], RobotState::EStop.nibble());
        assert_eq!(*h.state_values.last().unwrap(), RobotState::PedalDown.nibble());
    }

    #[test]
    fn trigger_values_match_paper() {
        let h = find_state_byte(&session_capture()).unwrap();
        let mut t = h.trigger_values();
        t.sort_unstable();
        assert_eq!(t, vec![0x0F, 0x1F], "the paper's trigger values");
    }

    #[test]
    fn segments_reconstruct_the_session() {
        let capture = session_capture();
        let h = find_state_byte(&capture).unwrap();
        let segs = infer_state_segments(&capture, &h);
        let values: Vec<u8> = segs.iter().map(|s| s.value).collect();
        assert_eq!(values, vec![0x0, 0x3, 0x7, 0xF, 0x7, 0xF], "state staircase of Fig. 6");
        assert_eq!(segs[3].packets, 400);
    }

    #[test]
    fn too_small_capture_fails() {
        let capture: Vec<LoggedPacket> = session_capture().into_iter().take(10).collect();
        assert_eq!(find_state_byte(&capture), Err(AnalysisError::CaptureTooSmall));
    }

    #[test]
    fn featureless_capture_fails() {
        // Constant packets: every byte has alphabet size 1.
        let capture: Vec<LoggedPacket> = (0..200)
            .map(|seq| LoggedPacket { time: SimTime::ZERO, seq, bytes: vec![0u8; 18] })
            .collect();
        assert_eq!(find_state_byte(&capture), Err(AnalysisError::NoStateLikeByte));
    }

    #[test]
    fn mixed_lengths_use_dominant() {
        let mut capture = session_capture();
        // Sprinkle in a few feedback-length packets; analysis must not trip.
        for i in 0..5 {
            capture.insert(
                i * 7,
                LoggedPacket { time: SimTime::ZERO, seq: 10_000 + i as u64, bytes: vec![0; 26] },
            );
        }
        let h = find_state_byte(&capture).unwrap();
        assert_eq!(h.offset, 0);
    }

    #[test]
    fn analysis_error_display() {
        assert!(format!("{}", AnalysisError::CaptureTooSmall).contains("small"));
        assert!(format!("{}", AnalysisError::NoStateLikeByte).contains("state"));
    }
}

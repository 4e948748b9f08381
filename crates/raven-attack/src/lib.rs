//! Attack side of the DSN'16 reproduction — **for defensive evaluation
//! only**: everything here operates on the in-process simulated robot and
//! exists to exercise and measure the dynamic-model detector, exactly as the
//! paper's own "attack injection engine" does (§IV.A.2).
//!
//! * [`wrappers`] — the malicious `write` wrappers of Fig. 4: the logging
//!   (eavesdropping) wrapper of the Attack-Preparation phase and the
//!   self-triggered injection wrapper of the Deployment phase;
//! * [`analysis`] — the Offline-Analysis phase of Figs. 5–6: per-byte
//!   alphabet profiling, watchdog-bit discovery, state-byte identification,
//!   trigger derivation;
//! * [`malware`] — the three-phase lifecycle coordinator of Fig. 3;
//! * [`variants`] — the Table I attack-variant catalog plus concrete
//!   implementations (ITP MITM for scenario A, PLC state rewrite, encoder
//!   feedback corruption);
//! * [`campaign`] — fault-injection campaign configuration (value ×
//!   activation-period grids for Fig. 9, run counts for Table IV).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod campaign;
pub mod feedback;
pub mod malware;
pub mod variants;
pub mod wrappers;

pub use analysis::{
    byte_profiles, find_state_byte, infer_state_segments, AnalysisError, ByteProfile,
    StateByteHypothesis, StateSegment,
};
pub use campaign::{CampaignConfig, CampaignPlan, InjectionSpec, RunDescriptor, Scenario};
pub use feedback::{
    encoder_activity, motion_gated_attack, summarize_motion, FeedbackLogger, GatedInjection,
    MotionSummary,
};
pub use malware::{Malware, MalwarePhase};
pub use variants::{
    catalog, EncoderCorruption, ItpMitm, ObservedImpact, StateNibbleRewrite, TargetLayer,
    VariantSpec,
};
pub use wrappers::{ActivationWindow, Corruption, InjectionWrapper, LoggedPacket, LoggingWrapper};

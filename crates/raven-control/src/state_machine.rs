//! The operational state machine of the RAVEN control software.
//!
//! Fig. 1(c) of the paper: `E-STOP → Init → Pedal Up ⇄ Pedal Down`, with
//! every state able to fall back to E-STOP. The software side mirrors the
//! PLC's view; the state nibble it advertises in Byte 0 of every USB packet
//! is what the paper's malware reverse-engineers (Figs. 5–6).

use raven_hw::RobotState;
use serde::{Deserialize, Serialize};

/// Why the software halted (entered E-STOP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultReason {
    /// A DAC command exceeded the safety threshold.
    DacLimit,
    /// A desired joint position left the workspace/joint limits.
    JointLimit,
    /// Inverse kinematics failed on the desired position ("IK-fail" in
    /// Table I of the paper).
    IkFailure,
    /// Homing did not converge in time ("Homing Failure" in Table I).
    HomingFailure,
    /// The operator pressed the E-STOP button.
    OperatorStop,
    /// An external guard (the dynamic-model detector) demanded a stop.
    GuardStop,
    /// The PLC reported its E-STOP latch through the feedback path.
    PlcStop,
}

impl FaultReason {
    /// Stable snake_case token for metric names and event fields
    /// (e.g. `fault.count.dac_limit`).
    pub fn slug(self) -> &'static str {
        match self {
            FaultReason::DacLimit => "dac_limit",
            FaultReason::JointLimit => "joint_limit",
            FaultReason::IkFailure => "ik_failure",
            FaultReason::HomingFailure => "homing_failure",
            FaultReason::OperatorStop => "operator_stop",
            FaultReason::GuardStop => "guard_stop",
            FaultReason::PlcStop => "plc_stop",
        }
    }
}

impl std::fmt::Display for FaultReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultReason::DacLimit => "DAC safety threshold exceeded",
            FaultReason::JointLimit => "joint/workspace limit exceeded",
            FaultReason::IkFailure => "inverse kinematics failure",
            FaultReason::HomingFailure => "homing failure",
            FaultReason::OperatorStop => "operator emergency stop",
            FaultReason::GuardStop => "dynamic-model guard stop",
            FaultReason::PlcStop => "PLC emergency stop reported",
        };
        f.write_str(s)
    }
}

/// Events driving the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControlEvent {
    /// Physical start button pressed (leaves E-STOP).
    StartPressed,
    /// Initialization/homing completed successfully.
    HomingComplete,
    /// Foot pedal pressed.
    PedalPressed,
    /// Foot pedal released.
    PedalReleased,
    /// A fault was detected.
    Fault(FaultReason),
}

/// The software state machine, with fault cause tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateMachine {
    state: RobotState,
    fault: Option<FaultReason>,
}

impl StateMachine {
    /// Starts in E-STOP, as the robot powers up (paper Fig. 1(c)).
    pub fn new() -> Self {
        StateMachine { state: RobotState::EStop, fault: None }
    }

    /// Current state.
    pub fn state(&self) -> RobotState {
        self.state
    }

    /// The fault that caused the last transition to E-STOP, if any.
    pub fn fault(&self) -> Option<FaultReason> {
        self.fault
    }

    /// Applies an event; returns the new state. Illegal events in a state
    /// are ignored (the RAVEN software discards, e.g., pedal presses during
    /// homing).
    ///
    /// Each event's handler names every state, with no `_` arm: adding a
    /// state or an event fails to compile until every handler decides
    /// what it does there.
    pub fn apply(&mut self, event: ControlEvent) -> RobotState {
        use ControlEvent::*;
        use RobotState::*;
        self.state = match event {
            // Faults preempt from every state.
            Fault(reason) => {
                self.fault = Some(reason);
                match self.state {
                    EStop | Init | PedalUp | PedalDown => EStop,
                }
            }
            StartPressed => match self.state {
                EStop => {
                    self.fault = None;
                    Init
                }
                s @ (Init | PedalUp | PedalDown) => s,
            },
            HomingComplete => match self.state {
                Init => PedalUp,
                s @ (EStop | PedalUp | PedalDown) => s,
            },
            PedalPressed => match self.state {
                PedalUp => PedalDown,
                s @ (EStop | Init | PedalDown) => s,
            },
            PedalReleased => match self.state {
                PedalDown => PedalUp,
                s @ (EStop | Init | PedalUp) => s,
            },
        };
        self.state
    }

    /// `true` when the robot is engaged and operating (the state the
    /// paper's malware waits for).
    pub fn is_pedal_down(&self) -> bool {
        self.state == RobotState::PedalDown
    }

    /// `true` when halted.
    pub fn is_estop(&self) -> bool {
        self.state == RobotState::EStop
    }
}

impl Default for StateMachine {
    fn default() -> Self {
        StateMachine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ControlEvent::*;

    #[test]
    fn nominal_session_path() {
        let mut sm = StateMachine::new();
        assert!(sm.is_estop());
        assert_eq!(sm.apply(StartPressed), RobotState::Init);
        assert_eq!(sm.apply(HomingComplete), RobotState::PedalUp);
        assert_eq!(sm.apply(PedalPressed), RobotState::PedalDown);
        assert!(sm.is_pedal_down());
        assert_eq!(sm.apply(PedalReleased), RobotState::PedalUp);
        assert_eq!(sm.apply(PedalPressed), RobotState::PedalDown);
    }

    /// Paper Fig. 1(c): the start button takes E-STOP to Init, homing
    /// takes Init to Pedal Up, and the pedal toggles Pedal Up and Pedal
    /// Down. Every other non-fault event holds the state.
    const TABLE: [(RobotState, ControlEvent, RobotState); 16] = {
        use RobotState::*;
        [
            (EStop, StartPressed, Init),
            (EStop, HomingComplete, EStop),
            (EStop, PedalPressed, EStop),
            (EStop, PedalReleased, EStop),
            (Init, StartPressed, Init),
            (Init, HomingComplete, PedalUp),
            (Init, PedalPressed, Init),
            (Init, PedalReleased, Init),
            (PedalUp, StartPressed, PedalUp),
            (PedalUp, HomingComplete, PedalUp),
            (PedalUp, PedalPressed, PedalDown),
            (PedalUp, PedalReleased, PedalUp),
            (PedalDown, StartPressed, PedalDown),
            (PedalDown, HomingComplete, PedalDown),
            (PedalDown, PedalPressed, PedalDown),
            (PedalDown, PedalReleased, PedalUp),
        ]
    };

    const STATES: [RobotState; 4] =
        [RobotState::EStop, RobotState::Init, RobotState::PedalUp, RobotState::PedalDown];

    const REASONS: [FaultReason; 7] = [
        FaultReason::DacLimit,
        FaultReason::JointLimit,
        FaultReason::IkFailure,
        FaultReason::HomingFailure,
        FaultReason::OperatorStop,
        FaultReason::GuardStop,
        FaultReason::PlcStop,
    ];

    /// Every reachable machine in `state`: only E-STOP can hold a latched
    /// fault.
    fn machines(state: RobotState) -> Vec<StateMachine> {
        let mut out = vec![StateMachine { state, fault: None }];
        if state == RobotState::EStop {
            out.push(StateMachine { state, fault: Some(FaultReason::PlcStop) });
        }
        out
    }

    #[test]
    fn every_state_event_pair_follows_fig_1c() {
        for from in STATES {
            for event in [StartPressed, HomingComplete, PedalPressed, PedalReleased] {
                let rows = TABLE.iter().filter(|r| r.0 == from && r.1 == event).count();
                assert_eq!(rows, 1, "one row for {from:?} + {event:?}");
            }
        }
        for (from, event, to) in TABLE {
            for mut sm in machines(from) {
                let prior = sm.fault();
                assert_eq!(sm.apply(event), to, "{from:?} + {event:?}");
                assert_eq!(sm.state(), to);
                // Only the start button clears a latched fault.
                let fault =
                    if event == StartPressed && from == RobotState::EStop { None } else { prior };
                assert_eq!(sm.fault(), fault, "{from:?} + {event:?}");
            }
        }
        // A fault preempts from every state and records its reason.
        for from in STATES {
            for reason in REASONS {
                for mut sm in machines(from) {
                    assert_eq!(sm.apply(Fault(reason)), RobotState::EStop, "{from:?} + {reason:?}");
                    assert_eq!(sm.fault(), Some(reason), "{from:?} + {reason:?}");
                }
            }
        }
    }

    #[test]
    fn fault_reason_display() {
        assert!(format!("{}", FaultReason::IkFailure).contains("kinematics"));
        assert!(format!("{}", FaultReason::GuardStop).contains("guard"));
    }
}

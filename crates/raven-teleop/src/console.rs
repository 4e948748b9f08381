//! The master console emulator.
//!
//! "A master console emulator that mimics the teleoperation console
//! functionality by generating user input packets based on previously
//! collected trajectories of surgical movements … and sends them to the
//! RAVEN control software" (paper §IV.A). The emulator samples a
//! [`Trajectory`] at the 1 kHz control rate, differentiates it into
//! incremental ITP packets, and follows a pedal schedule.

use raven_math::Vec3;
use simbus::{SimDuration, SimTime};

use crate::itp::ItpPacket;
use crate::traj::Trajectory;

/// When the operator holds the foot pedal down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PedalSchedule {
    /// Pedal-down intervals `[start, end)` in virtual time.
    intervals: Vec<(SimTime, SimTime)>,
}

impl PedalSchedule {
    /// Pedal down during the given intervals.
    ///
    /// # Panics
    ///
    /// Panics if any interval is empty or intervals are not sorted and
    /// disjoint.
    pub fn intervals(intervals: Vec<(SimTime, SimTime)>) -> Self {
        let mut last_end = SimTime::ZERO;
        for (s, e) in &intervals {
            assert!(s < e, "empty pedal interval");
            assert!(*s >= last_end, "pedal intervals must be sorted and disjoint");
            last_end = *e;
        }
        PedalSchedule { intervals }
    }

    /// Pedal pressed from `start` onward, forever.
    pub fn down_after(start: SimTime) -> Self {
        PedalSchedule { intervals: vec![(start, SimTime::from_nanos(u64::MAX))] }
    }

    /// A typical session: pedal down for `work` then up for `rest`,
    /// repeating `cycles` times, starting at `start` — producing the
    /// PedalUp⇄PedalDown alternation visible in the paper's Fig. 6.
    pub fn duty_cycle(start: SimTime, work: SimDuration, rest: SimDuration, cycles: usize) -> Self {
        let mut intervals = Vec::with_capacity(cycles);
        let mut t = start;
        for _ in 0..cycles {
            intervals.push((t, t + work));
            t = t + work + rest;
        }
        PedalSchedule { intervals }
    }

    /// Is the pedal down at `t`?
    pub fn is_down(&self, t: SimTime) -> bool {
        self.intervals.iter().any(|(s, e)| t >= *s && t < *e)
    }
}

/// The master console emulator.
///
/// # Example
///
/// ```
/// use raven_teleop::console::{MasterConsole, PedalSchedule};
/// use raven_teleop::traj::Circle;
/// use simbus::SimTime;
///
/// let mut console = MasterConsole::new(
///     Box::new(Circle::new(0.01, 0.25)),
///     PedalSchedule::down_after(SimTime::ZERO),
/// );
/// let pkt = console.emit(SimTime::ZERO);
/// assert!(pkt.pedal);
/// ```
#[derive(Debug)]
pub struct MasterConsole {
    trajectory: Box<dyn Trajectory>,
    pedal: PedalSchedule,
    seq: u32,
    last_offset: Option<Vec3>,
    motion_start: Option<SimTime>,
    wrist: [f64; 4],
}

impl MasterConsole {
    /// Creates a console playing `trajectory` under a pedal schedule.
    pub fn new(trajectory: Box<dyn Trajectory>, pedal: PedalSchedule) -> Self {
        MasterConsole {
            trajectory,
            pedal,
            seq: 0,
            last_offset: None,
            motion_start: None,
            wrist: [0.0; 4],
        }
    }

    /// Sets constant wrist targets for the session.
    pub fn set_wrist(&mut self, wrist: [f64; 4]) {
        self.wrist = wrist;
    }

    /// Emits the ITP packet for virtual time `now`. Call once per control
    /// period; the motion clock starts at the first pedal-down emission.
    pub fn emit(&mut self, now: SimTime) -> ItpPacket {
        let pedal = self.pedal.is_down(now);
        let delta = if pedal {
            let start = *self.motion_start.get_or_insert(now);
            let t = now.saturating_since(start).as_secs_f64();
            let offset = self.trajectory.offset(t);
            let delta = match self.last_offset {
                Some(last) => offset - last,
                None => Vec3::ZERO,
            };
            self.last_offset = Some(offset);
            delta
        } else {
            // Pedal up: no motion commanded; freeze the motion clock state
            // so resuming is smooth.
            Vec3::ZERO
        };
        let pkt =
            ItpPacket { seq: self.seq, pedal, estop: false, delta_pos: delta, wrist: self.wrist };
        self.seq = self.seq.wrapping_add(1);
        pkt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traj::Circle;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn sequence_numbers_increment() {
        let mut c = MasterConsole::new(
            Box::new(Circle::new(0.01, 1.0)),
            PedalSchedule::down_after(SimTime::ZERO),
        );
        assert_eq!(c.emit(at(0)).seq, 0);
        assert_eq!(c.emit(at(1)).seq, 1);
        assert_eq!(c.emit(at(2)).seq, 2);
    }

    #[test]
    fn deltas_integrate_back_to_trajectory() {
        let mut c = MasterConsole::new(
            Box::new(Circle::new(0.01, 0.5)),
            PedalSchedule::down_after(SimTime::ZERO),
        );
        let mut sum = Vec3::ZERO;
        for ms in 0..1000 {
            sum += c.emit(at(ms)).delta_pos;
        }
        let mut reference = Circle::new(0.01, 0.5);
        let expect = reference.offset(0.999);
        assert!((sum - expect).norm() < 1e-5, "sum {sum} vs expect {expect}");
    }

    #[test]
    fn pedal_up_emits_zero_motion() {
        let sched = PedalSchedule::intervals(vec![(at(10), at(20))]);
        let mut c = MasterConsole::new(Box::new(Circle::new(0.01, 1.0)), sched);
        let pkt = c.emit(at(0));
        assert!(!pkt.pedal);
        assert_eq!(pkt.delta_pos, Vec3::ZERO);
        let pkt = c.emit(at(15));
        assert!(pkt.pedal);
        let pkt = c.emit(at(25));
        assert!(!pkt.pedal);
        assert_eq!(pkt.delta_pos, Vec3::ZERO);
    }

    #[test]
    fn duty_cycle_alternates() {
        let sched = PedalSchedule::duty_cycle(
            at(100),
            SimDuration::from_millis(50),
            SimDuration::from_millis(30),
            3,
        );
        assert!(!sched.is_down(at(99)));
        assert!(sched.is_down(at(100)));
        assert!(sched.is_down(at(149)));
        assert!(!sched.is_down(at(160)));
        assert!(sched.is_down(at(180)));
        assert!(sched.is_down(at(300))); // third interval [260, 310)
        assert!(!sched.is_down(at(310)));
    }

    #[test]
    fn wrist_targets_are_carried() {
        let mut c = MasterConsole::new(
            Box::new(Circle::new(0.01, 1.0)),
            PedalSchedule::down_after(SimTime::ZERO),
        );
        c.set_wrist([0.2, 0.0, -0.1, 0.0]);
        let pkt = c.emit(at(0));
        assert!((pkt.wrist[0] - 0.2).abs() < 1e-12);
        assert!((pkt.wrist[2] + 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sorted and disjoint")]
    fn overlapping_intervals_panic() {
        let _ = PedalSchedule::intervals(vec![(at(0), at(10)), (at(5), at(15))]);
    }

    #[test]
    #[should_panic(expected = "empty pedal interval")]
    fn empty_interval_panics() {
        let _ = PedalSchedule::intervals(vec![(at(10), at(10))]);
    }
}

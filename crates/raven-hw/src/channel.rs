//! The USB write/read paths and their interceptor chain — the reproduction's
//! analog of the Linux dynamic-linking (`LD_PRELOAD`) hook the paper's
//! malware uses.
//!
//! In the paper, the malicious shared library wraps the `write(2)` system
//! call: every buffer the control software sends to the USB boards first
//! passes through the wrapper, which may log it, mutate bytes in place, or
//! forward it unchanged (Fig. 4). [`Interceptor`] captures exactly that
//! contract: interceptors see the raw bytes *after* the software safety
//! checks and *before* the board — the TOCTOU window of §III.
//!
//! The same hook point hosts the defense: the paper argues the detector
//! belongs "at lower layers of control structure and just before the
//! commands are going to be executed on the physical robot" (§IV.C). The
//! dynamic-model guard in `raven-detect` borrows the detector its owner
//! holds, so it is not installed: [`UsbChannel::reserve_guard_slot`] marks
//! its place in the chain, and [`UsbChannel::write`] runs the guard it is
//! handed there — downstream of any malware installed with
//! [`UsbChannel::install_first`].

use std::any::Any;

use simbus::{Observer, SimTime};

/// Metadata an interceptor can inspect, mirroring what the paper's wrapper
/// checks before acting ("checking the process name and the file
/// descriptor", §III.C.2), plus the observer the write or read reports
/// into.
#[derive(Debug)]
pub struct WriteContext<'a> {
    /// Virtual time of the write.
    pub time: SimTime,
    /// Monotonic sequence number of the write on this channel.
    pub seq: u64,
    /// Name of the writing process.
    pub process: &'static str,
    /// File descriptor being written.
    pub fd: i32,
    /// The run's event ring and metric registry, lent for this call.
    pub obs: &'a mut Observer,
}

/// What an interceptor decided to do with a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteAction {
    /// Deliver the (possibly mutated) buffer downstream.
    Forward,
    /// Suppress the write entirely; downstream sees nothing.
    Drop,
}

/// A hook on the USB write and read paths.
///
/// On the write path an interceptor may mutate `buf` in place (the
/// injection attack), copy it out (the eavesdropping attack), or veto
/// delivery (the detector's mitigation). Returning [`WriteAction::Drop`]
/// stops the chain: later interceptors do not run, matching a wrapper that
/// never calls the real `write`. On the read path it sees, and may mutate,
/// each feedback buffer the control software reads. One object can hook
/// both calls, as one preloaded library shadows both `write(2)` and
/// `read(2)`; each hook it leaves alone is a pass-through.
///
/// `Send` so a whole rig (and any `Simulation` owning one) can migrate
/// between fleet worker threads.
pub trait Interceptor: std::fmt::Debug + Send {
    /// Inspects and possibly mutates one outgoing buffer.
    fn on_write(&mut self, _buf: &mut Vec<u8>, _ctx: &mut WriteContext<'_>) -> WriteAction {
        WriteAction::Forward
    }

    /// Inspects and possibly mutates one incoming buffer.
    fn on_read(&mut self, _buf: &mut Vec<u8>, _ctx: &mut WriteContext<'_>) {}

    /// Human-readable name for diagnostics.
    fn name(&self) -> &str;
}

/// An interceptor the channel owns: `Any` lets
/// [`UsbChannel::interceptor`] hand it back by its concrete type.
trait Installed: Interceptor + Any {}

impl<T: Interceptor + Any> Installed for T {}

/// One place in the chain.
#[derive(Debug)]
enum Stage {
    /// An interceptor the channel owns.
    Installed(Box<dyn Installed>),
    /// The reserved place of the borrowed guard, under its name.
    Guard(&'static str),
}

/// The USB write and read paths: one ordered interceptor chain in front of
/// the board.
///
/// # Example
///
/// ```
/// use raven_hw::channel::{Interceptor, UsbChannel, WriteAction, WriteContext};
/// use simbus::{Observer, SimTime};
///
/// #[derive(Debug, Default)]
/// struct Counter(u64);
/// impl Interceptor for Counter {
///     fn on_write(&mut self, _buf: &mut Vec<u8>, _ctx: &mut WriteContext<'_>) -> WriteAction {
///         self.0 += 1;
///         WriteAction::Forward
///     }
///     fn name(&self) -> &str { "counter" }
/// }
///
/// let mut ch = UsbChannel::new();
/// ch.install(Counter::default());
/// let mut buf = vec![1, 2, 3];
/// let action = ch.write(&mut buf, SimTime::ZERO, None, &mut Observer::default());
/// assert_eq!((action, buf), (WriteAction::Forward, vec![1, 2, 3]));
/// assert_eq!(ch.interceptor::<Counter>().map(|c| c.0), Some(1));
/// ```
#[derive(Debug, Default)]
pub struct UsbChannel {
    chain: Vec<Stage>,
    /// The caller's bytes as they entered the chain, refilled on every
    /// write: a mutation is a delivered or dropped buffer that differs.
    pristine: Vec<u8>,
    seq: u64,
    writes: u64,
    drops: u64,
    mutations: u64,
}

impl UsbChannel {
    /// Process name the RAVEN control software presents.
    pub const PROCESS: &'static str = "r2_control";
    /// File descriptor of the USB board device node.
    pub const BOARD_FD: i32 = 7;

    /// Creates an empty channel (no interceptors — the clean system).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an interceptor to the end of the chain (runs last).
    pub fn install(&mut self, interceptor: impl Interceptor + 'static) {
        self.chain.push(Stage::Installed(Box::new(interceptor)));
    }

    /// Prepends an interceptor (runs first — how `LD_PRELOAD` shadows every
    /// later hook).
    pub fn install_first(&mut self, interceptor: impl Interceptor + 'static) {
        self.chain.insert(0, Stage::Installed(Box::new(interceptor)));
    }

    /// Appends the guard's place to the chain under `name`: the guard
    /// handed to [`UsbChannel::write`] runs here, after every interceptor
    /// installed so far or with [`UsbChannel::install_first`], and before
    /// any appended later. Reads skip the slot.
    pub fn reserve_guard_slot(&mut self, name: &'static str) {
        self.chain.push(Stage::Guard(name));
    }

    /// Removes every interceptor whose name matches (a reserved guard slot
    /// stays).
    pub fn uninstall(&mut self, name: &str) {
        self.chain.retain(|stage| !matches!(stage, Stage::Installed(i) if i.name() == name));
    }

    /// The first installed interceptor of type `T`, for reading back what
    /// it observed.
    pub fn interceptor<T: Interceptor + 'static>(&self) -> Option<&T> {
        self.chain.iter().find_map(|stage| match stage {
            Stage::Installed(i) => {
                let any: &dyn Any = i.as_ref();
                any.downcast_ref()
            }
            Stage::Guard(_) => None,
        })
    }

    /// Names of the installed interceptors and the guard slot, in
    /// execution order.
    pub fn chain_names(&self) -> Vec<&str> {
        self.chain
            .iter()
            .map(|stage| match stage {
                Stage::Installed(i) => i.name(),
                Stage::Guard(name) => name,
            })
            .collect()
    }

    /// Pushes `buf` through the chain's write hooks in place, running
    /// `guard` at the reserved guard slot; `obs` is lent to every
    /// interceptor through the [`WriteContext`]. On [`WriteAction::Forward`]
    /// `buf` holds the bytes the board receives; on [`WriteAction::Drop`]
    /// an interceptor suppressed the write and the later ones did not run.
    pub fn write(
        &mut self,
        buf: &mut Vec<u8>,
        time: SimTime,
        mut guard: Option<&mut dyn Interceptor>,
        obs: &mut Observer,
    ) -> WriteAction {
        let mut ctx =
            WriteContext { time, seq: self.seq, process: Self::PROCESS, fd: Self::BOARD_FD, obs };
        self.seq += 1;
        self.writes += 1;
        self.pristine.clear();
        self.pristine.extend_from_slice(buf);

        let mut action = WriteAction::Forward;
        for stage in &mut self.chain {
            let interceptor: &mut dyn Interceptor = match stage {
                Stage::Installed(i) => i.as_mut(),
                Stage::Guard(_) => match guard.as_deref_mut() {
                    Some(g) => g,
                    None => continue,
                },
            };
            if interceptor.on_write(buf, &mut ctx) == WriteAction::Drop {
                self.drops += 1;
                action = WriteAction::Drop;
                break;
            }
        }
        if *buf != self.pristine {
            self.mutations += 1;
        }
        action
    }

    /// Pushes a feedback buffer through the chain's read hooks, returning
    /// the bytes the control software ultimately sees.
    pub fn read(&mut self, buf: Vec<u8>, time: SimTime, obs: &mut Observer) -> Vec<u8> {
        let mut ctx =
            WriteContext { time, seq: self.seq, process: Self::PROCESS, fd: Self::BOARD_FD, obs };
        let mut current = buf;
        for stage in &mut self.chain {
            if let Stage::Installed(i) = stage {
                i.on_read(&mut current, &mut ctx);
            }
        }
        current
    }

    /// Total writes attempted.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Writes suppressed by an interceptor.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Writes whose bytes were changed in flight.
    pub fn mutations(&self) -> u64 {
        self.mutations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct AddOne;
    impl Interceptor for AddOne {
        fn on_write(&mut self, buf: &mut Vec<u8>, _ctx: &mut WriteContext<'_>) -> WriteAction {
            for b in buf.iter_mut() {
                *b = b.wrapping_add(1);
            }
            WriteAction::Forward
        }
        fn name(&self) -> &str {
            "add-one"
        }
    }

    #[derive(Debug)]
    struct DropAll;
    impl Interceptor for DropAll {
        fn on_write(&mut self, _buf: &mut Vec<u8>, _ctx: &mut WriteContext<'_>) -> WriteAction {
            WriteAction::Drop
        }
        fn name(&self) -> &str {
            "drop-all"
        }
    }

    #[derive(Debug)]
    struct SeqRecorder(Vec<u64>);
    impl Interceptor for SeqRecorder {
        fn on_write(&mut self, _buf: &mut Vec<u8>, ctx: &mut WriteContext<'_>) -> WriteAction {
            self.0.push(ctx.seq);
            WriteAction::Forward
        }
        fn name(&self) -> &str {
            "seq-recorder"
        }
    }

    /// Writes `bytes` with a fresh observer; returns the action and the
    /// buffer as the chain left it.
    fn write(
        ch: &mut UsbChannel,
        bytes: &[u8],
        guard: Option<&mut dyn Interceptor>,
    ) -> (WriteAction, Vec<u8>) {
        let mut buf = bytes.to_vec();
        let action = ch.write(&mut buf, SimTime::ZERO, guard, &mut Observer::default());
        (action, buf)
    }

    #[test]
    fn empty_chain_forwards_unchanged() {
        let mut ch = UsbChannel::new();
        assert_eq!(write(&mut ch, &[1, 2, 3], None), (WriteAction::Forward, vec![1, 2, 3]));
        assert_eq!(ch.mutations(), 0);
        assert_eq!(ch.writes(), 1);
        assert_eq!(ch.drops(), 0);
    }

    #[test]
    fn interceptors_run_in_order_and_compose() {
        let mut ch = UsbChannel::new();
        ch.install(AddOne);
        ch.install(AddOne);
        assert_eq!(write(&mut ch, &[10], None), (WriteAction::Forward, vec![12]));
        assert_eq!(ch.mutations(), 1);
    }

    #[test]
    fn install_first_runs_before_existing() {
        #[derive(Debug)]
        struct FailIfNotFirst;
        impl Interceptor for FailIfNotFirst {
            fn on_write(&mut self, buf: &mut Vec<u8>, _ctx: &mut WriteContext<'_>) -> WriteAction {
                assert_eq!(buf[0], 10, "must see the original bytes");
                WriteAction::Forward
            }
            fn name(&self) -> &str {
                "first"
            }
        }
        let mut ch = UsbChannel::new();
        ch.install(AddOne);
        ch.install_first(FailIfNotFirst);
        assert_eq!(ch.chain_names(), vec!["first", "add-one"]);
        assert_eq!(write(&mut ch, &[10], None), (WriteAction::Forward, vec![11]));
    }

    #[test]
    fn drop_stops_the_chain() {
        let mut ch = UsbChannel::new();
        ch.install(DropAll);
        ch.install(AddOne); // must never run
        assert_eq!(write(&mut ch, &[1], None), (WriteAction::Drop, vec![1]));
        assert_eq!(ch.drops(), 1);
    }

    #[test]
    fn guard_runs_at_its_reserved_slot() {
        #[derive(Debug)]
        struct Double;
        impl Interceptor for Double {
            fn on_write(&mut self, buf: &mut Vec<u8>, _ctx: &mut WriteContext<'_>) -> WriteAction {
                buf[0] *= 2;
                WriteAction::Forward
            }
            fn name(&self) -> &str {
                "double"
            }
        }
        let mut ch = UsbChannel::new();
        ch.reserve_guard_slot("double");
        ch.install_first(AddOne);
        ch.install(DropAll);
        assert_eq!(ch.chain_names(), vec!["add-one", "double", "drop-all"]);
        ch.uninstall("drop-all");
        // (10 + 1) * 2: the upstream interceptor runs before the guard.
        assert_eq!(write(&mut ch, &[10], Some(&mut Double)), (WriteAction::Forward, vec![22]));
        // Without a guard to run, the slot forwards.
        assert_eq!(write(&mut ch, &[10], None), (WriteAction::Forward, vec![11]));
    }

    #[test]
    fn uninstall_by_name() {
        let mut ch = UsbChannel::new();
        ch.install(AddOne);
        ch.install(DropAll);
        ch.uninstall("drop-all");
        assert_eq!(ch.chain_names(), vec!["add-one"]);
        assert_eq!(write(&mut ch, &[0], None), (WriteAction::Forward, vec![1]));
    }

    #[test]
    fn sequence_numbers_increase() {
        let mut ch = UsbChannel::new();
        ch.install(SeqRecorder(Vec::new()));
        for _ in 0..5 {
            write(&mut ch, &[0], None);
        }
        let recorder = ch.interceptor::<SeqRecorder>().expect("installed");
        assert_eq!(recorder.0, vec![0, 1, 2, 3, 4]);
        assert_eq!(ch.writes(), 5);
    }

    #[test]
    fn read_hooks_mutate_feedback_and_skip_write_only_stages() {
        #[derive(Debug)]
        struct Zero;
        impl Interceptor for Zero {
            fn on_read(&mut self, buf: &mut Vec<u8>, _ctx: &mut WriteContext<'_>) {
                buf.fill(0);
            }
            fn name(&self) -> &str {
                "zero"
            }
        }
        let mut ch = UsbChannel::new();
        ch.install(AddOne);
        ch.reserve_guard_slot("guard");
        ch.install(Zero);
        assert_eq!(ch.chain_names(), vec!["add-one", "guard", "zero"]);
        assert_eq!(ch.read(vec![1, 2, 3], SimTime::ZERO, &mut Observer::default()), vec![0, 0, 0]);
        ch.uninstall("zero");
        assert_eq!(ch.read(vec![1, 2, 3], SimTime::ZERO, &mut Observer::default()), vec![1, 2, 3]);
    }

    #[test]
    fn interceptor_lookup_finds_the_first_of_its_type() {
        let mut ch = UsbChannel::new();
        assert!(ch.interceptor::<SeqRecorder>().is_none());
        ch.install(AddOne);
        ch.reserve_guard_slot("guard");
        ch.install(SeqRecorder(vec![7]));
        ch.install(SeqRecorder(vec![8]));
        assert_eq!(ch.interceptor::<SeqRecorder>().map(|r| r.0.clone()), Some(vec![7]));
        assert!(ch.interceptor::<DropAll>().is_none());
    }
}

//! Simulated UDP links.
//!
//! The teleoperation console talks to the RAVEN control software over the
//! Interoperable Teleoperation Protocol, "a protocol based on the UDP packet
//! protocol" (paper §II.B); the malware's logging wrapper exfiltrates USB
//! traffic to a remote attacker "using UDP packets" (§III.B.1). [`SimLink`]
//! models such a channel in virtual time: packets experience a base delay
//! plus jitter, may be dropped or reordered, and are delivered when the
//! receiver polls at or after their arrival time.

use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::obs::streams;
use crate::rng::stream_rng;
use crate::time::{SimDuration, SimTime};

/// Loss/delay/jitter parameters of a [`SimLink`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Base one-way delay.
    pub delay: SimDuration,
    /// Uniform extra delay in `[0, jitter]`.
    pub jitter: SimDuration,
    /// Probability in `[0, 1]` that a packet is silently dropped.
    pub loss_probability: f64,
}

impl LinkConfig {
    /// An ideal link: zero delay, zero jitter, no loss.
    pub fn ideal() -> Self {
        LinkConfig { delay: SimDuration::ZERO, jitter: SimDuration::ZERO, loss_probability: 0.0 }
    }

    /// A LAN-like link: 200 µs delay, 100 µs jitter, no loss — the hospital-
    /// network conditions of the paper's testbed.
    pub fn lan() -> Self {
        LinkConfig {
            delay: SimDuration::from_micros(200),
            jitter: SimDuration::from_micros(100),
            loss_probability: 0.0,
        }
    }

    /// A lossy wide-area link, as studied in prior telesurgery-security work
    /// the paper cites (Bonaci et al.).
    pub fn lossy_wan(loss_probability: f64) -> Self {
        LinkConfig {
            delay: SimDuration::from_millis(20),
            jitter: SimDuration::from_millis(5),
            loss_probability,
        }
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::ideal()
    }
}

#[derive(Debug)]
struct InFlight<T> {
    arrival: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for InFlight<T> {
    fn eq(&self, other: &Self) -> bool {
        self.arrival == other.arrival && self.seq == other.seq
    }
}
impl<T> Eq for InFlight<T> {}
impl<T> PartialOrd for InFlight<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for InFlight<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first delivery.
        other.arrival.cmp(&self.arrival).then(other.seq.cmp(&self.seq))
    }
}

/// A unidirectional simulated datagram link carrying payloads of type `T`.
///
/// # Example
///
/// ```
/// use simbus::{LinkConfig, SimLink, SimTime, SimDuration};
///
/// let mut link: SimLink<&str> = SimLink::new(LinkConfig::lan(), 42);
/// link.send(SimTime::ZERO, "hello");
/// // Nothing arrives before the base delay has elapsed.
/// assert!(link.poll(SimTime::ZERO).is_empty());
/// let later = SimTime::ZERO + SimDuration::from_millis(1);
/// assert_eq!(link.poll(later), vec!["hello"]);
/// ```
#[derive(Debug)]
pub struct SimLink<T> {
    config: LinkConfig,
    rng: SmallRng,
    in_flight: BinaryHeap<InFlight<T>>,
    next_seq: u64,
    sent: u64,
    lost: u64,
    delivered: u64,
}

impl<T> SimLink<T> {
    /// Creates a link with the given configuration and RNG seed.
    pub fn new(config: LinkConfig, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.loss_probability),
            "loss probability must be in [0, 1], got {}",
            config.loss_probability
        );
        SimLink {
            config,
            rng: stream_rng(seed, streams::SIMLINK),
            in_flight: BinaryHeap::new(),
            next_seq: 0,
            sent: 0,
            lost: 0,
            delivered: 0,
        }
    }

    /// Link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Changes the loss probability of a live link in place, preserving
    /// the `sent`/`lost`/`delivered` counters, the RNG stream, and any
    /// packets already in flight (they still arrive on schedule). This
    /// is how mid-session attacks degrade a link without rewriting its
    /// history — replacing the link wholesale would zero the accounting.
    pub fn set_loss_probability(&mut self, loss_probability: f64) {
        assert!(
            (0.0..=1.0).contains(&loss_probability),
            "loss probability must be in [0, 1], got {loss_probability}"
        );
        self.config.loss_probability = loss_probability;
    }

    /// Sends a payload at virtual time `now`. The packet may be dropped
    /// (per the configured loss probability) or delayed.
    pub fn send(&mut self, now: SimTime, payload: T) {
        self.sent += 1;
        if self.config.loss_probability > 0.0
            && self.rng.gen::<f64>() < self.config.loss_probability
        {
            self.lost += 1;
            return;
        }
        let jitter_ns = if self.config.jitter.as_nanos() == 0 {
            0
        } else {
            self.rng.gen_range(0..=self.config.jitter.as_nanos())
        };
        let arrival = now + self.config.delay + SimDuration::from_nanos(jitter_ns);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.in_flight.push(InFlight { arrival, seq, payload });
    }

    /// Delivers every packet whose arrival time is `<= now`, in arrival
    /// order (jitter may reorder relative to send order).
    pub fn poll(&mut self, now: SimTime) -> Vec<T> {
        let mut out = Vec::new();
        self.poll_into(now, &mut out);
        out
    }

    /// [`SimLink::poll`] draining into a caller-held buffer: arrived
    /// packets are appended to `out` (which is *not* cleared — the caller
    /// owns its lifecycle). Per-cycle pollers keep one reusable buffer and
    /// `drain(..)` it after processing, so steady-state polling never
    /// allocates.
    pub fn poll_into(&mut self, now: SimTime, out: &mut Vec<T>) {
        while let Some(head) = self.in_flight.peek_mut() {
            if head.arrival > now {
                break;
            }
            let pkt = PeekMut::pop(head);
            self.delivered += 1;
            out.push(pkt.payload);
        }
    }

    /// Packets handed to [`SimLink::send`] so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Packets dropped by the link so far.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Packets delivered by [`SimLink::poll`] so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Packets currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn ideal_link_delivers_immediately_in_order() {
        let mut link: SimLink<u32> = SimLink::new(LinkConfig::ideal(), 1);
        link.send(SimTime::ZERO, 1);
        link.send(SimTime::ZERO, 2);
        link.send(SimTime::ZERO, 3);
        assert_eq!(link.poll(SimTime::ZERO), vec![1, 2, 3]);
        assert_eq!(link.delivered(), 3);
    }

    #[test]
    fn delay_holds_packets() {
        let cfg = LinkConfig {
            delay: SimDuration::from_millis(5),
            jitter: SimDuration::ZERO,
            loss_probability: 0.0,
        };
        let mut link: SimLink<u32> = SimLink::new(cfg, 1);
        link.send(SimTime::ZERO, 7);
        assert!(link.poll(at_ms(4)).is_empty());
        assert_eq!(link.in_flight(), 1);
        assert_eq!(link.poll(at_ms(5)), vec![7]);
    }

    #[test]
    fn lossy_link_drops_roughly_at_rate() {
        let mut link: SimLink<u32> = SimLink::new(LinkConfig::lossy_wan(0.3), 99);
        for i in 0..10_000 {
            link.send(SimTime::ZERO, i);
        }
        let rate = link.lost() as f64 / link.sent() as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed loss rate {rate}");
    }

    #[test]
    fn loss_zero_and_one_are_exact() {
        let mut none: SimLink<u32> = SimLink::new(LinkConfig::ideal(), 3);
        let mut cfg = LinkConfig::ideal();
        cfg.loss_probability = 1.0;
        let mut all: SimLink<u32> = SimLink::new(cfg, 3);
        for i in 0..100 {
            none.send(SimTime::ZERO, i);
            all.send(SimTime::ZERO, i);
        }
        assert_eq!(none.lost(), 0);
        assert_eq!(all.lost(), 100);
        assert!(all.poll(at_ms(1000)).is_empty());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let run = |seed: u64| {
            let mut link: SimLink<u32> = SimLink::new(LinkConfig::lossy_wan(0.2), seed);
            for i in 0..100 {
                link.send(at_ms(i as u64), i);
            }
            link.poll(at_ms(10_000))
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn jitter_can_reorder_but_delivery_is_by_arrival() {
        let cfg = LinkConfig {
            delay: SimDuration::from_millis(1),
            jitter: SimDuration::from_millis(10),
            loss_probability: 0.0,
        };
        let mut link: SimLink<u64> = SimLink::new(cfg, 11);
        for i in 0..50 {
            link.send(SimTime::ZERO, i);
        }
        let got = link.poll(at_ms(100));
        assert_eq!(got.len(), 50);
        // All present even if reordered.
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn set_loss_probability_preserves_counters_and_in_flight_packets() {
        let cfg = LinkConfig {
            delay: SimDuration::from_millis(5),
            jitter: SimDuration::ZERO,
            loss_probability: 0.5,
        };
        let mut link: SimLink<u32> = SimLink::new(cfg, 42);
        for i in 0..100 {
            link.send(SimTime::ZERO, i);
        }
        let lost_before = link.lost();
        let in_flight_before = link.in_flight();
        assert!(lost_before > 0 && in_flight_before > 0, "need both outcomes pre-switch");

        // Mid-session attack: the link dies, but its history does not.
        link.set_loss_probability(1.0);
        assert_eq!(link.sent(), 100);
        assert_eq!(link.lost(), lost_before, "counters survive the switch");
        assert_eq!(link.in_flight(), in_flight_before, "in-flight packets survive the switch");

        // Everything sent after the switch is lost — and accounted for
        // cumulatively on top of the pre-switch losses.
        for i in 0..50 {
            link.send(at_ms(1), 1000 + i);
        }
        assert_eq!(link.lost(), lost_before + 50);
        assert_eq!(link.sent(), 150);

        // Packets in flight at switch time still arrive on schedule.
        let got = link.poll(at_ms(100));
        assert_eq!(got.len(), in_flight_before);
        assert_eq!(link.delivered(), in_flight_before as u64);
        assert!(got.iter().all(|&p| p < 100), "only pre-switch packets arrive");
    }

    #[test]
    fn poll_into_appends_without_clearing_and_matches_poll() {
        let mut a: SimLink<u32> = SimLink::new(LinkConfig::lossy_wan(0.2), 7);
        let mut b: SimLink<u32> = SimLink::new(LinkConfig::lossy_wan(0.2), 7);
        let mut buf = vec![999];
        for i in 0..100 {
            a.send(at_ms(i as u64), i);
            b.send(at_ms(i as u64), i);
        }
        a.poll_into(at_ms(10_000), &mut buf);
        assert_eq!(buf[0], 999, "caller-held contents preserved");
        assert_eq!(buf[1..], b.poll(at_ms(10_000)), "poll_into must match poll");
        assert_eq!(a.delivered(), b.delivered());
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_set_loss_probability_panics() {
        let mut link: SimLink<u32> = SimLink::new(LinkConfig::ideal(), 0);
        link.set_loss_probability(-0.1);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_probability_panics() {
        let _: SimLink<u32> =
            SimLink::new(LinkConfig { loss_probability: 1.5, ..LinkConfig::ideal() }, 0);
    }
}

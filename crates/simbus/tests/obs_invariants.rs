//! Runtime invariants of `simbus::obs` that clippy.toml's wall-clock and
//! hash-collection bans protect from the outside: the event ring's
//! bounded-eviction contract, and merge-order independence of the
//! metrics registry — the property the campaign executor's bit-identical
//! sweep merges rest on.
//!
//! The histogram permutation tests use *exactly representable* values
//! (integers and quarters): f64 addition is not associative in general, so
//! byte-identity under reordering is only promised for sums that incur no
//! rounding — which the latency/assessment histograms (integer counts)
//! satisfy.

use simbus::obs::{Event, EventLog, Histogram, Metrics, Severity};
use simbus::{SimDuration, SimTime};

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

fn ev(i: u64) -> Event {
    Event::new(t(i), "test", Severity::Info, format!("k{i}"))
}

#[test]
fn event_ring_wraps_at_capacity_keeping_newest() {
    let mut log = EventLog::new(4);
    assert_eq!(log.capacity(), 4);
    for i in 0..10 {
        log.push(ev(i));
    }
    assert_eq!(log.len(), 4, "ring holds exactly its capacity");
    assert_eq!(log.dropped(), 6, "every eviction is accounted for");
    let kinds: Vec<&str> = log.iter().map(|e| e.kind.as_str()).collect();
    assert_eq!(kinds, ["k6", "k7", "k8", "k9"], "oldest evicted first, order kept");
    assert_eq!(log.last().map(|e| e.kind.as_str()), Some("k9"));
}

#[test]
fn event_ring_exact_fill_drops_nothing() {
    let mut log = EventLog::new(3);
    for i in 0..3 {
        log.push(ev(i));
    }
    assert_eq!(log.len(), 3);
    assert_eq!(log.dropped(), 0);
    log.clear();
    assert!(log.is_empty());
}

/// One simulated run's private metrics, as the observed executor builds
/// them: counters and integer-valued histogram observations.
fn run_metrics(run: usize) -> Metrics {
    let mut m = Metrics::new();
    for _ in 0..=run {
        m.inc("runs.completed");
    }
    m.add("attack.injections", (run as u64) * 3);
    // Integer-valued observations: exactly representable, so the merged
    // sum is independent of addition order.
    m.observe("detector.detection_latency_cycles", (run % 7) as f64);
    m.observe("detector.detection_latency_cycles", ((run * 13) % 29) as f64);
    m.observe_with("ee.step", &[0.25, 0.5, 1.0], ((run % 4) as f64) * 0.25);
    m
}

fn merged_bytes(order: &[usize]) -> String {
    let mut acc = Metrics::new();
    for &i in order {
        acc.merge(&run_metrics(i));
    }
    serde_json::to_string(&acc).expect("metrics serialize")
}

#[test]
fn metrics_merge_is_order_independent_for_counters_and_histograms() {
    let ascending: Vec<usize> = (0..12).collect();
    let reference = merged_bytes(&ascending);
    let mut reversed = ascending.clone();
    reversed.reverse();
    // A couple of deterministic shuffles (no RNG: fixed permutations).
    let interleaved: Vec<usize> = (0..6).flat_map(|i| [i, 11 - i]).collect();
    let strided: Vec<usize> = (0..4).flat_map(|r| (0..3).map(move |c| c * 4 + r)).collect();
    for order in [&reversed, &interleaved, &strided] {
        assert_eq!(
            merged_bytes(order),
            reference,
            "merge order {order:?} changed the serialized registry"
        );
    }
}

#[test]
fn histogram_merge_is_associative_on_exact_values() {
    let bounds = [1.0, 4.0, 16.0];
    let mk = |vals: &[f64]| {
        let mut h = Histogram::new(&bounds);
        for &v in vals {
            h.observe(v);
        }
        h
    };
    let a = mk(&[0.5, 2.0, 100.0]);
    let b = mk(&[3.0, 3.0]);
    let c = mk(&[17.25, 0.25]);

    // (a ⊕ b) ⊕ c
    let mut left = mk(&[]);
    left.merge(&a);
    left.merge(&b);
    left.merge(&c);
    // a ⊕ (b ⊕ c)
    let mut bc = mk(&[]);
    bc.merge(&b);
    bc.merge(&c);
    let mut right = mk(&[]);
    right.merge(&a);
    right.merge(&bc);

    let lhs = serde_json::to_string(&left).expect("serialize");
    let rhs = serde_json::to_string(&right).expect("serialize");
    assert_eq!(lhs, rhs, "associativity broke on exact values");
    assert_eq!(left.count, 7);
    assert_eq!(left.min, 0.25);
    assert_eq!(left.max, 100.0);
}

#[test]
fn histogram_merge_commutes_on_exact_values() {
    let bounds = [2.0, 8.0];
    let mut ab = Histogram::new(&bounds);
    let mut ba = Histogram::new(&bounds);
    let mut a = Histogram::new(&bounds);
    let mut b = Histogram::new(&bounds);
    for v in [1.0, 5.0, 9.0] {
        a.observe(v);
    }
    for v in [2.5, 2.5, 1024.0] {
        b.observe(v);
    }
    ab.merge(&a);
    ab.merge(&b);
    ba.merge(&b);
    ba.merge(&a);
    assert_eq!(
        serde_json::to_string(&ab).expect("serialize"),
        serde_json::to_string(&ba).expect("serialize"),
    );
}

/// The first push past capacity evicts exactly the oldest event — the
/// boundary the chaos oracles' `event-ring-intact` check sits on.
#[test]
fn event_ring_capacity_plus_one_evicts_exactly_the_oldest() {
    let mut log = EventLog::new(3);
    for i in 0..3 {
        log.push(ev(i));
    }
    assert_eq!(log.dropped(), 0, "exactly-full ring has evicted nothing");

    log.push(ev(3));
    assert_eq!(log.len(), 3, "capacity+1 keeps the ring at capacity");
    assert_eq!(log.dropped(), 1, "exactly one eviction");
    let kinds: Vec<&str> = log.iter().map(|e| e.kind.as_str()).collect();
    assert_eq!(kinds, ["k1", "k2", "k3"], "only the oldest event left");
}

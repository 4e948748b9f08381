//! Integration tests for the span-tracing layer: tracing must be
//! artifact-invisible (byte-identical events/metrics with the recorder on
//! or off), deterministic in its virtual-time view, balanced as a tree
//! over a real session, and valid Chrome Trace JSON end to end — with the
//! executor's sweep merge staying deterministic across worker counts even
//! when a trace collector is installed.

use std::sync::Arc;

use raven_core::{
    run_sweep, AttackSetup, DetectorSetup, ExecutorConfig, SimConfig, Simulation,
    SweepTraceCollector,
};
use simbus::obs::spans;
use simbus::rng::splitmix64;
use simbus::{ChromeTraceBuilder, SimTime};

/// A guarded (learning-mode detector) session under a scenario-B attack —
/// enough to exercise every instrumented surface: the seven pipeline
/// stages, teleop encode/decode, detector verdicts, and the rig.
fn traced_session(seed: u64) -> Simulation {
    let mut sim = Simulation::new(SimConfig {
        session_ms: 1_500,
        detector: Some(DetectorSetup::default()),
        ..SimConfig::standard(seed)
    });
    sim.enable_span_recorder();
    sim.install_attack(&AttackSetup::ScenarioB {
        dac_delta: 30_000,
        channel: 0,
        delay_packets: 400,
        duration_packets: 256,
    });
    sim.boot();
    sim
}

#[test]
fn tracing_leaves_events_and_metrics_byte_identical() {
    let run = |traced: bool| {
        let mut sim = Simulation::new(SimConfig {
            session_ms: 1_500,
            detector: Some(DetectorSetup::default()),
            ..SimConfig::standard(41)
        });
        if traced {
            sim.enable_span_recorder();
        }
        sim.boot();
        let outcome = sim.run_session();
        (
            serde_json::to_string(&outcome).expect("serialize outcome"),
            serde_json::to_string(&sim.events()).expect("serialize events"),
            serde_json::to_string(&sim.metrics()).expect("serialize metrics"),
        )
    };
    let baseline = run(false);
    let traced = run(true);
    assert_eq!(baseline.0, traced.0, "outcome must not see the span recorder");
    assert_eq!(baseline.1, traced.1, "event log must not see the span recorder");
    assert_eq!(baseline.2, traced.2, "metrics must not see the span recorder");
}

#[test]
fn session_span_tree_is_balanced_and_covers_the_pipeline() {
    let mut sim = traced_session(43);
    let _ = sim.run_session();
    sim.spans().finish();
    // Boot + session cycles, counted by the clock rather than the spans.
    let cycles_stepped = sim.now().saturating_since(SimTime::ZERO).as_control_ticks();
    let records = sim.spans().snapshot();
    assert!(sim.spans().dropped() == 0, "a 1.5 s session must fit the span arena");
    assert!(!records.is_empty());
    for (i, span) in records.iter().enumerate() {
        assert!(span.closed, "span {i} ({}) left open after finish()", span.name);
        assert!(span.vt_end >= span.vt_begin, "span {i} ends before it begins");
        if let Some(parent) = span.parent {
            assert!(parent < i, "parent must be opened before its child");
            assert_eq!(records[parent].depth + 1, span.depth);
        } else {
            assert_eq!(span.depth, 0);
        }
    }
    // Every instrumented pipeline surface shows up.
    let names: Vec<&str> = records.iter().map(|s| s.name).collect();
    for required in [
        spans::SESSION_RUN,
        spans::CYCLE,
        spans::STAGE_CONSOLE,
        spans::STAGE_LINK,
        spans::STAGE_FEEDBACK,
        spans::STAGE_CONTROLLER,
        spans::STAGE_INTERCEPTORS,
        spans::STAGE_DETECTOR,
        spans::STAGE_PLANT,
        spans::TELEOP_ENCODE,
        spans::TELEOP_DECODE,
        spans::DETECTOR_VERDICT,
        spans::HW_BOARD_CYCLE,
    ] {
        assert!(names.contains(&required), "missing {required}");
    }
    // The span-derived stage profile times every stage once per cycle,
    // boot and session alike.
    let profile = sim.spans().stage_stats();
    for stage in [
        spans::STAGE_CONSOLE,
        spans::STAGE_LINK,
        spans::STAGE_FEEDBACK,
        spans::STAGE_CONTROLLER,
        spans::STAGE_INTERCEPTORS,
        spans::STAGE_DETECTOR,
        spans::STAGE_PLANT,
    ] {
        let suffix = format!("/{stage}");
        let count: u64 =
            profile.iter().filter(|row| row.name.ends_with(&suffix)).map(|row| row.count).sum();
        assert_eq!(count, cycles_stepped, "{stage} rows must cover every stepped cycle");
    }
}

#[test]
fn deterministic_span_view_is_identical_across_runs() {
    let view = |seed: u64| {
        let mut sim = traced_session(seed);
        let _ = sim.run_session();
        sim.spans().finish();
        sim.spans().deterministic_view()
    };
    assert_eq!(view(47), view(47), "virtual-time span view must be reproducible");
}

#[test]
fn chrome_trace_export_is_schema_valid_json() {
    // ~150 cycles emit well over a thousand events — plenty for a schema
    // check without parsing a multi-megabyte document.
    let mut sim = Simulation::new(SimConfig {
        session_ms: 150,
        detector: Some(DetectorSetup::default()),
        ..SimConfig::standard(53)
    });
    sim.enable_span_recorder();
    sim.boot();
    let _ = sim.run_session();
    sim.spans().finish();
    let mut trace = ChromeTraceBuilder::new();
    trace.set_process_name(1, "session");
    sim.spans().chrome_events(1, 1, &mut trace);
    let doc = trace.build();

    let parsed = serde_json::value_from_str(&doc).expect("trace must be valid JSON");
    let serde_json::Value::Seq(events) = parsed.get("traceEvents").expect("traceEvents key") else {
        panic!("traceEvents must be an array");
    };
    assert!(!events.is_empty());
    let mut complete = 0usize;
    for event in events {
        let ph = match event.get("ph").expect("ph") {
            serde_json::Value::Str(s) => s.clone(),
            other @ (serde_json::Value::Null
            | serde_json::Value::Bool(_)
            | serde_json::Value::I64(_)
            | serde_json::Value::U64(_)
            | serde_json::Value::F64(_)
            | serde_json::Value::Seq(_)
            | serde_json::Value::Map(_)) => panic!("ph must be a string, got {other:?}"),
        };
        assert!(event.get("pid").is_some(), "every event carries a pid");
        assert!(event.get("name").is_some(), "every event carries a name");
        match ph.as_str() {
            "X" => {
                complete += 1;
                assert!(event.get("tid").is_some());
                assert!(event.get("ts").is_some(), "complete events need a timestamp");
                assert!(event.get("dur").is_some(), "complete events need a duration");
            }
            "M" => {
                assert!(event.get("args").is_some(), "metadata events carry args");
            }
            other => panic!("unexpected phase {other}"),
        }
    }
    assert!(complete > 100, "even a 150 ms session emits hundreds of spans, got {complete}");
}

#[test]
fn traced_sweep_merge_stays_deterministic_across_worker_counts() {
    let seeds = |i: usize| splitmix64(7 ^ i as u64);
    let run = |workers: usize| {
        let collector = Arc::new(SweepTraceCollector::new());
        let config = ExecutorConfig::with_workers(workers).traced(Arc::clone(&collector));
        let mut outcomes = Vec::new();
        let stats = run_sweep(
            "tracing",
            8,
            &config,
            seeds,
            |i, seed, metrics| {
                let mut sim =
                    Simulation::new(SimConfig { session_ms: 1_000, ..SimConfig::standard(seed) });
                sim.boot();
                let outcome = sim.run_session();
                metrics.merge(&sim.observer().metrics);
                (i, outcome.final_state.to_string())
            },
            |_, outcome| outcomes.push(outcome),
        )
        .expect_all("tracing sweep");
        let metrics = serde_json::to_string(&stats.metrics).expect("serialize metrics");
        (outcomes, metrics, collector)
    };
    let (base_outcomes, base_metrics, _) = run(1);
    for workers in [2, 4] {
        let (outcomes, metrics, collector) = run(workers);
        assert_eq!(outcomes, base_outcomes, "outcomes diverged at workers={workers}");
        assert_eq!(metrics, base_metrics, "metrics diverged at workers={workers}");
        // The sidecar still recorded a full timeline.
        let segments = collector.segments();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].runs.len(), 8);
        assert_eq!(segments[0].workers, workers);
    }
}

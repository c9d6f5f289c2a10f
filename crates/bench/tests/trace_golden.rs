//! Golden-trace determinism: the simulation is a deterministic DES and
//! every trace record is stamped with `SimTime`, so the same seed must
//! produce a byte-identical Chrome trace export — and a different seed
//! must not.

use npf_bench::micro::measure_npf;
use simcore::instruments::Instruments;
use simcore::trace::{self, TraceRecorder};

/// Runs `body` under a fresh recorder and returns the recorder.
fn recorded(body: impl FnOnce()) -> TraceRecorder {
    assert!(!trace::enabled(), "no recorder leaked from a previous run");
    Instruments {
        trace: Some(TraceRecorder::new(1 << 16)),
        ..Instruments::default()
    }
    .install();
    body();
    Instruments::take().trace.expect("installed above")
}

/// Runs the Figure 3 microbenchmark under a fresh recorder and returns
/// the Chrome trace-event JSON it exports.
fn traced_run(seed: u64) -> String {
    let recorder = recorded(|| {
        let _ = measure_npf(4 * 1024, 200, seed);
    });
    assert_eq!(recorder.dropped(), 0, "ring must not wrap in this test");
    recorder.export_chrome_json()
}

#[test]
fn same_seed_yields_byte_identical_traces() {
    let a = traced_run(31);
    let b = traced_run(31);
    assert_eq!(a, b, "same seed must reproduce the trace byte-for-byte");
}

#[test]
fn different_seed_yields_a_different_trace() {
    let a = traced_run(31);
    let b = traced_run(99);
    assert_ne!(a, b, "seed must influence recorded timings");
}

#[test]
fn export_is_wellformed_chrome_trace_json() {
    let json = traced_run(31);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.trim_end().ends_with("],\"displayTimeUnit\":\"ns\"}"));
    // One complete event per NPF parent span plus its five children.
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"name\":\"npf\""));
    for child in [
        "fault_trigger",
        "driver_sw",
        "os_translate",
        "update_hw_pt",
        "resume",
    ] {
        assert!(json.contains(&format!("\"name\":\"{child}\"")), "{child}");
    }
    // Counters and instants ride along.
    assert!(json.contains("\"ph\":\"C\""));
    assert!(json.contains("\"ph\":\"i\""));
    // Thread-name metadata gives Perfetto its track labels.
    assert!(json.contains("\"thread_name\""));
    // Balanced braces as a cheap structural check (no string values in
    // this export contain braces).
    let open = json.matches('{').count();
    let close = json.matches('}').count();
    assert_eq!(open, close);
}

#[test]
fn metrics_registry_populated_by_traced_run() {
    let recorder = recorded(|| {
        let _ = measure_npf(4 * 1024, 50, 7);
    });
    let m = recorder.metrics();
    assert_eq!(m.counter("npf.events"), 50);
    let json = m.to_json();
    assert!(json.contains("\"npf.events\": 50"));
    let csv = m.to_csv();
    assert!(csv.starts_with("kind,name,value\n"));
    assert!(csv.contains("counter,npf.events,50"));
}

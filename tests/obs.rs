//! The observability layer's three contracts:
//!
//! 1. **Zero observer effect** — the signoff is byte-identical with
//!    tracing on or off, serial or parallel. The trace reads the flow;
//!    it never steers it.
//! 2. **Deterministic traces** — counters and the span *tree* (names
//!    and parentage) are identical at any worker count; only
//!    timestamps and thread ids move. A trace you can diff across runs
//!    is a trace you can regress against.
//! 3. **Stable wire format** — the JSONL sink emits the documented
//!    `cbv-trace/1` schema, parseable line-by-line.
//!
//! Plus the NaN regression the tracer exposed: a design with a NaN
//! device geometry must complete the flow and fail signoff, not crash.

use std::io;
use std::sync::{Arc, Mutex};

use cbv_core::flow::{run_flow, run_flow_incremental, FlowConfig, FlowReport};
use cbv_core::gen::adders::manchester_domino_adder;
use cbv_core::mutate::{Edit, MutationOp};
use cbv_core::netlist::{DeviceId, FlatNetlist};
use cbv_core::obs::{JsonlSink, Trace, Tracer};
use cbv_core::tech::Process;

fn testcase(faulty: bool) -> (FlatNetlist, Process) {
    let process = Process::strongarm_035();
    let mut g = manchester_domino_adder(8, &process);
    if faulty {
        // A leaky evaluate device: the first generate device, 15x wide.
        let leak = MutationOp::WidthScale { factor: 15.0 };
        Edit::plant(&mut g.netlist, leak, 100, "gen_a0").expect("leak plants");
    }
    (g.netlist, process)
}

/// Everything a designer consumes from a flow run, as one string.
fn signoff_bytes(r: &FlowReport) -> String {
    let stages: Vec<_> = r.stages.iter().map(|s| (s.stage, s.artifacts)).collect();
    format!(
        "{}|{:?}|{}",
        serde_json::to_string(&r.signoff).expect("serializable"),
        stages,
        r.signoff
    )
}

#[test]
fn tracing_has_zero_observer_effect_on_signoff() {
    for faulty in [false, true] {
        for threads in [1usize, 2, 8] {
            let run = |tracer: Tracer| {
                let (netlist, process) = testcase(faulty);
                let config = FlowConfig {
                    parallelism: threads,
                    tracer,
                    ..FlowConfig::default()
                };
                signoff_bytes(&run_flow(netlist, &process, &config))
            };
            let untraced = run(Tracer::disabled());
            let traced = run(Tracer::collecting().0);
            assert_eq!(
                untraced, traced,
                "faulty={faulty} threads={threads}: tracing must not alter the signoff"
            );
        }
    }
}

#[test]
fn tracing_has_zero_observer_effect_on_incremental_flow() {
    let run = |tracer: Tracer| {
        let (netlist, process) = testcase(true);
        let config = FlowConfig {
            parallelism: 2,
            tracer,
            ..FlowConfig::default()
        };
        let mut cache = cbv_core::cache::VerifyCache::new();
        // Cold then warm: both signoffs must be tracer-independent.
        let cold = run_flow_incremental(netlist.clone(), &process, &config, &mut cache);
        let warm = run_flow_incremental(netlist, &process, &config, &mut cache);
        format!("{}##{}", signoff_bytes(&cold), signoff_bytes(&warm))
    };
    assert_eq!(run(Tracer::disabled()), run(Tracer::collecting().0));
}

fn traced_flow(threads: usize, incremental: bool) -> Trace {
    let (netlist, process) = testcase(true);
    let (tracer, collector) = Tracer::collecting();
    let config = FlowConfig {
        parallelism: threads,
        tracer,
        ..FlowConfig::default()
    };
    if incremental {
        let mut cache = cbv_core::cache::VerifyCache::new();
        run_flow_incremental(netlist, &process, &config, &mut cache);
    } else {
        run_flow(netlist, &process, &config);
    }
    collector.trace()
}

#[test]
fn counters_and_span_tree_are_deterministic_across_thread_counts() {
    for incremental in [false, true] {
        let base = traced_flow(1, incremental);
        assert!(
            !base.counters.is_empty() && !base.spans.is_empty(),
            "incremental={incremental}: the flow emits counters and spans"
        );
        for threads in [2usize, 8] {
            let t = traced_flow(threads, incremental);
            assert_eq!(
                base.counters, t.counters,
                "incremental={incremental} threads={threads}: counters must not \
                 depend on scheduling (timing-dependent quantities are gauges)"
            );
            assert_eq!(
                base.tree_signature(),
                t.tree_signature(),
                "incremental={incremental} threads={threads}: span tree shape must \
                 not depend on scheduling"
            );
        }
    }
}

/// A `Write` that appends to a shared buffer, so the test can read the
/// JSONL back out after the sink (moved into the tracer) is dropped.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().expect("buf lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn jsonl_sink_emits_the_documented_schema() {
    let buf = SharedBuf::default();
    let (netlist, process) = testcase(false);
    let config = FlowConfig {
        parallelism: 2,
        tracer: Tracer::new(JsonlSink::new(buf.clone())),
        ..FlowConfig::default()
    };
    run_flow(netlist, &process, &config);
    let bytes = buf.0.lock().expect("buf lock").clone();
    let text = String::from_utf8(bytes).expect("jsonl is utf-8");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 10, "trace has meta + spans + counters");

    // Line 1: the meta header versioning the format.
    let meta = serde_json::from_str(lines[0]).expect("meta parses");
    assert_eq!(meta.get("type").and_then(|v| v.as_str()), Some("meta"));
    assert_eq!(
        meta.get("format").and_then(|v| v.as_str()),
        Some("cbv-trace/1")
    );

    let mut span_ids = Vec::new();
    let mut parents = Vec::new();
    let mut counter_names = Vec::new();
    let mut saw_flow_span = false;
    for line in &lines[1..] {
        let v = serde_json::from_str(line).unwrap_or_else(|e| panic!("bad line {line}: {e:?}"));
        match v.get("type").and_then(|t| t.as_str()) {
            Some("span") => {
                let id = v.get("id").and_then(|x| x.as_u64()).expect("span id");
                let t0 = v.get("t0_ns").and_then(|x| x.as_u64()).expect("t0_ns");
                let t1 = v.get("t1_ns").and_then(|x| x.as_u64()).expect("t1_ns");
                let name = v.get("name").and_then(|x| x.as_str()).expect("name");
                v.get("thread").and_then(|x| x.as_u64()).expect("thread");
                assert!(t1 >= t0, "span {name} runs forward in time");
                if name == "flow" {
                    saw_flow_span = true;
                }
                // Parent is null (root) or a span id; spans are emitted
                // on close, children before parents, so a non-null
                // parent need not be *already* listed — collect and
                // check membership at the end.
                if let Some(p) = v.get("parent").and_then(|x| x.as_u64()) {
                    parents.push(p);
                }
                span_ids.push(id);
            }
            Some("counter") => {
                let name = v
                    .get("name")
                    .and_then(|x| x.as_str())
                    .expect("counter name");
                v.get("value")
                    .and_then(|x| x.as_u64())
                    .expect("counter value");
                counter_names.push(name.to_string());
            }
            Some("gauge") => {
                v.get("name").and_then(|x| x.as_str()).expect("gauge name");
                // Value is a float or null (non-finite gauges).
            }
            other => panic!("unknown record type {other:?} in line {line}"),
        }
    }
    assert!(saw_flow_span, "the root flow span is recorded");
    for p in parents {
        assert!(span_ids.contains(&p), "parent {p} is a recorded span");
    }
    assert!(
        counter_names.windows(2).all(|w| w[0] < w[1]),
        "counters flush sorted by name: {counter_names:?}"
    );
}

#[test]
fn nan_device_geometry_completes_flow_and_fails_signoff() {
    let (mut netlist, process) = testcase(false);
    // A NaN channel width poisons every derived quantity — conductance,
    // capacitance, stress ratios, delays. The flow must carry it to a
    // finding, not panic in a sort or comparison.
    netlist.device_mut(DeviceId(0)).w = f64::NAN;
    let report = run_flow(netlist, &process, &FlowConfig::default());
    assert!(
        !report.signoff.clean(),
        "a NaN-geometry design must not sign off: {}",
        report.signoff
    );
    assert!(report.signoff.violation_count() > 0);
}

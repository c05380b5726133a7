//! The traced run's spans: nesting, self times, op tagging, and the JSONL
//! they are written as.

use hyperbench::trace::{check_spans, layer_times, to_jsonl};
use hyperbench::{run_workload, Budget, Workload};
use hyperpath_bench::{CountingAlloc, Json};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn traced_runs_nest_and_account_for_their_time() {
    for w in [Workload::TenantsChaos, Workload::DeliverySmall] {
        let r = run_workload(w, 5, Budget::ops(3), 2, true);
        assert!(r.correct(), "{}: {:?}", w.name(), r.errors);
        let spans = &r.spans;
        check_spans(spans).unwrap();
        for s in spans {
            if let Some(p) = s.parent {
                let parent = &spans[p as usize];
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
                assert!(parent.op.is_none() || parent.op == s.op, "children share the op");
            }
        }
        // Self times of a tree partition its roots' time.
        let layers = layer_times(spans);
        let self_total: u64 = layers.values().map(|l| l.self_ns).sum();
        let root_total: u64 =
            spans.iter().filter(|s| s.parent.is_none()).map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(self_total, root_total, "{}", w.name());
        // The traced pass tags each of its ops once.
        let ops: Vec<u64> =
            spans.iter().filter(|s| s.name == "harness.op").map(|s| s.op.unwrap()).collect();
        assert_eq!(ops, [0, 1, 2], "{}", w.name());
    }
}

#[test]
fn ships_nest_inside_delivery_phases() {
    let r = run_workload(Workload::DeliverySmall, 5, Budget::ops(2), 2, true);
    let ships: Vec<_> = r.spans.iter().filter(|s| s.name == "packet.ship").collect();
    assert!(!ships.is_empty());
    for s in ships {
        let parent = &r.spans[s.parent.expect("ship has a parent") as usize];
        assert_eq!(parent.name, "protocol.deliver_adaptive");
    }
}

#[test]
fn jsonl_round_trips() {
    let r = run_workload(Workload::FaultMc, 5, Budget::ops(1), 2, true);
    let text = to_jsonl(&r.spans);
    assert_eq!(text.lines().count(), r.spans.len());
    for (line, s) in text.lines().zip(&r.spans) {
        let j = Json::parse(line).unwrap();
        assert_eq!(j.get("id").and_then(Json::as_u64), Some(u64::from(s.id)));
        assert_eq!(j.get("name").and_then(Json::as_str), Some(s.name));
        assert_eq!(j.get("end_ns").and_then(Json::as_u64), Some(s.end_ns));
        assert_eq!(j.get("parent").and_then(Json::as_u64), s.parent.map(u64::from));
    }
}

//! `BENCHMARK.json` against the benchmark: the declared workloads and
//! metrics are exactly what the runs print, names and limits follow the
//! file's contract, and every per-layer metric names the end-to-end metric
//! and workload it should move.

use hyperbench::{run_workload, Budget, Workload, END_TO_END, PER_LAYER};
use hyperpath_bench::{CountingAlloc, Json};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    match j.get(key) {
        Some(Json::Array(items)) => items,
        other => panic!("{key}: expected an array, found {other:?}"),
    }
}

fn keys(j: &Json) -> Vec<&str> {
    match j {
        Json::Object(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} missing in {j:?}"))
}

fn names(items: &[Json]) -> Vec<&str> {
    items.iter().map(|i| str_of(i, "name")).collect()
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn declared_sets_match_the_code_and_the_contract() {
    let j = benchmark_json();
    assert_eq!(
        keys(&j),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );
    let workloads = array(&j, "workloads");
    let e2e = array(&j, "end_to_end");
    let layers = array(&j, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    assert!((1..=60).contains(&j.get("run_seconds").and_then(Json::as_u64).unwrap()));

    let code_workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names(workloads), code_workloads);
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        assert!(str_of(w, "why").len() <= 200 && !str_of(w, "why").contains('\n'));
    }

    let code_e2e: Vec<(&str, &str)> = END_TO_END.to_vec();
    let json_e2e: Vec<(&str, &str)> =
        e2e.iter().map(|m| (str_of(m, "name"), str_of(m, "unit"))).collect();
    assert_eq!(json_e2e, code_e2e);
    let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).expect("bound");
    let setup_bound = e2e.iter().find(|m| str_of(m, "name") == "setup_s").map(bound).unwrap();
    for m in e2e {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        assert!(bound(m) > 0.0 && bound(m) <= 0.25, "{m:?}");
        assert!(bound(m) <= setup_bound, "setup_s must carry the largest bound");
    }
    assert_eq!(str_of(&e2e[0], "better"), "lower");

    let json_layers: Vec<(&str, &str, &str)> = layers
        .iter()
        .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
        .collect();
    let code_layers: Vec<(&str, &str, &str)> =
        PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)).collect();
    assert_eq!(json_layers, code_layers);
    for m in layers {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }

    let mut all: Vec<&str> = names(workloads);
    all.extend(names(e2e));
    all.extend(names(layers));
    for n in &all {
        assert!(valid_name(n), "bad name {n:?}");
    }
    let mut sorted = all.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), all.len(), "a name is used twice");
    for m in e2e.iter().chain(layers) {
        let unit = str_of(m, "unit");
        assert!(
            unit.len() <= 16
                && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        );
        assert!(["higher", "lower"].contains(&str_of(m, "better")));
    }
}

#[test]
fn every_layer_metric_names_what_it_moves() {
    for m in PER_LAYER {
        assert!(END_TO_END.iter().any(|(n, _)| *n == m.moves), "{}: moves {:?}", m.name, m.moves);
        assert!(Workload::from_name(m.on).is_some(), "{}: on {:?}", m.name, m.on);
    }
}

#[test]
fn every_workload_prints_the_declared_metrics() {
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    for w in Workload::ALL {
        for (trace, declared) in [(false, &e2e), (true, &layers)] {
            let r = run_workload(w, 3, Budget::ops(1), 2, trace);
            assert!(r.correct(), "{} (trace {trace}): {:?}", w.name(), r.errors);
            let printed: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
            assert_eq!(&printed, declared, "{} (trace {trace})", w.name());
            if !trace {
                for m in &r.metrics {
                    // One op can finish inside one 10 ms CPU-clock tick.
                    let ok = if m.name == "cpu_ms_per_op" { m.value >= 0.0 } else { m.value > 0.0 };
                    assert!(ok, "{}: end-to-end {} reads {}", w.name(), m.name, m.value);
                }
            }
        }
    }
}

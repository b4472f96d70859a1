//! Self-tests of the request generator and the benchmark's own bookkeeping.

use std::collections::{HashMap, HashSet};

use perfbench::check::matches;
use perfbench::gen::{warm_pool, warmup_lines, Generator, Workload, COLD_NODES, POOL_SIZE};
use perfbench::load::{normalize, zero_wall_clocks};
use perfbench::metrics::{END_TO_END, PER_LAYER};
use prob_consensus::json::JsonValue;
use repro_server::{parse_optimize, parse_query};

fn lines(workload: Workload, seed: u64, count: usize) -> Vec<String> {
    Generator::new(workload, seed)
        .take(count)
        .map(|r| r.line)
        .collect()
}

fn parse(line: &str) -> JsonValue {
    JsonValue::parse(line).expect("generated lines are JSON")
}

#[test]
fn a_seed_always_gives_the_same_stream() {
    for workload in Workload::ALL {
        assert_eq!(lines(workload, 7, 300), lines(workload, 7, 300));
        assert_ne!(lines(workload, 7, 300), lines(workload, 8, 300));
    }
}

#[test]
fn every_generated_line_parses_through_the_server_parsers() {
    for workload in Workload::ALL {
        let mut all = lines(workload, 3, 400);
        all.extend(warmup_lines(workload));
        for line in all {
            let request = parse(&line);
            match request.get("op").and_then(JsonValue::as_str) {
                Some("query") => {
                    parse_query(request.get("query").expect("query member"))
                        .unwrap_or_else(|e| panic!("{line}: {e}"));
                }
                Some("optimize") => {
                    parse_optimize(&request).unwrap_or_else(|e| panic!("{line}: {e}"));
                }
                other => panic!("unexpected op {other:?} in {line}"),
            }
        }
    }
}

/// The scenario keys of one request line, read back from the JSON rather than
/// from the generator: one per analysed model (size and fault parameters,
/// without seeds or budgets).
fn scenario_keys(line: &str) -> Vec<String> {
    let request = parse(line);
    if let Some(space) = request.get("space") {
        return vec![space.to_compact_string()];
    }
    let query = request.get("query").expect("query member");
    let member = |key: &str| query.get(key).map(JsonValue::to_compact_string);
    let mut keys = vec![format!(
        "{:?} {:?} {:?}",
        member("nodes"),
        member("fault_probs"),
        member("correlations")
    )];
    if let Some(cells) = query.get("cells").and_then(JsonValue::as_array) {
        keys.extend(
            cells
                .iter()
                .map(|c| c.get("deployment").unwrap().to_compact_string()),
        );
    }
    keys
}

#[test]
fn cold_and_optimize_streams_never_repeat_a_scenario() {
    for (workload, count) in [
        (Workload::ColdSweep, 3000),
        (Workload::OptimizeSearch, 1000),
    ] {
        let mut seen: HashSet<String> = warmup_lines(workload)
            .iter()
            .flat_map(|l| scenario_keys(l))
            .collect();
        for line in lines(workload, 11, count) {
            for key in scenario_keys(&line) {
                assert!(
                    seen.insert(key.clone()),
                    "{}: repeated {key}",
                    workload.name()
                );
            }
        }
    }
}

#[test]
fn warm_stream_only_repeats_the_primed_pool() {
    let pool: HashSet<String> = warm_pool().into_iter().collect();
    assert_eq!(pool.len(), POOL_SIZE, "pool entries are distinct");
    let primed: HashSet<String> = warmup_lines(Workload::WarmRepeat)
        .iter()
        .map(|l| parse(l).get("query").unwrap().to_compact_string())
        .collect();
    for request in Generator::new(Workload::WarmRepeat, 5).take(500) {
        assert!(pool.contains(&request.body));
        assert!(primed.contains(&parse(&request.body).to_compact_string()));
    }
}

fn share(count: usize, total: usize) -> f64 {
    count as f64 / total as f64
}

#[test]
fn request_mix_matches_the_stated_shares() {
    let total = 8000;
    let mut validate = 0;
    let mut posterior = 0;
    let mut nodes: HashMap<String, usize> = HashMap::new();
    for line in lines(Workload::ColdSweep, 13, total) {
        let query = parse(&line).get("query").unwrap().clone();
        if query.get("validate").is_some() {
            validate += 1;
            assert_eq!(query.get("nodes").unwrap().to_compact_string(), "[5]");
            continue;
        }
        if query.get("posterior").is_some() {
            posterior += 1;
            assert_eq!(query.get("samples").unwrap().as_f64(), Some(6250.0));
        } else {
            assert_eq!(query.get("samples").unwrap().as_f64(), Some(100000.0));
        }
        *nodes
            .entry(query.get("nodes").unwrap().to_compact_string())
            .or_default() += 1;
    }
    // Kinds come in shuffled blocks of 32, so whole blocks hold the stated
    // shares exactly.
    let shocks = total - validate;
    assert_eq!(validate, total / 8);
    assert_eq!(posterior, shocks / 4);
    assert_eq!(nodes.len(), COLD_NODES.len());
    for count in nodes.values() {
        assert!(
            (share(*count, shocks) - 1.0 / 3.0).abs() < 0.03,
            "{nodes:?}"
        );
    }

    let mut pool_hits: HashMap<String, usize> = HashMap::new();
    for request in Generator::new(Workload::WarmRepeat, 13).take(total) {
        *pool_hits.entry(request.body).or_default() += 1;
    }
    assert_eq!(pool_hits.len(), POOL_SIZE);
    assert!(pool_hits.values().all(|&count| count == total / POOL_SIZE));
}

#[test]
fn normalisation_drops_the_id_and_zeroes_only_wall_clocks() {
    let line = r#"{"id":"r7","event":"cell","index":1,"cell":{"p":0.5,"wall_ns":123456}}"#;
    assert_eq!(
        normalize(line, "r7").unwrap(),
        r#"{"event":"cell","index":1,"cell":{"p":0.5,"wall_ns":0}}"#
    );
    assert_eq!(normalize(line, "r8"), None);
    assert_eq!(
        zero_wall_clocks(r#"{"wall_ms":1.5e-3,"x":2}"#),
        r#"{"wall_ms":0,"x":2}"#
    );
    let expected = vec![
        "{\"a\":1}".to_string(),
        "{\"b\":2}".to_string(),
        "done".to_string(),
    ];
    assert!(matches(&["{\"b\":2}", "{\"a\":1}", "done"], &expected).is_ok());
    assert!(matches(&["{\"a\":1}", "{\"a\":1}", "done"], &expected).is_err());
    assert!(matches(&["{\"a\":1}", "done"], &expected).is_err());
}

#[test]
fn reported_metrics_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let bench = JsonValue::parse(&text).expect("BENCHMARK.json is JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        bench
            .get(key)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

//! Smoke test of the `repro serve` binary: two plans submitted concurrently
//! over the stdio NDJSON protocol must stream cells that re-assemble into
//! reports byte-identical to one-shot library execution, and the `stats`
//! request must expose non-zero cache counters and plan wall time.

use std::io::{BufRead, BufReader, Lines, Write};
use std::process::{ChildStdout, Command, Stdio};
use std::sync::Arc;

use prob_consensus::json::JsonValue;
use prob_consensus::query::AnalysisSession;

/// The two example plans: a mixed grid (counting + packed-MC cells) and a
/// rare-event persistence-quorum cell — together they cover all three engine
/// families the cache amortizes.
const GRID_QUERY: &str = r#"{"protocols":["raft","pbft"],"nodes":[5,9],"fault_probs":[0.01,0.05],"samples":20000,"seed":41}"#;
const DURABILITY_QUERY: &str = r#"{"cells":[{"label":"pq","model":{"persistence_quorum":{"quorum":[0,1,2,3]}},"deployment":{"uniform_crash":{"n":16,"p":0.01}}}],"samples":20000,"seed":41}"#;

fn zero_wall_ns(value: &mut JsonValue) {
    match value {
        JsonValue::Object(members) => {
            for (key, member) in members {
                if key == "wall_ns" {
                    *member = JsonValue::number(0.0);
                } else {
                    zero_wall_ns(member);
                }
            }
        }
        JsonValue::Array(items) => items.iter_mut().for_each(zero_wall_ns),
        _ => {}
    }
}

/// One-shot reference cells for a query body, serialized compact with wall
/// clocks zeroed.
fn reference_cells(query_body: &str) -> Vec<String> {
    let spec = JsonValue::parse(query_body).expect("fixture parses");
    let parsed = repro_server::parse_query(&spec).expect("fixture is a valid query");
    let report = AnalysisSession::new()
        .run(&parsed.query)
        .expect("reference run succeeds");
    let json = report.to_json_value();
    json.get("cells")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|cell| {
            let mut cell = cell.clone();
            zero_wall_ns(&mut cell);
            cell.to_compact_string()
        })
        .collect()
}

/// Reads parsed events until `until` says stop (the matching event is kept).
fn read_until(
    lines: &mut Lines<BufReader<ChildStdout>>,
    events: &mut Vec<JsonValue>,
    until: impl Fn(&JsonValue) -> bool,
) {
    for line in lines.by_ref() {
        let line = line.expect("read event line");
        let event = JsonValue::parse(&line).expect("every event line is one JSON object");
        let stop = until(&event);
        events.push(event);
        if stop {
            return;
        }
    }
    panic!("server closed its output before the expected event");
}

fn is_event(event: &JsonValue, id: &str, kind: &str) -> bool {
    event.get("id").and_then(|v| v.as_str()) == Some(id)
        && event.get("event").and_then(|v| v.as_str()) == Some(kind)
}

#[test]
fn serve_streams_reports_matching_one_shot_execution() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("repro serve starts");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let mut lines = BufReader::new(child.stdout.take().expect("stdout piped")).lines();
    let mut events = Vec::new();

    // Both plans in flight before either finishes; their cell events interleave
    // on the shared pool.
    write!(
        stdin,
        "{{\"id\":\"grid\",\"op\":\"query\",\"query\":{GRID_QUERY}}}\n\
         {{\"id\":\"durability\",\"op\":\"query\",\"query\":{DURABILITY_QUERY}}}\n"
    )
    .expect("submit queries");
    stdin.flush().unwrap();
    read_until(&mut lines, &mut events, |e| is_event(e, "grid", "done"));
    if !events.iter().any(|e| is_event(e, "durability", "done")) {
        read_until(&mut lines, &mut events, |e| {
            is_event(e, "durability", "done")
        });
    }

    // Stats requested after both plans completed: every counter must be live.
    writeln!(stdin, "{{\"id\":\"s\",\"op\":\"stats\"}}").expect("submit stats");
    stdin.flush().unwrap();
    read_until(&mut lines, &mut events, |e| is_event(e, "s", "stats"));

    writeln!(stdin, "{{\"id\":\"bye\",\"op\":\"shutdown\"}}").expect("submit shutdown");
    drop(stdin);
    read_until(&mut lines, &mut events, |e| is_event(e, "bye", "shutdown"));
    assert!(lines.next().is_none(), "no output after the shutdown ack");
    let status = child.wait().expect("repro serve exits");
    assert!(status.success(), "serve exited with {status}");

    let events_for = |id: &str, kind: &str| -> Vec<&JsonValue> {
        events.iter().filter(|e| is_event(e, id, kind)).collect()
    };

    // Streamed cells re-assemble (by index) into the one-shot report, byte for
    // byte once the measured wall clocks are zeroed.
    for (id, body) in [("grid", GRID_QUERY), ("durability", DURABILITY_QUERY)] {
        let expected = reference_cells(body);
        assert_eq!(events_for(id, "done").len(), 1, "query {id} finished once");
        assert!(events_for(id, "error").is_empty(), "query {id} errored");
        let cells = events_for(id, "cell");
        assert_eq!(
            cells.len(),
            expected.len(),
            "query {id} streamed every cell"
        );
        let mut reassembled = vec![None; expected.len()];
        for event in cells {
            let index = event.get("index").unwrap().as_f64().unwrap() as usize;
            let mut cell = event.get("cell").unwrap().clone();
            zero_wall_ns(&mut cell);
            assert!(
                reassembled[index]
                    .replace(cell.to_compact_string())
                    .is_none(),
                "query {id} cell {index} emitted twice"
            );
        }
        let reassembled: Vec<String> = reassembled.into_iter().map(Option::unwrap).collect();
        assert_eq!(
            reassembled, expected,
            "query {id} diverged from one-shot run"
        );
    }

    // Observability: non-zero cache counters and per-plan wall time.
    let stats = events_for("s", "stats");
    assert_eq!(stats.len(), 1, "exactly one stats event");
    let cache = stats[0].get("cache").unwrap();
    assert!(cache.get("misses").unwrap().as_f64().unwrap() > 0.0);
    assert!(cache.get("entries").unwrap().as_f64().unwrap() > 0.0);
    assert_eq!(
        stats[0].get("queries_completed").unwrap().as_f64().unwrap(),
        2.0
    );
    let wall = stats[0].get("plan_wall_ms").unwrap();
    assert!(wall.get("last").unwrap().as_f64().unwrap() > 0.0);
    assert!(wall.get("total").unwrap().as_f64().unwrap() > 0.0);
}

/// The `optimize` op end to end: a deployment search submitted over the wire
/// must return the exact report an in-process [`prob_consensus::optimize`]
/// search produces (the frontier carries no wall clocks, so byte-identical),
/// reject malformed payloads with an `error` event instead of dying, and show
/// up in the `stats` counters.
#[test]
fn serve_optimize_matches_in_process_search() {
    // The placement-sensitive durability space from the optimizer test suite:
    // small enough for a smoke test, still exercises tier-2 IS refinement.
    let space = r#"{"instances":[{"name":"spot","fault_probability":0.1,"hourly_cost":0.1}],"nodes":[40],"domains":{"racks":8,"shock_probability":0.01},"placements":["same-rack","cross-rack"],"target":{"quorum_size":5}}"#;
    let config = r#"{"target_nines":4.0,"screen_samples":10000,"refine_samples":40000,"seed":7}"#;

    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("repro serve starts");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let mut lines = BufReader::new(child.stdout.take().expect("stdout piped")).lines();
    let mut events = Vec::new();

    write!(
        stdin,
        "{{\"id\":\"opt\",\"op\":\"optimize\",\"space\":{space},\"config\":{config}}}\n\
         {{\"id\":\"bad\",\"op\":\"optimize\",\"space\":{space},\"config\":{{\"target_nines\":4.0,\"scren_samples\":1}}}}\n"
    )
    .expect("submit optimize requests");
    stdin.flush().unwrap();
    read_until(&mut lines, &mut events, |e| is_event(e, "opt", "done"));
    if !events.iter().any(|e| is_event(e, "bad", "error")) {
        read_until(&mut lines, &mut events, |e| is_event(e, "bad", "error"));
    }
    writeln!(stdin, "{{\"id\":\"s\",\"op\":\"stats\"}}").expect("submit stats");
    stdin.flush().unwrap();
    read_until(&mut lines, &mut events, |e| is_event(e, "s", "stats"));
    writeln!(stdin, "{{\"id\":\"bye\",\"op\":\"shutdown\"}}").expect("submit shutdown");
    drop(stdin);
    read_until(&mut lines, &mut events, |e| is_event(e, "bye", "shutdown"));
    assert!(child.wait().expect("repro serve exits").success());

    // The streamed report is byte-identical to the in-process search.
    let spec = JsonValue::parse(&format!("{{\"space\":{space},\"config\":{config}}}"))
        .expect("fixture parses");
    let parsed = repro_server::parse_optimize(&spec).expect("fixture is a valid request");
    let reference =
        prob_consensus::optimize::optimize(&AnalysisSession::new(), &parsed.space, &parsed.config)
            .expect("reference search succeeds");
    let reports: Vec<&JsonValue> = events
        .iter()
        .filter(|e| is_event(e, "opt", "optimize"))
        .collect();
    assert_eq!(reports.len(), 1, "exactly one optimize event");
    assert_eq!(
        reports[0].get("report").unwrap().to_compact_string(),
        reference.to_json_value().to_compact_string(),
        "wire report diverged from in-process search"
    );
    let done = events
        .iter()
        .find(|e| is_event(e, "opt", "done"))
        .expect("done event");
    assert_eq!(
        done.get("frontier").unwrap().as_f64().unwrap() as usize,
        reference.frontier.len()
    );
    assert_eq!(
        done.get("evaluated").unwrap().as_f64().unwrap() as usize,
        reference.evaluated.len()
    );

    // The misspelled knob drew an error, not a silent default — and never a
    // second done event.
    let bad_errors: Vec<&JsonValue> = events
        .iter()
        .filter(|e| is_event(e, "bad", "error"))
        .collect();
    assert_eq!(bad_errors.len(), 1);
    assert!(bad_errors[0]
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("scren_samples"));
    assert!(!events.iter().any(|e| is_event(e, "bad", "done")));

    // Observability: the search is counted separately from queries.
    let stats = events
        .iter()
        .find(|e| is_event(e, "s", "stats"))
        .expect("stats event");
    assert_eq!(
        stats
            .get("optimizations_completed")
            .unwrap()
            .as_f64()
            .unwrap(),
        1.0
    );
    assert_eq!(
        stats.get("queries_completed").unwrap().as_f64().unwrap(),
        0.0
    );
}

/// The warm-cache contract the server exists for: a second identical request
/// on a live server must hit the session cache (no recompilation, no repeated
/// pilots).
#[test]
fn repeated_requests_hit_the_shared_cache() {
    let server = Arc::new(repro_server::Server::new());
    let input = format!("{{\"id\":\"a\",\"op\":\"query\",\"query\":{DURABILITY_QUERY}}}\n");
    repro_server::run_exchange(&server, &input);
    let cold = server.session().cache_stats();
    assert_eq!(cold.hits, 0);
    assert!(cold.misses > 0);
    repro_server::run_exchange(&server, &input);
    let warm = server.session().cache_stats();
    assert!(warm.hits > 0, "second identical request missed the cache");
    assert_eq!(
        warm.misses, cold.misses,
        "second request recomputed scratch"
    );
}

/// Runs `repro serve` over stdio on `input` (which must end with a shutdown
/// request) and returns its stdout events and everything it wrote to stderr.
fn serve_once(input: &str) -> (Vec<JsonValue>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro serve starts");
    let mut stdin = child.stdin.take().expect("stdin piped");
    stdin.write_all(input.as_bytes()).expect("submit requests");
    drop(stdin);
    let output = child.wait_with_output().expect("repro serve exits");
    assert!(
        output.status.success(),
        "serve exited with {}",
        output.status
    );
    let events = String::from_utf8(output.stdout)
        .expect("events are UTF-8")
        .lines()
        .map(|line| JsonValue::parse(line).expect("every event line is one JSON object"))
        .collect();
    (events, String::from_utf8_lossy(&output.stderr).into_owned())
}

#[test]
fn serve_decodes_python_escaped_non_bmp_characters() {
    // Verbatim `json.dumps` output: Python escapes every non-ASCII character and
    // writes U+1F600 as the surrogate pair \ud83d\ude00.
    let line = r#"{"id": "\ud83d\ude00", "op": "query", "query": {"protocols": ["raft"], "nodes": [3], "fault_probs": [0.01], "cells": [{"label": "pq-\ud83d\ude00", "model": {"persistence_quorum": {"quorum": [0, 1]}}, "deployment": {"uniform_crash": {"n": 4, "p": 0.01}}}]}}"#;
    let (events, stderr) = serve_once(&format!("{line}\n{{\"id\":\"bye\",\"op\":\"shutdown\"}}\n"));
    assert_eq!(
        events
            .iter()
            .filter(|e| is_event(e, "\u{1F600}", "done"))
            .count(),
        1,
        "{events:?}"
    );
    let labels: Vec<&str> = events
        .iter()
        .filter(|e| is_event(e, "\u{1F600}", "cell"))
        .map(|e| {
            e.get("cell")
                .unwrap()
                .get("label")
                .unwrap()
                .as_str()
                .unwrap()
        })
        .collect();
    assert_eq!(labels.len(), 2, "{events:?}");
    assert!(labels.contains(&"pq-\u{1F600}"), "{labels:?}");
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn serve_rejects_oversized_flexible_quorums_without_a_backtrace() {
    let (events, stderr) = serve_once(
        "{\"id\":\"flex\",\"op\":\"query\",\"query\":{\"protocols\":[{\"raft_flexible\":{\"q_per\":0,\"q_vc\":9}}],\"nodes\":[5],\"fault_probs\":[0.01]}}\n\
         {\"id\":\"bye\",\"op\":\"shutdown\"}\n",
    );
    let errors: Vec<&JsonValue> = events
        .iter()
        .filter(|e| is_event(e, "flex", "error"))
        .collect();
    assert_eq!(errors.len(), 1, "{events:?}");
    let message = errors[0].get("message").unwrap().as_str().unwrap();
    assert!(message.contains("'q_per'"), "{message}");
    assert!(
        stderr.is_empty(),
        "a rejected request wrote to stderr: {stderr}"
    );
}

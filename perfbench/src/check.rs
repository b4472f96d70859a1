//! The output check: every streamed response, reassembled by `index`, must
//! equal an in-process run of the same request on a fresh session, modulo the
//! measured wall clocks.

use std::collections::HashMap;

use prob_consensus::json::JsonValue;
use prob_consensus::optimize::{optimize, OptimizeReport};
use prob_consensus::query::{AnalysisReport, AnalysisSession, Metrics};
use repro_server::{parse_optimize, parse_query};

use crate::gen::Request;
use crate::load::zero_wall_clocks;

/// An event as the server renders it; `id` is `None` for the normalised form
/// the check compares.
fn event(id: Option<&JsonValue>, kind: &str, rest: Vec<(&str, JsonValue)>) -> JsonValue {
    let mut members = Vec::with_capacity(rest.len() + 2);
    if let Some(id) = id {
        members.push(("id".to_string(), id.clone()));
    }
    members.push(("event".to_string(), JsonValue::string(kind)));
    members.extend(rest.into_iter().map(|(k, v)| (k.to_string(), v)));
    JsonValue::Object(members)
}

fn count(n: usize) -> JsonValue {
    JsonValue::number(n as f64)
}

/// The events of a query response in report order, `done` last.
pub fn query_events(
    id: Option<&JsonValue>,
    report: &AnalysisReport,
    metrics: Metrics,
    wall_ms: f64,
) -> Vec<JsonValue> {
    let mut events: Vec<JsonValue> = report
        .cells()
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            event(
                id,
                "cell",
                vec![("index", count(i)), ("cell", cell.to_json_value(metrics))],
            )
        })
        .collect();
    events.extend(report.trajectories().iter().enumerate().map(|(i, t)| {
        event(
            id,
            "trajectory",
            vec![("index", count(i)), ("trajectory", t.to_json_value())],
        )
    }));
    events.push(event(
        id,
        "done",
        vec![
            ("cells", count(report.cells().len())),
            ("trajectories", count(report.trajectories().len())),
            ("wall_ms", JsonValue::number(wall_ms)),
        ],
    ));
    events
}

/// The events of an optimize response, `done` last.
pub fn optimize_events(
    id: Option<&JsonValue>,
    report: &OptimizeReport,
    wall_ms: f64,
) -> Vec<JsonValue> {
    vec![
        event(id, "optimize", vec![("report", report.to_json_value())]),
        event(
            id,
            "done",
            vec![
                ("frontier", count(report.frontier.len())),
                ("evaluated", count(report.evaluated.len())),
                ("wall_ms", JsonValue::number(wall_ms)),
            ],
        ),
    ]
}

fn normalized(events: Vec<JsonValue>) -> Vec<String> {
    events
        .iter()
        .map(|e| zero_wall_clocks(&e.to_compact_string()))
        .collect()
}

/// The reference response of `request`: a one-shot `AnalysisSession::run`
/// (or `optimize`) on a fresh session.
pub fn reference(request: &Request) -> Result<Vec<String>, String> {
    let body = JsonValue::parse(&request.body).map_err(|e| format!("bad body: {e}"))?;
    if request.is_optimize() {
        let parsed = parse_optimize(&body)?;
        let report = optimize(&AnalysisSession::new(), &parsed.space, &parsed.config)
            .map_err(|e| e.to_string())?;
        Ok(normalized(optimize_events(None, &report, 0.0)))
    } else {
        let parsed = parse_query(&body)?;
        let report = AnalysisSession::new()
            .run(&parsed.query)
            .map_err(|e| e.to_string())?;
        Ok(normalized(query_events(None, &report, parsed.metrics, 0.0)))
    }
}

/// Compares one streamed response with its reference. Cells stream in
/// completion order, so both sides are compared as sorted multisets, with
/// `done` required last.
pub fn matches(streamed: &[&str], expected: &[String]) -> Result<(), String> {
    let (Some(done), Some(expected_done)) = (streamed.last(), expected.last()) else {
        return Err("empty response".to_string());
    };
    if done != expected_done {
        return Err(format!("done differs: {done} vs {expected_done}"));
    }
    let mut got: Vec<&str> = streamed[..streamed.len() - 1].to_vec();
    let mut want: Vec<&str> = expected[..expected.len() - 1]
        .iter()
        .map(String::as_str)
        .collect();
    got.sort_unstable();
    want.sort_unstable();
    if got.len() != want.len() {
        return Err(format!("{} events, expected {}", got.len(), want.len()));
    }
    match got.iter().zip(&want).find(|(g, w)| g != w) {
        Some((g, w)) => Err(format!("event differs: {g} vs {w}")),
        None => Ok(()),
    }
}

/// Reference responses memoised by request body: a repeated request is run
/// once.
#[derive(Default)]
pub struct References {
    by_body: HashMap<String, Result<Vec<String>, String>>,
}

impl References {
    /// The reference response of `request`.
    pub fn get(&mut self, request: &Request) -> &Result<Vec<String>, String> {
        self.by_body
            .entry(request.body.clone())
            .or_insert_with(|| reference(request))
    }
}

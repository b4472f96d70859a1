//! The closed-loop load window: each connection sends one generated request,
//! reads its events until `done`, and only then sends the next.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::gen::Generator;
use crate::server::Connection;

/// What one connection saw for one request.
#[derive(Debug, Clone)]
pub struct Response {
    /// Stream position of the request.
    pub seq: u64,
    /// Send time, from the window start.
    pub sent: Duration,
    /// Arrival of the first event, from the window start.
    pub first_event: Option<Duration>,
    /// Arrival of the `done` (or `error`) event, from the window start.
    pub done: Option<Duration>,
    /// Every event, normalised (see [`normalize`]), with `done` last.
    pub events: Vec<u32>,
    /// Why the request failed on the wire (`error` event or missing reply).
    pub error: Option<String>,
}

impl Response {
    /// Send-to-`done` latency of a completed request.
    pub fn latency(&self) -> Option<Duration> {
        match (&self.error, self.done) {
            (None, Some(done)) => Some(done - self.sent),
            _ => None,
        }
    }
}

/// Interned event lines: a repeated response costs one index, not a copy.
#[derive(Debug, Default)]
pub struct Interner {
    ids: HashMap<String, u32>,
    lines: Vec<String>,
}

impl Interner {
    fn intern(&mut self, line: String) -> u32 {
        if let Some(&id) = self.ids.get(&line) {
            return id;
        }
        let id = self.lines.len() as u32;
        self.lines.push(line.clone());
        self.ids.insert(line, id);
        id
    }

    /// The line behind an interned id.
    pub fn line(&self, id: u32) -> &str {
        &self.lines[id as usize]
    }
}

/// One connection's record of the window.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Every request this connection sent, in send order.
    pub responses: Vec<Response>,
    /// The distinct normalised event lines it received.
    pub interner: Interner,
}

/// Replaces the number after every `"wall_ns":` and `"wall_ms":` member with
/// `0`: measured wall clocks are the only bytes allowed to differ between a
/// streamed response and its in-process reference.
pub fn zero_wall_clocks(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    loop {
        let next = ["\"wall_ns\":", "\"wall_ms\":"]
            .iter()
            .filter_map(|k| rest.find(k).map(|i| (i, k.len())))
            .min();
        let Some((at, len)) = next else {
            out.push_str(rest);
            return out;
        };
        out.push_str(&rest[..at + len]);
        out.push('0');
        rest = rest[at + len..].trim_start_matches(|c: char| {
            c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')
        });
    }
}

/// An event line without its leading `"id"` member and with wall clocks
/// zeroed; `None` when the line does not belong to request `id`.
pub fn normalize(line: &str, id: &str) -> Option<String> {
    let prefix = format!("{{\"id\":\"{id}\",");
    let rest = line.strip_prefix(&prefix)?;
    Some(zero_wall_clocks(&format!("{{{rest}")))
}

/// Runs one connection's closed loop until `deadline`; the request in flight
/// at the deadline still completes. A broken connection ends the loop with
/// that request marked missing.
pub fn client_loop(
    mut conn: Connection,
    stream: &Mutex<Generator>,
    start: Instant,
    deadline: Instant,
) -> (Connection, ClientLog) {
    let mut log = ClientLog::default();
    while Instant::now() < deadline {
        let request = stream
            .lock()
            .expect("no client panics while holding the stream")
            .next()
            .expect("streams are unbounded");
        let id = request.id();
        let sent = start.elapsed();
        let mut response = Response {
            seq: request.seq,
            sent,
            first_event: None,
            done: None,
            events: Vec::new(),
            error: None,
        };
        let mut broken = false;
        match conn.send(&request.line) {
            Err(e) => {
                response.error = Some(format!("send failed: {e}"));
                broken = true;
            }
            Ok(()) => loop {
                match conn.recv() {
                    Ok(Some(line)) => {
                        let at = start.elapsed();
                        response.first_event.get_or_insert(at);
                        let Some(event) = normalize(&line, &id) else {
                            response.error = Some(format!("event for another request: {line}"));
                            response.done = Some(at);
                            break;
                        };
                        let done = event.starts_with("{\"event\":\"done\"");
                        if event.starts_with("{\"event\":\"error\"") {
                            response.error = Some(line);
                            response.done = Some(at);
                            break;
                        }
                        response.events.push(log.interner.intern(event));
                        if done {
                            response.done = Some(at);
                            break;
                        }
                    }
                    Ok(None) => {
                        response.error = Some("connection closed before done".to_string());
                        broken = true;
                        break;
                    }
                    Err(e) => {
                        response.error = Some(format!("no reply: {e}"));
                        broken = true;
                        break;
                    }
                }
            },
        }
        log.responses.push(response);
        if broken {
            break;
        }
    }
    (conn, log)
}

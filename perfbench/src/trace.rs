//! The in-process replay: the seeded stream fed through the same public
//! functions `repro serve` calls for each request line, in the same order —
//! `JsonValue::parse`, `parse_query`/`parse_optimize`, `AnalysisSession::plan`,
//! `QueryPlan::execute_streaming`, then encoding — with one span per call.
//!
//! Spans live in memory until the replay ends. A layer's self time is a span's
//! duration minus the part its child spans cover.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use prob_consensus::engine::EngineChoice;
use prob_consensus::json::JsonValue;
use prob_consensus::optimize::optimize;
use prob_consensus::query::{AnalysisSession, CellRecord, StreamSink, TrajectoryRecord};
use repro_server::{parse_optimize, parse_query, run_exchange, Server};

use crate::check::{optimize_events, query_events};
use crate::gen::Request;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `query.plan`.
    pub name: &'static str,
    /// Start, in nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds from the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Stream position of the request the span belongs to.
    pub request: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder; a disabled tracer records nothing.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    /// Every span recorded so far, in opening order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores spans.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index (meaningless when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        if self.enabled {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                request,
            });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Closes the span `index` opened.
    pub fn close(&mut self, index: usize) {
        if self.enabled {
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let index = self.open(name, parent, request);
        let out = f();
        self.close(index);
        out
    }

    /// Total self time per span name, in nanoseconds, sorted by name.
    pub fn self_times(&self) -> Vec<(&'static str, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let own = span.duration_ns().saturating_sub(covered);
            match totals.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, total)) => *total += own,
                None => totals.push((span.name, own)),
            }
        }
        totals.sort();
        totals
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for span in &self.spans {
            let parent = span
                .parent
                .map_or(JsonValue::Null, |p| JsonValue::number(p as f64));
            let line = JsonValue::Object(vec![
                ("name".to_string(), JsonValue::string(span.name)),
                (
                    "start_ns".to_string(),
                    JsonValue::number(span.start_ns as f64),
                ),
                ("end_ns".to_string(), JsonValue::number(span.end_ns as f64)),
                ("parent".to_string(), parent),
                (
                    "request".to_string(),
                    JsonValue::number(span.request as f64),
                ),
            ]);
            writeln!(out, "{}", line.to_compact_string())?;
        }
        out.flush()
    }

    /// Total duration of the spans called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }
}

/// A streaming sink that only notes when the first record arrived.
struct FirstRecordSink {
    start: Instant,
    first_ns: AtomicU64,
}

impl FirstRecordSink {
    fn note(&self) {
        let at = self.start.elapsed().as_nanos() as u64;
        self.first_ns.fetch_min(at, Ordering::Relaxed);
    }
}

impl StreamSink for FirstRecordSink {
    fn on_cell(&self, _: usize, _: &CellRecord) {
        self.note();
    }

    fn on_trajectory(&self, _: usize, _: &TrajectoryRecord) {
        self.note();
    }
}

/// Per-request observations of one replay pass, beyond its spans.
#[derive(Debug, Clone, Default)]
pub struct ReplayStats {
    /// Wall time of each replayed request, in nanoseconds, in stream order.
    pub request_ns: Vec<u64>,
    /// Encoded event bytes (lines plus newlines) across all requests.
    pub bytes_out: u64,
    /// Requests that failed to parse, plan or run.
    pub failures: usize,
    /// Planned cells across all query requests.
    pub cells: u64,
    /// Planned cells per selected engine.
    pub engine_cells: Vec<(EngineChoice, u64)>,
    /// `execute_streaming` start to first streamed record, per query request.
    pub first_cell_ns: Vec<u64>,
    /// Σ over query requests of (execute span − Σ cell `wall_ns` / threads).
    pub unattributed_exec_ns: f64,
    /// Σ cell `wall_ns` per engine.
    pub engine_wall_ns: Vec<(EngineChoice, u64)>,
    /// Packed Monte Carlo cells: samples drawn and Σ `wall_ns`.
    pub packed: (u64, u64),
    /// Importance-sampling cells: samples drawn, Σ ESS and Σ `wall_ns`.
    pub is: (u64, f64, u64),
    /// Validated cells: simulation traces and Σ `wall_ns`.
    pub sim: (u64, u64),
    /// Posterior draws and Σ `wall_ns` of the cells that carried them.
    pub epistemic: (u64, u64),
    /// Optimizer searches: count, screened, refined, frontier and report bytes.
    pub optimize: (u64, u64, u64, u64, u64),
}

fn add<K: PartialEq>(totals: &mut Vec<(K, u64)>, key: K, value: u64) {
    match totals.iter_mut().find(|(k, _)| *k == key) {
        Some((_, total)) => *total += value,
        None => totals.push((key, value)),
    }
}

impl ReplayStats {
    fn record_cells(&mut self, cells: &[CellRecord]) {
        for cell in cells {
            add(&mut self.engine_wall_ns, cell.engine, cell.wall_ns);
            match cell.engine {
                EngineChoice::MonteCarlo
                    if cell.kernel() == Some(prob_consensus::montecarlo::McKernel::Packed) =>
                {
                    self.packed.0 += cell.samples_drawn().unwrap_or(0) as u64;
                    self.packed.1 += cell.wall_ns;
                }
                EngineChoice::ImportanceSampling => {
                    self.is.0 += cell.samples_drawn().unwrap_or(0) as u64;
                    self.is.1 += cell.ess().unwrap_or(0.0);
                    self.is.2 += cell.wall_ns;
                }
                _ => {}
            }
            if let Some(validation) = &cell.validation {
                self.sim.0 += validation.simulation.trials as u64;
                self.sim.1 += cell.wall_ns;
            }
            if let Some(epistemic) = &cell.epistemic {
                self.epistemic.0 += epistemic.draws.len() as u64;
                self.epistemic.1 += cell.wall_ns;
            }
        }
    }
}

/// Renders events as the server writes them: one compact line each.
fn encode(events: Vec<JsonValue>) -> Vec<String> {
    events.iter().map(JsonValue::to_compact_string).collect()
}

/// Replays one request against `session` and adds what it saw to `stats`,
/// with one span per call when `tracer` is enabled.
pub fn replay(
    session: &AnalysisSession,
    request: &Request,
    tracer: &mut Tracer,
    stats: &mut ReplayStats,
) {
    let start = Instant::now();
    let root = tracer.open("request", None, request.seq);
    let lines = calls(session, request, tracer, root, stats, start);
    tracer.close(root);
    match lines {
        Some(lines) => {
            stats.bytes_out += lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
            stats.request_ns.push(start.elapsed().as_nanos() as u64);
        }
        None => stats.failures += 1,
    }
}

/// The calls `repro serve` makes for one request line, each in a span under
/// `root`; returns the encoded event lines, or `None` if a call failed.
fn calls(
    session: &AnalysisSession,
    request: &Request,
    tracer: &mut Tracer,
    root: usize,
    stats: &mut ReplayStats,
    start: Instant,
) -> Option<Vec<String>> {
    let seq = request.seq;
    let id = JsonValue::string(request.id());
    let value = tracer
        .span("json.parse", Some(root), seq, || {
            JsonValue::parse(&request.line)
        })
        .ok()?;
    if request.is_optimize() {
        let parsed = tracer
            .span("server.parse_optimize", Some(root), seq, || {
                parse_optimize(&value)
            })
            .ok()?;
        let report = tracer
            .span("optimize.search", Some(root), seq, || {
                optimize(session, &parsed.space, &parsed.config)
            })
            .ok()?;
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let lines = tracer.span("json.encode", Some(root), seq, || {
            encode(optimize_events(Some(&id), &report, wall_ms))
        });
        stats.optimize.0 += 1;
        stats.optimize.1 += report.screened as u64;
        stats.optimize.2 += report.refined as u64;
        stats.optimize.3 += report.frontier.len() as u64;
        stats.optimize.4 += lines[0].len() as u64;
        return Some(lines);
    }
    let parsed = tracer.span("server.parse_query", Some(root), seq, || {
        parse_query(value.get("query")?).ok()
    })?;
    let plan = tracer
        .span("query.plan", Some(root), seq, || {
            session.plan(&parsed.query)
        })
        .ok()?;
    stats.cells += plan.len() as u64;
    for engine in plan.engines() {
        add(&mut stats.engine_cells, engine, 1);
    }
    let sink = FirstRecordSink {
        start: Instant::now(),
        first_ns: AtomicU64::new(u64::MAX),
    };
    let execute = tracer.open("scheduler.execute", Some(root), seq);
    let report = plan.execute_streaming(&sink);
    tracer.close(execute);
    let execute_ns = sink.start.elapsed().as_nanos() as u64;
    let first = sink.first_ns.load(Ordering::Relaxed);
    if first != u64::MAX {
        stats.first_cell_ns.push(first);
    }
    let threads = rayon::current_num_threads().max(1) as f64;
    let cell_ns: u64 = report.cells().iter().map(|c| c.wall_ns).sum();
    stats.unattributed_exec_ns += execute_ns as f64 - cell_ns as f64 / threads;
    stats.record_cells(report.cells());
    let wall_ms = execute_ns as f64 / 1e6;
    Some(tracer.span("json.encode", Some(root), seq, || {
        encode(query_events(Some(&id), &report, parsed.metrics, wall_ms))
    }))
}

/// Times the public `run_exchange` on one request line against `server`, in
/// nanoseconds.
pub fn time_exchange(server: &Arc<Server>, request: &Request) -> u64 {
    let input = format!("{}\n", request.line);
    let start = Instant::now();
    std::hint::black_box(run_exchange(server, &input));
    start.elapsed().as_nanos() as u64
}

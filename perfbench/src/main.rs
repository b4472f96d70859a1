//! `perfbench`: one benchmark run of `repro serve` on one workload.
//!
//! ```text
//! perfbench --repro PATH --workload NAME --seed N --seconds S --trace 0|1
//!           [--spans-dir DIR] [--commit ID] [--rustc VERSION]
//! ```
//!
//! A traced run writes its spans, one JSON object per line, to
//! `DIR/<workload>-seed<N>.jsonl` when `--spans-dir` is given.
//!
//! Prints a record line (metadata, every metric, sample counts) and, last, the
//! result line `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use perfbench::check::{matches, References};
use perfbench::gen::{warmup_lines, Generator, Request, Workload};
use perfbench::load::{client_loop, ClientLog, Response};
use perfbench::metrics::{
    median, quantile, ratio, END_TO_END, PATH_SPECIFIC, PER_LAYER, UNBOUNDED_END_TO_END,
};
use perfbench::server::{Connection, ServerProcess};
use perfbench::trace::{replay, time_exchange, ReplayStats, Tracer};
use prob_consensus::engine::EngineChoice;
use prob_consensus::json::JsonValue;
use repro_server::{run_exchange, Server};

/// Server start-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    repro: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_dir: Option<PathBuf>,
    commit: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: HashMap<&str, &str> = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("expected --flag value pairs, got {argv:?}")),
        }
    }
    let get = |flag: &str| {
        flags
            .get(flag)
            .copied()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        repro: PathBuf::from(get("--repro")?),
        workload: Workload::from_name(workload)
            .ok_or_else(|| format!("unknown workload '{workload}'"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        spans_dir: flags.get("--spans-dir").map(PathBuf::from),
        commit: flags.get("--commit").unwrap_or(&"unknown").to_string(),
        rustc: flags.get("--rustc").unwrap_or(&"unknown").to_string(),
    })
}

fn num(v: f64) -> JsonValue {
    JsonValue::number(v)
}

fn object(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// CPU model, core count and AVX-512 flags from `/proc/cpuinfo`.
fn machine() -> (String, usize, String) {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default()
    };
    let avx512: Vec<String> = field("flags")
        .split_whitespace()
        .filter(|f| f.starts_with("avx512"))
        .map(str::to_string)
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (field("model name"), nproc, avx512.join(" "))
}

/// The `stats` counters a run reads before and after its window.
#[derive(Default, Clone, Copy)]
struct WireStats {
    hits: f64,
    misses: f64,
    evictions: f64,
    entries: f64,
    completed: f64,
    plan_wall_ms: f64,
}

fn wire_stats(conn: &mut Connection) -> Result<WireStats, String> {
    let v = conn.stats()?;
    let at = |path: &[&str]| {
        path.iter()
            .try_fold(&v, |v, key| v.get(key))
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("stats reply lacks {path:?}"))
    };
    Ok(WireStats {
        hits: at(&["cache", "hits"])?,
        misses: at(&["cache", "misses"])?,
        evictions: at(&["cache", "evictions"])?,
        entries: at(&["cache", "entries"])?,
        completed: at(&["queries_completed"])? + at(&["optimizations_completed"])?,
        plan_wall_ms: at(&["plan_wall_ms", "total"])?,
    })
}

/// Starts a server and brings it to ready: accepting, answering `stats`, and
/// through the workload's set-up requests.
fn start_server(args: &Args) -> Result<(ServerProcess, Connection, f64), String> {
    let start = Instant::now();
    let server = ServerProcess::spawn(&args.repro)?;
    let mut conn = server.connect()?;
    conn.stats()?;
    // One at a time, as a client priming the server would send them.
    for line in warmup_lines(args.workload) {
        if conn.exchange_all(std::slice::from_ref(&line))? > 0 {
            return Err(format!("set-up request failed: {line}"));
        }
    }
    Ok((server, conn, start.elapsed().as_secs_f64()))
}

/// What the TCP phase measured.
struct Window {
    setup_s: Vec<f64>,
    logs: Vec<ClientLog>,
    elapsed_s: f64,
    cpu_ns: u64,
    peak_rss_mb: f64,
    before: WireStats,
    after: WireStats,
}

fn run_window(args: &Args) -> Result<Window, String> {
    let mut setup_s = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let (server, conn, seconds) = start_server(args)?;
        setup_s.push(seconds);
        if i + 1 < SETUPS {
            server.shutdown(conn)?;
        } else {
            live = Some((server, conn));
        }
    }
    let (server, mut first) = live.expect("SETUPS > 0");
    let mut others = (1..args.workload.clients())
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let before = wire_stats(&mut first)?;
    let cpu_before = server.cpu_ns();
    let stream = Mutex::new(Generator::new(args.workload, args.seed));
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let (mut first, logs) = std::thread::scope(|scope| {
        let handles: Vec<_> = others
            .drain(..)
            .map(|conn| scope.spawn(|| client_loop(conn, &stream, start, deadline)))
            .collect();
        let (first, log) = client_loop(first, &stream, start, deadline);
        let mut logs = vec![log];
        for handle in handles {
            let (conn, log) = handle.join().expect("client threads do not panic");
            // Closed before shutdown, which waits for every connection.
            drop(conn);
            logs.push(log);
        }
        (first, logs)
    });
    let cpu_ns = server.cpu_ns() - cpu_before;
    let elapsed_s = logs
        .iter()
        .flat_map(|l| &l.responses)
        .filter_map(|r| r.done)
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    let first_broken = logs[0].responses.last().is_some_and(|r| r.done.is_none());
    let after = match first_broken {
        true => None,
        false => wire_stats(&mut first).ok(),
    };
    let peak_rss_mb = server.peak_rss_mb();
    if after.is_some() {
        server.shutdown(first)?;
    }
    // Otherwise the failed requests are counted, and the server is killed
    // when dropped.
    let after = after.unwrap_or(before);
    Ok(Window {
        setup_s,
        logs,
        elapsed_s,
        cpu_ns,
        peak_rss_mb,
        before,
        after,
    })
}

/// Checks every response on two threads (the reference runs dominate);
/// returns the failures and the first failure's description.
fn check_outputs(window: &Window, requests: &[Request]) -> (usize, Option<String>) {
    let jobs: Vec<(&ClientLog, &Response)> = window
        .logs
        .iter()
        .flat_map(|log| log.responses.iter().map(move |r| (log, r)))
        .collect();
    let check = |offset: usize| {
        let mut references = References::default();
        let mut failures = Vec::new();
        for (log, response) in jobs.iter().skip(offset).step_by(2) {
            let request = &requests[response.seq as usize];
            let verdict = match &response.error {
                Some(error) => Err(error.clone()),
                None => {
                    let streamed: Vec<&str> = response
                        .events
                        .iter()
                        .map(|&e| log.interner.line(e))
                        .collect();
                    match references.get(request) {
                        Ok(expected) => matches(&streamed, expected),
                        Err(e) => Err(format!("reference run failed: {e}")),
                    }
                }
            };
            if let Err(why) = verdict {
                failures.push((request.seq, format!("{}: {why}", request.id())));
            }
        }
        failures
    };
    let mut failures = std::thread::scope(|scope| {
        let other = scope.spawn(|| check(1));
        let mut failures = check(0);
        failures.extend(other.join().expect("check threads do not panic"));
        failures
    });
    failures.sort();
    (
        failures.len(),
        failures.into_iter().next().map(|(_, why)| why),
    )
}

/// The per-layer results of the traced run.
struct Layers {
    values: Vec<(&'static str, f64)>,
    /// Replayed requests that failed to parse, plan or run in-process.
    failures: usize,
    self_us_per_req: Vec<(&'static str, f64)>,
    replayed: usize,
}

/// A fresh in-process server taken through the workload's set-up requests.
fn primed_server(workload: Workload) -> Arc<Server> {
    let server = Arc::new(Server::new());
    let mut input = warmup_lines(workload).join("\n");
    input.push('\n');
    run_exchange(&server, &input);
    server
}

/// The total recorded for `engine`, 0 if it never ran.
fn engine_total(totals: &[(EngineChoice, u64)], engine: EngineChoice) -> f64 {
    totals
        .iter()
        .find(|(e, _)| *e == engine)
        .map_or(0.0, |(_, n)| *n as f64)
}

fn layers(args: &Args, window: &Window, requests: &[Request]) -> Result<Layers, String> {
    let responses: HashMap<u64, &Response> = window
        .logs
        .iter()
        .flat_map(|l| &l.responses)
        .map(|r| (r.seq, r))
        .collect();
    // The replayed prefix: the stream in order, up to the first request that
    // did not complete over TCP, for at most half the run length. Each request
    // goes through `run_exchange`, the untraced replay and the traced replay,
    // each on its own primed server, in an order that rotates per request so
    // no pass always runs first.
    let completed = requests
        .iter()
        .take_while(|r| responses[&r.seq].latency().is_some())
        .count();
    let cap = Duration::from_secs(args.seconds) / 2;
    let servers = [(); 3].map(|()| primed_server(args.workload));
    let mut tracer = Tracer::new(true);
    let mut no_tracer = Tracer::new(false);
    let (mut untraced, mut traced) = (ReplayStats::default(), ReplayStats::default());
    let mut exchange_ns = Vec::new();
    let started = Instant::now();
    for (i, request) in requests[..completed].iter().enumerate() {
        for pass in 0..3 {
            match (i + pass) % 3 {
                0 => exchange_ns.push(time_exchange(&servers[0], request)),
                1 => replay(servers[1].session(), request, &mut no_tracer, &mut untraced),
                _ => replay(servers[2].session(), request, &mut tracer, &mut traced),
            }
        }
        if started.elapsed() >= cap {
            break;
        }
    }
    drop(servers);
    let replayed = &requests[..exchange_ns.len()];
    let n = replayed.len().max(1) as f64;

    let us = |ns: u64| ns as f64 / 1e3;
    let sum = |v: &[u64]| v.iter().sum::<u64>();
    let per_req_us = |name: &str| us(tracer.total_ns(name)) / n;
    let layer_ns: u64 = tracer
        .spans
        .iter()
        .filter(|s| s.parent.is_some())
        .map(|s| s.duration_ns())
        .sum();

    let frontend_ms: f64 = replayed
        .iter()
        .zip(&untraced.request_ns)
        .map(|(r, &ns)| {
            responses[&r.seq]
                .latency()
                .expect("prefix completed")
                .as_secs_f64()
                * 1e3
                - ns as f64 / 1e6
        })
        .sum::<f64>()
        / n;
    let gaps: Vec<f64> = window
        .logs
        .iter()
        .flat_map(|l| &l.responses)
        .filter(|r| r.latency().is_some())
        .filter_map(|r| Some((r.done? - r.first_event?).as_secs_f64() * 1e3))
        .collect();
    let completed_tcp = gaps.len().max(1) as f64;
    let (before, after) = (window.before, window.after);
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let queries = (replayed.len() - traced.optimize.0 as usize).max(1) as f64;
    let searches = (traced.optimize.0 as f64).max(1.0);
    let wall = |engine| engine_total(&traced.engine_wall_ns, engine) / 1e3 / n;
    let per_search = |v: u64| v as f64 / searches;
    let mut first_cell = traced
        .first_cell_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect::<Vec<_>>();
    first_cell.sort_by(f64::total_cmp);

    let parse_us = per_req_us("server.parse_query") + per_req_us("server.parse_optimize");
    let ReplayStats {
        packed,
        is,
        sim,
        epistemic,
        ..
    } = &traced;
    let values = vec![
        ("server.frontend_ms_per_req", frontend_ms),
        ("server.first_event_to_done_ms", median(&gaps)),
        ("server.exchange_inproc_us", us(sum(&exchange_ns)) / n),
        ("server.parse_query_us", parse_us),
        (
            "server.plan_wall_ms_per_req",
            ratio(
                after.plan_wall_ms - before.plan_wall_ms,
                after.completed - before.completed,
            ),
        ),
        ("json.parse_us_per_req", per_req_us("json.parse")),
        ("json.encode_us_per_req", per_req_us("json.encode")),
        ("json.bytes_out_per_req", traced.bytes_out as f64 / n),
        ("query.cells_per_req", traced.cells as f64 / n),
        (
            "query.engine.counting.cells_per_req",
            engine_total(&traced.engine_cells, EngineChoice::Counting) / n,
        ),
        (
            "query.engine.monte-carlo.cells_per_req",
            engine_total(&traced.engine_cells, EngineChoice::MonteCarlo) / n,
        ),
        (
            "query.engine.importance-sampling.cells_per_req",
            engine_total(&traced.engine_cells, EngineChoice::ImportanceSampling) / n,
        ),
        ("cache.hit_rate", ratio(hits, hits + misses)),
        ("cache.misses_per_req", misses / completed_tcp),
        ("cache.evictions", after.evictions - before.evictions),
        ("cache.entries", after.entries),
        ("kernel.is.ess_per_sample", ratio(is.1, is.0 as f64)),
        ("epistemic.draws_per_req", epistemic.0 as f64 / n),
        ("optimize.screened", per_search(traced.optimize.1)),
        ("optimize.refined", per_search(traced.optimize.2)),
        ("optimize.frontier", per_search(traced.optimize.3)),
        ("optimize.report_bytes", per_search(traced.optimize.4)),
        (
            "trace.unattributed_share",
            1.0 - ratio(layer_ns as f64, sum(&exchange_ns) as f64),
        ),
        (
            "trace.overhead_share",
            ratio(
                sum(&traced.request_ns) as f64,
                sum(&untraced.request_ns) as f64,
            ) - 1.0,
        ),
        // Path-specific timings (record line only).
        (
            "query.plan_us_per_req",
            us(tracer.total_ns("query.plan")) / queries,
        ),
        (
            "scheduler.execute_us_per_req",
            us(tracer.total_ns("scheduler.execute")) / queries,
        ),
        ("scheduler.first_cell_us", quantile(&first_cell, 0.5)),
        (
            "scheduler.unattributed_us_per_req",
            traced.unattributed_exec_ns / 1e3 / queries,
        ),
        ("kernel.counting.us_per_req", wall(EngineChoice::Counting)),
        (
            "kernel.monte-carlo.us_per_req",
            wall(EngineChoice::MonteCarlo),
        ),
        (
            "kernel.importance-sampling.us_per_req",
            wall(EngineChoice::ImportanceSampling),
        ),
        (
            "kernel.packed.samples_per_s",
            ratio(packed.0 as f64 * 1e9, packed.1 as f64),
        ),
        (
            "kernel.is.samples_per_s",
            ratio(is.0 as f64 * 1e9, is.2 as f64),
        ),
        (
            "kernel.sim.traces_per_s",
            ratio(sim.0 as f64 * 1e9, sim.1 as f64),
        ),
        (
            "epistemic.us_per_draw",
            ratio(us(epistemic.1), epistemic.0 as f64),
        ),
        (
            "optimize.search_ms",
            ratio(
                tracer.total_ns("optimize.search") as f64 / 1e6,
                traced.optimize.0 as f64,
            ),
        ),
    ];
    let self_us_per_req = tracer
        .self_times()
        .into_iter()
        .map(|(name, ns)| (name, us(ns) / n))
        .collect();
    let failures = untraced.failures + traced.failures;
    if failures > 0 {
        eprintln!("perfbench: {failures} replayed request(s) failed in-process");
    }
    if let Some(dir) = &args.spans_dir {
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|file| tracer.write_jsonl(&mut std::io::BufWriter::new(file)))
            .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
    }
    Ok(Layers {
        values,
        failures,
        self_us_per_req,
        replayed: replayed.len(),
    })
}

fn run(args: &Args) -> Result<(), String> {
    let window = run_window(args)?;
    let responses: Vec<&Response> = window.logs.iter().flat_map(|l| &l.responses).collect();
    let attempted = responses.len() as u64;
    if attempted == 0 {
        return Err("no request was sent".to_string());
    }
    // The stream again, from the seed: request `seq` is `requests[seq]`.
    let requests: Vec<Request> = Generator::new(args.workload, args.seed)
        .take(attempted as usize)
        .collect();
    let (failed, first_failure) = check_outputs(&window, &requests);
    if let Some(why) = &first_failure {
        eprintln!("perfbench: output check failed: {why}");
    }

    let mut latencies: Vec<f64> = responses
        .iter()
        .filter_map(|r| r.latency())
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let mut first_events: Vec<f64> = responses
        .iter()
        .filter(|r| r.latency().is_some())
        .filter_map(|r| Some((r.first_event? - r.sent).as_secs_f64() * 1e3))
        .collect();
    first_events.sort_by(f64::total_cmp);
    let completed = latencies.len() as f64;
    let end_to_end = [
        median(&window.setup_s),
        ratio(completed, window.elapsed_s),
        quantile(&latencies, 0.5),
        quantile(&latencies, 0.9),
        window.peak_rss_mb,
    ];
    let unbounded = [
        quantile(&first_events, 0.5),
        ratio(window.cpu_ns as f64 / 1e6, completed),
        failed as f64 / attempted as f64,
    ];
    let layers = match args.trace {
        true => Some(layers(args, &window, &requests)?),
        false => None,
    };

    let (cpu, nproc, avx512) = machine();
    let metric = |value: f64, unit: &str| {
        object(vec![
            ("value", num(value)),
            ("unit", JsonValue::string(unit)),
        ])
    };
    let metrics_json = |names: &[(&str, &str)], values: &[f64]| {
        JsonValue::Object(
            names
                .iter()
                .zip(values)
                .map(|((name, unit), v)| (name.to_string(), metric(*v, unit)))
                .collect(),
        )
    };
    let e2e_json = metrics_json(&END_TO_END, &end_to_end);
    let units: HashMap<&str, &str> = PER_LAYER
        .iter()
        .chain(PATH_SPECIFIC.iter())
        .copied()
        .collect();
    let mut record = vec![
        ("perfbench", JsonValue::string("record")),
        ("workload", JsonValue::string(args.workload.name())),
        ("seed", num(args.seed as f64)),
        ("trace", num(args.trace as u8 as f64)),
        ("seconds", num(args.seconds as f64)),
        (
            "meta",
            object(vec![
                ("cpu", JsonValue::string(cpu)),
                ("nproc", num(nproc as f64)),
                ("avx512", JsonValue::string(avx512)),
                ("rustc", JsonValue::string(&args.rustc)),
                ("commit", JsonValue::string(&args.commit)),
                ("seed", num(args.seed as f64)),
                ("clients", num(args.workload.clients() as f64)),
                ("loop", JsonValue::string("closed")),
            ]),
        ),
        (
            "requests",
            object(vec![
                ("attempted", num(attempted as f64)),
                ("completed", num(completed)),
                ("failed", num(failed as f64)),
                ("latency_samples", num(completed)),
                (
                    "setup_s",
                    JsonValue::Array(window.setup_s.iter().map(|&s| num(s)).collect()),
                ),
            ]),
        ),
        ("end_to_end", e2e_json.clone()),
        (
            "unbounded_end_to_end",
            metrics_json(&UNBOUNDED_END_TO_END, &unbounded),
        ),
    ];
    if let Some(layers) = &layers {
        record.push((
            "per_layer",
            JsonValue::Object(
                layers
                    .values
                    .iter()
                    .map(|(name, v)| (name.to_string(), metric(*v, units[name])))
                    .collect(),
            ),
        ));
        record.push((
            "self_us_per_req",
            JsonValue::Object(
                layers
                    .self_us_per_req
                    .iter()
                    .map(|(name, v)| (name.to_string(), num(*v)))
                    .collect(),
            ),
        ));
        record.push(("replayed", num(layers.replayed as f64)));
    }
    println!("{}", object(record).to_compact_string());

    let metrics = match &layers {
        None => e2e_json,
        Some(layers) => JsonValue::Object(
            PER_LAYER
                .iter()
                .map(|(name, unit)| {
                    let v = layers
                        .values
                        .iter()
                        .find(|(n, _)| n == name)
                        .map_or(0.0, |(_, v)| *v);
                    (name.to_string(), metric(v, unit))
                })
                .collect(),
        ),
    };
    let result = object(vec![
        (
            "correct",
            JsonValue::Bool(failed == 0 && layers.as_ref().is_none_or(|l| l.failures == 0)),
        ),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_compact_string());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

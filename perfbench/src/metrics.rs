//! Metric names and units, in `BENCHMARK.json` order, and the statistics the
//! benchmark reports them with.

/// End-to-end metrics, measured over TCP with tracing off, in the result line
/// and bounded in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end metrics the record line carries without a bound. The two
/// timings are sub-millisecond on `warm-repeat`, where they drift with the
/// load other tenants put on a small shared machine (run-to-run quartile
/// spread near 20%, beyond any usable bound); `failed_share` must be 0.
pub const UNBOUNDED_END_TO_END: [(&str, &str); 3] = [
    ("first_event_p50_ms", "ms"),
    ("server_cpu_ms_per_req", "ms"),
    ("failed_share", "share"),
];

/// Per-layer metrics the traced run reports on every workload. Each is a
/// time measured on every workload, or a count, ratio or share.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("server.frontend_ms_per_req", "ms"),
    ("server.first_event_to_done_ms", "ms"),
    ("server.exchange_inproc_us", "us"),
    ("server.parse_query_us", "us"),
    ("server.plan_wall_ms_per_req", "ms"),
    ("json.parse_us_per_req", "us"),
    ("json.encode_us_per_req", "us"),
    ("json.bytes_out_per_req", "B"),
    ("query.cells_per_req", "count"),
    ("query.engine.counting.cells_per_req", "count"),
    ("query.engine.monte-carlo.cells_per_req", "count"),
    ("query.engine.importance-sampling.cells_per_req", "count"),
    ("cache.hit_rate", "share"),
    ("cache.misses_per_req", "count"),
    ("cache.evictions", "count"),
    ("cache.entries", "count"),
    ("kernel.is.ess_per_sample", "ratio"),
    ("epistemic.draws_per_req", "count"),
    ("optimize.screened", "count"),
    ("optimize.refined", "count"),
    ("optimize.frontier", "count"),
    ("optimize.report_bytes", "B"),
    ("trace.unattributed_share", "share"),
    ("trace.overhead_share", "share"),
];

/// Per-layer timings of layers that only some workloads reach (the query
/// planner, scheduler and kernels are not on the optimizer's request path as
/// seen from outside `optimize`; simulation, posterior draws and the optimizer
/// are on one workload each). The traced run prints them in its record line,
/// as 0 where the layer did not run; they stay out of `BENCHMARK.json`, whose
/// timings must be measured on every run.
pub const PATH_SPECIFIC: [(&str, &str); 12] = [
    ("query.plan_us_per_req", "us"),
    ("scheduler.execute_us_per_req", "us"),
    ("scheduler.first_cell_us", "us"),
    ("scheduler.unattributed_us_per_req", "us"),
    ("kernel.counting.us_per_req", "us"),
    ("kernel.monte-carlo.us_per_req", "us"),
    ("kernel.importance-sampling.us_per_req", "us"),
    ("kernel.packed.samples_per_s", "1/s"),
    ("kernel.is.samples_per_s", "1/s"),
    ("kernel.sim.traces_per_s", "1/s"),
    ("epistemic.us_per_draw", "us"),
    ("optimize.search_ms", "ms"),
];

/// The `q`-quantile of `sorted` by linear interpolation between order
/// statistics; 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

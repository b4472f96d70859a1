//! Criterion benches for the analysis service: one full NDJSON exchange
//! (parse → plan → execute → stream) per iteration, on the mixed workload
//! `repro --bench` records in BENCH_analysis.json.
//!
//! The cold row pays a fresh session per request — scenario conversion, the
//! selector pilot, packed-kernel compilation and IS proposal learning every
//! time. The warm row is a long-lived server answering out of its session
//! cache — the workload `repro serve` exists for. `repro --bench` records the
//! warm rate as `server_queries_per_sec` and the cold/warm ratio as
//! `server_warm_cache_speedup`. Both are in-process exchanges that never open
//! a socket; `perfbench` measures `repro serve` over TCP.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

fn bench_server_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("server-throughput");
    group.bench_function(
        bench::SERVER_QUERY_COLD_ID.trim_start_matches("server-throughput/"),
        |b| b.iter(bench::server_query_cold),
    );
    let server = Arc::new(repro_server::Server::new());
    bench::server_query_warm(&server);
    group.bench_function(
        bench::SERVER_QUERY_WARM_ID.trim_start_matches("server-throughput/"),
        |b| b.iter(|| bench::server_query_warm(&server)),
    );
    group.finish();
}

criterion_group!(benches, bench_server_throughput);
criterion_main!(benches);

//! End-to-end and per-layer benchmark of `repro serve`.
//!
//! The benchmark drives the release `repro serve --tcp` on loopback with
//! closed-loop clients (see [`load`]), checks every streamed response against
//! an in-process run of the same request (see [`check`]), and, in its traced
//! mode, replays the same seeded requests in-process with one span per layer
//! call (see [`trace`]). Request streams come from [`gen`].

pub mod check;
pub mod gen;
pub mod load;
pub mod metrics;
pub mod server;
pub mod trace;

//! Shared helpers for the benchmark harness (see the `table2`, `table3`,
//! and `fig7`–`fig10` binaries, each of which regenerates one table or
//! figure of the paper, and the `latency` and `throughput` daemon benches,
//! which share one socket load driver).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

#[cfg(unix)]
pub mod daemon;
pub mod harness;
pub mod results;
pub mod slo;

//! The repository benchmark: closed-loop `park serve` sessions timed end
//! to end, and a traced replay of the same sessions through the layers'
//! public functions. See `README.md` in this directory for the workloads,
//! the metrics and which layer moves which metric.

pub mod gen;
pub mod layers;
pub mod run;
pub mod spans;
pub mod stats;
pub mod wire;

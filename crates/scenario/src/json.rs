//! The workspace's JSON reader, re-exported: scenario files and `simd`
//! request lines decode through [`accel_sim::json`], the same reader the
//! what-if recordings, sweep checkpoints and trace round trips use.

pub use accel_sim::json::*;

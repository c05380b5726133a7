//! Shared infrastructure for the experiment binaries (`src/bin/e*.rs`) and
//! the perf suite: table formatting, deterministic JSON artifacts,
//! rayon-parallel parameter sweeps, the experiment drivers themselves (so
//! golden and determinism tests exercise exactly what the binaries run),
//! and the simulators' specifications ([`oracle`]).

pub mod experiments;
pub mod gate;
pub mod json;
pub mod measure;
pub mod oracle;
pub mod perf;
pub mod sweep;
pub mod table;

pub use json::{Json, ToJson};
pub use measure::{
    counting_allocator_installed, measure_allocs, measure_peak, AllocStats, CountingAlloc,
};
pub use sweep::{Sweep, SweepOutput, SweepRecord};
pub use table::Table;

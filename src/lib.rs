//! `hyperpath-suite` — facade over the hyperpath workspace.
//!
//! Re-exports every crate of the reproduction of Greenberg & Bhatt,
//! *Routing Multiple Paths in Hypercubes* (SPAA 1990). See the workspace
//! README for a guided tour and `examples/` for runnable entry points.

pub use hyperpath_core as core;
pub use hyperpath_embedding as embedding;
pub use hyperpath_guests as guests;
pub use hyperpath_ida as ida;
pub use hyperpath_sim as sim;
pub use hyperpath_topology as topology;

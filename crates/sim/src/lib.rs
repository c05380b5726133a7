//! Synchronous packet-level hypercube network simulator.
//!
//! The paper's cost model (Section 3) **is** a machine model: per time unit
//! every processor may send one message packet over each outgoing link.
//! This crate implements that machine literally, so measured completion
//! times *are* the paper's `p`-packet costs:
//!
//! * [`packet`] — store-and-forward engine: packets follow fixed host
//!   paths, per-link FIFO queues, one packet per directed link per step,
//!   deterministic arbitration (lowest flow id first). Includes flow
//!   builders that turn an embedding (+ a packets-per-edge count) into a
//!   simulation workload. Each simulator has two runs: `run` (fault-free)
//!   and `run_planned` (under a [`FaultPlan`]), both reporting to a
//!   [`Recorder`].
//! * [`wormhole`] — cut-through/wormhole mode for Section 7: an `F`-flit
//!   worm holds each link from the step its head crosses until its tail
//!   does; blocked heads stall the whole worm.
//! * [`routing`] — path generators: greedy e-cube, Valiant two-phase
//!   random-intermediate, and Section 7's CCC-copy split routes.
//! * [`faults`] — the one fault model, [`FaultPlan`]: link cuts before
//!   step 0 or mid-run, transient outages, byte-corrupting links and node
//!   faults; plus the static [`FaultSet`] a plan is built from and which
//!   bundle paths survive it.
//! * [`bitslice`] — SIMD-within-a-register fault kernels: 64 Monte-Carlo
//!   trials packed per `u64` ([`BitTrialBlock`]), path survival as word
//!   AND-reductions ([`SlicedPaths`]), with a lane-extraction API that
//!   reproduces the scalar draws bit for bit.
//! * [`delivery`] — the end-to-end message layer: IDA-disperse each guest
//!   edge's message over its bundle, run the shares through the machine
//!   under a [`FaultPlan`], reconstruct at the destination, retry lost
//!   shares over surviving paths, and grade every edge
//!   delivered/degraded/lost.
//! * [`chaos`] — seed-pinned chaos harness: randomized adversarial
//!   [`FaultPlan`]s through both engines and both delivery protocols,
//!   under packet-conservation, no-wrong-bytes, oracle-equality and
//!   monotone-degradation invariants.
//! * [`protocol`] — oracle-free adaptive delivery: the sender infers path
//!   health purely from per-round ACK/NACK feedback on keyed tagged
//!   shares, rerouting retries with an exponential copy budget — no fault
//!   oracle anywhere in its signature.
//! * [`tenants`] — multi-tenant traffic engine: several embedded guests
//!   (cycles, grids, trees) sharing one host cube through a sparse
//!   [`LinkLedger`], with admission control, congestion-aware path-subset
//!   selection down to the IDA threshold, and batched phases executed
//!   exactly on the packet/wormhole engines per window group.
//! * [`trace`] — zero-cost-when-off instrumentation: a [`Recorder`] event
//!   sink every engine run reports to, plus percentile summaries of busy
//!   links, latencies and queue depths ([`TraceRecorder::summary`]).
//! * [`schedule_exec`] — executes a verified `PhaseSchedule` on this
//!   machine model, so a theorem's certified cost can be checked against a
//!   measured makespan.

// `std::simd` is still unstable: the byte-identical simd issue of the
// 256-lane kernel words needs a nightly toolchain, which is why it hides
// behind an off-by-default feature (see `bitslice::kernel_feature_path`).
#![cfg_attr(feature = "wide-simd", feature(portable_simd))]

pub mod bitslice;
pub mod chaos;
pub mod delivery;
pub mod faults;
pub mod packet;
pub mod protocol;
pub mod routing;
pub mod schedule_exec;
pub mod tenants;
pub mod trace;
pub mod wormhole;

pub use bitslice::{kernel_feature_path, BitTrialBlock, BitTrialBlock256, SlicedPaths, W256};
pub use chaos::{random_plan, run_chaos, ChaosConfig, ChaosReport, ChaosTrial};
pub use delivery::{
    deliver_phase_plan, deliver_phase_plan_outcome, deliver_phase_plan_prepared, DeliveryConfig,
    DeliveryOutcome, DeliveryReport, EdgeDelivery, EdgeOutcome, PhaseSetup,
};
pub use faults::{random_fault_set, surviving_paths, FaultPlan, FaultSet, LinkEvent};
pub use packet::{Flow, PacketSim, PlanReport, SimReport};
pub use protocol::{
    deliver_adaptive, deliver_adaptive_prepared, AdaptiveReport, AdaptiveSetup, PlanNetwork,
    RoundNetwork, Submission, MAX_ADAPTIVE_ROUNDS, MAX_FRUITLESS_PROBES,
};
pub use routing::{ccc_copy_routes, ecube_path, valiant_path};
pub use schedule_exec::run_schedule;
pub use tenants::{
    run_tenants, run_tenants_recorded, EdgeGrade, EngineReport, ExecMode, FlowStats, LedgerSummary,
    LinkLedger, TenantEngine, TenantPlan, TenantReport, TenantRun, TenantSpec, TenantsConfig,
    ENGINE_MAX_DIMS,
};
pub use trace::{CountingRecorder, NopRecorder, Recorder, TraceRecorder, TraceSummary};
pub use wormhole::{PlanWormReport, Worm, WormReport, WormholeSim};

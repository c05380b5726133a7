//! Synchronous packet-level hypercube network simulator.
//!
//! The paper's cost model (Section 3) **is** a machine model: per time unit
//! every processor may send one message packet over each outgoing link.
//! This crate implements that machine literally, so measured completion
//! times *are* the paper's `p`-packet costs:
//!
//! * [`packet`] — store-and-forward engine, [`PacketSim`]: packets follow
//!   fixed host paths, per-link FIFO queues, one packet per directed link
//!   per step, deterministic arbitration (lowest flow id first). Includes
//!   flow builders that turn an embedding (+ a packets-per-edge count) into
//!   a simulation workload.
//! * [`wormhole`] — cut-through/wormhole mode for Section 7,
//!   [`WormholeSim`]: an `F`-flit worm's head advances while the next link
//!   is free and stalls while another worm holds it; the link of hop `h`,
//!   entered by the head at step `entered[h]`, is free again from step
//!   `entered[h] + F`, whether or not the head has stalled since.
//!
//!   Each simulator is one pooled type: it allocates its link-indexed
//!   machine state once per host cube, is loaded with node walks or
//!   precomputed hop links, and can be cleared and reloaded round after
//!   round. It has two runs: `run` (fault-free) and `run_planned` (under
//!   a [`FaultPlan`]), both reporting to a [`Recorder`] and leaving
//!   per-flow or per-worm outcomes in the simulator's accessors. Each
//!   engine's one specification, an independent stepper, ships outside
//!   this crate, in `hyperpath_bench::oracle`.
//! * [`routing`] — path generators: greedy e-cube, Valiant two-phase
//!   random-intermediate, and Section 7's CCC-copy split routes.
//! * [`faults`] — the one fault model, [`FaultPlan`]: link cuts before
//!   step 0 or mid-run, transient outages, byte-corrupting links and node
//!   faults; plus the static [`FaultSet`] a plan is built from and which
//!   bundle paths survive it.
//! * [`bitslice`] — SIMD-within-a-register fault kernels: 64 or 256
//!   Monte-Carlo trials packed per [`LaneWord`] (`u64` or [`W256`]) in a
//!   [`BitTrialBlock`], path survival as word AND-reductions
//!   ([`SlicedPaths`]), with a lane-extraction API that reproduces the
//!   scalar draws bit for bit.
//! * [`protocol`] — the one dispersal loop: IDA-disperse each guest edge's
//!   message over its bundle, ship the shares round by round, retry the
//!   missing ones over live paths, reconstruct and grade every edge
//!   delivered/degraded/lost. Under its public, *learned* policy the
//!   sender infers path health purely from ACK/NACK feedback on keyed
//!   tagged shares — no fault oracle anywhere in its signature.
//! * [`delivery`] — the same loop under the *omniscient* policy, whose
//!   sender reads a [`FaultPlan`]'s hazard set, plus a closed form that
//!   grades a static fail-stop phase without running the loop.
//! * [`chaos`] — seed-pinned chaos harness: randomized adversarial
//!   [`FaultPlan`]s through both engines and the dispersal loop under both
//!   knowledge policies, under packet-conservation, no-wrong-bytes,
//!   closed-form-equality and monotone-degradation invariants.
//! * [`tenants`] — multi-tenant traffic engine: several embedded guests
//!   (cycles, grids, trees) sharing one host cube through a link ledger
//!   sharded per window group, with admission control, congestion-aware
//!   path-subset selection down to the IDA threshold, and batched phases
//!   executed exactly on the packet/wormhole engines per window group.
//! * [`trace`] — zero-cost-when-off instrumentation: a [`Recorder`] event
//!   sink every engine run reports to, plus percentile summaries of busy
//!   links, latencies and queue depths ([`TraceRecorder::summary`]).
//! * [`schedule_exec`] — executes a verified `PhaseSchedule` on this
//!   machine model, so a theorem's certified cost can be checked against a
//!   measured makespan.

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

pub use bitslice::{BitTrialBlock, LaneWord, SlicedPaths, W256};
pub use chaos::{random_plan, run_chaos, ChaosConfig, ChaosReport, ChaosTrial};
pub use delivery::{
    deliver_phase_plan, deliver_phase_plan_outcome, deliver_phase_plan_prepared, DeliveryConfig,
    DeliveryOutcome, DeliveryReport, EdgeDelivery, EdgeOutcome,
};
pub use faults::{random_fault_set, surviving_paths, FaultPlan, FaultSet, LinkEvent};
pub use packet::{PacketSim, PlanReport, SimReport};
pub use protocol::{
    deliver_adaptive, deliver_adaptive_prepared, AdaptiveReport, AdaptiveSetup, PlanNetwork,
    RoundNetwork, Submission, MAX_ADAPTIVE_ROUNDS, MAX_FRUITLESS_PROBES,
};
pub use routing::{ccc_copy_routes, ecube_path, valiant_path};
pub use schedule_exec::run_schedule;
pub use tenants::{
    EngineReport, ExecMode, FlowStats, LedgerSummary, TenantEngine, TenantPlan, TenantReport,
    TenantRun, TenantSpec, TenantsConfig, ENGINE_MAX_DIMS,
};
pub use trace::{CountingRecorder, NopRecorder, Recorder, TraceRecorder, TraceSummary};
pub use wormhole::WormholeSim;

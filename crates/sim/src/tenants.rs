//! Multi-tenant traffic engine: several embedded guests sharing one host
//! cube, with admission control, batched phase scheduling, and
//! congestion-aware path selection.
//!
//! Each [`TenantSpec`] places one implicit guest plan (a cycle, grid, or
//! tree from `hyperpath_topology::host`) into a dyadic *window* of the
//! shared `Q_n`: tenant-local node `x` lives at host node
//! `(window << m) | x`, where `m` is the plan's subcube dimension. Windows
//! of different sizes may nest; overlapping dyadic intervals always nest,
//! which is what makes batched execution exact (see below).
//!
//! The engine runs synchronous rounds. Every round each tenant requests
//! routing for a batch of its guest edges (drawn from a per-tenant seeded
//! stream, so runs are deterministic and independent of tenant arrival
//! order). A link ledger tracks the width committed on every host link:
//!
//! * **Admission** — a request's `w`-wide path bundle is admitted only
//!   where link capacity remains. Requests that cannot get enough paths
//!   are queued and retried (with aging) rather than dropped outright.
//! * **Congestion-aware selection** — when the full bundle does not fit,
//!   the engine commits the least-loaded subset of the disjoint paths, as
//!   long as at least `⌈w/2⌉` fit — the IDA threshold at which a message
//!   split over `w` shares still reconstructs (counted in
//!   [`FlowStats::degraded`]).
//! * **Batched phases** — admitted requests are grouped by window
//!   containment and each group is executed *exactly* on the existing
//!   packet (or wormhole) engine over the group's root subcube, relabeled
//!   to local coordinates — tenants in disjoint windows cannot interact,
//!   so the per-group runs compose into one faithful phase of the shared
//!   machine. Only the windows are dense, so a million-node host stays
//!   in bounded memory; [`TenantEngine::new`] rejects a tenant whose
//!   window is wider than [`ENGINE_MAX_DIMS`].
//!
//! A pooled run ([`TenantRun`]) gives each window group's round one link
//! currency, the local coordinates of its root subcube. Each tenant's
//! bundle is converted once per run, on its first request, into a table
//! holding every path as directed hops (which the engines load) and as
//! compact undirected link indices (which key the group's dense ledger
//! shard), so admission, the engine load and settling read slices and
//! index arrays. Host link ids appear only where a run meets the host:
//! fault-plan projection, the omniscient hazard test and the report. The
//! reference engine ([`TenantEngine::run_reference`]) keeps a sparse
//! ledger keyed by host link id and its own conversions, as the oracle
//! the pooled run is pinned byte-identical against.
//!
//! The [`EngineReport`] carries per-tenant [`FlowStats`], Jain's fairness
//! index over delivered messages, aggregate throughput, and the measured
//! max cumulative link congestion next to the averaging lower bound of
//! `hyperpath_core::bounds::congestion_lower_bound` — the gap column of
//! experiment E19.

use std::ops::Range;
use std::sync::Arc;

use hyperpath_core::bounds::congestion_lower_bound;
use hyperpath_topology::host::{BinomialTreePlan, GridPlan, Theorem1Plan, Theorem2Plan};
use hyperpath_topology::{DirEdge, Hypercube, LinkMap, LinkSet, Node};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::faults::FaultPlan;
use crate::packet::PacketSim;
use crate::trace::{NopRecorder, Recorder};
use crate::wormhole::WormholeSim;

/// Widest window a tenant may occupy. A window group's pooled round keeps
/// dense per-link state over its root subcube — the packet/wormhole
/// simulators (`O(links × dims)`, ~100 MB at 16 dims, ~2 GB at 20) and
/// the ledger shard — so [`TenantEngine::new`] rejects wider plans
/// rather than let one cost `O(root links)`. The host itself may be far
/// larger: an implicit `Q_20` with `Q_8` windows stays within the perf
/// gate's memory ceiling.
pub const ENGINE_MAX_DIMS: u32 = 16;

/// A guest plan a tenant can run: `num_edges` guest edges, each widened
/// to a `width`-path bundle of dense undirected link indices over the
/// plan's own `Q_m` (lifted into the host by the engine). Object-safe so
/// heterogeneous tenants share one engine.
pub trait TenantPlan: Send + Sync {
    /// Subcube dimension `m` the plan's link indices live in.
    fn dims(&self) -> u32;

    /// Number of guest edges (= bundles).
    fn num_edges(&self) -> u64;

    /// Paths per bundle.
    fn width(&self) -> u32;

    /// Visits every path of guest edge `edge` as its slice of dense
    /// undirected `Q_m` link indices, deterministically and without
    /// allocating.
    fn for_each_path(&self, edge: u64, f: &mut dyn FnMut(&[u64]));
}

impl TenantPlan for Theorem1Plan {
    fn dims(&self) -> u32 {
        Theorem1Plan::dims(self)
    }

    fn num_edges(&self) -> u64 {
        self.num_bundles()
    }

    fn width(&self) -> u32 {
        self.paths_per_bundle()
    }

    fn for_each_path(&self, edge: u64, f: &mut dyn FnMut(&[u64])) {
        Theorem1Plan::for_each_path(self, edge, f);
    }
}

impl TenantPlan for Theorem2Plan {
    fn dims(&self) -> u32 {
        Theorem2Plan::dims(self)
    }

    fn num_edges(&self) -> u64 {
        self.num_bundles()
    }

    fn width(&self) -> u32 {
        self.paths_per_bundle()
    }

    fn for_each_path(&self, edge: u64, f: &mut dyn FnMut(&[u64])) {
        Theorem2Plan::for_each_path(self, edge, f);
    }
}

impl TenantPlan for GridPlan {
    fn dims(&self) -> u32 {
        GridPlan::dims(self)
    }

    fn num_edges(&self) -> u64 {
        self.num_bundles()
    }

    fn width(&self) -> u32 {
        GridPlan::width(self)
    }

    fn for_each_path(&self, edge: u64, f: &mut dyn FnMut(&[u64])) {
        GridPlan::for_each_path(self, edge, f);
    }
}

impl TenantPlan for BinomialTreePlan {
    fn dims(&self) -> u32 {
        BinomialTreePlan::dims(self)
    }

    fn num_edges(&self) -> u64 {
        self.num_bundles()
    }

    fn width(&self) -> u32 {
        BinomialTreePlan::width(self)
    }

    fn for_each_path(&self, edge: u64, f: &mut dyn FnMut(&[u64])) {
        BinomialTreePlan::for_each_path(self, edge, f);
    }
}

/// One guest sharing the host: a plan placed at dyadic window `window`
/// (tenant-local node `x` ↦ host node `(window << m) | x`).
#[derive(Clone)]
pub struct TenantSpec {
    /// Stable identity — seeds the tenant's request stream and keys all
    /// accounting, so results are independent of the order specs are
    /// listed in.
    pub id: u32,
    /// Display name for reports.
    pub name: String,
    /// Window index: `0 ≤ window < 2^{n - m}`.
    pub window: u64,
    /// The guest plan.
    pub plan: Arc<dyn TenantPlan>,
}

/// How admitted phases are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Store-and-forward packet engine, one packet per committed path.
    Packet,
    /// Wormhole engine, one `flits`-flit worm per committed path.
    Wormhole {
        /// Flits per worm (≥ 1).
        flits: u64,
    },
    /// No machine run: shares count as delivered, phase makespan is the
    /// structural serialization bound (peak committed link width plus
    /// max path length, minus one).
    Structural,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct TenantsConfig {
    /// Host cube dimension `n`.
    pub host_dims: u32,
    /// Max concurrent path width any single host link may carry.
    pub capacity: u32,
    /// Synchronous rounds to run.
    pub rounds: u32,
    /// Guest-edge requests each tenant issues per round.
    pub requests_per_round: u32,
    /// Times a rejected request is requeued before it is graded lost.
    pub max_requeues: u32,
    /// Master seed for the per-tenant request streams.
    pub seed: u64,
    /// Phase execution mode.
    pub exec: ExecMode,
}

/// An adversarial fault plan over the *shared host*, in host link ids
/// (`base · n + d`, `base` with bit `d` clear — the ids reports name
/// links by). [`sim::faults::FaultPlan`]
/// allocates dense `O(n · 2^n)` per-link state, which is exactly what an
/// implicit million-node host cannot afford; this plan stays
/// `O(faults)`, and the engine *projects* it into a dense per-group
/// [`FaultPlan`] over each phase's root subcube — so phases still run on
/// the existing plan-aware engines, faithfully.
///
/// Faults are **round-granular**: a link down for round `r` is down for
/// the whole of round `r`'s phase (cut at machine step 0 of the
/// projection).
///
/// [`sim::faults::FaultPlan`]: crate::faults::FaultPlan
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantFaultPlan {
    /// Permanent cuts: link → first round it is down.
    cuts: LinkMap<u32>,
    /// Transient outages: link → list of `[from, until)` round windows.
    outages: LinkMap<Vec<(u32, u32)>>,
    /// Links that corrupt every payload crossing them.
    corrupt: LinkSet,
}

impl TenantFaultPlan {
    /// The empty plan: a run under it must be byte-identical to a
    /// plan-free run (pinned by `bench/tests/tenants_faults.rs`).
    pub fn none() -> Self {
        TenantFaultPlan::default()
    }

    /// Cuts `link` permanently from round 0.
    pub fn cut_link(&mut self, link: u64) {
        self.cut_link_at(0, link);
    }

    /// Cuts `link` permanently from the start of `round`. Earlier of two
    /// cuts on the same link wins.
    pub fn cut_link_at(&mut self, round: u32, link: u64) {
        let e = self.cuts.entry(link).or_insert(round);
        *e = (*e).min(round);
    }

    /// Transient outage: `link` is down over rounds `[from, until)`. A
    /// zero-width window is a legal no-op, mirroring
    /// [`FaultPlan::outage`].
    pub fn outage(&mut self, link: u64, from: u32, until: u32) {
        if until > from {
            self.outages.entry(link).or_default().push((from, until));
        }
    }

    /// Marks `link` as corrupting every payload that crosses it.
    pub fn corrupt_link(&mut self, link: u64) {
        self.corrupt.insert(link);
    }

    /// Cuts all `n` links incident to host node `node` from the start of
    /// `round`.
    pub fn cut_node_at(&mut self, round: u32, host_dims: u32, node: u64) {
        for d in 0..host_dims {
            let base = node & !(1u64 << d);
            self.cut_link_at(round, base * u64::from(host_dims) + u64::from(d));
        }
    }

    /// Whether `link` transmits nothing during `round`.
    pub fn is_down(&self, link: u64, round: u32) -> bool {
        if self.cuts.get(&link).is_some_and(|&r| r <= round) {
            return true;
        }
        self.outages
            .get(&link)
            .is_some_and(|ws| ws.iter().any(|&(from, until)| from <= round && round < until))
    }

    /// Whether `link` corrupts payloads.
    pub fn is_corrupting(&self, link: u64) -> bool {
        self.corrupt.contains(&link)
    }

    /// Whether `link` is ever hazardous — cut at any round, subject to
    /// any outage window, or corrupting. This is what
    /// [`FaultRouting::Omniscient`] path selection avoids, mirroring
    /// [`FaultPlan::hazard_set`].
    pub fn is_hazard(&self, link: u64) -> bool {
        self.cuts.contains_key(&link)
            || self.outages.contains_key(&link)
            || self.corrupt.contains(&link)
    }

    /// Whether the plan contains no faults at all.
    pub fn is_empty(&self) -> bool {
        self.cuts.is_empty() && self.outages.is_empty() && self.corrupt.is_empty()
    }

    /// Whether every fault is a permanent round-0 cut — the regime where
    /// ledger-learned quarantine provably matches omniscient hazard
    /// routing (pinned by `bench/tests/tenant_quarantine_conformance.rs`).
    pub fn is_static_fail_stop(&self) -> bool {
        self.outages.is_empty() && self.corrupt.is_empty() && self.cuts.values().all(|&r| r == 0)
    }

    /// Number of permanently cut links.
    pub fn cut_count(&self) -> usize {
        self.cuts.len()
    }

    /// Number of links with at least one outage window.
    pub fn outage_count(&self) -> usize {
        self.outages.len()
    }

    /// Number of corrupting links.
    pub fn corrupt_count(&self) -> usize {
        self.corrupt.len()
    }
}

/// How fault-aware path selection learns which links to avoid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultRouting {
    /// Oracle-free: avoid links the ledger has quarantined from
    /// per-phase ACK/NACK outcomes — the `deliver_adaptive` style.
    Learned,
    /// Omniscient baseline: avoid every [`TenantFaultPlan::is_hazard`]
    /// link. Only tests should use this; it exists so the learned path
    /// can be pinned against it on static fail-stop plans.
    Omniscient,
}

/// Consecutive NACKed phases on a link before it is quarantined.
pub const QUARANTINE_STRIKES: u32 = 2;
/// Base quarantine length in rounds; doubles per repeat offense (aged
/// re-admission), capped at `QUARANTINE_BASE_ROUNDS << QUARANTINE_AGE_CAP`.
pub const QUARANTINE_BASE_ROUNDS: u32 = 2;
/// Cap on the offense-count doubling shift.
pub const QUARANTINE_AGE_CAP: u32 = 4;
/// Exponential retry backoff for fault-failed requests: a request with
/// `age` prior requeues waits `2^min(age, BACKOFF_SHIFT_CAP)` rounds
/// before re-entering admission.
pub const BACKOFF_SHIFT_CAP: u32 = 3;

/// Everything a ledger knows about one link, and the per-link rules every
/// ledger applies: the pooled run's dense shards and the reference's
/// sparse [`LinkLedger`] share this one definition of commit, release,
/// refund and the ACK/NACK quarantine state machine.
#[derive(Debug, Clone, Copy, Default)]
struct LinkState {
    /// Width committed now.
    committed: u32,
    /// Consecutive NACKed phases since the link's last ACK.
    strikes: u32,
    /// First round the link is re-admitted after its latest quarantine.
    quarantine_until: u32,
    /// Quarantines so far. Kept after expiry, so repeat offenders serve
    /// longer.
    offenses: u32,
    /// Slots ever committed, net of refunds.
    cumulative: u64,
    /// Whether a path was ever committed over the link.
    touched: bool,
}

impl LinkState {
    /// Takes one more path: the link's concurrent width and cumulative
    /// slots rise by 1, and so do the ledger-wide counters in `totals`.
    /// The caller must have checked capacity. Returns the new width.
    fn commit(&mut self, totals: &mut LedgerTotals) -> u32 {
        self.committed += 1;
        self.cumulative += 1;
        if !self.touched {
            self.touched = true;
            totals.links_touched += 1;
        }
        totals.total_slots += 1;
        totals.peak_concurrent = totals.peak_concurrent.max(self.committed);
        self.committed
    }

    /// Frees one committed path's width.
    fn release(&mut self) {
        assert!(self.committed > 0, "releasing an uncommitted link");
        self.committed -= 1;
    }

    /// Takes back one already-released path's cumulative slot (see
    /// [`LinkLedger::refund`]).
    fn refund(&mut self, totals: &mut LedgerTotals) {
        assert!(self.touched, "refunding an uncommitted link");
        debug_assert!(self.cumulative > 0, "refund past zero");
        self.cumulative -= 1;
        totals.total_slots -= 1;
    }

    /// Records a NACK during `round`. [`QUARANTINE_STRIKES`] consecutive
    /// NACKed phases quarantine the link for
    /// `QUARANTINE_BASE_ROUNDS << min(offenses, QUARANTINE_AGE_CAP)`
    /// rounds — doubling per repeat offense, so flapping links are
    /// re-admitted quickly at first and held out longer each relapse.
    fn nack(&mut self, round: u32) {
        self.strikes += 1;
        if self.strikes >= QUARANTINE_STRIKES {
            self.strikes = 0;
            let hold = QUARANTINE_BASE_ROUNDS << self.offenses.min(QUARANTINE_AGE_CAP);
            self.quarantine_until = self.quarantine_until.max(round + 1 + hold);
            self.offenses += 1;
        }
    }

    /// Records an ACK: a share crossed the link cleanly, so its strike
    /// count resets (offense history is kept — aged re-admission stays
    /// skeptical of repeat offenders).
    fn ack(&mut self) {
        self.strikes = 0;
    }

    /// Whether the link is quarantined during `round` (expiry is passive:
    /// the round simply passes the re-admission mark).
    fn is_quarantined(&self, round: u32) -> bool {
        round < self.quarantine_until
    }
}

/// A ledger's counters over all its links.
#[derive(Debug, Clone, Copy, Default)]
struct LedgerTotals {
    /// Path-link slots ever committed, net of refunds.
    total_slots: u64,
    /// High-water mark of concurrent width on any link.
    peak_concurrent: u32,
    /// Distinct links ever committed.
    links_touched: usize,
}

impl LedgerTotals {
    /// Folds one ledger into a report summary by the shard merge rule:
    /// slot and link counts add up, congestion and peak take the max, and
    /// quarantined links join the (unsorted) union. `links` yields every
    /// link the ledger holds state for, keyed in the ledger's own
    /// currency, and `host` names a quarantined key's host link. Shards
    /// cover disjoint link sets, so the fold of every shard equals one
    /// global ledger.
    fn fold_into<'s, K>(
        &self,
        links: impl Iterator<Item = (K, &'s LinkState)>,
        host: impl Fn(K) -> u64,
        summary: &mut LedgerSummary,
        quarantined: &mut Vec<u64>,
    ) {
        summary.links_touched += self.links_touched;
        summary.total_slots += self.total_slots;
        summary.peak_concurrent = summary.peak_concurrent.max(self.peak_concurrent);
        for (l, s) in links {
            summary.max_cumulative = summary.max_cumulative.max(s.cumulative);
            if s.offenses > 0 {
                quarantined.push(host(l));
            }
        }
    }
}

/// Per-link width accounting for the shared host, keyed by host link id:
/// the reference engine's ledger. Sparse — state is `O(links actually
/// touched)`, never `O(n · 2^{n-1})`. Entries stay at zero load once
/// created, so steady-state rounds never insert. The pooled run keeps a
/// dense shard per window group instead (see `LinkShard`).
#[derive(Debug, Clone)]
pub(crate) struct LinkLedger {
    capacity: u32,
    links: LinkMap<LinkState>,
    totals: LedgerTotals,
}

impl LinkLedger {
    /// An empty ledger enforcing `capacity` concurrent paths per link.
    fn new(capacity: u32) -> Self {
        LinkLedger { capacity, links: LinkMap::default(), totals: LedgerTotals::default() }
    }

    fn state(&self, link: u64) -> LinkState {
        self.links.get(&link).copied().unwrap_or_default()
    }

    /// Width currently committed on `link`.
    fn load(&self, link: u64) -> u32 {
        self.state(link).committed
    }

    /// Whether one more path over `links` fits under capacity.
    fn fits(&self, links: &[u64]) -> bool {
        links.iter().all(|l| self.load(*l) < self.capacity)
    }

    /// Commits one path: each link's concurrent width rises by 1 (caller
    /// must have checked [`LinkLedger::fits`]) and its cumulative slot
    /// count by 1.
    fn commit(&mut self, links: &[u64]) {
        for &l in links {
            let width = self.links.entry(l).or_default().commit(&mut self.totals);
            debug_assert!(width <= self.capacity, "commit past capacity on link {l}");
        }
    }

    /// Releases one committed path.
    fn release(&mut self, links: &[u64]) {
        for &l in links {
            self.links.get_mut(&l).expect("releasing an uncommitted link").release();
        }
    }

    /// Refunds one already-released path's cumulative accounting: the
    /// request it carried was graded Lost or requeued, so later batches
    /// must not be charged its phantom congestion (the demand numerator
    /// of the congestion bound, `total_slots`, and `max_cumulative` both
    /// shrink). Concurrent width and `peak_concurrent` are untouched —
    /// the slots genuinely were occupied during the failed phase — and so
    /// is `links_touched`.
    fn refund(&mut self, links: &[u64]) {
        for &l in links {
            self.links.get_mut(&l).expect("refunding an uncommitted link").refund(&mut self.totals);
        }
    }

    /// Records a NACK on `link`: the phase that crossed it lost or
    /// corrupted a share there (see `LinkState::nack`).
    fn nack(&mut self, link: u64, round: u32) {
        self.links.entry(link).or_default().nack(round);
    }

    /// Records an ACK on `link`: a share crossed it cleanly this phase.
    fn ack(&mut self, link: u64) {
        if let Some(s) = self.links.get_mut(&link) {
            s.ack();
        }
    }

    /// Whether `link` is quarantined during `round`.
    fn is_quarantined(&self, link: u64, round: u32) -> bool {
        self.state(link).is_quarantined(round)
    }

    /// Folds this ledger into a report summary (see
    /// `LedgerTotals::fold_into`).
    fn fold_into(&self, summary: &mut LedgerSummary, quarantined: &mut Vec<u64>) {
        let links = self.links.iter().map(|(&l, s)| (l, s));
        self.totals.fold_into(links, |l| l, summary, quarantined);
    }

    /// This ledger's report summary and every link it ever quarantined,
    /// ascending.
    #[cfg(test)]
    fn summary(&self) -> (LedgerSummary, Vec<u64>) {
        let mut summary = LedgerSummary::empty(self.capacity);
        let mut links = Vec::new();
        self.fold_into(&mut summary, &mut links);
        links.sort_unstable();
        summary.quarantined_links = links.len();
        (summary, links)
    }

    /// Every link ever quarantined, ascending.
    #[cfg(test)]
    fn ever_quarantined(&self) -> Vec<u64> {
        self.summary().1
    }
}

/// Per-tenant accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Guest-edge requests issued (requeues not double-counted).
    pub requested: u64,
    /// Requests admitted at full width.
    pub full: u64,
    /// Requests admitted degraded (≥ threshold, < full width).
    pub degraded: u64,
    /// Requests that exhausted their requeue budget.
    pub lost: u64,
    /// Times a request went back to the queue.
    pub requeues: u64,
    /// Path shares committed through the ledger.
    pub shares_committed: u64,
    /// Shares the phase engine delivered (clean or corrupted).
    pub shares_delivered: u64,
    /// Shares the phase engine dropped on a faulted link.
    pub shares_lost: u64,
    /// Delivered shares whose payload crossed a corrupting link
    /// (detected and excluded from reconstruction).
    pub shares_corrupted: u64,
    /// Messages delivered only after at least one fault-failed phase —
    /// the retry-with-backoff queue earned them back.
    pub recovered: u64,
    /// Rounds between first issue and eventual delivery, summed over
    /// recovered messages.
    pub recovery_rounds: u64,
}

impl FlowStats {
    /// Messages that reconstruct at the destination.
    pub fn delivered_messages(&self) -> u64 {
        self.full + self.degraded
    }

    /// The tenant's overall SLO grade: the worst thing that happened to
    /// any of its messages.
    pub fn slo_grade(&self) -> SloGrade {
        if self.lost > 0 {
            SloGrade::Lost
        } else if self.recovered > 0 {
            SloGrade::Recovered
        } else if self.degraded > 0 {
            SloGrade::Degraded
        } else {
            SloGrade::Delivered
        }
    }

    /// Mean rounds-to-recover over recovered messages (0 when none
    /// recovered).
    pub fn mean_rounds_to_recover(&self) -> f64 {
        if self.recovered == 0 {
            0.0
        } else {
            self.recovery_rounds as f64 / self.recovered as f64
        }
    }
}

/// Per-tenant SLO grade, worst-case over the tenant's messages. Ordered:
/// `Delivered < Degraded < Recovered < Lost`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloGrade {
    /// Every message arrived at full width on first admission.
    Delivered,
    /// Some message fell to the IDA threshold but still reconstructed.
    Degraded,
    /// Some message needed the retry-with-backoff queue to get through.
    Recovered,
    /// Some message exhausted its retries.
    Lost,
}

/// One tenant's slice of the final report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantReport {
    /// The tenant's id.
    pub id: u32,
    /// The tenant's name.
    pub name: String,
    /// Its accounting.
    pub stats: FlowStats,
}

/// Ledger summary frozen into the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerSummary {
    /// Configured per-link capacity.
    pub capacity: u32,
    /// Distinct host links ever committed.
    pub links_touched: usize,
    /// Total committed path-link slots.
    pub total_slots: u64,
    /// Measured max cumulative congestion on one link.
    pub max_cumulative: u64,
    /// Peak concurrent width on one link.
    pub peak_concurrent: u32,
    /// Distinct links the ledger ever quarantined (0 for plan-free
    /// runs).
    pub quarantined_links: usize,
}

impl LedgerSummary {
    /// The summary of a ledger that never committed anything.
    fn empty(capacity: u32) -> Self {
        LedgerSummary {
            capacity,
            links_touched: 0,
            total_slots: 0,
            max_cumulative: 0,
            peak_concurrent: 0,
            quarantined_links: 0,
        }
    }
}

/// Outcome of a multi-tenant run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Host dimension `n`.
    pub host_dims: u32,
    /// Rounds executed.
    pub rounds: u32,
    /// Per-tenant reports, ascending by id.
    pub tenants: Vec<TenantReport>,
    /// Machine steps summed over every executed phase group.
    pub total_steps: u64,
    /// Ledger accounting.
    pub ledger: LedgerSummary,
    /// Host links the ledger ever quarantined, ascending (empty for
    /// plan-free runs). On static fail-stop plans this is a subset of
    /// the plan's hazard links — pinned by
    /// `bench/tests/tenant_quarantine_conformance.rs`.
    pub quarantined: Vec<u64>,
}

impl EngineReport {
    /// Total messages delivered across tenants.
    pub fn delivered_messages(&self) -> u64 {
        self.tenants.iter().map(|t| t.stats.delivered_messages()).sum()
    }

    /// Jain's fairness index over per-tenant delivered messages:
    /// `(Σx)² / (N · Σx²)` — 1.0 when perfectly even, `1/N` when one
    /// tenant gets everything. Defined as 1.0 for the degenerate all-zero
    /// (and empty) case.
    pub fn jain_fairness(&self) -> f64 {
        let xs: Vec<f64> =
            self.tenants.iter().map(|t| t.stats.delivered_messages() as f64).collect();
        let sum: f64 = xs.iter().sum();
        let sq: f64 = xs.iter().map(|x| x * x).sum();
        if sq == 0.0 {
            return 1.0;
        }
        sum * sum / (xs.len() as f64 * sq)
    }

    /// Delivered messages per machine step over the whole run.
    pub fn aggregate_throughput(&self) -> f64 {
        if self.total_steps == 0 {
            return 0.0;
        }
        self.delivered_messages() as f64 / self.total_steps as f64
    }

    /// Measured max cumulative link congestion.
    pub fn measured_congestion(&self) -> u64 {
        self.ledger.max_cumulative
    }

    /// The averaging lower bound for the demand this run placed on `Q_n`.
    pub fn congestion_bound(&self) -> u64 {
        congestion_lower_bound(self.ledger.total_slots, self.host_dims)
    }

    /// Measured minus bound — how far the run sits above the
    /// perfectly-spread ideal (≥ 0 by construction).
    pub fn congestion_gap(&self) -> u64 {
        self.measured_congestion() - self.congestion_bound()
    }
}

/// A pending request: tenant, guest edge, and its retry state.
#[derive(Debug, Clone, Copy)]
struct Request {
    /// Index into the owner's tenant table: the engine's id-sorted specs
    /// for the reference, the group's `tenants` slots for a pooled run.
    tenant: usize,
    edge: u64,
    /// Requeues so far (admission rejects and fault failures combined).
    age: u32,
    /// First round this request may (re-)enter admission. Admission
    /// rejects retry next round; fault failures back off exponentially.
    ready: u32,
    /// Whether a phase ever fault-failed this request (delivering it now
    /// grades Recovered).
    faulted: bool,
    /// Round the request was first issued (rounds-to-recover baseline).
    issued: u32,
}

/// An admitted request, carrying its committed paths in *host* link
/// currency.
struct Admitted {
    req: Request,
    group: usize,
    paths: Vec<Vec<u64>>,
}

/// The engine, validated and grouped. Build with [`TenantEngine::new`],
/// then [`TenantEngine::run`] / [`TenantEngine::run_planned`], or step a
/// [`TenantRun`] from [`TenantEngine::begin`] /
/// [`TenantEngine::begin_planned`].
pub struct TenantEngine {
    cfg: TenantsConfig,
    specs: Vec<TenantSpec>,
    /// Group index of each tenant (position-aligned with `specs`).
    group_of: Vec<usize>,
    /// Per group: (root subcube dims, host node offset of the root window).
    groups: Vec<(u32, u64)>,
}

impl TenantEngine {
    /// Validates the configuration and computes the window-containment
    /// groups. Specs are sorted by id internally, so the caller's
    /// ordering never affects results.
    pub fn new(cfg: TenantsConfig, specs: &[TenantSpec]) -> Result<Self, String> {
        let n = cfg.host_dims;
        if n == 0 || n > 57 {
            return Err(format!("host_dims {n} outside 1..=57"));
        }
        if cfg.capacity == 0 {
            return Err("capacity must be >= 1".into());
        }
        if let ExecMode::Wormhole { flits } = cfg.exec {
            if flits == 0 {
                return Err("wormhole flits must be >= 1".into());
            }
        }
        let mut specs: Vec<TenantSpec> = specs.to_vec();
        specs.sort_by_key(|s| s.id);
        for w in specs.windows(2) {
            if w[0].id == w[1].id {
                return Err(format!("duplicate tenant id {}", w[0].id));
            }
        }
        for s in &specs {
            let m = s.plan.dims();
            if m > n {
                return Err(format!("tenant {}: plan dims {m} exceed host {n}", s.id));
            }
            if m > ENGINE_MAX_DIMS {
                return Err(format!(
                    "tenant {}: plan dims {m} exceed the {ENGINE_MAX_DIMS}-dimension window cap",
                    s.id
                ));
            }
            if s.plan.num_edges() == 0 {
                return Err(format!("tenant {}: plan has no guest edges", s.id));
            }
            if n - m < 64 && s.window >= (1u64 << (n - m)) {
                return Err(format!("tenant {}: window {} outside 0..2^{}", s.id, s.window, n - m));
            }
            if s.plan.width() == 0 || s.plan.width() > 255 {
                return Err(format!("tenant {}: width outside 1..=255", s.id));
            }
        }

        // Dyadic intervals nest or are disjoint, so sorting by (start,
        // size desc) puts every container immediately before its
        // contents and one sweep assigns containment groups.
        let mut order: Vec<usize> = (0..specs.len()).collect();
        order.sort_by_key(|&i| {
            let m = specs[i].plan.dims();
            (specs[i].window << m, u64::MAX - (1u64 << m))
        });
        let mut groups: Vec<(u32, u64)> = Vec::new();
        let mut group_of = vec![0usize; specs.len()];
        let mut root_end = 0u64;
        for &i in &order {
            let m = specs[i].plan.dims();
            let start = specs[i].window << m;
            if groups.is_empty() || start >= root_end {
                groups.push((m, start));
                root_end = start + (1u64 << m);
            }
            group_of[i] = groups.len() - 1;
        }
        Ok(TenantEngine { cfg, specs, group_of, groups })
    }

    /// The specs in canonical (id) order.
    pub fn specs(&self) -> &[TenantSpec] {
        &self.specs
    }

    /// Number of window-containment groups (phases execute per group).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Runs the engine without instrumentation. Groups execute on the
    /// pooled simulators and, when there is more than one, in parallel —
    /// the report is byte-identical at any thread count (see
    /// [`TenantRun`]).
    pub fn run(&self) -> EngineReport {
        self.begin().run_to_end()
    }

    /// Begins a pooled plain run in round-stepping form: call
    /// [`TenantRun::step_round`] exactly [`TenantsConfig::rounds`] times,
    /// then [`TenantRun::finish`]. `run()` is this loop; the stepping form
    /// exists so the steady-state zero-allocation guarantee can be pinned
    /// per round (`bench/tests/alloc_zero.rs`), and so a [`Recorder`] can
    /// observe every round ([`TenantRun::step_round_recorded`]).
    pub fn begin(&self) -> TenantRun<'_> {
        TenantRun::new(self, None)
    }

    /// Begins a pooled plan-aware run in round-stepping form (see
    /// [`TenantEngine::begin`]).
    pub fn begin_planned<'a>(
        &'a self,
        plan: &'a TenantFaultPlan,
        routing: FaultRouting,
    ) -> TenantRun<'a> {
        TenantRun::new(self, Some((plan, routing)))
    }

    /// Reference implementation of [`TenantEngine::run`]: the original
    /// per-round-allocating engine (a fresh `PacketSim`/`WormholeSim` per
    /// group per round, serial group order). Kept as the executable spec
    /// the pooled engine is pinned bit-identical against, and as the slow
    /// side of the perf gate's pooled-speedup floor.
    pub fn run_reference(&self) -> EngineReport {
        self.run_reference_impl(None, &mut NopRecorder)
    }

    /// Reference implementation of [`TenantEngine::run_planned`] (see
    /// [`TenantEngine::run_reference`]).
    pub fn run_planned_reference(
        &self,
        plan: &TenantFaultPlan,
        routing: FaultRouting,
    ) -> EngineReport {
        self.run_reference_impl(Some((plan, routing)), &mut NopRecorder)
    }

    /// Runs the engine under an adversarial [`TenantFaultPlan`]. Phases
    /// execute on the plan-aware engines; the ledger learns link health
    /// from per-phase ACK/NACK outcomes and quarantines suspects
    /// ([`FaultRouting::Learned`]), path selection routes around them
    /// degrading gracefully to the IDA threshold, and fault-failed
    /// requests retry with exponential backoff instead of being dropped.
    ///
    /// With an **empty** plan the report is byte-identical to
    /// [`TenantEngine::run`]'s.
    pub fn run_planned(&self, plan: &TenantFaultPlan, routing: FaultRouting) -> EngineReport {
        self.begin_planned(plan, routing).run_to_end()
    }

    fn run_reference_impl<R: Recorder>(
        &self,
        fault: Option<(&TenantFaultPlan, FaultRouting)>,
        rec: &mut R,
    ) -> EngineReport {
        let cfg = &self.cfg;
        let mut ledger = LinkLedger::new(cfg.capacity);
        let mut stats = vec![FlowStats::default(); self.specs.len()];
        // Per-tenant request streams keyed by id — draws are identical
        // whatever order the tenants were listed or admitted in.
        let mut rngs: Vec<ChaCha8Rng> =
            self.specs.iter().map(|s| tenant_rng(cfg.seed, s.id)).collect();
        let mut backlog: Vec<Request> = Vec::new();
        let mut total_steps = 0u64;

        for round in 0..cfg.rounds {
            // Backlog entries whose backoff has expired first (stable
            // order), then this round's fresh requests in canonical
            // tenant order. Plan-free runs requeue with `ready = round +
            // 1` only, so every backlog entry pops — identical to the
            // pre-fault engine.
            let mut requests: Vec<Request> = Vec::new();
            let mut waiting: Vec<Request> = Vec::new();
            for r in std::mem::take(&mut backlog) {
                if r.ready <= round {
                    requests.push(r);
                } else {
                    waiting.push(r);
                }
            }
            backlog = waiting;
            for (t, spec) in self.specs.iter().enumerate() {
                let edges = spec.plan.num_edges();
                for _ in 0..cfg.requests_per_round {
                    let edge = draw_edge(&mut rngs[t], edges);
                    stats[t].requested += 1;
                    requests.push(Request {
                        tenant: t,
                        edge,
                        age: 0,
                        ready: round,
                        faulted: false,
                        issued: round,
                    });
                }
            }

            // Admission in request order: congestion-aware subset
            // selection through the ledger, steering around quarantined
            // (or, for the omniscient baseline, hazard) links.
            let mut admitted: Vec<Admitted> = Vec::new();
            for req in requests {
                let t = req.tenant;
                let spec = &self.specs[t];
                let width = spec.plan.width();
                let threshold = width.div_ceil(2);
                let mut paths: Vec<Vec<u64>> = Vec::with_capacity(width as usize);
                spec.plan.for_each_path(req.edge, &mut |p| {
                    paths.push(lift_path(p, spec.plan.dims(), spec.window, self.cfg.host_dims));
                });
                // Health-aware re-routing: paths through suspect links
                // are not candidates at all — the bundle degrades
                // gracefully toward the IDA threshold instead of wasting
                // commits on links known to eat shares.
                let suspect = |links: &[u64]| -> bool {
                    match fault {
                        None => false,
                        Some((_, FaultRouting::Learned)) => {
                            links.iter().any(|&l| ledger.is_quarantined(l, round))
                        }
                        Some((plan, FaultRouting::Omniscient)) => {
                            links.iter().any(|&l| plan.is_hazard(l))
                        }
                    }
                };
                // Least-loaded-first: order candidate paths by the
                // hottest link each would cross, keeping bundle order as
                // the tiebreak, then take those that still fit.
                let mut order: Vec<usize> =
                    (0..paths.len()).filter(|&i| !suspect(&paths[i])).collect();
                order.sort_by_key(|&i| {
                    (paths[i].iter().map(|&l| ledger.load(l)).max().unwrap_or(0), i)
                });
                let chosen: Vec<usize> = order
                    .into_iter()
                    .filter(|&i| ledger.fits(&paths[i]))
                    .take(width as usize)
                    .collect();
                if (chosen.len() as u32) < threshold {
                    if req.age >= cfg.max_requeues {
                        stats[t].lost += 1;
                    } else {
                        stats[t].requeues += 1;
                        backlog.push(Request { age: req.age + 1, ready: round + 1, ..req });
                    }
                    continue;
                }
                let mut committed: Vec<Vec<u64>> = Vec::with_capacity(chosen.len());
                for i in chosen {
                    ledger.commit(&paths[i]);
                    committed.push(std::mem::take(&mut paths[i]));
                }
                stats[t].shares_committed += committed.len() as u64;
                admitted.push(Admitted { req, group: self.group_of[t], paths: committed });
            }

            // One phase per window group, executed exactly on the root
            // subcube (disjoint groups cannot interact, so this is the
            // shared machine's behavior, not an approximation). Under a
            // plan the group projects the sparse host faults into a
            // dense subcube FaultPlan and runs the plan-aware engines;
            // per-share outcomes feed the ledger's ACK/NACK health
            // learning.
            let mut delivered_shares = vec![0u64; admitted.len()];
            let mut corrupted_shares = vec![0u64; admitted.len()];
            for (g, &(root_dims, root_base)) in self.groups.iter().enumerate() {
                let batch_idx: Vec<usize> =
                    (0..admitted.len()).filter(|&i| admitted[i].group == g).collect();
                if batch_idx.is_empty() {
                    continue;
                }
                let batch: Vec<&Admitted> = batch_idx.iter().map(|&i| &admitted[i]).collect();
                let (steps, outcomes) = run_group_reference(
                    &batch,
                    fault.map(|(plan, _)| (plan, round)),
                    root_dims,
                    root_base,
                    self.cfg.host_dims,
                    cfg.exec,
                    rec,
                );
                total_steps += steps;
                match fault {
                    None => {
                        for (&i, outs) in batch_idx.iter().zip(&outcomes) {
                            debug_assert!(outs.iter().all(|o| o.delivered && !o.corrupted));
                            delivered_shares[i] = outs.len() as u64;
                        }
                    }
                    Some(_) => {
                        for (&i, outs) in batch_idx.iter().zip(outcomes) {
                            for (p, o) in admitted[i].paths.iter().zip(&outs) {
                                if o.delivered {
                                    delivered_shares[i] += 1;
                                    if o.corrupted {
                                        corrupted_shares[i] += 1;
                                        if let Some(b) = o.blame {
                                            ledger.nack(b, round);
                                        }
                                    } else {
                                        // The whole path carried a clean
                                        // share: every hop is healthy.
                                        for &l in p {
                                            ledger.ack(l);
                                        }
                                    }
                                } else if let Some(b) = o.blame {
                                    ledger.nack(b, round);
                                }
                            }
                        }
                    }
                }
            }

            // Post-phase SLO grading. Plan-free runs grade on committed
            // width (their engines deliver every committed share — the
            // run_group debug_asserts pin it); plan runs grade on shares
            // that arrived *clean*, refund fault-failed requests'
            // phantom congestion, and requeue them with backoff.
            for (i, a) in admitted.iter().enumerate() {
                let t = a.req.tenant;
                let width = self.specs[t].plan.width();
                let threshold = u64::from(width.div_ceil(2));
                let committed = a.paths.len() as u64;
                stats[t].shares_delivered += delivered_shares[i];
                match fault {
                    None => {
                        if committed as u32 == width {
                            stats[t].full += 1;
                        } else {
                            stats[t].degraded += 1;
                        }
                    }
                    Some(_) => {
                        let clean = delivered_shares[i] - corrupted_shares[i];
                        stats[t].shares_lost += committed - delivered_shares[i];
                        stats[t].shares_corrupted += corrupted_shares[i];
                        if clean >= threshold {
                            if clean == u64::from(width) {
                                stats[t].full += 1;
                            } else {
                                stats[t].degraded += 1;
                            }
                            if a.req.faulted {
                                stats[t].recovered += 1;
                                stats[t].recovery_rounds += u64::from(round - a.req.issued);
                            }
                        } else {
                            // Below the IDA threshold: the message did
                            // not reconstruct. Refund its congestion and
                            // retry with exponential backoff.
                            for p in &a.paths {
                                ledger.refund(p);
                            }
                            if a.req.age >= cfg.max_requeues {
                                stats[t].lost += 1;
                            } else {
                                stats[t].requeues += 1;
                                let delay = 1u32 << a.req.age.min(BACKOFF_SHIFT_CAP);
                                backlog.push(Request {
                                    age: a.req.age + 1,
                                    ready: round + delay,
                                    faulted: true,
                                    ..a.req
                                });
                            }
                        }
                    }
                }
            }

            // Requests complete within their round: free the width.
            for a in &admitted {
                for p in &a.paths {
                    ledger.release(p);
                }
            }
        }

        // Drain the final backlog as lost — the run is over (backed-off
        // retries that never got another round count too).
        for req in backlog {
            stats[req.tenant].lost += 1;
        }

        self.report(cfg.rounds, stats, total_steps, |summary, quarantined| {
            ledger.fold_into(summary, quarantined)
        })
    }

    /// Freezes a run into its report. `fold` folds the run's ledgers —
    /// the pooled run's shards, one per window group, or the reference's
    /// single global ledger — into the summary and the quarantine union
    /// (see `LedgerTotals::fold_into`).
    fn report(
        &self,
        rounds: u32,
        stats: Vec<FlowStats>,
        total_steps: u64,
        fold: impl FnOnce(&mut LedgerSummary, &mut Vec<u64>),
    ) -> EngineReport {
        let mut ledger = LedgerSummary::empty(self.cfg.capacity);
        let mut quarantined = Vec::new();
        fold(&mut ledger, &mut quarantined);
        quarantined.sort_unstable();
        ledger.quarantined_links = quarantined.len();
        EngineReport {
            host_dims: self.cfg.host_dims,
            rounds,
            tenants: self
                .specs
                .iter()
                .zip(stats)
                .map(|(s, st)| TenantReport { id: s.id, name: s.name.clone(), stats: st })
                .collect(),
            total_steps,
            ledger,
            quarantined,
        }
    }
}

/// Uniform edge draw via rejection sampling on the raw word stream —
/// avoids any dependence on `random_range`'s internals so the request
/// streams stay pinned by the determinism tests.
fn draw_edge(rng: &mut ChaCha8Rng, edges: u64) -> u64 {
    use rand::RngCore;
    debug_assert!(edges > 0);
    if edges.is_power_of_two() {
        return rng.next_u64() & (edges - 1);
    }
    let zone = u64::MAX - (u64::MAX % edges);
    loop {
        let x = rng.next_u64();
        if x < zone {
            return x % edges;
        }
    }
}

/// Lifts a path of dense `Q_m` link indices into host `Q_n` currency:
/// subcube link `(base, d)` becomes host link `((window << m) | base, d)`.
pub(crate) fn lift_path(links: &[u64], m: u32, window: u64, n: u32) -> Vec<u64> {
    links
        .iter()
        .map(|&l| {
            let d = l % u64::from(m);
            let base = l / u64::from(m);
            ((window << m) | base) * u64::from(n) + d
        })
        .collect()
}

/// Endpoints of a dense host link index.
#[inline]
fn link_endpoints(n: u32, link: u64) -> (Node, Node) {
    let d = (link % u64::from(n)) as u32;
    let base = link / u64::from(n);
    (base, base | (1u64 << d))
}

/// Reconstructs the node walk of a path given as undirected host links,
/// relabeled into the root window's local coordinates. For multi-link
/// paths the start is the endpoint of the first link not shared with the
/// second; a single link is walked base → base|bit (orientation is
/// irrelevant to one packet on one link).
fn local_walk(path: &[u64], n: u32, root_dims: u32, root_base: u64) -> Vec<Node> {
    debug_assert!(!path.is_empty());
    let mask = (1u64 << root_dims) - 1;
    let (a0, b0) = link_endpoints(n, path[0]);
    let mut at = if path.len() == 1 {
        a0
    } else {
        let (a1, b1) = link_endpoints(n, path[1]);
        if a0 == a1 || a0 == b1 {
            b0
        } else {
            a0
        }
    };
    debug_assert_eq!(at & !mask, root_base, "path escapes its window group");
    let mut walk = Vec::with_capacity(path.len() + 1);
    walk.push(at & mask);
    for &l in path {
        let (a, b) = link_endpoints(n, l);
        at = if at == a { b } else { a };
        walk.push(at & mask);
    }
    walk
}

/// What one committed share experienced during its phase.
#[derive(Debug, Clone, Copy)]
struct PathOutcome {
    /// The share arrived (possibly corrupted).
    delivered: bool,
    /// The share arrived but crossed a corrupting link.
    corrupted: bool,
    /// The link to NACK: where the share was dropped, or the first
    /// corrupting link it crossed. `None` for a clean delivery. In the
    /// run's link currency: a host link id for the reference, a compact
    /// index ([`RootFrame::compact`]) for a pooled group.
    blame: Option<u64>,
}

/// The outcome every share gets on a plan-free run.
const CLEAN_DELIVERY: PathOutcome = PathOutcome { delivered: true, corrupted: false, blame: None };

/// The analytic outcome of one share under the structural model: dead at
/// the first down link, else flagged by the first corrupting link, else
/// clean. `host` maps the path's links to the host link ids the plan
/// keys on; the blame stays in the path's own currency.
fn structural_outcome<L: Copy + Into<u64>>(
    path: &[L],
    host: impl Fn(L) -> u64,
    fault: Option<(&TenantFaultPlan, u32)>,
) -> PathOutcome {
    let Some((plan, round)) = fault else { return CLEAN_DELIVERY };
    let down = path.iter().copied().find(|&l| plan.is_down(host(l), round));
    let corrupting = path.iter().copied().find(|&l| plan.is_corrupting(host(l)));
    match down {
        Some(l) => PathOutcome { delivered: false, corrupted: false, blame: Some(l.into()) },
        None => PathOutcome {
            delivered: true,
            corrupted: corrupting.is_some(),
            blame: corrupting.map(Into::into),
        },
    }
}

/// Local `Q_m` directed edge of a host link (the link currency keeps the
/// canonical base, so masking to the window's coordinates suffices).
#[inline]
fn local_dir_edge(link: u64, n: u32, mask: u64) -> DirEdge {
    let d = (link % u64::from(n)) as u32;
    let base = link / u64::from(n);
    DirEdge::new(base & mask, d)
}

/// Host link of a local directed-edge index reported by a plan-aware
/// engine (inverse of [`local_dir_edge`] up to orientation).
#[inline]
fn host_link_of(cube: &Hypercube, idx: u32, n: u32, root_base: u64) -> u64 {
    let e = cube.dir_edge_from_index(idx as usize).undirected();
    (root_base | e.from) * u64::from(n) + u64::from(e.dim)
}

/// Projects the sparse host-level plan onto the links this batch actually
/// crosses, as a dense [`FaultPlan`] over the group's root subcube. Links
/// down at `round` are cut from machine step 0 (round granularity);
/// corrupting links corrupt.
fn project_group_plan(
    batch: &[&Admitted],
    round: u32,
    plan: &TenantFaultPlan,
    cube: &Hypercube,
    n: u32,
) -> FaultPlan {
    let mask = cube.num_nodes() - 1;
    let mut dense = FaultPlan::none(cube);
    for a in batch {
        for p in &a.paths {
            for &l in p {
                if plan.is_down(l, round) {
                    dense.cut_link(cube, local_dir_edge(l, n, mask));
                }
                if plan.is_corrupting(l) {
                    dense.corrupt_link(cube, local_dir_edge(l, n, mask));
                }
            }
        }
    }
    dense
}

/// Executes one window group's phase — the reference per-round-allocating
/// path deduped over plain and plan-aware runs — and returns (machine
/// steps, per-admitted-request share outcomes in batch and path order).
/// With `fault == None` the plain engines run and every outcome is a
/// clean delivery.
fn run_group_reference<R: Recorder>(
    batch: &[&Admitted],
    fault: Option<(&TenantFaultPlan, u32)>,
    root_dims: u32,
    root_base: u64,
    n: u32,
    exec: ExecMode,
    rec: &mut R,
) -> (u64, Vec<Vec<PathOutcome>>) {
    match exec {
        ExecMode::Structural => {
            // Serialization bound: the hottest link forwards one share
            // per step, each share crosses ≤ max path length links.
            // Committed load is committed load whether or not shares
            // then die, so an empty plan stays bit-identical; outcomes
            // are graded analytically per path.
            let mut load: LinkMap<u64> = LinkMap::default();
            let mut longest = 0u64;
            for a in batch {
                for p in &a.paths {
                    longest = longest.max(p.len() as u64);
                    for &l in p {
                        *load.entry(l).or_insert(0) += 1;
                    }
                }
            }
            let hottest = load.values().copied().max().unwrap_or(0);
            let steps = hottest.saturating_add(longest.saturating_sub(1));
            let outcomes = batch
                .iter()
                .map(|a| a.paths.iter().map(|p| structural_outcome(p, |l| l, fault)).collect())
                .collect();
            (steps, outcomes)
        }
        ExecMode::Packet => {
            let cube = Hypercube::new(root_dims);
            let mut sim = PacketSim::new(cube);
            for a in batch.iter() {
                for p in &a.paths {
                    sim.add_flow(&local_walk(p, n, root_dims, root_base), 1);
                }
            }
            let flows = sim.num_flows() as u64;
            // Work-conserving machine: ≤ 3 hops per share, so hops+shares
            // steps always finish the phase.
            let max_steps = flows * 4 + 4;
            match fault {
                None => {
                    let report = sim.run(max_steps, rec);
                    debug_assert_eq!(report.delivered, flows);
                    let outcomes = batch
                        .iter()
                        .map(|a| a.paths.iter().map(|_| CLEAN_DELIVERY).collect())
                        .collect();
                    (report.makespan, outcomes)
                }
                Some((plan, round)) => {
                    let dense = project_group_plan(batch, round, plan, &cube, n);
                    let pr = sim.run_planned(max_steps, &dense, rec);
                    let mut f = 0usize;
                    let outcomes = batch
                        .iter()
                        .map(|a| {
                            a.paths
                                .iter()
                                .map(|_| {
                                    let delivered = sim.flow_delivered()[f] == 1;
                                    let corrupted = sim.flow_corrupted()[f] == 1;
                                    let blame = if !delivered {
                                        Some(host_link_of(
                                            &cube,
                                            sim.flow_dropped_at()[f],
                                            n,
                                            root_base,
                                        ))
                                    } else if corrupted {
                                        Some(host_link_of(
                                            &cube,
                                            sim.flow_corrupted_at()[f],
                                            n,
                                            root_base,
                                        ))
                                    } else {
                                        None
                                    };
                                    f += 1;
                                    PathOutcome { delivered, corrupted, blame }
                                })
                                .collect()
                        })
                        .collect();
                    (pr.report.makespan, outcomes)
                }
            }
        }
        ExecMode::Wormhole { flits } => {
            let cube = Hypercube::new(root_dims);
            let mut sim = WormholeSim::new(cube);
            for a in batch.iter() {
                for p in &a.paths {
                    sim.add_worm(&local_walk(p, n, root_dims, root_base), flits);
                }
            }
            let max_steps = sim.num_worms() as u64 * (flits + 3) + flits + 4;
            match fault {
                None => {
                    let makespan = sim.run(max_steps, rec);
                    let outcomes = batch
                        .iter()
                        .map(|a| a.paths.iter().map(|_| CLEAN_DELIVERY).collect())
                        .collect();
                    (makespan, outcomes)
                }
                Some((plan, round)) => {
                    let dense = project_group_plan(batch, round, plan, &cube, n);
                    let makespan = sim.run_planned(max_steps, &dense, rec);
                    let mut w = 0usize;
                    let outcomes = batch
                        .iter()
                        .map(|a| {
                            a.paths
                                .iter()
                                .map(|_| {
                                    let delivered = !sim.lost()[w];
                                    let corrupted = delivered && sim.corrupted()[w];
                                    let blame = if !delivered {
                                        Some(host_link_of(&cube, sim.dropped_at()[w], n, root_base))
                                    } else if corrupted {
                                        Some(host_link_of(
                                            &cube,
                                            sim.corrupted_at()[w],
                                            n,
                                            root_base,
                                        ))
                                    } else {
                                        None
                                    };
                                    w += 1;
                                    PathOutcome { delivered, corrupted, blame }
                                })
                                .collect()
                        })
                        .collect();
                    (makespan, outcomes)
                }
            }
        }
    }
}

/// A window group's root subcube as a frame of reference. A pooled round
/// names links in two local currencies: directed hop indices
/// ([`Hypercube::dir_edge_index`] over the root subcube), which the
/// engines load and report, and compact undirected indices, which key the
/// ledger shard. Host link ids (`base · n + d`) appear only where a run
/// meets the host: fault-plan projection, the omniscient hazard test and
/// the report.
#[derive(Clone, Copy)]
struct RootFrame {
    dims: u32,
    /// Host node of the root subcube's local node 0.
    base: u64,
}

impl RootFrame {
    /// Undirected links of the root subcube: the ledger shard's length.
    fn num_links(self) -> usize {
        (self.dims as usize) << self.dims.saturating_sub(1)
    }

    /// Compact index of the undirected local link `{base, base ⊕ 2^d}`
    /// (`base` with bit `d` clear): `base` with bit `d` squeezed out,
    /// times `dims`, plus `d` — dense in `0..num_links()`.
    #[inline]
    fn compact(self, base: u64, d: u32) -> u32 {
        let squeezed = ((base >> (d + 1)) << d) | (base & ((1u64 << d) - 1));
        (squeezed * u64::from(self.dims) + u64::from(d)) as u32
    }

    /// Compact index of the link a directed local hop crosses.
    #[inline]
    fn compact_of_hop(self, hop: u32) -> u32 {
        let (from, d) = (u64::from(hop / self.dims), hop % self.dims);
        self.compact(from & !(1u64 << d), d)
    }

    /// Host link id of compact index `c` on an `n`-dimensional host.
    fn host_link(self, c: u32, n: u32) -> u64 {
        let (squeezed, d) = (u64::from(c / self.dims), c % self.dims);
        let base = ((squeezed >> d) << (d + 1)) | (squeezed & ((1u64 << d) - 1));
        (self.base | base) * u64::from(n) + u64::from(d)
    }
}

/// [`BundleTable::bundle_at`] entry of a bundle not built yet.
const UNBUILT: u64 = u64::MAX;

/// One tenant's bundles in its window group's local currencies, memoized
/// for the run: a bundle is converted from the implicit plan on its first
/// request and read as slices ever after. Every path is held twice, as
/// directed hops (what the engines load) and as compact links (what the
/// ledger shard keys on); path `p` is `path_off[p]..path_off[p + 1]` of
/// both hop arrays.
struct BundleTable {
    /// Per guest edge: its bundle's `first path << 32 | path count`, or
    /// [`UNBUILT`].
    bundle_at: Vec<u64>,
    path_off: Vec<u32>,
    hop_dir: Vec<u32>,
    hop_und: Vec<u32>,
}

impl BundleTable {
    /// An empty table with room for `edges` bundles of `width` paths of
    /// `longest` hops, so the rounds that fill it do not grow it step by
    /// step.
    fn with_capacity(edges: u64, width: usize, longest: usize) -> Self {
        let (edges, paths) = (edges as usize, edges as usize * width);
        let mut path_off = Vec::with_capacity(paths + 1);
        path_off.push(0);
        BundleTable {
            bundle_at: vec![UNBUILT; edges],
            path_off,
            hop_dir: Vec::with_capacity(paths * longest),
            hop_und: Vec::with_capacity(paths * longest),
        }
    }

    /// Table indices of the paths of guest edge `edge`'s bundle, in bundle
    /// order, converting the bundle from `spec`'s plan on its first
    /// request.
    fn bundle(&mut self, spec: &TenantSpec, frame: RootFrame, edge: u64) -> Range<usize> {
        let mut at = self.bundle_at[edge as usize];
        if at == UNBUILT {
            at = self.fill(spec, frame, edge);
            self.bundle_at[edge as usize] = at;
        }
        let first = (at >> 32) as usize;
        first..first + (at as u32) as usize
    }

    /// Appends bundle `edge`'s paths and returns its `bundle_at` entry.
    /// Plan links are undirected, so each path is oriented by endpoint
    /// chaining: it starts at the endpoint of its first link not shared
    /// with its second, and a single link is walked base → base|bit. The
    /// hops are exactly those [`PacketSim::add_flow`] derives from the
    /// reference's node walk of the lifted path.
    fn fill(&mut self, spec: &TenantSpec, frame: RootFrame, edge: u64) -> u64 {
        let m = u64::from(spec.plan.dims());
        // The tenant's window inside the root subcube.
        let off = (spec.window << m) & ((1u64 << frame.dims) - 1);
        let ends = |l: u64| (l / m, (l / m) | (1u64 << (l % m)));
        let first = self.path_off.len() - 1;
        spec.plan.for_each_path(edge, &mut |p| {
            let (a0, b0) = ends(p[0]);
            let mut at = match p.get(1) {
                Some(&l1) if a0 == ends(l1).0 || a0 == ends(l1).1 => b0,
                _ => a0,
            };
            for &l in p {
                let (base, d) = (l / m, (l % m) as u32);
                debug_assert_eq!(at & !(1u64 << d), base, "bundle path is not a walk");
                self.hop_dir.push(((off | at) * u64::from(frame.dims) + u64::from(d)) as u32);
                self.hop_und.push(frame.compact(off | base, d));
                at ^= 1u64 << d;
            }
            self.path_off.push(self.hop_dir.len() as u32);
        });
        ((first as u64) << 32) | (self.path_off.len() - 1 - first) as u64
    }

    /// Path `p`'s directed local hops.
    #[inline]
    fn hops(&self, p: usize) -> &[u32] {
        &self.hop_dir[self.path_off[p] as usize..self.path_off[p + 1] as usize]
    }

    /// Path `p`'s compact links.
    #[inline]
    fn links(&self, p: usize) -> &[u32] {
        &self.hop_und[self.path_off[p] as usize..self.path_off[p + 1] as usize]
    }
}

/// A window group's ledger shard in a pooled run: one [`LinkState`] per
/// undirected link of the group's root subcube, indexed by the compact
/// link index of [`RootFrame::compact`] — `root_dims · 2^(root_dims − 1)`
/// slots, 1,024 for a `Q_8` window. Window groups cover disjoint root
/// subcubes, so the shards cover disjoint host links and fold into one
/// report exactly like the reference's single global ledger.
#[derive(Default)]
struct LinkShard {
    links: Vec<LinkState>,
    totals: LedgerTotals,
}

impl LinkShard {
    /// A zeroed shard over every link of `frame`'s root subcube.
    fn new(frame: RootFrame) -> Self {
        LinkShard {
            links: vec![LinkState::default(); frame.num_links()],
            totals: LedgerTotals::default(),
        }
    }

    /// Commits one path (capacity checked by the caller) and returns the
    /// widest link's new width.
    fn commit(&mut self, links: &[u32]) -> u32 {
        let mut widest = 0;
        for &c in links {
            widest = widest.max(self.links[c as usize].commit(&mut self.totals));
        }
        widest
    }

    /// Releases one committed path.
    fn release(&mut self, links: &[u32]) {
        for &c in links {
            self.links[c as usize].release();
        }
    }

    /// Refunds one released path's cumulative slots (see
    /// [`LinkLedger::refund`]).
    fn refund(&mut self, links: &[u32]) {
        for &c in links {
            self.links[c as usize].refund(&mut self.totals);
        }
    }

    /// Folds this shard into a report summary, naming its links by host
    /// link id (see `LedgerTotals::fold_into`).
    fn fold_into(
        &self,
        frame: RootFrame,
        n: u32,
        summary: &mut LedgerSummary,
        quarantined: &mut Vec<u64>,
    ) {
        let links = self.links.iter().enumerate();
        self.totals.fold_into(links, |c| frame.host_link(c as u32, n), summary, quarantined);
    }
}

/// An admitted request in a group's round arena: its committed paths are
/// the table paths `adm_paths[first_path..first_path + num_paths]` of its
/// tenant, in chosen (least-loaded-first) order.
#[derive(Debug, Clone, Copy)]
struct AdmHeader {
    req: Request,
    first_path: u32,
    num_paths: u32,
}

impl AdmHeader {
    fn paths(&self) -> Range<usize> {
        self.first_path as usize..(self.first_path + self.num_paths) as usize
    }
}

/// The directed hops of every path committed this round, in admission ×
/// chosen order — the order the engines load them in.
fn round_hops<'a>(
    admitted: &'a [AdmHeader],
    adm_paths: &'a [u32],
    tables: &'a [BundleTable],
) -> impl Iterator<Item = &'a [u32]> + 'a {
    admitted.iter().flat_map(move |h| {
        let table = &tables[h.req.tenant];
        adm_paths[h.paths()].iter().map(move |&p| table.hops(p as usize))
    })
}

/// One window group's shard of a pooled run. Window groups live on
/// disjoint root subcubes, so their host-link sets are disjoint and
/// everything a round does to one group — request draws, ledger
/// admission, the machine phase, ACK/NACK learning, grading and release —
/// reads and writes only this struct (DESIGN §6 item 18). That is what
/// lets [`TenantRun::step_round`] run whole rounds of different groups on
/// different threads.
///
/// It holds the root subcube's persistent machine simulator (its
/// [`Hypercube`] is built once, not per round), the memoized dense
/// fault-plan projection, its tenants' request streams, stats, backlog
/// and bundle tables, the group's dense ledger shard, and every per-round
/// scratch buffer. A round reads links only in the root subcube's local
/// currencies ([`RootFrame`]).
struct GroupArena {
    frame: RootFrame,
    packet: Option<PacketSim>,
    worm: Option<WormholeSim>,
    /// Memoized dense projection of the run's [`TenantFaultPlan`] onto
    /// this group's root subcube: corrupting bits are static and set
    /// once here; only the round-dependent cut bits flip between rounds
    /// (`sync_dense_cuts` over `group_faults`). Cut or corrupting bits
    /// on links no batch path crosses are machine-neutral, so marking
    /// the whole window's hazards keeps runs bit-identical to the
    /// reference's per-batch projection.
    dense: Option<FaultPlan>,
    /// Every plan-hazard host link inside this window with its local
    /// directed edge — the only bits of `dense` that can change.
    group_faults: Vec<(u64, DirEdge)>,
    /// The group's tenants in id order; [`Request::tenant`] indexes this
    /// list.
    tenants: Vec<TenantSlot>,
    /// Each tenant's bundle table, index-aligned with `tenants`. Built
    /// at the first round, like the shard.
    tables: Vec<BundleTable>,
    shard: LinkShard,
    backlog: Vec<Request>,
    total_steps: u64,
    // Round scratch, reused across rounds.
    requests: Vec<Request>,
    waiting: Vec<Request>,
    admitted: Vec<AdmHeader>,
    /// Table path index of every path committed this round, in admission
    /// × chosen order.
    adm_paths: Vec<u32>,
    /// Admission keys of one request's candidate paths:
    /// `key << 32 | table path index`, where `key` is the load of the
    /// path's hottest link, or `u32::MAX` if the path crosses a suspect
    /// link.
    keys: Vec<u64>,
    /// Flat per-share outcomes in admission × path order. Planned rounds
    /// only: plain rounds deliver every share (debug-asserted) and leave
    /// this empty.
    outcomes: Vec<PathOutcome>,
    /// Widest committed link and longest admitted path of this round —
    /// the structural-mode serialization bound's inputs. Every earlier
    /// round's width has been released by the time a round admits, so
    /// the ledger's committed width is exactly this round's link load.
    round_widest: u32,
    round_longest: usize,
}

/// Flips the memoized projection's cut bits to `round`'s state: a hazard
/// link is cut exactly while [`TenantFaultPlan::is_down`] says so.
fn sync_dense_cuts(
    dense: &mut FaultPlan,
    group_faults: &[(u64, DirEdge)],
    cube: &Hypercube,
    plan: &TenantFaultPlan,
    round: u32,
) {
    for &(l, e) in group_faults {
        if plan.is_down(l, round) {
            dense.cut_link(cube, e);
        } else {
            dense.uncut_link(cube, e);
        }
    }
}

/// One tenant of a [`GroupArena`]: its spec, request stream and stats.
struct TenantSlot {
    /// Index into the engine's id-sorted specs.
    spec: usize,
    rng: ChaCha8Rng,
    stats: FlowStats,
}

/// Tenant `id`'s request stream — keyed by id, so draws are identical
/// whatever order the tenants were listed or admitted in.
fn tenant_rng(seed: u64, id: u32) -> ChaCha8Rng {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    r.set_stream(u64::from(id) + 1);
    r
}

impl GroupArena {
    fn new(frame: RootFrame, cfg: &TenantsConfig, plan: Option<&TenantFaultPlan>) -> Self {
        let host_dims = cfg.host_dims;
        let packet = matches!(cfg.exec, ExecMode::Packet)
            .then(|| PacketSim::new(Hypercube::new(frame.dims)));
        let worm = matches!(cfg.exec, ExecMode::Wormhole { .. })
            .then(|| WormholeSim::new(Hypercube::new(frame.dims)));
        let (dense, group_faults) = match (plan, cfg.exec) {
            (Some(plan), ExecMode::Packet | ExecMode::Wormhole { .. }) => {
                let cube = Hypercube::new(frame.dims);
                let mask = cube.num_nodes() - 1;
                let mut dense = FaultPlan::none(&cube);
                let mut faults = Vec::new();
                for &l in plan.cuts.keys().chain(plan.outages.keys()).chain(plan.corrupt.iter()) {
                    let d = (l % u64::from(host_dims)) as u32;
                    let base = l / u64::from(host_dims);
                    if d < frame.dims && base & !mask == frame.base {
                        let e = DirEdge::new(base & mask, d);
                        if plan.is_corrupting(l) {
                            dense.corrupt_link(&cube, e);
                        }
                        faults.push((l, e));
                    }
                }
                (Some(dense), faults)
            }
            _ => (None, Vec::new()),
        };
        GroupArena {
            frame,
            packet,
            worm,
            dense,
            group_faults,
            tenants: Vec::new(),
            tables: Vec::new(),
            shard: LinkShard::default(),
            backlog: Vec::new(),
            total_steps: 0,
            requests: Vec::new(),
            waiting: Vec::new(),
            admitted: Vec::new(),
            adm_paths: Vec::new(),
            keys: Vec::new(),
            outcomes: Vec::new(),
            round_widest: 0,
            round_longest: 0,
        }
    }

    /// Builds the group's bundle tables and dense ledger shard, and sizes
    /// the round scratch and the machine simulator for one round of the
    /// roster: its fresh requests, their full-width bundles (path lengths
    /// taken from each plan's first bundle) and, when `planned`, their
    /// share outcomes. Each table gets room for its tenant's every bundle
    /// at that path length, but fills bundle by bundle as they are first
    /// requested. Done once, at the first round rather than in `begin`, it
    /// keeps `begin` cheap and spares a fresh run the step-by-step growth;
    /// a buffer that needs more still grows.
    fn reserve(&mut self, engine: &TenantEngine, planned: bool) {
        let per_tenant = engine.cfg.requests_per_round as usize;
        let (mut paths, mut slots, mut width) = (0, 0, 0);
        self.tables.reserve_exact(self.tenants.len());
        for slot in &self.tenants {
            let plan = &engine.specs[slot.spec].plan;
            let mut len = 0;
            plan.for_each_path(0, &mut |p| len = len.max(p.len()));
            let w = plan.width() as usize;
            paths += per_tenant * w;
            slots += per_tenant * w * len;
            width = width.max(w);
            self.tables.push(BundleTable::with_capacity(plan.num_edges(), w, len));
        }
        let requests = per_tenant * self.tenants.len();
        for v in [&mut self.requests, &mut self.waiting, &mut self.backlog] {
            v.reserve(requests);
        }
        self.admitted.reserve(requests);
        self.adm_paths.reserve(paths);
        self.keys.reserve(width);
        if planned {
            self.outcomes.reserve(paths);
        }
        if let Some(sim) = &mut self.packet {
            sim.reserve(paths, slots);
        }
        if let Some(sim) = &mut self.worm {
            sim.reserve(paths, slots);
        }
        self.shard = LinkShard::new(self.frame);
    }

    /// Runs one whole round of this group. Nothing allocates once the
    /// scratch buffers and the bundle tables have reached working size.
    fn step_round<R: Recorder>(
        &mut self,
        engine: &TenantEngine,
        fault: Option<(&TenantFaultPlan, FaultRouting)>,
        round: u32,
        rec: &mut R,
    ) {
        let plan = fault.map(|(p, _)| p);
        if round == 0 {
            self.reserve(engine, plan.is_some());
        }
        self.draw_requests(engine, round);
        self.admit(engine, fault, round);
        self.total_steps += self.execute(&engine.cfg, plan, round, rec);
        self.settle(engine, plan.is_some(), round);
    }

    /// Backlog entries whose backoff has expired first (stable order),
    /// then this round's fresh requests in canonical tenant order — the
    /// reference's queue order restricted to this group.
    fn draw_requests(&mut self, engine: &TenantEngine, round: u32) {
        self.requests.clear();
        self.waiting.clear();
        for r in self.backlog.drain(..) {
            if r.ready <= round {
                self.requests.push(r);
            } else {
                self.waiting.push(r);
            }
        }
        std::mem::swap(&mut self.backlog, &mut self.waiting);
        for (t, slot) in self.tenants.iter_mut().enumerate() {
            let edges = engine.specs[slot.spec].plan.num_edges();
            for _ in 0..engine.cfg.requests_per_round {
                let edge = draw_edge(&mut slot.rng, edges);
                slot.stats.requested += 1;
                self.requests.push(Request {
                    tenant: t,
                    edge,
                    age: 0,
                    ready: round,
                    faulted: false,
                    issued: round,
                });
            }
        }
    }

    /// Admission in request order — the reference's decisions exactly
    /// (same candidates, same order, same ledger state at every choice),
    /// on table slices and the dense shard instead of per-request `Vec`s
    /// and a host-keyed map.
    fn admit(
        &mut self,
        engine: &TenantEngine,
        fault: Option<(&TenantFaultPlan, FaultRouting)>,
        round: u32,
    ) {
        let cfg = &engine.cfg;
        let frame = self.frame;
        self.admitted.clear();
        self.adm_paths.clear();
        self.round_widest = 0;
        self.round_longest = 0;
        for ri in 0..self.requests.len() {
            let req = self.requests[ri];
            let spec = &engine.specs[self.tenants[req.tenant].spec];
            let width = spec.plan.width();
            let table = &mut self.tables[req.tenant];
            let bundle = table.bundle(spec, frame, req.edge);
            // One pass per candidate, one shard read per link: the key is
            // the load of the path's hottest link, or u32::MAX when the
            // path crosses a suspect link (quarantined, or for the
            // omniscient baseline a plan hazard). Suspect paths are thus
            // never chosen, and the bundle degrades toward the IDA
            // threshold instead of wasting commits on links known to eat
            // shares. Table order is bundle order, so the path index
            // breaks ties as the reference does.
            self.keys.clear();
            for p in bundle {
                let mut hottest = 0u32;
                let mut suspect = false;
                for &c in table.links(p) {
                    let s = &self.shard.links[c as usize];
                    hottest = hottest.max(s.committed);
                    suspect |= match fault {
                        None => false,
                        Some((_, FaultRouting::Learned)) => s.is_quarantined(round),
                        Some((plan, FaultRouting::Omniscient)) => {
                            plan.is_hazard(frame.host_link(c, cfg.host_dims))
                        }
                    };
                }
                let key = if suspect { u32::MAX } else { hottest };
                self.keys.push((u64::from(key) << 32) | p as u64);
            }
            // Least-loaded first, bundle order breaking ties. Nothing is
            // committed until the choice is made, so a path fits exactly
            // when its key is below capacity, and the paths that fit are
            // a prefix of the sorted keys — the reference's filter by
            // `LinkLedger::fits`.
            self.keys.sort_unstable();
            let chosen = self
                .keys
                .iter()
                .take_while(|&&k| k >> 32 < u64::from(cfg.capacity))
                .take(width as usize)
                .count();
            if (chosen as u32) < width.div_ceil(2) {
                if req.age >= cfg.max_requeues {
                    self.tenants[req.tenant].stats.lost += 1;
                } else {
                    self.tenants[req.tenant].stats.requeues += 1;
                    self.backlog.push(Request { age: req.age + 1, ready: round + 1, ..req });
                }
                continue;
            }
            let first_path = self.adm_paths.len() as u32;
            for &k in &self.keys[..chosen] {
                let p = k as u32;
                let links = table.links(p as usize);
                let widest = self.shard.commit(links);
                debug_assert!(widest <= cfg.capacity, "commit past capacity");
                self.round_widest = self.round_widest.max(widest);
                self.round_longest = self.round_longest.max(links.len());
                self.adm_paths.push(p);
            }
            self.tenants[req.tenant].stats.shares_committed += chosen as u64;
            self.admitted.push(AdmHeader { req, first_path, num_paths: chosen as u32 });
        }
    }

    /// Runs this group's phase, reporting machine events to `rec`, and
    /// returns its machine steps. Planned rounds leave per-share results
    /// in `self.outcomes`.
    fn execute<R: Recorder>(
        &mut self,
        cfg: &TenantsConfig,
        plan: Option<&TenantFaultPlan>,
        round: u32,
        rec: &mut R,
    ) -> u64 {
        self.outcomes.clear();
        if self.admitted.is_empty() {
            return 0;
        }
        match cfg.exec {
            ExecMode::Structural => self.execute_structural(plan, round, cfg.host_dims),
            ExecMode::Packet => self.execute_packet(plan, round, rec),
            ExecMode::Wormhole { flits } => self.execute_wormhole(plan, round, flits, rec),
        }
    }

    fn execute_structural(&mut self, plan: Option<&TenantFaultPlan>, round: u32, n: u32) -> u64 {
        // Serialization bound: the hottest link forwards one share per
        // step, each share crosses ≤ max path length links. Committed
        // load is committed load whether or not shares then die.
        if let Some(plan) = plan {
            let frame = self.frame;
            for h in &self.admitted {
                let table = &self.tables[h.req.tenant];
                for &p in &self.adm_paths[h.paths()] {
                    let links = table.links(p as usize);
                    let host = |c: u32| frame.host_link(c, n);
                    self.outcomes.push(structural_outcome(links, host, Some((plan, round))));
                }
            }
        }
        u64::from(self.round_widest).saturating_add(self.round_longest.saturating_sub(1) as u64)
    }

    fn execute_packet<R: Recorder>(
        &mut self,
        plan: Option<&TenantFaultPlan>,
        round: u32,
        rec: &mut R,
    ) -> u64 {
        let frame = self.frame;
        let sim = self.packet.as_mut().expect("packet simulator for packet mode");
        let cube = sim.host();
        sim.clear();
        for hops in round_hops(&self.admitted, &self.adm_paths, &self.tables) {
            sim.add_flow_links(hops, 1);
        }
        let flows = sim.num_flows() as u64;
        // Work-conserving machine: ≤ 3 hops per share, so hops+shares
        // steps always finish the phase (the reference's budget).
        let max_steps = flows * 4 + 4;
        let Some(plan) = plan else {
            let report = sim.run(max_steps, rec);
            debug_assert_eq!(report.delivered, flows);
            return report.makespan;
        };
        let dense = self.dense.as_mut().expect("dense projection for planned run");
        sync_dense_cuts(dense, &self.group_faults, &cube, plan, round);
        let steps = sim.run_planned(max_steps, dense, rec).report.makespan;
        for f in 0..flows as usize {
            let delivered = sim.flow_delivered()[f] == 1;
            let corrupted = sim.flow_corrupted()[f] == 1;
            let blame = if !delivered {
                Some(frame.compact_of_hop(sim.flow_dropped_at()[f]))
            } else if corrupted {
                Some(frame.compact_of_hop(sim.flow_corrupted_at()[f]))
            } else {
                None
            };
            self.outcomes.push(PathOutcome { delivered, corrupted, blame: blame.map(u64::from) });
        }
        steps
    }

    fn execute_wormhole<R: Recorder>(
        &mut self,
        plan: Option<&TenantFaultPlan>,
        round: u32,
        flits: u64,
        rec: &mut R,
    ) -> u64 {
        let frame = self.frame;
        let sim = self.worm.as_mut().expect("wormhole simulator for wormhole mode");
        let cube = sim.host();
        sim.clear();
        for hops in round_hops(&self.admitted, &self.adm_paths, &self.tables) {
            sim.add_worm_links(hops, flits);
        }
        let worms = sim.num_worms() as u64;
        let max_steps = worms * (flits + 3) + flits + 4;
        let Some(plan) = plan else {
            return sim.run(max_steps, rec);
        };
        let dense = self.dense.as_mut().expect("dense projection for planned run");
        sync_dense_cuts(dense, &self.group_faults, &cube, plan, round);
        let steps = sim.run_planned(max_steps, dense, rec);
        for w in 0..worms as usize {
            let delivered = !sim.lost()[w];
            let corrupted = delivered && sim.corrupted()[w];
            let blame = if !delivered {
                Some(frame.compact_of_hop(sim.dropped_at()[w]))
            } else if corrupted {
                Some(frame.compact_of_hop(sim.corrupted_at()[w]))
            } else {
                None
            };
            self.outcomes.push(PathOutcome { delivered, corrupted, blame: blame.map(u64::from) });
        }
        steps
    }

    /// Settles the round in admission order. Per request: ACK/NACK its
    /// shares' links, grade it, refund and requeue it with backoff if it
    /// fell below the IDA threshold, then release its width. The
    /// reference makes these separate passes over all requests; they
    /// touch disjoint per-link fields (strikes and quarantine, cumulative
    /// slots, committed width), so one fused pass ends in the same state.
    /// Plan-free runs grade on committed width (their engines deliver
    /// every committed share); plan runs grade on shares that arrived
    /// clean.
    fn settle(&mut self, engine: &TenantEngine, planned: bool, round: u32) {
        let max_requeues = engine.cfg.max_requeues;
        let mut o = 0usize;
        for h in &self.admitted {
            let t = h.req.tenant;
            let slot = &mut self.tenants[t];
            let table = &self.tables[t];
            let paths = &self.adm_paths[h.paths()];
            let width = engine.specs[slot.spec].plan.width();
            let st = &mut slot.stats;
            let committed = u64::from(h.num_paths);
            if !planned {
                st.shares_delivered += committed;
                if h.num_paths == width {
                    st.full += 1;
                } else {
                    st.degraded += 1;
                }
            } else {
                let (mut delivered, mut corrupted) = (0u64, 0u64);
                for &p in paths {
                    let out = self.outcomes[o];
                    o += 1;
                    if out.delivered {
                        delivered += 1;
                        if out.corrupted {
                            corrupted += 1;
                            if let Some(b) = out.blame {
                                self.shard.links[b as usize].nack(round);
                            }
                        } else {
                            // The whole path carried a clean share:
                            // every hop is healthy.
                            for &c in table.links(p as usize) {
                                self.shard.links[c as usize].ack();
                            }
                        }
                    } else if let Some(b) = out.blame {
                        self.shard.links[b as usize].nack(round);
                    }
                }
                let clean = delivered - corrupted;
                st.shares_delivered += delivered;
                st.shares_lost += committed - delivered;
                st.shares_corrupted += corrupted;
                if clean >= u64::from(width.div_ceil(2)) {
                    if clean == u64::from(width) {
                        st.full += 1;
                    } else {
                        st.degraded += 1;
                    }
                    if h.req.faulted {
                        st.recovered += 1;
                        st.recovery_rounds += u64::from(round - h.req.issued);
                    }
                } else {
                    // Below the IDA threshold: the message did not
                    // reconstruct. Refund its congestion and retry with
                    // exponential backoff.
                    for &p in paths {
                        self.shard.refund(table.links(p as usize));
                    }
                    if h.req.age >= max_requeues {
                        st.lost += 1;
                    } else {
                        st.requeues += 1;
                        let delay = 1u32 << h.req.age.min(BACKOFF_SHIFT_CAP);
                        self.backlog.push(Request {
                            age: h.req.age + 1,
                            ready: round + delay,
                            faulted: true,
                            ..h.req
                        });
                    }
                }
            }
            // Requests complete within their round: free the width.
            for &p in paths {
                self.shard.release(table.links(p as usize));
            }
        }
        debug_assert_eq!(o, self.outcomes.len());
    }
}

/// One pooled run of a [`TenantEngine`], in round-stepping form.
///
/// The run is sharded by window group: one `GroupArena` per group holds
/// the group's persistent [`PacketSim`] / [`WormholeSim`], memoized
/// fault projection, tenant streams, stats and backlog, created by
/// `begin`, and its bundle tables, dense ledger shard and round scratch,
/// created by the first round. A warmed-up
/// [`step_round`](Self::step_round) allocates nothing at all —
/// `bench/tests/alloc_zero.rs` pins the exact-zero behavior, serially and
/// on a worker pool.
///
/// **Parallel groups, deterministic reports.** Window groups live on
/// disjoint root subcubes, so their host-link sets are disjoint: no
/// admission decision, ledger update or machine step of one group can see
/// another group's. Each group's round therefore depends only on its own
/// shard, and when the recorder is a nop ([`Recorder::IS_NOP`]) and there
/// is more than one group, whole group rounds run on rayon workers.
/// [`finish`](Self::finish) merges the shards in a fixed way (sums, maxima
/// and a sorted union of host link ids; see `LedgerTotals::fold_into`), so
/// [`EngineReport`]s — and the E19/E21 artifacts built from them — are
/// byte-identical under any `RAYON_NUM_THREADS` (CI pins 1, 2, and 4) and
/// to the unsharded reference. A non-nop recorder walks the groups
/// serially, in order, so it observes the canonical event stream.
pub struct TenantRun<'a> {
    engine: &'a TenantEngine,
    fault: Option<(&'a TenantFaultPlan, FaultRouting)>,
    round: u32,
    groups: Vec<GroupArena>,
}

impl<'a> TenantRun<'a> {
    fn new(engine: &'a TenantEngine, fault: Option<(&'a TenantFaultPlan, FaultRouting)>) -> Self {
        let cfg = &engine.cfg;
        let plan = fault.map(|(p, _)| p);
        let mut groups: Vec<GroupArena> = engine
            .groups
            .iter()
            .map(|&(dims, base)| GroupArena::new(RootFrame { dims, base }, cfg, plan))
            .collect();
        // Satellite regression: the pool is exactly one persistent arena
        // per window group, never rebuilt mid-run.
        assert_eq!(groups.len(), engine.num_groups());
        for (t, (spec, &g)) in engine.specs.iter().zip(&engine.group_of).enumerate() {
            groups[g].tenants.push(TenantSlot {
                spec: t,
                rng: tenant_rng(cfg.seed, spec.id),
                stats: FlowStats::default(),
            });
        }
        TenantRun { engine, fault, round: 0, groups }
    }

    /// Rounds stepped so far.
    #[cfg(test)]
    fn rounds_stepped(&self) -> u32 {
        self.round
    }

    /// Executes one synchronous round without instrumentation.
    ///
    /// # Panics
    /// Panics if stepped more than [`TenantsConfig::rounds`] times.
    pub fn step_round(&mut self) {
        self.step_round_recorded(&mut NopRecorder);
    }

    /// Executes one synchronous round, reporting every phase-group
    /// machine run to `rec` (serially, in group order, when `rec` is not
    /// a nop).
    pub fn step_round_recorded<R: Recorder>(&mut self, rec: &mut R) {
        let engine = self.engine;
        assert!(self.round < engine.cfg.rounds, "stepped past the configured rounds");
        let (round, fault) = (self.round, self.fault);
        if R::IS_NOP && self.groups.len() > 1 {
            self.groups
                .par_iter_mut()
                .for_each(|g| g.step_round(engine, fault, round, &mut NopRecorder));
        } else {
            for g in &mut self.groups {
                g.step_round(engine, fault, round, rec);
            }
        }
        self.round += 1;
    }

    /// Steps the remaining configured rounds without instrumentation,
    /// then [`finish`](Self::finish)es.
    fn run_to_end(mut self) -> EngineReport {
        while self.round < self.engine.cfg.rounds {
            self.step_round();
        }
        self.finish()
    }

    /// Drains the remaining backlog as lost (backed-off retries that
    /// never got another round count too), merges the group shards and
    /// freezes the report. Step exactly [`TenantsConfig::rounds`] rounds
    /// first for the report to equal [`TenantEngine::run`]'s.
    pub fn finish(self) -> EngineReport {
        let mut stats = vec![FlowStats::default(); self.engine.specs.len()];
        let mut total_steps = 0;
        for g in &self.groups {
            total_steps += g.total_steps;
            for slot in &g.tenants {
                stats[slot.spec] = slot.stats.clone();
            }
            for req in &g.backlog {
                stats[g.tenants[req.tenant].spec].lost += 1;
            }
        }
        let n = self.engine.cfg.host_dims;
        self.engine.report(self.round, stats, total_steps, |summary, quarantined| {
            for g in &self.groups {
                g.shard.fold_into(g.frame, n, summary, quarantined);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CountingRecorder;

    fn grid_spec(id: u32, window: u64) -> TenantSpec {
        TenantSpec {
            id,
            name: format!("grid-{id}"),
            window,
            plan: Arc::new(GridPlan::new(4, 2, 2, 3).unwrap()),
        }
    }

    fn tree_spec(id: u32, window: u64) -> TenantSpec {
        TenantSpec {
            id,
            name: format!("tree-{id}"),
            window,
            plan: Arc::new(BinomialTreePlan::new(4, 3).unwrap()),
        }
    }

    fn cfg(n: u32, capacity: u32) -> TenantsConfig {
        TenantsConfig {
            host_dims: n,
            capacity,
            rounds: 4,
            requests_per_round: 3,
            max_requeues: 2,
            seed: 7,
            exec: ExecMode::Packet,
        }
    }

    #[test]
    fn single_tenant_with_headroom_delivers_everything_full_width() {
        let report = TenantEngine::new(cfg(6, 8), &[grid_spec(0, 1)]).unwrap().run();
        let st = &report.tenants[0].stats;
        assert_eq!(st.requested, 12);
        assert_eq!(st.full, 12);
        assert_eq!(st.degraded + st.lost + st.requeues, 0);
        assert_eq!(st.shares_committed, 36, "3 paths per request");
        assert_eq!(st.shares_delivered, 36, "packet engine delivers every share");
        assert!(report.total_steps > 0);
        assert_eq!(report.jain_fairness(), 1.0);
        assert!(report.measured_congestion() >= report.congestion_bound());
    }

    #[test]
    fn root_frame_compact_links_are_a_bijection() {
        // Every undirected link of the root subcube gets its own compact
        // index in 0..num_links, both directed hops over it map there, and
        // the index names the right host link.
        for dims in 1..=8u32 {
            let frame = RootFrame { dims, base: 3 << dims };
            let cube = Hypercube::new(dims);
            let mut seen = vec![false; frame.num_links()];
            for e in cube.undirected_edges() {
                let c = frame.compact(e.from, e.dim);
                assert!(!std::mem::replace(&mut seen[c as usize], true), "{dims}: {e:?}");
                for hop in [e, e.reversed()] {
                    assert_eq!(frame.compact_of_hop(cube.dir_edge_index(hop) as u32), c);
                }
                let n = dims + 3;
                let host = ((3 << dims) | e.from) * u64::from(n) + u64::from(e.dim);
                assert_eq!(frame.host_link(c, n), host);
            }
            assert!(seen.iter().all(|&s| s), "{dims}: compact indices leave gaps");
        }
    }

    #[test]
    fn ledger_commit_release_roundtrip() {
        let mut led = LinkLedger::new(2);
        led.commit(&[5, 9]);
        led.commit(&[5]);
        assert_eq!(led.load(5), 2);
        assert!(!led.fits(&[5]));
        assert!(led.fits(&[9]));
        led.release(&[5, 9]);
        assert_eq!(led.load(5), 1);
        assert_eq!(led.load(9), 0);
        let s = led.summary().0;
        assert_eq!(s.peak_concurrent, 2);
        assert_eq!(s.total_slots, 3);
        assert_eq!(s.max_cumulative, 2);
        assert_eq!(s.links_touched, 2);
    }

    #[test]
    fn capacity_one_forces_degradation_or_queueing_under_contention() {
        // Two identical tenants sharing ONE window at capacity 1: their
        // bundles collide, so someone must degrade, requeue, or lose.
        let specs = [grid_spec(0, 0), grid_spec(1, 0)];
        let report = TenantEngine::new(cfg(6, 1), &specs).unwrap().run();
        let contention: u64 =
            report.tenants.iter().map(|t| t.stats.degraded + t.stats.requeues + t.stats.lost).sum();
        assert!(contention > 0, "capacity 1 cannot admit two overlapping bundles fully");
        assert_eq!(report.ledger.peak_concurrent, 1);
        // Every delivered message still met the IDA threshold.
        for t in &report.tenants {
            assert!(t.stats.shares_delivered >= 2 * t.stats.delivered_messages());
        }
    }

    #[test]
    fn disjoint_windows_do_not_contend() {
        let specs = [grid_spec(0, 0), grid_spec(1, 1), tree_spec(2, 2)];
        let report = TenantEngine::new(cfg(6, 8), &specs).unwrap().run();
        for t in &report.tenants {
            assert_eq!(t.stats.full, t.stats.requested, "tenant {}", t.id);
        }
        let engine = TenantEngine::new(cfg(6, 8), &specs).unwrap();
        assert_eq!(engine.num_groups(), 3);
    }

    #[test]
    fn nested_windows_share_one_group() {
        // A Q_5-wide tenant over window 0 contains a Q_4 tenant in its
        // lower half: one containment group, rooted at 5 dims.
        let big = TenantSpec {
            id: 7,
            name: "big".into(),
            window: 0,
            plan: Arc::new(BinomialTreePlan::new(5, 3).unwrap()),
        };
        let engine = TenantEngine::new(cfg(6, 8), &[grid_spec(3, 0), big]).unwrap();
        assert_eq!(engine.num_groups(), 1);
        let report = engine.run();
        assert_eq!(report.tenants.len(), 2);
        assert!(report.delivered_messages() > 0);
    }

    #[test]
    fn spec_order_does_not_change_the_report() {
        let fwd = [grid_spec(0, 0), grid_spec(1, 0), tree_spec(2, 1)];
        let rev = [tree_spec(2, 1), grid_spec(1, 0), grid_spec(0, 0)];
        let a = TenantEngine::new(cfg(6, 2), &fwd).unwrap().run();
        let b = TenantEngine::new(cfg(6, 2), &rev).unwrap().run();
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.stats, y.stats);
        }
        assert_eq!(a.total_steps, b.total_steps);
        assert_eq!(a.ledger, b.ledger);
    }

    #[test]
    fn structural_mode_matches_packet_admission_accounting() {
        // Execution mode changes machine steps, never admission: the
        // ledger path is identical.
        let specs = [grid_spec(0, 0), grid_spec(1, 0)];
        let mut c = cfg(6, 2);
        let packet = TenantEngine::new(c.clone(), &specs).unwrap().run();
        c.exec = ExecMode::Structural;
        let structural = TenantEngine::new(c, &specs).unwrap().run();
        assert_eq!(packet.ledger, structural.ledger);
        for (x, y) in packet.tenants.iter().zip(&structural.tenants) {
            assert_eq!(x.stats, y.stats);
        }
    }

    #[test]
    fn wormhole_mode_runs_and_delivers() {
        let mut c = cfg(6, 8);
        c.exec = ExecMode::Wormhole { flits: 2 };
        let report = TenantEngine::new(c, &[grid_spec(0, 0), tree_spec(1, 1)]).unwrap().run();
        for t in &report.tenants {
            assert_eq!(t.stats.shares_delivered, t.stats.shares_committed);
        }
        assert!(report.total_steps > 0);
    }

    #[test]
    fn implicit_million_node_host_stays_cheap() {
        // n = 20 host, tenants in Q_8 windows: the engine must never
        // allocate host-sized state. (The perf gate pins the actual peak;
        // this pins feasibility and the congestion-gap invariant.)
        let specs: Vec<TenantSpec> = (0..4)
            .map(|i| TenantSpec {
                id: i,
                name: format!("t1-{i}"),
                window: u64::from(i),
                plan: Arc::new(Theorem1Plan::new(8).unwrap()),
            })
            .collect();
        let c = TenantsConfig {
            host_dims: 20,
            capacity: 2,
            rounds: 2,
            requests_per_round: 4,
            max_requeues: 1,
            seed: 1990,
            exec: ExecMode::Packet,
        };
        let report = TenantEngine::new(c, &specs).unwrap().run();
        assert_eq!(report.host_dims, 20);
        assert!(report.delivered_messages() > 0);
        assert!(report.measured_congestion() >= report.congestion_bound());
        assert!(report.ledger.links_touched < 1 << 14, "ledger must stay sparse");
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(TenantEngine::new(cfg(3, 8), &[grid_spec(0, 0)]).is_err(), "plan larger than host");
        assert!(TenantEngine::new(cfg(6, 0), &[grid_spec(0, 0)]).is_err(), "zero capacity");
        assert!(TenantEngine::new(cfg(6, 2), &[grid_spec(0, 4)]).is_err(), "window beyond 2^(n-m)");
        assert!(
            TenantEngine::new(cfg(6, 2), &[grid_spec(0, 0), grid_spec(0, 1)]).is_err(),
            "duplicate id"
        );
        let mut c = cfg(6, 2);
        c.exec = ExecMode::Wormhole { flits: 0 };
        assert!(TenantEngine::new(c, &[grid_spec(0, 0)]).is_err(), "zero flits");
        // A plan with no guest edges has nothing to draw a request from.
        struct NoEdges;
        impl TenantPlan for NoEdges {
            fn dims(&self) -> u32 {
                4
            }
            fn num_edges(&self) -> u64 {
                0
            }
            fn width(&self) -> u32 {
                2
            }
            fn for_each_path(&self, _: u64, _: &mut dyn FnMut(&[u64])) {}
        }
        let empty = TenantSpec { id: 3, name: "empty".into(), window: 0, plan: Arc::new(NoEdges) };
        let err = TenantEngine::new(cfg(6, 2), &[empty]).err().expect("zero-edge plan");
        assert!(err.contains("tenant 3"), "{err}");
        // Windows wider than the engines' cap are rejected, not run
        // structurally: a dense ledger shard would cost O(root links).
        let wide = TenantSpec {
            id: 5,
            name: "wide".into(),
            window: 0,
            plan: Arc::new(BinomialTreePlan::new(ENGINE_MAX_DIMS + 1, 3).unwrap()),
        };
        let mut c = cfg(20, 2);
        c.exec = ExecMode::Structural;
        let err = TenantEngine::new(c, &[wide]).err().expect("window above the cap");
        assert!(err.contains("tenant 5"), "{err}");
    }

    #[test]
    fn ledger_refund_keeps_peak_but_not_cumulative() {
        // Satellite regression: a fault-failed request's slots must not
        // charge later batches phantom congestion — cumulative accounting
        // (total_slots, max_cumulative) is refunded, while the
        // *concurrent* high-water mark stays (the slots really were held
        // during the failed phase), as does links_touched.
        let mut led = LinkLedger::new(4);
        led.commit(&[5, 9]);
        led.commit(&[5, 9]);
        led.release(&[5, 9]);
        led.release(&[5, 9]);
        let s = led.summary().0;
        assert_eq!((s.total_slots, s.max_cumulative, s.peak_concurrent), (4, 2, 2));
        led.refund(&[5, 9]);
        let s = led.summary().0;
        assert_eq!(s.total_slots, 2, "refunded slots leave the demand numerator");
        assert_eq!(s.max_cumulative, 1, "refunded slots leave measured congestion");
        assert_eq!(s.peak_concurrent, 2, "peak concurrency is history, not demand");
        assert_eq!(s.links_touched, 2, "refund never forgets a touched link");
        led.refund(&[5, 9]);
        let s = led.summary().0;
        assert_eq!((s.total_slots, s.max_cumulative), (0, 0));
        assert_eq!(s.links_touched, 2);
    }

    #[test]
    fn quarantine_state_machine_strikes_ack_reset_and_aged_readmission() {
        let mut led = LinkLedger::new(2);
        // One strike is suspicion, not quarantine.
        led.nack(7, 0);
        assert!(!led.is_quarantined(7, 1));
        // Second consecutive strike quarantines for BASE (2) rounds.
        led.nack(7, 1);
        assert!(led.is_quarantined(7, 2));
        assert!(led.is_quarantined(7, 3));
        assert!(!led.is_quarantined(7, 4), "first offense expires after 2 rounds");
        // An ACK between strikes resets the count: no quarantine.
        led.nack(8, 0);
        led.ack(8);
        led.nack(8, 1);
        assert!(!led.is_quarantined(8, 2), "ack clears strikes");
        // Repeat offense doubles the hold: 4 rounds this time.
        led.nack(7, 4);
        led.nack(7, 5);
        assert!(led.is_quarantined(7, 9));
        assert!(!led.is_quarantined(7, 10), "second offense holds 4 rounds");
        assert_eq!(led.ever_quarantined(), vec![7]);
    }

    #[test]
    fn empty_plan_run_is_byte_identical_to_plain_run() {
        // The full proptest lives in bench/tests/tenants_faults.rs; this
        // pins the contended + nested-window case in-crate.
        let specs = [grid_spec(0, 0), grid_spec(1, 0), tree_spec(2, 1)];
        let engine = TenantEngine::new(cfg(6, 2), &specs).unwrap();
        let plain = engine.run();
        assert_eq!(engine.run_planned(&TenantFaultPlan::none(), FaultRouting::Learned), plain);
        assert_eq!(engine.run_planned(&TenantFaultPlan::none(), FaultRouting::Omniscient), plain);
    }

    #[test]
    fn faults_in_one_window_leave_other_tenants_byte_identical() {
        // Disjoint windows, ample capacity: a node death inside window 0
        // must not perturb window 1's tenant in any way.
        let specs = [grid_spec(0, 0), grid_spec(1, 1)];
        let mut tplan = TenantFaultPlan::none();
        tplan.cut_node_at(0, 6, 3); // host node 3 lives in window 0's Q_4
        let engine = TenantEngine::new(cfg(6, 8), &specs).unwrap();
        let faulted = engine.run_planned(&tplan, FaultRouting::Learned);
        let clean = engine.run();
        assert_eq!(faulted.tenants[1].stats, clean.tenants[1].stats);
        let st = &faulted.tenants[0].stats;
        assert!(st.shares_lost > 0, "node 3's links must eat some shares: {st:?}");
        assert_eq!(st.full + st.degraded + st.lost, st.requested, "message conservation");
        assert_eq!(st.shares_committed, st.shares_delivered + st.shares_lost, "share conservation");
        for &l in &faulted.quarantined {
            assert!(tplan.is_hazard(l), "quarantined link {l} is not a planned hazard");
        }
    }

    #[test]
    fn round_zero_outage_recovers_via_backoff_retries() {
        // Every window-0 link is down for round 0 only: all round-0
        // requests fault-fail, requeue with backoff, and deliver in a
        // later round — the Recovered grade, never Lost.
        let mut c = cfg(6, 8);
        c.rounds = 6;
        c.max_requeues = 5;
        let mut tplan = TenantFaultPlan::none();
        for base in 0..16u64 {
            for d in 0..4u32 {
                if base & (1 << d) == 0 {
                    tplan.outage(base * 6 + u64::from(d), 0, 1);
                }
            }
        }
        let engine = TenantEngine::new(c, &[grid_spec(0, 0)]).unwrap();
        let r = engine.run_planned(&tplan, FaultRouting::Learned);
        let st = &r.tenants[0].stats;
        assert!(st.recovered > 0, "round-0 requests must come back: {st:?}");
        assert!(st.recovery_rounds >= st.recovered, "recovery takes at least one round each");
        assert!(st.shares_lost > 0);
        assert_eq!(st.lost, 0, "a one-round outage must not lose messages: {st:?}");
        assert_eq!(st.full + st.degraded + st.lost, st.requested);
        assert_eq!(st.slo_grade(), SloGrade::Recovered);
        assert!(st.mean_rounds_to_recover() >= 1.0);
        for &l in &r.quarantined {
            assert!(tplan.is_hazard(l));
        }
    }

    #[test]
    fn all_links_corrupting_detects_and_loses_every_message() {
        // Corrupted shares arrive (the engines deliver them) but are
        // excluded from reconstruction, so every message stays below
        // threshold and is eventually graded Lost.
        let mut tplan = TenantFaultPlan::none();
        for base in 0..16u64 {
            for d in 0..4u32 {
                if base & (1 << d) == 0 {
                    tplan.corrupt_link(base * 6 + u64::from(d));
                }
            }
        }
        let engine = TenantEngine::new(cfg(6, 8), &[grid_spec(0, 0)]).unwrap();
        let r = engine.run_planned(&tplan, FaultRouting::Learned);
        let st = &r.tenants[0].stats;
        assert_eq!(st.delivered_messages(), 0);
        assert_eq!(st.lost, st.requested);
        assert!(st.shares_corrupted > 0);
        assert_eq!(st.shares_delivered, st.shares_committed, "corrupted shares still arrive");
        assert_eq!(st.shares_lost, 0);
        assert_eq!(st.slo_grade(), SloGrade::Lost);
    }

    #[test]
    fn planned_execution_modes_agree_on_grading() {
        // Packet, wormhole, and structural modes model the same faults:
        // message-level grading must agree (machine steps differ).
        let mut tplan = TenantFaultPlan::none();
        tplan.cut_node_at(0, 6, 3);
        let specs = [grid_spec(0, 0), tree_spec(1, 1)];
        let mut c = cfg(6, 8);
        let packet = TenantEngine::new(c.clone(), &specs)
            .unwrap()
            .run_planned(&tplan, FaultRouting::Learned);
        c.exec = ExecMode::Structural;
        let structural = TenantEngine::new(c.clone(), &specs)
            .unwrap()
            .run_planned(&tplan, FaultRouting::Learned);
        c.exec = ExecMode::Wormhole { flits: 2 };
        let wormhole =
            TenantEngine::new(c, &specs).unwrap().run_planned(&tplan, FaultRouting::Learned);
        for (p, (s, w)) in
            packet.tenants.iter().zip(structural.tenants.iter().zip(&wormhole.tenants))
        {
            assert_eq!(p.stats, s.stats, "packet vs structural");
            assert_eq!(p.stats, w.stats, "packet vs wormhole");
        }
        assert_eq!(packet.ledger, structural.ledger);
        assert_eq!(packet.quarantined, structural.quarantined);
    }

    #[test]
    fn pooled_engine_is_byte_identical_to_reference() {
        // Contended + nested + disjoint windows across every execution
        // mode: the pooled production engine must reproduce the
        // per-round-allocating reference bit for bit.
        let big = TenantSpec {
            id: 7,
            name: "big".into(),
            window: 0,
            plan: Arc::new(BinomialTreePlan::new(5, 3).unwrap()),
        };
        let specs = [grid_spec(0, 0), grid_spec(1, 0), big, tree_spec(2, 2)];
        for exec in [ExecMode::Packet, ExecMode::Structural, ExecMode::Wormhole { flits: 2 }] {
            let mut c = cfg(6, 2);
            c.exec = exec;
            let engine = TenantEngine::new(c, &specs).unwrap();
            assert_eq!(engine.run(), engine.run_reference(), "{exec:?}");
        }
    }

    #[test]
    fn pooled_planned_engine_is_byte_identical_to_reference() {
        // Cuts, a timed outage, and a corrupting link across two window
        // groups, both routing policies, every execution mode.
        let big = TenantSpec {
            id: 7,
            name: "big".into(),
            window: 0,
            plan: Arc::new(BinomialTreePlan::new(5, 3).unwrap()),
        };
        let specs = [grid_spec(0, 0), grid_spec(1, 0), big, tree_spec(2, 2)];
        let mut tplan = TenantFaultPlan::none();
        tplan.cut_node_at(0, 6, 3);
        tplan.outage(7, 1, 3); // base 1, dim 1: window-0 link down rounds 1-2
        tplan.corrupt_link(24); // base 4, dim 0: window-0 link corrupting
        tplan.outage(199, 0, 2); // base 33, dim 1: window-2 link down rounds 0-1
        for exec in [ExecMode::Packet, ExecMode::Structural, ExecMode::Wormhole { flits: 2 }] {
            let mut c = cfg(6, 2);
            c.rounds = 6;
            c.max_requeues = 3;
            c.exec = exec;
            let engine = TenantEngine::new(c, &specs).unwrap();
            for routing in [FaultRouting::Learned, FaultRouting::Omniscient] {
                assert_eq!(
                    engine.run_planned(&tplan, routing),
                    engine.run_planned_reference(&tplan, routing),
                    "{exec:?} / {routing:?}"
                );
            }
        }
    }

    #[test]
    fn pooled_run_is_identical_at_any_thread_count() {
        // Three disjoint groups: whole group rounds run on the parallel
        // dispatch, and the shard merge keeps the report byte-identical
        // to the serial run and to the unsharded reference.
        let specs = [grid_spec(0, 0), grid_spec(1, 1), tree_spec(2, 2)];
        let engine = TenantEngine::new(cfg(6, 8), &specs).unwrap();
        let mut tplan = TenantFaultPlan::none();
        tplan.cut_node_at(0, 6, 3);
        let plain = engine.run_reference();
        let planned = engine.run_planned_reference(&tplan, FaultRouting::Learned);
        for threads in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            assert_eq!(pool.install(|| engine.run()), plain, "{threads} thread(s)");
            assert_eq!(
                pool.install(|| engine.run_planned(&tplan, FaultRouting::Learned)),
                planned,
                "{threads} thread(s), planned"
            );
        }
    }

    #[test]
    fn stepping_a_run_to_completion_matches_run() {
        let specs = [grid_spec(0, 0), tree_spec(1, 1)];
        let engine = TenantEngine::new(cfg(6, 2), &specs).unwrap();
        let mut run = engine.begin();
        for _ in 0..4 {
            run.step_round();
        }
        assert_eq!(run.rounds_stepped(), 4);
        assert_eq!(run.finish(), engine.run());
        let mut tplan = TenantFaultPlan::none();
        tplan.cut_node_at(0, 6, 3);
        let mut planned = engine.begin_planned(&tplan, FaultRouting::Learned);
        for _ in 0..4 {
            planned.step_round();
        }
        assert_eq!(planned.finish(), engine.run_planned(&tplan, FaultRouting::Learned));
    }

    #[test]
    fn recorded_pooled_run_observes_the_reference_event_stream() {
        // A non-nop recorder forces serial group order: the pooled
        // arenas must then emit exactly the machine events the reference
        // engines do — same machines, same order, same counts.
        let specs = [grid_spec(0, 0), grid_spec(1, 0), tree_spec(2, 2)];
        let engine = TenantEngine::new(cfg(6, 2), &specs).unwrap();
        let recorded = |mut run: TenantRun<'_>, rec: &mut CountingRecorder| {
            for _ in 0..engine.cfg.rounds {
                run.step_round_recorded(rec);
            }
            run.finish()
        };
        let mut pooled = CountingRecorder::default();
        let pooled_report = recorded(engine.begin(), &mut pooled);
        let mut reference = CountingRecorder::default();
        let reference_report = engine.run_reference_impl(None, &mut reference);
        assert_eq!(pooled, reference);
        assert_eq!(pooled_report, reference_report);
        let mut tplan = TenantFaultPlan::none();
        tplan.cut_node_at(0, 6, 3);
        let mut pooled = CountingRecorder::default();
        let pooled_report =
            recorded(engine.begin_planned(&tplan, FaultRouting::Learned), &mut pooled);
        let mut reference = CountingRecorder::default();
        let reference_report =
            engine.run_reference_impl(Some((&tplan, FaultRouting::Learned)), &mut reference);
        assert_eq!(pooled, reference);
        assert_eq!(pooled_report, reference_report);
    }

    #[test]
    fn jain_fairness_formula() {
        let mk = |vals: &[u64]| EngineReport {
            host_dims: 6,
            rounds: 1,
            tenants: vals
                .iter()
                .enumerate()
                .map(|(i, &v)| TenantReport {
                    id: i as u32,
                    name: String::new(),
                    stats: FlowStats { full: v, ..FlowStats::default() },
                })
                .collect(),
            total_steps: 10,
            ledger: LedgerSummary {
                capacity: 1,
                links_touched: 0,
                total_slots: 0,
                max_cumulative: 0,
                peak_concurrent: 0,
                quarantined_links: 0,
            },
            quarantined: Vec::new(),
        };
        assert_eq!(mk(&[5, 5, 5, 5]).jain_fairness(), 1.0);
        assert_eq!(mk(&[10, 0, 0, 0]).jain_fairness(), 0.25);
        assert_eq!(mk(&[0, 0]).jain_fairness(), 1.0, "degenerate all-zero case");
        assert_eq!(mk(&[4, 5, 5, 5, 5]).delivered_messages(), 24);
    }
}

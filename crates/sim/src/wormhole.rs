//! Wormhole (cut-through) routing simulation (Section 7).
//!
//! A *worm* is a message of `flits` flits following one fixed path. Its
//! head advances one hop per step when the next link is free; the body
//! streams behind, so a link is held from the step the head crosses it
//! until the tail (flit `flits`) has crossed — and while the head is
//! blocked, everything behind it stalls and the held links stay held.
//! Store-and-forward would charge `Θ(hops + queue_delays)` *per message
//! re-queue*, i.e. `Θ(n·M)` for an `M`-flit message crossing `n` links
//! under contention; wormhole pipelining charges `hops + M` when the path
//! is clear — the contrast experiment E10 measures.
//!
//! [`WormholeArena`] is the production engine: per-worm link sequences
//! are precomputed once into a flat arena (the reference engine
//! recomputes XOR + edge index on every access), and finished worms leave
//! the iteration via an in-place `retain` compaction of the active list —
//! which preserves ascending worm-id order, i.e. exactly the reference
//! engine's arbitration. [`WormholeSim`] is its node-walk front-end, and
//! each of its runs loads a fresh arena. [`WormholeSim::run_reference`]
//! keeps the original engine as the executable specification the
//! property tests pin the production engine against.

use crate::faults::{FaultPlan, LinkEvent};
use crate::packet::walk_links;
use crate::trace::Recorder;
use hyperpath_topology::{DirEdge, Hypercube, Node};

/// One wormhole message.
#[derive(Debug, Clone)]
pub struct Worm {
    /// Node sequence the worm follows.
    pub path: Vec<Node>,
    /// Number of flits (message length).
    pub flits: u64,
}

/// Simulation outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WormReport {
    /// Step after which every tail had arrived.
    pub makespan: u64,
    /// Per-worm completion times (tail arrival).
    pub completion: Vec<u64>,
}

/// Outcome of a planned run ([`WormholeSim::run_planned`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanWormReport {
    /// The machine report. A killed worm's `completion` entry is the step
    /// it died; with an empty [`FaultPlan`] the report is bit-identical
    /// to [`WormholeSim::run`]'s (pinned by `tests/props.rs`).
    pub report: WormReport,
    /// Whether each worm was killed by a link fault, indexed by worm id.
    pub lost: Vec<bool>,
    /// Whether each worm's head crossed a byte-corrupting link, indexed by
    /// worm id (a corrupted worm still completes — only its payload is
    /// untrustworthy).
    pub corrupted: Vec<bool>,
    /// Directed-link index the worm was killed on (`u32::MAX` if it
    /// completed) — the NACK location an oracle-free health learner can
    /// attribute, indexed by worm id.
    pub dropped_at: Vec<u32>,
    /// Directed-link index of the corrupting link the worm's head first
    /// entered (`u32::MAX` if its payload stayed clean), indexed by
    /// worm id.
    pub corrupted_at: Vec<u32>,
}

impl PlanWormReport {
    /// Number of worms killed by faults.
    pub fn lost_count(&self) -> usize {
        self.lost.iter().filter(|&&l| l).count()
    }

    /// Number of worms that crossed a corrupting link.
    pub fn corrupted_count(&self) -> usize {
        self.corrupted.iter().filter(|&&c| c).count()
    }
}

/// The wormhole simulator: worms given as node walks — the one-shot
/// front-end of [`WormholeArena`].
#[derive(Debug, Clone)]
pub struct WormholeSim {
    host: Hypercube,
    worms: Vec<Worm>,
}

impl WormholeSim {
    /// Creates a simulator with no worms.
    pub fn new(host: Hypercube) -> Self {
        WormholeSim { host, worms: Vec::new() }
    }

    /// Adds a worm; returns its id. Lower ids win link arbitration.
    pub fn add_worm(&mut self, worm: Worm) -> u32 {
        assert!(self.host.is_walk(&worm.path), "worm path must be a walk");
        assert!(worm.flits >= 1);
        self.worms.push(worm);
        (self.worms.len() - 1) as u32
    }

    /// Loads the worms into a fresh [`WormholeArena`].
    fn arena(&self) -> WormholeArena {
        let mut arena = WormholeArena::new(self.host);
        let hops = self.worms.iter().map(|w| w.path.len().saturating_sub(1)).sum();
        arena.reserve(self.worms.len(), hops);
        for w in &self.worms {
            arena.worm_links.extend(walk_links(self.host, &w.path));
            arena.push_worm(w.flits);
        }
        arena
    }

    /// Runs to completion, firing every engine event on `rec`: one
    /// [`Recorder::record_step`] per step with the number of head
    /// advances, a [`Recorder::record_delivery`] plus `hops x flits`
    /// [`Recorder::record_flit_moves`] when a worm's tail arrives. Pass
    /// [`NopRecorder`](crate::trace::NopRecorder), which monomorphizes
    /// every hook away, for an uninstrumented run.
    ///
    /// # Panics
    /// Panics if worms remain in flight after `max_steps`.
    pub fn run<R: Recorder>(&self, max_steps: u64, rec: &mut R) -> WormReport {
        let mut arena = self.arena();
        let makespan = arena.run(max_steps, rec);
        WormReport { makespan, completion: arena.bufs.completion }
    }

    /// Runs under `plan`. A worm dies the moment a fault touches it:
    /// either its head tries to enter a severed link, or a link it
    /// currently holds is severed mid-stream (the cut corrupts the flit
    /// stream, so the whole message is lost). A killed worm releases
    /// every link it held — worms blocked behind it may then proceed —
    /// its `completion` entry records the step it died, and it emits
    /// [`Recorder::record_drop`] instead of a delivery. Transient outages
    /// restore links ([`LinkEvent::Up`] — a restored link is usable
    /// again, but worms already killed stay dead), and a worm whose head
    /// crosses a byte-corrupting link is flagged
    /// ([`Recorder::record_corrupt`], once per worm) while still
    /// streaming to completion. With an empty plan the report is
    /// bit-identical to [`run`](Self::run)'s.
    ///
    /// # Panics
    /// Panics if worms remain in flight after `max_steps`.
    pub fn run_planned<R: Recorder>(
        &self,
        max_steps: u64,
        plan: &FaultPlan,
        rec: &mut R,
    ) -> PlanWormReport {
        let mut arena = self.arena();
        let makespan = arena.run_planned(max_steps, plan, rec);
        let WormBufs { completion, lost, corrupted, dropped_at, corrupted_at, .. } = arena.bufs;
        PlanWormReport {
            report: WormReport { makespan, completion },
            lost,
            corrupted,
            dropped_at,
            corrupted_at,
        }
    }

    /// The original engine, kept as the executable specification for the
    /// old-vs-new property tests; not meant for production use.
    ///
    /// # Panics
    /// Panics if worms remain unfinished after `max_steps`.
    pub fn run_reference(&self, max_steps: u64) -> WormReport {
        let num_links = self.host.num_directed_edges() as usize;
        // Which worm holds each link (u32::MAX = free).
        let mut holder: Vec<u32> = vec![u32::MAX; num_links];
        // Per worm: hops the head has crossed, flits the tail has pushed
        // through the first held link (tail progress), completion time.
        #[derive(Clone)]
        struct State {
            head: usize,       // hops crossed by the head
            entered: Vec<u64>, // step at which the head crossed hop i
            done: Option<u64>,
        }
        let mut st: Vec<State> = self
            .worms
            .iter()
            .map(|w| State {
                head: 0,
                entered: vec![0; w.path.len().saturating_sub(1)],
                done: None,
            })
            .collect();
        let link_of = |w: &Worm, hop: usize| -> usize {
            let from = w.path[hop];
            let dim = (from ^ w.path[hop + 1]).trailing_zeros();
            self.host.dir_edge_index(DirEdge::new(from, dim))
        };

        let mut step = 0u64;
        loop {
            let mut all_done = true;
            for (wid, w) in self.worms.iter().enumerate() {
                if st[wid].done.is_some() {
                    continue;
                }
                all_done = false;
                let hops = w.path.len() - 1;
                if hops == 0 {
                    st[wid].done = Some(step);
                    continue;
                }
                if st[wid].head < hops {
                    // Try to advance the head across the next link.
                    let idx = link_of(w, st[wid].head);
                    if holder[idx] == u32::MAX {
                        holder[idx] = wid as u32;
                        let h = st[wid].head;
                        st[wid].entered[h] = step;
                        st[wid].head += 1;
                    }
                    // Heads that cannot move stall (links stay held).
                } else {
                    // Head arrived; the tail clears link i once `flits`
                    // flits have crossed it: release at entered[i] + flits.
                    let release = st[wid].entered[hops - 1] + w.flits;
                    if step + 1 >= release {
                        for hop in 0..hops {
                            holder[link_of(w, hop)] = u32::MAX;
                        }
                        st[wid].done = Some(release);
                    }
                }
            }
            // Release links behind the tail as it streams forward.
            for (wid, w) in self.worms.iter().enumerate() {
                if st[wid].done.is_some() {
                    continue;
                }
                let hops = w.path.len() - 1;
                for hop in 0..st[wid].head.min(hops) {
                    let idx = link_of(w, hop);
                    if holder[idx] == wid as u32 && step + 1 >= st[wid].entered[hop] + w.flits {
                        holder[idx] = u32::MAX;
                    }
                }
            }
            if all_done {
                break;
            }
            step += 1;
            if step > max_steps {
                panic!("wormhole simulation did not finish within {max_steps} steps");
            }
        }
        let completion: Vec<u64> = st.iter().map(|s| s.done.unwrap()).collect();
        WormReport { makespan: completion.iter().copied().max().unwrap_or(0), completion }
    }
}

/// Every buffer the wormhole step machine mutates, grouped so a pooled
/// caller ([`WormholeArena`]) can keep them alive across runs. `holder`
/// is link-indexed and left **clean** (all `u32::MAX`) by every completed
/// run — a finishing or dying worm releases everything it held — so reuse
/// needs no O(links) reset; the per-worm vectors are re-prepared by the
/// caller before each run.
#[derive(Debug, Clone, Default)]
struct WormBufs {
    holder: Vec<u32>,
    failed: Vec<bool>,
    lost: Vec<bool>,
    corrupted: Vec<bool>,
    dropped_at: Vec<u32>,
    corrupted_at: Vec<u32>,
    entered: Vec<u64>,
    head: Vec<usize>,
    completion: Vec<u64>,
    active: Vec<u32>,
}

/// The step machine behind [`WormholeArena`], over the arena's prepared
/// buffers (see [`WormBufs`]); nothing in here allocates beyond
/// `active`'s reserved capacity. Results land in `bufs` (`completion`,
/// and when `PLAN` also `lost`, `corrupted`, `dropped_at`,
/// `corrupted_at`). `PLAN` is the one fault switch: off, every fault
/// branch monomorphizes away; on, `plan_events` fire at the start of
/// their step and corrupting links flag the worms whose heads enter
/// them.
#[allow(clippy::too_many_arguments)]
fn worm_core<R: Recorder, const PLAN: bool>(
    host: &Hypercube,
    worm_off: &[u32],
    worm_links: &[u32],
    worm_flits: &[u64],
    max_steps: u64,
    plan_events: &[(u64, DirEdge, LinkEvent)],
    corrupting: &[bool],
    bufs: &mut WormBufs,
    rec: &mut R,
) {
    let num_worms = worm_off.len() - 1;
    let WormBufs {
        holder,
        failed,
        lost,
        corrupted,
        dropped_at,
        corrupted_at,
        entered,
        head,
        completion,
        active,
    } = bufs;
    debug_assert!(
        active.is_empty() && holder.iter().all(|&h| h == u32::MAX),
        "caller handed the engine dirty machine state"
    );
    let mut next_event = 0usize;

    // Zero-hop worms complete instantly; the rest start active, in id
    // order (the list only ever compacts, so it stays id-sorted).
    for wid in 0..num_worms as u32 {
        rec.record_injection(wid, 1, 0);
        if worm_off[wid as usize + 1] > worm_off[wid as usize] {
            active.push(wid);
        } else {
            rec.record_delivery(wid, 0);
        }
    }

    let mut step = 0u64;
    while !active.is_empty() {
        // Fault events for this step fire before anything moves; a
        // worm holding a newly severed link dies on the spot. A plan's
        // [`LinkEvent::Up`] merely reopens the link — dead worms stay
        // dead, but stalled heads may now enter it.
        if PLAN {
            let mut any_killed = false;
            let mut sever = |idx: usize,
                             failed: &mut [bool],
                             holder: &mut [u32],
                             completion: &mut [u64],
                             lost: &mut [bool],
                             dropped_at: &mut [u32],
                             rec: &mut R| {
                failed[idx] = true;
                let wid = holder[idx];
                if wid != u32::MAX {
                    let w = wid as usize;
                    let off = worm_off[w] as usize;
                    for h in 0..(worm_off[w + 1] as usize - off) {
                        let l = worm_links[off + h] as usize;
                        if holder[l] == wid {
                            holder[l] = u32::MAX;
                        }
                    }
                    completion[w] = step;
                    lost[w] = true;
                    dropped_at[w] = idx as u32;
                    any_killed = true;
                    rec.record_drop(wid, step);
                }
            };
            while next_event < plan_events.len() && plan_events[next_event].0 <= step {
                let (_, edge, ev) = plan_events[next_event];
                for idx in [host.dir_edge_index(edge), host.dir_edge_index(edge.reversed())] {
                    match ev {
                        LinkEvent::Down => {
                            sever(idx, failed, holder, completion, lost, dropped_at, rec)
                        }
                        LinkEvent::Up => failed[idx] = false,
                    }
                }
                next_event += 1;
            }
            if any_killed {
                active.retain(|&wid| !lost[wid as usize]);
            }
        }
        // Advance heads / complete worms, lowest id first (arbitration).
        let mut advanced = 0u64;
        active.retain(|&wid| {
            let w = wid as usize;
            let off = worm_off[w] as usize;
            let hops = worm_off[w + 1] as usize - off;
            if head[w] < hops {
                // Try to advance the head across the next link; heads
                // that cannot move stall (held links stay held).
                let idx = worm_links[off + head[w]] as usize;
                if PLAN && failed[idx] {
                    // The head ran into a severed link: the worm dies,
                    // releasing everything it held.
                    for h in 0..head[w] {
                        let l = worm_links[off + h] as usize;
                        if holder[l] == wid {
                            holder[l] = u32::MAX;
                        }
                    }
                    completion[w] = step;
                    lost[w] = true;
                    dropped_at[w] = idx as u32;
                    rec.record_drop(wid, step);
                    return false;
                }
                if holder[idx] == u32::MAX {
                    holder[idx] = wid;
                    // The head entering a byte-corrupting link taints
                    // the whole flit stream (once); the worm still
                    // completes normally.
                    if PLAN && corrupting[idx] && !corrupted[w] {
                        corrupted[w] = true;
                        corrupted_at[w] = idx as u32;
                        rec.record_corrupt(wid, step);
                    }
                    entered[off + head[w]] = step;
                    head[w] += 1;
                    advanced += 1;
                }
                true
            } else {
                // Head arrived; the tail clears the last link once
                // `flits` flits have crossed it.
                let release = entered[off + hops - 1] + worm_flits[w];
                if step + 1 >= release {
                    for h in 0..hops {
                        holder[worm_links[off + h] as usize] = u32::MAX;
                    }
                    completion[w] = release;
                    rec.record_delivery(wid, release);
                    rec.record_flit_moves(hops as u64 * worm_flits[w]);
                    false
                } else {
                    true
                }
            }
        });
        // Release links behind each still-active tail as it streams.
        for &wid in active.iter() {
            let w = wid as usize;
            let off = worm_off[w] as usize;
            for h in 0..head[w] {
                let idx = worm_links[off + h] as usize;
                if holder[idx] == wid && step + 1 >= entered[off + h] + worm_flits[w] {
                    holder[idx] = u32::MAX;
                }
            }
        }
        rec.record_step(step, advanced);
        step += 1;
        if step > max_steps && !active.is_empty() {
            panic!("wormhole simulation did not finish within {max_steps} steps");
        }
    }
}

/// The wormhole engine: the link-holder table is allocated once for a
/// fixed host cube and reused across runs, and worms are loaded as
/// precomputed *directed-link* hop sequences. Once warmed up,
/// [`run`](Self::run) and [`run_planned`](Self::run_planned) allocate
/// nothing — a completed run leaves every link released, so
/// [`clear`](Self::clear) only truncates the worm arena.
/// [`WormholeSim`] runs load a fresh arena, so its reports are this
/// engine's by construction.
#[derive(Debug, Clone)]
pub struct WormholeArena {
    host: Hypercube,
    worm_off: Vec<u32>,
    worm_links: Vec<u32>,
    worm_flits: Vec<u64>,
    bufs: WormBufs,
}

impl WormholeArena {
    /// Creates an arena for `host`, allocating the link-holder table up
    /// front.
    pub fn new(host: Hypercube) -> Self {
        let num_links = host.num_directed_edges() as usize;
        WormholeArena {
            host,
            worm_off: vec![0],
            worm_links: Vec::new(),
            worm_flits: Vec::new(),
            bufs: WormBufs { holder: vec![u32::MAX; num_links], ..WormBufs::default() },
        }
    }

    /// The host cube.
    pub fn host(&self) -> Hypercube {
        self.host
    }

    /// Number of worms currently loaded.
    pub fn num_worms(&self) -> usize {
        self.worm_flits.len()
    }

    /// Drops all worms so the next round can be loaded. The holder table
    /// needs no touch-up: a completed run left every link released.
    pub fn clear(&mut self) {
        self.worm_off.truncate(1);
        self.worm_links.clear();
        self.worm_flits.clear();
    }

    /// Reserves room for `worms` more worms of `hops` hop links in total,
    /// so loading a round of known size does not grow the worm arena step
    /// by step.
    pub fn reserve(&mut self, worms: usize, hops: usize) {
        self.worm_off.reserve(worms);
        self.worm_flits.reserve(worms);
        self.worm_links.reserve(hops);
    }

    /// Adds one worm as a sequence of directed link indices
    /// ([`Hypercube::dir_edge_index`]) that must chain head-to-tail —
    /// exactly the links [`WormholeSim::add_worm`] would derive from the
    /// corresponding node walk. Returns the worm id.
    pub fn add_worm_links(&mut self, links: &[u32], flits: u64) -> u32 {
        debug_assert!(flits >= 1);
        debug_assert!(
            links.iter().all(|&l| u64::from(l) < self.host.num_directed_edges()),
            "hop link out of range for this host"
        );
        self.worm_links.extend_from_slice(links);
        self.push_worm(flits)
    }

    /// Closes the worm whose hops were just appended to `worm_links`.
    fn push_worm(&mut self, flits: u64) -> u32 {
        self.worm_off.push(self.worm_links.len() as u32);
        self.worm_flits.push(flits);
        (self.worm_flits.len() - 1) as u32
    }

    /// Runs the loaded worms fault-free, firing every engine event on
    /// `rec`, and returns the makespan; per-worm completion times stay in
    /// the arena ([`completion`](Self::completion)).
    ///
    /// # Panics
    /// Panics if worms remain in flight after `max_steps`.
    pub fn run<R: Recorder>(&mut self, max_steps: u64, rec: &mut R) -> u64 {
        self.run_core::<R, false>(max_steps, None, rec)
    }

    /// Runs the loaded worms under `plan` (semantics of
    /// [`WormholeSim::run_planned`]) and returns the makespan; per-worm
    /// outcomes stay in the arena — read them via
    /// [`lost`](Self::lost) / [`corrupted`](Self::corrupted) /
    /// [`dropped_at`](Self::dropped_at) /
    /// [`corrupted_at`](Self::corrupted_at) — so the steady state
    /// allocates nothing.
    ///
    /// # Panics
    /// Panics if worms remain in flight after `max_steps`.
    pub fn run_planned<R: Recorder>(
        &mut self,
        max_steps: u64,
        plan: &FaultPlan,
        rec: &mut R,
    ) -> u64 {
        self.run_core::<R, true>(max_steps, Some(plan), rec)
    }

    /// The one buffer-preparation path: re-prepares the per-worm vectors
    /// (the fault state and per-worm outcomes only when `PLAN`) and runs
    /// [`worm_core`].
    fn run_core<R: Recorder, const PLAN: bool>(
        &mut self,
        max_steps: u64,
        plan: Option<&FaultPlan>,
        rec: &mut R,
    ) -> u64 {
        let WormholeArena { host, worm_off, worm_links, worm_flits, bufs } = self;
        let num_worms = worm_flits.len();
        let (plan_events, corrupting) = match plan {
            Some(plan) if PLAN => {
                bufs.failed.clear();
                bufs.failed.extend_from_slice(plan.initial().bits());
                bufs.lost.clear();
                bufs.lost.resize(num_worms, false);
                bufs.corrupted.clear();
                bufs.corrupted.resize(num_worms, false);
                bufs.dropped_at.clear();
                bufs.dropped_at.resize(num_worms, u32::MAX);
                bufs.corrupted_at.clear();
                bufs.corrupted_at.resize(num_worms, u32::MAX);
                (plan.events(), plan.corrupting_bits())
            }
            _ => (&[][..], &[][..]),
        };
        bufs.entered.clear();
        bufs.entered.resize(worm_links.len(), 0);
        bufs.head.clear();
        bufs.head.resize(num_worms, 0);
        bufs.completion.clear();
        bufs.completion.resize(num_worms, 0);
        bufs.active.reserve(num_worms);
        worm_core::<R, PLAN>(
            host,
            worm_off,
            worm_links,
            worm_flits,
            max_steps,
            plan_events,
            corrupting,
            bufs,
            rec,
        );
        bufs.completion.iter().copied().max().unwrap_or(0)
    }

    /// Per-worm completion times of the last run, indexed by worm id.
    pub fn completion(&self) -> &[u64] {
        &self.bufs.completion
    }

    /// Whether each worm was killed in the last
    /// [`run_planned`](Self::run_planned), indexed by worm id.
    pub fn lost(&self) -> &[bool] {
        &self.bufs.lost
    }

    /// Whether each worm's head crossed a corrupting link in the last
    /// [`run_planned`](Self::run_planned), indexed by worm id.
    pub fn corrupted(&self) -> &[bool] {
        &self.bufs.corrupted
    }

    /// Directed link each worm was killed on in the last
    /// [`run_planned`](Self::run_planned) (`u32::MAX` if it completed).
    pub fn dropped_at(&self) -> &[u32] {
        &self.bufs.dropped_at
    }

    /// Directed link each worm's head first entered corrupted in the last
    /// [`run_planned`](Self::run_planned) (`u32::MAX` if clean).
    pub fn corrupted_at(&self) -> &[u32] {
        &self.bufs.corrupted_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSet;
    use crate::trace::{CountingRecorder, NopRecorder};

    #[test]
    fn lone_worm_pipelines() {
        let host = Hypercube::new(4);
        let mut sim = WormholeSim::new(host);
        sim.add_worm(Worm { path: vec![0, 1, 3, 7, 15], flits: 10 });
        let r = sim.run(1000, &mut NopRecorder);
        // 4 hops + 10 flits: tail arrives at 4 - 1 + 10 = 13.
        assert_eq!(r.makespan, 13);
    }

    #[test]
    fn single_hop_worm() {
        let host = Hypercube::new(3);
        let mut sim = WormholeSim::new(host);
        sim.add_worm(Worm { path: vec![0, 1], flits: 5 });
        let r = sim.run(100, &mut NopRecorder);
        assert_eq!(r.makespan, 5);
    }

    #[test]
    fn contending_worms_serialize() {
        let host = Hypercube::new(3);
        let mut sim = WormholeSim::new(host);
        sim.add_worm(Worm { path: vec![0, 1, 3], flits: 8 });
        sim.add_worm(Worm { path: vec![0, 1, 5], flits: 8 });
        let r = sim.run(1000, &mut NopRecorder);
        // Worm 0 holds (0,1) during steps 0..8; worm 1 starts after.
        assert_eq!(r.completion[0], 9);
        assert!(r.completion[1] >= 16, "second worm waits for the shared link");
    }

    #[test]
    fn disjoint_worms_run_in_parallel() {
        let host = Hypercube::new(3);
        let mut sim = WormholeSim::new(host);
        sim.add_worm(Worm { path: vec![0, 1, 3], flits: 8 });
        sim.add_worm(Worm { path: vec![4, 6, 7], flits: 8 });
        let r = sim.run(1000, &mut NopRecorder);
        assert_eq!(r.completion[0], 9);
        assert_eq!(r.completion[1], 9);
    }

    #[test]
    fn zero_hop_worm_completes_immediately() {
        let host = Hypercube::new(3);
        let mut sim = WormholeSim::new(host);
        sim.add_worm(Worm { path: vec![2], flits: 4 });
        let r = sim.run(10, &mut NopRecorder);
        assert_eq!(r.makespan, 0);
    }

    #[test]
    fn worm_dies_on_severed_link() {
        let host = Hypercube::new(3);
        let mut sim = WormholeSim::new(host);
        sim.add_worm(Worm { path: vec![0, 1, 3], flits: 4 });
        let mut fs = FaultSet::none(&host);
        fs.fail_link(&host, DirEdge::new(1, 1)); // second hop severed
        let r = sim.run_planned(100, &FaultPlan::from_set(fs), &mut NopRecorder);
        assert_eq!(r.lost, vec![true]);
        assert_eq!(r.lost_count(), 1);
        // The head crosses hop one at step 0, dies entering hop two at
        // step 1.
        assert_eq!(r.report.completion[0], 1);
    }

    #[test]
    fn mid_stream_cut_kills_holder_and_frees_blocked_worm() {
        let host = Hypercube::new(3);
        let mut sim = WormholeSim::new(host);
        // Worm 0 holds (0,1) for 50 flits; worm 1 needs that link.
        sim.add_worm(Worm { path: vec![0, 1, 3], flits: 50 });
        sim.add_worm(Worm { path: vec![0, 1, 5], flits: 2 });
        let mut plan = FaultPlan::none(&host);
        plan.cut_link_at(3, DirEdge::new(1, 1)); // a link worm 0 holds by step 3
        let r = sim.run_planned(1000, &plan, &mut NopRecorder);
        assert_eq!(r.lost, vec![true, false]);
        assert_eq!(r.report.completion[0], 3, "killed the step its held link was cut");
        // Worm 1 then acquires (0,1) and finishes far sooner than worm 0's
        // 50-flit stream would have allowed.
        assert!(r.report.completion[1] < 10, "blocked worm freed by the kill");
    }

    #[test]
    fn empty_plan_matches_plain_run_exactly() {
        let host = Hypercube::new(4);
        let mut sim = WormholeSim::new(host);
        sim.add_worm(Worm { path: vec![0, 1, 3, 7], flits: 6 });
        sim.add_worm(Worm { path: vec![0, 1, 5], flits: 3 });
        sim.add_worm(Worm { path: vec![8], flits: 2 });
        let plan = FaultPlan::none(&host);
        let pr = sim.run_planned(10_000, &plan, &mut NopRecorder);
        assert_eq!(pr.report, sim.run(10_000, &mut NopRecorder));
        assert_eq!(pr.lost_count(), 0);
        assert_eq!(pr.corrupted_count(), 0);
    }

    #[test]
    fn plan_outage_restores_the_link_for_later_worms() {
        let host = Hypercube::new(3);
        // Worm 0 streams 12 flits through (0,0), delaying worm 1's head
        // past the outage window on worm 1's second link.
        let mut sim = WormholeSim::new(host);
        sim.add_worm(Worm { path: vec![0, 1], flits: 12 });
        sim.add_worm(Worm { path: vec![0, 1, 3], flits: 2 });
        let mut plan = FaultPlan::none(&host);
        plan.outage(DirEdge::new(1, 1), 2, 10);
        let r = sim.run_planned(1000, &plan, &mut NopRecorder);
        assert_eq!(r.lost, vec![false, false], "nobody touches the link while it is down");
        assert_eq!(r.corrupted, vec![false, false]);
        // Under a permanent cut at the same step, worm 1 dies instead —
        // the restore is what saved it above.
        let mut cut = FaultPlan::none(&host);
        cut.cut_link_at(2, DirEdge::new(1, 1));
        let r2 = sim.run_planned(1000, &cut, &mut NopRecorder);
        assert_eq!(r2.lost, vec![false, true]);
    }

    #[test]
    fn corrupting_link_flags_worms_without_killing_them() {
        let host = Hypercube::new(3);
        let mut sim = WormholeSim::new(host);
        sim.add_worm(Worm { path: vec![0, 1, 3], flits: 4 });
        sim.add_worm(Worm { path: vec![4, 6], flits: 2 });
        let mut plan = FaultPlan::none(&host);
        plan.corrupt_link(&host, DirEdge::new(0, 0));
        let mut c = CountingRecorder::new();
        let r = sim.run_planned(1000, &plan, &mut c);
        assert_eq!(
            r.report,
            sim.run(1000, &mut NopRecorder),
            "corruption must not change the machine run"
        );
        assert_eq!(r.lost, vec![false, false]);
        assert_eq!(r.corrupted, vec![true, false]);
        assert_eq!(c.corrupted, 1);
    }

    #[test]
    fn plan_node_fault_kills_worms_through_the_node() {
        let host = Hypercube::new(3);
        let mut sim = WormholeSim::new(host);
        sim.add_worm(Worm { path: vec![0, 1, 3], flits: 4 }); // via node 1
        sim.add_worm(Worm { path: vec![4, 6], flits: 2 }); // avoids node 1
        let mut plan = FaultPlan::none(&host);
        plan.cut_node(&host, 1);
        let r = sim.run_planned(1000, &plan, &mut NopRecorder);
        assert_eq!(r.lost, vec![true, false]);
        assert_eq!(r.corrupted_count(), 0);
    }

    #[test]
    fn engines_agree_under_contention() {
        // Smoke-level old-vs-new equivalence (the randomized version lives
        // in tests/props.rs).
        let host = Hypercube::new(4);
        let mut sim = WormholeSim::new(host);
        sim.add_worm(Worm { path: vec![0, 1, 3, 7], flits: 6 });
        sim.add_worm(Worm { path: vec![0, 1, 5], flits: 3 });
        sim.add_worm(Worm { path: vec![2, 3, 7, 15], flits: 9 });
        sim.add_worm(Worm { path: vec![8], flits: 2 });
        assert_eq!(sim.run(10_000, &mut NopRecorder), sim.run_reference(10_000));
    }
}

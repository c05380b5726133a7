//! Wormhole (cut-through) routing simulation (Section 7).
//!
//! A *worm* is a message of `flits` flits following one fixed path. Its
//! head advances one hop per step when the next link is free and stalls
//! while another worm holds it. The body streams behind with buffering:
//! the link of hop `h`, entered by the head at step `entered[h]`, is held
//! until its last flit has crossed and is free again from step
//! `entered[h] + flits` on, whether or not the head has stalled since.
//! The tail arrives, and the worm completes, at
//! `entered[last] + flits`. Store-and-forward would charge
//! `Θ(hops + queue_delays)` *per message re-queue*, i.e. `Θ(n·M)` for an
//! `M`-flit message crossing `n` links under contention; wormhole
//! pipelining charges `hops + M` when the path is clear — the contrast
//! experiment E10 measures.
//!
//! [`WormholeSim`] is the one engine. Per-worm link sequences are
//! precomputed once, on load, into a flat hop table, and the step loop is
//! event-driven: it visits a worm only when its state can change. A head
//! blocked on a held link is parked behind the hop that holds it and
//! woken when that hop lets go; both due times a head crossing sets —
//! the hop's release and, on the last hop, the completion — go into a
//! calendar ring. Each step visits its ready worms in ascending id order,
//! the arbitration of the engine's specification, the step-every-worm
//! `hyperpath_bench::oracle::wormhole_oracle` outside the product.

use crate::faults::{FaultPlan, LinkEvent};
use crate::packet::walk_links;
use crate::trace::Recorder;
use hyperpath_topology::{DirEdge, Hypercube, Node};

/// "No worm / no hop" in the engine's link fields and intrusive lists.
const NONE: u32 = u32::MAX;

/// Every buffer the wormhole step machine mutates, grouped so a
/// [`WormholeSim`] can keep them alive across runs. `holder`
/// is link-indexed and left **clean** (all [`NONE`]) by every completed
/// run — a finishing or dying worm releases everything it held — so reuse
/// needs no O(links) reset; the per-worm and per-hop vectors and the
/// calendar ring are re-prepared by the caller before each run.
#[derive(Debug, Clone, Default)]
struct WormBufs {
    /// Per directed link: the global hop index (into the simulator's
    /// `worm_links`) of the hop holding it, or [`NONE`].
    holder: Vec<u32>,
    failed: Vec<bool>,
    lost: Vec<bool>,
    corrupted: Vec<bool>,
    dropped_at: Vec<u32>,
    corrupted_at: Vec<u32>,
    /// Per hop: the step the head crossed it.
    entered: Vec<u64>,
    /// Per hop: the first worm parked behind the link this hop holds.
    waiters: Vec<u32>,
    /// Per hop: the next hop released at the same step.
    hop_next: Vec<u32>,
    head: Vec<usize>,
    completion: Vec<u64>,
    /// Per worm: the next worm in the same wait list or completion list
    /// (a worm is in at most one).
    worm_next: Vec<u32>,
    /// Bitset over worm ids: the worms the current (or next) pass visits.
    ready: Vec<u64>,
    /// Calendar ring, slot `step % len`: hops released at the end of
    /// `step`.
    release_at: Vec<u32>,
    /// Calendar ring, slot `step % len`: worms whose completion visit is
    /// due at `step`.
    complete_at: Vec<u32>,
}

impl WormBufs {
    /// Marks `w` ready. A bit above the pass cursor is visited in the
    /// current step, one at or below it in the next.
    #[inline]
    fn set_ready(&mut self, w: u32) {
        self.ready[w as usize / 64] |= 1 << (w % 64);
    }

    /// Marks ready every worm of the `worm_next` list starting at `w`.
    #[inline]
    fn set_ready_list(&mut self, mut w: u32) {
        while w != NONE {
            self.set_ready(w);
            w = self.worm_next[w as usize];
        }
    }

    /// Frees `link`, held by `hop`, and wakes every worm parked behind
    /// that hop.
    #[inline]
    fn free(&mut self, link: usize, hop: u32) {
        self.holder[link] = NONE;
        let parked = std::mem::replace(&mut self.waiters[hop as usize], NONE);
        self.set_ready_list(parked);
    }

    /// Kills worm `w` (hops from global index `off`) at `step`, dropped on
    /// link `at`: every hop still holding its link lets go.
    fn kill<R: Recorder>(
        &mut self,
        w: usize,
        off: usize,
        worm_links: &[u32],
        at: usize,
        step: u64,
        rec: &mut R,
    ) {
        for (hop, &l) in (off as u32..).zip(&worm_links[off..off + self.head[w]]) {
            if self.holder[l as usize] == hop {
                self.free(l as usize, hop);
            }
        }
        self.completion[w] = step;
        self.lost[w] = true;
        self.dropped_at[w] = at as u32;
        rec.record_drop(w as u32, step);
    }

    /// Files `entry` (with intrusive links `next`) in the ring slot of
    /// step `due`, unless `due` lies past `max_steps`: such an entry can
    /// only matter to a run that panics first.
    #[inline]
    fn schedule(ring: &mut [u32], next: &mut [u32], entry: u32, due: u64, max_steps: u64) {
        if due <= max_steps {
            let s = (due % ring.len() as u64) as usize;
            next[entry as usize] = ring[s];
            ring[s] = entry;
        }
    }
}

/// The step machine behind [`WormholeSim`], over the simulator's prepared
/// buffers `b` (see [`WormBufs`]); nothing in here allocates. Results land
/// in `b` (`completion`, and when `PLAN` also `lost`, `corrupted`,
/// `dropped_at`, `corrupted_at`). `PLAN` is the one fault switch: off,
/// every fault branch monomorphizes away; on, `plan_events` fire at the
/// start of their step and corrupting links flag the worms whose heads
/// enter them.
///
/// A step fires its plan events, queues the completions due, visits the
/// ready worms in ascending id order, then releases the hops due at its
/// end. A worm is visited only when its state can change: after an
/// advance (for its next hop), on its completion step, or when the hop it
/// is parked behind lets go of the link (tail release, completion or
/// death of the holder). A worm killed while queued or parked is dropped
/// when it comes up.
#[allow(clippy::too_many_arguments)]
fn worm_core<R: Recorder, const PLAN: bool>(
    host: &Hypercube,
    worm_off: &[u32],
    worm_links: &[u32],
    worm_flits: &[u64],
    max_steps: u64,
    plan_events: &[(u64, DirEdge, LinkEvent)],
    corrupting: &[bool],
    b: &mut WormBufs,
    rec: &mut R,
) {
    let num_worms = worm_off.len() - 1;
    debug_assert!(
        b.holder.iter().all(|&h| h == NONE),
        "caller handed the engine dirty machine state"
    );
    let ring = b.release_at.len() as u64;
    let mut next_event = 0usize;

    // Zero-hop worms complete instantly; the rest are ready for step 0.
    let mut live = 0usize;
    for wid in 0..num_worms as u32 {
        rec.record_injection(wid, 1, 0);
        if worm_off[wid as usize + 1] > worm_off[wid as usize] {
            b.set_ready(wid);
            live += 1;
        } else {
            rec.record_delivery(wid, 0);
        }
    }

    let mut step = 0u64;
    while live > 0 {
        let slot = (step % ring) as usize;
        // Fault events for this step fire before anything moves; a
        // worm holding a newly severed link dies on the spot. A plan's
        // [`LinkEvent::Up`] merely reopens the link — dead worms stay
        // dead, and no live head is parked on a failed link.
        if PLAN {
            while next_event < plan_events.len() && plan_events[next_event].0 <= step {
                let (_, edge, ev) = plan_events[next_event];
                for idx in [host.dir_edge_index(edge), host.dir_edge_index(edge.reversed())] {
                    match ev {
                        LinkEvent::Down => {
                            b.failed[idx] = true;
                            let hop = b.holder[idx];
                            if hop != NONE {
                                let w = worm_off.partition_point(|&o| o <= hop) - 1;
                                b.kill(w, worm_off[w] as usize, worm_links, idx, step, rec);
                                live -= 1;
                            }
                        }
                        LinkEvent::Up => b.failed[idx] = false,
                    }
                }
                next_event += 1;
            }
        }
        // Completion visits due this step join the pass.
        let due = std::mem::replace(&mut b.complete_at[slot], NONE);
        b.set_ready_list(due);
        // Visit the ready worms, lowest id first (arbitration). The word
        // is re-read after every visit: a worm woken above the cursor
        // joins this pass.
        let mut advanced = 0u64;
        for word in 0..b.ready.len() {
            let mut lo = 0u32;
            while lo < 64 {
                let bits = b.ready[word] & (u64::MAX << lo);
                if bits == 0 {
                    break;
                }
                let bit = bits.trailing_zeros();
                b.ready[word] &= !(1 << bit);
                lo = bit + 1;
                let wid = (word * 64) as u32 + bit;
                let w = wid as usize;
                if PLAN && b.lost[w] {
                    continue;
                }
                let off = worm_off[w] as usize;
                let hops = worm_off[w + 1] as usize - off;
                let flits = worm_flits[w];
                if b.head[w] < hops {
                    let hop = off + b.head[w];
                    let idx = worm_links[hop] as usize;
                    if PLAN && b.failed[idx] {
                        // The head ran into a severed link: the worm
                        // dies, releasing everything it held.
                        b.kill(w, off, worm_links, idx, step, rec);
                        live -= 1;
                        continue;
                    }
                    let h = b.holder[idx];
                    if h != NONE {
                        // Park behind the holding hop until it lets go.
                        b.worm_next[w] = b.waiters[h as usize];
                        b.waiters[h as usize] = wid;
                        continue;
                    }
                    b.holder[idx] = hop as u32;
                    // The head entering a byte-corrupting link taints the
                    // whole flit stream (once); the worm still completes
                    // normally.
                    if PLAN && corrupting[idx] && !b.corrupted[w] {
                        b.corrupted[w] = true;
                        b.corrupted_at[w] = idx as u32;
                        rec.record_corrupt(wid, step);
                    }
                    b.entered[hop] = step;
                    b.head[w] += 1;
                    advanced += 1;
                    // The hop's last flit crosses during step
                    // `step + flits - 1`.
                    let release = step + flits - 1;
                    WormBufs::schedule(
                        &mut b.release_at,
                        &mut b.hop_next,
                        hop as u32,
                        release,
                        max_steps,
                    );
                    if b.head[w] < hops {
                        b.set_ready(wid);
                    } else {
                        let due = (step + 1).max(release);
                        WormBufs::schedule(
                            &mut b.complete_at,
                            &mut b.worm_next,
                            wid,
                            due,
                            max_steps,
                        );
                    }
                } else {
                    // Completion visit: the tail has arrived. Every
                    // earlier hop has let go at its own release; the last
                    // still holds its link unless `flits == 1` released
                    // it at the end of the step it was entered.
                    let last = off + hops - 1;
                    let done = b.entered[last] + flits;
                    let l = worm_links[last] as usize;
                    if b.holder[l] == last as u32 {
                        b.free(l, last as u32);
                    }
                    b.completion[w] = done;
                    rec.record_delivery(wid, done);
                    rec.record_flit_moves(hops as u64 * flits);
                    live -= 1;
                }
            }
        }
        // Release the hops whose last flit crossed during this step.
        let mut hop = std::mem::replace(&mut b.release_at[slot], NONE);
        while hop != NONE {
            let l = worm_links[hop as usize] as usize;
            if b.holder[l] == hop {
                b.free(l, hop);
            }
            hop = b.hop_next[hop as usize];
        }
        rec.record_step(step, advanced);
        step += 1;
        if step > max_steps && live > 0 {
            panic!("wormhole simulation did not finish within {max_steps} steps");
        }
    }
    debug_assert!(
        b.holder.iter().all(|&h| h == NONE) && b.waiters.iter().all(|&w| w == NONE),
        "a finished run left a link held or a worm parked"
    );
}

/// The wormhole simulator for one host cube. The link-holder table is
/// allocated once, in [`new`](Self::new), and reused across runs; worms
/// are loaded as precomputed *directed-link* hop sequences
/// ([`add_worm_links`](Self::add_worm_links)) or as node walks
/// ([`add_worm`](Self::add_worm), converted on load). Lower worm ids win
/// link arbitration. Once warmed up, [`run`](Self::run) and
/// [`run_planned`](Self::run_planned) allocate nothing — a completed run
/// leaves every link released, so [`clear`](Self::clear) only truncates
/// the worm arena. Per-worm outcomes stay in the simulator:
/// [`completion`](Self::completion), and after a planned run
/// [`lost`](Self::lost), [`corrupted`](Self::corrupted),
/// [`dropped_at`](Self::dropped_at) and
/// [`corrupted_at`](Self::corrupted_at).
#[derive(Debug, Clone)]
pub struct WormholeSim {
    host: Hypercube,
    worm_off: Vec<u32>,
    worm_links: Vec<u32>,
    worm_flits: Vec<u64>,
    bufs: WormBufs,
}

impl WormholeSim {
    /// Creates a simulator for `host` with no worms, allocating the
    /// link-holder table up front.
    pub fn new(host: Hypercube) -> Self {
        let num_links = host.num_directed_edges() as usize;
        WormholeSim {
            host,
            worm_off: vec![0],
            worm_links: Vec::new(),
            worm_flits: Vec::new(),
            bufs: WormBufs { holder: vec![NONE; num_links], ..WormBufs::default() },
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
    /// so loading and running a round of known size does not grow the
    /// worm arena or the per-worm and per-hop run buffers step by step.
    pub fn reserve(&mut self, worms: usize, hops: usize) {
        self.worm_off.reserve(worms);
        self.worm_flits.reserve(worms);
        self.worm_links.reserve(hops);
        let (worms, hops) = (self.worm_flits.len() + worms, self.worm_links.len() + hops);
        fn room<T>(v: &mut Vec<T>, len: usize) {
            v.reserve(len.saturating_sub(v.len()));
        }
        let b = &mut self.bufs;
        room(&mut b.entered, hops);
        room(&mut b.waiters, hops);
        room(&mut b.hop_next, hops);
        room(&mut b.head, worms);
        room(&mut b.completion, worms);
        room(&mut b.worm_next, worms);
        room(&mut b.ready, worms.div_ceil(64));
    }

    /// Adds one worm as a sequence of directed link indices
    /// ([`Hypercube::dir_edge_index`]) that must chain head-to-tail —
    /// exactly the links [`add_worm`](Self::add_worm) derives from the
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

    /// Adds one worm of `flits` flits following the node walk `path`,
    /// whose hop links are derived straight into the simulator. A zero-hop
    /// walk completes at step 0. Returns the worm id.
    ///
    /// # Panics
    /// Panics if `path` is not a walk in the host cube or `flits` is 0.
    pub fn add_worm(&mut self, path: &[Node], flits: u64) -> u32 {
        assert!(self.host.is_walk(path), "worm path must be a walk");
        assert!(flits >= 1);
        self.worm_links.extend(walk_links(self.host, path));
        self.push_worm(flits)
    }

    /// Closes the worm whose hops were just appended to `worm_links`.
    fn push_worm(&mut self, flits: u64) -> u32 {
        self.worm_off.push(self.worm_links.len() as u32);
        self.worm_flits.push(flits);
        (self.worm_flits.len() - 1) as u32
    }

    /// Runs the loaded worms to completion and returns the makespan,
    /// firing every engine event on `rec`: one [`Recorder::record_step`]
    /// per step with the number of head advances, a
    /// [`Recorder::record_delivery`] plus `hops x flits`
    /// [`Recorder::record_flit_moves`] when a worm's tail arrives. Pass
    /// [`NopRecorder`](crate::trace::NopRecorder), which monomorphizes
    /// every hook away, for an uninstrumented run. Per-worm completion
    /// times stay in the simulator ([`completion`](Self::completion)).
    ///
    /// # Panics
    /// Panics if worms remain in flight after `max_steps`.
    pub fn run<R: Recorder>(&mut self, max_steps: u64, rec: &mut R) -> u64 {
        self.run_core::<R, false>(max_steps, None, rec)
    }

    /// Runs the loaded worms under `plan` and returns the makespan. A worm
    /// dies the moment a fault touches it: either its head tries to enter
    /// a severed link, or a link it currently holds is severed mid-stream
    /// (the cut corrupts the flit stream, so the whole message is lost). A
    /// killed worm releases every link it held — worms blocked behind it
    /// may then proceed — its [`completion`](Self::completion) entry
    /// records the step it died, and it emits [`Recorder::record_drop`]
    /// instead of a delivery. Transient outages restore links
    /// ([`LinkEvent::Up`] — a restored link is usable again, but worms
    /// already killed stay dead), and a worm whose head crosses a
    /// byte-corrupting link is flagged ([`Recorder::record_corrupt`], once
    /// per worm) while still streaming to completion. With an empty plan
    /// the makespan and completion times are bit-identical to
    /// [`run`](Self::run)'s. Per-worm outcomes stay in the simulator —
    /// read them via [`lost`](Self::lost) /
    /// [`corrupted`](Self::corrupted) / [`dropped_at`](Self::dropped_at) /
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
        let WormholeSim { host, worm_off, worm_links, worm_flits, bufs } = self;
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
        let hops = worm_links.len();
        bufs.entered.clear();
        bufs.entered.resize(hops, 0);
        bufs.waiters.clear();
        bufs.waiters.resize(hops, NONE);
        bufs.hop_next.clear();
        bufs.hop_next.resize(hops, NONE);
        bufs.head.clear();
        bufs.head.resize(num_worms, 0);
        bufs.completion.clear();
        bufs.completion.resize(num_worms, 0);
        bufs.worm_next.clear();
        bufs.worm_next.resize(num_worms, NONE);
        bufs.ready.clear();
        bufs.ready.resize(num_worms.div_ceil(64), 0);
        // Every due time lies less than the longest worm's `flits` steps
        // ahead of the step that sets it, and none past `max_steps`
        // matters, so the ring needs no more slots than either bound.
        let longest = worm_flits.iter().copied().max().unwrap_or(1);
        let ring = longest.min(max_steps.saturating_add(1)).max(1) as usize;
        bufs.release_at.clear();
        bufs.release_at.resize(ring, NONE);
        bufs.complete_at.clear();
        bufs.complete_at.resize(ring, NONE);
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

    /// Per-worm completion times of the last run (tail arrival, or the
    /// step a planned run killed the worm), indexed by worm id.
    pub fn completion(&self) -> &[u64] {
        &self.bufs.completion
    }

    /// Whether each worm was killed by a link fault in the last
    /// [`run_planned`](Self::run_planned), indexed by worm id.
    pub fn lost(&self) -> &[bool] {
        &self.bufs.lost
    }

    /// Whether each worm's head crossed a byte-corrupting link in the last
    /// [`run_planned`](Self::run_planned), indexed by worm id (a corrupted
    /// worm still completes — only its payload is untrustworthy).
    pub fn corrupted(&self) -> &[bool] {
        &self.bufs.corrupted
    }

    /// Directed-link index each worm was killed on in the last
    /// [`run_planned`](Self::run_planned) (`u32::MAX` if it completed) —
    /// the NACK location an oracle-free health learner can attribute.
    pub fn dropped_at(&self) -> &[u32] {
        &self.bufs.dropped_at
    }

    /// Directed-link index of the corrupting link each worm's head first
    /// entered in the last [`run_planned`](Self::run_planned) (`u32::MAX`
    /// if its payload stayed clean).
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
        sim.add_worm(&[0, 1, 3, 7, 15], 10);
        // 4 hops + 10 flits: tail arrives at 4 - 1 + 10 = 13.
        assert_eq!(sim.run(1000, &mut NopRecorder), 13);
    }

    #[test]
    fn single_hop_worm() {
        let host = Hypercube::new(3);
        let mut sim = WormholeSim::new(host);
        sim.add_worm(&[0, 1], 5);
        assert_eq!(sim.run(100, &mut NopRecorder), 5);
    }

    #[test]
    fn contending_worms_serialize() {
        let host = Hypercube::new(3);
        let mut sim = WormholeSim::new(host);
        sim.add_worm(&[0, 1, 3], 8);
        sim.add_worm(&[0, 1, 5], 8);
        sim.run(1000, &mut NopRecorder);
        // Worm 0 holds (0,1) during steps 0..8; worm 1 starts after.
        assert_eq!(sim.completion()[0], 9);
        assert!(sim.completion()[1] >= 16, "second worm waits for the shared link");
    }

    #[test]
    fn disjoint_worms_run_in_parallel() {
        let host = Hypercube::new(3);
        let mut sim = WormholeSim::new(host);
        sim.add_worm(&[0, 1, 3], 8);
        sim.add_worm(&[4, 6, 7], 8);
        sim.run(1000, &mut NopRecorder);
        assert_eq!(sim.completion(), [9, 9]);
    }

    #[test]
    fn zero_hop_worm_completes_immediately() {
        let host = Hypercube::new(3);
        let mut sim = WormholeSim::new(host);
        sim.add_worm(&[2], 4);
        assert_eq!(sim.run(10, &mut NopRecorder), 0);
    }

    #[test]
    fn worm_dies_on_severed_link() {
        let host = Hypercube::new(3);
        let mut sim = WormholeSim::new(host);
        sim.add_worm(&[0, 1, 3], 4);
        let mut fs = FaultSet::none(&host);
        fs.fail_link(&host, DirEdge::new(1, 1)); // second hop severed
        sim.run_planned(100, &FaultPlan::from_set(fs), &mut NopRecorder);
        assert_eq!(sim.lost(), [true]);
        // The head crosses hop one at step 0, dies entering hop two at
        // step 1.
        assert_eq!(sim.completion()[0], 1);
    }

    #[test]
    fn mid_stream_cut_kills_holder_and_frees_blocked_worm() {
        let host = Hypercube::new(3);
        let mut sim = WormholeSim::new(host);
        // Worm 0 holds (0,1) for 50 flits; worm 1 needs that link.
        sim.add_worm(&[0, 1, 3], 50);
        sim.add_worm(&[0, 1, 5], 2);
        let mut plan = FaultPlan::none(&host);
        plan.cut_link_at(3, DirEdge::new(1, 1)); // a link worm 0 holds by step 3
        sim.run_planned(1000, &plan, &mut NopRecorder);
        assert_eq!(sim.lost(), [true, false]);
        assert_eq!(sim.completion()[0], 3, "killed the step its held link was cut");
        // Worm 1 then acquires (0,1) and finishes far sooner than worm 0's
        // 50-flit stream would have allowed.
        assert!(sim.completion()[1] < 10, "blocked worm freed by the kill");
    }

    #[test]
    fn empty_plan_matches_plain_run_exactly() {
        let host = Hypercube::new(4);
        let mut sim = WormholeSim::new(host);
        sim.add_worm(&[0, 1, 3, 7], 6);
        sim.add_worm(&[0, 1, 5], 3);
        sim.add_worm(&[8], 2);
        let plan = FaultPlan::none(&host);
        let planned = sim.run_planned(10_000, &plan, &mut NopRecorder);
        let completion = sim.completion().to_vec();
        assert_eq!(sim.lost(), [false; 3]);
        assert_eq!(sim.corrupted(), [false; 3]);
        assert_eq!(sim.run(10_000, &mut NopRecorder), planned);
        assert_eq!(sim.completion(), completion);
    }

    #[test]
    fn plan_outage_restores_the_link_for_later_worms() {
        let host = Hypercube::new(3);
        // Worm 0 streams 12 flits through (0,0), delaying worm 1's head
        // past the outage window on worm 1's second link.
        let mut sim = WormholeSim::new(host);
        sim.add_worm(&[0, 1], 12);
        sim.add_worm(&[0, 1, 3], 2);
        let mut plan = FaultPlan::none(&host);
        plan.outage(DirEdge::new(1, 1), 2, 10);
        sim.run_planned(1000, &plan, &mut NopRecorder);
        assert_eq!(sim.lost(), [false, false], "nobody touches the link while it is down");
        assert_eq!(sim.corrupted(), [false, false]);
        // Under a permanent cut at the same step, worm 1 dies instead —
        // the restore is what saved it above.
        let mut cut = FaultPlan::none(&host);
        cut.cut_link_at(2, DirEdge::new(1, 1));
        sim.run_planned(1000, &cut, &mut NopRecorder);
        assert_eq!(sim.lost(), [false, true]);
    }

    #[test]
    fn corrupting_link_flags_worms_without_killing_them() {
        let host = Hypercube::new(3);
        let mut sim = WormholeSim::new(host);
        sim.add_worm(&[0, 1, 3], 4);
        sim.add_worm(&[4, 6], 2);
        let mut plan = FaultPlan::none(&host);
        plan.corrupt_link(&host, DirEdge::new(0, 0));
        let mut c = CountingRecorder::new();
        let planned = sim.run_planned(1000, &plan, &mut c);
        let completion = sim.completion().to_vec();
        assert_eq!(sim.lost(), [false, false]);
        assert_eq!(sim.corrupted(), [true, false]);
        assert_eq!(c.corrupted, 1);
        assert_eq!(
            (sim.run(1000, &mut NopRecorder), sim.completion()),
            (planned, &completion[..]),
            "corruption must not change the machine run"
        );
    }

    #[test]
    fn plan_node_fault_kills_worms_through_the_node() {
        let host = Hypercube::new(3);
        let mut sim = WormholeSim::new(host);
        sim.add_worm(&[0, 1, 3], 4); // via node 1
        sim.add_worm(&[4, 6], 2); // avoids node 1
        let mut plan = FaultPlan::none(&host);
        plan.cut_node(&host, 1);
        sim.run_planned(1000, &plan, &mut NopRecorder);
        assert_eq!(sim.lost(), [true, false]);
        assert_eq!(sim.corrupted(), [false, false]);
    }

    #[test]
    fn completion_frees_only_its_own_last_hop() {
        // Worm 0's completion at step 3 must not free 0→1, which worm 1
        // entered at step 2 and streams 5 flits through until step 6:
        // worm 2 gets the link only when worm 1 completes in step 6.
        let host = Hypercube::new(3);
        let mut sim = WormholeSim::new(host);
        sim.add_worm(&[0, 1, 3, 7], 2);
        sim.add_worm(&[0, 1], 5);
        sim.add_worm(&[0, 1], 1);
        assert_eq!(sim.run(1000, &mut NopRecorder), 7);
        assert_eq!(sim.completion(), [4, 7, 7]);
    }

    #[test]
    fn re_entered_link_is_released_on_its_own_hop() {
        // Both walks cross a link twice; the second crossing holds it for
        // its own `flits` steps, not on the first crossing's schedule.
        let host = Hypercube::new(2);
        let mut sim = WormholeSim::new(host);
        sim.add_worm(&[3, 1, 0, 1, 0], 4);
        sim.add_worm(&[0, 1, 0, 2, 3], 3);
        assert_eq!(sim.run(1000, &mut NopRecorder), 13);
        assert_eq!(sim.completion(), [9, 13]);
    }

    #[test]
    #[should_panic(expected = "did not finish within 100 steps")]
    fn long_worm_hits_the_step_cap_not_the_allocator() {
        // The calendar ring is sized by `max_steps`, not by `flits`.
        let host = Hypercube::new(3);
        let mut sim = WormholeSim::new(host);
        sim.add_worm(&[0, 1, 3], 1 << 40);
        sim.run(100, &mut NopRecorder);
    }
}

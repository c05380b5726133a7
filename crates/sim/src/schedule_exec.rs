//! Executes a `PhaseSchedule` on the synchronous machine model.
//!
//! A verified schedule is a *certificate*: it claims every packet can cross
//! its assigned hops at its assigned steps with no directed link carrying
//! two packets in one step. [`run_schedule`] replays the schedule on the
//! simulator's clock — packets advance exactly when their `hop_starts` say,
//! wait in their next link's queue between hops — and re-checks the
//! one-packet-per-link-per-step invariant hop by hop while measuring the
//! same quantities [`PacketSim::run`] reports. Conformance tests compare
//! the measured makespan against the theorem's certified cost, closing the
//! loop between the combinatorial proofs and the executable machine.
//!
//! [`PacketSim::run`]: crate::packet::PacketSim::run

use crate::packet::SimReport;
use hyperpath_embedding::{MultiPathEmbedding, PhaseSchedule};
use std::collections::HashMap;

/// Replays `schedule` on `e`'s host and reports the measured run.
///
/// Errors on any malformed or conflicting schedule (out-of-range indices,
/// hop count ≠ path length, non-increasing hop steps, or two packets on one
/// directed link in one step) — the same conditions `PhaseSchedule::verify`
/// rejects, but detected here by the executing machine itself.
///
/// Report semantics match [`PacketSim::run`](crate::packet::PacketSim::run):
/// `makespan` is the step after the last arrival, `max_queue` counts the
/// packets waiting for one directed link in one step (a packet occupies its
/// next link's queue from its arrival at the link's tail node through the
/// step it crosses), and `mean_utilization` averages busy links over the
/// makespan.
pub fn run_schedule(e: &MultiPathEmbedding, schedule: &PhaseSchedule) -> Result<SimReport, String> {
    let host = e.host;
    let num_links = host.num_directed_edges() as usize;

    // (step, link) -> transmission index, for the conflict re-check.
    let mut crossing: HashMap<(u64, u32), usize> = HashMap::new();
    // (step, link) -> packets queued there during the step.
    let mut queued: HashMap<(u64, u32), usize> = HashMap::new();

    let mut makespan = 0u64;
    let mut packet_hops = 0u64;
    let mut max_queue = 0usize;
    for (ti, t) in schedule.transmissions.iter().enumerate() {
        let bundle = e.edge_paths.get(t.guest_edge).ok_or_else(|| {
            format!("transmission {ti}: guest edge {} out of range", t.guest_edge)
        })?;
        let path = bundle
            .get(t.path_idx)
            .ok_or_else(|| format!("transmission {ti}: path index {} out of range", t.path_idx))?;
        if t.hop_starts.len() != path.len() {
            return Err(format!(
                "transmission {ti}: {} hop steps for a {}-hop path",
                t.hop_starts.len(),
                path.len()
            ));
        }
        let mut arrived_at = 0u64; // step the packet reached the hop's source
        for (h, (edge, &start)) in path.edges().zip(&t.hop_starts).enumerate() {
            if start < arrived_at {
                return Err(format!(
                    "transmission {ti}: hop {h} starts at {start} before the packet \
                     arrives at its source (step {arrived_at})"
                ));
            }
            let link = host.dir_edge_index(edge) as u32;
            if let Some(&other) = crossing.get(&(start, link)) {
                return Err(format!(
                    "step {start}: directed link {edge:?} crossed by transmissions {other} and {ti}"
                ));
            }
            crossing.insert((start, link), ti);
            // The packet sits in this link's queue from arrival through the
            // crossing step (matching PacketSim's pop-time measurement).
            for s in arrived_at..=start {
                let depth = queued.entry((s, link)).or_insert(0);
                *depth += 1;
                max_queue = max_queue.max(*depth);
            }
            packet_hops += 1;
            arrived_at = start + 1;
        }
        makespan = makespan.max(t.arrival());
    }

    Ok(SimReport {
        makespan,
        delivered: schedule.transmissions.len() as u64,
        packet_hops,
        mean_utilization: if makespan == 0 {
            0.0
        } else {
            packet_hops as f64 / (makespan as f64 * num_links as f64)
        },
        max_queue,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpath_core::baseline::gray_cycle_embedding;
    use hyperpath_core::cycles::theorem1;
    use hyperpath_embedding::{PhaseSchedule, Transmission};

    #[test]
    fn natural_schedule_of_theorem1_executes_at_cost() {
        let t1 = theorem1(6).unwrap();
        let r = run_schedule(&t1.embedding, &t1.schedule).unwrap();
        assert_eq!(r.makespan, t1.cost);
        assert_eq!(r.delivered, t1.schedule.transmissions.len() as u64);
    }

    #[test]
    fn gray_natural_schedule_is_one_step() {
        let e = gray_cycle_embedding(4);
        let s = PhaseSchedule::all_paths_at_once(&e);
        let r = run_schedule(&e, &s).unwrap();
        assert_eq!(r.makespan, 1);
        assert_eq!(r.max_queue, 1);
        assert_eq!(r.packet_hops, r.delivered);
    }

    #[test]
    fn conflicting_schedule_rejected() {
        let e = gray_cycle_embedding(3);
        let s = PhaseSchedule {
            transmissions: vec![
                Transmission::consecutive(0, 0, 0, 1),
                Transmission::consecutive(0, 0, 0, 1),
            ],
        };
        assert!(run_schedule(&e, &s).is_err());
    }

    #[test]
    fn premature_hop_rejected() {
        // Second hop scheduled before the packet finished the first.
        let t1 = theorem1(4).unwrap();
        let mut s = t1.schedule.clone();
        let t = s.transmissions.iter_mut().find(|t| t.hop_starts.len() >= 2).unwrap();
        t.hop_starts[1] = t.hop_starts[0];
        assert!(run_schedule(&t1.embedding, &s).is_err());
    }

    #[test]
    fn waiting_packets_counted_in_queues() {
        // Two packets on one link at step 0 and 1: the later one waits.
        let e = gray_cycle_embedding(3);
        let s = PhaseSchedule {
            transmissions: vec![
                Transmission::consecutive(0, 0, 0, 1),
                Transmission::consecutive(0, 0, 1, 1),
            ],
        };
        let r = run_schedule(&e, &s).unwrap();
        assert_eq!(r.makespan, 2);
        assert_eq!(r.max_queue, 2, "the delayed packet queues behind the first");
    }
}

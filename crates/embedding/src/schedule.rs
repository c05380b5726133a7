//! Phase schedules: explicit step-by-step witnesses of `p`-packet costs.
//!
//! Section 3 defines the `p`-packet cost of an embedding as the number of
//! synchronous time units needed for one phase of the guest computation when
//! each message holds `p` packets and each directed host link carries at most
//! one packet per unit. The theorem proofs exhibit *schedules*: every packet
//! is assigned a path and a time step for each hop (store-and-forward —
//! packets may wait at intermediate nodes). [`PhaseSchedule::verify`] checks
//! the no-conflict invariant (no directed host edge carries two packets in
//! the same step), so a verified schedule of makespan `c` in which every
//! guest edge sends `p` packets is a constructive proof that the `p`-packet
//! cost is at most `c`.

use crate::map::MultiPathEmbedding;
use hyperpath_topology::LinkBuildHasher;
use std::collections::HashMap;

/// One packet transmission: guest edge `guest_edge` sends one packet along
/// bundle path `path_idx`; hop `h` of the path is crossed at step
/// `hop_starts[h]` (strictly increasing; steps count from 0). Packets may
/// wait at intermediate nodes (gaps between consecutive hop steps).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transmission {
    /// Guest edge whose message this packet belongs to.
    pub guest_edge: usize,
    /// Index into the edge's path bundle.
    pub path_idx: usize,
    /// Step at which each hop of the path is crossed. Empty for zero-length
    /// paths (source and destination share a host node).
    pub hop_starts: Vec<u64>,
}

impl Transmission {
    /// A packet that advances one hop per step starting at `start` along a
    /// path of `len` hops.
    pub fn consecutive(guest_edge: usize, path_idx: usize, start: u64, len: usize) -> Self {
        Transmission {
            guest_edge,
            path_idx,
            hop_starts: (0..len as u64).map(|h| start + h).collect(),
        }
    }

    /// The step after the packet's last hop (0 for zero-length paths).
    pub fn arrival(&self) -> u64 {
        self.hop_starts.last().map_or(0, |&s| s + 1)
    }
}

/// A full phase schedule: a set of transmissions, one per packet.
#[derive(Debug, Clone, Default)]
pub struct PhaseSchedule {
    /// All packet transmissions of the phase.
    pub transmissions: Vec<Transmission>,
}

impl PhaseSchedule {
    /// The schedule in which every guest edge sends one packet down every
    /// path of its bundle, all launching at step 0 and advancing one hop per
    /// step — the natural schedule for the width-`w` embeddings of Theorems
    /// 1, 2 and 4.
    pub fn all_paths_at_once(e: &MultiPathEmbedding) -> PhaseSchedule {
        let transmissions = e
            .all_paths()
            .map(|(guest_edge, path_idx, p)| {
                Transmission::consecutive(guest_edge, path_idx, 0, p.len())
            })
            .collect();
        PhaseSchedule { transmissions }
    }

    /// Greedy conflict-free schedule with store-and-forward waiting: each
    /// packet's hops are placed one at a time at the earliest conflict-free
    /// step. This is the fallback certifier for parameter regimes where the
    /// paper's implicit power-of-two assumptions fail and the natural
    /// all-at-step-0 schedule collides (see DESIGN.md); its makespan
    /// *measures* the achievable cost there.
    pub fn greedy(e: &MultiPathEmbedding) -> PhaseSchedule {
        let host = e.host;
        let mut busy: std::collections::HashSet<(u64, usize)> = std::collections::HashSet::new();
        let mut transmissions = Vec::new();
        for (guest_edge, path_idx, path) in e.all_paths() {
            let mut hop_starts = Vec::with_capacity(path.len());
            let mut t = 0u64;
            for edge in path.edges() {
                let idx = host.dir_edge_index(edge);
                while busy.contains(&(t, idx)) {
                    t += 1;
                }
                busy.insert((t, idx));
                hop_starts.push(t);
                t += 1;
            }
            transmissions.push(Transmission { guest_edge, path_idx, hop_starts });
        }
        PhaseSchedule { transmissions }
    }

    /// Phase-aligned conflict-free schedule: all hop-0 edges cross first,
    /// then all hop-1 edges, and so on; within one hop class, packets
    /// wanting the same directed edge are split into consecutive rounds.
    /// This reproduces the paper's cost arguments directly — e.g. Theorem
    /// 2's "one cycle chosen twice adds one to the congestion on middle
    /// edges, and to the cost as well": hop classes with per-edge congestion
    /// `c_h` contribute `c_h` steps, for a makespan of `Σ_h c_h`.
    pub fn phase_aligned(e: &MultiPathEmbedding) -> PhaseSchedule {
        let host = e.host;
        let max_hops = e.all_paths().map(|(_, _, p)| p.len()).max().unwrap_or(0);
        let mut transmissions: Vec<Transmission> = e
            .all_paths()
            .map(|(guest_edge, path_idx, p)| Transmission {
                guest_edge,
                path_idx,
                hop_starts: Vec::with_capacity(p.len()),
            })
            .collect();
        // Rounds taken so far on each directed link within the current hop
        // class.
        let mut rounds = vec![0u64; host.num_directed_edges() as usize];
        let mut offset = 0u64;
        for h in 0..max_hops {
            rounds.fill(0);
            let mut class_width = 0u64;
            for (ti, (_, _, path)) in e.all_paths().enumerate() {
                if let Some(edge) = path.edges().nth(h) {
                    let r = &mut rounds[host.dir_edge_index(edge)];
                    transmissions[ti].hop_starts.push(offset + *r);
                    class_width = class_width.max(*r + 1);
                    *r += 1;
                }
            }
            offset += class_width.max(1);
        }
        PhaseSchedule { transmissions }
    }

    /// Number of steps until the last packet arrives.
    pub fn makespan(&self, _e: &MultiPathEmbedding) -> u64 {
        self.transmissions.iter().map(Transmission::arrival).max().unwrap_or(0)
    }

    /// Minimum number of packets any guest edge sends — the `p` for which
    /// this schedule witnesses a `p`-packet cost.
    pub fn packets_per_edge(&self, e: &MultiPathEmbedding) -> u64 {
        let mut counts = vec![0u64; e.guest.num_edges()];
        for t in &self.transmissions {
            counts[t.guest_edge] += 1;
        }
        counts.into_iter().min().unwrap_or(0)
    }

    /// Verifies the schedule: indices in range, hop steps strictly
    /// increasing and matching the path length, and **no directed host edge
    /// is crossed by two packets in the same step**. The busy map is keyed
    /// by `(step, link)` and sized from the hop count, so memory stays
    /// proportional to the hops whatever the step values.
    pub fn verify(&self, e: &MultiPathEmbedding) -> Result<(), String> {
        let host = e.host;
        let hops = self.transmissions.iter().map(|t| t.hop_starts.len()).sum();
        let mut busy: HashMap<(u64, usize), (usize, usize), LinkBuildHasher> =
            HashMap::with_capacity_and_hasher(hops, LinkBuildHasher::default());
        for (ti, t) in self.transmissions.iter().enumerate() {
            let bundle = e
                .edge_paths
                .get(t.guest_edge)
                .ok_or_else(|| format!("transmission {ti}: guest edge out of range"))?;
            let path = bundle
                .get(t.path_idx)
                .ok_or_else(|| format!("transmission {ti}: path index out of range"))?;
            if t.hop_starts.len() != path.len() {
                return Err(format!(
                    "transmission {ti}: {} hop steps for a {}-hop path",
                    t.hop_starts.len(),
                    path.len()
                ));
            }
            if t.hop_starts.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("transmission {ti}: hop steps must strictly increase"));
            }
            for (edge, &step) in path.edges().zip(&t.hop_starts) {
                let key = (step, host.dir_edge_index(edge));
                if let Some(&(oe, op)) = busy.get(&key) {
                    return Err(format!(
                        "step {step}: directed edge {edge:?} used by guest edge {} path {} \
                         and guest edge {oe} path {op}",
                        t.guest_edge, t.path_idx
                    ));
                }
                busy.insert(key, (t.guest_edge, t.path_idx));
            }
        }
        Ok(())
    }

    /// Verifies and summarizes: returns `(p, cost)` where every guest edge
    /// ships at least `p` packets and all packets arrive within `cost` steps.
    /// A caller that has just verified the schedule reads
    /// [`packets_per_edge`](Self::packets_per_edge) and
    /// [`makespan`](Self::makespan) instead of verifying twice.
    pub fn certified_cost(&self, e: &MultiPathEmbedding) -> Result<(u64, u64), String> {
        self.verify(e)?;
        Ok((self.packets_per_edge(e), self.makespan(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::HostPath;
    use hyperpath_guests::directed_cycle;
    use hyperpath_topology::{gray_code, Hypercube};

    fn gray_embedding(n: u32) -> MultiPathEmbedding {
        let host = Hypercube::new(n);
        let len = host.num_nodes() as u32;
        let guest = directed_cycle(len);
        let vertex_map: Vec<u64> = (0..len as u64).map(gray_code).collect();
        let edge_paths = guest
            .edges()
            .iter()
            .map(|&(u, v)| {
                vec![HostPath::new(vec![vertex_map[u as usize], vertex_map[v as usize]])]
            })
            .collect();
        MultiPathEmbedding { host, guest, vertex_map, edge_paths }
    }

    #[test]
    fn gray_one_packet_cost_is_one() {
        let e = gray_embedding(4);
        let s = PhaseSchedule::all_paths_at_once(&e);
        let (p, cost) = s.certified_cost(&e).unwrap();
        assert_eq!(p, 1);
        assert_eq!(cost, 1);
    }

    #[test]
    fn sequential_packets_on_one_path() {
        // m packets on a single path must serialize: cost m (Section 2's
        // point about the classical embedding).
        let e = gray_embedding(3);
        let m = 5u64;
        let transmissions = (0..e.guest.num_edges())
            .flat_map(|ge| (0..m).map(move |i| Transmission::consecutive(ge, 0, i, 1)))
            .collect();
        let s = PhaseSchedule { transmissions };
        let (p, cost) = s.certified_cost(&e).unwrap();
        assert_eq!(p, m);
        assert_eq!(cost, m);
    }

    #[test]
    fn conflict_detected() {
        let e = gray_embedding(3);
        let s = PhaseSchedule {
            transmissions: vec![
                Transmission::consecutive(0, 0, 0, 1),
                Transmission::consecutive(0, 0, 0, 1),
            ],
        };
        assert!(s.verify(&e).is_err());
    }

    #[test]
    fn waiting_at_intermediate_nodes_is_allowed() {
        let host = Hypercube::new(3);
        let guest = directed_cycle(2);
        let p0 = HostPath::from_dims(0, &[0, 1, 0]);
        let back = HostPath::from_dims(0b010, &[1]);
        let e = MultiPathEmbedding {
            host,
            guest,
            vertex_map: vec![0, 0b010],
            edge_paths: vec![vec![p0], vec![back]],
        };
        let t = Transmission { guest_edge: 0, path_idx: 0, hop_starts: vec![0, 3, 4] };
        assert_eq!(t.arrival(), 5);
        let s = PhaseSchedule { transmissions: vec![t, Transmission::consecutive(1, 0, 0, 1)] };
        s.verify(&e).unwrap();
        assert_eq!(s.makespan(&e), 5);
    }

    #[test]
    fn non_monotone_hops_rejected() {
        let e = gray_embedding(3);
        let s = PhaseSchedule {
            transmissions: vec![Transmission { guest_edge: 0, path_idx: 0, hop_starts: vec![] }],
        };
        assert!(s.verify(&e).is_err(), "hop count must match path length");
    }

    #[test]
    fn pipelining_on_longer_path_is_conflict_free() {
        // A 3-hop path can carry a new packet every step.
        let host = Hypercube::new(3);
        let guest = directed_cycle(2);
        let p0 = HostPath::from_dims(0, &[0, 1, 0]);
        let back = HostPath::from_dims(0b010, &[1]);
        let e = MultiPathEmbedding {
            host,
            guest,
            vertex_map: vec![0, 0b010],
            edge_paths: vec![vec![p0], vec![back]],
        };
        let mut transmissions: Vec<Transmission> =
            (0..4).map(|i| Transmission::consecutive(0, 0, i, 3)).collect();
        transmissions.push(Transmission::consecutive(1, 0, 0, 1));
        let s = PhaseSchedule { transmissions };
        s.verify(&e).unwrap();
        assert_eq!(s.makespan(&e), 6); // last packet starts at 3, 3 hops
        assert_eq!(s.packets_per_edge(&e), 1);
    }

    #[test]
    fn greedy_waits_instead_of_restarting() {
        // Two 2-hop paths sharing only their first edge: greedy shifts the
        // second packet's first hop but lets it follow immediately after.
        let host = Hypercube::new(3);
        let guest = directed_cycle(2);
        let pa = HostPath::from_dims(0, &[0, 1]);
        let pb = HostPath::from_dims(0, &[0, 2]);
        let back = HostPath::from_dims(0b011, &[0, 1]);
        let e = MultiPathEmbedding {
            host,
            guest,
            vertex_map: vec![0, 0b011],
            edge_paths: vec![vec![pa, pb], vec![back]],
        };
        let s = PhaseSchedule::greedy(&e);
        s.verify(&e).unwrap();
        assert_eq!(s.makespan(&e), 3, "second path: first hop at 1, second at 2");
    }

    #[test]
    fn out_of_range_indices_rejected() {
        let e = gray_embedding(3);
        let s = PhaseSchedule { transmissions: vec![Transmission::consecutive(999, 0, 0, 1)] };
        assert!(s.verify(&e).is_err());
        let s2 = PhaseSchedule { transmissions: vec![Transmission::consecutive(0, 7, 0, 1)] };
        assert!(s2.verify(&e).is_err());
    }
}

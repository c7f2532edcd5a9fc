//! Multi-core-aware (SMP) broadcast — the three-phase scheme the paper's
//! Section I describes for medium messages with non-power-of-two process
//! counts:
//!
//! 1. intra-node broadcast on the **root's node** (binomial tree),
//! 2. **inter-node** broadcast among the node leaders
//!    (scatter-ring-allgather — native or tuned),
//! 3. intra-node broadcast on **every other node** (binomial tree).
//!
//! Rank→node placement is *block* (consecutive ranks fill a node before the
//! next node starts), which is the default placement on the paper's Hornet
//! system.

use mpsim::{AsyncCommunicator, CommError, Rank, Result};

use crate::bcast::{bcast_ops, bcast_skeleton, Algorithm};
use crate::binomial::binomial_ops;
use crate::interp::Interp;
use crate::schedule::{renumber, SchedOp, Schedule, ScheduleSource};

/// Block placement of ranks onto nodes with a fixed number of cores per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeMap {
    /// Ranks per node (24 on Hornet, 8 on Laki).
    pub cores_per_node: usize,
}

impl NodeMap {
    /// New block placement with `cores_per_node` ranks per node.
    pub fn new(cores_per_node: usize) -> Self {
        assert!(cores_per_node >= 1);
        Self { cores_per_node }
    }

    /// Node index hosting `rank`.
    pub fn node_of(&self, rank: Rank) -> usize {
        rank / self.cores_per_node
    }

    /// Number of nodes needed for a world of `size` ranks.
    pub fn node_count(&self, size: usize) -> usize {
        size.div_ceil(self.cores_per_node)
    }

    /// Leader (lowest rank) of `node`.
    pub fn leader_of(&self, node: usize) -> Rank {
        node * self.cores_per_node
    }
}

/// Rank `rank`'s ops of the three-phase SMP broadcast. Each phase is a flat
/// broadcast stream over a sub-world — the root's node, the node leaders,
/// this rank's own node — with peers renumbered into the full world; a rank
/// outside a phase's sub-world contributes nothing to it. Block placement
/// makes every sub-world an arithmetic progression, so the renumbering is a
/// closed form rather than a member list.
pub fn smp_ops(
    rank: Rank,
    p: usize,
    nbytes: usize,
    root: Rank,
    nodes: &NodeMap,
    inter_algorithm: Algorithm,
) -> Vec<SchedOp> {
    let cpn = nodes.cores_per_node;
    let (root_node, my_node) = (nodes.node_of(root), nodes.node_of(rank));
    let first = nodes.leader_of(my_node);
    let width = (first + cpn).min(p) - first;
    // Intra-node binomial over this rank's node, rooted at world rank `at`.
    let intra = |at: Rank| {
        renumber(binomial_ops(rank - first, width, nbytes, at - first).into_iter(), move |l| {
            first + l
        })
    };
    let mut ops = Vec::new();
    // Phase 1: the root's node, so its leader holds the data.
    if my_node == root_node {
        ops.extend(intra(root));
    }
    // Phase 2: inter-node broadcast among the node leaders.
    if rank == first {
        let leaders = nodes.node_count(p);
        let inter = bcast_ops(inter_algorithm, my_node, leaders, nbytes, root_node);
        ops.extend(renumber(inter.into_iter(), move |l| l * cpn));
    }
    // Phase 3: every other node, rooted at its leader.
    if my_node != root_node {
        ops.extend(intra(first));
    }
    ops
}

/// Three-phase SMP-aware broadcast: [`smp_ops`] through the interpreter.
///
/// `inter_algorithm` selects the inter-node (leader) phase —
/// [`Algorithm::ScatterRingNative`] reproduces the MPICH3 behaviour the paper
/// describes, [`Algorithm::ScatterRingTuned`] is the optimized variant. Fails
/// with [`CommError::Unsupported`] before posting anything when
/// `inter_algorithm` is not defined for the leader count.
pub async fn bcast_smp_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    buf: &mut [u8],
    root: Rank,
    nodes: &NodeMap,
    inter_algorithm: Algorithm,
) -> Result<()> {
    comm.check_rank(root)?;
    let p = comm.size();
    let leaders = nodes.node_count(p);
    if !inter_algorithm.supports(leaders) {
        return Err(CommError::Unsupported {
            what: inter_algorithm.schedule_name(),
            size: leaders,
        });
    }
    let ops = smp_ops(comm.rank(), p, buf.len(), root, nodes, inter_algorithm);
    Interp::new(comm, buf).run(ops).await.map(drop)
}

/// The symbolic schedule of [`bcast_smp_async`]: every rank's [`smp_ops`].
pub fn bcast_smp_schedule(
    p: usize,
    nbytes: usize,
    root: Rank,
    nodes: &NodeMap,
    inter_algorithm: Algorithm,
) -> Schedule {
    let name = match inter_algorithm {
        Algorithm::ScatterRingTuned => "bcast/smp_tuned",
        Algorithm::ScatterRingNative => "bcast/smp_native",
        Algorithm::Binomial => "bcast/smp_binomial",
        Algorithm::ScatterRdAllgather => "bcast/smp_scatter_rd",
    };
    let mut s = bcast_skeleton(name, p, nbytes, root);
    for rank in 0..p {
        s.ranks[rank].ops = smp_ops(rank, p, nbytes, root, nodes, inter_algorithm);
    }
    s
}

struct SmpSource {
    inter: Algorithm,
}

impl ScheduleSource for SmpSource {
    fn name(&self) -> &'static str {
        match self.inter {
            Algorithm::ScatterRingTuned => "bcast/smp_tuned",
            _ => "bcast/smp_native",
        }
    }

    fn supports(&self, _p: usize) -> bool {
        true
    }

    fn schedule(&self, p: usize, nbytes: usize, root: Rank) -> Schedule {
        bcast_smp_schedule(p, nbytes, root, &NodeMap::new(4), self.inter)
    }
}

pub(crate) fn schedule_sources() -> Vec<Box<dyn ScheduleSource>> {
    vec![
        Box::new(SmpSource { inter: Algorithm::ScatterRingNative }),
        Box::new(SmpSource { inter: Algorithm::ScatterRingTuned }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::{complete_now, Communicator, SyncComm, ThreadWorld};

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 101 + 17) as u8).collect()
    }

    #[test]
    fn node_map_block_placement() {
        let m = NodeMap::new(4);
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(3), 0);
        assert_eq!(m.node_of(4), 1);
        assert_eq!(m.node_count(9), 3);
        assert_eq!(m.leader_of(2), 8);
    }

    #[test]
    fn smp_bcast_completes() {
        for &(size, cpn, nbytes, root) in &[
            (12usize, 4usize, 120usize, 0usize),
            (12, 4, 120, 5), // root not a leader
            (10, 4, 97, 9),  // ragged last node, root on it
            (9, 3, 50, 4),
            (8, 8, 64, 3), // single node
            (6, 1, 30, 2), // one rank per node (pure inter)
            (24, 6, 12288, 13),
        ] {
            for algorithm in [Algorithm::ScatterRingNative, Algorithm::ScatterRingTuned] {
                let src = pattern(nbytes);
                ThreadWorld::run(size, |comm| {
                    let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
                    complete_now(bcast_smp_async(
                        &SyncComm::new(comm),
                        &mut buf,
                        root,
                        &NodeMap::new(cpn),
                        algorithm,
                    ))
                    .unwrap();
                    assert_eq!(buf, src, "rank {} (size={size} cpn={cpn})", comm.rank());
                });
            }
        }
    }

    #[test]
    fn smp_bcast_completes_on_event_world() {
        let (size, cpn, nbytes, root) = (10usize, 4usize, 97usize, 9usize);
        let src = pattern(nbytes);
        mpsim::EventWorld::run(size, |comm| {
            let src = src.clone();
            async move {
                let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
                let nodes = NodeMap::new(cpn);
                bcast_smp_async(&comm, &mut buf, root, &nodes, Algorithm::ScatterRingTuned)
                    .await
                    .unwrap();
                assert_eq!(buf, src, "rank {}", comm.rank());
            }
        });
    }

    #[test]
    fn inter_node_traffic_only_between_leaders() {
        let (size, cpn) = (12usize, 4usize);
        let nodes = NodeMap::new(cpn);
        let out = ThreadWorld::run(size, |comm| {
            let mut buf = if comm.rank() == 0 { pattern(120) } else { vec![0u8; 120] };
            complete_now(bcast_smp_async(
                &SyncComm::new(comm),
                &mut buf,
                0,
                &NodeMap::new(cpn),
                Algorithm::ScatterRingTuned,
            ))
            .unwrap();
        });
        for (src, st) in out.traffic.per_rank.iter().enumerate() {
            for (&dst, pt) in &st.by_peer {
                if pt.msgs_sent > 0 && nodes.node_of(src) != nodes.node_of(dst) {
                    // inter-node messages must be leader-to-leader
                    assert_eq!(src % cpn, 0, "non-leader {src} sent inter-node");
                    assert_eq!(dst % cpn, 0, "non-leader {dst} received inter-node");
                }
            }
        }
    }

    #[test]
    fn smp_tuned_reduces_inter_node_messages() {
        let (size, cpn, nbytes) = (20usize, 4usize, 400usize);
        let nodes = NodeMap::new(cpn);
        let count_inter = |algorithm: Algorithm| {
            let out = ThreadWorld::run(size, |comm| {
                let mut buf = if comm.rank() == 0 { pattern(nbytes) } else { vec![0u8; nbytes] };
                complete_now(bcast_smp_async(
                    &SyncComm::new(comm),
                    &mut buf,
                    0,
                    &NodeMap::new(cpn),
                    algorithm,
                ))
                .unwrap();
            });
            out.traffic.split_msgs(|a, b| nodes.node_of(a) == nodes.node_of(b)).1
        };
        let native = count_inter(Algorithm::ScatterRingNative);
        let tuned = count_inter(Algorithm::ScatterRingTuned);
        // 5 leaders: native ring 5·4 = 20 msgs + 4 scatter; tuned 5²−Σown.
        assert_eq!(native, 20 + 4);
        assert!(tuned < native, "tuned {tuned} native {native}");
    }

    #[test]
    fn single_rank_world_is_noop() {
        ThreadWorld::run(1, |comm| {
            let mut buf = vec![1, 2, 3];
            complete_now(bcast_smp_async(
                &SyncComm::new(comm),
                &mut buf,
                0,
                &NodeMap::new(4),
                Algorithm::ScatterRingTuned,
            ))
            .unwrap();
        });
    }
}

//! Sub-communicators: a view of a parent [`AsyncCommunicator`] restricted to
//! a subset of its ranks (the moral equivalent of `MPI_Comm_split`).
//!
//! The multi-core-aware broadcast of the paper's Section I runs three phases
//! on three different process groups (root's node, the node leaders, every
//! other node). `SubComm` provides exactly that: local ranks `0..members.len()`
//! mapped onto parent ranks, with a dissemination barrier built from tagged
//! point-to-point messages so that a barrier over a *subset* of the world
//! never involves non-members.
//!
//! Like every layer above the executors, the view is written once against
//! [`AsyncCommunicator`]; a blocking backend enters through
//! [`SyncComm`](crate::acomm::SyncComm) +
//! [`complete_now`](crate::acomm::complete_now).

use std::time::Duration;

use crate::acomm::AsyncCommunicator;
use crate::error::Result;
use crate::pool::{Payload, SharedBuf};
use crate::rank::{ceil_log2, Rank, Tag};

/// A communicator over a subset of a parent communicator's ranks.
///
/// `members` lists parent ranks; the local rank of `members[i]` is `i`.
/// Construct one *on every member rank* with identical `members` (mirroring
/// the collective nature of `MPI_Comm_split`).
pub struct SubComm<'a, C: ?Sized> {
    parent: &'a C,
    members: Vec<Rank>,
    my_local: Rank,
}

impl<'a, C: AsyncCommunicator + ?Sized> SubComm<'a, C> {
    /// Build the view for the calling rank. Returns `None` if the caller is
    /// not in `members`.
    ///
    /// Panics if `members` is empty, contains duplicates, or names an
    /// out-of-range parent rank — those are programming errors in the
    /// collective driver, not runtime conditions.
    pub fn new(parent: &'a C, members: Vec<Rank>) -> Option<Self> {
        assert!(!members.is_empty(), "sub-communicator needs at least one member");
        let parent_size = parent.size();
        let mut seen = vec![false; parent_size];
        for &m in &members {
            assert!(m < parent_size, "member rank {m} out of range");
            assert!(!seen[m], "duplicate member rank {m}");
            seen[m] = true;
        }
        let my_local = members.iter().position(|&m| m == parent.rank())?;
        Some(Self { parent, members, my_local })
    }

    /// Alias of [`SubComm::new`], kept because the frozen `benchmark/`
    /// package and `tests/comm_conformance.rs` construct the view under
    /// this name.
    pub fn new_async(parent: &'a C, members: Vec<Rank>) -> Option<Self> {
        Self::new(parent, members)
    }

    /// Collective split, the moral equivalent of `MPI_Comm_split`: every
    /// rank of the parent must call this with its `(color, key)`; ranks
    /// sharing a color form one sub-communicator, with local ranks ordered
    /// by `(key, parent rank)`. `color == None` (MPI_UNDEFINED) yields
    /// `None` — the rank joins no group but still participates in the
    /// exchange.
    ///
    /// Implemented as a gather-to-0 + broadcast of the `(color, key)` table
    /// over tagged point-to-point messages (control-plane traffic; it is
    /// counted like any other traffic).
    pub async fn split(parent: &'a C, color: Option<u64>, key: i64) -> Option<Self> {
        const SPLIT_GATHER: Tag = Tag(0xC0);
        const SPLIT_BCAST: Tag = Tag(0xC1);
        let size = parent.size();
        let rank = parent.rank();

        // Encode (has_color, color, key) in 17 bytes.
        let encode = |c: Option<u64>, k: i64| -> [u8; 17] {
            let mut b = [0u8; 17];
            b[0] = c.is_some() as u8;
            b[1..9].copy_from_slice(&c.unwrap_or(0).to_le_bytes());
            b[9..17].copy_from_slice(&k.to_le_bytes());
            b
        };
        let decode = |b: &[u8]| -> (Option<u64>, i64) {
            // lint: allow(panic) — wire format: the 17-byte header was length-checked
            let c = (b[0] != 0).then(|| u64::from_le_bytes(b[1..9].try_into().unwrap()));
            // lint: allow(panic) — wire format: the 17-byte header was length-checked
            let k = i64::from_le_bytes(b[9..17].try_into().unwrap());
            (c, k)
        };

        let mut table = vec![0u8; 17 * size];
        table[rank * 17..rank * 17 + 17].copy_from_slice(&encode(color, key));
        if rank == 0 {
            for peer in 1..size {
                parent
                    .recv(&mut table[peer * 17..peer * 17 + 17], peer, SPLIT_GATHER)
                    .await
                    // lint: allow(panic) — split protocol: every member reports exactly once
                    .expect("split gather failed");
            }
            for peer in 1..size {
                // lint: allow(panic) — split protocol: every member posts a matching recv
                parent.send(&table, peer, SPLIT_BCAST).await.expect("split bcast failed");
            }
        } else {
            parent
                .send(&table[rank * 17..rank * 17 + 17], 0, SPLIT_GATHER)
                .await
                // lint: allow(panic) — split protocol: every member reports exactly once
                .expect("split gather failed");
            // lint: allow(panic) — split protocol: a table from rank 0 always arrives
            parent.recv(&mut table, 0, SPLIT_BCAST).await.expect("split bcast failed");
        }

        let my_color = color?;
        let mut group: Vec<(i64, Rank)> = (0..size)
            .filter_map(|r| {
                let (c, k) = decode(&table[r * 17..r * 17 + 17]);
                (c == Some(my_color)).then_some((k, r))
            })
            .collect();
        group.sort_unstable();
        let members: Vec<Rank> = group.into_iter().map(|(_, r)| r).collect();
        Self::new(parent, members)
    }
}

impl<C: ?Sized> SubComm<'_, C> {
    /// Parent rank of local rank `local`.
    pub fn to_parent(&self, local: Rank) -> Rank {
        self.members[local]
    }

    /// Local rank of parent rank `parent_rank`, if it is a member.
    pub fn from_parent(&self, parent_rank: Rank) -> Option<Rank> {
        self.members.iter().position(|&m| m == parent_rank)
    }

    /// The member list (parent ranks, in local-rank order).
    pub fn members(&self) -> &[Rank] {
        &self.members
    }

    /// Translate failure-detector errors back into local rank space so
    /// recovery layers stacked on a SubComm reason in their own world.
    /// Non-member ranks are left untranslated (the caller can only act on
    /// them through the parent anyway).
    fn localize_err(&self, e: crate::error::CommError) -> crate::error::CommError {
        use crate::error::CommError;
        match e {
            CommError::Timeout { peer } => {
                CommError::Timeout { peer: self.from_parent(peer).unwrap_or(peer) }
            }
            CommError::PeerFailed { rank } => {
                CommError::PeerFailed { rank: self.from_parent(rank).unwrap_or(rank) }
            }
            other => other,
        }
    }
}

/// Rank translation on every peer argument, failure-detector errors
/// localized on the receive paths, and a member-only dissemination barrier
/// (the parent's world barrier would wait on non-members, which may already
/// be dead — the exact situation recovery sub-worlds are built for).
impl<C: AsyncCommunicator + ?Sized> AsyncCommunicator for SubComm<'_, C> {
    fn rank(&self) -> Rank {
        self.my_local
    }

    fn size(&self) -> usize {
        self.members.len()
    }

    fn now_ns(&self) -> u64 {
        self.parent.now_ns()
    }

    /// Dissemination barrier over the member set only.
    ///
    /// Round `k` (of `ceil(log2 n)`) has each member exchange a zero-byte
    /// token with the members `2^k` positions away. Distinct per-round tags
    /// keep rounds from overtaking each other.
    async fn barrier(&self) -> Result<()> {
        let n = self.members.len();
        if n == 1 {
            return Ok(());
        }
        let me = self.my_local;
        let rounds = ceil_log2(n);
        let mut token = [0u8; 0];
        for k in 0..rounds {
            let dist = 1usize << k;
            let to = (me + dist) % n;
            let from = (me + n - dist) % n;
            let tag = Tag(Tag::BARRIER.0 + k);
            self.sendrecv(&[], to, tag, &mut token, from, tag).await?;
        }
        Ok(())
    }

    fn make_shared(&self, data: &[u8]) -> SharedBuf {
        self.parent.make_shared(data)
    }

    fn note_copy(&self, bytes: usize) {
        self.parent.note_copy(bytes)
    }

    async fn post(&self, payload: Payload, dest: Rank, tag: Tag) -> Result<()> {
        self.check_rank(dest)?;
        self.parent.post(payload, self.members[dest], tag).await
    }

    async fn take(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> Result<Payload> {
        self.check_rank(src)?;
        let parent_src = self.members[src];
        self.parent.take(capacity, parent_src, tag, timeout).await.map_err(|e| self.localize_err(e))
    }

    async fn exchange(
        &self,
        payload: Payload,
        dest: Rank,
        sendtag: Tag,
        capacity: usize,
        src: Rank,
        recvtag: Tag,
    ) -> Result<Payload> {
        self.check_rank(dest)?;
        self.check_rank(src)?;
        let (dest, src) = (self.members[dest], self.members[src]);
        self.parent
            .exchange(payload, dest, sendtag, capacity, src, recvtag)
            .await
            .map_err(|e| self.localize_err(e))
    }

    async fn flush(&self, within: Option<Duration>) -> Result<()> {
        self.parent.flush(within).await.map_err(|e| self.localize_err(e))
    }

    async fn acknowledge(&self) -> Result<()> {
        self.parent.acknowledge().await.map_err(|e| self.localize_err(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acomm::{complete_now, SyncComm};
    use crate::comm::Communicator;
    use crate::error::CommError;
    use crate::thread_comm::ThreadWorld;

    #[test]
    fn rank_translation() {
        ThreadWorld::run(6, |comm| {
            let members = vec![1, 3, 5];
            match SubComm::new(&SyncComm::new(comm), members.clone()) {
                Some(sc) => {
                    assert!(members.contains(&comm.rank()));
                    assert_eq!(sc.size(), 3);
                    assert_eq!(sc.to_parent(sc.rank()), comm.rank());
                    assert_eq!(sc.from_parent(comm.rank()), Some(sc.rank()));
                    assert_eq!(sc.from_parent(0), None);
                }
                None => assert!(!members.contains(&comm.rank())),
            }
        });
    }

    #[test]
    fn send_recv_within_subset() {
        let out = ThreadWorld::run(5, |comm| {
            // members: 4, 2, 0 → local ranks 0, 1, 2
            let comm = SyncComm::new(comm);
            let Some(sc) = SubComm::new(&comm, vec![4, 2, 0]) else {
                return 0u8;
            };
            if sc.rank() == 0 {
                complete_now(sc.send(&[77], 2, Tag(1))).unwrap(); // parent rank 0
                0
            } else if sc.rank() == 2 {
                let mut b = [0u8; 1];
                complete_now(sc.recv(&mut b, 0, Tag(1))).unwrap(); // from parent rank 4
                b[0]
            } else {
                0
            }
        });
        assert_eq!(out.results[0], 77); // parent rank 0 was local rank 2
    }

    #[test]
    fn exited_member_is_reported_in_local_numbering() {
        // members: 4, 2, 0 → local ranks 0, 1, 2. Parent rank 2 (local 1)
        // exits without participating; its neighbours' exchanges must name
        // local rank 1, never parent rank 2 — recovery layers stacked on the
        // view index their member list with that rank.
        let out = ThreadWorld::run(5, |comm| {
            let comm = SyncComm::new(comm);
            let sc = SubComm::new(&comm, vec![4, 2, 0])?;
            if sc.rank() == 1 {
                return None;
            }
            let mut b = [0u8; 1];
            Some(complete_now(sc.sendrecv(&[1], 1, Tag(1), &mut b, 1, Tag(1))).unwrap_err())
        });
        for parent in [4, 0] {
            let err = out.results[parent].clone().expect("member ran the exchange");
            assert!(
                matches!(err, CommError::PeerFailed { rank: 1 } | CommError::Timeout { peer: 1 }),
                "parent rank {parent} saw {err:?}"
            );
        }
    }

    #[test]
    fn barrier_only_involves_members() {
        // Non-members never enter the barrier; it must still complete.
        ThreadWorld::run(7, |comm| {
            let members = vec![0, 2, 4, 6];
            if let Some(sc) = SubComm::new(&SyncComm::new(comm), members) {
                for _ in 0..5 {
                    complete_now(sc.barrier()).unwrap();
                }
            }
        });
    }

    #[test]
    fn barrier_synchronizes_members() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let arrived = AtomicUsize::new(0);
        ThreadWorld::run(6, |comm| {
            let members = vec![1, 2, 5];
            if let Some(sc) = SubComm::new(&SyncComm::new(comm), members) {
                arrived.fetch_add(1, Ordering::SeqCst);
                complete_now(sc.barrier()).unwrap();
                assert!(arrived.load(Ordering::SeqCst) >= 3);
            }
        });
    }

    #[test]
    fn single_member_subcomm_is_trivial() {
        ThreadWorld::run(3, |comm| {
            if let Some(sc) = SubComm::new(&SyncComm::new(comm), vec![comm.rank()]) {
                assert_eq!(sc.size(), 1);
                assert_eq!(sc.rank(), 0);
                complete_now(sc.barrier()).unwrap();
            }
        });
    }

    #[test]
    fn split_groups_by_color_and_orders_by_key() {
        ThreadWorld::run(6, |comm| {
            // colors: even/odd rank; key: descending rank → local ranks reversed
            let color = Some((comm.rank() % 2) as u64);
            let key = -(comm.rank() as i64);
            let acomm = SyncComm::new(comm);
            let sc =
                complete_now(SubComm::split(&acomm, color, key)).expect("every rank has a color");
            assert_eq!(sc.size(), 3);
            // members sorted by key: highest parent rank first
            let expect: Vec<usize> =
                if comm.rank() % 2 == 0 { vec![4, 2, 0] } else { vec![5, 3, 1] };
            assert_eq!(sc.members(), &expect[..]);
            assert_eq!(sc.to_parent(sc.rank()), comm.rank());
            // the new group is a working communicator
            complete_now(sc.barrier()).unwrap();
        });
    }

    #[test]
    fn split_with_undefined_color_joins_nothing() {
        ThreadWorld::run(4, |comm| {
            let color = (comm.rank() != 2).then_some(7u64);
            let acomm = SyncComm::new(comm);
            let sc = complete_now(SubComm::split(&acomm, color, comm.rank() as i64));
            if comm.rank() == 2 {
                assert!(sc.is_none());
            } else {
                let sc = sc.unwrap();
                assert_eq!(sc.members(), &[0, 1, 3]);
            }
        });
    }

    #[test]
    fn split_ties_break_by_parent_rank() {
        ThreadWorld::run(5, |comm| {
            let acomm = SyncComm::new(comm);
            let sc = complete_now(SubComm::split(&acomm, Some(0), 42)).unwrap(); // same key everywhere
            assert_eq!(sc.members(), &[0, 1, 2, 3, 4]);
            assert_eq!(sc.rank(), comm.rank());
        });
    }

    #[test]
    #[should_panic(expected = "duplicate member")]
    fn duplicate_members_panics() {
        ThreadWorld::run(2, |comm| {
            let _ = SubComm::new(&SyncComm::new(comm), vec![0, 0]);
        });
    }
}

//! Traffic accounting.
//!
//! The paper's central claim is a *transfer-count* reduction: the native ring
//! allgather moves `P·(P−1)` messages while the tuned one skips the redundant
//! ones (56 → 44 for `P = 8`, 90 → 75 for `P = 10`). Every backend therefore
//! counts messages and bytes per rank and per peer, so the analytic model in
//! `bcast-core::traffic` can be validated against what the runtime actually
//! did.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use crate::rank::Rank;

/// Traffic exchanged with one particular peer, as seen from one rank.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PeerTraffic {
    /// Messages sent to the peer.
    pub msgs_sent: u64,
    /// Payload bytes sent to the peer.
    pub bytes_sent: u64,
    /// Messages received from the peer.
    pub msgs_recvd: u64,
    /// Payload bytes received from the peer.
    pub bytes_recvd: u64,
}

/// Per-rank traffic statistics.
///
/// Zero-byte messages count as messages (they still occupy a send/receive
/// slot and pay latency, both in MPI and in our simulator), which matches how
/// the paper counts "data transmissions".
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TrafficStats {
    /// Total messages sent by this rank.
    pub msgs_sent: u64,
    /// Total payload bytes sent by this rank.
    pub bytes_sent: u64,
    /// Total messages received by this rank.
    pub msgs_recvd: u64,
    /// Total payload bytes received by this rank.
    pub bytes_recvd: u64,
    /// Payload bytes this rank moved through RAM with `memcpy` — envelope
    /// staging on sends, copy-out on receives, and the collectives' final
    /// copy into the user buffer. Zero-copy (`send_shared`/`recv_owned`)
    /// paths move refcounts instead, so this is
    /// the memory-bandwidth analogue of the paper's transfer count. Unlike
    /// the wire counters it is rank-local: copies have no matching "receive",
    /// so it plays no part in [`WorldTraffic::is_balanced`].
    pub bytes_copied: u64,
    /// Breakdown by peer rank.
    pub by_peer: BTreeMap<Rank, PeerTraffic>,
}

impl TrafficStats {
    /// Record one outgoing message of `bytes` payload to `dest`.
    pub fn record_send(&mut self, dest: Rank, bytes: usize) {
        self.msgs_sent += 1;
        self.bytes_sent += bytes as u64;
        let p = self.by_peer.entry(dest).or_default();
        p.msgs_sent += 1;
        p.bytes_sent += bytes as u64;
    }

    /// Record one incoming message of `bytes` payload from `src`.
    pub fn record_recv(&mut self, src: Rank, bytes: usize) {
        self.msgs_recvd += 1;
        self.bytes_recvd += bytes as u64;
        let p = self.by_peer.entry(src).or_default();
        p.msgs_recvd += 1;
        p.bytes_recvd += bytes as u64;
    }

    /// Record `bytes` of payload moved by memcpy on this rank.
    pub fn record_copy(&mut self, bytes: usize) {
        self.bytes_copied += bytes as u64;
    }

    /// Merge another rank-local record into this one (used for aggregation).
    pub fn merge(&mut self, other: &TrafficStats) {
        self.msgs_sent += other.msgs_sent;
        self.bytes_sent += other.bytes_sent;
        self.msgs_recvd += other.msgs_recvd;
        self.bytes_recvd += other.bytes_recvd;
        self.bytes_copied += other.bytes_copied;
        for (&peer, pt) in &other.by_peer {
            let p = self.by_peer.entry(peer).or_default();
            p.msgs_sent += pt.msgs_sent;
            p.bytes_sent += pt.bytes_sent;
            p.msgs_recvd += pt.msgs_recvd;
            p.bytes_recvd += pt.bytes_recvd;
        }
    }
}

/// Aggregated traffic of a whole world run (all ranks).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WorldTraffic {
    /// Per-rank statistics, indexed by rank.
    pub per_rank: Vec<TrafficStats>,
}

impl WorldTraffic {
    /// Build from per-rank stats.
    pub fn new(per_rank: Vec<TrafficStats>) -> Self {
        Self { per_rank }
    }

    /// Total messages sent across all ranks — the paper's "number of message
    /// transfers". Every message is counted once (at the sender).
    pub fn total_msgs(&self) -> u64 {
        self.per_rank.iter().map(|s| s.msgs_sent).sum()
    }

    /// Total payload bytes sent across all ranks.
    pub fn total_bytes(&self) -> u64 {
        self.per_rank.iter().map(|s| s.bytes_sent).sum()
    }

    /// Alias of [`total_msgs`](WorldTraffic::total_msgs): every message is
    /// one envelope on every path. Kept only because the frozen
    /// `benchmark/` package reads the total under this name; it goes in the
    /// next change that may touch that package.
    pub fn total_envelopes(&self) -> u64 {
        self.total_msgs()
    }

    /// Total payload bytes memcpy'd across all ranks — the copy bill the
    /// zero-copy fabric exists to shrink (see
    /// [`TrafficStats::bytes_copied`]).
    pub fn total_bytes_copied(&self) -> u64 {
        self.per_rank.iter().map(|s| s.bytes_copied).sum()
    }

    /// Sanity: globally, every send must have been received.
    pub fn is_balanced(&self) -> bool {
        let sent: u64 = self.per_rank.iter().map(|s| s.msgs_sent).sum();
        let recvd: u64 = self.per_rank.iter().map(|s| s.msgs_recvd).sum();
        let bsent: u64 = self.per_rank.iter().map(|s| s.bytes_sent).sum();
        let brecvd: u64 = self.per_rank.iter().map(|s| s.bytes_recvd).sum();
        sent == recvd && bsent == brecvd
    }

    /// Split total messages by a peer classifier (e.g. intra-node vs
    /// inter-node). `classify(src, dst)` returns `true` for the first bucket.
    ///
    /// Returns `(matching_msgs, other_msgs, matching_bytes, other_bytes)`.
    pub fn split_msgs<F: Fn(Rank, Rank) -> bool>(&self, classify: F) -> (u64, u64, u64, u64) {
        let (mut m0, mut m1, mut b0, mut b1) = (0, 0, 0, 0);
        for (src, st) in self.per_rank.iter().enumerate() {
            for (&dst, pt) in &st.by_peer {
                if classify(src, dst) {
                    m0 += pt.msgs_sent;
                    b0 += pt.bytes_sent;
                } else {
                    m1 += pt.msgs_sent;
                    b1 += pt.bytes_sent;
                }
            }
        }
        (m0, m1, b0, b1)
    }
}

/// Mailbox wakeup accounting: how many deliveries had to wake a blocked
/// receiver versus how many took the notify-free fast path.
///
/// The threaded backend's send path only issues a condvar notify when the
/// destination mailbox has a blocked waiter; these counters let tests and
/// benches assert that uncontended sends really skip the wakeup.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WakeupStats {
    /// Envelopes delivered (mailbox pushes).
    pub pushes: u64,
    /// Pushes that found a blocked receiver and issued a notify.
    pub notifies: u64,
}

/// Reactor introspection counters from one event-executor run.
///
/// These measure the *scheduler*, not the workload: traffic counters say
/// what the collective moved, these say what it cost the reactor to move
/// it. The threaded executor has no reactor: it reports `mailbox_spills`
/// (its mailboxes match through the same lanes) and zeros elsewhere.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReactorStats {
    /// Task enqueues onto the ready queue (deduplicated: a task already
    /// queued is not counted again).
    pub wakeups: u64,
    /// Polls that returned `Pending` — the task was woken (or speculatively
    /// polled at startup) without being able to make progress. The targeted
    /// wake paths exist to keep this near the workload's unavoidable floor.
    pub spurious_polls: u64,
    /// Timers disarmed while still pending — every `recv_timeout` satisfied
    /// by an in-time delivery cancels its deadline instead of leaving a
    /// stale entry for the reactor to trip over later.
    pub timer_cancels: u64,
    /// Envelopes that overflowed a mailbox lane's inline tag buckets into
    /// the spill map, on either executor. 0 for every built-in collective;
    /// nonzero only for wild-tag protocol traffic (see `event_mailbox`).
    pub mailbox_spills: u64,
}

/// Sentinel peer for an empty write-back slot ([`CounterCell`]).
const NO_PEER: Rank = Rank::MAX;

/// Interior-mutable counter cell used by rank-local communicator handles.
///
/// A communicator handle lives on exactly one thread, so `RefCell` suffices;
/// the world gathers the final values after the ranks join.
///
/// The stats live in two tiers so the per-message path touches only plain
/// `Cell`s:
///
/// * the five totals are individual `Cell<u64>`s — no `RefCell` flag, no
///   map, just load-add-store;
/// * the per-peer breakdown lives in a `BTreeMap`, which would otherwise
///   put one map lookup on *every* message of the event executor's hot
///   path. Collectives talk to the same peer for long runs (a ring rank
///   sends right and receives left for P−1 straight phases), so the cell
///   keeps one write-back slot per direction: increments for the current
///   peer accumulate in a `Cell` and are folded into the map only when the
///   peer changes or a snapshot is taken.
///
/// The folded values are exactly the per-message sums, so observable
/// statistics are bit-identical to recording straight into a
/// [`TrafficStats`].
#[derive(Debug, Default)]
pub struct CounterCell {
    msgs_sent: Cell<u64>,
    bytes_sent: Cell<u64>,
    msgs_recvd: Cell<u64>,
    bytes_recvd: Cell<u64>,
    bytes_copied: Cell<u64>,
    by_peer: RefCell<BTreeMap<Rank, PeerTraffic>>,
    /// Pending `(peer, msgs, bytes)` not yet folded into `by_peer`
    /// (send direction); `NO_PEER` marks the slot empty.
    hot_send: Cell<(Rank, u64, u64)>,
    /// Pending `(peer, msgs, bytes)` for the receive direction.
    hot_recv: Cell<(Rank, u64, u64)>,
}

impl CounterCell {
    /// Record an outgoing message.
    pub fn record_send(&self, dest: Rank, bytes: usize) {
        self.msgs_sent.set(self.msgs_sent.get() + 1);
        self.bytes_sent.set(self.bytes_sent.get() + bytes as u64);
        let (peer, m, b) = self.hot_send.get();
        if peer == dest {
            self.hot_send.set((peer, m + 1, b + bytes as u64));
        } else {
            self.fold_send(peer, m, b);
            self.hot_send.set((dest, 1, bytes as u64));
        }
    }

    /// Record an incoming message.
    pub fn record_recv(&self, src: Rank, bytes: usize) {
        self.msgs_recvd.set(self.msgs_recvd.get() + 1);
        self.bytes_recvd.set(self.bytes_recvd.get() + bytes as u64);
        let (peer, m, b) = self.hot_recv.get();
        if peer == src {
            self.hot_recv.set((peer, m + 1, b + bytes as u64));
        } else {
            self.fold_recv(peer, m, b);
            self.hot_recv.set((src, 1, bytes as u64));
        }
    }

    /// Record `bytes` of payload moved by memcpy on this rank.
    pub fn record_copy(&self, bytes: usize) {
        self.bytes_copied.set(self.bytes_copied.get() + bytes as u64);
    }

    fn fold_send(&self, peer: Rank, msgs: u64, bytes: u64) {
        if peer != NO_PEER {
            let mut map = self.by_peer.borrow_mut();
            let p = map.entry(peer).or_default();
            p.msgs_sent += msgs;
            p.bytes_sent += bytes;
        }
    }

    fn fold_recv(&self, peer: Rank, msgs: u64, bytes: u64) {
        if peer != NO_PEER {
            let mut map = self.by_peer.borrow_mut();
            let p = map.entry(peer).or_default();
            p.msgs_recvd += msgs;
            p.bytes_recvd += bytes;
        }
    }

    /// Fold both write-back slots into the map, emptying them.
    fn flush(&self) {
        let (peer, m, b) = self.hot_send.replace((NO_PEER, 0, 0));
        self.fold_send(peer, m, b);
        let (peer, m, b) = self.hot_recv.replace((NO_PEER, 0, 0));
        self.fold_recv(peer, m, b);
    }

    /// Snapshot the current statistics.
    pub fn snapshot(&self) -> TrafficStats {
        self.flush();
        TrafficStats {
            msgs_sent: self.msgs_sent.get(),
            bytes_sent: self.bytes_sent.get(),
            msgs_recvd: self.msgs_recvd.get(),
            bytes_recvd: self.bytes_recvd.get(),
            bytes_copied: self.bytes_copied.get(),
            by_peer: self.by_peer.borrow().clone(),
        }
    }

    /// Take the statistics out, leaving zeros.
    pub fn take(&self) -> TrafficStats {
        self.flush();
        TrafficStats {
            msgs_sent: self.msgs_sent.take(),
            bytes_sent: self.bytes_sent.take(),
            msgs_recvd: self.msgs_recvd.take(),
            bytes_recvd: self.bytes_recvd.take(),
            bytes_copied: self.bytes_copied.take(),
            by_peer: self.by_peer.take(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut s = TrafficStats::default();
        s.record_send(3, 100);
        s.record_send(3, 50);
        s.record_send(5, 0); // zero-byte message still counts
        s.record_recv(2, 10);
        assert_eq!(s.msgs_sent, 3);
        assert_eq!(s.bytes_sent, 150);
        assert_eq!(s.msgs_recvd, 1);
        assert_eq!(s.bytes_recvd, 10);
        assert_eq!(s.by_peer[&3].msgs_sent, 2);
        assert_eq!(s.by_peer[&3].bytes_sent, 150);
        assert_eq!(s.by_peer[&5].msgs_sent, 1);
        assert_eq!(s.by_peer[&5].bytes_sent, 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = TrafficStats::default();
        a.record_send(1, 10);
        let mut b = TrafficStats::default();
        b.record_send(1, 5);
        b.record_recv(0, 7);
        a.merge(&b);
        assert_eq!(a.msgs_sent, 2);
        assert_eq!(a.bytes_sent, 15);
        assert_eq!(a.msgs_recvd, 1);
        assert_eq!(a.by_peer[&1].msgs_sent, 2);
    }

    #[test]
    fn world_balance() {
        let mut s0 = TrafficStats::default();
        let mut s1 = TrafficStats::default();
        s0.record_send(1, 8);
        s1.record_recv(0, 8);
        let w = WorldTraffic::new(vec![s0, s1]);
        assert!(w.is_balanced());
        assert_eq!(w.total_msgs(), 1);
        assert_eq!(w.total_bytes(), 8);
    }

    #[test]
    fn world_unbalanced_detected() {
        let mut s0 = TrafficStats::default();
        s0.record_send(1, 8);
        let w = WorldTraffic::new(vec![s0, TrafficStats::default()]);
        assert!(!w.is_balanced());
    }

    #[test]
    fn split_by_classifier() {
        // ranks 0,1 on node A; rank 2 on node B (node = rank / 2)
        let node = |r: Rank| r / 2;
        let mut s0 = TrafficStats::default();
        s0.record_send(1, 4); // intra
        s0.record_send(2, 8); // inter
        let mut s1 = TrafficStats::default();
        s1.record_send(2, 16); // inter
        let w = WorldTraffic::new(vec![s0, s1, TrafficStats::default()]);
        let (intra_m, inter_m, intra_b, inter_b) = w.split_msgs(|a, b| node(a) == node(b));
        assert_eq!((intra_m, inter_m), (1, 2));
        assert_eq!((intra_b, inter_b), (4, 24));
    }

    #[test]
    fn counter_cell_take_resets() {
        let c = CounterCell::default();
        c.record_send(0, 1);
        assert_eq!(c.snapshot().msgs_sent, 1);
        let taken = c.take();
        assert_eq!(taken.msgs_sent, 1);
        assert_eq!(c.snapshot().msgs_sent, 0);
    }

    #[test]
    fn bytes_copied_is_rank_local() {
        let mut s0 = TrafficStats::default();
        s0.record_send(1, 8);
        s0.record_copy(8); // staging copy on the sender
        let mut s1 = TrafficStats::default();
        s1.record_recv(0, 8);
        // receiver took the envelope zero-copy: no copy recorded
        let w = WorldTraffic::new(vec![s0, s1]);
        assert!(w.is_balanced(), "copies must not unbalance wire traffic");
        assert_eq!(w.total_bytes_copied(), 8);

        let mut a = TrafficStats::default();
        a.record_copy(3);
        let mut b = TrafficStats::default();
        b.record_copy(4);
        a.merge(&b);
        assert_eq!(a.bytes_copied, 7);

        let c = CounterCell::default();
        c.record_copy(5);
        c.record_copy(6);
        assert_eq!(c.snapshot().bytes_copied, 11);
        assert_eq!(c.take().bytes_copied, 11);
        assert_eq!(c.snapshot().bytes_copied, 0);
    }
}

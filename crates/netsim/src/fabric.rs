//! The virtual-time matching engine.
//!
//! Every simulated rank runs on its own OS thread and carries a *virtual
//! clock*. Point-to-point operations post **offers** into the fabric; when a
//! send offer meets its matching receive offer, the fabric computes the
//! transfer's completion times from the [`NetworkModel`] and the per-node
//! resource timelines, advances the involved clocks, and wakes the blocked
//! threads. Blocking MPI semantics make each rank's timeline a chain of such
//! rendezvous, so no global event queue is needed.
//!
//! Matching is exact on `(source, destination, tag)` with FIFO order per
//! triple (MPI's non-overtaking rule), identical to the threaded backend.
//!
//! ## Determinism
//!
//! Shared resources (NIC ports, memory channels) are booked with
//! earliest-gap reservations ([`crate::resources::Timeline`]), so the
//! computed schedule does not depend on the wall-clock order in which OS
//! threads commit their matches, except when two transfers request the same
//! gap at the same virtual time — where either serialization order is
//! physically plausible and the makespan difference is bounded by one
//! transfer. Without contention the simulation is exactly deterministic.

#![allow(
    clippy::disallowed_methods,
    reason = "rank threads block on real condvars: a receive timeout is a wall-clock deadline"
)]

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

use mpsim::pool::{BufferPool, Payload, PoolStats, PooledBuf};
use mpsim::sync::{Condvar, Mutex};

use mpsim::{CommError, Rank, Result, Tag};

use crate::events::TransferEvent;
use crate::model::{NetworkModel, Protocol};
use crate::resources::Timeline;
use crate::topology::{Level, Placement};

/// Virtual time in nanoseconds.
pub type SimTime = f64;

/// A one-shot completion slot with its own wakeup channel.
struct Cell<T> {
    state: Mutex<Option<Result<T>>>,
    cv: Condvar,
}

impl<T> Cell<T> {
    fn new() -> Arc<Self> {
        Arc::new(Cell { state: Mutex::new(None), cv: Condvar::new() })
    }

    fn fill(&self, value: Result<T>) {
        let mut st = self.state.lock();
        debug_assert!(st.is_none(), "completion cell filled twice");
        *st = Some(value);
        self.cv.notify_all();
    }

    /// Fill only if still empty (used by teardown racing a normal fill).
    fn fill_if_empty(&self, value: Result<T>) {
        let mut st = self.state.lock();
        if st.is_none() {
            *st = Some(value);
            self.cv.notify_all();
        }
    }

    fn wait(&self) -> Result<T> {
        let mut st = self.state.lock();
        loop {
            if let Some(v) = st.take() {
                return v;
            }
            self.cv.wait(&mut st);
        }
    }

    /// Wait until the cell fills or `deadline` (wall clock) passes; `None`
    /// means the deadline expired with the cell still empty.
    fn wait_deadline(&self, deadline: std::time::Instant) -> Option<Result<T>> {
        let mut st = self.state.lock();
        loop {
            if let Some(v) = st.take() {
                return Some(v);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            self.cv.wait_timeout(&mut st, deadline - now);
        }
    }
}

/// Handle a rank waits on for a posted send; yields the sender's new virtual time.
pub struct SendHandle {
    cell: Arc<Cell<SimTime>>,
}

/// Handle a rank waits on for a posted receive; yields payload + new virtual time.
pub struct RecvHandle {
    cell: Arc<Cell<(Payload, SimTime)>>,
}

struct SendOffer {
    data: Payload,
    sender_vtime: SimTime,
    /// For eager sends: when the last byte reaches the destination side of
    /// the wire (the receive side still claims ejection/unpack resources).
    eager_wire_arrival: Option<SimTime>,
    done: Arc<Cell<SimTime>>,
}

struct RecvOffer {
    capacity: usize,
    receiver_vtime: SimTime,
    done: Arc<Cell<(Payload, SimTime)>>,
}

#[derive(Default)]
struct Queues {
    sends: VecDeque<SendOffer>,
    recvs: VecDeque<RecvOffer>,
}

/// An eager send stalled on flow-control credits, not yet injected.
struct DeferredSend {
    tag: Tag,
    data: Payload,
    ready: SimTime,
    done: Arc<Cell<SimTime>>,
}

struct State {
    chan: HashMap<(Rank, Rank, Tag), Queues>,
    /// Per-node NIC injection timeline (inter-node sends).
    nic_tx: Vec<Timeline>,
    /// Per-node NIC ejection timeline (inter-node receives).
    nic_rx: Vec<Timeline>,
    /// Per-node memory-channel timeline (intra-node copies).
    mem: Vec<Timeline>,
    /// Cluster-wide backbone timeline (inter-node, when the model enables it).
    backbone: Timeline,
    /// Injected-but-unmatched eager messages per directed channel.
    outstanding: HashMap<(Rank, Rank), usize>,
    /// Eager sends stalled on credits, FIFO per directed channel.
    deferred: HashMap<(Rank, Rank), VecDeque<DeferredSend>>,
    /// Ranks whose closures have returned: they will never post again.
    /// Operations that can only complete with their participation fail with
    /// [`CommError::PeerFailed`] instead of blocking forever.
    done: Vec<bool>,
    stopped: bool,
}

/// The shared matching engine for one simulated world.
pub struct Fabric {
    model: NetworkModel,
    placement: Placement,
    state: Mutex<State>,
    /// Payload buffers for in-flight messages, recycled on delivery.
    pool: Arc<BufferPool>,
    /// Optional per-transfer event log (see [`crate::events`]).
    trace: Option<Mutex<Vec<TransferEvent>>>,
}

impl Fabric {
    /// Build a fabric for `size` ranks under `placement` and `model`.
    pub fn new(model: NetworkModel, placement: Placement, size: usize) -> Self {
        Self::with_trace(model, placement, size, false)
    }

    /// Like [`new`](Self::new), optionally recording every transfer.
    pub fn with_trace(
        model: NetworkModel,
        placement: Placement,
        size: usize,
        traced: bool,
    ) -> Self {
        assert!(model.mem_channels >= 1.0, "mem_channels must be >= 1");
        let nodes = placement.node_count(size.max(1));
        Fabric {
            model,
            placement,
            pool: BufferPool::new(),
            trace: traced.then(|| Mutex::new(Vec::new())),
            state: Mutex::new(State {
                chan: HashMap::new(),
                nic_tx: vec![Timeline::new(); nodes],
                nic_rx: vec![Timeline::new(); nodes],
                mem: vec![Timeline::new(); nodes],
                backbone: Timeline::new(),
                outstanding: HashMap::new(),
                deferred: HashMap::new(),
                done: vec![false; size],
                stopped: false,
            }),
        }
    }

    /// The model this fabric simulates.
    pub fn model(&self) -> &NetworkModel {
        &self.model
    }

    /// Drain the recorded transfer events (empty when tracing is off).
    pub fn take_trace(&self) -> Vec<TransferEvent> {
        self.trace.as_ref().map_or_else(Vec::new, |t| std::mem::take(&mut t.lock()))
    }

    /// The placement this fabric simulates.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Snapshot of the fabric's payload-pool counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Fail all pending and future operations (world teardown).
    pub fn stop(&self) {
        let mut st = self.state.lock();
        st.stopped = true;
        for q in st.chan.values_mut() {
            for s in q.sends.drain(..) {
                s.done.fill_if_empty(Err(CommError::WorldStopped));
            }
            for r in q.recvs.drain(..) {
                r.done.fill_if_empty(Err(CommError::WorldStopped));
            }
        }
        for q in st.deferred.values_mut() {
            for d in q.drain(..) {
                d.done.fill_if_empty(Err(CommError::WorldStopped));
            }
        }
    }

    /// Stage `data` into one pooled envelope — the staging copy behind
    /// `make_shared`, whose result [`post_send_buf`](Self::post_send_buf)
    /// then injects by refcount.
    pub fn rent_copy(&self, data: &[u8]) -> PooledBuf {
        self.pool.rent_copy(data)
    }

    /// Post a send whose payload envelope the caller already assembled
    /// (any [`PooledBuf`] or a refcount clone of a shared envelope) — the
    /// zero-copy paths' single-envelope injection.
    pub fn post_send_buf(
        &self,
        src: Rank,
        dst: Rank,
        tag: Tag,
        payload: Payload,
        now: SimTime,
    ) -> Result<SendHandle> {
        let cell = Cell::new();
        let mut st = self.state.lock();
        if st.stopped {
            return Err(CommError::WorldStopped);
        }
        if dst != src && st.done[dst] {
            // The receiver is gone for good: no one will ever consume this
            // message, so fail fast instead of blocking a rendezvous forever.
            return Err(CommError::PeerFailed { rank: dst });
        }

        let offer = if self.model.protocol(payload.len()) == Protocol::Eager {
            // Flow control: stall behind earlier deferred sends (to preserve
            // non-overtaking order) or when the channel's credits are spent.
            let key = (src, dst);
            let blocked = st.deferred.get(&key).is_some_and(|q| !q.is_empty())
                || st.outstanding.get(&key).copied().unwrap_or(0) >= self.model.eager_credits;
            if blocked {
                st.deferred.entry(key).or_default().push_back(DeferredSend {
                    tag,
                    data: payload,
                    ready: now,
                    done: Arc::clone(&cell),
                });
                return Ok(SendHandle { cell });
            }
            *st.outstanding.entry(key).or_default() += 1;
            Self::inject_eager(
                &self.model,
                self.placement,
                &mut st,
                src,
                dst,
                payload,
                now,
                Arc::clone(&cell),
            )
        } else {
            SendOffer {
                data: payload,
                sender_vtime: now,
                eager_wire_arrival: None,
                done: Arc::clone(&cell),
            }
        };

        let matched = st.chan.entry((src, dst, tag)).or_default().recvs.pop_front();
        match matched {
            Some(recv) => Self::commit_match(
                &self.model,
                self.placement,
                self.trace.as_ref(),
                &mut st,
                src,
                dst,
                tag,
                offer,
                recv,
            ),
            None => st.chan.entry((src, dst, tag)).or_default().sends.push_back(offer),
        }
        Ok(SendHandle { cell })
    }

    /// Post a receive at `dst` (virtual time `now`) for a message from `src`.
    pub fn post_recv(
        &self,
        src: Rank,
        dst: Rank,
        tag: Tag,
        capacity: usize,
        now: SimTime,
    ) -> Result<RecvHandle> {
        let cell = Cell::new();
        let mut st = self.state.lock();
        if st.stopped {
            return Err(CommError::WorldStopped);
        }
        let offer = RecvOffer { capacity, receiver_vtime: now, done: Arc::clone(&cell) };
        let matched = st.chan.entry((src, dst, tag)).or_default().sends.pop_front();
        match matched {
            Some(send) => Self::commit_match(
                &self.model,
                self.placement,
                self.trace.as_ref(),
                &mut st,
                src,
                dst,
                tag,
                send,
                offer,
            ),
            None => {
                // Messages the done rank sent before returning were matched
                // above; with no send queued, this one can never arrive.
                if src != dst && st.done[src] {
                    return Err(CommError::PeerFailed { rank: src });
                }
                st.chan.entry((src, dst, tag)).or_default().recvs.push_back(offer);
            }
        }
        Ok(RecvHandle { cell })
    }

    /// Record that `rank`'s closure returned: it will never post again.
    ///
    /// Pending receives waiting on a message from `rank` and pending
    /// rendezvous sends blocked on `rank` receiving can no longer complete;
    /// both fail with [`CommError::PeerFailed`], as do future such posts.
    /// Messages `rank` sent before returning stay queued and deliverable.
    pub fn rank_done(&self, rank: Rank) {
        let mut st = self.state.lock();
        st.done[rank] = true;
        let err = CommError::PeerFailed { rank };
        let State { chan, deferred, .. } = &mut *st;
        for (&(src, dst, _tag), q) in chan.iter_mut() {
            if src == rank {
                for r in q.recvs.drain(..) {
                    r.done.fill_if_empty(Err(err.clone()));
                }
            }
            if dst == rank {
                // Eager offers already completed at post time; only blocked
                // rendezvous senders observe the failure.
                for s in q.sends.drain(..) {
                    s.done.fill_if_empty(Err(err.clone()));
                }
            }
        }
        for (&(_, dst), q) in deferred.iter_mut() {
            if dst == rank {
                for d in q.drain(..) {
                    d.done.fill_if_empty(Err(err.clone()));
                }
            }
        }
    }

    /// Bounded wait on a posted receive: `None` means nothing completed the
    /// receive within `timeout` of wall-clock time — the offer may still be
    /// pending and must be withdrawn with [`cancel_recv`](Self::cancel_recv)
    /// before the handle is abandoned. A deadline past the end of
    /// `Instant`'s range is no deadline: the wait is unbounded.
    pub fn wait_recv_timeout(
        &self,
        handle: &RecvHandle,
        timeout: std::time::Duration,
    ) -> Option<Result<(Payload, SimTime)>> {
        match std::time::Instant::now().checked_add(timeout) {
            Some(deadline) => handle.cell.wait_deadline(deadline),
            None => Some(handle.cell.wait()),
        }
    }

    /// Withdraw a pending receive offer after a timed-out wait.
    ///
    /// Returns `true` if the offer was still queued (now removed — nothing
    /// was consumed; a message arriving later stays queued for the next
    /// matching receive). Returns `false` if a send matched the offer
    /// concurrently: the caller must [`wait_recv`](Self::wait_recv) for the
    /// committed result instead of dropping it.
    pub fn cancel_recv(&self, src: Rank, dst: Rank, tag: Tag, handle: &RecvHandle) -> bool {
        let mut st = self.state.lock();
        let Some(q) = st.chan.get_mut(&(src, dst, tag)) else {
            return false;
        };
        let before = q.recvs.len();
        q.recvs.retain(|r| !Arc::ptr_eq(&r.done, &handle.cell));
        q.recvs.len() != before
    }

    /// Block until a posted send completes; returns the sender's new virtual time.
    pub fn wait_send(&self, handle: &SendHandle) -> Result<SimTime> {
        handle.cell.wait()
    }

    /// Block until a posted receive completes; returns the payload (a pooled
    /// buffer that recycles itself when dropped) and the receiver's new
    /// virtual time.
    pub fn wait_recv(&self, handle: &RecvHandle) -> Result<(Payload, SimTime)> {
        handle.cell.wait()
    }

    /// Perform an eager injection: claim the injection-side resource, fill
    /// the sender's completion cell, and return the matchable offer.
    /// Must be called with the state lock held.
    #[allow(clippy::too_many_arguments)]
    fn inject_eager(
        model: &NetworkModel,
        placement: Placement,
        st: &mut State,
        src: Rank,
        dst: Rank,
        data: Payload,
        ready: SimTime,
        done: Arc<Cell<SimTime>>,
    ) -> SendOffer {
        let level = placement.level(src, dst);
        let costs = model.costs(level);
        let ser = costs.serialize_ns(data.len());
        let snode = placement.node_of(src);
        let start_tx = if model.contention {
            match level {
                // A NIC serializes injections fully; a node's memory system
                // admits `mem_channels` concurrent copy streams.
                Level::InterNode => st.nic_tx[snode].claim(ready, ser),
                Level::IntraNode => st.mem[snode].claim(ready, ser / model.mem_channels),
            }
        } else {
            ready
        };
        let mut inject_end = start_tx + ser;
        if model.contention && level == Level::InterNode && model.backbone_beta_ns_per_byte > 0.0 {
            let bb = data.len() as f64 * model.backbone_beta_ns_per_byte;
            let start_bb = st.backbone.claim(start_tx, bb);
            inject_end = inject_end.max(start_bb + bb);
        }
        done.fill(Ok(inject_end));
        SendOffer {
            data,
            sender_vtime: ready,
            eager_wire_arrival: Some(inject_end + costs.alpha_ns),
            done,
        }
    }

    /// Grant freed credits to deferred eager sends on `(src, dst)`, injecting
    /// and matching them in FIFO order. `credit_time` is when the credit is
    /// back at the sender. Must be called with the state lock held.
    #[allow(clippy::too_many_arguments)]
    fn promote_deferred(
        model: &NetworkModel,
        placement: Placement,
        trace: Option<&Mutex<Vec<TransferEvent>>>,
        st: &mut State,
        src: Rank,
        dst: Rank,
        credit_time: SimTime,
    ) {
        let key = (src, dst);
        while st.outstanding.get(&key).copied().unwrap_or(0) < model.eager_credits {
            let Some(d) = st.deferred.get_mut(&key).and_then(VecDeque::pop_front) else {
                return;
            };
            *st.outstanding.entry(key).or_default() += 1;
            let ready = d.ready.max(credit_time);
            let offer = Self::inject_eager(model, placement, st, src, dst, d.data, ready, d.done);
            let matched = st.chan.entry((src, dst, d.tag)).or_default().recvs.pop_front();
            match matched {
                Some(recv) => {
                    Self::commit_match(model, placement, trace, st, src, dst, d.tag, offer, recv)
                }
                None => st.chan.entry((src, dst, d.tag)).or_default().sends.push_back(offer),
            }
        }
    }

    /// Compute the transfer times for a matched pair and fill both completion
    /// cells. Must be called with the state lock held.
    #[allow(clippy::too_many_arguments)]
    fn commit_match(
        model: &NetworkModel,
        placement: Placement,
        trace: Option<&Mutex<Vec<TransferEvent>>>,
        st: &mut State,
        src: Rank,
        dst: Rank,
        _tag: Tag,
        send: SendOffer,
        recv: RecvOffer,
    ) {
        let size = send.data.len();
        let was_eager = send.eager_wire_arrival.is_some();
        if size > recv.capacity {
            let err = CommError::Truncation { capacity: recv.capacity, incoming: size };
            recv.done.fill(Err(err.clone()));
            // Rendezvous senders are still blocked; fail them too. Eager
            // senders already completed — the error surfaces at the
            // receiver, as in MPI.
            send.done.fill_if_empty(Err(err));
            if was_eager {
                let o = st.outstanding.entry((src, dst)).or_default();
                *o = o.saturating_sub(1);
                Self::promote_deferred(model, placement, trace, st, src, dst, recv.receiver_vtime);
            }
            return;
        }

        let level = placement.level(src, dst);
        let costs = model.costs(level);
        let ser = costs.serialize_ns(size);
        let snode = placement.node_of(src);
        let dnode = placement.node_of(dst);
        let k = model.mem_channels;

        let recv_done_time;
        match send.eager_wire_arrival {
            Some(wire_arrival) => {
                // Eager: data is (or will be) sitting in the early-arrival
                // buffer; the receive side claims ejection and optionally an
                // unpack copy.
                let mut delivered = wire_arrival;
                // Inter-node eager data still has to be ejected through the
                // destination NIC. Intra-node "ejection" is the same memory
                // channel the injection already paid — charging it again
                // would triple-count the copy, so only the NIC claims here.
                if model.contention && level == Level::InterNode {
                    let start_rx = st.nic_rx[dnode].claim(wire_arrival - ser, ser);
                    delivered = start_rx + ser;
                }
                let mut done = delivered.max(recv.receiver_vtime);
                if model.eager_unpack_copy {
                    // Copy out of the early-arrival buffer: an intra-level
                    // memcpy on the receiving node.
                    let unpack = model.intra.serialize_ns(size);
                    if model.contention {
                        let start = st.mem[dnode].claim(done, unpack / k);
                        done = start + unpack;
                    } else {
                        done += unpack;
                    }
                }
                recv_done_time = done;
                // sender cell was already filled at post time
            }
            None => {
                // Rendezvous: data moves only once both sides are present.
                let ready =
                    send.sender_vtime.max(recv.receiver_vtime) + model.rendezvous_handshake_ns;
                let (sender_done, recv_done) = match level {
                    Level::InterNode => {
                        let start = if model.contention {
                            // Joint booking: injection at [t, t+ser),
                            // backbone at [t, t+bb), ejection at
                            // [t+α, t+α+ser). Fixed point over the timelines.
                            let bb = if model.backbone_beta_ns_per_byte > 0.0 {
                                size as f64 * model.backbone_beta_ns_per_byte
                            } else {
                                0.0
                            };
                            let mut t = ready;
                            loop {
                                let t_tx = st.nic_tx[snode].next_fit(t, ser);
                                let t_bb = st.backbone.next_fit(t_tx, bb);
                                if t_bb > t_tx + 1e-9 {
                                    t = t_bb;
                                    continue;
                                }
                                let t_rx = st.nic_rx[dnode].next_fit(t_tx + costs.alpha_ns, ser)
                                    - costs.alpha_ns;
                                if t_rx <= t_tx + 1e-9 {
                                    t = t_tx;
                                    break;
                                }
                                t = t_rx;
                            }
                            st.nic_tx[snode].book(t, ser);
                            if bb > 0.0 {
                                st.backbone.book(t, bb);
                            }
                            st.nic_rx[dnode].book(t + costs.alpha_ns, ser);
                            t
                        } else {
                            ready
                        };
                        let end = start + costs.alpha_ns + ser;
                        // Sender returns once its NIC is drained.
                        (start + ser, end)
                    }
                    Level::IntraNode => {
                        let start = if model.contention {
                            st.mem[snode].claim(ready, ser / k)
                        } else {
                            ready
                        };
                        let end = start + costs.alpha_ns + ser;
                        // Single synchronous copy: both sides leave together.
                        (end, end)
                    }
                };
                send.done.fill(Ok(sender_done));
                recv_done_time = recv_done;
            }
        }
        if let Some(t) = trace {
            t.lock().push(TransferEvent {
                src,
                dst,
                bytes: size,
                level,
                eager: was_eager,
                sender_ready_ns: send.sender_vtime,
                delivered_ns: recv_done_time,
            });
        }
        recv.done.fill(Ok((send.data, recv_done_time)));

        if was_eager {
            // The receiver consumed an early-arrival slot: return the credit
            // (one wire latency later) and let stalled sends proceed.
            let o = st.outstanding.entry((src, dst)).or_default();
            *o = o.saturating_sub(1);
            let credit_time = recv_done_time + costs.alpha_ns;
            Self::promote_deferred(model, placement, trace, st, src, dst, credit_time);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Fabric {
        /// Post a send of `data` from `src` (at virtual time `now`) to `dst`.
        fn post_send(
            &self,
            src: Rank,
            dst: Rank,
            tag: Tag,
            data: &[u8],
            now: SimTime,
        ) -> Result<SendHandle> {
            self.post_send_buf(src, dst, tag, self.rent_copy(data).into(), now)
        }
    }

    fn fabric(model: NetworkModel, cores: usize, size: usize) -> Fabric {
        Fabric::new(model, Placement::new(cores), size)
    }

    #[test]
    fn rendezvous_hockney_exact() {
        // uniform model: everything rendezvous, no contention, no handshake
        let f = fabric(NetworkModel::uniform(1000.0, 2.0), 4, 4);
        let s = f.post_send(0, 1, Tag(0), &[0u8; 100], 500.0).unwrap();
        let r = f.post_recv(0, 1, Tag(0), 100, 700.0).unwrap();
        // start = max(500, 700) = 700; end = 700 + 1000 + 200 = 1900
        let (data, rdone) = f.wait_recv(&r).unwrap();
        assert_eq!(data.len(), 100);
        assert_eq!(rdone, 1900.0);
        assert_eq!(f.wait_send(&s).unwrap(), 1900.0); // intra: both leave together
    }

    #[test]
    fn rendezvous_sender_waits_for_late_receiver() {
        let f = fabric(NetworkModel::uniform(0.0, 1.0), 4, 4);
        let s = f.post_send(0, 1, Tag(0), &[0u8; 10], 0.0).unwrap();
        let r = f.post_recv(0, 1, Tag(0), 10, 5000.0).unwrap();
        assert_eq!(f.wait_send(&s).unwrap(), 5010.0);
        assert_eq!(f.wait_recv(&r).unwrap().1, 5010.0);
    }

    #[test]
    fn eager_sender_does_not_wait() {
        let mut m = NetworkModel::uniform(100.0, 1.0);
        m.eager_threshold = 1 << 20; // everything eager
        let f = fabric(m, 4, 4);
        let s = f.post_send(0, 1, Tag(0), &[0u8; 50], 0.0).unwrap();
        // sender completes after injection even though no receive is posted
        assert_eq!(f.wait_send(&s).unwrap(), 50.0);
        // a much later receiver picks the data from the early-arrival buffer
        let r = f.post_recv(0, 1, Tag(0), 50, 10_000.0).unwrap();
        let (_, rdone) = f.wait_recv(&r).unwrap();
        assert_eq!(rdone, 10_000.0); // arrival (150) < receiver time
    }

    #[test]
    fn eager_early_receiver_waits_for_wire() {
        let mut m = NetworkModel::uniform(100.0, 1.0);
        m.eager_threshold = 1 << 20;
        let f = fabric(m, 4, 4);
        let r = f.post_recv(0, 1, Tag(0), 50, 0.0).unwrap();
        let _s = f.post_send(0, 1, Tag(0), &[0u8; 50], 1000.0).unwrap();
        let (_, rdone) = f.wait_recv(&r).unwrap();
        // inject 1000→1050, wire +100 → 1150
        assert_eq!(rdone, 1150.0);
    }

    #[test]
    fn fifo_matching_per_channel() {
        let mut m = NetworkModel::uniform(0.0, 0.0);
        m.eager_threshold = 1 << 20;
        let f = fabric(m, 4, 4);
        let _ = f.post_send(0, 1, Tag(0), &[1], 0.0).unwrap();
        let _ = f.post_send(0, 1, Tag(0), &[2], 0.0).unwrap();
        let r1 = f.post_recv(0, 1, Tag(0), 1, 0.0).unwrap();
        let r2 = f.post_recv(0, 1, Tag(0), 1, 0.0).unwrap();
        assert_eq!(&*f.wait_recv(&r1).unwrap().0.bytes(), &[1]);
        assert_eq!(&*f.wait_recv(&r2).unwrap().0.bytes(), &[2]);
    }

    #[test]
    fn truncation_error_delivered() {
        let f = fabric(NetworkModel::uniform(0.0, 0.0), 4, 4);
        let s = f.post_send(0, 1, Tag(0), &[0u8; 10], 0.0).unwrap();
        let r = f.post_recv(0, 1, Tag(0), 4, 0.0).unwrap();
        assert!(matches!(
            f.wait_recv(&r),
            Err(CommError::Truncation { capacity: 4, incoming: 10 })
        ));
        assert!(f.wait_send(&s).is_err()); // rendezvous sender also fails
    }

    #[test]
    fn inter_node_nic_serializes_concurrent_sends() {
        // two ranks on node 0 send to two ranks on node 1 at the same time;
        // with contention the second transfer queues behind the first.
        let mut m = NetworkModel::uniform(0.0, 1.0);
        m.contention = true;
        let f = fabric(m, 2, 4); // nodes {0,1}, {2,3}
        let s1 = f.post_send(0, 2, Tag(0), &[0u8; 100], 0.0).unwrap();
        let s2 = f.post_send(1, 3, Tag(0), &[0u8; 100], 0.0).unwrap();
        let r1 = f.post_recv(0, 2, Tag(0), 100, 0.0).unwrap();
        let r2 = f.post_recv(1, 3, Tag(0), 100, 0.0).unwrap();
        let t1 = f.wait_recv(&r1).unwrap().1;
        let t2 = f.wait_recv(&r2).unwrap().1;
        let _ = (f.wait_send(&s1), f.wait_send(&s2));
        let (first, second) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        assert_eq!(first, 100.0);
        assert_eq!(second, 200.0, "second transfer must queue behind the first");
    }

    #[test]
    fn racing_ahead_does_not_delay_earlier_transfers() {
        // A transfer booked far in the virtual future must not push an
        // earlier-ready transfer behind it (the Timeline property).
        let mut m = NetworkModel::uniform(0.0, 1.0);
        m.contention = true;
        let f = fabric(m, 2, 4);
        // rank 1 races ahead to t=10000 and books the NIC
        let s_late = f.post_send(1, 3, Tag(0), &[0u8; 100], 10_000.0).unwrap();
        let r_late = f.post_recv(1, 3, Tag(0), 100, 10_000.0).unwrap();
        // rank 0 then posts an earlier transfer
        let s_early = f.post_send(0, 2, Tag(1), &[0u8; 100], 0.0).unwrap();
        let r_early = f.post_recv(0, 2, Tag(1), 100, 0.0).unwrap();
        assert_eq!(f.wait_recv(&r_early).unwrap().1, 100.0);
        assert_eq!(f.wait_recv(&r_late).unwrap().1, 10_100.0);
        let _ = (f.wait_send(&s_early), f.wait_send(&s_late));
    }

    #[test]
    fn mem_channels_allow_parallel_intra_copies() {
        // k=2: two concurrent intra-node copies only half-serialize.
        let mut m = NetworkModel::uniform(0.0, 1.0);
        m.contention = true;
        m.mem_channels = 2.0;
        let f = fabric(m, 4, 4); // all on node 0
        let _s1 = f.post_send(0, 1, Tag(0), &[0u8; 100], 0.0).unwrap();
        let _s2 = f.post_send(2, 3, Tag(0), &[0u8; 100], 0.0).unwrap();
        let r1 = f.post_recv(0, 1, Tag(0), 100, 0.0).unwrap();
        let r2 = f.post_recv(2, 3, Tag(0), 100, 0.0).unwrap();
        let t1 = f.wait_recv(&r1).unwrap().1;
        let t2 = f.wait_recv(&r2).unwrap().1;
        let (first, second) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        // each copy takes 100ns of stream time; channel occupancy 50ns each
        assert_eq!(first, 100.0);
        assert_eq!(second, 150.0);
    }

    #[test]
    fn no_contention_means_full_overlap() {
        let m = NetworkModel::uniform(0.0, 1.0); // contention off
        let f = fabric(m, 2, 4);
        let _s1 = f.post_send(0, 2, Tag(0), &[0u8; 100], 0.0).unwrap();
        let _s2 = f.post_send(1, 3, Tag(0), &[0u8; 100], 0.0).unwrap();
        let r1 = f.post_recv(0, 2, Tag(0), 100, 0.0).unwrap();
        let r2 = f.post_recv(1, 3, Tag(0), 100, 0.0).unwrap();
        assert_eq!(f.wait_recv(&r1).unwrap().1, 100.0);
        assert_eq!(f.wait_recv(&r2).unwrap().1, 100.0);
    }

    #[test]
    fn stop_fails_pending_operations() {
        let f = Arc::new(fabric(NetworkModel::uniform(0.0, 0.0), 4, 4));
        let f2 = Arc::clone(&f);
        let h = std::thread::spawn(move || {
            let r = f2.post_recv(0, 1, Tag(0), 10, 0.0).unwrap();
            f2.wait_recv(&r)
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        f.stop();
        assert!(h.join().unwrap().is_err());
        assert!(f.post_send(0, 1, Tag(0), &[], 0.0).is_err());
    }

    #[test]
    fn eager_credits_defer_and_promote_in_order() {
        let mut m = NetworkModel::uniform(0.0, 1.0);
        m.eager_threshold = usize::MAX; // all eager
        m.eager_credits = 2;
        let f = fabric(m, 4, 2);
        // three sends: the third must defer (2 credits)
        let s1 = f.post_send(0, 1, Tag(0), &[1; 10], 0.0).unwrap();
        let s2 = f.post_send(0, 1, Tag(0), &[2; 10], 10.0).unwrap();
        let s3 = f.post_send(0, 1, Tag(0), &[3; 10], 20.0).unwrap();
        assert_eq!(f.wait_send(&s1).unwrap(), 10.0); // injected at once
        assert_eq!(f.wait_send(&s2).unwrap(), 20.0);
        // s3 is stalled until a receive consumes a credit
        let r1 = f.post_recv(0, 1, Tag(0), 10, 100.0).unwrap();
        let (d1, t1) = f.wait_recv(&r1).unwrap();
        assert_eq!(&*d1.bytes(), &[1; 10]); // FIFO preserved across deferral

        // credit returns at recv_done + alpha(=0): s3 injects from max(20, t1)
        let s3_done = f.wait_send(&s3).unwrap();
        assert!(s3_done >= t1, "deferred send waited for the credit: {s3_done} vs {t1}");
        let r2 = f.post_recv(0, 1, Tag(0), 10, 100.0).unwrap();
        let r3 = f.post_recv(0, 1, Tag(0), 10, 100.0).unwrap();
        assert_eq!(&*f.wait_recv(&r2).unwrap().0.bytes(), &[2; 10]);
        assert_eq!(&*f.wait_recv(&r3).unwrap().0.bytes(), &[3; 10]);
    }

    #[test]
    fn credits_are_per_directed_channel() {
        let mut m = NetworkModel::uniform(0.0, 1.0);
        m.eager_threshold = usize::MAX;
        m.eager_credits = 1;
        let f = fabric(m, 4, 3);
        // one outstanding to rank 1 must not block sends to rank 2
        let _s1 = f.post_send(0, 1, Tag(0), &[0; 4], 0.0).unwrap();
        let s2 = f.post_send(0, 2, Tag(0), &[0; 4], 0.0).unwrap();
        assert_eq!(f.wait_send(&s2).unwrap(), 4.0);
    }

    #[test]
    fn rendezvous_ignores_credits() {
        let mut m = NetworkModel::uniform(0.0, 1.0); // threshold 0 → rendezvous
        m.eager_credits = 1;
        let f = fabric(m, 4, 2);
        // two rendezvous sends queue without consuming credits
        let s1 = f.post_send(0, 1, Tag(0), &[0; 4], 0.0).unwrap();
        let s2 = f.post_send(0, 1, Tag(0), &[0; 4], 0.0).unwrap();
        let r1 = f.post_recv(0, 1, Tag(0), 4, 0.0).unwrap();
        let r2 = f.post_recv(0, 1, Tag(0), 4, 0.0).unwrap();
        f.wait_recv(&r1).unwrap();
        f.wait_recv(&r2).unwrap();
        f.wait_send(&s1).unwrap();
        f.wait_send(&s2).unwrap();
    }

    #[test]
    fn stop_fails_deferred_sends_too() {
        let mut m = NetworkModel::uniform(0.0, 1.0);
        m.eager_threshold = usize::MAX;
        m.eager_credits = 1;
        let f = fabric(m, 4, 2);
        let _s1 = f.post_send(0, 1, Tag(0), &[0; 4], 0.0).unwrap();
        let s2 = f.post_send(0, 1, Tag(0), &[0; 4], 0.0).unwrap(); // deferred
        f.stop();
        assert!(f.wait_send(&s2).is_err());
    }

    #[test]
    fn backbone_serializes_across_distinct_node_pairs() {
        // two transfers between DISJOINT node pairs share nothing — except
        // the backbone, when enabled.
        let mut m = NetworkModel::uniform(0.0, 1.0);
        m.contention = true;
        m.backbone_beta_ns_per_byte = 2.0;
        let f = fabric(m, 1, 4); // 4 nodes of 1 rank: all inter
        let _s1 = f.post_send(0, 1, Tag(0), &[0u8; 100], 0.0).unwrap();
        let _s2 = f.post_send(2, 3, Tag(0), &[0u8; 100], 0.0).unwrap();
        let r1 = f.post_recv(0, 1, Tag(0), 100, 0.0).unwrap();
        let r2 = f.post_recv(2, 3, Tag(0), 100, 0.0).unwrap();
        let t1 = f.wait_recv(&r1).unwrap().1;
        let t2 = f.wait_recv(&r2).unwrap().1;
        let (first, second) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        // bb occupancy 200ns each; the second transfer starts 200ns later
        assert_eq!(first, 100.0);
        assert_eq!(second, 300.0);
        // without the backbone they fully overlap
        let mut m = NetworkModel::uniform(0.0, 1.0);
        m.contention = true;
        let f = fabric(m, 1, 4);
        let _s1 = f.post_send(0, 1, Tag(0), &[0u8; 100], 0.0).unwrap();
        let _s2 = f.post_send(2, 3, Tag(0), &[0u8; 100], 0.0).unwrap();
        let r1 = f.post_recv(0, 1, Tag(0), 100, 0.0).unwrap();
        let r2 = f.post_recv(2, 3, Tag(0), 100, 0.0).unwrap();
        assert_eq!(f.wait_recv(&r1).unwrap().1, 100.0);
        assert_eq!(f.wait_recv(&r2).unwrap().1, 100.0);
    }

    #[test]
    fn cancel_recv_withdraws_pending_offer() {
        let f = fabric(NetworkModel::uniform(0.0, 0.0), 4, 4);
        let r = f.post_recv(0, 1, Tag(0), 10, 0.0).unwrap();
        assert!(f.wait_recv_timeout(&r, std::time::Duration::from_millis(5)).is_none());
        assert!(f.cancel_recv(0, 1, Tag(0), &r));
        // the withdrawn offer must not steal a later send: a fresh receive
        // still gets the message
        let _s = f.post_send(0, 1, Tag(0), &[9u8; 4], 0.0).unwrap();
        let r2 = f.post_recv(0, 1, Tag(0), 10, 0.0).unwrap();
        assert_eq!(&*f.wait_recv(&r2).unwrap().0.bytes(), &[9u8; 4]);
    }

    #[test]
    fn cancel_recv_after_match_returns_false() {
        let f = fabric(NetworkModel::uniform(0.0, 0.0), 4, 4);
        let r = f.post_recv(0, 1, Tag(0), 10, 0.0).unwrap();
        let _s = f.post_send(0, 1, Tag(0), &[1u8; 4], 0.0).unwrap();
        assert!(!f.cancel_recv(0, 1, Tag(0), &r));
        assert_eq!(f.wait_recv(&r).unwrap().0.len(), 4);
    }

    #[test]
    fn wait_recv_timeout_returns_result_when_available() {
        let f = fabric(NetworkModel::uniform(0.0, 0.0), 4, 4);
        let _s = f.post_send(0, 1, Tag(0), &[1u8; 4], 0.0).unwrap();
        let r = f.post_recv(0, 1, Tag(0), 10, 0.0).unwrap();
        let got = f.wait_recv_timeout(&r, std::time::Duration::from_secs(5));
        assert_eq!(got.unwrap().unwrap().0.len(), 4);
    }

    #[test]
    fn rank_done_fails_pending_recv_from_that_rank() {
        let f = Arc::new(fabric(NetworkModel::uniform(0.0, 0.0), 4, 4));
        let f2 = Arc::clone(&f);
        let h = std::thread::spawn(move || {
            let r = f2.post_recv(2, 1, Tag(0), 10, 0.0).unwrap();
            f2.wait_recv(&r)
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        f.rank_done(2);
        assert!(matches!(h.join().unwrap(), Err(CommError::PeerFailed { rank: 2 })));
        // future receives from the done rank fail fast
        assert!(matches!(
            f.post_recv(2, 1, Tag(0), 10, 0.0),
            Err(CommError::PeerFailed { rank: 2 })
        ));
    }

    #[test]
    fn rank_done_fails_rendezvous_send_to_that_rank() {
        let f = Arc::new(fabric(NetworkModel::uniform(0.0, 1.0), 4, 4));
        let f2 = Arc::clone(&f);
        let h = std::thread::spawn(move || {
            let s = f2.post_send(0, 2, Tag(0), &[0u8; 64], 0.0).unwrap();
            f2.wait_send(&s)
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        f.rank_done(2);
        assert!(matches!(h.join().unwrap(), Err(CommError::PeerFailed { rank: 2 })));
        assert!(matches!(
            f.post_send(0, 2, Tag(0), &[0u8; 64], 0.0),
            Err(CommError::PeerFailed { rank: 2 })
        ));
    }

    #[test]
    fn messages_queued_before_rank_done_stay_deliverable() {
        let mut m = NetworkModel::uniform(0.0, 1.0);
        m.eager_threshold = usize::MAX;
        let f = fabric(m, 4, 4);
        let _s = f.post_send(2, 1, Tag(0), &[7u8; 4], 0.0).unwrap();
        f.rank_done(2);
        let r = f.post_recv(2, 1, Tag(0), 10, 0.0).unwrap();
        assert_eq!(&*f.wait_recv(&r).unwrap().0.bytes(), &[7u8; 4]);
        // once drained, further receives observe the failure
        assert!(matches!(
            f.post_recv(2, 1, Tag(0), 10, 0.0),
            Err(CommError::PeerFailed { rank: 2 })
        ));
    }

    #[test]
    fn zero_byte_rendezvous_costs_alpha() {
        let f = fabric(NetworkModel::uniform(700.0, 1.0), 4, 2);
        let _s = f.post_send(0, 1, Tag(0), &[], 0.0).unwrap();
        let r = f.post_recv(0, 1, Tag(0), 0, 0.0).unwrap();
        assert_eq!(f.wait_recv(&r).unwrap().1, 700.0);
    }
}

//! `ReliableComm`'s delivery contract where a frame's sequence number rides
//! beside its payload instead of in front of a copy of it.
//!
//! Each scenario is written once against [`AsyncCommunicator`] and run on
//! the event executor and, through `SyncComm`, on the threaded one. Both
//! queue the framed envelope as posted, so on either a frame is a refcount
//! clone of what the sender staged and the copy bill is the same number
//! ([`retransmission_reposts_the_staged_rental`] pins it on both). The
//! faults are not sampled:
//! [`plan_meeting`] searches for the seed under which the data frames rank 0
//! offers rank 1 meet exactly the listed fates, so every scenario replays
//! the same way on both executors and under any `TESTKIT_SEED`.

// No verdict here may hang on the host's timing: these tests read no wall
// clock and never sleep (the calls `clippy.toml` lists).
#![deny(clippy::disallowed_methods)]

use std::time::Duration;

use bcast_core::traffic::bcast_volume;
use bcast_core::{bcast_with_async, membership_digest, Algorithm, EpochComm, Interp, SchedOp};
use mpsim::reliable::{ACK_TAG_BASE, DATA_TAG_BASE};
use mpsim::{
    complete_now, AsyncCommunicator, CommError, EventWorld, Payload, ReliableComm, RetryConfig,
    SubComm, SyncComm, Tag, ThreadWorld, WorldOutcome, WorldTraffic,
};
use netsim::{FaultAction, FaultAction::*, FaultPlan, FaultyComm, LinkFaults};

fn retry(max_attempts: u32) -> RetryConfig {
    RetryConfig {
        base_timeout: Duration::from_millis(5),
        max_timeout: Duration::from_millis(40),
        max_attempts,
    }
}

/// A plan under which the first data frames offered on link `0 → 1` meet
/// exactly `fates`, in order; every other link is clean.
fn plan_meeting(faults: LinkFaults, fates: &[FaultAction]) -> FaultPlan {
    (0..1 << 20)
        .map(|seed| FaultPlan::new(seed).with_link(0, 1, faults))
        .find(|plan| fates.iter().enumerate().all(|(k, &f)| plan.decide(0, 1, k as u64) == f))
        .expect("some seed in a million draws these fates")
}

const HALF_DROPPED: LinkFaults = LinkFaults { drop_ppm: 500_000, dup_ppm: 0, delay_ppm: 0 };
const ALL_DUPLICATED: LinkFaults = LinkFaults { drop_ppm: 0, dup_ppm: 1_000_000, delay_ppm: 0 };
const ALL_DELAYED: LinkFaults = LinkFaults { drop_ppm: 0, dup_ppm: 0, delay_ppm: 1_000_000 };

/// Run `$scenario` on both ranks of a two-rank world of each executor.
macro_rules! on_both_executors {
    ($scenario:ident) => {
        mod $scenario {
            use super::*;

            #[test]
            fn threaded() {
                ThreadWorld::run(2, |comm| complete_now($scenario(&SyncComm::new(comm))));
            }

            #[test]
            fn event() {
                EventWorld::run(2, |comm| async move { $scenario(&comm).await });
            }
        }
    };
}

/// `make_shared` snapshots: the user buffer mutated after `send_shared`
/// returned does not show in a later retransmission of the same envelope.
async fn snapshot_survives_retransmission<C: AsyncCommunicator>(comm: &C) {
    let plan = plan_meeting(HALF_DROPPED, &[Drop, Deliver, Drop, Deliver]);
    let faulty = FaultyComm::new(comm, plan);
    let rc = ReliableComm::with_config(&faulty, retry(12));
    if comm.rank() == 0 {
        let mut user = vec![0x11u8; 256];
        let staged = rc.make_shared(&user);
        rc.send_shared(&staged, 1, Tag(3)).await.unwrap();
        user.fill(0xFF);
        // First attempt dropped again: what goes out is posted after the fill.
        rc.send_shared(&staged, 1, Tag(3)).await.unwrap();
    } else {
        for _ in 0..2 {
            let got = rc.recv_owned(256, 0, Tag(3)).await.unwrap();
            assert_eq!(&got[..], &[0x11u8; 256], "the retransmission leaked a later write");
        }
    }
}
on_both_executors!(snapshot_survives_retransmission);

/// A stale duplicate *larger* than the receive now posted on its channel is
/// told by its number, re-acknowledged and dropped — not a truncation.
async fn oversized_stale_duplicate<C: AsyncCommunicator>(comm: &C) {
    let faulty = FaultyComm::new(comm, plan_meeting(ALL_DUPLICATED, &[Duplicate, Duplicate]));
    let rc = ReliableComm::with_config(&faulty, retry(12));
    if comm.rank() == 0 {
        rc.send(&[0xAA; 64], 1, Tag(4)).await.unwrap();
        rc.send(&[0xBB; 8], 1, Tag(4)).await.unwrap();
    } else {
        assert_eq!(&rc.recv_owned(64, 0, Tag(4)).await.unwrap()[..], &[0xAA; 64]);
        // Next in the queue is the 64-byte duplicate; the posted capacity is 8.
        assert_eq!(&rc.recv_owned(8, 0, Tag(4)).await.unwrap()[..], &[0xBB; 8]);
    }
}
on_both_executors!(oversized_stale_duplicate);

/// A held-back frame is re-sent as a plain byte snapshot of `prefix ‖
/// payload`; the receiver takes it like the frame it stands for.
async fn holdback_snapshot_is_accepted<C: AsyncCommunicator>(comm: &C) {
    let faulty = FaultyComm::new(comm, plan_meeting(ALL_DELAYED, &[Delay, Delay]));
    let rc = ReliableComm::with_config(&faulty, retry(12));
    if comm.rank() == 0 {
        // Attempt 0 is held back; attempt 1 takes its place and releases it.
        rc.send_shared(&rc.make_shared(&[0x5C; 100]), 1, Tag(5)).await.unwrap();
    } else {
        let got = rc.recv_owned(100, 0, Tag(5)).await.unwrap();
        assert_eq!(&got[..], &[0x5C; 100]);
        assert_eq!(got.shares(), 1, "a hold-back snapshot is a copy, not the sender's rental");
    }
}
on_both_executors!(holdback_snapshot_is_accepted);

/// `max_attempts == 0` is a policy, not a panic: a send to another rank
/// times out having transmitted nothing.
async fn zero_attempts_transmit_nothing<C: AsyncCommunicator>(comm: &C) {
    let rc = ReliableComm::with_config(comm, retry(0));
    let mut buf = [0u8; 8];
    if comm.rank() == 0 {
        let timeout = Err(CommError::Timeout { peer: 1 });
        assert_eq!(rc.send(&[1; 8], 1, Tag(6)).await, timeout);
        assert_eq!(rc.sendrecv(&[1; 8], 1, Tag(6), &mut buf, 1, Tag(6)).await, timeout.map(|()| 0));
        // Loopback never enters the protocol, so it needs no attempt.
        assert_eq!(rc.sendrecv(&[7; 8], 0, Tag(6), &mut buf, 0, Tag(6)).await, Ok(8));
        comm.barrier().await.unwrap();
    } else {
        comm.barrier().await.unwrap();
        let data = Tag(DATA_TAG_BASE + 6);
        let nothing = comm.recv_timeout(&mut buf, 0, data, Duration::ZERO).await;
        assert_eq!(nothing, Err(CommError::Timeout { peer: 0 }), "a frame was transmitted");
    }
    // Rank 0 stays until rank 1 has looked: an exited peer is not a timeout.
    comm.barrier().await.unwrap();
}
on_both_executors!(zero_attempts_transmit_nothing);

/// A zero `base_timeout` retransmits at every chance, but it still looks
/// for the ack before it does: rank 0 posts one frame and settles (the
/// barrier flushes first) only once rank 1 has received it, so the ack is
/// waiting and the settling finds it. One frame goes out, delivered once.
async fn zero_timeout_still_sees_the_ack<C: AsyncCommunicator>(comm: &C) {
    let instant =
        RetryConfig { base_timeout: Duration::ZERO, max_timeout: Duration::ZERO, max_attempts: 3 };
    let rc = ReliableComm::with_config(comm, instant);
    let mut buf = [0u8; 8];
    if comm.rank() == 0 {
        assert_eq!(rc.post(Payload::from(vec![3u8; 8]), 1, Tag(7)).await, Ok(()));
        comm.recv(&mut buf[..1], 1, Tag(8)).await.unwrap();
        assert_eq!(rc.barrier().await, Ok(()));
    } else {
        assert_eq!(rc.recv(&mut buf, 0, Tag(7)).await, Ok(8));
        assert_eq!(buf, [3; 8]);
        comm.send(&[0], 0, Tag(8)).await.unwrap();
        assert_eq!(rc.barrier().await, Ok(()));
        let again = comm.recv_timeout(&mut buf, 0, Tag(DATA_TAG_BASE + 7), Duration::ZERO).await;
        assert_eq!(again, Err(CommError::Timeout { peer: 0 }), "the frame went out twice");
    }
    // Rank 0 stays until rank 1 has looked: an exited peer is not a timeout.
    comm.barrier().await.unwrap();
}
on_both_executors!(zero_timeout_still_sees_the_ack);

/// The same policy through a plain `send` on the event executor: the
/// sender's first wait, even a zero one, lets the receiver run, so the ack
/// is there when it looks and the send returns acknowledged after one
/// transmission.
#[test]
fn zero_timeout_send_is_acknowledged() {
    let instant =
        RetryConfig { base_timeout: Duration::ZERO, max_timeout: Duration::ZERO, max_attempts: 3 };
    let out = EventWorld::run(2, |comm| async move {
        let rc = ReliableComm::with_config(&comm, instant);
        let mut buf = [0u8; 8];
        match comm.rank() {
            0 => rc.send(&[3; 8], 1, Tag(7)).await.map(|()| 0),
            _ => rc.recv(&mut buf, 0, Tag(7)).await,
        }
    });
    assert_eq!(out.results, vec![Ok(0), Ok(8)]);
    assert_eq!(out.traffic.per_rank[0].msgs_sent, 1, "the frame went out more than once");
}

/// A user tag the two protocol ranges have no room for is refused before
/// anything is posted, on every entry point; the last tag with room works.
async fn out_of_range_tag_is_refused<C: AsyncCommunicator>(comm: &C) {
    let rc = ReliableComm::with_config(comm, retry(12));
    let peer = 1 - comm.rank();
    let mut buf = [0u8; 1];
    let refused = CommError::Unsupported { what: "reliable/tag", size: 2 };
    let beyond = [Tag(ACK_TAG_BASE - DATA_TAG_BASE), Tag(DATA_TAG_BASE), Tag(u32::MAX)];
    for tag in beyond {
        assert_eq!(rc.send(&[1], peer, tag).await, Err(refused.clone()));
        assert_eq!(rc.send(&[1], comm.rank(), tag).await, Err(refused.clone()));
        assert_eq!(rc.recv(&mut buf, peer, tag).await, Err(refused.clone()));
        let short = Duration::from_millis(1);
        assert_eq!(rc.recv_timeout(&mut buf, peer, tag, short).await, Err(refused.clone()));
        let pumped = rc.sendrecv(&[1], peer, Tag(0), &mut buf, peer, tag).await;
        assert_eq!(pumped, Err(refused.clone()));
    }
    comm.barrier().await.unwrap();
    // Had the peer posted any of its data frames, it would sit on the
    // wrapped tag by now (the peer stays: the exchange below needs it).
    for tag in beyond {
        let wrapped = Tag(DATA_TAG_BASE.wrapping_add(tag.0));
        let posted = comm.recv_timeout(&mut buf, peer, wrapped, Duration::ZERO).await;
        assert_eq!(posted, Err(CommError::Timeout { peer }));
    }
    let top = Tag(ACK_TAG_BASE - DATA_TAG_BASE - 1);
    let n = rc.sendrecv(&[comm.rank() as u8], peer, top, &mut buf, peer, top).await;
    assert_eq!((n, buf[0]), (Ok(1), peer as u8));
}
on_both_executors!(out_of_range_tag_is_refused);

const FRAMED: usize = 4096;

/// Rank 0 stages [`FRAMED`] bytes and posts them through `ReliableComm`
/// over `lower`; rank 1 receives them. Each rank returns the address of the
/// bytes it staged or received and, on the receiver, how many views share
/// the rental once the sender's post has returned.
async fn framed_round<C: AsyncCommunicator + ?Sized>(lower: &C) -> (usize, usize) {
    let rc = ReliableComm::with_config(lower, retry(12));
    if rc.rank() == 0 {
        let staged = rc.make_shared(&[7u8; FRAMED]);
        rc.post(Payload::Shared(staged.clone()), 1, Tag(3)).await.unwrap();
        // Hold the staged view until the receiver has counted the views.
        rc.barrier().await.unwrap();
        rc.barrier().await.unwrap();
        (staged.as_ptr() as usize, 0)
    } else {
        let got = rc.recv_owned(FRAMED, 0, Tag(3)).await.unwrap();
        assert_eq!(&got[..], &[7u8; FRAMED]);
        // Past the first barrier the sender's post has returned: every
        // frame it posted is gone, and only its staged view is left.
        rc.barrier().await.unwrap();
        let shares = got.shares();
        rc.barrier().await.unwrap();
        (got.as_ptr() as usize, shares)
    }
}

/// What [`framed_round`] must show on any executor and any stack under
/// `ReliableComm`: the receiver holds a view of the rental the sender
/// staged, and one staging pass at the sender is the only payload copy —
/// beyond it only the ack moved bytes.
fn assert_same_rental(results: &[(usize, usize)], traffic: &WorldTraffic, stack: &str) {
    assert_eq!(results[1], (results[0].0, 2), "{stack}: not the sender's rental");
    let copied: Vec<u64> = traffic.per_rank.iter().map(|st| st.bytes_copied).collect();
    assert_eq!(copied, vec![FRAMED as u64 + 4, 4], "{stack}: copy bill");
}

/// The frame a receiver gets is a view of the *same* rental the sender
/// staged, whatever sits under `ReliableComm` and on either kind of
/// executor: after a dropped first attempt over `FaultyComm` (the
/// retransmission re-posted a clone), and through the recovery stack's
/// `EpochComm` over a `SubComm`.
#[test]
fn retransmission_reposts_the_staged_rental() {
    let plan = plan_meeting(HALF_DROPPED, &[Drop, Deliver]);
    let out = EventWorld::run(2, |comm| {
        let plan = plan.clone();
        async move { framed_round(&FaultyComm::new(&comm, plan)).await }
    });
    assert_same_rental(&out.results, &out.traffic, "Faulty(EventComm)");
    assert!(out.elapsed >= retry(12).base_timeout, "the first attempt was meant to be lost");
    let out = ThreadWorld::run(2, |comm| {
        complete_now(framed_round(&FaultyComm::new(&SyncComm::new(comm), plan.clone())))
    });
    assert_same_rental(&out.results, &out.traffic, "Faulty(ThreadComm)");
    assert!(out.elapsed >= retry(12).base_timeout, "the first attempt was meant to be lost");

    let members = [0, 1];
    let digest = membership_digest(&members);
    let out = EventWorld::run(2, |comm| async move {
        let sub = SubComm::new(&comm, members.to_vec()).expect("both ranks are members");
        framed_round(&EpochComm::isolated(&sub, 1, digest)).await
    });
    assert_same_rental(&out.results, &out.traffic, "Epoch(Sub(EventComm))");
    let out = ThreadWorld::run(2, |comm| {
        let sync = SyncComm::new(comm);
        let sub = SubComm::new(&sync, members.to_vec()).expect("both ranks are members");
        complete_now(framed_round(&EpochComm::isolated(&sub, 1, digest)))
    });
    assert_same_rental(&out.results, &out.traffic, "Epoch(Sub(ThreadComm))");
}

/// The re-ack of [`oversized_stale_duplicate`], counted: the receiver sends
/// its two acks plus one for the duplicate it dropped.
#[test]
fn oversized_stale_duplicate_is_reacked() {
    let out = EventWorld::run(2, |comm| async move { oversized_stale_duplicate(&comm).await });
    let acks = &out.traffic.per_rank[1];
    assert_eq!((acks.msgs_sent, acks.bytes_sent), (3, 12));
}

/// What the interpreter bills through `Reliable(Faulty(EventComm))` is what
/// it bills on the bare executor: `make_shared` rents from the world's pool
/// and is counted once, the landing copy is counted once, and the frame in
/// between adds nothing but its ack.
#[test]
fn interpreter_copies_are_counted_through_the_stack() {
    const N: usize = 1000;
    let out = EventWorld::run(2, |comm| async move {
        let faulty = FaultyComm::new(&comm, FaultPlan::new(1));
        let rc = ReliableComm::with_config(&faulty, retry(12));
        let before = comm.pool_stats();
        let mut buf = vec![comm.rank() as u8 ^ 1; N];
        let op = if comm.rank() == 0 {
            SchedOp::send("test", 1, Tag(0), 0..N)
        } else {
            SchedOp::recv("test", 0, Tag(0), 0..N)
        };
        Interp::new(&rc, &mut buf).run([op]).await.unwrap();
        assert_eq!(buf, vec![1u8; N]);
        let after = comm.pool_stats();
        (after.hits + after.misses) - (before.hits + before.misses)
    });
    // Staging (rank 0) and landing (rank 1), plus the four ack bytes each
    // side copies in or out.
    let copied: Vec<u64> = out.traffic.per_rank.iter().map(|st| st.bytes_copied).collect();
    assert_eq!(copied, vec![N as u64 + 4, N as u64 + 4]);
    assert!(out.results[0] >= 1, "the staged envelope must be a pool rental");
}

/// Seed of the lossy runs below: `TESTKIT_SEED` (decimal or 0x-hex) when
/// set, a fixed default otherwise — either way the run is deterministic.
fn lossy_seed() -> u64 {
    let Ok(raw) = std::env::var("TESTKIT_SEED") else {
        return 0xB0CA57;
    };
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    parsed.unwrap_or_else(|_| panic!("TESTKIT_SEED={raw:?} is not a decimal or 0x-hex u64"))
}

/// The lossy-ring workload's shape: the tuned broadcast of 128 KiB over
/// 128 ranks.
const LOSSY_P: usize = 128;
const LOSSY_BYTES: usize = 128 << 10;

/// One broadcast of the lossy-ring shape through `Reliable(Faulty(EventComm))`
/// under `plan`, with the workload's retransmission policy; every rank's
/// payload is checked byte for byte.
fn lossy_ring(plan: &FaultPlan) -> WorldOutcome<()> {
    let src: Vec<u8> = (0..LOSSY_BYTES).map(|i| (i * 131 + 7) as u8).collect();
    EventWorld::run(LOSSY_P, |comm| {
        let (src, plan) = (&src, plan.clone());
        async move {
            let faulty = FaultyComm::new(&comm, plan);
            let rc = ReliableComm::with_config(&faulty, retry(12));
            let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0; LOSSY_BYTES] };
            bcast_with_async(&rc, &mut buf, 0, Algorithm::ScatterRingTuned).await.unwrap();
            assert!(buf == *src, "rank {} received a different payload", comm.rank());
        }
    })
}

/// Under 1 % drops the wire carries the algorithm's own messages, each with
/// its 4-byte number, the 4-byte acks, and the retransmissions of lost
/// frames (a dropped frame never reaches the wire counters; its
/// retransmission does). Whatever payload is left over was sent again after
/// it had arrived: only a frame whose receiver is stuck behind another lost
/// frame when the timer fires, since a receiver acks what it has taken.
/// The broadcast settles once, after its ring, so a rank's neighbours run
/// ahead into their ring while it waits for a lost frame, and the frames
/// they queue for it are resent. Over `TESTKIT_SEED` 1 to 80 a broadcast
/// resent 0, 1, 2 or 3 ring chunks on 41, 28, 10 and 1 seeds (settling
/// after each phase as well: 51, 23, 5 and 1); the bound leaves room for
/// eight.
#[test]
fn retransmissions_rarely_resend_a_delivered_frame() {
    let drops = LinkFaults { drop_ppm: 10_000, dup_ppm: 0, delay_ppm: 0 };
    let out = lossy_ring(&FaultPlan::new(lossy_seed()).with_default(drops));
    assert!(out.elapsed >= retry(12).base_timeout, "the plan was meant to drop frames");
    let v = bcast_volume(Algorithm::ScatterRingTuned, LOSSY_BYTES, LOSSY_P);
    let acks = out.traffic.total_msgs() - v.msgs;
    let resent = out.traffic.total_bytes() - (v.bytes + 4 * v.msgs + 4 * acks);
    let ring_chunk = (LOSSY_BYTES / LOSSY_P) as u64;
    assert!(resent <= 8 * ring_chunk, "{resent} B of payload were sent again after they arrived");
}

/// A post returns at once and its ack settles later, and the broadcast
/// settles once, after its ring, so a rank parks only when what it takes
/// has not arrived yet: fewer than four parked polls per rank (127 in all,
/// drop-free). A sender that waited for each frame's ack would park once
/// per frame, and one that settled its scatter before its ring parked
/// 4 287 times.
#[test]
fn a_frame_does_not_park_its_sender() {
    let out = lossy_ring(&FaultPlan::new(lossy_seed()));
    let parked = out.reactor.spurious_polls;
    assert!(parked < 4 * LOSSY_P as u64, "{parked} parked polls for {LOSSY_P} ranks");
}

/// A transport that counts the data frames posted through it and refuses
/// any past `limit` — so a retry budget that never runs out fails at once
/// instead of retransmitting for ever.
struct FrameBudget<'a, C> {
    inner: &'a C,
    limit: u32,
    frames: std::cell::Cell<u32>,
}

impl<C: AsyncCommunicator> AsyncCommunicator for FrameBudget<'_, C> {
    fn rank(&self) -> mpsim::Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    async fn barrier(&self) -> mpsim::Result<()> {
        self.inner.barrier().await
    }

    fn make_shared(&self, data: &[u8]) -> mpsim::SharedBuf {
        self.inner.make_shared(data)
    }

    fn note_copy(&self, bytes: usize) {
        self.inner.note_copy(bytes)
    }

    async fn post(&self, payload: Payload, dest: mpsim::Rank, tag: Tag) -> mpsim::Result<()> {
        if (DATA_TAG_BASE..ACK_TAG_BASE).contains(&tag.0) {
            let sent = self.frames.get() + 1;
            self.frames.set(sent);
            if sent > self.limit {
                let what = "a frame past the budget";
                return Err(CommError::Unsupported { what, size: sent as usize });
            }
        }
        self.inner.post(payload, dest, tag).await
    }

    async fn take(
        &self,
        capacity: usize,
        src: mpsim::Rank,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> mpsim::Result<Payload> {
        self.inner.take(capacity, src, tag, timeout).await
    }

    async fn flush(&self, within: Option<Duration>) -> mpsim::Result<()> {
        self.inner.flush(within).await
    }

    async fn acknowledge(&self) -> mpsim::Result<()> {
        self.inner.acknowledge().await
    }
}

/// `max_attempts` is the whole budget: a send to a peer that never acks
/// times out after exactly that many transmissions. The peer stays (an
/// exited one is `PeerFailed`, not a timeout) until rank 0 releases it.
async fn retry_budget_is_spent_exactly<C: AsyncCommunicator>(comm: &C) {
    if comm.rank() == 1 {
        comm.recv(&mut [0u8; 1], 0, Tag(9)).await.unwrap();
        return;
    }
    let budget = FrameBudget { inner: comm, limit: 3, frames: std::cell::Cell::new(0) };
    let rc = ReliableComm::with_config(&budget, retry(3));
    let sent = rc.send(&[1u8; 8], 1, Tag(0)).await;
    let frames = budget.frames.get();
    comm.send(&[0], 1, Tag(9)).await.unwrap();
    assert_eq!((sent, frames), (Err(CommError::Timeout { peer: 1 }), 3));
}
on_both_executors!(retry_budget_is_spent_exactly);

/// What one replayed run moved: envelopes, wire bytes, bytes copied and the
/// virtual makespan in nanoseconds.
type Replay = (u64, u64, u64, u128);

fn replay<R>(out: &WorldOutcome<R>) -> Replay {
    let t = &out.traffic;
    (t.total_msgs(), t.total_bytes(), t.total_bytes_copied(), out.elapsed.as_nanos())
}

/// `bcast_opt_async` through `Reliable(Faulty(EventComm))` at P = 16 ×
/// 16 KiB under `faults` on every link, seeded `seed`.
fn small_lossy_bcast(seed: u64, faults: LinkFaults) -> Replay {
    const P: usize = 16;
    const N: usize = 16 << 10;
    let plan = FaultPlan::new(seed).with_default(faults);
    let src: Vec<u8> = (0..N).map(|i| (i * 131 + 7) as u8).collect();
    let out = EventWorld::run(P, |comm| {
        let (src, plan) = (&src, plan.clone());
        async move {
            let faulty = FaultyComm::new(&comm, plan);
            let rc = ReliableComm::with_config(&faulty, retry(12));
            let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0; N] };
            bcast_core::bcast_opt_async(&rc, &mut buf, 0).await.unwrap();
            assert!(buf == *src, "rank {} received a different payload", comm.rank());
        }
    });
    replay(&out)
}

/// The reliable stack replays bit for bit: the same frames, acks and
/// retransmissions at the same virtual instants, so the same counts and
/// makespan, for every seed. These are the values the protocol produced
/// when they were recorded; a change to the decorators' bookkeeping that
/// moves any of them changed what goes on the wire or when.
#[test]
fn lossy_broadcasts_replay_their_recorded_runs() {
    let drops = LinkFaults { drop_ppm: 10_000, dup_ppm: 0, delay_ppm: 0 };
    let got: Vec<Replay> = (1..=8).map(|seed| small_lossy_bcast(seed, drops)).collect();
    // Each lost frame stalls its channel one 5 ms timer; seed 3 drops none.
    let recorded: [Replay; 8] = [
        (259, 246_796, 262_432, 5_000_000),
        (265, 246_820, 262_480, 10_000_000),
        (253, 246_772, 262_384, 0),
        (258, 246_792, 262_424, 5_000_000),
        (256, 246_784, 262_408, 5_000_000),
        (260, 246_800, 262_440, 10_000_000),
        (272, 246_848, 262_536, 15_000_001),
        (258, 246_792, 262_424, 5_000_000),
    ];
    assert_eq!(got, recorded);
    assert_eq!(small_lossy_bcast(1, LinkFaults::NONE), (253, 246_772, 262_384, 0), "drop-free");
}

/// The same pin for the `FaultyComm` half alone: a self-healing broadcast
/// at P = 32 × 2 KiB whose ranks 5 and 20 fail-stop half an epoch apart.
#[test]
fn a_healing_broadcast_replays_its_recorded_run() {
    const P: usize = 32;
    let src: Vec<u8> = (0..2048).map(|i| (i * 29 + 3) as u8).collect();
    let plan = FaultPlan::new(7).with_crash(5, 4).with_crash(20, 4 + 2 * P as u64);
    let cfg = bcast_core::RecoveryConfig {
        step_timeout: Duration::from_millis(40),
        max_epochs: 4,
        bounded_sendrecv: false,
    };
    let out = EventWorld::run(P, |comm| {
        let (src, plan) = (&src, plan.clone());
        async move {
            let faulty = FaultyComm::new(&comm, plan);
            let drill = bcast_core::RecoveryDrill::NONE;
            let run = bcast_core::self_healing_rank_task(
                &faulty,
                src,
                0,
                Algorithm::ScatterRingTuned,
                &cfg,
                &drill,
            )
            .await;
            run.result.map(|healed| (healed.epochs, healed.survivors.len())).map_err(drop)
        }
    });
    assert_eq!(replay(&out), (2774, 103_916, 109_036, 80_000_000));
    let healed: Vec<usize> = (0..P).filter(|&r| out.results[r] == Ok((3, P - 2))).collect();
    let lost: Vec<usize> = (0..P).filter(|&r| out.results[r].is_err()).collect();
    assert_eq!((healed.len(), lost), (P - 2, vec![5, 20]), "healed in three epochs");
}

//! Backend-agnostic conformance suite for communicator semantics.
//!
//! One generic battery of point-to-point semantics — self-messaging
//! sendrecv, zero-byte messages, truncation errors, out-of-order
//! `(source, tag)` matching — executed verbatim against all three
//! executors: the threaded runtime, the virtual-time simulator, and the
//! discrete-event async executor. The batteries are written once against
//! [`AsyncCommunicator`]; the blocking backends drive them through the
//! [`SyncComm`] bridge (whose futures complete on first poll), the event
//! executor runs them as genuinely suspending tasks.
//!
//! A second battery covers the fault layer: `recv_timeout` expiry
//! semantics, and `ReliableComm` masking seeded drop / duplication / delay
//! faults injected by `netsim::FaultyComm` — again on every executor (on
//! the event executor the retransmission timers run on the virtual clock).
//! Its deadline-edge companion pins what happens when the deadline equals
//! the delivery timestamp: queued messages beat expired deadlines, expiry
//! consumes nothing, and on the event executor the exact-coincidence case
//! (deadline and send on one virtual timestamp) resolves deterministically
//! by poll order — both resolutions pinned.
//! The fault plan is seeded from `TESTKIT_SEED` when set, so a failing run
//! replays bit-identically.
//!
//! A third battery pins the shared-payload (zero-copy) surface:
//! `make_shared` snapshot semantics (mutating the source after
//! `send_shared` is unobservable at any receiver), wire-format equivalence
//! with plain transfers in both directions, sub-view slice
//! forwarding, truncation on `recv_owned`, and
//! the fused `sendrecv_shared` exchange — including forwarding a received
//! envelope without copying, the ring allgather's hold chain. A decorator
//! companion drives the same calls through `SubComm` rank translation,
//! `ReliableComm` retransmission framing, and the recovery layer's
//! `GuardedComm` deadlines, proving every wrapper carries the surface
//! through by transforming the envelope core it is built on.
//!
//! A fourth battery pins the prefixed pair (`send_prefixed` / `recv_prefixed`,
//! a framing decorator's four-byte header travelling beside the body): the
//! wire image is `prefix ‖ body` whichever call produced or consumed it, and
//! every executor sends the framed envelope as-is — the sender's wire and
//! copy bill is the same number on all three.

use std::time::Duration;

use bcast_core::GuardedComm;
use mpsim::{
    complete_now, AsyncCommunicator, CommError, EventWorld, ReliableComm, RetryConfig, SubComm,
    SyncComm, Tag, ThreadWorld, WorldTraffic,
};
use netsim::{FaultPlan, FaultyComm, LinkFaults, NetworkModel, Placement, SimWorld};

const WORLD: usize = 6;

/// Seed for the fault battery: `TESTKIT_SEED` (decimal or 0x-hex) when set,
/// a fixed default otherwise — either way the whole run is deterministic.
fn battery_seed() -> u64 {
    let Ok(raw) = std::env::var("TESTKIT_SEED") else {
        return 0xB0A7_CAFE_5EED_0001;
    };
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    parsed.unwrap_or_else(|_| panic!("TESTKIT_SEED={raw:?} is not a decimal or 0x-hex u64"))
}

/// The conformance battery. Runs on every rank of a `WORLD`-sized world;
/// panics (failing the hosting test) on any semantic violation.
///
/// The two sections that receive one sender's messages in an order other
/// than the one they were sent in run only where delivery is `buffered`
/// (threads, the event executor, the all-eager simulator): under a
/// rendezvous protocol a blocking receive for a later message while the
/// peer's earlier send is still unmatched deadlocks (exactly as in MPI), and
/// with only blocking calls there is no other way to write such a receive —
/// that behaviour left with the nonblocking surface.
async fn conformance_battery<C: AsyncCommunicator>(comm: &C, buffered: bool) {
    assert_eq!(comm.size(), WORLD);
    let me = comm.rank();

    // --- sendrecv with self as both peers: must not deadlock and must
    // deliver the payload back (MPI_Sendrecv to MPI_PROC self).
    let sbuf = [me as u8; 17];
    let mut rbuf = [0u8; 17];
    let n = comm.sendrecv(&sbuf, me, Tag(1), &mut rbuf, me, Tag(1)).await.unwrap();
    assert_eq!(n, 17);
    assert_eq!(rbuf, sbuf, "self sendrecv must loop the payload back");

    // --- zero-byte messages are real messages: they match, complete, and
    // report length 0 (MPI semantics; used by barrier-style protocols).
    let right = mpsim::ring_right(me, WORLD);
    let left = mpsim::ring_left(me, WORLD);
    let mut empty: [u8; 0] = [];
    let n = comm.sendrecv(&[], right, Tag(2), &mut empty, left, Tag(2)).await.unwrap();
    assert_eq!(n, 0, "zero-byte message must deliver zero bytes");

    // --- zero-byte into a non-empty buffer leaves the buffer untouched.
    // Self-messaging must go through sendrecv: a blocking send to self is
    // a deadlock under rendezvous protocols (as in MPI without buffering).
    let mut untouched = [0xEEu8; 4];
    let n = comm.sendrecv(&[], me, Tag(3), &mut untouched, me, Tag(3)).await.unwrap();
    assert_eq!(n, 0);
    assert_eq!(untouched, [0xEE; 4]);

    // --- truncation: a message larger than the receive buffer is an error
    // at the receiver, and the error carries both sizes.
    comm.barrier().await.unwrap();
    if me == 0 {
        // Eager backends complete this send; rendezvous backends surface the
        // truncation at the sender too (it is still blocked at match time).
        // Both are MPI-conformant, so only the receiver's error is pinned.
        let _ = comm.send(&[7u8; 32], 1, Tag(4)).await;
    } else if me == 1 {
        let mut small = [0u8; 8];
        let err = comm.recv(&mut small, 0, Tag(4)).await.unwrap_err();
        assert_eq!(err, CommError::Truncation { capacity: 8, incoming: 32 });
    }
    // The fabric may fail the (rendezvous) sender too; either way the world
    // must keep working afterwards for everyone else.
    comm.barrier().await.unwrap();

    // --- out-of-order matching on tags: receives issued in a different
    // order than the sends still pair up by tag.
    if buffered && me == 2 {
        comm.send(&[10], 3, Tag(10)).await.unwrap();
        comm.send(&[20], 3, Tag(20)).await.unwrap();
        comm.send(&[30], 3, Tag(30)).await.unwrap();
    } else if buffered && me == 3 {
        for tag in [30u32, 10, 20] {
            let mut buf = [0u8; 1];
            comm.recv(&mut buf, 2, Tag(tag)).await.unwrap();
            assert_eq!(u32::from(buf[0]), tag, "tag {tag} matched the wrong message");
        }
    }

    // --- out-of-order matching on sources: a receiver can pick messages
    // from distinct sources in any order it likes.
    if me == 4 {
        let mut buf = [0u8; 1];
        // post receives in descending source order; sends arrive ascending
        for src in [3usize, 2, 1, 0] {
            comm.recv(&mut buf, src, Tag(5)).await.unwrap();
            assert_eq!(buf[0] as usize, src, "source {src} matched the wrong message");
        }
    } else if me < 4 {
        comm.send(&[me as u8], 4, Tag(5)).await.unwrap();
    }

    // --- per-(source, tag) FIFO survives interleaving with another tag.
    if buffered && me == 5 {
        comm.send(&[1], 0, Tag(7)).await.unwrap();
        comm.send(&[99], 0, Tag(8)).await.unwrap();
        comm.send(&[2], 0, Tag(7)).await.unwrap();
    } else if buffered && me == 0 {
        let mut buf = [0u8; 1];
        comm.recv(&mut buf, 5, Tag(7)).await.unwrap();
        assert_eq!(buf[0], 1);
        comm.recv(&mut buf, 5, Tag(7)).await.unwrap();
        assert_eq!(buf[0], 2, "same-tag messages must stay FIFO");
        comm.recv(&mut buf, 5, Tag(8)).await.unwrap();
        assert_eq!(buf[0], 99);
    }

    comm.barrier().await.unwrap();
}

/// The fault battery: timeout semantics on the bare communicator, then
/// `ReliableComm` over `FaultyComm` under seeded drop, duplication, and
/// delay faults. Requires an eagerly-delivering transport (`FaultyComm`'s
/// send-side injection and `ReliableComm`'s retransmissions both document
/// this), so the simulator runs it on an all-eager model only; the event
/// executor is always eager and runs every timeout on its virtual clock.
async fn fault_battery<C: AsyncCommunicator>(comm: &C, seed: u64) {
    assert_eq!(comm.size(), WORLD);
    let me = comm.rank();
    let right = mpsim::ring_right(me, WORLD);
    let left = mpsim::ring_left(me, WORLD);

    // --- recv_timeout expiry is an error that consumes nothing: the same
    // receive succeeds once the message actually exists.
    if me == 0 {
        let mut buf = [0u8; 4];
        let err =
            comm.recv_timeout(&mut buf, 1, Tag(40), Duration::from_millis(20)).await.unwrap_err();
        assert_eq!(err, CommError::Timeout { peer: 1 });
    }
    comm.barrier().await.unwrap();
    if me == 1 {
        comm.send(&[9, 9, 9, 9], 0, Tag(40)).await.unwrap();
    } else if me == 0 {
        let mut buf = [0u8; 4];
        let n = comm.recv_timeout(&mut buf, 1, Tag(40), Duration::from_secs(5)).await.unwrap();
        assert_eq!((n, buf), (4, [9, 9, 9, 9]), "late message must still arrive intact");
    }
    comm.barrier().await.unwrap();

    // Short timeouts keep retransmission cheap; the attempt budget makes a
    // permanent failure under these loss rates astronomically unlikely.
    let retry = RetryConfig {
        base_timeout: Duration::from_millis(5),
        max_timeout: Duration::from_millis(40),
        max_attempts: 12,
    };
    let scenarios: [(&str, u32, LinkFaults); 3] = [
        ("drop", 41, LinkFaults { drop_ppm: 150_000, dup_ppm: 0, delay_ppm: 0 }),
        ("dup", 42, LinkFaults { drop_ppm: 0, dup_ppm: 1_000_000, delay_ppm: 0 }),
        ("mixed", 43, LinkFaults { drop_ppm: 100_000, dup_ppm: 200_000, delay_ppm: 200_000 }),
    ];
    for (label, tag, faults) in scenarios {
        let plan = FaultPlan::new(seed ^ u64::from(tag)).with_default(faults);
        let faulty = FaultyComm::new(comm, plan);
        let rc = ReliableComm::with_config(&faulty, retry);
        // Ring exchange with per-round payloads: delivery, ordering, and
        // duplicate suppression are all visible in the asserted bytes.
        for round in 0..8u8 {
            let out = [me as u8, round];
            let mut inb = [0u8; 2];
            let n = rc
                .sendrecv(&out, right, Tag(tag), &mut inb, left, Tag(tag))
                .await
                .unwrap_or_else(|e| panic!("{label}: rank {me} round {round} sendrecv: {e:?}"));
            assert_eq!(
                (n, inb),
                (2, [left as u8, round]),
                "{label}: round {round} payload corrupted or out of order"
            );
        }
        comm.barrier().await.unwrap();
        // Fan-in to rank 0 on a fresh tag: cross-source interleaving under
        // the same faults must still deliver one intact stream per source.
        let fan = Tag(tag + 100);
        if me == 0 {
            let mut buf = [0u8; 2];
            for src in 1..WORLD {
                for round in 0..4u8 {
                    rc.recv(&mut buf, src, fan).await.unwrap();
                    assert_eq!(buf, [src as u8, round], "{label}: fan-in stream broke");
                }
            }
        } else {
            for round in 0..4u8 {
                rc.send(&[me as u8, round], 0, fan).await.unwrap();
            }
        }
        comm.barrier().await.unwrap();
    }
}

/// The deadline-edge battery: `recv_timeout` when the deadline has already
/// expired at evaluation time — the boundary the recovery layer's failure
/// detector lives on — or lies past the end of the clock. The portable
/// contract, pinned on every executor:
///
/// * **Queued message wins.** Expiry is judged only after the mailbox is
///   consulted, so a receive whose deadline is already past (zero timeout)
///   still delivers a message that was queued beforehand — the
///   `deadline == delivery timestamp` edge resolves in favor of the data.
/// * **Expiry consumes nothing.** A timed-out receive leaves the channel
///   untouched; a message sent afterwards is delivered intact to the next
///   matching receive.
/// * **No deadline overflows.** `Duration::MAX` saturates to an unbounded
///   wait.
async fn timeout_edge_battery<C: AsyncCommunicator>(comm: &C) {
    assert_eq!(comm.size(), WORLD);
    let me = comm.rank();

    // --- arm order 1: the message is already queued when the receive is
    // posted with an already-expired (zero) deadline: the message wins.
    if me == 1 {
        comm.send(&[0xAB], 0, Tag(70)).await.unwrap();
    }
    comm.barrier().await.unwrap();
    if me == 0 {
        let mut buf = [0u8; 1];
        let n = comm.recv_timeout(&mut buf, 1, Tag(70), Duration::ZERO).await.unwrap();
        assert_eq!((n, buf[0]), (1, 0xAB), "queued message must beat an expired deadline");
    }
    comm.barrier().await.unwrap();

    // --- arm order 2: the deadline expires on an empty channel; the late
    // message is not consumed by the failed receive.
    if me == 0 {
        let mut buf = [0u8; 1];
        let err = comm.recv_timeout(&mut buf, 1, Tag(71), Duration::ZERO).await.unwrap_err();
        assert_eq!(err, CommError::Timeout { peer: 1 });
    }
    comm.barrier().await.unwrap();
    if me == 1 {
        comm.send(&[0xCD], 0, Tag(71)).await.unwrap();
    } else if me == 0 {
        let mut buf = [0u8; 1];
        let n = comm.recv(&mut buf, 1, Tag(71)).await.unwrap();
        assert_eq!((n, buf[0]), (1, 0xCD), "expiry must not consume the late message");
    }
    comm.barrier().await.unwrap();

    // --- a deadline beyond any clock's range is no deadline: the receive
    // waits for the message instead of overflowing.
    if me == 1 {
        comm.send(&[0xEF], 0, Tag(72)).await.unwrap();
    } else if me == 0 {
        let mut buf = [0u8; 1];
        let n = comm.recv_timeout(&mut buf, 1, Tag(72), Duration::MAX).await.unwrap();
        assert_eq!((n, buf[0]), (1, 0xEF), "an unrepresentable deadline must wait");
    }
    comm.barrier().await.unwrap();
}

/// The shared-payload battery. Every exchange is pairwise (`me ^ 1`) or a
/// fused `sendrecv_shared`, so it is rendezvous-safe and runs verbatim on
/// every executor and under both simulator regimes.
async fn shared_battery<C: AsyncCommunicator>(comm: &C) {
    assert_eq!(comm.size(), WORLD);
    let me = comm.rank();
    let partner = me ^ 1;

    // --- snapshot semantics: `make_shared` captures the bytes at call
    // time, so mutating the source buffer after `send_shared` must be
    // unobservable at the receiver — the aliasing hazard zero-copy
    // forwarding would otherwise open. The mutation strictly precedes the
    // second send, so a backend that kept a live reference into `src`
    // would fail the Tag(81) assertion deterministically.
    if me.is_multiple_of(2) {
        let mut src: Vec<u8> = (0..48u8).map(|i| i.wrapping_mul(7) ^ me as u8).collect();
        let shared = comm.make_shared(&src);
        assert_eq!(shared.shares(), 1, "fresh snapshot must be sole owner");
        let extra = shared.clone();
        assert_eq!(shared.shares(), 2, "a clone is a refcount bump");
        drop(extra);
        comm.send_shared(&shared, partner, Tag(80)).await.unwrap();
        src.fill(0xFF); // sender-side mutation after the send
        comm.send_shared(&shared, partner, Tag(81)).await.unwrap();
    } else {
        let expect: Vec<u8> = (0..48u8).map(|i| i.wrapping_mul(7) ^ partner as u8).collect();
        // Oversized capacity behaves like an oversized receive buffer: the
        // envelope arrives at its true length.
        let env = comm.recv_owned(64, partner, Tag(80)).await.unwrap();
        assert_eq!(env.len(), 48);
        assert_eq!(&env[..], &expect[..]);
        let env = comm.recv_owned(48, partner, Tag(81)).await.unwrap();
        assert_eq!(
            &env[..],
            &expect[..],
            "source mutation after send_shared leaked into the envelope"
        );
    }
    comm.barrier().await.unwrap();

    // --- wire-format equivalence: a shared envelope is indistinguishable
    // from a plain transfer of the same bytes, in either direction,
    // including shared sub-view slices.
    let src: Vec<u8> = (0..32u8).map(|i| i.wrapping_add(9)).collect();
    if me.is_multiple_of(2) {
        let shared = comm.make_shared(&src);
        // shared send → plain receive into a larger buffer
        comm.send_shared(&shared.slice(4..10), partner, Tag(82)).await.unwrap();
        // shared send → plain receive
        comm.send_shared(&shared.slice(20..32), partner, Tag(83)).await.unwrap();
        // plain send → owned receive
        comm.send(&src[24..31], partner, Tag(84)).await.unwrap();
        // zero-byte shared envelopes are real messages
        comm.send_shared(&shared.slice(8..8), partner, Tag(85)).await.unwrap();
    } else {
        let mut wide = [0xEEu8; 8];
        assert_eq!(comm.recv(&mut wide, partner, Tag(82)).await.unwrap(), 6);
        assert_eq!(wide[..6], src[4..10]);
        assert_eq!(wide[6..], [0xEE; 2], "bytes past the message must stay untouched");
        let mut plain = [0u8; 12];
        assert_eq!(comm.recv(&mut plain, partner, Tag(83)).await.unwrap(), 12);
        assert_eq!(plain[..], src[20..32]);
        let env = comm.recv_owned(16, partner, Tag(84)).await.unwrap();
        assert_eq!(env.len(), 7);
        assert_eq!(env[..], src[24..31]);
        let empty = comm.recv_owned(0, partner, Tag(85)).await.unwrap();
        assert_eq!(empty.len(), 0, "zero-byte shared envelope must deliver empty");
    }
    comm.barrier().await.unwrap();

    // --- truncation: an envelope longer than `capacity` is an error at
    // the receiver, exactly as for a too-small receive buffer. (Rendezvous
    // backends may surface the failure at the sender too; only the
    // receiver's error is pinned — same contract as the plain battery.)
    if me == 0 {
        let shared = comm.make_shared(&[7u8; 32]);
        let _ = comm.send_shared(&shared, 1, Tag(86)).await;
    } else if me == 1 {
        let err = comm.recv_owned(8, 0, Tag(86)).await.unwrap_err();
        assert_eq!(err, CommError::Truncation { capacity: 8, incoming: 32 });
    }
    comm.barrier().await.unwrap();

    // --- fused exchange around the ring, then forward the received
    // envelope itself: the allgather hold chain. Step two sends the step-one
    // envelope with no intervening copy, so the payload two hops left must
    // arrive intact — and the held clone must still read its own bytes
    // afterwards (forwarding must not invalidate the holder's view).
    let right = mpsim::ring_right(me, WORLD);
    let left = mpsim::ring_left(me, WORLD);
    let left2 = mpsim::ring_left(left, WORLD);
    let mine = comm.make_shared(&[me as u8; 8]);
    let env = comm.sendrecv_shared(&mine, right, Tag(88), 8, left, Tag(88)).await.unwrap();
    assert_eq!(&env[..], &[left as u8; 8], "ring step 1 delivered wrong payload");
    let env2 = comm.sendrecv_shared(&env, right, Tag(89), 8, left, Tag(89)).await.unwrap();
    assert_eq!(&env2[..], &[left2 as u8; 8], "forwarded envelope corrupted");
    assert_eq!(&env[..], &[left as u8; 8], "forwarding must not disturb the held view");
    comm.barrier().await.unwrap();
}

/// The prefixed-envelope battery. Pairwise one-way (`me ^ 1`), every
/// message received in the order it was sent, so it is rendezvous-safe.
async fn prefixed_battery<C: AsyncCommunicator>(comm: &C) {
    assert_eq!(comm.size(), WORLD);
    let me = comm.rank();
    let partner = me ^ 1;
    let body: Vec<u8> = (0..24u8).map(|i| i.wrapping_mul(5) ^ 0x30).collect();
    let prefix = [0xDE, 0xAD, 0xBE, 0xEF];
    let image = [&prefix[..], &body[..]].concat();
    let tag = Tag(100);
    if me.is_multiple_of(2) {
        let shared = comm.make_shared(&body);
        // Six times the same image, from either side of the pair of calls.
        for _ in 0..4 {
            comm.send_prefixed(prefix, &shared, partner, tag).await.unwrap();
        }
        comm.send(&image, partner, tag).await.unwrap();
        comm.send_shared(&comm.make_shared(&image), partner, tag).await.unwrap();
        // The edges: an empty body, a bare prefix, a runt, a body too long.
        comm.send_prefixed(prefix, &shared.slice(0..0), partner, tag).await.unwrap();
        comm.send(&prefix, partner, tag).await.unwrap();
        comm.send(&prefix[..3], partner, tag).await.unwrap();
        let _ = comm.send_prefixed(prefix, &shared, partner, tag).await;
    } else {
        // prefixed → prefixed: the two parts come back as posted.
        let (p, b) = comm.recv_prefixed(32, partner, tag, None).await.unwrap().unwrap();
        assert_eq!((p, &b[..]), (prefix, &body[..]));
        // prefixed → plain, owned, bounded: the concatenated image.
        let mut plain = [0u8; 28];
        assert_eq!(comm.recv(&mut plain, partner, tag).await.unwrap(), 28);
        assert_eq!(plain[..], image[..]);
        assert_eq!(&comm.recv_owned(28, partner, tag).await.unwrap()[..], &image[..]);
        let mut bounded = [0u8; 28];
        let wait = Duration::from_secs(5);
        assert_eq!(comm.recv_timeout(&mut bounded, partner, tag, wait).await.unwrap(), 28);
        assert_eq!(bounded[..], image[..]);
        // plain or shared → prefixed: split after the fourth byte, within
        // a deadline as well as without one.
        for wait in [None, Some(Duration::from_secs(5))] {
            let (p, b) = comm.recv_prefixed(24, partner, tag, wait).await.unwrap().unwrap();
            assert_eq!((p, &b[..]), (prefix, &body[..]));
        }
        for _ in 0..2 {
            let (p, b) = comm.recv_prefixed(0, partner, tag, None).await.unwrap().unwrap();
            assert_eq!((p, b.len()), (prefix, 0), "a bare prefix frames an empty body");
        }
        let runt = comm.recv_prefixed(8, partner, tag, None).await.unwrap();
        assert!(runt.is_none(), "three bytes cannot carry a prefix");
        // `capacity` bounds the body, in the body's terms.
        let err = comm.recv_prefixed(23, partner, tag, None).await.unwrap_err();
        assert_eq!(err, CommError::Truncation { capacity: 23, incoming: 24 });
        // Expiry on an empty channel is a timeout, as for any bounded receive.
        let wait = Some(Duration::from_millis(20));
        let err = comm.recv_prefixed(8, partner, Tag(101), wait).await.unwrap_err();
        assert_eq!(err, CommError::Timeout { peer: partner });
    }
    comm.barrier().await.unwrap();
}

/// Decorator passthrough for the shared-payload surface: every wrapper must
/// carry it through intact — `SubComm` translates ranks, `ReliableComm`
/// frames each payload in its retransmission protocol (the sequence number
/// beside it), `GuardedComm`
/// bounds each receive with a deadline. Requires an
/// eagerly-delivering transport (`GuardedComm` decomposes `sendrecv` and
/// `ReliableComm` retransmits), like the fault battery.
async fn shared_decorator_battery<C: AsyncCommunicator>(comm: &C) {
    assert_eq!(comm.size(), WORLD);
    let me = comm.rank();

    // --- SubComm with reversed members: local rank r is parent rank
    // WORLD-1-r, so a pairwise exchange in local space crosses translated
    // parent ranks.
    let members: Vec<usize> = (0..WORLD).rev().collect();
    let sub = SubComm::new_async(comm, members).expect("every rank is a member");
    let lme = sub.rank();
    let lpartner = lme ^ 1;
    if lme.is_multiple_of(2) {
        let shared = sub.make_shared(&[lme as u8; 16]);
        sub.send_shared(&shared, lpartner, Tag(90)).await.unwrap();
    } else {
        let env = sub.recv_owned(16, lpartner, Tag(90)).await.unwrap();
        assert_eq!(&env[..], &[lpartner as u8; 16], "SubComm mistranslated a shared send");
    }
    let lright = mpsim::ring_right(lme, WORLD);
    let lleft = mpsim::ring_left(lme, WORLD);
    let mine = sub.make_shared(&[lme as u8; 4]);
    let env = sub.sendrecv_shared(&mine, lright, Tag(91), 4, lleft, Tag(91)).await.unwrap();
    assert_eq!(&env[..], &[lleft as u8; 4], "SubComm fused exchange broke");
    sub.barrier().await.unwrap();

    // --- ReliableComm: the shared send travels inside the ACK protocol;
    // sequence numbers and retransmission state must frame it like any
    // plain payload.
    let retry = RetryConfig {
        base_timeout: Duration::from_millis(50),
        max_timeout: Duration::from_millis(200),
        max_attempts: 8,
    };
    let rc = ReliableComm::with_config(comm, retry);
    let partner = me ^ 1;
    if me.is_multiple_of(2) {
        let shared = rc.make_shared(&[0xA5; 12]);
        rc.send_shared(&shared, partner, Tag(92)).await.unwrap();
        let env = rc.recv_owned(12, partner, Tag(93)).await.unwrap();
        assert_eq!(&env[..], &[0x5A; 12]);
    } else {
        let env = rc.recv_owned(12, partner, Tag(92)).await.unwrap();
        assert_eq!(&env[..], &[0xA5; 12], "ReliableComm framing corrupted a shared payload");
        let shared = rc.make_shared(&[0x5A; 12]);
        rc.send_shared(&shared, partner, Tag(93)).await.unwrap();
    }
    comm.barrier().await.unwrap();

    // --- GuardedComm: deadline-bounded receives under the recovery layer;
    // the shared surface must flow through its timeout plumbing untouched.
    let guarded = GuardedComm::new(comm, Duration::from_secs(5));
    if me.is_multiple_of(2) {
        let shared = guarded.make_shared(&[0x3C; 20]);
        guarded.send_shared(&shared, partner, Tag(94)).await.unwrap();
    } else {
        let env = guarded.recv_owned(20, partner, Tag(94)).await.unwrap();
        assert_eq!(&env[..], &[0x3C; 20], "GuardedComm deadline plumbing corrupted a payload");
    }
    comm.barrier().await.unwrap();
}

#[test]
fn threaded_backend_conforms() {
    ThreadWorld::run(WORLD, |comm| complete_now(conformance_battery(&SyncComm::new(comm), true)));
}

#[test]
fn threaded_backend_masks_seeded_faults() {
    let seed = battery_seed();
    ThreadWorld::run(WORLD, move |comm| complete_now(fault_battery(&SyncComm::new(comm), seed)));
}

#[test]
fn simulated_backend_masks_seeded_faults() {
    let seed = battery_seed();
    let mut model = NetworkModel::uniform(50.0, 1.0);
    model.eager_threshold = usize::MAX; // fault battery needs eager delivery
    SimWorld::run(model, Placement::new(2), WORLD, move |comm| {
        complete_now(fault_battery(&SyncComm::new(comm), seed))
    });
}

#[test]
fn simulated_backend_conforms_rendezvous() {
    // uniform model: rendezvous everywhere
    let model = NetworkModel::uniform(50.0, 1.0);
    SimWorld::run(model, Placement::new(4), WORLD, |comm| {
        complete_now(conformance_battery(&SyncComm::new(comm), false))
    });
}

#[test]
fn simulated_backend_conforms_eager() {
    let mut model = NetworkModel::uniform(50.0, 1.0);
    model.eager_threshold = usize::MAX; // everything eager
    SimWorld::run(model, Placement::new(2), WORLD, |comm| {
        complete_now(conformance_battery(&SyncComm::new(comm), true))
    });
}

#[test]
fn event_backend_conforms() {
    EventWorld::run(WORLD, |comm| async move { conformance_battery(&comm, true).await });
}

#[test]
fn event_backend_masks_seeded_faults() {
    let seed = battery_seed();
    EventWorld::run(WORLD, move |comm| async move { fault_battery(&comm, seed).await });
}

#[test]
fn threaded_backend_shared_conforms() {
    ThreadWorld::run(WORLD, |comm| complete_now(shared_battery(&SyncComm::new(comm))));
}

#[test]
fn simulated_backend_shared_conforms_rendezvous() {
    let model = NetworkModel::uniform(50.0, 1.0);
    SimWorld::run(model, Placement::new(4), WORLD, |comm| {
        complete_now(shared_battery(&SyncComm::new(comm)))
    });
}

#[test]
fn simulated_backend_shared_conforms_eager() {
    let mut model = NetworkModel::uniform(50.0, 1.0);
    model.eager_threshold = usize::MAX;
    SimWorld::run(model, Placement::new(2), WORLD, |comm| {
        complete_now(shared_battery(&SyncComm::new(comm)))
    });
}

#[test]
fn event_backend_shared_conforms() {
    EventWorld::run(WORLD, |comm| async move { shared_battery(&comm).await });
}

/// The bill of [`prefixed_battery`]'s sender, the same on every executor:
/// counted like plain sends of the image; of the ten messages per pair the
/// sender copied only the body and the image it staged and the plain image,
/// prefix and runt.
fn assert_prefixed_bill(traffic: &WorldTraffic) {
    let sender = &traffic.per_rank[0];
    assert_eq!((sender.msgs_sent, sender.bytes_sent), (10, 7 * 28 + 4 + 4 + 3));
    assert_eq!(sender.bytes_copied, 24 + 2 * 28 + 4 + 3);
}

#[test]
fn threaded_backend_prefixed_conforms() {
    let out = ThreadWorld::run(WORLD, |comm| complete_now(prefixed_battery(&SyncComm::new(comm))));
    assert_prefixed_bill(&out.traffic);
}

#[test]
fn simulated_backend_prefixed_conforms_rendezvous() {
    let model = NetworkModel::uniform(50.0, 1.0);
    let out = SimWorld::run(model, Placement::new(4), WORLD, |comm| {
        complete_now(prefixed_battery(&SyncComm::new(comm)))
    });
    assert_prefixed_bill(&out.traffic);
}

#[test]
fn event_backend_prefixed_conforms() {
    let out = EventWorld::run(WORLD, |comm| async move { prefixed_battery(&comm).await });
    assert_prefixed_bill(&out.traffic);
}

#[test]
fn threaded_backend_shared_decorators_conform() {
    ThreadWorld::run(WORLD, |comm| complete_now(shared_decorator_battery(&SyncComm::new(comm))));
}

#[test]
fn simulated_backend_shared_decorators_conform() {
    let mut model = NetworkModel::uniform(50.0, 1.0);
    model.eager_threshold = usize::MAX; // GuardedComm/ReliableComm need eager delivery
    SimWorld::run(model, Placement::new(2), WORLD, |comm| {
        complete_now(shared_decorator_battery(&SyncComm::new(comm)))
    });
}

#[test]
fn event_backend_shared_decorators_conform() {
    EventWorld::run(WORLD, |comm| async move { shared_decorator_battery(&comm).await });
}

#[test]
fn threaded_backend_timeout_edges_conform() {
    ThreadWorld::run(WORLD, |comm| complete_now(timeout_edge_battery(&SyncComm::new(comm))));
}

#[test]
fn simulated_backend_timeout_edges_conform() {
    let mut model = NetworkModel::uniform(50.0, 1.0);
    model.eager_threshold = usize::MAX; // queued-wins needs eager delivery
    SimWorld::run(model, Placement::new(2), WORLD, |comm| {
        complete_now(timeout_edge_battery(&SyncComm::new(comm)))
    });
}

#[test]
fn event_backend_timeout_edges_conform() {
    EventWorld::run(WORLD, |comm| async move { timeout_edge_battery(&comm).await });
}

/// The true simultaneity case, only expressible on a virtual clock: the
/// receiver's deadline and the sender's send land on the *same* event-world
/// timestamp. The executor resolves the tie by task poll order (rank
/// order), and the mailbox-before-deadline rule makes both resolutions
/// principled:
///
/// * receiver polled first → its mailbox is still empty at the deadline
///   instant → `Timeout`, even though the message materializes at the same
///   timestamp;
/// * sender polled first → the message is queued by the time the expired
///   receiver is polled → delivered.
///
/// Both outcomes are pinned, with `now_ns` equality proving the
/// coincidence is exact — this is the determinism contract the chaos
/// search's replay-by-seed rests on.
#[test]
fn event_backend_deadline_equal_to_delivery_timestamp() {
    const EDGE: Duration = Duration::from_millis(5);
    for (sender, receiver, delivered) in [(1usize, 0usize, false), (0, 1, true)] {
        let out = EventWorld::run(2, |comm| async move {
            let me = comm.rank();
            let mut buf = [0u8; 1];
            let res = if me == sender {
                // Burn exactly EDGE of virtual time with a self-targeted
                // receive (self receives are exempt from exited-peer
                // detection, so this is a pure timer).
                comm.recv_timeout(&mut buf, me, Tag(99), EDGE).await.unwrap_err();
                comm.send(&[0x77], receiver, Tag(70)).await.unwrap();
                Ok(0)
            } else {
                comm.recv_timeout(&mut buf, sender, Tag(70), EDGE).await
            };
            // Keep both ranks in the world until the edge resolves, so the
            // receiver's verdict is about the deadline, not a peer exit.
            let at = comm.now_ns();
            comm.barrier().await.unwrap();
            (res, at, buf[0])
        });
        let (send_res, send_at, _) = &out.results[sender];
        let (recv_res, recv_at, payload) = &out.results[receiver];
        assert_eq!(send_res, &Ok(0));
        assert_eq!(send_at, recv_at, "send and deadline must share one timestamp");
        assert_eq!(*recv_at, EDGE.as_nanos() as u64);
        if delivered {
            assert_eq!((recv_res, *payload), (&Ok(1), 0x77), "queued-at-poll message must win");
        } else {
            assert_eq!(
                recv_res,
                &Err(CommError::Timeout { peer: sender }),
                "empty-at-poll deadline must expire"
            );
        }
    }
}

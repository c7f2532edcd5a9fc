//! ThreadWorld's mailbox is the reactor's `LaneMailbox` behind one lock:
//! per-`(source, tag)` FIFO under concurrent fan-in past the inline tag
//! buckets, and the `mailbox_spills` counter on both sides of the inline
//! limit.

use bcast_core::verify::pattern;
use bcast_core::{bcast_with, Algorithm};
use mpsim::event_mailbox::INLINE_TAGS;
use mpsim::{Communicator, Tag, ThreadWorld};
use testkit::prop::{self, Config};
use testkit::rng::{Rng, Xoshiro256StarStar};

/// Fisher–Yates shuffle driven by the in-tree generator.
fn shuffle<T>(items: &mut [T], rng: &mut impl Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_index(i + 1));
    }
}

/// `k` copies of every `(src, tag)` pair, shuffled: the order one side
/// walks the traffic in.
fn shuffled_pairs(srcs: &[usize], tags: u32, k: usize, rng: &mut impl Rng) -> Vec<(usize, u32)> {
    let mut order: Vec<(usize, u32)> = srcs
        .iter()
        .flat_map(|&src| (0..tags).flat_map(move |tag| std::iter::repeat_n((src, tag), k)))
        .collect();
    shuffle(&mut order, rng);
    order
}

/// P = 32 ranks each send `k` messages on each of six tags (two past the
/// inline buckets) to rank 0 at once, in a per-sender shuffled order. Rank
/// 0 takes them in its own shuffled `(src, tag)` order: the j-th take of a
/// pair must be that pair's j-th send, and every counter must be exact.
#[test]
fn concurrent_fan_in_keeps_per_pair_fifo_past_the_inline_buckets() {
    const P: usize = 32;
    const TAGS: u32 = 6;
    assert!(TAGS as usize > INLINE_TAGS);
    prop::check(
        "concurrent_fan_in_keeps_per_pair_fifo_past_the_inline_buckets",
        Config::cases(12),
        &(prop::any_u64(), prop::usize_range(1..9)),
        |&(seed, k): &(u64, usize)| {
            let out = ThreadWorld::run(P, |comm| {
                let me = comm.rank();
                let mut rng = Xoshiro256StarStar::new(seed ^ me as u64);
                // Sequence numbers per tag, in this sender's shuffled order.
                let mut next = [0u8; TAGS as usize];
                for (_, tag) in shuffled_pairs(&[me], TAGS, k, &mut rng) {
                    let seq = next[tag as usize];
                    next[tag as usize] += 1;
                    comm.send(&[me as u8, tag as u8, seq], 0, Tag(tag)).unwrap();
                }
                if me != 0 {
                    return Ok(());
                }
                let srcs: Vec<usize> = (0..P).collect();
                let mut taken = [[0u8; TAGS as usize]; P];
                for (src, tag) in shuffled_pairs(&srcs, TAGS, k, &mut rng) {
                    let mut buf = [0u8; 3];
                    comm.recv(&mut buf, src, Tag(tag)).unwrap();
                    let want = [src as u8, tag as u8, taken[src][tag as usize]];
                    if buf != want {
                        return Err(format!("take of ({src}, {tag}): got {buf:?}, want {want:?}"));
                    }
                    taken[src][tag as usize] += 1;
                }
                Ok(())
            });
            out.results.iter().cloned().collect::<Result<(), String>>()?;
            let per_sender = TAGS as u64 * k as u64;
            let t = &out.traffic;
            if !t.is_balanced() || t.total_msgs() != P as u64 * per_sender {
                return Err(format!("unbalanced or wrong total: {} msgs", t.total_msgs()));
            }
            if t.total_bytes() != 3 * P as u64 * per_sender
                || t.per_rank[0].msgs_recvd != P as u64 * per_sender
                || t.per_rank.iter().any(|r| r.msgs_sent != per_sender)
            {
                return Err(format!("per-rank counts off: {:?}", t.per_rank[0]));
            }
            // Each sender's lane claims its first INLINE_TAGS tags inline;
            // every envelope of the other two tags spills.
            let spills = P as u64 * (TAGS as u64 - INLINE_TAGS as u64) * k as u64;
            if out.reactor.mailbox_spills != spills {
                return Err(format!("{} spills, want {spills}", out.reactor.mailbox_spills));
            }
            Ok(())
        },
    );
}

#[test]
fn tuned_bcast_on_threads_never_spills() {
    let (p, nbytes, root) = (16, 4096, 3);
    let src = pattern(nbytes, 7);
    let out = ThreadWorld::run(p, |comm| {
        let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
        bcast_with(comm, &mut buf, root, Algorithm::ScatterRingTuned).unwrap();
        buf == src
    });
    assert!(out.results.iter().all(|&ok| ok));
    assert_eq!(out.reactor.mailbox_spills, 0);
}

#[test]
fn wild_tags_to_one_peer_are_counted_as_spills() {
    let tags = INLINE_TAGS as u32 + 3;
    let out = ThreadWorld::run(2, |comm| {
        let mut buf = [0u8; 1];
        for tag in 0..tags {
            match comm.rank() {
                0 => comm.send(&[tag as u8], 1, Tag(1000 + tag)).unwrap(),
                _ => {
                    comm.recv(&mut buf, 0, Tag(1000 + tag)).unwrap();
                    assert_eq!(buf[0], tag as u8);
                }
            }
        }
    });
    assert_eq!(out.reactor.mailbox_spills, 3);
}

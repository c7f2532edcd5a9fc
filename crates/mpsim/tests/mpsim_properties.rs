//! Property-based tests of the mpsim substrate itself: matching order,
//! counter balance, sub-communicator invariants under randomized inputs
//! from the in-tree `testkit` harness.

use mpsim::{complete_now, AsyncCommunicator, Communicator, SubComm, SyncComm, Tag, ThreadWorld};
use testkit::prop::{self, Config};

/// Non-overtaking: per (src, dst, tag) messages arrive in send order,
/// regardless of how many tags interleave.
#[test]
fn per_channel_fifo_with_interleaved_tags() {
    prop::check(
        "per_channel_fifo_with_interleaved_tags",
        Config::cases(32),
        &prop::vec_of((prop::u32_range(0..4), prop::u8_range(0..255)), 1..60),
        |plan: &Vec<(u32, u8)>| {
            let plan2 = plan.clone();
            let out = ThreadWorld::run(2, move |comm| {
                if comm.rank() == 0 {
                    for &(tag, val) in &plan2 {
                        comm.send(&[val], 1, Tag(tag)).unwrap();
                    }
                    vec![]
                } else {
                    // receive per tag in the global order of that tag's sends
                    let mut got = Vec::new();
                    for tag in 0..4u32 {
                        let count = plan2.iter().filter(|&&(t, _)| t == tag).count();
                        for _ in 0..count {
                            let mut b = [0u8; 1];
                            comm.recv(&mut b, 0, Tag(tag)).unwrap();
                            got.push((tag, b[0]));
                        }
                    }
                    got
                }
            });
            // per tag, the received sequence equals the sent subsequence
            for tag in 0..4u32 {
                let sent: Vec<u8> =
                    plan.iter().filter(|&&(t, _)| t == tag).map(|&(_, v)| v).collect();
                let recvd: Vec<u8> =
                    out.results[1].iter().filter(|&&(t, _)| t == tag).map(|&(_, v)| v).collect();
                if sent != recvd {
                    return Err(format!("tag {tag}: sent {sent:?} != received {recvd:?}"));
                }
            }
            if !out.traffic.is_balanced() {
                return Err("unbalanced counters".into());
            }
            if out.traffic.total_msgs() != plan.len() as u64 {
                return Err(format!(
                    "msgs {} != plan len {}",
                    out.traffic.total_msgs(),
                    plan.len()
                ));
            }
            Ok(())
        },
    );
}

/// Random shifted exchange: counters balance and totals match.
#[test]
fn counters_balance_under_random_exchanges() {
    prop::check(
        "counters_balance_under_random_exchanges",
        Config::cases(32),
        &(prop::usize_range(2..8), prop::vec_of(prop::usize_range(0..200), 1..12)),
        |(np, sizes): &(usize, Vec<usize>)| {
            let np = *np;
            let sizes2 = sizes.clone();
            let out = ThreadWorld::run(np, move |comm| {
                let me = comm.rank();
                // everyone sends each size to (me + k + 1) mod np, receives likewise
                for (k, &sz) in sizes2.iter().enumerate() {
                    let dst = (me + k + 1) % comm.size();
                    comm.send(&vec![me as u8; sz], dst, Tag(k as u32)).unwrap();
                }
                for (k, &sz) in sizes2.iter().enumerate() {
                    let src = (me + comm.size() - ((k + 1) % comm.size())) % comm.size();
                    let mut buf = vec![0u8; sz];
                    comm.recv(&mut buf, src, Tag(k as u32)).unwrap();
                    assert!(buf.iter().all(|&b| b == src as u8));
                }
            });
            if !out.traffic.is_balanced() {
                return Err("unbalanced counters".into());
            }
            if out.traffic.total_msgs() != (np * sizes.len()) as u64 {
                return Err("message count mismatch".into());
            }
            let bytes: usize = sizes.iter().sum::<usize>() * np;
            if out.traffic.total_bytes() != bytes as u64 {
                return Err("byte count mismatch".into());
            }
            Ok(())
        },
    );
}

/// SubComm::split partitions the world: every rank lands in exactly one
/// group; local ranks are ordered by (key, parent rank); all groups are
/// functional (barrier works).
#[test]
fn split_partitions_correctly() {
    prop::check(
        "split_partitions_correctly",
        Config::cases(32),
        &(
            prop::usize_range(1..10),
            prop::vec_of(prop::u64_range(0..3), 10..11),
            prop::vec_of(prop::i64_range(-5..5), 10..11),
        ),
        |(np, colors, keys): &(usize, Vec<u64>, Vec<i64>)| {
            let np = *np;
            let colors2 = colors.clone();
            let keys2 = keys.clone();
            let out = ThreadWorld::run(np, move |comm| {
                let me = comm.rank();
                let acomm = SyncComm::new(comm);
                let sc =
                    complete_now(SubComm::split(&acomm, Some(colors2[me]), keys2[me])).unwrap();
                complete_now(sc.barrier()).unwrap();
                (colors2[me], sc.rank(), sc.members().to_vec())
            });
            for (me, (color, local, members)) in out.results.iter().enumerate() {
                // membership: exactly the ranks with this color
                let expect: Vec<usize> = {
                    let mut v: Vec<(i64, usize)> =
                        (0..np).filter(|&r| colors[r] == *color).map(|r| (keys[r], r)).collect();
                    v.sort_unstable();
                    v.into_iter().map(|(_, r)| r).collect()
                };
                if members != &expect {
                    return Err(format!("rank {me}: members {members:?} != {expect:?}"));
                }
                if members[*local] != me {
                    return Err(format!("rank {me}: local index {local} mismatched"));
                }
            }
            Ok(())
        },
    );
}

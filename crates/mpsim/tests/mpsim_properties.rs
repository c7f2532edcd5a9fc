//! Property-based tests of the mpsim substrate itself: matching order and
//! counter balance under randomized inputs from the in-tree `testkit`
//! harness.

use mpsim::{Communicator, Tag, ThreadWorld};
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

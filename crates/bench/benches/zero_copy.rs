//! The zero-copy payoff, measured: binomial broadcast on the discrete-event
//! executor with shared refcounted envelopes (`bcast_binomial_async`:
//! `recv_owned` + `send_shared`, one landing copy per rank) against the
//! per-hop copy baseline kept as `bcast_binomial_copy_async` (sender
//! copy-in + receiver copy-out on every tree edge).
//!
//! Binomial is the algorithm where the contrast is purest: every transfer
//! carries the whole `nbytes`, so the copy path's RAM traffic scales with
//! the tree's edge count while the zero-copy path's stays at one staging
//! pass plus `P − 1` landing copies — the `bytes_copied` closed forms pinned
//! by `tests/zero_copy_accounting.rs`, here shown as wall clock.
//!
//! Legs: `P ∈ {8, 1024, 4096} × {64 KiB, 1 MiB}`. The `P = 8` and
//! `P = 1024` legs run in the `bench_compare.sh` quick gate, where the
//! 1 MiB @ `P = 1024` pair carries a banked `RELATIVE_FLOORS` entry
//! (zero-copy ≥ 1.5× the copy-path median of the same run, so machine
//! drift cancels leg-vs-leg). The `P = 4096` legs
//! move ≈ 4 GiB of payload per world and are recorded out-of-band into
//! `results/zero_copy.json`; the gate waives them by name with
//! `--allow-missing` (see `scripts/ci.sh`).

use bcast_core::{bcast_binomial_async, bcast_binomial_copy_async};
use mpsim::{AsyncCommunicator, EventWorld};
use std::hint::black_box;
use testkit::bench::Harness;

/// One measured world: a full binomial broadcast of `nbytes` from rank 0 on
/// an event world of `p` ranks, through `run` (the zero-copy or the
/// copy-path walk). Returns total wire bytes so the optimizer keeps the
/// collective alive.
fn bcast_world(p: usize, nbytes: usize, zero_copy: bool) -> u64 {
    let out = EventWorld::run(p, move |comm| async move {
        let mut buf = if comm.rank() == 0 { vec![0xA5u8; nbytes] } else { vec![0u8; nbytes] };
        let res = if zero_copy {
            bcast_binomial_async(&comm, &mut buf, 0).await
        } else {
            bcast_binomial_copy_async(&comm, &mut buf, 0).await
        };
        // A failed broadcast must fail the bench loudly.
        res.expect("broadcast failed");
        buf[nbytes / 2]
    });
    assert!(out.results.iter().all(|&b| b == 0xA5), "corrupted payload");
    out.traffic.total_bytes()
}

fn bench_zero_copy(h: &mut Harness) {
    let mut group = h.group("zero_copy");
    for &p in &[8usize, 1024, 4096] {
        for (nbytes, label) in [(64usize << 10, "64K"), (1usize << 20, "1M")] {
            group.bench(&format!("binomial/{p}x{label}"), |b| {
                b.iter(|| bcast_world(black_box(p), nbytes, true))
            });
            group.bench(&format!("binomial_copy/{p}x{label}"), |b| {
                b.iter(|| bcast_world(black_box(p), nbytes, false))
            });
        }
    }
}

testkit::bench_main!(bench_zero_copy);

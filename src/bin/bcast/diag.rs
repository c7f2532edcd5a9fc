//! Simulator diagnostics: `inspect` (finish times and traffic split of one
//! broadcast) and `trace` (virtual time after every ring step).

use std::io::Write;

use bcast_core::ring::native_ring_ops;
use bcast_core::ring_tuned::tuned_ring_ops;
use bcast_core::scatter::scatter_ops;
use bcast_core::verify::pattern;
use bcast_core::{bcast_with, Algorithm, Interp, SchedOp};
use mpsim::sync::Mutex;
use mpsim::{complete_now, Communicator, SyncComm};
use netsim::{presets, SimWorld};

use crate::{Algo, Args, CliError, SWITCHES};

/// Per-rank virtual finish times and per-level traffic of one simulated
/// broadcast, native vs tuned: makespan, the five slowest ranks, per-node
/// finish spread and the intra/inter split — the quantities that check the
/// simulator against the paper's §IV argument (fewer messages → less
/// queueing on shared resources).
pub(crate) fn inspect(mut args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let np = args.count("--np", 64)?;
    let nbytes = args.num("--nbytes", 1 << 20)?;
    let iters = args.count("--iters", 1)?;
    let mut preset = args.preset()?;
    args.switches(&mut preset, &SWITCHES)?;
    let want_trace = args.switch("--trace")?;
    let dump = args.switch("--dump")?;
    args.finish(out)?;
    writeln!(out, "# inspect: np={np} nbytes={nbytes} iters={iters} preset={}", preset.name)?;

    for algorithm in [Algorithm::ScatterRingNative, Algorithm::ScatterRingTuned] {
        let model = preset.model_for(nbytes, np);
        let placement = preset.placement();
        let src = pattern(nbytes, 7);
        let (world, events) = SimWorld::run_traced(model, placement, np, |comm| {
            let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
            comm.barrier().unwrap();
            for _ in 0..iters {
                bcast_with(comm, &mut buf, 0, algorithm).unwrap();
            }
            comm.vtime()
        });
        let mut by_finish: Vec<(usize, f64)> = world.results.iter().copied().enumerate().collect();
        by_finish.sort_by(|a, b| b.1.total_cmp(&a.1));
        let (intra_m, inter_m, intra_b, inter_b) =
            world.traffic.split_msgs(|a, b| placement.level(a, b) == netsim::Level::IntraNode);
        writeln!(out, "\n== {algorithm:?}")?;
        writeln!(out, "makespan: {:.1} us", world.makespan_ns / 1000.0)?;
        writeln!(
            out,
            "slowest ranks: {}",
            by_finish
                .iter()
                .take(5)
                .map(|(r, t)| format!("r{}@{:.1}us(node{})", r, t / 1000.0, placement.node_of(*r)))
                .collect::<Vec<_>>()
                .join(" ")
        )?;
        if dump {
            for (r, t) in world.results.iter().enumerate() {
                writeln!(out, "rank {r}: {:.1} us", t / 1000.0)?;
            }
        }
        for node in 0..placement.node_count(np) {
            let finishes: Vec<f64> = (0..np)
                .filter(|&r| placement.node_of(r) == node)
                .map(|r| world.results[r])
                .collect();
            let max = finishes.iter().copied().fold(f64::MIN, f64::max);
            let min = finishes.iter().copied().fold(f64::MAX, f64::min);
            writeln!(out, "node {node}: finish {:.1}..{:.1} us", min / 1000.0, max / 1000.0)?;
        }
        writeln!(
            out,
            "traffic: intra {intra_m} msgs / {:.2} MB, inter {inter_m} msgs / {:.2} MB",
            intra_b as f64 / 1048576.0,
            inter_b as f64 / 1048576.0
        )?;
        if want_trace {
            let s = netsim::summarize(&events);
            writeln!(
                out,
                "trace: {} transfers ({} eager), mean span {:.2} us, max span {:.2} us",
                events.len(),
                s.eager_msgs,
                s.mean_span_ns / 1000.0,
                s.max_span_ns / 1000.0
            )?;
            let hot = netsim::events::bytes_by_source_node(&events, placement);
            writeln!(out, "bytes by source node: {hot:?}")?;
        }
        let busiest = world
            .breakdown
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.comm_ns.total_cmp(&b.1.comm_ns))
            .unwrap();
        writeln!(
            out,
            "comm-heaviest rank: r{} with {:.1} us comm ({:.0}% of its busy time)",
            busiest.0,
            busiest.1.comm_ns / 1000.0,
            busiest.1.comm_fraction() * 100.0
        )?;
    }
    Ok(())
}

/// Step-level trace of the ring allgather on the simulator: the watched
/// ranks' virtual times after the scatter and every ring step.
pub(crate) fn trace(mut args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let np = args.at_least("--np", 2, 96)?;
    let nbytes = args.num("--nbytes", np.saturating_mul(4096))?;
    let tuned = match args.algo("native")? {
        Algo::Fixed(Algorithm::ScatterRingNative) => false,
        Algo::Fixed(Algorithm::ScatterRingTuned) => true,
        _ => return Err("trace follows a scatter-ring allgather: --algo native|tuned".into()),
    };
    let watch = args.list("--ranks", 0)?.unwrap_or_else(|| vec![1, 24, 48, 95]);
    let mut preset = presets::hornet();
    args.switches(&mut preset, &["--o0", "--no-unpack", "--all-rendezvous"])?;
    args.finish(out)?;

    let model = preset.model_for(nbytes, np);
    let placement = preset.placement();
    let src = pattern(nbytes, 3);
    // (rank, step, vtime_us) tuples, any order; sorted before printing
    let traces: Mutex<Vec<(usize, usize, f64)>> = Mutex::new(vec![]);

    SimWorld::run(model, placement, np, |comm| {
        let (rank, size) = (comm.rank(), comm.size());
        let mut buf = if rank == 0 { src.clone() } else { vec![0u8; nbytes] };
        let acomm = SyncComm::new(comm);
        let mut interp = Interp::new(&acomm, &mut buf);
        complete_now(interp.run(scatter_ops(rank, size, nbytes, 0))).unwrap();
        // The real ring stream, one op — one ring step — at a time.
        let ring: Box<dyn Iterator<Item = SchedOp>> = if tuned {
            Box::new(tuned_ring_ops(rank, size, nbytes, 0))
        } else {
            Box::new(native_ring_ops(rank, size, nbytes, 0))
        };
        for (i, op) in ring.enumerate() {
            complete_now(interp.run([op])).unwrap();
            if watch.contains(&rank) {
                traces.lock().push((rank, i + 1, comm.vtime() / 1000.0));
            }
        }
        assert_eq!(buf, src);
    });

    let mut t = traces.into_inner();
    t.sort_by_key(|a| (a.0, a.1));
    let mut last_rank = usize::MAX;
    let mut last_t = 0.0;
    for (rank, step, vt) in t {
        if rank != last_rank {
            writeln!(out, "--- rank {rank}")?;
            last_rank = rank;
            last_t = 0.0;
        }
        writeln!(out, "step {step:4}: {vt:9.2} us (+{:.2})", vt - last_t)?;
        last_t = vt;
    }
    Ok(())
}

//! Step-level trace of the ring allgather on the simulator: prints selected
//! ranks' virtual times after every ring step, for debugging the model.
//!
//! Usage: `trace [--np N] [--nbytes B] [--tuned] [--ranks 0,1,24] [--o0]
//!         [--no-unpack] [--all-rendezvous]`

use bcast_core::ring::native_ring_ops;
use bcast_core::ring_tuned::tuned_ring_ops;
use bcast_core::scatter::scatter_ops;
use bcast_core::verify::pattern;
use bcast_core::{Interp, SchedOp};
use mpsim::sync::Mutex;
use mpsim::{complete_now, Communicator, SyncComm};
use netsim::{presets, SimWorld};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let np: usize = flag(&args, "--np").map_or(96, |v| v.parse().unwrap());
    let nbytes: usize = flag(&args, "--nbytes").map_or(np * 4096, |v| v.parse().unwrap());
    let tuned = args.iter().any(|a| a == "--tuned");
    let watch: Vec<usize> = flag(&args, "--ranks")
        .map_or(vec![1, 24, 48, 95], |v| v.split(',').map(|s| s.parse().unwrap()).collect());
    let mut preset = presets::hornet();
    if args.iter().any(|a| a == "--o0") {
        preset.base.o_send_ns = 0.0;
        preset.base.o_recv_ns = 0.0;
    }
    if args.iter().any(|a| a == "--no-unpack") {
        preset.base.eager_unpack_copy = false;
    }
    if args.iter().any(|a| a == "--all-rendezvous") {
        preset.base.eager_threshold = 0;
    }

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
            println!("--- rank {rank}");
            last_rank = rank;
            last_t = 0.0;
        }
        println!("step {step:4}: {vt:9.2} us (+{:.2})", vt - last_t);
        last_t = vt;
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).map(|i| args[i + 1].clone())
}

//! `bcast run`: any broadcast algorithm of the workspace on either backend,
//! reporting correctness, traffic and bandwidth.

use std::io::Write;

use bcast_core::pipeline::bcast_pipeline_async;
use bcast_core::smp::{bcast_smp_async, NodeMap};
use bcast_core::verify::pattern;
use bcast_core::{bcast_auto_async, bcast_with_async, Thresholds};
use mpsim::{complete_now, Communicator, SyncComm, ThreadWorld};
use netsim::SimWorld;

use crate::{check_supports, Algo, Args, CliError};

pub(crate) fn run(mut args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let backend = args.value("--backend")?.unwrap_or_else(|| "sim".into());
    let np = args.count("--np", 16)?;
    let nbytes = args.num("--nbytes", 1 << 20)?;
    let root = args.num("--root", 0)?;
    let iters = args.count("--iters", 10)?;
    let segment = args.num("--segment", 16384)?;
    let algo = args.algo("tuned")?;
    let preset = args.preset()?;
    let cores = args.count("--cores-per-node", preset.cores_per_node())?;
    args.finish(out)?;
    if root >= np {
        return Err(format!("--root {root} must be below --np {np}").into());
    }
    check_supports(algo, np)?;

    let src = pattern(nbytes, 0xC11);
    let th = Thresholds::default();
    let nodes = NodeMap::new(cores);
    let run_one = |comm: &dyn Communicator, buf: &mut Vec<u8>| {
        let comm = SyncComm::new(comm);
        complete_now(async {
            match algo {
                Algo::Fixed(a) => bcast_with_async(&comm, buf, root, a).await,
                Algo::Auto { tuned } => bcast_auto_async(&comm, buf, root, &th, tuned).await,
                Algo::Smp { inner } => bcast_smp_async(&comm, buf, root, &nodes, inner).await,
                Algo::Pipeline => bcast_pipeline_async(&comm, buf, root, segment).await,
            }
        })
        .expect("the arguments were checked above")
    };

    match backend.as_str() {
        "thread" => {
            let world = ThreadWorld::run(np, |comm| {
                let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
                comm.barrier().unwrap();
                for _ in 0..iters {
                    run_one(comm, &mut buf);
                }
                buf == src
            });
            report(
                out,
                "thread (wall clock)",
                world.results.iter().all(|&ok| ok),
                &world.traffic,
                world.elapsed.as_nanos() as f64,
                nbytes,
                iters,
            )?;
        }
        "sim" => {
            let model = preset.model_for(nbytes, np);
            let world = SimWorld::run(model, preset.placement(), np, |comm| {
                let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
                comm.barrier().unwrap();
                let t0 = comm.vtime();
                for _ in 0..iters {
                    run_one(comm, &mut buf);
                }
                comm.barrier().unwrap();
                (buf == src, comm.vtime() - t0)
            });
            let elapsed = world.results.iter().map(|&(_, t)| t).fold(0.0, f64::max);
            report(
                out,
                &format!("sim ({})", preset.name),
                world.results.iter().all(|&(ok, _)| ok),
                &world.traffic,
                elapsed,
                nbytes,
                iters,
            )?;
        }
        other => return Err(format!("unknown --backend {other} (thread|sim)").into()),
    }
    Ok(())
}

fn report(
    out: &mut dyn Write,
    backend: &str,
    correct: bool,
    traffic: &mpsim::WorldTraffic,
    elapsed_ns: f64,
    nbytes: usize,
    iters: usize,
) -> std::io::Result<()> {
    let per_bcast = elapsed_ns / iters as f64;
    writeln!(out, "backend:        {backend}")?;
    writeln!(out, "correct:        {}", if correct { "yes (all ranks verified)" } else { "NO" })?;
    writeln!(out, "messages/bcast: {:.0}", traffic.total_msgs() as f64 / iters as f64)?;
    writeln!(
        out,
        "bytes/bcast:    {:.2} MiB",
        traffic.total_bytes() as f64 / iters as f64 / (1 << 20) as f64
    )?;
    writeln!(out, "time/bcast:     {:.1} us", per_bcast / 1000.0)?;
    writeln!(
        out,
        "bandwidth:      {:.1} MB/s",
        nbytes as f64 / (1 << 20) as f64 / (per_bcast * 1e-9)
    )?;
    if !correct {
        std::process::exit(1);
    }
    Ok(())
}

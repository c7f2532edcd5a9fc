//! `bcast` — run any broadcast algorithm of the workspace on either backend
//! from the command line and report correctness, traffic and bandwidth.
//!
//! ```console
//! $ bcast --backend sim --algo tuned --np 129 --nbytes 1048576 --iters 10
//! $ bcast --backend thread --algo native --np 10 --nbytes 4096
//! $ bcast --algo auto --np 33 --nbytes 65536        # MPICH dispatch
//! ```

use bcast_core::smp::{bcast_smp, NodeMap};
use bcast_core::verify::pattern;
use bcast_core::{bcast_auto, bcast_with, pipeline::bcast_pipeline, Algorithm, Thresholds};
use mpsim::{Communicator, ThreadWorld};
use netsim::{presets, SimWorld};

#[derive(Clone, Copy, PartialEq)]
enum Algo {
    Fixed(Algorithm),
    Auto { tuned: bool },
    Pipeline { segment: usize },
    Smp { inner: Algorithm },
}

fn parse_algo(name: &str, segment: usize) -> Algo {
    match name {
        "native" => Algo::Fixed(Algorithm::ScatterRingNative),
        "tuned" | "opt" => Algo::Fixed(Algorithm::ScatterRingTuned),
        "binomial" => Algo::Fixed(Algorithm::Binomial),
        "rd" => Algo::Fixed(Algorithm::ScatterRdAllgather),
        "auto" => Algo::Auto { tuned: true },
        "auto-native" => Algo::Auto { tuned: false },
        "pipeline" => Algo::Pipeline { segment },
        "smp" => Algo::Smp { inner: Algorithm::ScatterRingTuned },
        "smp-native" => Algo::Smp { inner: Algorithm::ScatterRingNative },
        other => {
            eprintln!("unknown --algo {other}; see --help");
            std::process::exit(2);
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "bcast — broadcast runner\n\
         \n\
         options:\n\
           --backend thread|sim      executor (default sim)\n\
           --algo ALGO               native|tuned|binomial|rd|auto|auto-native|\n\
                                     pipeline|smp|smp-native (default tuned)\n\
           --np N                    ranks (default 16)\n\
           --nbytes B                message size (default 1048576)\n\
           --root R                  broadcast root (default 0)\n\
           --iters I                 repetitions (default 10)\n\
           --preset hornet|laki|ideal  simulated machine (default hornet)\n\
           --segment B               pipeline segment size (default 16384)\n\
           --cores-per-node C        node width for --algo smp on threads"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .map(|i| args.get(i + 1).unwrap_or_else(|| usage()).clone())
    };
    let backend = get("--backend").unwrap_or_else(|| "sim".into());
    let np: usize = get("--np").map_or(16, |v| v.parse().expect("--np N"));
    let nbytes: usize = get("--nbytes").map_or(1 << 20, |v| v.parse().expect("--nbytes B"));
    let root: usize = get("--root").map_or(0, |v| v.parse().expect("--root R"));
    let iters: usize = get("--iters").map_or(10, |v| v.parse().expect("--iters I"));
    let segment: usize = get("--segment").map_or(16384, |v| v.parse().expect("--segment B"));
    let algo = parse_algo(&get("--algo").unwrap_or_else(|| "tuned".into()), segment);
    let preset = match get("--preset").as_deref() {
        None | Some("hornet") => presets::hornet(),
        Some("laki") => presets::laki(),
        Some("ideal") => presets::ideal(24),
        Some(o) => {
            eprintln!("unknown preset {o}");
            std::process::exit(2)
        }
    };
    let cores: usize = get("--cores-per-node")
        .map_or(preset.cores_per_node(), |v| v.parse().expect("--cores-per-node C"));
    // Every argument combination the library would reject (or, for a zero
    // node width, assert on) is refused here, once, with one line.
    let reject = |why: String| -> ! {
        eprintln!("bcast: {why}");
        std::process::exit(2)
    };
    if np == 0 {
        reject("--np must be at least 1".into());
    }
    if root >= np {
        reject(format!("--root {root} must be below --np {np}"));
    }
    if cores == 0 {
        reject("--cores-per-node must be at least 1".into());
    }
    if let Algo::Fixed(a) = algo {
        if !a.supports(np) {
            reject(format!("--algo {} is not defined for --np {np}", a.schedule_name()));
        }
    }

    let src = pattern(nbytes, 0xC11);
    let th = Thresholds::default();
    let nodes = NodeMap::new(cores);
    let run_one = |comm: &dyn Communicator, buf: &mut Vec<u8>| match algo {
        Algo::Fixed(a) => bcast_with(comm, buf, root, a).unwrap(),
        Algo::Auto { tuned } => bcast_auto(comm, buf, root, &th, tuned).unwrap(),
        Algo::Smp { inner } => bcast_smp(comm, buf, root, &nodes, inner).unwrap(),
        Algo::Pipeline { segment } => bcast_pipeline(comm, buf, root, segment).unwrap(),
    };

    match backend.as_str() {
        "thread" => {
            let out = ThreadWorld::run(np, |comm| {
                let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
                comm.barrier().unwrap();
                for _ in 0..iters {
                    run_one(comm, &mut buf);
                }
                buf == src
            });
            report(
                "thread (wall clock)",
                out.results.iter().all(|&ok| ok),
                &out.traffic,
                out.elapsed.as_nanos() as f64,
                nbytes,
                iters,
            );
        }
        "sim" => {
            let model = preset.model_for(nbytes, np);
            let out = SimWorld::run(model, preset.placement(), np, |comm| {
                let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
                comm.barrier().unwrap();
                let t0 = comm.vtime();
                for _ in 0..iters {
                    run_one(comm, &mut buf);
                }
                comm.barrier().unwrap();
                (buf == src, comm.vtime() - t0)
            });
            let elapsed = out.results.iter().map(|&(_, t)| t).fold(0.0, f64::max);
            report(
                &format!("sim ({})", preset.name),
                out.results.iter().all(|&(ok, _)| ok),
                &out.traffic,
                elapsed,
                nbytes,
                iters,
            );
        }
        other => {
            eprintln!("unknown backend {other}");
            std::process::exit(2)
        }
    }
}

fn report(
    backend: &str,
    correct: bool,
    traffic: &mpsim::WorldTraffic,
    elapsed_ns: f64,
    nbytes: usize,
    iters: usize,
) {
    let per_bcast = elapsed_ns / iters as f64;
    println!("backend:        {backend}");
    println!("correct:        {}", if correct { "yes (all ranks verified)" } else { "NO" });
    println!("messages/bcast: {:.0}", traffic.total_msgs() as f64 / iters as f64);
    println!(
        "bytes/bcast:    {:.2} MiB",
        traffic.total_bytes() as f64 / iters as f64 / (1 << 20) as f64
    );
    println!("time/bcast:     {:.1} us", per_bcast / 1000.0);
    println!("bandwidth:      {:.1} MB/s", nbytes as f64 / (1 << 20) as f64 / (per_bcast * 1e-9));
    if !correct {
        std::process::exit(1);
    }
}

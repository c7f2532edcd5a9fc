//! `bcast` — the workspace's one executable: the broadcast runner, and every
//! table, figure and diagnostic of the reproduction as a subcommand.
//!
//! ```console
//! $ bcast --backend sim --algo tuned --np 129 --nbytes 1048576   # `run`, the default
//! $ bcast --backend thread --algo native --np 10 --nbytes 4096
//! $ bcast fig7 --iters 40                                         # Fig. 7 speedups
//! $ bcast traffic-table --max 512                                 # §IV transfer counts
//! $ bcast --help                                                  # every subcommand
//! ```
//!
//! Every subcommand reads its flags through one [`Args`]; bad input is one
//! `bcast: …` line on stderr and exit status 2, never a panic. Output goes
//! through one locked stdout handle; a reader that closes the pipe early
//! (`bcast traffic-table | head -1`) ends the run with status 0.

mod diag;
mod figures;
mod runner;

use std::io::{self, ErrorKind, Write};

use bcast_core::Algorithm;
use netsim::{presets, MachinePreset};

/// A subcommand: its name, a one-line summary and its body. Its flags are
/// the ones the body reads; `bcast SUBCOMMAND --help` lists them. The body
/// writes its output to the handle it is given.
type Command = (&'static str, &'static str, fn(Args, &mut dyn Write) -> Result<(), CliError>);

const COMMANDS: [Command; 10] = [
    ("run", "any algorithm on either backend: correctness, traffic, bandwidth", runner::run),
    ("fig6", "Fig. 6(a-c): long-message bandwidth, native vs tuned, + §V-A peaks", figures::fig6),
    ("fig7", "Fig. 7: throughput speedup tuned/native, np 9..129", figures::fig7),
    ("fig8", "Fig. 8: medium..long bandwidth sweep", figures::fig8),
    ("ablations", "tuned/native speedup, one hornet model change at a time", figures::ablations),
    ("traffic-table", "§IV ring-allgather transfer counts", figures::traffic_table),
    ("predict-sweep", "analytic contention-free makespans to P = 4096", figures::predict_sweep),
    ("osu", "OSU-style latency table, one row per message size", figures::osu),
    ("inspect", "finish times and traffic split of one broadcast, native vs tuned", diag::inspect),
    ("trace", "ranks' virtual time after every ring-allgather step (hornet)", diag::trace),
];

/// Why a subcommand stopped early.
enum CliError {
    /// Input the subcommand refuses: exit status 2.
    Usage(String),
    /// Writing the output failed.
    Output(io::Error),
}

impl From<String> for CliError {
    fn from(why: String) -> Self {
        CliError::Usage(why)
    }
}

impl From<&str> for CliError {
    fn from(why: &str) -> Self {
        CliError::Usage(why.into())
    }
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Output(e)
    }
}

fn main() {
    match dispatch(&mut io::stdout().lock()) {
        Ok(()) => {}
        // The reader has all it wanted.
        Err(CliError::Output(e)) if e.kind() == ErrorKind::BrokenPipe => {}
        Err(CliError::Output(e)) => {
            eprintln!("bcast: writing output: {e}");
            std::process::exit(1);
        }
        Err(CliError::Usage(why)) => {
            eprintln!("bcast: {why}");
            std::process::exit(2);
        }
    }
}

fn dispatch(out: &mut dyn Write) -> Result<(), CliError> {
    let mut argv = std::env::args().skip(1).peekable();
    let name = argv.next_if(|a| !a.starts_with('-'));
    let command = match name.as_deref() {
        None => &COMMANDS[0],
        Some(name) => COMMANDS
            .iter()
            .find(|c| c.0 == name)
            .ok_or_else(|| format!("unknown subcommand {name}; see bcast --help"))?,
    };
    let (help, argv): (Vec<String>, Vec<String>) = argv.partition(|a| a == "--help" || a == "-h");
    if help.is_empty() || name.is_some() {
        (command.2)(Args::parse(command, !help.is_empty(), argv)?, out)
    } else {
        Ok(overview(out)?)
    }
}

/// `bcast --help`: every subcommand and the shared names.
fn overview(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "bcast — broadcast runner and paper-figure harness\n")?;
    writeln!(out, "usage: bcast [SUBCOMMAND] [--flag [value]]...   (no subcommand: run)")?;
    writeln!(out, "       bcast SUBCOMMAND --help                   (its flags)\n")?;
    for c in &COMMANDS {
        writeln!(out, "{:<14} {}", c.0, c.1)?;
    }
    writeln!(out, "\nALGO    {}", names(&ALGOS))?;
    writeln!(out, "PRESET  {} (default hornet)", names(&PRESETS))
}

/// What `--algo` names: a fixed algorithm, or one of the runner's
/// composites.
#[derive(Clone, Copy)]
enum Algo {
    Fixed(Algorithm),
    Auto { tuned: bool },
    Pipeline,
    Smp { inner: Algorithm },
}

/// Every `--algo` name.
const ALGOS: [(&str, Algo); 10] = [
    ("native", Algo::Fixed(Algorithm::ScatterRingNative)),
    ("tuned", Algo::Fixed(Algorithm::ScatterRingTuned)),
    ("opt", Algo::Fixed(Algorithm::ScatterRingTuned)),
    ("binomial", Algo::Fixed(Algorithm::Binomial)),
    ("rd", Algo::Fixed(Algorithm::ScatterRdAllgather)),
    ("auto", Algo::Auto { tuned: true }),
    ("auto-native", Algo::Auto { tuned: false }),
    ("pipeline", Algo::Pipeline),
    ("smp", Algo::Smp { inner: Algorithm::ScatterRingTuned }),
    ("smp-native", Algo::Smp { inner: Algorithm::ScatterRingNative }),
];

/// Builds a simulated machine.
type MakePreset = fn() -> MachinePreset;

/// Every `--preset` name.
const PRESETS: [(&str, MakePreset); 3] =
    [("hornet", presets::hornet), ("laki", presets::laki), ("ideal", || presets::ideal(24))];

fn names<T>(table: &[(&str, T)]) -> String {
    table.iter().map(|e| e.0).collect::<Vec<_>>().join("|")
}

/// The model switches, in the order they apply: `--eager-threshold`
/// overrides `--all-rendezvous`.
const SWITCHES: [&str; 6] = [
    "--no-unpack",
    "--no-contention",
    "--o0",
    "--all-rendezvous",
    "--credits",
    "--eager-threshold",
];

/// One subcommand's `--flag [value]` arguments. Each flag is read by name
/// and checked off; [`Args::finish`] refuses whatever is left unread, so a
/// subcommand accepts exactly the flags it reads.
struct Args {
    command: &'static Command,
    /// `(flag, value, read)`; a flag's value is the next argument unless
    /// that starts with `--`.
    flags: Vec<(String, Option<String>, bool)>,
    /// Every flag name the subcommand asked for, given or not.
    asked: Vec<&'static str>,
    /// `--help` was given: [`Args::finish`] lists `asked` and exits.
    help: bool,
}

impl Args {
    fn parse(command: &'static Command, help: bool, argv: Vec<String>) -> Result<Args, String> {
        let mut flags: Vec<(String, Option<String>, bool)> = Vec::new();
        let mut argv = argv.into_iter().peekable();
        while let Some(flag) = argv.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument {flag}; see bcast {} --help", command.0));
            }
            if flags.iter().any(|f| f.0 == flag) {
                return Err(format!("{flag} given twice"));
            }
            let value = argv.next_if(|v| !v.starts_with("--"));
            flags.push((flag, value, false));
        }
        Ok(Args { command, flags, asked: Vec::new(), help })
    }

    /// Check `flag` off and return its value slot, if the flag was given.
    fn take(&mut self, flag: &'static str) -> Option<Option<String>> {
        self.asked.push(flag);
        let entry = self.flags.iter_mut().find(|f| f.0 == flag)?;
        entry.2 = true;
        Some(entry.1.clone())
    }

    /// `flag`'s value, if the flag was given.
    fn value(&mut self, flag: &'static str) -> Result<Option<String>, String> {
        match self.take(flag) {
            Some(None) => Err(format!("{flag} needs a value")),
            given => Ok(given.flatten()),
        }
    }

    /// Whether the value-less `flag` was given.
    fn switch(&mut self, flag: &'static str) -> Result<bool, String> {
        match self.take(flag) {
            Some(Some(v)) => Err(format!("{flag} takes no value, got {v}")),
            given => Ok(given.is_some()),
        }
    }

    /// `flag`'s number, if given.
    fn opt_num(&mut self, flag: &'static str) -> Result<Option<usize>, String> {
        self.value(flag)?.map(|v| number(flag, &v)).transpose()
    }

    /// `flag`'s comma-separated numbers, each at least `min`, if given.
    fn list(&mut self, flag: &'static str, min: usize) -> Result<Option<Vec<usize>>, String> {
        let Some(v) = self.value(flag)? else { return Ok(None) };
        let at_least = |s: &str| match number(flag, s)? {
            n if n < min => Err(format!("{flag} must be at least {min}, got {n}")),
            n => Ok(n),
        };
        v.split(',').map(at_least).collect::<Result<_, _>>().map(Some)
    }

    /// `flag`'s number, or `default`.
    fn num(&mut self, flag: &'static str, default: usize) -> Result<usize, String> {
        Ok(self.opt_num(flag)?.unwrap_or(default))
    }

    /// `flag`'s number, which must be at least `min`, if given.
    fn opt_at_least(&mut self, flag: &'static str, min: usize) -> Result<Option<usize>, String> {
        match self.opt_num(flag)? {
            Some(n) if n < min => Err(format!("{flag} must be at least {min}, got {n}")),
            n => Ok(n),
        }
    }

    /// `flag`'s number, which must be at least `min`, or `default`.
    fn at_least(
        &mut self,
        flag: &'static str,
        min: usize,
        default: usize,
    ) -> Result<usize, String> {
        Ok(self.opt_at_least(flag, min)?.unwrap_or(default))
    }

    /// A count that must be at least 1 (`--np`, `--iters`), or `default`.
    fn count(&mut self, flag: &'static str, default: usize) -> Result<usize, String> {
        self.at_least(flag, 1, default)
    }

    /// `--algo`'s entry of [`ALGOS`], or `default`'s.
    fn algo(&mut self, default: &str) -> Result<Algo, String> {
        let name = self.value("--algo")?.unwrap_or_else(|| default.into());
        ALGOS
            .iter()
            .find(|a| a.0 == name)
            .map(|a| a.1)
            .ok_or_else(|| format!("unknown --algo {name} ({})", names(&ALGOS)))
    }

    /// `--preset`'s machine, hornet by default.
    fn preset(&mut self) -> Result<MachinePreset, String> {
        let name = self.value("--preset")?.unwrap_or_else(|| "hornet".into());
        PRESETS
            .iter()
            .find(|p| p.0 == name)
            .map(|p| p.1())
            .ok_or_else(|| format!("unknown --preset {name} ({})", names(&PRESETS)))
    }

    /// Apply to `preset` the model switches of `accepted` that were given,
    /// in [`SWITCHES`] order. A switch not in `accepted` is left unread, so
    /// [`Args::finish`] refuses it.
    fn switches(&mut self, preset: &mut MachinePreset, accepted: &[&str]) -> Result<(), String> {
        let model = &mut preset.base;
        for flag in SWITCHES.into_iter().filter(|f| accepted.contains(f)) {
            match flag {
                "--no-unpack" if self.switch(flag)? => model.eager_unpack_copy = false,
                "--no-contention" if self.switch(flag)? => model.contention = false,
                "--o0" if self.switch(flag)? => (model.o_send_ns, model.o_recv_ns) = (0.0, 0.0),
                "--all-rendezvous" if self.switch(flag)? => model.eager_threshold = 0,
                "--credits" => model.eager_credits = self.count(flag, model.eager_credits)?,
                "--eager-threshold" => {
                    model.eager_threshold = self.num(flag, model.eager_threshold)?
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Refuse every flag the subcommand did not read; with `--help`, list
    /// the flags it reads to `out` and exit.
    fn finish(self, out: &mut dyn Write) -> Result<(), CliError> {
        let name = self.command.0;
        if self.help {
            writeln!(out, "{name:<14} {}", self.command.1)?;
            writeln!(out, "{:<14} {}", "", self.asked.join(" "))?;
            std::process::exit(0);
        }
        match self.flags.iter().find(|f| !f.2) {
            Some(f) => Err(format!("{name} does not take {}; see bcast {name} --help", f.0))?,
            None => Ok(()),
        }
    }
}

fn number(flag: &str, s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("{flag} expects a number, got {s}"))
}

/// Refuse a fixed algorithm the library does not define at `np` ranks.
fn check_supports(algo: Algo, np: usize) -> Result<(), String> {
    match algo {
        Algo::Fixed(a) if !a.supports(np) => {
            Err(format!("--algo {} is not defined for --np {np}", a.schedule_name()))
        }
        _ => Ok(()),
    }
}

//! The `bcast` executable's command line: every subcommand refuses hostile
//! input with one `bcast: …` line and exit status 2 — never a panic, never
//! a run — the help and the traffic table say what they should, and a
//! reader that closes the pipe early ends the run cleanly.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

use bcast_core::traffic::bcast_volume;
use bcast_core::Algorithm;

/// Every subcommand (`None`: the implicit `run`) and one numeric flag it
/// takes.
const SUBCOMMANDS: [(Option<&str>, &str); 11] = [
    (None, "--np"),
    (Some("run"), "--nbytes"),
    (Some("fig6"), "--np"),
    (Some("fig7"), "--iters"),
    (Some("fig8"), "--np"),
    (Some("ablations"), "--iters"),
    (Some("traffic-table"), "--max"),
    (Some("predict-sweep"), "--max-p"),
    (Some("osu"), "--max-size"),
    (Some("inspect"), "--nbytes"),
    (Some("trace"), "--ranks"),
];

fn bcast(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bcast")).args(args).output().expect("spawn bcast")
}

fn assert_usage_error(args: &[&str]) {
    let out = bcast(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "bcast {args:?}: stderr {stderr:?}");
    assert!(!stderr.contains("panicked"), "bcast {args:?} panicked: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "bcast {args:?}: want one line, got {stderr:?}");
    assert!(stderr.starts_with("bcast: "), "bcast {args:?}: {stderr:?}");
    assert!(out.stdout.is_empty(), "bcast {args:?} printed before refusing");
}

#[test]
fn hostile_input_is_a_usage_error_for_every_subcommand() {
    assert_usage_error(&["bogus"]);
    assert_usage_error(&["fig9", "--iters", "2"]);
    // One rank has no ring to compare, trace or time.
    for sub in ["fig6", "fig8", "trace", "osu"] {
        assert_usage_error(&[sub, "--np", "1"]);
    }
    for (sub, numeric) in SUBCOMMANDS {
        let cases: [&[&str]; 10] = [
            &["--preset", "bogus"],
            &["--algo", "bogus"],
            &[numeric],
            &[numeric, "x"],
            &[numeric, "--o0"],
            &["--np", "0"],
            &["--iters", "0"],
            &["--np", "4", "--root", "4"],
            &["--no-such-flag"],
            &["--credits", "0"],
        ];
        for case in cases {
            let args: Vec<&str> = sub.into_iter().chain(case.iter().copied()).collect();
            assert_usage_error(&args);
        }
    }
}

#[test]
fn refusals_name_the_bad_value() {
    for (args, needle) in [
        (&["--iters", "0"][..], "--iters must be at least 1"),
        (&["fig6", "--np", "16,1"], "--np must be at least 2, got 1"),
        (&["trace", "--np", "1"], "--np must be at least 2, got 1"),
        (&["osu", "--np", "6", "--algo", "rd"], "not defined for --np 6"),
        (&["osu", "--algo", "auto"], "fixed --algo"),
        (&["trace", "--algo", "binomial"], "native|tuned"),
        (&["inspect", "--dump", "3"], "--dump takes no value"),
        (&["inspect", "--credits", "0"], "--credits must be at least 1"),
        (&["osu", "--credits", "1"], "osu does not take --credits"),
        (&["trace", "--preset", "ideal"], "trace does not take --preset"),
        (&["fig7", "--np", "9"], "fig7 does not take --np"),
        (&["--np", "4", "--np", "5"], "--np given twice"),
        (&["--backend", "gpu"], "unknown --backend gpu"),
        (&["--algo", "tuned", "--segment", "5"], "--segment is read only by --algo pipeline"),
        (&["--algo", "pipeline", "--cores-per-node", "3"], "--cores-per-node is read only by"),
    ] {
        let stderr = String::from_utf8_lossy(&bcast(args).stderr).into_owned();
        assert!(stderr.contains(needle), "bcast {args:?}: {stderr:?} lacks {needle:?}");
    }
}

#[test]
fn help_lists_every_subcommand() {
    let out = bcast(&["--help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    for name in SUBCOMMANDS.iter().filter_map(|s| s.0) {
        assert!(help.lines().any(|l| l.starts_with(name)), "--help lacks {name}:\n{help}");
    }
    // A subcommand's help lists exactly the flags it reads.
    let one = bcast(&["fig7", "--help"]);
    assert!(one.status.success());
    let help = String::from_utf8_lossy(&one.stdout);
    assert!(help.starts_with("fig7 "), "{help}");
    let flags: Vec<&str> = help.split_whitespace().filter(|w| w.starts_with("--")).collect();
    assert_eq!(flags, ["--iters", "--preset", "--eager-threshold"]);
}

#[test]
fn traffic_table_prints_the_committed_rows() {
    let out = bcast(&["traffic-table", "--max", "8"]);
    assert!(out.status.success());
    let printed = String::from_utf8_lossy(&out.stdout);
    let committed = include_str!("../results/traffic_table.csv");
    // Header and the P = 2, 4, 8, 10 rows (a table always reaches P = 10).
    let head: Vec<&str> = committed.lines().take(6).collect();
    assert_eq!(printed.lines().take(6).collect::<Vec<_>>(), head);
}

#[test]
fn runner_reports_the_paper_count_at_p8() {
    let out = bcast(&["--backend", "thread", "--np", "8", "--nbytes", "4096", "--iters", "1"]);
    assert!(out.status.success());
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("correct:        yes"), "{report}");
    assert!(report.contains("messages/bcast: 51"), "{report}");
}

/// Every `--algo` name, in `bcast --help` order, with the fixed algorithm
/// it names (`None`: one of the runner's composites).
const ALGOS: [(&str, Option<Algorithm>); 10] = [
    ("native", Some(Algorithm::ScatterRingNative)),
    ("tuned", Some(Algorithm::ScatterRingTuned)),
    ("opt", Some(Algorithm::ScatterRingTuned)),
    ("binomial", Some(Algorithm::Binomial)),
    ("rd", Some(Algorithm::ScatterRdAllgather)),
    ("auto", None),
    ("auto-native", None),
    ("pipeline", None),
    ("smp", None),
    ("smp-native", None),
];

/// The value the runner's report prints after `key`.
fn report_field<'a>(report: &'a str, key: &str) -> &'a str {
    let line = report.lines().find(|l| l.starts_with(key));
    line.map_or("", |l| l[key.len()..].trim())
}

#[test]
fn runner_runs_every_algorithm_on_both_backends() {
    let help = String::from_utf8_lossy(&bcast(&["--help"]).stdout).into_owned();
    let names: Vec<&str> = ALGOS.iter().map(|a| a.0).collect();
    assert!(help.contains(&format!("ALGO    {}", names.join("|"))), "{help}");
    // P = 4 is a power of two, so `rd` runs too.
    let world = ["--np", "4", "--nbytes", "1000", "--iters", "1"];
    for (algo, fixed) in ALGOS {
        let mut msgs = Vec::new();
        for backend in ["thread", "sim"] {
            let out = bcast(&[&["--backend", backend, "--algo", algo][..], &world].concat());
            let report = String::from_utf8_lossy(&out.stdout).into_owned();
            assert!(out.status.success(), "{algo} on {backend}: {out:?}");
            assert!(report_field(&report, "correct:").starts_with("yes"), "{report}");
            msgs.push(report_field(&report, "messages/bcast:").to_string());
        }
        assert_eq!(msgs[0], msgs[1], "{algo}: thread and sim move different message counts");
        if let Some(algorithm) = fixed {
            let want = bcast_volume(algorithm, 1000, 4).msgs;
            assert_eq!(msgs[0], want.to_string(), "{algo}");
        }
    }
}

#[test]
fn a_closed_pipe_ends_the_run_cleanly() {
    // `bcast traffic-table --max 4096 | head -1`: the table's later rows run
    // threaded worlds, so they are written after the reader has gone.
    let mut child = Command::new(env!("CARGO_BIN_EXE_bcast"))
        .args(["traffic-table", "--max", "4096"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bcast");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).unwrap();
    assert_eq!(first, "# Ring-allgather transfer counts (paper §IV)\n");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?} after the pipe closed: {stderr}", out.status);
    assert!(stderr.is_empty(), "a closed pipe is not an error: {stderr}");
}

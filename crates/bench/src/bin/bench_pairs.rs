//! Alternating parent/change pairs of the frozen benchmark, and the ledger
//! row they make.
//!
//! ```text
//! bench_pairs --parent REV [--change REV] --workloads W1,W2 [--pairs N]
//!             [--seconds S] [--pr K] [--out DIR] [--work DIR]
//! bench_pairs render BENCH_K.json [--out DIR]
//! ```
//!
//! Both sides are built from `benchmark/`, which is frozen between benchmark
//! changes, so the one binary compiles against either tree. The parent is
//! extracted with `git archive REV | tar -x` into `--work`
//! (`target/bench_pairs` by default) and so is `--change` when given;
//! without it the change is the working tree. An extracted tree is a plain
//! directory: it registers nothing in the repository, so a run that is cut
//! short leaves no state behind in `.git`.
//!
//! Each pair runs `benchmark run --workload W --seconds S` once per side,
//! the parent first in odd pairs and the change first in even ones, and
//! keeps the last line of standard output, the run's JSON. The row
//! `BENCH_K.json` written into `--out` (the repository root by default)
//! holds the host's core count, every raw run and, per workload and metric,
//! each side's median and quartiles, the relative change of the median,
//! how many pairs the change read lower, and the parent's IQR beside the
//! median difference. The count metrics (envelopes, wire bytes, bytes
//! copied) must read the same on both sides; the row and the rendered
//! header name any that moved. The header `results/prK_pairs.txt` is then
//! rendered from the row as written; `render` re-renders it from a
//! committed row.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};

/// The metrics a change must leave alone unless it claims one of them.
const COUNTS: [&str; 3] = ["envelopes_per_bcast", "wire_bytes_per_bcast", "bytes_copied_per_bcast"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("render") => render_command(&args[1..]),
        Some("--help" | "-h") | None => {
            println!("{}", usage());
            Ok(())
        }
        _ => run_command(&args),
    };
    if let Err(why) = result {
        eprintln!("bench_pairs: {why}");
        exit(2);
    }
}

fn usage() -> &'static str {
    "usage: bench_pairs --parent REV [--change REV] --workloads W1,W2 [--pairs N] \
     [--seconds S] [--pr K] [--out DIR] [--work DIR]\n       bench_pairs render BENCH_K.json [--out DIR]"
}

/// `--flag value` pairs, each flag at most once and all of them known.
fn flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out: Vec<(String, String)> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}\n{}", usage()));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if out.iter().any(|(f, _)| f == flag) {
            return Err(format!("{flag} given twice"));
        }
        out.push((flag.clone(), value.clone()));
    }
    Ok(out)
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags.iter().find(|(f, _)| f == name).map(|(_, v)| v.as_str())
}

fn number<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    flag(flags, name)
        .map_or(Ok(default), |v| v.parse().map_err(|_| format!("{name} {v:?} is not a number")))
}

fn run_command(args: &[String]) -> Result<(), String> {
    let known =
        ["--parent", "--change", "--workloads", "--pairs", "--seconds", "--pr", "--out", "--work"];
    let f = flags(args, &known)?;
    let parent = flag(&f, "--parent").ok_or("--parent REV is required")?;
    let workloads: Vec<&str> =
        flag(&f, "--workloads").ok_or("--workloads W1,W2 is required")?.split(',').collect();
    let pairs: usize = number(&f, "--pairs", 10)?;
    let seconds: f64 = number(&f, "--seconds", 12.0)?;
    let pr: u32 = number(&f, "--pr", 0)?;
    if pairs == 0 || seconds <= 0.0 {
        return Err("--pairs and --seconds must be positive".into());
    }
    let root = git(&["rev-parse", "--show-toplevel"])?;
    let root = PathBuf::from(root.trim());
    let out = flag(&f, "--out").map_or(root.clone(), PathBuf::from);
    let work = flag(&f, "--work").map_or(root.join("target/bench_pairs"), PathBuf::from);

    let parent_rev = resolve(parent)?;
    let parent_tree = extract(&parent_rev, &work)?;
    let (change_name, change_tree) = match flag(&f, "--change") {
        Some(rev) => {
            let rev = resolve(rev)?;
            let tree = extract(&rev, &work)?;
            (rev, tree)
        }
        None => ("working tree".to_string(), root.clone()),
    };
    let sides = [("parent", build(&parent_tree)?), ("change", build(&change_tree)?)];

    let mut runs = Vec::new();
    for &workload in &workloads {
        for pair in 1..=pairs {
            let order = if pair % 2 == 1 { [0, 1] } else { [1, 0] };
            for (first, i) in order.into_iter().enumerate() {
                let (side, exe) = (&sides[i].0, &sides[i].1);
                eprintln!("bench_pairs: {workload} pair {pair}/{pairs} {side}");
                let line = bench_run(exe, workload, seconds)?;
                let json =
                    Json::parse(&line).map_err(|e| format!("{workload} {side}: {e}: {line}"))?;
                runs.push(Run { workload, pair, side, first: first == 0, line, json });
            }
        }
    }

    let row = ledger_row(pr, &parent_rev, &change_name, seconds, pairs, &workloads, &runs);
    let name = format!("BENCH_{pr}.json");
    write(&out.join(&name), &row)?;
    let parsed = Json::parse(&row).map_err(|e| format!("{name} does not read back: {e}"))?;
    write(&out.join(format!("results/pr{pr}_pairs.txt")), &render(&parsed)?)?;
    let moved = parsed.get("counts_moved").and_then(Json::items).map_or(0, <[Json]>::len);
    if moved > 0 {
        eprintln!("bench_pairs: {moved} count metric(s) differ between the sides; see {name}");
    }
    Ok(())
}

fn render_command(args: &[String]) -> Result<(), String> {
    let (path, rest) = args.split_first().ok_or("render needs BENCH_K.json")?;
    let f = flags(rest, &["--out"])?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let row = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let pr = row.get("pr").and_then(Json::num).ok_or("the row has no \"pr\"")?;
    let out = flag(&f, "--out").map_or_else(|| PathBuf::from("."), PathBuf::from);
    write(&out.join(format!("results/pr{pr}_pairs.txt")), &render(&row)?)
}

// ---------------------------------------------------------------------------
// Trees, builds and runs

fn git(args: &[&str]) -> Result<String, String> {
    let output = Command::new("git")
        .args(args)
        .output()
        .map_err(|e| format!("git {}: {e}", args.join(" ")))?;
    if !output.status.success() {
        let err = String::from_utf8_lossy(&output.stderr);
        return Err(format!("git {} failed: {}", args.join(" "), err.trim()));
    }
    Ok(String::from_utf8_lossy(&output.stdout).into_owned())
}

/// The full commit id `rev` names.
fn resolve(rev: &str) -> Result<String, String> {
    Ok(git(&["rev-parse", "--verify", &format!("{rev}^{{commit}}")])?.trim().to_string())
}

/// The tree of commit `rev` under `work`, extracted once and reused. It is
/// extracted beside its final name and renamed into place, so a run cut
/// short mid-extraction leaves nothing that a later run would reuse.
fn extract(rev: &str, work: &Path) -> Result<PathBuf, String> {
    let dir = work.join(rev);
    if dir.is_dir() {
        return Ok(dir);
    }
    let partial = work.join(format!("{rev}.partial"));
    let _ = std::fs::remove_dir_all(&partial);
    std::fs::create_dir_all(&partial)
        .map_err(|e| format!("cannot create {}: {e}", partial.display()))?;
    let mut archive = Command::new("git")
        .args(["archive", "--format=tar", rev])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("git archive {rev}: {e}"))?;
    let tar = Command::new("tar")
        .arg("-x")
        .arg("-C")
        .arg(&partial)
        .stdin(archive.stdout.take().ok_or("git archive gave no output")?)
        .status()
        .map_err(|e| format!("tar: {e}"))?;
    let archived = archive.wait().map_err(|e| format!("git archive {rev}: {e}"))?;
    if !tar.success() || !archived.success() || !partial.join("benchmark/Cargo.toml").is_file() {
        return Err(format!("could not extract {rev} into {}", partial.display()));
    }
    std::fs::rename(&partial, &dir)
        .map_err(|e| format!("cannot rename {}: {e}", partial.display()))?;
    Ok(dir)
}

/// Build `tree`'s benchmark and return its binary.
fn build(tree: &Path) -> Result<PathBuf, String> {
    let manifest = tree.join("benchmark/Cargo.toml");
    eprintln!("bench_pairs: building {}", manifest.display());
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "--manifest-path"])
        .arg(&manifest)
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building {} failed", manifest.display()));
    }
    Ok(tree.join("benchmark/target/release/benchmark"))
}

/// One `benchmark run` of `workload`: the last line of its standard output.
fn bench_run(exe: &Path, workload: &str, seconds: f64) -> Result<String, String> {
    let output = Command::new(exe)
        .args(["run", "--workload", workload, "--seconds", &seconds.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or_default();
    if !output.status.success() && !line.starts_with('{') {
        return Err(format!("{} run --workload {workload} failed", exe.display()));
    }
    Ok(line.trim().to_string())
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("bench_pairs: wrote {}", path.display());
    Ok(())
}

// ---------------------------------------------------------------------------
// The row

struct Run<'a> {
    workload: &'a str,
    pair: usize,
    side: &'a str,
    /// Whether this side ran first in its pair.
    first: bool,
    line: String,
    json: Json,
}

impl Run<'_> {
    fn metric(&self, name: &str) -> Option<f64> {
        self.json.get("metrics")?.get(name)?.get("value")?.num()
    }
}

/// Median of `v` (the mean of the middle two for an even count).
fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method (Python's
/// `statistics.quantiles(v, n=4)`), the benchmark's own definition.
fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// A finite number as JSON, `null` otherwise.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn side_stats(v: &[f64]) -> String {
    let (q1, q3) = quartiles(v);
    format!("{{\"median\":{},\"q1\":{},\"q3\":{}}}", num(median(v)), num(q1), num(q3))
}

fn ledger_row(
    pr: u32,
    parent: &str,
    change: &str,
    seconds: f64,
    pairs: usize,
    workloads: &[&str],
    runs: &[Run<'_>],
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut moved = Vec::new();
    let mut per_workload = Vec::new();
    for &w in workloads {
        let of =
            |side: &'static str| runs.iter().filter(move |r| r.workload == w && r.side == side);
        let mut names: Vec<&str> = of("parent")
            .chain(of("change"))
            .filter_map(|r| r.json.get("metrics").and_then(Json::keys))
            .flatten()
            .collect();
        names.sort_unstable();
        names.dedup();
        let mut metrics = Vec::new();
        for name in names {
            let values = |side| of(side).filter_map(|r| r.metric(name)).collect::<Vec<f64>>();
            let (p, c) = (values("parent"), values("change"));
            let lower = (1..=pairs)
                .filter(|&k| {
                    let at = |side: &'static str| {
                        of(side).find(|r| r.pair == k).and_then(|r| r.metric(name))
                    };
                    matches!((at("parent"), at("change")), (Some(p), Some(c)) if c < p)
                })
                .count();
            let (pm, cm) = (median(&p), median(&c));
            let (q1, q3) = quartiles(&p);
            if COUNTS.contains(&name) && p.iter().chain(&c).any(|&x| x != p[0]) {
                moved.push(quoted(&format!("{w} {name}")));
            }
            metrics.push(format!(
                "{}:{{\"parent\":{},\"change\":{},\"rel_change\":{},\"lower_in\":{lower},\"of\":{pairs},\
                 \"parent_iqr\":{},\"median_diff\":{}}}",
                quoted(name),
                side_stats(&p),
                side_stats(&c),
                num((cm - pm) / pm),
                num(q3 - q1),
                num(pm - cm),
            ));
        }
        let failed: f64 =
            of("parent").chain(of("change")).filter_map(|r| r.json.get("failed")?.num()).sum();
        per_workload.push(format!(
            "{}:{{\"failed\":{},\"metrics\":{{\n      {}\n    }}}}",
            quoted(w),
            num(failed),
            metrics.join(",\n      ")
        ));
    }
    let raw: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "{{\"workload\":{},\"pair\":{},\"side\":{},\"first\":{},\"run\":{}}}",
                quoted(r.workload),
                r.pair,
                quoted(r.side),
                r.first,
                r.line
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\":1,\n  \"pr\":{pr},\n  \"nproc\":{nproc},\n  \"parent\":{},\n  \"change\":{},\n  \
         \"seconds\":{},\n  \"pairs\":{pairs},\n  \"counts_moved\":[{}],\n  \"workloads\":{{\n    {}\n  }},\n  \
         \"runs\":[\n    {}\n  ]\n}}\n",
        quoted(parent),
        quoted(change),
        num(seconds),
        moved.join(","),
        per_workload.join(",\n    "),
        raw.join(",\n    ")
    )
}

/// The pairs file of a row: a header summarising every metric, then the
/// raw runs, one line each.
fn render(row: &Json) -> Result<String, String> {
    let text = |key: &str| row.get(key).and_then(Json::text).unwrap_or("?").to_string();
    let number =
        |key: &str| row.get(key).and_then(Json::num).map_or("?".into(), |x| format!("{x}"));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# PR {}: alternating parent/change pairs of the unmodified benchmark (benchmark/), nproc {}.",
        number("pr"),
        number("nproc")
    );
    let _ = writeln!(out, "# parent = {}, change = {}.", text("parent"), text("change"));
    let _ = writeln!(
        out,
        "# `benchmark run --workload W --seconds {}`, {} pairs per workload, parent first in odd pairs.",
        number("seconds"),
        number("pairs")
    );
    let _ = writeln!(
        out,
        "# Per metric: median [q1, q3] parent -> change, relative change of the median, pairs the change read\n\
         # lower, the parent's IQR and the median difference (parent - change). Written by `bench_pairs`."
    );
    match row.get("counts_moved").and_then(Json::items) {
        Some([]) => {
            let _ = writeln!(
                out,
                "# Counts (envelopes, wire bytes, bytes copied) equal on both sides in every run."
            );
        }
        Some(moved) => {
            let names: Vec<&str> = moved.iter().filter_map(Json::text).collect();
            let _ = writeln!(out, "# COUNTS MOVED: {}", names.join(", "));
        }
        None => return Err("the row has no \"counts_moved\"".into()),
    }
    let _ = writeln!(out, "#");
    let workloads =
        row.get("workloads").and_then(Json::entries).ok_or("the row has no \"workloads\"")?;
    for (w, body) in workloads {
        let failed = body.get("failed").and_then(Json::num).unwrap_or(f64::NAN);
        let _ = writeln!(out, "# {w}: {failed} failed");
        for (name, m) in body.get("metrics").and_then(Json::entries).unwrap_or_default() {
            let side = |s: &str, k: &str| {
                m.get(s).and_then(|x| x.get(k)).and_then(Json::num).unwrap_or(f64::NAN)
            };
            let field = |k: &str| m.get(k).and_then(Json::num).unwrap_or(f64::NAN);
            let _ = writeln!(
                out,
                "# {w} {name}: parent {} [{}, {}] -> {} [{}, {}] ({:+.1} %), lower {}/{}; parent IQR {}, median diff {}",
                fmt(side("parent", "median")),
                fmt(side("parent", "q1")),
                fmt(side("parent", "q3")),
                fmt(side("change", "median")),
                fmt(side("change", "q1")),
                fmt(side("change", "q3")),
                100.0 * field("rel_change"),
                field("lower_in"),
                field("of"),
                fmt(field("parent_iqr")),
                fmt(field("median_diff")),
            );
        }
    }
    let _ = writeln!(out, "#\n# Raw runs: workload pair side metric=value ...");
    for run in row.get("runs").and_then(Json::items).unwrap_or_default() {
        let get = |k: &str| run.get(k);
        let metrics =
            get("run").and_then(|r| r.get("metrics")).and_then(Json::entries).unwrap_or_default();
        let values: Vec<String> = metrics
            .iter()
            .map(|(n, m)| {
                format!("{n}={}", fmt(m.get("value").and_then(Json::num).unwrap_or(f64::NAN)))
            })
            .collect();
        let _ = writeln!(
            out,
            "{} {} {} {}",
            get("workload").and_then(Json::text).unwrap_or("?"),
            get("pair").and_then(Json::num).unwrap_or(f64::NAN),
            get("side").and_then(Json::text).unwrap_or("?"),
            values.join(" ")
        );
    }
    Ok(out)
}

/// Four significant decimals for small values, two for large ones.
fn fmt(x: f64) -> String {
    if x.abs() >= 100.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

// ---------------------------------------------------------------------------
// JSON, as much as the benchmark's lines and the row need

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { s: text.as_bytes(), at: 0 };
        let v = p.value()?;
        p.ws();
        if p.at != p.s.len() {
            return Err(format!("trailing text at byte {}", p.at));
        }
        Ok(v)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        self.entries()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(e) => Some(e),
            _ => None,
        }
    }

    fn keys(&self) -> Option<impl Iterator<Item = &str>> {
        Some(self.entries()?.iter().map(|(k, _)| k.as_str()))
    }

    fn items(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    fn text(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.at..].starts_with(lit.as_bytes());
        if hit {
            self.at += lit.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.at) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end".into()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.at += 1;
        let mut entries = Vec::new();
        self.ws();
        if self.eat("}") {
            return Ok(Json::Obj(entries));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            if !self.eat(":") {
                return Err(format!("expected ':' at byte {}", self.at));
            }
            entries.push((key, self.value()?));
            self.ws();
            if self.eat("}") {
                return Ok(Json::Obj(entries));
            }
            if !self.eat(",") {
                return Err(format!("expected ',' or '}}' at byte {}", self.at));
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.at += 1;
        let mut items = Vec::new();
        self.ws();
        if self.eat("]") {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            if self.eat("]") {
                return Ok(Json::Arr(items));
            }
            if !self.eat(",") {
                return Err(format!("expected ',' or ']' at byte {}", self.at));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at byte {}", self.at));
        }
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.s[self.at..]).map_err(|e| e.to_string())?;
            let mut chars = rest.chars();
            let c = chars.next().ok_or("unterminated string")?;
            self.at += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = *self.s.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
                    match e {
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.s.get(self.at..self.at + 4).ok_or("short \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.at += 4;
                        }
                        other => out.push(other as char),
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self.s.get(self.at).is_some_and(|&b| b.is_ascii_digit() || b"+-.eE".contains(&b)) {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.at]).map_err(|e| e.to_string())?;
        text.parse().map(Json::Num).map_err(|_| format!("bad value at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"{"attempted":22144,"correct":true,"failed":0,"metrics":{"bcast_wall_us":{"unit":"us","value":14844.5},"envelopes_per_bcast":{"unit":"count","value":17689}}}"#;

    #[test]
    fn a_benchmark_line_parses() {
        let j = Json::parse(LINE).unwrap();
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        let wall =
            j.get("metrics").and_then(|m| m.get("bcast_wall_us")).and_then(|m| m.get("value"));
        assert_eq!(wall.and_then(Json::num), Some(14844.5));
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert_eq!(Json::parse(r#"["a\"bA", null, -1.5e2]"#).unwrap(), {
            Json::Arr(vec![Json::Str("a\"bA".into()), Json::Null, Json::Num(-150.0)])
        });
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    fn run(pair: usize, side: &'static str, wall: f64, envelopes: f64) -> Run<'static> {
        let line = format!(
            "{{\"failed\":0,\"metrics\":{{\"bcast_wall_us\":{{\"value\":{wall}}},\
             \"envelopes_per_bcast\":{{\"value\":{envelopes}}}}}}}"
        );
        let json = Json::parse(&line).unwrap();
        Run { workload: "w", pair, side, first: (pair % 2 == 1) == (side == "parent"), line, json }
    }

    #[test]
    fn the_row_counts_lower_pairs_and_names_moved_counts() {
        let runs = vec![
            run(1, "parent", 10.0, 5.0),
            run(1, "change", 8.0, 5.0),
            run(2, "change", 9.0, 5.0),
            run(2, "parent", 11.0, 5.0),
            run(3, "parent", 10.0, 5.0),
            run(3, "change", 12.0, 6.0),
        ];
        let row =
            Json::parse(&ledger_row(7, "abc", "working tree", 2.0, 3, &["w"], &runs)).unwrap();
        let wall = row.get("workloads").and_then(|w| w.get("w")).and_then(|w| w.get("metrics"));
        let wall = wall.and_then(|m| m.get("bcast_wall_us")).unwrap();
        assert_eq!(wall.get("lower_in").and_then(Json::num), Some(2.0));
        assert_eq!(wall.get("median_diff").and_then(Json::num), Some(1.0));
        let moved = row.get("counts_moved").and_then(Json::items).unwrap();
        assert_eq!(moved, [Json::Str("w envelopes_per_bcast".into())]);
        let text = render(&row).unwrap();
        assert!(text.contains("# COUNTS MOVED: w envelopes_per_bcast"), "{text}");
        assert!(
            text.contains("w bcast_wall_us: parent 10.0000 [10.0000, 11.0000] -> 9.0000"),
            "{text}"
        );
        assert_eq!(text.lines().filter(|l| l.starts_with("w ")).count(), 6);
    }
}

//! Repo-convention lint rules behind the `repolint` binary: the four
//! conventions no lint the toolchain ships can express.
//!
//! Each rule is a pure function over `(relative path, file content)` — the
//! last over every source file at once — so it is unit-testable without
//! touching the filesystem. A single-file rule reads a file only up to its
//! first `#[cfg(test)]`: test modules sit at the bottom of each file in
//! this repo, and are exempt.
//!
//! * [`check_cancel_safety`] (`cancel-safety`) — cancel-safety in the async
//!   communication layer (`crates/mpsim/src/event_*.rs`,
//!   `crates/mpsim/src/acomm.rs`). Three shapes of the same bug class the
//!   run-queue model in `schedcheck::models` verifies the reactor against:
//!   producing `Poll::Pending` with no wake registration in reach (a lost
//!   wakeup in source form), holding a `RefCell` borrow across a suspension
//!   point (re-entrant poll panics), and mutating shared send-state inside a
//!   `poll` body (a cancelled-and-retried operation replays the side
//!   effect — sends must happen eagerly, before the future exists).
//!   Deliberate exceptions carry a `// lint: allow(cancel-safety)` marker.
//! * [`check_bcast_hot_copy`] (`bcast-hot-copy`) — no unaccounted payload
//!   copies in the broadcast hot-path modules (the scatter-ring pipeline,
//!   its interpreter and coalescing rewrite, plus `binomial.rs`) nor on the
//!   reliable data path (`crates/mpsim/src/reliable.rs`). Since the
//!   zero-copy envelope flow landed, forwarded payloads travel as refcounted
//!   [`mpsim::SharedBuf`] views; a `copy_from_slice(` / `rent_copy(` /
//!   `.to_vec()` — in `reliable.rs` also an `extend_from_slice(`, the way a
//!   frame used to be packed — creeping back in silently re-taxes every hop
//!   while leaving wire traffic — and every wire-traffic test — unchanged.
//!   The sanctioned shape is the *accounted* copy, in the collectives the
//!   landing copy: a copy with a `note_copy(` call within the following two
//!   lines, which the `bytes_copied` ceilings then police at run time.
//!   Anything else needs a `// lint: allow(bcast-hot-copy)` marker.
//! * [`check_comm_impl`] (`comm-impl`) — a communicator impl writes the
//!   envelope core and nothing else, and the collectives speak one trait.
//!   The blocking `Communicator` trait is implemented by the two blocking
//!   executors only (`crates/mpsim/src/thread_comm.rs`,
//!   `crates/netsim/src/sim_comm.rs`): everything above the executors is
//!   written once against `AsyncCommunicator` and reached from blocking code
//!   through `SyncComm` and `complete_now`, so a second `impl Communicator
//!   for` is a decorator twin growing back. For the same reason no library
//!   code of `crates/core/src` takes a blocking communicator — `impl
//!   Communicator`, `dyn Communicator` or `C: Communicator` — except
//!   `bcast_with` in `bcast.rs`, the one blocking entry point the frozen
//!   benchmark calls; any other is a blocking collective twin growing back
//!   (a `use` of the trait is not a bound). And no impl of either trait
//!   defines a method the trait provides over the core (`send`,
//!   `recv_owned`, `sendrecv_shared`, …): each variant's semantics is written
//!   once, in `acomm.rs`, and an override is a second copy of it that every
//!   stack above would silently stop sharing.
//! * [`check_unused_pub`] (`unused-pub`) — every `pub` item (`fn`,
//!   `struct`, `enum`, `trait`, `type`, `const`, `static`) in
//!   `crates/*/src` and in the root package's `src/lib.rs` is named
//!   somewhere outside its own module's `#[cfg(test)]` block: by library
//!   code, a bin, an example, an integration test or `benchmark/src`. A
//!   public item only its own tests call is dead surface; it is deleted,
//!   made private, or listed in [`UNUSED_PUB_ALLOWED`] with the reason it
//!   stays. Names are matched as whole identifiers outside comments and
//!   `use` statements, so a re-export alone is not a caller.
//!
//! The conventions a shipped lint expresses are clippy's, configured in the
//! root `clippy.toml`, the root `Cargo.toml`'s `[workspace.lints.clippy]`
//! and the crate roots of `bcast-core`, `mpsim` and `netsim`, and checked by
//! `cargo clippy --workspace --all-targets -- -D warnings`: no
//! `unwrap`/`expect` in library code (`clippy::unwrap_used`/`expect_used`,
//! forbidden outright in `recovery.rs`), a `// SAFETY:` comment on every
//! `unsafe` block (`clippy::undocumented_unsafe_blocks`), no `let _ =` of a
//! `#[must_use]` result (`clippy::let_underscore_must_use`), no wall-clock
//! read or sleep (`clippy::disallowed_methods`) and, in `mpsim`, no
//! `HashMap` outside the mailbox's wild-tag spill
//! (`clippy::disallowed_types`).

use std::collections::HashMap;
use std::path::Path;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintHit {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Short rule name (`cancel-safety`, `unused-pub`, …).
    pub rule: &'static str,
    /// The offending line, trimmed.
    pub excerpt: String,
}

impl std::fmt::Display for LintHit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.excerpt)
    }
}

/// Strip a line comment (`// …`) for matching purposes. Good enough for this
/// codebase: no string literal here contains `//` followed by lint triggers.
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

fn hit(path: &str, idx: usize, rule: &'static str, line: &str) -> LintHit {
    LintHit { file: path.to_string(), line: idx + 1, rule, excerpt: line.trim().to_string() }
}

/// Broadcast hot-path files: the scatter-ring pipeline the paper tunes, the
/// interpreter that executes it and its coalescing rewrite. Every payload
/// forwarded here must stay a refcounted view (`bcast-hot-copy`).
fn is_bcast_hot_path(path: &str) -> bool {
    const HOT: [&str; 6] = [
        "crates/core/src/interp.rs",
        "crates/core/src/scatter.rs",
        "crates/core/src/ring.rs",
        "crates/core/src/ring_tuned.rs",
        "crates/core/src/coalesce.rs",
        "crates/core/src/bcast.rs",
    ];
    HOT.contains(&path)
}

/// `cancel-safety`: the async communication layer — the event executor
/// modules plus the sync↔async bridge — where every future must
/// survive being dropped between polls (a timed-out receive, an abandoned
/// barrier). Three line-level shapes, one rule name, one waiver:
///
/// * **Unregistered park.** A line that *produces* `Poll::Pending` (not a
///   `Poll::Pending =>` match pattern) with no wake-registration token on
///   the same line or the eight preceding lines. Registration tokens:
///   `sched.push(` (self-requeue), `watch(` (exit watch), `arm_timer(`,
///   `barrier_parked` (barrier park flag) and `.poll(` (delegation — the
///   inner future registered). A pending return with none of these in reach
///   is a task the reactor has no reason to ever run again. A `cx.waker()`
///   wake is not a registration: the reactor polls with a no-op waker, so
///   its run queue is the only wake path (`event_comm`'s wake contract).
/// * **Borrow across a suspension point.** `.borrow(`/`.borrow_mut(` on the
///   same line as `.await` or `.poll(`: the `RefCell` guard lives across
///   the suspension, and the next poll of anything touching the same cell
///   panics — the reactor's single-threaded aliasing discipline is borrows
///   scoped strictly between suspension points.
/// * **Send effect inside `poll`.** `post_now(` / `push_envelope(` /
///   `record_send(` / `rent_copy(` inside a `fn poll(` body (tracked by
///   brace depth). The
///   eager-send discipline puts the irrevocable side effect *before* the
///   future exists, so cancellation can never replay it; a send issued
///   from `poll` re-fires on every retry of a dropped-and-rebuilt future.
///
/// A deliberate exception carries `// lint: allow(cancel-safety)` on the
/// same or the preceding line.
pub fn check_cancel_safety(path: &str, content: &str) -> Vec<LintHit> {
    let in_scope = (path.starts_with("crates/mpsim/src/event_")
        || path == "crates/mpsim/src/acomm.rs")
        && path.ends_with(".rs");
    if !in_scope {
        return Vec::new();
    }
    let body = match content.find("#[cfg(test)]") {
        Some(i) => &content[..i],
        None => content,
    };
    const REGISTRATION: [&str; 5] =
        ["sched.push(", "watch(", "arm_timer(", "barrier_parked", ".poll("];
    const SEND_EFFECTS: [&str; 4] = ["post_now(", "push_envelope(", "record_send(", "rent_copy("];
    let lines: Vec<&str> = body.lines().collect();
    let mut hits = Vec::new();
    let mut depth = 0isize;
    // Brace depths at which a `fn poll(` body opened; non-empty ⇒ inside one.
    let mut poll_depths: Vec<isize> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let code = code_part(line);
        if code.contains("fn poll(") && code.contains('{') {
            poll_depths.push(depth + 1);
        }
        let allowed = line.contains("lint: allow(cancel-safety)")
            || (i > 0 && lines[i - 1].contains("lint: allow(cancel-safety)"));
        let produces_pending = code
            .match_indices("Poll::Pending")
            .any(|(at, _)| !code[at + "Poll::Pending".len()..].trim_start().starts_with("=>"));
        let unregistered = produces_pending && {
            let lo = i.saturating_sub(8);
            !lines[lo..=i].iter().any(|l| {
                let c = code_part(l);
                REGISTRATION.iter().any(|t| c.contains(t))
            })
        };
        let borrow_across_suspend = (code.contains(".borrow(") || code.contains(".borrow_mut("))
            && (code.contains(".await") || code.contains(".poll("));
        let send_in_poll = !poll_depths.is_empty() && SEND_EFFECTS.iter().any(|t| code.contains(t));
        if (unregistered || borrow_across_suspend || send_in_poll) && !allowed {
            hits.push(hit(path, i, "cancel-safety", line));
        }
        depth += code.matches('{').count() as isize - code.matches('}').count() as isize;
        while poll_depths.last().is_some_and(|&d| depth < d) {
            poll_depths.pop();
        }
    }
    hits
}

/// `bcast-hot-copy`: unaccounted payload copies in the broadcast hot path — the
/// `is_bcast_hot_path` files plus `binomial.rs` (the whole-buffer tree
/// walk, with the same zero-copy contract) and `mpsim`'s `reliable.rs` (every hop
/// of a broadcast over a lossy link goes through it). A copy primitive
/// (`copy_from_slice(`, `rent_copy(`, `.to_vec()`; in `reliable.rs` also
/// `extend_from_slice(`, which is how a frame gets packed) is sanctioned
/// only as an *accounted* staging or landing copy, recognisable by a
/// `note_copy(` call on the same or the following two lines; the runtime
/// `bytes_copied` ceilings and closed forms then bound how often that shape
/// may execute. A deliberate exception carries a
/// `// lint: allow(bcast-hot-copy)` marker on the same or the preceding
/// line.
pub fn check_bcast_hot_copy(path: &str, content: &str) -> Vec<LintHit> {
    let reliable = path == "crates/mpsim/src/reliable.rs";
    if !is_bcast_hot_path(path) && path != "crates/core/src/binomial.rs" && !reliable {
        return Vec::new();
    }
    let body = match content.find("#[cfg(test)]") {
        Some(i) => &content[..i],
        None => content,
    };
    const COPIES: [&str; 3] = ["copy_from_slice(", "rent_copy(", ".to_vec()"];
    let lines: Vec<&str> = body.lines().collect();
    let mut hits = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let code = code_part(line);
        // How a frame gets packed; outside `reliable.rs` it builds lists.
        let packs = reliable && code.contains("extend_from_slice(");
        if !packs && !COPIES.iter().any(|c| code.contains(c)) {
            continue;
        }
        let allowed = line.contains("lint: allow(bcast-hot-copy)")
            || (i > 0 && lines[i - 1].contains("lint: allow(bcast-hot-copy)"));
        let hi = (i + 3).min(lines.len());
        let accounted = lines[i..hi].iter().any(|l| code_part(l).contains("note_copy("));
        if !allowed && !accounted {
            hits.push(hit(path, i, "bcast-hot-copy", line));
        }
    }
    hits
}

/// The methods `Communicator` and `AsyncCommunicator` provide over their
/// envelope core, which no implementor defines (`comm-impl`).
const PROVIDED: [&str; 8] = [
    "check_rank",
    "send",
    "recv",
    "recv_timeout",
    "sendrecv",
    "send_shared",
    "recv_owned",
    "sendrecv_shared",
];

/// Whether `code` bounds a type by the blocking `Communicator` trait:
/// `impl Communicator`, `dyn Communicator`, or the trait after a `:` or `+`
/// of a bound list. `AsyncCommunicator` and a `use` list do not match.
fn blocking_comm_bound(code: &str) -> bool {
    code.match_indices("Communicator").any(|(at, _)| {
        let before = &code[..at];
        let after = &code[at + "Communicator".len()..];
        let whole_word = !before.ends_with(|c: char| c.is_alphanumeric() || c == '_')
            && !after.starts_with(|c: char| c.is_alphanumeric() || c == '_');
        let before = before.trim_end();
        whole_word
            && (before.ends_with(':')
                || before.ends_with('+')
                || before.ends_with("impl")
                || before.ends_with("dyn"))
    })
}

/// The name of the function `code` declares, if it declares one.
fn fn_name(code: &str) -> Option<&str> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let (at, _) = code.match_indices("fn ").find(|&(at, _)| !code[..at].ends_with(ident))?;
    let rest = &code[at + 3..];
    Some(&rest[..rest.find(|c: char| !ident(c)).unwrap_or(rest.len())])
}

/// `comm-impl`: three shapes of blocking code outgrowing the envelope core, one
/// rule name. `impl … Communicator for` (the blocking trait;
/// `AsyncCommunicator for` does not match) anywhere but the two blocking
/// executors; in `crates/core/src`, any other `blocking_comm_bound`
/// outside the signature of `bcast.rs`'s `bcast_with` (tracked as the last
/// `fn` named before the line); and, in any `impl … Communicator for` or
/// `impl … AsyncCommunicator for` block, a definition of one of the
/// [`PROVIDED`] methods (the block is tracked by brace depth).
pub fn check_comm_impl(path: &str, content: &str) -> Vec<LintHit> {
    const EXECUTORS: [&str; 2] =
        ["crates/mpsim/src/thread_comm.rs", "crates/netsim/src/sim_comm.rs"];
    const BLOCKING_ENTRY: (&str, &str) = ("crates/core/src/bcast.rs", "bcast_with");
    let body = match content.find("#[cfg(test)]") {
        Some(i) => &content[..i],
        None => content,
    };
    let collectives = path.starts_with("crates/core/src/");
    let mut hits = Vec::new();
    let mut depth = 0isize;
    // Brace depth outside the communicator impl being scanned, if any.
    let mut in_impl: Option<isize> = None;
    // The function whose signature or body the scan is in.
    let mut current_fn = "";
    for (i, line) in body.lines().enumerate() {
        let code = code_part(line);
        if let Some(name) = fn_name(code) {
            current_fn = name;
        }
        let comm_impl = code.trim_start().starts_with("impl") && code.contains("Communicator for ");
        if !comm_impl
            && collectives
            && blocking_comm_bound(code)
            && (path, current_fn) != BLOCKING_ENTRY
        {
            hits.push(hit(path, i, "comm-impl", line));
        }
        if comm_impl {
            in_impl = Some(depth);
            let blocking = code
                .match_indices("Communicator for ")
                .any(|(at, _)| !code[..at].ends_with("Async"));
            if blocking && !EXECUTORS.contains(&path) {
                hits.push(hit(path, i, "comm-impl", line));
            }
        } else if in_impl.is_some() && PROVIDED.iter().any(|m| code.contains(&format!("fn {m}("))) {
            hits.push(hit(path, i, "comm-impl", line));
        }
        depth += code.matches('{').count() as isize - code.matches('}').count() as isize;
        if code.contains('}') && in_impl.is_some_and(|d| depth <= d) {
            in_impl = None;
        }
    }
    hits
}

/// Public items that stay without a caller outside their own module's
/// tests, as `(path, name, reason)` (`unused-pub`). Kept under 15 entries.
pub const UNUSED_PUB_ALLOWED: [(&str, &str, &str); 1] = [(
    "crates/mpsim/src/mailbox.rs",
    "wakeup_stats",
    "the notify-skip's observable: the mailbox tests pin that an uncontended \
     push issues no wakeup",
)];

/// This file, exempt from every rule.
const LINT_SOURCE: &str = "crates/schedcheck/src/lint.rs";

/// Directories, relative to the repository root, whose `.rs` files `unused-pub`
/// reads for callers; `crates/*/src` and `src/lib.rs` among them are also
/// what it audits.
const SOURCE_ROOTS: [&str; 5] = ["crates", "src", "tests", "examples", "benchmark/src"];

/// Every `.rs` file under [`SOURCE_ROOTS`] of the repository at `root`
/// (skipping `target` directories), as sorted `(relative path, content)`.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(root, &path, out)?;
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).unwrap_or(&path);
                let rel = rel.to_string_lossy().replace('\\', "/");
                out.push((rel, std::fs::read_to_string(&path)?));
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    for dir in SOURCE_ROOTS {
        let dir = root.join(dir);
        if dir.is_dir() {
            walk(root, &dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

/// The name a line defines as a public item, if it is one (`unused-pub`).
fn pub_item_name(code: &str) -> Option<&str> {
    const KINDS: [&str; 10] = [
        "pub fn ",
        "pub const fn ",
        "pub async fn ",
        "pub unsafe fn ",
        "pub struct ",
        "pub enum ",
        "pub trait ",
        "pub type ",
        "pub const ",
        "pub static ",
    ];
    let code = code.trim_start();
    let rest = KINDS.iter().find_map(|k| code.strip_prefix(k))?;
    let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// Identifier occurrences in `text`, skipping comments, `use` statements
/// and the name each public-item definition line defines.
fn count_names<'a>(text: &'a str, counts: &mut HashMap<&'a str, usize>) {
    let mut in_use = false;
    for line in text.lines() {
        let code = code_part(line);
        let t = code.trim_start();
        in_use |=
            t.starts_with("use ") || t.starts_with("pub use ") || t.starts_with("pub(crate) use ");
        if in_use {
            in_use = !code.contains(';');
            continue;
        }
        let mut defined = pub_item_name(code);
        for word in code.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
            if defined == Some(word) {
                defined = None;
            } else if !word.is_empty() {
                *counts.entry(word).or_default() += 1;
            }
        }
    }
}

/// `unused-pub`: public items of `crates/*/src` and of the root package's
/// `src/lib.rs` that nothing names outside their own module's tests, over
/// the whole source set `files` (as [`collect_sources`] returns it).
/// `allowed` lists `(path, name, reason)` entries that stay; an entry that
/// no longer matches an unused item is reported too, so the list cannot go
/// stale. This file is skipped: its fixtures and allowlist name items
/// without calling them.
pub fn check_unused_pub(
    files: &[(String, String)],
    allowed: &[(&str, &str, &str)],
) -> Vec<LintHit> {
    let files: Vec<_> = files.iter().filter(|(path, _)| path != LINT_SOURCE).collect();
    let mut named = HashMap::new();
    for (_, content) in &files {
        count_names(content, &mut named);
    }
    let mut hits = Vec::new();
    let mut matched = vec![false; allowed.len()];
    for (path, content) in files {
        let parts: Vec<&str> = path.split('/').collect();
        let crate_src = parts.len() >= 4 && parts[0] == "crates" && parts[2] == "src";
        if !crate_src && path != "src/lib.rs" {
            continue;
        }
        let (body, tests) = content.split_at(content.find("#[cfg(test)]").unwrap_or(content.len()));
        let mut own_tests = HashMap::new();
        count_names(tests, &mut own_tests);
        for (i, line) in body.lines().enumerate() {
            let Some(name) = pub_item_name(code_part(line)) else { continue };
            let callers =
                named.get(name).copied().unwrap_or(0) - own_tests.get(name).copied().unwrap_or(0);
            if callers > 0 {
                continue;
            }
            match allowed.iter().position(|&(p, n, _)| p == path && n == name) {
                Some(k) => matched[k] = true,
                None => hits.push(hit(path, i, "unused-pub", line)),
            }
        }
    }
    for (&(path, name, _), _) in allowed.iter().zip(&matched).filter(|(_, &m)| !m) {
        let excerpt = format!("stale allowlist entry `{name}`: it has a caller or is gone");
        hits.push(LintHit { file: path.to_string(), line: 0, rule: "unused-pub", excerpt });
    }
    hits
}

/// Run every single-file rule over one file.
pub fn check_file(path: &str, content: &str) -> Vec<LintHit> {
    // The linter's own source holds the trigger patterns as string
    // literals and test fixtures; the rules are line-based, not parsed,
    // so the one file that *defines* them is exempt.
    if path == LINT_SOURCE {
        return Vec::new();
    }
    let mut hits = check_cancel_safety(path, content);
    hits.extend(check_bcast_hot_copy(path, content));
    hits.extend(check_comm_impl(path, content));
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(files: &[(&str, &str)]) -> Vec<(String, String)> {
        files.iter().map(|&(p, c)| (p.to_string(), c.to_string())).collect()
    }

    #[test]
    fn unused_pub_accepts_every_kind_of_caller() {
        let lib = "pub fn by_lib() {}\npub fn by_bin() {}\npub struct ByTest;\n\
                   pub const BY_EXAMPLE: u8 = 1;\npub fn by_benchmark() {}\n\
                   pub fn by_sibling_tests() {}\nfn private() { by_lib() }\n";
        let files = corpus(&[
            ("crates/x/src/lib.rs", lib),
            ("crates/x/src/bin/tool.rs", "fn main() { x::by_bin(); }\n"),
            ("tests/it.rs", "#[test]\nfn t() { let _ = x::ByTest; }\n"),
            ("examples/demo.rs", "fn main() { println!(\"{}\", x::BY_EXAMPLE); }\n"),
            ("benchmark/src/main.rs", "fn main() { x::by_benchmark(); }\n"),
            ("crates/x/src/other.rs", "#[cfg(test)]\nmod t { fn f() { by_sibling_tests(); } }\n"),
        ]);
        assert_eq!(check_unused_pub(&files, &[]), vec![]);
    }

    #[test]
    fn unused_pub_flags_items_only_their_own_tests_or_a_reexport_name() {
        let lib = "pub use crate::inner::Reexported;\n\
                   /// Calls [`only_tested`] in prose only.\n\
                   pub fn only_tested() {}\n\
                   pub(crate) fn crate_private() {}\n\
                   #[cfg(test)]\nmod t { #[test] fn f() { super::only_tested(); } }\n";
        let inner = "pub struct Reexported;\n";
        let files = corpus(&[("crates/x/src/lib.rs", lib), ("crates/x/src/inner.rs", inner)]);
        let hits = check_unused_pub(&files, &[]);
        let found: Vec<_> = hits.iter().map(|h| (h.file.as_str(), h.line)).collect();
        assert_eq!(found, vec![("crates/x/src/lib.rs", 3), ("crates/x/src/inner.rs", 1)]);
        assert!(hits.iter().all(|h| h.rule == "unused-pub"));
        // Only crates/*/src and the root package's lib are audited: a helper
        // inside an integration test or a bin is that target's own business.
        let files = corpus(&[
            ("tests/it.rs", "pub fn helper() {}\n"),
            ("src/bin/tool/main.rs", "pub fn helper() {}\n"),
        ]);
        assert!(check_unused_pub(&files, &[]).is_empty());
    }

    #[test]
    fn unused_pub_audits_the_root_package_lib() {
        let lib = "pub use bcast_core as core;\n\
                   /// The measurement primitive the examples build on.\n\
                   pub fn simulate_once() -> f64 {\n    1.0\n}\n\
                   pub fn measured() -> f64 {\n    2.0\n}\n\
                   #[cfg(test)]\nmod t { #[test] fn f() { super::simulate_once(); } }\n";
        let files = corpus(&[
            ("src/lib.rs", lib),
            ("examples/e.rs", "fn main() { umbrella::measured(); }\n"),
        ]);
        let hits = check_unused_pub(&files, &[]);
        let found: Vec<_> = hits.iter().map(|h| (h.file.as_str(), h.line)).collect();
        assert_eq!(found, vec![("src/lib.rs", 3)]);
    }

    #[test]
    fn unused_pub_allowlist_waives_and_cannot_go_stale() {
        let files = corpus(&[("crates/x/src/lib.rs", "pub fn kept() {}\n")]);
        let allowed = [("crates/x/src/lib.rs", "kept", "public entry point")];
        assert!(check_unused_pub(&files, &allowed).is_empty());
        let used = corpus(&[
            ("crates/x/src/lib.rs", "pub fn kept() {}\n"),
            ("examples/e.rs", "fn main() { x::kept(); }\n"),
        ]);
        let hits = check_unused_pub(&used, &allowed);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].excerpt.contains("stale allowlist entry `kept`"));
        assert!(UNUSED_PUB_ALLOWED.len() < 15);
    }

    #[test]
    fn unused_pub_flags_a_seeded_mutant_in_the_real_tree() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = collect_sources(&root).unwrap();
        let before = check_unused_pub(&files, &UNUSED_PUB_ALLOWED);
        let rank = files.iter_mut().find(|(p, _)| p == "crates/mpsim/src/rank.rs").unwrap();
        rank.1.insert_str(0, "pub fn seeded_unused_mutant() {}\n");
        let after = check_unused_pub(&files, &UNUSED_PUB_ALLOWED);
        assert_eq!(after.len(), before.len() + 1, "{after:?}");
        let mutant = after.iter().find(|h| h.excerpt.contains("seeded_unused_mutant")).unwrap();
        assert_eq!((mutant.file.as_str(), mutant.line), ("crates/mpsim/src/rank.rs", 1));
    }

    #[test]
    fn cancel_safety_flags_unregistered_pending() {
        let bare = "fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {\n    \
                    if self.done { return Poll::Ready(()); }\n    \
                    Poll::Pending\n}\n";
        assert_eq!(check_cancel_safety("crates/mpsim/src/event_comm.rs", bare).len(), 1);
        assert_eq!(check_cancel_safety("crates/mpsim/src/acomm.rs", bare).len(), 1);
        // Waking the context's waker is no registration: the reactor's is a
        // no-op, so this task is never polled again.
        let self_woken = "fn f() {\n    cx.waker().wake_by_ref(); return Poll::Pending\n}\n";
        assert_eq!(check_cancel_safety("crates/mpsim/src/event_comm.rs", self_woken).len(), 1);
        // Only the async communication layer is in scope.
        assert!(check_cancel_safety("crates/mpsim/src/thread_comm.rs", bare).is_empty());
        assert!(check_cancel_safety("crates/core/src/bcast.rs", bare).is_empty());
    }

    #[test]
    fn cancel_safety_accepts_registered_pending() {
        // Each registration token within the eight-line window waives the
        // pending return: self-requeue, exit watch, barrier park flag,
        // timer arm, and delegation to an inner poll.
        for reg in [
            "shared.sched.push(me);",
            "shared.watch(me, this.src);",
            "shared.barrier_parked[me].set(true);",
            "this.timer = Some(shared.arm_timer(deadline_ns, me));",
            "match Pin::new(&mut this.inner).poll(cx) {",
        ] {
            let src = format!("fn f() {{\n    {reg}\n    return Poll::Pending;\n}}\n");
            assert!(
                check_cancel_safety("crates/mpsim/src/event_comm.rs", &src).is_empty(),
                "{reg}"
            );
        }
        // A match *pattern* consumes a Pending, it does not produce one.
        let arm = "match fut.poll(cx) {\n    Poll::Pending => spurious += 1,\n}\n";
        assert!(check_cancel_safety("crates/mpsim/src/event_comm.rs", arm).is_empty());
        // ... but a registration nine lines away is out of reach.
        let far = format!(
            "fn f() {{\n    shared.sched.push(me);\n{}    Poll::Pending\n}}\n",
            "\n".repeat(8)
        );
        assert_eq!(check_cancel_safety("crates/mpsim/src/event_comm.rs", &far).len(), 1);
    }

    #[test]
    fn cancel_safety_flags_borrow_across_suspension() {
        let held = "let env = self.mailboxes[me].borrow_mut().pop_future(src).await;\n";
        assert_eq!(check_cancel_safety("crates/mpsim/src/event_comm.rs", held).len(), 1);
        let polled = "let r = self.run.borrow_mut().front_mut().poll(cx);\n";
        assert_eq!(check_cancel_safety("crates/mpsim/src/event_comm.rs", polled).len(), 1);
        // A borrow scoped between suspension points is the discipline.
        let scoped = "let task = self.run.borrow_mut().pop_front()?;\n";
        assert!(check_cancel_safety("crates/mpsim/src/event_comm.rs", scoped).is_empty());
    }

    #[test]
    fn cancel_safety_flags_send_effects_inside_poll() {
        let in_poll = "fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {\n    \
                       self.comm.post_now(payload, dest, tag)?;\n    Poll::Ready(())\n}\n";
        assert_eq!(check_cancel_safety("crates/mpsim/src/event_comm.rs", in_poll).len(), 1);
        // The eager-send discipline: the same effect before the future
        // exists (outside any poll body) is exactly what the rule demands.
        let eager = "fn post(&self, payload: Payload) -> Result<()> {\n    \
                     self.post_now(payload, dest, tag)\n}\n\
                     fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {\n    \
                     Poll::Ready(())\n}\n";
        assert!(check_cancel_safety("crates/mpsim/src/event_comm.rs", eager).is_empty());
        // After the poll body closes, effects at file depth no longer match.
        let after = "fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {\n    \
                     Poll::Ready(())\n}\n\
                     fn flush(&self) { self.shared.push_envelope(d, s, t, env); }\n";
        assert!(check_cancel_safety("crates/mpsim/src/event_comm.rs", after).is_empty());
    }

    #[test]
    fn cancel_safety_waiver_and_test_scoping() {
        let waived_prev = "fn f() {\n    \
                           // lint: allow(cancel-safety) — woken by a later delivery\n    \
                           Poll::Pending\n}\n";
        assert!(check_cancel_safety("crates/mpsim/src/event_comm.rs", waived_prev).is_empty());
        let waived_same =
            "fn f() { Poll::Pending } // lint: allow(cancel-safety) — woken by its peer\n";
        assert!(check_cancel_safety("crates/mpsim/src/event_comm.rs", waived_same).is_empty());
        // The waiver is line-scoped: it does not bless a later violation.
        let not_blanket = "fn f() {\n    \
                           // lint: allow(cancel-safety) — woken by a later delivery\n    \
                           Poll::Pending\n}\n\
                           fn g() {\n    Poll::Pending\n}\n";
        assert_eq!(check_cancel_safety("crates/mpsim/src/event_comm.rs", not_blanket).len(), 1);
        // Test modules are exempt.
        let in_tests = "fn f() {}\n#[cfg(test)]\nmod t {\n    fn poll_never() -> Poll<()> { \
                        Poll::Pending }\n}\n";
        assert!(check_cancel_safety("crates/mpsim/src/acomm.rs", in_tests).is_empty());
    }

    #[test]
    fn bcast_hot_copy_flags_unaccounted_copies() {
        let bare = "fn f() {\n    buf[disp..disp + n].copy_from_slice(&env);\n}\n";
        for file in ["binomial.rs", "interp.rs", "scatter.rs", "ring_tuned.rs", "coalesce.rs"] {
            let path = format!("crates/core/src/{file}");
            assert_eq!(check_bcast_hot_copy(&path, bare).len(), 1, "{path}");
        }
        let rented = "let env = pool.rent_copy(buf);\n";
        assert_eq!(check_bcast_hot_copy("crates/core/src/ring.rs", rented).len(), 1);
        let vecced = "let staged = comm_buf.to_vec();\n";
        assert_eq!(check_bcast_hot_copy("crates/core/src/bcast.rs", vecced).len(), 1);
        // Only the broadcast hot path is held to the zero-copy contract.
        assert!(check_bcast_hot_copy("crates/core/src/rd_allgather.rs", bare).is_empty());
        assert!(check_bcast_hot_copy("crates/mpsim/src/thread_comm.rs", rented).is_empty());
        // The reliable data path is on it, and there packing a frame counts.
        let packed =
            "frame.extend_from_slice(&seq.to_le_bytes());\nframe.extend_from_slice(buf);\n";
        assert_eq!(check_bcast_hot_copy("crates/mpsim/src/reliable.rs", packed).len(), 2);
        assert_eq!(check_bcast_hot_copy("crates/mpsim/src/reliable.rs", bare).len(), 1);
        assert!(check_bcast_hot_copy("crates/core/src/ring.rs", packed).is_empty());
    }

    #[test]
    fn bcast_hot_copy_accepts_accounted_landing_copies_and_waivers() {
        // The sanctioned shape: one landing copy, accounted on the spot.
        let accounted = "fn f() {\n    buf[..env.len()].copy_from_slice(&env);\n    \
                         comm.note_copy(env.len());\n}\n";
        assert!(check_bcast_hot_copy("crates/core/src/binomial.rs", accounted).is_empty());
        // note_copy three lines later is out of the two-line window.
        let late = "fn f() {\n    buf.copy_from_slice(&env);\n    a();\n    b();\n    \
                    comm.note_copy(env.len());\n}\n";
        assert_eq!(check_bcast_hot_copy("crates/core/src/binomial.rs", late).len(), 1);
        // Explicit waiver, same or preceding line.
        let waived = "// lint: allow(bcast-hot-copy) — differential copy baseline\n\
                      buf.copy_from_slice(&env);\n";
        assert!(check_bcast_hot_copy("crates/core/src/ring.rs", waived).is_empty());
        let same_line = "buf.copy_from_slice(&env); // lint: allow(bcast-hot-copy) — baseline\n";
        assert!(check_bcast_hot_copy("crates/core/src/ring.rs", same_line).is_empty());
        // A gather staged for one frame, accounted where it ends.
        let staged = "for s in spans {\n    staged.extend_from_slice(&buf[s.range()]);\n}\n\
                      self.inner.note_copy(staged.len());\n";
        assert!(check_bcast_hot_copy("crates/mpsim/src/reliable.rs", staged).is_empty());
        // Comments and test modules are exempt.
        let comment = "// copy_from_slice( is banned on this path\n";
        assert!(check_bcast_hot_copy("crates/core/src/ring.rs", comment).is_empty());
        let in_tests = "fn f() {}\n#[cfg(test)]\nmod t { fn g() { buf.copy_from_slice(&src); } }\n";
        assert!(check_bcast_hot_copy("crates/core/src/ring.rs", in_tests).is_empty());
    }

    #[test]
    fn blocking_impl_allowed_in_the_two_executors_only() {
        let twin = "impl<C: Communicator + ?Sized> Communicator for SubComm<'_, C> {\n}\n";
        assert_eq!(check_comm_impl("crates/mpsim/src/sub_comm.rs", twin).len(), 1);
        assert_eq!(check_comm_impl("crates/core/src/recovery.rs", twin).len(), 1);
        let plain = "impl Communicator for ThreadComm {\n}\n";
        assert!(check_comm_impl("crates/mpsim/src/thread_comm.rs", plain).is_empty());
        assert!(check_comm_impl("crates/netsim/src/sim_comm.rs", plain).is_empty());
        assert_eq!(check_comm_impl("crates/mpsim/src/event_comm.rs", plain).len(), 1);
        // The async surface is where everything else belongs.
        let bridged = "impl<C: Communicator + ?Sized> AsyncCommunicator for SyncComm<'_, C> {\n}\n";
        assert!(check_comm_impl("crates/mpsim/src/acomm.rs", bridged).is_empty());
        // Comments and test doubles are exempt.
        let comment = "// impl Communicator for Foo would be a twin\n";
        assert!(check_comm_impl("crates/core/src/bcast.rs", comment).is_empty());
        let in_tests = "fn f() {}\n#[cfg(test)]\nmod t { impl Communicator for Fake {} }\n";
        assert!(check_comm_impl("crates/core/src/bcast.rs", in_tests).is_empty());
    }

    /// The two executors before they shrank to the envelope core, in
    /// miniature: each defines a provided method beside its core.
    const THREAD_COMM_WITH_TWINS: &str = "impl Communicator for ThreadComm {\n    \
        fn post(&self, payload: Payload, dest: Rank, tag: Tag) -> Result<()> {\n        \
        if dest >= self.size() { return Err(e); }\n        Ok(())\n    }\n    \
        fn send(&self, buf: &[u8], dest: Rank, tag: Tag) -> Result<()> {\n        \
        self.post(self.make_shared(buf).into(), dest, tag)\n    }\n}\n";
    const SIM_COMM_WITH_TWINS: &str = "impl Communicator for SimComm {\n    \
        fn rank(&self) -> Rank {\n        self.rank\n    }\n    \
        fn check_rank(&self, rank: Rank) -> Result<()> {\n        Ok(())\n    }\n}\n";

    #[test]
    fn comm_impl_flags_provided_methods_defined_in_an_impl() {
        let hits = check_comm_impl("crates/mpsim/src/thread_comm.rs", THREAD_COMM_WITH_TWINS);
        assert_eq!(hits.len(), 1);
        assert_eq!((hits[0].line, hits[0].rule), (6, "comm-impl"));
        let hits = check_comm_impl("crates/netsim/src/sim_comm.rs", SIM_COMM_WITH_TWINS);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].excerpt.starts_with("fn check_rank("));
        // Every provided method, async or not, in a decorator's async impl
        // whose header rustfmt broke over three lines.
        let header =
            "impl<C> AsyncCommunicator for Wrap<'_, C>\nwhere\n    C: AsyncCommunicator,\n{\n";
        for m in PROVIDED {
            let body = format!(
                "{header}    async fn {m}(&self) -> Result<()> {{\n        x\n    }}\n}}\n"
            );
            assert_eq!(check_comm_impl("crates/mpsim/src/wrap.rs", &body).len(), 1, "{m}");
        }
    }

    #[test]
    fn comm_impl_accepts_the_core_and_code_outside_the_impl() {
        // The envelope core and the overridable exchange are what an impl
        // writes; nested braces in their bodies do not end the block early.
        let core = "impl AsyncCommunicator for Wrap {\n    \
                    async fn post(&self, p: Payload, d: Rank, t: Tag) -> Result<()> {\n        \
                    if d == 0 { return Ok(()); }\n        self.inner.post(p, d, t).await\n    }\n    \
                    async fn exchange(&self) -> Result<Payload> {\n        x\n    }\n}\n";
        assert!(check_comm_impl("crates/mpsim/src/wrap.rs", core).is_empty());
        let nested = format!("{}    fn send(&self) {{}}\n}}\n", &core[..core.len() - 2]);
        assert_eq!(check_comm_impl("crates/mpsim/src/wrap.rs", &nested).len(), 1);
        // An inherent helper, the trait's own provided bodies and a test
        // double are not implementations of a communicator.
        let after = format!("{core}impl Wrap {{\n    fn send(&self) {{}}\n}}\n");
        assert!(check_comm_impl("crates/mpsim/src/wrap.rs", &after).is_empty());
        let provided = "pub trait AsyncCommunicator {\n    \
                        async fn send(&self, buf: &[u8]) -> Result<()> {\n        x\n    }\n}\n";
        assert!(check_comm_impl("crates/mpsim/src/acomm.rs", provided).is_empty());
        let in_tests = format!("fn f() {{}}\n#[cfg(test)]\nmod t {{\n{THREAD_COMM_WITH_TWINS}}}\n");
        assert!(check_comm_impl("crates/mpsim/src/thread_comm.rs", &in_tests).is_empty());
    }

    /// A blocking twin of the tuned broadcast, as `smp.rs` would regrow it.
    const SMP_WITH_A_TWIN: &str = "use mpsim::{complete_now, Communicator, SyncComm};\n\
        pub fn bcast_opt(comm: &(impl Communicator + ?Sized), buf: &mut [u8], root: Rank)\n\
        -> Result<()> {\n    \
        complete_now(bcast_opt_async(&SyncComm::new(comm), buf, root))\n}\n";

    #[test]
    fn comm_impl_flags_a_blocking_bound_in_the_collectives() {
        let hits = check_comm_impl("crates/core/src/smp.rs", SMP_WITH_A_TWIN);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!((hits[0].line, hits[0].rule), (2, "comm-impl"));
        // Every spelling of the bound, over one line or a broken signature.
        for bound in [
            "fn f(c: &dyn Communicator) {}\n",
            "fn f<C: Communicator + ?Sized>(c: &C) {}\n",
            "fn f<C>(c: &C)\nwhere\n    C: Send + Communicator,\n{}\n",
            "fn f(\n    comm: &impl Communicator,\n) {}\n",
        ] {
            assert_eq!(check_comm_impl("crates/core/src/ring.rs", bound).len(), 1, "{bound}");
        }
        // The same twin inside a test module is a test helper.
        let in_tests = format!("fn f() {{}}\n#[cfg(test)]\nmod t {{\n{SMP_WITH_A_TWIN}}}\n");
        assert!(check_comm_impl("crates/core/src/smp.rs", &in_tests).is_empty());
        // The async trait is what the collectives are written against.
        let twin_async = SMP_WITH_A_TWIN.replace("impl Communicator", "impl AsyncCommunicator");
        assert!(check_comm_impl("crates/core/src/smp.rs", &twin_async).is_empty());
        let generic = "pub async fn f<C: AsyncCommunicator + ?Sized>(c: &C) {}\n";
        assert!(check_comm_impl("crates/core/src/smp.rs", generic).is_empty());
        // Only the collectives are in scope: executors and tests take the
        // blocking trait by design.
        assert!(check_comm_impl("crates/netsim/src/sim_comm.rs", SMP_WITH_A_TWIN).is_empty());
        assert!(check_comm_impl("src/bin/bcast/runner.rs", SMP_WITH_A_TWIN).is_empty());
    }

    #[test]
    fn comm_impl_allows_bcast_with_alone() {
        let entry = "pub fn bcast_with(\n    comm: &(impl Communicator + ?Sized),\n    \
                     buf: &mut [u8],\n) -> Result<()> {\n    x\n}\n";
        assert!(check_comm_impl("crates/core/src/bcast.rs", entry).is_empty());
        // Its name in another module, or a second entry beside it, is a hit.
        assert_eq!(check_comm_impl("crates/core/src/smp.rs", entry).len(), 1);
        let second =
            format!("{entry}{}", &SMP_WITH_A_TWIN[SMP_WITH_A_TWIN.find('\n').unwrap() + 1..]);
        let hits = check_comm_impl("crates/core/src/bcast.rs", &second);
        assert_eq!(hits.iter().map(|h| h.line).collect::<Vec<_>>(), vec![7]);
        // The real tree has no other.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (path, content) in collect_sources(&root).unwrap() {
            if path.starts_with("crates/core/src/") {
                assert!(check_comm_impl(&path, &content).is_empty(), "{path}");
            }
        }
    }
}

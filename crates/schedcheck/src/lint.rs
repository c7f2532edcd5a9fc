//! Repo-convention lint rules behind the `repolint` binary.
//!
//! Ten rules, each a pure function over `(relative path, file content)` —
//! the last over every source file at once — so they are unit-testable
//! without touching the filesystem:
//!
//! 1. [`check_panics`] — no `.unwrap(` / `.expect(` in *library* code of
//!    `core`, `mpsim`, `netsim` (bins, tests and `#[cfg(test)]` modules are
//!    exempt). Fallible paths must return [`mpsim::CommError`]-style errors.
//!    Deliberate exceptions carry a `// lint: allow(panic)` marker on the
//!    same or the preceding line.
//! 2. [`check_unsafe`] — every `unsafe` block or fn in any crate must have a
//!    `// SAFETY:` comment within the three preceding lines (or on the same
//!    line). Crates without any unsafe carry `#![forbid(unsafe_code)]`.
//! 3. [`check_ignored_comm_result`] — library code must never discard the
//!    `Result` of a communication call with `let _ = …send/recv/…`. Since
//!    the fault layer landed, those results carry timeout and peer-failure
//!    signals; dropping one silently turns a detectable crash back into a
//!    hang. Deliberate exceptions (e.g. best-effort acks to a dead peer)
//!    must match on the error instead, or carry a
//!    `// lint: allow(ignored-comm-result)` marker.
//! 4. [`check_real_time`] — the discrete-event executor
//!    (`crates/mpsim/src/event_*.rs` — the reactor and every module split
//!    out of it, currently `event_comm`, `event_mailbox`, `event_timer`)
//!    and the decorators that run on it (`reliable.rs`, `sub_comm.rs`,
//!    `netsim/src/fault.rs`, `core/src/recovery.rs`) must never read real
//!    time or sleep: `std::thread::sleep`, `Instant::now`, and `SystemTime`
//!    would leak wall-clock nondeterminism into a world whose whole
//!    contract is that fault delays and timeouts are deterministic
//!    virtual-clock events. A deliberate exception carries a
//!    `// lint: allow(real-time)` marker.
//! 5. [`check_event_mailbox_hashmap`] — no `HashMap` in the event-executor
//!    modules or in ThreadWorld's `mailbox.rs`: message matching is the
//!    reactor's hottest loop, the dense lane structures replaced hashed
//!    lookups there on purpose, and both executors share that one matcher.
//!    The only sanctioned use is the wild-tag spill fallback inside
//!    `event_mailbox.rs`, marked `// lint: allow(mailbox-spill)`.
//! 6. [`check_cancel_safety`] — cancel-safety in the async communication
//!    layer (`crates/mpsim/src/event_*.rs`, `crates/mpsim/src/acomm.rs`).
//!    Three shapes of the same bug class the reactor models in
//!    `schedcheck::models` verify the protocols against: producing
//!    `Poll::Pending` with no wake registration in reach (a lost wakeup in
//!    source form), holding a `RefCell` borrow across a suspension point
//!    (re-entrant poll panics), and mutating shared send-state inside a
//!    `poll` body (a cancelled-and-retried operation replays the side
//!    effect — sends must happen eagerly, before the future exists).
//!    Deliberate exceptions carry a `// lint: allow(cancel-safety)` marker.
//! 7. [`check_recovery_unwrap`] — no `.unwrap(` / `.expect(` on the result
//!    of a communication call inside the self-healing recovery module
//!    (`crates/core/src/recovery.rs`). A `CommError`
//!    there *is* the input the layer exists to handle — a peer death or
//!    timeout must feed the heartbeat/agreement machinery, never abort the
//!    process. Rule 1's generic `allow(panic)` waiver deliberately does not
//!    apply; the only escape hatch is `// lint: allow(recovery-unwrap)`.
//! 8. [`check_bcast_hot_copy`] — no unaccounted payload copies in the
//!    broadcast hot-path modules (the scatter-ring pipeline, its
//!    interpreter and coalescing rewrite, plus `binomial.rs`)
//!    nor on the reliable data path (`crates/mpsim/src/reliable.rs`).
//!    Since the zero-copy envelope flow landed, forwarded payloads travel
//!    as refcounted [`mpsim::SharedBuf`] views; a `copy_from_slice(` /
//!    `rent_copy(` / `.to_vec()` — in `reliable.rs` also an
//!    `extend_from_slice(`, the way a frame used to be packed — creeping
//!    back in silently re-taxes every hop while leaving wire traffic — and
//!    every wire-traffic test — unchanged. The sanctioned shape is the
//!    *accounted* copy, in the collectives the landing copy: a
//!    copy with a `note_copy(` call within the following two lines, which
//!    the `bytes_copied` ceilings then police at run time. Anything else
//!    needs a `// lint: allow(bcast-hot-copy)` marker.
//! 9. [`check_comm_impl`] — a communicator impl writes the envelope core
//!    and nothing else, and the collectives speak one trait. The blocking
//!    `Communicator` trait is implemented by the two blocking executors only
//!    (`crates/mpsim/src/thread_comm.rs`, `crates/netsim/src/sim_comm.rs`):
//!    everything above the executors is written once against
//!    `AsyncCommunicator` and reached from blocking code through
//!    `SyncComm` and `complete_now`, so a second `impl Communicator for` is
//!    a decorator twin growing back. For the same reason no library code of
//!    `crates/core/src` takes a blocking communicator — `impl
//!    Communicator`, `dyn Communicator` or `C: Communicator` — except
//!    `bcast_with` in `bcast.rs`, the one blocking entry point the frozen
//!    benchmark calls; any other is a blocking collective twin growing back
//!    (a `use` of the trait is not a bound). And no impl of either trait
//!    defines a method the trait provides over the core (`send`,
//!    `recv_owned`, `send_prefixed`, …): each variant's semantics is written
//!    once, in `acomm.rs`, and an override is a second copy of it that every
//!    stack above would silently stop sharing.
//! 10. [`check_unused_pub`] — every `pub` item (`fn`, `struct`, `enum`,
//!     `trait`, `type`, `const`, `static`) in `crates/*/src` and in the root
//!     package's `src/lib.rs` is named somewhere outside its own module's
//!     `#[cfg(test)]` block: by library code, a bin, an example, an
//!     integration test or `benchmark/src`. A public item only its own tests
//!     call is dead surface; it is deleted, made private, or listed in
//!     [`UNUSED_PUB_ALLOWED`] with the reason it stays. Names are matched as
//!     whole identifiers outside comments and `use` statements, so a
//!     re-export alone is not a caller.

use std::collections::HashMap;
use std::path::Path;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintHit {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Short rule name (`panic`, `unsafe-safety`, …).
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

/// Whether `path` is library (non-bin, non-test) source of a panic-free crate.
fn is_panic_free_lib(path: &str) -> bool {
    let lib = ["crates/core/src/", "crates/mpsim/src/", "crates/netsim/src/"];
    lib.iter().any(|p| path.starts_with(p))
        && path.ends_with(".rs")
        && !path.contains("/bin/")
        && !path.contains("/tests/")
}

/// Rule 1: `.unwrap(` / `.expect(` in library code. Content at or after the
/// first `#[cfg(test)]` is exempt (test modules sit at the bottom of each
/// file in this repo); `.unwrap_or(…)`, `.unwrap_or_else(…)`, `.expect_err(`
/// do not match. A `// lint: allow(panic)` marker on the same or the
/// preceding line waives a deliberate, documented panic.
pub fn check_panics(path: &str, content: &str) -> Vec<LintHit> {
    if !is_panic_free_lib(path) {
        return Vec::new();
    }
    let body = match content.find("#[cfg(test)]") {
        Some(i) => &content[..i],
        None => content,
    };
    let mut hits = Vec::new();
    let mut prev: &str = "";
    for (i, line) in body.lines().enumerate() {
        let code = code_part(line);
        let bare = |needle: &str, follow_ok: &[&str]| {
            code.match_indices(needle).any(|(at, _)| {
                let rest = &code[at + needle.len()..];
                !follow_ok.iter().any(|f| rest.starts_with(f))
            })
        };
        // `.unwrap(` must not be `.unwrap_or(` etc. — the needle includes
        // the open paren, so suffixed method names never match.
        let panics = bare(".unwrap(", &[]) || bare(".expect(", &[]);
        let allowed = line.contains("lint: allow(panic)") || prev.contains("lint: allow(panic)");
        if panics && !allowed {
            hits.push(hit(path, i, "panic", line));
        }
        prev = line;
    }
    hits
}

/// Rule 2: every `unsafe` keyword (block or fn) needs a `// SAFETY:` comment
/// on the same line or within the three preceding lines. The forbid
/// attribute's `unsafe_code` token does not match (the keyword must be
/// followed by whitespace or `{`).
pub fn check_unsafe(path: &str, content: &str) -> Vec<LintHit> {
    if !path.starts_with("crates/") || !path.ends_with(".rs") {
        return Vec::new();
    }
    let lines: Vec<&str> = content.lines().collect();
    let mut hits = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let code = code_part(line);
        let is_unsafe = code.match_indices("unsafe").any(|(at, _)| {
            let boundary_before =
                at == 0 || !code[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_');
            let rest = &code[at + "unsafe".len()..];
            let keyword =
                rest.starts_with(char::is_whitespace) || rest.starts_with('{') || rest.is_empty();
            boundary_before && keyword
        });
        if !is_unsafe {
            continue;
        }
        let lo = i.saturating_sub(3);
        let documented =
            line.contains("SAFETY:") || lines[lo..i].iter().any(|l| l.contains("SAFETY:"));
        if !documented {
            hits.push(hit(path, i, "unsafe-safety", line));
        }
    }
    hits
}

/// Every communication method of `AsyncCommunicator` — the envelope core
/// and every variant provided over it — as the call needle rules 3 and 7
/// match (the open paren keeps `.recv_owned(` from matching `.recv(` and
/// vice versa).
const COMM_CALLS: [&str; 13] = [
    ".post(",
    ".take(",
    ".exchange(",
    ".barrier(",
    ".send(",
    ".recv(",
    ".recv_timeout(",
    ".sendrecv(",
    ".send_shared(",
    ".recv_owned(",
    ".sendrecv_shared(",
    ".send_prefixed(",
    ".recv_prefixed(",
];

/// Rule 3: `let _ = …` discarding the `Result` of a communication call
/// (any of [`COMM_CALLS`]) in library code. Test modules are exempt (same
/// scoping as [`check_panics`]); a deliberate best-effort call carries
/// `// lint: allow(ignored-comm-result)` on the same or the preceding line.
pub fn check_ignored_comm_result(path: &str, content: &str) -> Vec<LintHit> {
    if !is_panic_free_lib(path) {
        return Vec::new();
    }
    let body = match content.find("#[cfg(test)]") {
        Some(i) => &content[..i],
        None => content,
    };
    let mut hits = Vec::new();
    let mut prev: &str = "";
    for (i, line) in body.lines().enumerate() {
        let code = code_part(line);
        let discarded = code
            .find("let _ =")
            .map(|at| &code[at..])
            .is_some_and(|rest| COMM_CALLS.iter().any(|c| rest.contains(c)));
        let allowed = line.contains("lint: allow(ignored-comm-result)")
            || prev.contains("lint: allow(ignored-comm-result)");
        if discarded && !allowed {
            hits.push(hit(path, i, "ignored-comm-result", line));
        }
        prev = line;
    }
    hits
}

/// Broadcast hot-path files: the scatter-ring pipeline the paper tunes, the
/// interpreter that executes it and its coalescing rewrite. Every payload
/// forwarded here must stay a refcounted view (rule 8).
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

/// Files that run on the event executor's virtual clock: the executor
/// itself and the decorators stacked on it, whose every wait is `now_ns`
/// arithmetic.
fn is_virtual_clock_pure(path: &str) -> bool {
    const DECORATORS: [&str; 4] = [
        "crates/mpsim/src/reliable.rs",
        "crates/mpsim/src/sub_comm.rs",
        "crates/netsim/src/fault.rs",
        "crates/core/src/recovery.rs",
    ];
    (path.starts_with("crates/mpsim/src/event_") && path.ends_with(".rs"))
        || DECORATORS.contains(&path)
}

/// Rule 4: real-time primitives inside the discrete-event executor or the
/// decorators that run on it. The event executor's contract is
/// virtual-clock purity — every delay and timeout is an event timestamp, so
/// the same world replays identically on every machine. Reading a wall
/// clock (`Instant::now`, `SystemTime`) or sleeping (`std::thread::sleep`)
/// in those files breaks that replay guarantee. Test modules are exempt
/// (same scoping as [`check_panics`]); a deliberate exception carries a
/// `// lint: allow(real-time)` marker on the same or the preceding line.
pub fn check_real_time(path: &str, content: &str) -> Vec<LintHit> {
    if !is_virtual_clock_pure(path) {
        return Vec::new();
    }
    let body = match content.find("#[cfg(test)]") {
        Some(i) => &content[..i],
        None => content,
    };
    const REAL_TIME: [&str; 4] = ["thread::sleep", "Instant::now", "SystemTime", "Instant :: now"];
    let mut hits = Vec::new();
    let mut prev: &str = "";
    for (i, line) in body.lines().enumerate() {
        let code = code_part(line);
        let real = REAL_TIME.iter().any(|n| code.contains(n));
        let allowed =
            line.contains("lint: allow(real-time)") || prev.contains("lint: allow(real-time)");
        if real && !allowed {
            hits.push(hit(path, i, "real-time", line));
        }
        prev = line;
    }
    hits
}

/// Rule 5: `HashMap` anywhere in the event-executor modules
/// (`crates/mpsim/src/event_*.rs`) or in ThreadWorld's mailbox
/// (`crates/mpsim/src/mailbox.rs`). The lane mailbox and timing wheel
/// exist precisely so the reactor's match/arm hot loops cost indexed loads
/// instead of hashing, and ThreadWorld matches through the same lanes; a
/// hash map creeping back in — or a second matcher growing beside the
/// first — silently re-taxes every message. The wild-tag spill fallback is
/// the one sanctioned use and carries a `// lint: allow(mailbox-spill)`
/// marker on the same or the preceding line. Test modules are exempt (same
/// scoping as [`check_panics`]).
pub fn check_event_mailbox_hashmap(path: &str, content: &str) -> Vec<LintHit> {
    let in_event_executor = path.starts_with("crates/mpsim/src/event_") && path.ends_with(".rs");
    if !in_event_executor && path != "crates/mpsim/src/mailbox.rs" {
        return Vec::new();
    }
    let body = match content.find("#[cfg(test)]") {
        Some(i) => &content[..i],
        None => content,
    };
    let mut hits = Vec::new();
    let mut prev: &str = "";
    for (i, line) in body.lines().enumerate() {
        let code = code_part(line);
        let allowed = line.contains("lint: allow(mailbox-spill)")
            || prev.contains("lint: allow(mailbox-spill)");
        if code.contains("HashMap") && !allowed {
            hits.push(hit(path, i, "event-mailbox-hashmap", line));
        }
        prev = line;
    }
    hits
}

/// Rule 6: cancel-safety in the async communication layer — the event
/// executor modules plus the sync↔async bridge, where every future must
/// survive being dropped between polls (a timed-out receive, an abandoned
/// barrier). Three line-level shapes, one rule name, one waiver:
///
/// * **Unregistered park.** A line that *produces* `Poll::Pending` (not a
///   `Poll::Pending =>` match pattern) with no wake-registration token on
///   the same line or the eight preceding lines. Registration tokens:
///   `sched.push(` (self-requeue), `watch(` (exit watch), `arm_timer(`,
///   `barrier_parked` (barrier park flag), `.poll(` (delegation — the inner
///   future registered), and `waker(`. A pending return with none of these
///   in reach is a task the reactor has no reason to ever run again.
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
/// Test modules are exempt (same scoping as [`check_panics`]); a deliberate
/// exception carries `// lint: allow(cancel-safety)` on the same or the
/// preceding line.
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
    const REGISTRATION: [&str; 6] =
        ["sched.push(", "watch(", "arm_timer(", "barrier_parked", ".poll(", "waker("];
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

/// Rule 7: `.unwrap(` / `.expect(` on the `Result` of a communication call
/// inside the self-healing recovery module (`crates/core/src/recovery.rs`),
/// whose whole purpose is to *survive* `CommError`s, so panicking on one
/// defeats the layer. Rule 1 already bans bare panics in library code,
/// but its `// lint: allow(panic)` waiver is too blunt here: a waived
/// unwrap of a *`CommError`* in recovery code turns the exact failure the
/// layer exists to absorb (a peer death, a timeout) into a process abort —
/// precisely the outcome self-healing is supposed to prevent. Detection
/// spans rustfmt-broken statements, so a chained `.await\n.unwrap()` on the
/// following line still matches. Test modules are exempt; the only escape
/// hatch is an explicit `// lint: allow(recovery-unwrap)` marker on the
/// same or the preceding line, which deliberately does *not* accept the
/// generic panic waiver.
pub fn check_recovery_unwrap(path: &str, content: &str) -> Vec<LintHit> {
    if path != "crates/core/src/recovery.rs" {
        return Vec::new();
    }
    let body = match content.find("#[cfg(test)]") {
        Some(i) => &content[..i],
        None => content,
    };
    let mut hits = Vec::new();
    let mut prev: &str = "";
    // True while the current multi-line statement has already named a
    // communication call; reset at each statement terminator.
    let mut stmt_has_comm = false;
    for (i, line) in body.lines().enumerate() {
        let code = code_part(line);
        if COMM_CALLS.iter().any(|c| code.contains(c)) {
            stmt_has_comm = true;
        }
        // The needles carry the open paren, so `.unwrap_or(` / `.expect_err(`
        // and friends never match.
        let panics = code.contains(".unwrap(") || code.contains(".expect(");
        let allowed = line.contains("lint: allow(recovery-unwrap)")
            || prev.contains("lint: allow(recovery-unwrap)");
        if panics && stmt_has_comm && !allowed {
            hits.push(hit(path, i, "recovery-unwrap", line));
        }
        if code.contains(';') {
            stmt_has_comm = false;
        }
        prev = line;
    }
    hits
}

/// Rule 8: unaccounted payload copies in the broadcast hot path — the
/// `is_bcast_hot_path` files plus `binomial.rs` (the whole-buffer tree
/// walk, with the same zero-copy contract) and `mpsim`'s `reliable.rs` (every hop
/// of a broadcast over a lossy link goes through it). A copy primitive
/// (`copy_from_slice(`, `rent_copy(`, `.to_vec()`; in `reliable.rs` also
/// `extend_from_slice(`, which is how a frame gets packed) is sanctioned
/// only as an *accounted* staging or landing copy, recognisable by a
/// `note_copy(` call on the same or the following two lines; the runtime
/// `bytes_copied` ceilings and closed forms then bound how often that shape
/// may execute. Test modules are exempt (same scoping as
/// [`check_panics`]); a deliberate exception carries a
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
/// envelope core, which no implementor defines (rule 9).
const PROVIDED: [&str; 10] = [
    "check_rank",
    "send",
    "recv",
    "recv_timeout",
    "sendrecv",
    "send_shared",
    "recv_owned",
    "sendrecv_shared",
    "send_prefixed",
    "recv_prefixed",
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

/// Rule 9: three shapes of blocking code outgrowing the envelope core, one
/// rule name. `impl … Communicator for` (the blocking trait;
/// `AsyncCommunicator for` does not match) anywhere but the two blocking
/// executors; in `crates/core/src`, any other `blocking_comm_bound`
/// outside the signature of `bcast.rs`'s `bcast_with` (tracked as the last
/// `fn` named before the line); and, in any `impl … Communicator for` or
/// `impl … AsyncCommunicator for` block, a definition of one of the
/// [`PROVIDED`] methods (the block is tracked by brace depth). Test modules
/// are exempt (same scoping as [`check_panics`]).
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
/// tests, as `(path, name, reason)` (rule 10). Kept under 15 entries.
pub const UNUSED_PUB_ALLOWED: [(&str, &str, &str); 1] = [(
    "crates/mpsim/src/mailbox.rs",
    "wakeup_stats",
    "the notify-skip's observable: the mailbox tests pin that an uncontended \
     push issues no wakeup",
)];

/// This file, exempt from every rule.
const LINT_SOURCE: &str = "crates/schedcheck/src/lint.rs";

/// Directories, relative to the repository root, whose `.rs` files rule 10
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

/// The name a line defines as a public item, if it is one (rule 10).
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

/// Rule 10: public items of `crates/*/src` and of the root package's
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
    let mut hits = check_panics(path, content);
    hits.extend(check_unsafe(path, content));
    hits.extend(check_ignored_comm_result(path, content));
    hits.extend(check_real_time(path, content));
    hits.extend(check_event_mailbox_hashmap(path, content));
    hits.extend(check_cancel_safety(path, content));
    hits.extend(check_recovery_unwrap(path, content));
    hits.extend(check_bcast_hot_copy(path, content));
    hits.extend(check_comm_impl(path, content));
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_rule_scoping() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(check_panics("crates/core/src/x.rs", src).len(), 1);
        assert!(check_panics("crates/bench/src/x.rs", src).is_empty());
        assert!(check_panics("crates/core/src/bin/tool.rs", src).is_empty());
    }

    #[test]
    fn panic_rule_exemptions() {
        let fallback = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); z.expect_err(\"e\"); }\n";
        assert!(check_panics("crates/core/src/x.rs", fallback).is_empty());
        let in_tests = "fn f() {}\n#[cfg(test)]\nmod t { fn g() { x.unwrap(); } }\n";
        assert!(check_panics("crates/core/src/x.rs", in_tests).is_empty());
        let marked = "// lint: allow(panic) — length checked above\nlet v = x.unwrap();\n";
        assert!(check_panics("crates/core/src/x.rs", marked).is_empty());
        let same_line = "let v = x.unwrap(); // lint: allow(panic) — infallible\n";
        assert!(check_panics("crates/core/src/x.rs", same_line).is_empty());
        let expect = "fn f() { x.expect(\"boom\"); }\n";
        assert_eq!(check_panics("crates/core/src/x.rs", expect).len(), 1);
    }

    #[test]
    fn ignored_comm_result_rule() {
        let bad = "fn f() { let _ = comm.send(&buf, 1, Tag(0)); }\n";
        assert_eq!(check_ignored_comm_result("crates/core/src/x.rs", bad).len(), 1);
        let bad_recv = "let _ = comm.recv_timeout(&mut b, 0, Tag(1), t);\n";
        assert_eq!(check_ignored_comm_result("crates/mpsim/src/x.rs", bad_recv).len(), 1);
        // explicit handling, bench/bin code and test modules are fine
        let handled = "match comm.send(&buf, 1, Tag(0)) { Ok(()) | Err(_) => {} }\n";
        assert!(check_ignored_comm_result("crates/core/src/x.rs", handled).is_empty());
        assert!(check_ignored_comm_result("crates/bench/src/x.rs", bad).is_empty());
        let in_tests = "fn f() {}\n#[cfg(test)]\nmod t { fn g() { let _ = c.recv(b, 0, t); } }\n";
        assert!(check_ignored_comm_result("crates/core/src/x.rs", in_tests).is_empty());
        // unrelated discards don't match
        let unrelated = "let _ = guard.lock();\n";
        assert!(check_ignored_comm_result("crates/core/src/x.rs", unrelated).is_empty());
        let waived = "// lint: allow(ignored-comm-result) — best-effort wakeup\n\
                      let _ = comm.send(&[], 1, Tag(0));\n";
        assert!(check_ignored_comm_result("crates/core/src/x.rs", waived).is_empty());
    }

    #[test]
    fn ignored_comm_result_rule_sees_shared_and_core_calls() {
        for call in [
            "let _ = comm.send_shared(&env, 1, Tag(0)).await;\n",
            "let _ = comm.recv_owned(8, 0, Tag(0)).await;\n",
            "let _ = comm.sendrecv_shared(&env, 1, Tag(0), 8, 1, Tag(0)).await;\n",
            "let _ = comm.send_prefixed(seq, &env, 1, Tag(0)).await;\n",
            "let _ = self.inner.post(payload, dest, tag).await;\n",
            "let _ = self.inner.take(8, src, tag, None).await;\n",
            "let _ = self.inner.exchange(payload, 1, Tag(0), 8, 1, Tag(0)).await;\n",
        ] {
            assert_eq!(
                check_ignored_comm_result("crates/netsim/src/x.rs", call).len(),
                1,
                "{call}"
            );
        }
    }

    #[test]
    fn real_time_rule_scoping_and_waiver() {
        let sleepy = "fn f() { std::thread::sleep(Duration::from_millis(1)); }\n";
        assert_eq!(check_real_time("crates/mpsim/src/event_comm.rs", sleepy).len(), 1);
        let instant = "let t0 = std::time::Instant::now();\n";
        assert_eq!(check_real_time("crates/mpsim/src/event_comm.rs", instant).len(), 1);
        let systime = "let wall = std::time::SystemTime::now();\n";
        assert_eq!(check_real_time("crates/mpsim/src/event_reactor.rs", systime).len(), 1);
        // The decorators that run on the event executor are held to the
        // same purity; the blocking executors are not.
        for path in [
            "crates/mpsim/src/reliable.rs",
            "crates/mpsim/src/sub_comm.rs",
            "crates/netsim/src/fault.rs",
            "crates/core/src/recovery.rs",
        ] {
            assert_eq!(check_real_time(path, instant).len(), 1, "{path}");
        }
        assert!(check_real_time("crates/mpsim/src/thread_comm.rs", sleepy).is_empty());
        assert!(check_real_time("crates/netsim/src/sim_comm.rs", instant).is_empty());
        // Comments, test modules, and marked lines are exempt.
        let comment = "// Instant::now is banned here\n";
        assert!(check_real_time("crates/mpsim/src/event_comm.rs", comment).is_empty());
        let in_tests = "fn f() {}\n#[cfg(test)]\nmod t { fn g() { \
                        let t = std::time::Instant::now(); } }\n";
        assert!(check_real_time("crates/mpsim/src/event_comm.rs", in_tests).is_empty());
        let waived = "// lint: allow(real-time) — diagnostics only, never scheduling\n\
                      let t0 = std::time::Instant::now();\n";
        assert!(check_real_time("crates/mpsim/src/event_comm.rs", waived).is_empty());
    }

    #[test]
    fn real_time_rule_covers_split_event_modules() {
        // The refactor split the reactor into event_comm / event_mailbox /
        // event_timer; the prefix glob must hold all of them (and any
        // future sibling) to virtual-clock purity.
        let instant = "let t0 = std::time::Instant::now();\n";
        for file in ["event_comm.rs", "event_mailbox.rs", "event_timer.rs", "event_future.rs"] {
            let path = format!("crates/mpsim/src/{file}");
            assert_eq!(check_real_time(&path, instant).len(), 1, "{path}");
        }
    }

    #[test]
    fn event_mailbox_hashmap_rule() {
        let bad = "use std::collections::HashMap;\n";
        for file in ["event_comm.rs", "event_mailbox.rs", "event_timer.rs"] {
            let path = format!("crates/mpsim/src/{file}");
            assert_eq!(check_event_mailbox_hashmap(&path, bad).len(), 1, "{path}");
        }
        // Outside the two matchers, hash maps are nobody's business here.
        assert!(check_event_mailbox_hashmap("crates/mpsim/src/thread_comm.rs", bad).is_empty());
        assert!(check_event_mailbox_hashmap("crates/core/src/bcast.rs", bad).is_empty());
        // The spill fallback is sanctioned when marked, same or previous line.
        let waived = "// lint: allow(mailbox-spill) — wild tags only\n\
                      spill: Option<Box<HashMap<u32, VecDeque<Envelope>>>>,\n";
        assert!(check_event_mailbox_hashmap("crates/mpsim/src/event_mailbox.rs", waived).is_empty());
        let same_line = "let m: HashMap<u32, u32>; // lint: allow(mailbox-spill)\n";
        assert!(
            check_event_mailbox_hashmap("crates/mpsim/src/event_mailbox.rs", same_line).is_empty()
        );
        // Comments and test modules are exempt.
        let comment = "// HashMap is banned on this path\n";
        assert!(check_event_mailbox_hashmap("crates/mpsim/src/event_comm.rs", comment).is_empty());
        let in_tests = "fn f() {}\n#[cfg(test)]\nmod t { use std::collections::HashMap; }\n";
        assert!(check_event_mailbox_hashmap("crates/mpsim/src/event_comm.rs", in_tests).is_empty());
    }

    /// ThreadWorld's mailbox before it moved onto the lane matcher, in
    /// miniature: a second, hashed `(src, tag)` matcher.
    const SHARDED_MAILBOX: &str = "use std::collections::{HashMap, VecDeque};\n\n\
        struct SlotState {\n    queues: HashMap<(Rank, Tag), VecDeque<Envelope>>,\n}\n";

    #[test]
    fn hashmap_rule_covers_the_thread_mailbox() {
        let hits = check_event_mailbox_hashmap("crates/mpsim/src/mailbox.rs", SHARDED_MAILBOX);
        assert_eq!(hits.iter().map(|h| h.line).collect::<Vec<_>>(), vec![1, 4]);
        assert!(hits.iter().all(|h| h.rule == "event-mailbox-hashmap"));
        // The lane matcher it uses instead is no finding.
        let lanes = "use crate::event_mailbox::LaneMailbox;\nstruct State { lanes: LaneMailbox }\n";
        assert!(check_event_mailbox_hashmap("crates/mpsim/src/mailbox.rs", lanes).is_empty());
    }

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
                           // lint: allow(cancel-safety) — woken by the drain loop\n    \
                           Poll::Pending\n}\n";
        assert!(check_cancel_safety("crates/mpsim/src/event_comm.rs", waived_prev).is_empty());
        let waived_same =
            "fn f() { Poll::Pending } // lint: allow(cancel-safety) — external waker\n";
        assert!(check_cancel_safety("crates/mpsim/src/event_comm.rs", waived_same).is_empty());
        // The waiver is line-scoped: it does not bless a later violation.
        let not_blanket = "fn f() {\n    \
                           // lint: allow(cancel-safety) — woken by the drain loop\n    \
                           Poll::Pending\n}\n\
                           fn g() {\n    Poll::Pending\n}\n";
        assert_eq!(check_cancel_safety("crates/mpsim/src/event_comm.rs", not_blanket).len(), 1);
        // Test modules are exempt, same scoping as the panic rule.
        let in_tests = "fn f() {}\n#[cfg(test)]\nmod t {\n    fn poll_never() -> Poll<()> { \
                        Poll::Pending }\n}\n";
        assert!(check_cancel_safety("crates/mpsim/src/acomm.rs", in_tests).is_empty());
    }

    #[test]
    fn unsafe_rule() {
        let bare = "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        assert_eq!(check_unsafe("crates/mpsim/src/x.rs", bare).len(), 1);
        let documented = "// SAFETY: guarded by the bounds check above.\n\
                          fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        assert!(check_unsafe("crates/mpsim/src/x.rs", documented).is_empty());
        let forbid = "#![forbid(unsafe_code)]\n";
        assert!(check_unsafe("crates/core/src/lib.rs", forbid).is_empty());
    }

    #[test]
    fn recovery_unwrap_flags_comm_results_in_recovery_files_only() {
        let bad = "fn f() { comm.recv(&mut buf, peer, Tag(3)).unwrap(); }\n";
        assert_eq!(check_recovery_unwrap("crates/core/src/recovery.rs", bad).len(), 1);
        // Other files — even other core modules — are rule 1's territory.
        assert!(check_recovery_unwrap("crates/core/src/bcast.rs", bad).is_empty());
        let expect = "let n = comm.recv_timeout(&mut b, p, Tag(1), t).expect(\"peer\");\n";
        assert_eq!(check_recovery_unwrap("crates/core/src/recovery.rs", expect).len(), 1);
        // Non-comm unwraps in recovery files are also rule 1's territory.
        let non_comm = "fn f() { members.iter().position(|&m| m == me).unwrap(); }\n";
        assert!(check_recovery_unwrap("crates/core/src/recovery.rs", non_comm).is_empty());
        // Error-tolerant combinators are the sanctioned shape.
        let tolerant = "let _ = comm.send(&buf, peer, Tag(3)).map_err(|_| ());\n\
                        if comm.barrier().is_err() { return; }\n";
        assert!(check_recovery_unwrap("crates/core/src/recovery.rs", tolerant).is_empty());
    }

    #[test]
    fn recovery_unwrap_sees_shared_and_core_calls() {
        let recovery = "crates/core/src/recovery.rs";
        let shared = "let _ = comm.send_shared(&env, peer, Tag(3)).await.unwrap();\n";
        assert_eq!(check_recovery_unwrap(recovery, shared).len(), 1);
        let core = "let env = self.inner\n    .take(cap, src, tag, None)\n    .await\n    .expect(\"peer\");\n";
        assert_eq!(check_recovery_unwrap(recovery, core).len(), 1);
        let posted = "self.inner.post(payload, dest, tag).await.unwrap();\n";
        assert_eq!(check_recovery_unwrap(recovery, posted).len(), 1);
    }

    #[test]
    fn recovery_unwrap_spans_rustfmt_broken_statements() {
        // rustfmt splits long chains: the comm call and the unwrap land on
        // different lines of one statement.
        let split = "let healed = self.comm.sendrecv(&out, peer, Tag(2), &mut inb, peer, Tag(2))\n\
                     .await\n\
                     .unwrap();\n";
        let hits = check_recovery_unwrap("crates/core/src/recovery.rs", split);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 3);
        // The statement terminator resets the tracking: an unwrap in the
        // *next* statement is not contaminated by the previous comm call.
        let reset = "comm.barrier()?;\nlet r = report.decode().unwrap();\n";
        assert!(check_recovery_unwrap("crates/core/src/recovery.rs", reset).is_empty());
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

    #[test]
    fn recovery_unwrap_waiver_and_test_scoping() {
        // Only the dedicated marker waives — the generic panic waiver is
        // deliberately insufficient here.
        let generic = "// lint: allow(panic) — startup only\n\
                       comm.barrier().unwrap();\n";
        assert_eq!(check_recovery_unwrap("crates/core/src/recovery.rs", generic).len(), 1);
        let dedicated = "// lint: allow(recovery-unwrap) — pre-agreement bootstrap barrier\n\
                         comm.barrier().unwrap();\n";
        assert!(check_recovery_unwrap("crates/core/src/recovery.rs", dedicated).is_empty());
        let same_line = "comm.barrier().unwrap(); // lint: allow(recovery-unwrap) — bootstrap\n";
        assert!(check_recovery_unwrap("crates/core/src/recovery.rs", same_line).is_empty());
        let in_tests = "fn f() {}\n#[cfg(test)]\nmod t { fn g() { comm.barrier().unwrap(); } }\n";
        assert!(check_recovery_unwrap("crates/core/src/recovery.rs", in_tests).is_empty());
    }
}

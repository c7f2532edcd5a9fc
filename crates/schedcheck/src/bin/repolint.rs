//! Repo-convention linter: walks `crates/**/*.rs` and applies the four
//! rules in [`schedcheck::lint`] that no shipped lint expresses —
//! `cancel-safety` (unregistered `Poll::Pending`, `RefCell` borrows across
//! suspension points and send effects inside `poll` bodies in the async
//! communication layer), `bcast-hot-copy` (unaccounted payload copies in the
//! broadcast hot path), `comm-impl` (`impl Communicator for` outside the two
//! blocking executors, blocking bounds in the collectives, communicator
//! impls defining a provided method) — then reads `src/`, `tests/`,
//! `examples/` and `benchmark/src/` as well for `unused-pub`: public items
//! of `crates/*/src` that nothing outside their own tests names. Prints
//! every hit and exits nonzero if any are found.
//!
//! Panic-free libraries, documented `unsafe`, no discarded results,
//! virtual-clock purity and the hash-free matcher are clippy lints,
//! configured in `clippy.toml`, `Cargo.toml`'s `[workspace.lints.clippy]`
//! and the library crate roots (see [`schedcheck::lint`]).
//!
//! Run from the repository root (the directory containing `crates/`).

use std::path::Path;

use schedcheck::lint;

fn main() {
    if !Path::new("crates").is_dir() {
        eprintln!("repolint: no crates/ here — run from the repository root");
        std::process::exit(2);
    }
    let files = match lint::collect_sources(Path::new(".")) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("repolint: cannot read the sources: {e}");
            std::process::exit(2);
        }
    };

    let mut hits: Vec<lint::LintHit> = files
        .iter()
        .filter(|(path, _)| path.starts_with("crates/"))
        .flat_map(|(path, content)| lint::check_file(path, content))
        .collect();
    hits.extend(lint::check_unused_pub(&files, &lint::UNUSED_PUB_ALLOWED));

    if hits.is_empty() {
        println!("repolint: {} files clean", files.len());
        return;
    }
    for h in &hits {
        eprintln!("{h}");
    }
    eprintln!("repolint: {} violation(s) in {} files scanned", hits.len(), files.len());
    std::process::exit(1);
}

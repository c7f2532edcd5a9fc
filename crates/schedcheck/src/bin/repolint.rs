//! Repo-convention linter: walks `crates/**/*.rs` and applies the rules in
//! [`schedcheck::lint`] — `.unwrap()`/`.expect()` in library code,
//! undocumented `unsafe`, `let _ =` discarding a communication call's
//! `Result`, wall-clock reads inside the event executor and the decorators
//! that run on it, `HashMap`s inside the event executor, cancel-unsafe
//! shapes in the async communication layer (unregistered `Poll::Pending`,
//! `RefCell` borrows across suspension points, send effects inside `poll`
//! bodies), `.unwrap()`/`.expect()` on communication results inside the
//! self-healing recovery module, unaccounted payload copies in the
//! broadcast hot path, `impl Communicator for` outside the two blocking
//! executors, and communicator impls defining a provided method — then reads
//! `src/`, `tests/`, `examples/` and `benchmark/src/` as well for public
//! items of `crates/*/src` that nothing outside their own tests names.
//! Prints every hit and exits nonzero if any are found.
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

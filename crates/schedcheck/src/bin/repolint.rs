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
//! executors, and communicator impls defining a provided method. Prints every
//! hit and exits nonzero if any are found.
//!
//! Run from the repository root (the directory containing `crates/`).

use std::fs;
use std::path::{Path, PathBuf};

use schedcheck::lint;

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("repolint: cannot read {}: {e}", dir.display());
            std::process::exit(2);
        }
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn main() {
    let root = Path::new("crates");
    if !root.is_dir() {
        eprintln!("repolint: no crates/ here — run from the repository root");
        std::process::exit(2);
    }
    let mut files = Vec::new();
    collect_rs(root, &mut files);
    files.sort();

    let mut hits = Vec::new();
    for path in &files {
        let content = match fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("repolint: cannot read {}: {e}", path.display());
                std::process::exit(2);
            }
        };
        let rel = path.to_string_lossy().replace('\\', "/");
        hits.extend(lint::check_file(&rel, &content));
    }

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

//! `cargo xtask analyze` — whole-workspace semantic analysis.
//!
//! The pipeline: [`model`] parses every source file into functions,
//! fields and impls; [`callgraph`] connects them; [`panic`], [`txn`],
//! [`lock`], [`taint`], [`discard`] and `error_impl` run the analyses;
//! [`report`] aggregates. The entry-point/trust vocabulary is the `// analyze:`
//! marker comments documented in DESIGN.md §10; the concurrency pass is
//! DESIGN.md §12; the untrusted-bytes taint pass is DESIGN.md §16.

pub mod callgraph;
pub mod discard;
mod error_impl;
pub mod lock;
pub mod model;
pub mod panic;
pub mod report;
pub mod taint;
pub mod txn;

use crate::walk::{rel, rust_files};
use report::Report;
use std::io;
use std::path::{Path, PathBuf};

/// Builds the model from every `.rs` under `crates/*/src` and the root
/// `src/` of the workspace at `root`.
pub fn workspace_model(root: &Path) -> io::Result<model::Model> {
    let mut m = model::Model::default();
    for path in workspace_sources(root)? {
        let source = std::fs::read_to_string(&path)?;
        m.add_file(&rel(root, &path), &source)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    }
    Ok(m)
}

fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = rust_files(&root.join("src"))?;
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        files.extend(rust_files(&dir.join("src"))?);
    }
    Ok(files)
}

/// Builds a model from *every* `.rs` under `dir` — used by the fixture
/// tests, whose mini-crates mirror the `crates/<name>/src` layout.
pub fn dir_model(dir: &Path) -> io::Result<model::Model> {
    let mut m = model::Model::default();
    for path in rust_files(dir)? {
        let source = std::fs::read_to_string(&path)?;
        m.add_file(&rel(dir, &path), &source)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    }
    Ok(m)
}

/// Runs the analyses over a built model. `require_anchors` demands the
/// commit-ordering and lock-discipline anchors exist (on for workspace
/// runs, off for fixtures).
pub fn run_model(m: &model::Model, require_anchors: bool) -> Report {
    let graph = callgraph::Graph::build(m);
    let seeds = panic::all_seeds(m);
    let panic_report = panic::run(m, &graph, &seeds);
    let lock_report = lock::run(m, &graph, require_anchors);
    let mut hard = panic_report.recovery;
    hard.extend(txn::run(m, &graph));
    hard.extend(txn::check_ordering(m, require_anchors));
    hard.extend(discard::run(m));
    hard.extend(error_impl::run(m));
    hard.extend(lock_report.hard);
    hard.extend(taint::run(m, require_anchors));
    let mut ratcheted = panic_report.ratcheted;
    ratcheted.extend(lock_report.census);
    Report { hard, ratcheted }
}

/// Convenience: model + analyses for a fixture directory.
pub fn run_dir(dir: &Path) -> io::Result<Report> {
    Ok(run_model(&dir_model(dir)?, false))
}

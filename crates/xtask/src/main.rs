//! `cargo xtask analyze` — whole-workspace semantic analysis:
//! panic-reachability from annotated entry points, transaction discipline
//! around storage writes, commit-ordering anchors, lock discipline (class
//! order, I/O under guards, single-writer), untrusted-byte taint,
//! discarded-`Result` detection in the storage crate and `error-impl`
//! (every public error type of a library crate implements
//! `std::error::Error`); see [`xtask::analyze`]. `panic-reach` findings and
//! the `lock-discipline` acquisition census ratchet through
//! `crates/xtask/baseline.toml`; everything else is zero-tolerance. Rules
//! that rustc or clippy can check live in `[workspace.lints]`, the crate
//! roots and the `clippy.toml` files, enforced by `cargo clippy --workspace
//! --all-targets -- -D warnings` (DESIGN.md §7).
//!
//! ```text
//! cargo xtask analyze                     # run the semantic analyses
//! cargo xtask analyze --verbose           # also list every finding
//! cargo xtask analyze --update-baseline   # re-ratchet after paying down debt
//! ```
//!
//! Exit codes: `0` clean, `1` findings / baseline regression (or stale
//! baseline), `2` usage / I/O error.

use std::path::PathBuf;
use std::process::ExitCode;
use xtask::{analyze, baseline, walk};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut update = false;
    let mut verbose = false;
    let mut seen_analyze = false;
    for arg in &args {
        match arg.as_str() {
            "analyze" if !seen_analyze => seen_analyze = true,
            "--update-baseline" => update = true,
            "--verbose" | "-v" => verbose = true,
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("xtask: unknown argument `{other}`");
                print_usage();
                return ExitCode::from(2);
            }
        }
    }
    if !seen_analyze {
        print_usage();
        return ExitCode::from(2);
    }
    run_analyze(update, verbose)
}

fn print_usage() {
    eprintln!("usage: cargo xtask analyze [--update-baseline] [--verbose]");
}

fn run_analyze(update: bool, verbose: bool) -> ExitCode {
    let root = match walk::workspace_root() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("xtask: cannot locate workspace root: {e}");
            return ExitCode::from(2);
        }
    };
    let model = match analyze::workspace_model(&root) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("xtask: cannot build the workspace model: {e}");
            return ExitCode::from(2);
        }
    };
    let report = analyze::run_model(&model, true);
    if verbose {
        println!(
            "xtask: analyze: {} fns in the model, {} hard finding(s), {} ratcheted",
            model.fns.len(),
            report.hard.len(),
            report.ratcheted.len()
        );
        for v in report.all() {
            println!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
        }
    }
    let mut failed = false;
    if !report.hard.is_empty() {
        for v in &report.hard {
            eprintln!(
                "xtask: ANALYZE [{}] {}:{}: {}",
                v.rule, v.file, v.line, v.message
            );
        }
        eprintln!(
            "xtask: {} semantic violation(s); these rules have no baseline — fix them",
            report.hard.len()
        );
        failed = true;
    }
    let code = ratchet(root, &report.ratcheted, update);
    if failed {
        ExitCode::FAILURE
    } else {
        code
    }
}

/// Compares the ratcheted findings against the committed baseline, or
/// re-ratchets it with `--update-baseline`.
fn ratchet(root: PathBuf, violations: &[analyze::report::Violation], update: bool) -> ExitCode {
    let path = root.join("crates").join("xtask").join("baseline.toml");
    let counts = baseline::counts_of(violations);
    if update {
        return match baseline::save(&path, &counts) {
            Ok(()) => {
                println!(
                    "xtask: baseline updated ({} violations across {} rule/file entries)",
                    counts.total(),
                    counts.entries()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("xtask: cannot write baseline: {e}");
                ExitCode::from(2)
            }
        };
    }
    let old = match baseline::load(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!(
                "xtask: cannot read {} ({e}); run with `--update-baseline` once",
                path.display()
            );
            return ExitCode::from(2);
        }
    };
    let diff = baseline::compare(&old, &counts);
    for reg in &diff.regressions {
        eprintln!(
            "xtask: REGRESSION [{}] {}: {} violation(s), baseline allows {}",
            reg.rule, reg.file, reg.current, reg.allowed
        );
        for v in violations
            .iter()
            .filter(|v| v.rule == reg.rule && v.file == reg.file)
        {
            eprintln!("    {}:{}: {}", v.file, v.line, v.message);
        }
    }
    for imp in &diff.improvements {
        println!(
            "xtask: improved [{}] {}: {} -> {}",
            imp.rule, imp.file, imp.allowed, imp.current
        );
    }
    println!(
        "xtask: analyze: {} ratcheted finding(s) (panic-reach + lock-discipline census), \
         baseline {}",
        violations.len(),
        if diff.regressions.is_empty() {
            "respected"
        } else {
            "violated"
        }
    );
    if !diff.regressions.is_empty() {
        eprintln!(
            "xtask: {} regression(s); fix them or (only for deliberate, reviewed debt) \
             re-ratchet with `--update-baseline`",
            diff.regressions.len()
        );
        return ExitCode::FAILURE;
    }
    if !diff.improvements.is_empty() {
        eprintln!(
            "xtask: baseline is stale ({} entries improved); run \
             `--update-baseline` to lock in the progress",
            diff.improvements.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

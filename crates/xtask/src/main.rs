//! `cargo xtask` — workspace invariant-audit tooling.
//!
//! Two subcommands:
//!
//! * `lint` — token-level lint pass with a ratcheted baseline
//!   (`crates/xtask/baseline.toml`); see [`xtask::rules`].
//! * `analyze` — whole-workspace semantic analysis: panic-reachability
//!   from annotated entry points, transaction discipline around storage
//!   writes, commit-ordering anchors, lock discipline (class order, I/O
//!   under guards, single-writer), and discarded-`Result` detection in
//!   the storage crate; see [`xtask::analyze`]. `panic-reach` findings
//!   and the `lock-discipline` acquisition census ratchet through the
//!   same baseline file; everything else is zero-tolerance.
//!
//! ```text
//! cargo xtask lint                        # audit tokens against the baseline
//! cargo xtask analyze                     # run the semantic analyses
//! cargo xtask <cmd> --verbose             # also list every finding
//! cargo xtask <cmd> --update-baseline     # re-ratchet after paying down debt
//! ```
//!
//! Exit codes: `0` clean, `1` findings / baseline regression (or stale
//! baseline), `2` usage / I/O error.
#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use xtask::{analyze, baseline, rules, walk};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut update = false;
    let mut verbose = false;
    let mut cmd: Option<&str> = None;
    for arg in &args {
        match arg.as_str() {
            "lint" if cmd.is_none() => cmd = Some("lint"),
            "analyze" if cmd.is_none() => cmd = Some("analyze"),
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
    match cmd {
        Some("lint") => run_lint(update, verbose),
        Some("analyze") => run_analyze(update, verbose),
        _ => {
            print_usage();
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    eprintln!("usage: cargo xtask <lint|analyze> [--update-baseline] [--verbose]");
}

fn workspace_root_or_exit() -> Result<PathBuf, ExitCode> {
    walk::workspace_root().map_err(|e| {
        eprintln!("xtask: cannot locate workspace root: {e}");
        ExitCode::from(2)
    })
}

fn run_lint(update: bool, verbose: bool) -> ExitCode {
    let root = match workspace_root_or_exit() {
        Ok(root) => root,
        Err(code) => return code,
    };
    let violations = match rules::run_all(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("xtask: lint pass failed: {e}");
            return ExitCode::from(2);
        }
    };
    if verbose {
        for v in &violations {
            println!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
        }
    }
    let counts = baseline::counts_of(&violations);
    ratchet(
        &root,
        rules::RULES,
        &counts,
        &violations,
        update,
        &format!(
            "{} violation(s) across {} rules",
            counts.total(),
            rules::RULES.len()
        ),
    )
}

fn run_analyze(update: bool, verbose: bool) -> ExitCode {
    let root = match workspace_root_or_exit() {
        Ok(root) => root,
        Err(code) => return code,
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
    let counts = baseline::counts_of(&report.ratcheted);
    let code = ratchet(
        &root,
        &["panic-reach", "lock-discipline"],
        &counts,
        &report.ratcheted,
        update,
        &format!(
            "analyze: {} ratcheted finding(s) (panic-reach + lock-discipline census)",
            report.ratcheted.len()
        ),
    );
    if failed {
        ExitCode::FAILURE
    } else {
        code
    }
}

/// Shared ratchet flow: compare `counts` (covering exactly `owned_rules`)
/// against the committed baseline, or re-ratchet with `--update-baseline`.
fn ratchet(
    root: &Path,
    owned_rules: &[&str],
    counts: &baseline::Counts,
    violations: &[rules::Violation],
    update: bool,
    summary: &str,
) -> ExitCode {
    let path = baseline_path(root);
    if update {
        match baseline::update_subset(&path, owned_rules, counts) {
            Ok(merged) => {
                println!(
                    "xtask: baseline updated ({} violations across {} rule/file entries)",
                    merged.total(),
                    merged.entries()
                );
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("xtask: cannot write baseline: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let mut old = match baseline::load(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!(
                "xtask: cannot read {} ({e}); run with `--update-baseline` once",
                path.display()
            );
            return ExitCode::from(2);
        }
    };
    old.retain_rules(|rule| owned_rules.contains(&rule));
    let diff = baseline::compare(&old, counts);
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
        "xtask: {summary}, baseline {}",
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

fn baseline_path(root: &Path) -> PathBuf {
    root.join("crates").join("xtask").join("baseline.toml")
}

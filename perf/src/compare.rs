//! `perf compare <dirA> <dirB>`: two run sets side by side, checked
//! against the benchmark's own bounds — the in-crate seed of the
//! `bench-diff` ROADMAP item 1 asks for.
//!
//! A run set is a directory with one `<workload>.json` per workload, as
//! written by an untraced run. For every workload and end-to-end metric
//! the command prints both values, the relative difference in the
//! metric's "worse" direction and the bound, and it fails when B is worse
//! than A by more than the bound anywhere.

use crate::json::{parse, Json};
use crate::metrics::{Better, END_TO_END, WORKLOADS};
use std::fmt::Write as _;
use std::path::Path;

fn load(dir: &Path, workload: &str) -> Result<Json, String> {
    let path = dir.join(format!("{workload}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn value(run: &Json, metric: &str) -> Option<f64> {
    run.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Renders the comparison; `Ok(report)` when every metric is within its
/// bound, `Err(report)` otherwise (or when a file cannot be read).
pub fn run(dir_a: &Path, dir_b: &Path) -> Result<String, String> {
    let mut out = String::new();
    let mut violations = 0;
    let _ = writeln!(
        out,
        "{:<12} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for w in &WORKLOADS {
        let (a, b) = (load(dir_a, w.name)?, load(dir_b, w.name)?);
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (value(&a, m.name), value(&b, m.name)) else {
                return Err(format!(
                    "{}: metric {} missing from a run file",
                    w.name, m.name
                ));
            };
            let bound = m.bound.unwrap_or(0.0);
            let worse = worsening(m.better, va, vb);
            let verdict = if worse > bound {
                violations += 1;
                "  EXCEEDS"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{:<12} {:<22} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%{verdict}",
                w.name,
                m.name,
                va,
                vb,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    if violations == 0 {
        Ok(out)
    } else {
        let _ = writeln!(out, "{violations} metric(s) worse than their bound");
        Err(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
    }
}

//! Aggregation and rendering of the analyzer's findings.
//!
//! Zero-tolerance rules (`panic-recovery`, `txn-discipline`,
//! `txn-ordering`, `discarded-result`, `error-impl`, `lock-class`,
//! `lock-order`, `lock-guard-io`, `reader-writes`, and the taint rules
//! `taint-index`, `taint-alloc`, `taint-loop`, `taint-arith`,
//! `taint-pageid`, `taint-escape`, `taint-anchor`) fail the run directly;
//! the `panic-reach` rule and the `lock-discipline` acquisition census are
//! ratcheted through their `baseline.toml` sections.

/// One finding.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Rule identifier, e.g. `txn-discipline`.
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

/// Everything one analyzer run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that fail the run whenever present.
    pub hard: Vec<Violation>,
    /// `panic-reach` findings and the lock census, gated by the baseline
    /// ratchet.
    pub ratcheted: Vec<Violation>,
}

impl Report {
    /// Every finding, hard first, in stable order.
    pub fn all(&self) -> Vec<&Violation> {
        let mut all: Vec<&Violation> = self.hard.iter().chain(self.ratcheted.iter()).collect();
        all.sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
        all
    }
}

/// Renders findings one per line — the golden-report format used by the
/// fixture tests: `rule file:line message`.
pub fn render(violations: &[&Violation]) -> String {
    let mut out = String::new();
    for v in violations {
        out.push_str(&format!("{} {}:{} {}\n", v.rule, v.file, v.line, v.message));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_stable_and_line_oriented() {
        let report = Report {
            hard: vec![Violation {
                rule: "txn-discipline",
                file: "b.rs".into(),
                line: 2,
                message: "m".into(),
            }],
            ratcheted: vec![Violation {
                rule: "panic-reach",
                file: "a.rs".into(),
                line: 1,
                message: "n".into(),
            }],
        };
        let text = render(&report.all());
        assert_eq!(text, "panic-reach a.rs:1 n\ntxn-discipline b.rs:2 m\n");
    }
}

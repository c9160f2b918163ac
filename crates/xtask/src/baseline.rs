//! The ratcheted baseline of `cargo xtask analyze`.
//!
//! `baseline.toml` records, per rule and file, how many findings are
//! currently tolerated: the `[panic-reach]` debt and the
//! `[lock-discipline]` acquisition census. The format is a TOML subset
//! written and parsed by this module (the workspace builds offline, so no
//! external TOML crate):
//!
//! ```toml
//! [panic-reach]
//! "crates/store/src/postings.rs" = 6
//! ```
//!
//! [`compare`] classifies the current counts against the stored ones:
//! a count above the stored allowance (or a file absent from the baseline)
//! is a *regression*; a count below it is an *improvement* that makes the
//! baseline stale until `--update-baseline` re-ratchets it downward.

use crate::analyze::report::Violation;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Violation counts keyed by `(rule, file)`, ordered for stable output.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    map: BTreeMap<(String, String), usize>,
}

impl Counts {
    /// Sum of all per-entry counts.
    pub fn total(&self) -> usize {
        self.map.values().sum()
    }

    /// Number of `(rule, file)` entries.
    pub fn entries(&self) -> usize {
        self.map.len()
    }

    /// The allowance for `(rule, file)`, 0 if absent.
    pub fn get(&self, rule: &str, file: &str) -> usize {
        self.map
            .get(&(rule.to_string(), file.to_string()))
            .copied()
            .unwrap_or(0)
    }
}

/// Aggregates violations into per-`(rule, file)` counts.
pub fn counts_of(violations: &[Violation]) -> Counts {
    let mut map = BTreeMap::new();
    for v in violations {
        *map.entry((v.rule.to_string(), v.file.clone())).or_insert(0) += 1;
    }
    Counts { map }
}

/// One `(rule, file)` entry whose current count differs from its allowance.
#[derive(Clone, Debug)]
pub struct DiffEntry {
    /// Rule identifier.
    pub rule: String,
    /// Repo-relative file path.
    pub file: String,
    /// Count observed in this run.
    pub current: usize,
    /// Count the baseline allows.
    pub allowed: usize,
}

/// Result of [`compare`].
#[derive(Clone, Debug, Default)]
pub struct Diff {
    /// Entries whose count grew past the baseline (lint failure).
    pub regressions: Vec<DiffEntry>,
    /// Entries whose count shrank below the baseline (stale baseline).
    pub improvements: Vec<DiffEntry>,
}

/// Compares current counts against the stored baseline.
pub fn compare(old: &Counts, new: &Counts) -> Diff {
    let mut diff = Diff::default();
    let keys: std::collections::BTreeSet<&(String, String)> =
        old.map.keys().chain(new.map.keys()).collect();
    for key in keys {
        let allowed = old.get(&key.0, &key.1);
        let current = new.get(&key.0, &key.1);
        let entry = DiffEntry {
            rule: key.0.clone(),
            file: key.1.clone(),
            current,
            allowed,
        };
        if current > allowed {
            diff.regressions.push(entry);
        } else if current < allowed {
            diff.improvements.push(entry);
        }
    }
    diff
}

/// Writes counts to the baseline file.
pub fn save(path: &Path, counts: &Counts) -> io::Result<()> {
    std::fs::write(path, render(counts))
}

/// The baseline text of `counts`, one `[rule]` section per rule.
fn render(counts: &Counts) -> String {
    let mut text = String::from(
        "# Ratcheted counts of `cargo xtask analyze`: the panic-reach debt and\n\
         # the lock-discipline acquisition census. Maintained by\n\
         # `--update-baseline`; counts may only decrease. Every other rule is\n\
         # zero-tolerance: in `cargo xtask analyze`, in the crate roots and\n\
         # in Cargo.toml and the clippy.toml files (DESIGN.md §7).\n",
    );
    let mut last_rule = "";
    for ((rule, file), count) in &counts.map {
        if rule != last_rule {
            text.push_str(&format!("\n[{rule}]\n"));
            last_rule = rule;
        }
        text.push_str(&format!("\"{file}\" = {count}\n"));
    }
    text
}

/// Reads a baseline file written by [`save`].
pub fn load(path: &Path) -> io::Result<Counts> {
    parse(&std::fs::read_to_string(path)?, path)
}

/// Parses baseline `text`; `path` names the file in errors.
fn parse(text: &str, path: &Path) -> io::Result<Counts> {
    let mut map = BTreeMap::new();
    let mut rule = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(section) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            rule = section.to_string();
            continue;
        }
        let parse_err = || {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}:{}: malformed baseline line `{raw}`",
                    path.display(),
                    idx + 1
                ),
            )
        };
        let (key, value) = line.split_once('=').ok_or_else(parse_err)?;
        let file = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(parse_err)?;
        let count: usize = value.trim().parse().map_err(|_| parse_err())?;
        if rule.is_empty() {
            return Err(parse_err());
        }
        map.insert((rule.clone(), file.to_string()), count);
    }
    Ok(Counts { map })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(entries: &[(&str, &str, usize)]) -> Counts {
        let mut map = BTreeMap::new();
        for (rule, file, n) in entries {
            map.insert((rule.to_string(), file.to_string()), *n);
        }
        Counts { map }
    }

    #[test]
    fn compare_classifies() {
        let old = counts(&[("panic-reach", "a.rs", 3), ("panic-reach", "b.rs", 1)]);
        let new = counts(&[
            ("panic-reach", "a.rs", 2),
            ("panic-reach", "b.rs", 1),
            ("lock-discipline", "c.rs", 1),
        ]);
        let diff = compare(&old, &new);
        assert_eq!(diff.improvements.len(), 1, "{diff:?}");
        assert_eq!(diff.improvements[0].file, "a.rs");
        assert_eq!(diff.regressions.len(), 1, "{diff:?}");
        assert_eq!(diff.regressions[0].file, "c.rs");
        assert_eq!(diff.regressions[0].allowed, 0);
    }

    #[test]
    fn save_load_round_trip() {
        let c = counts(&[("panic-reach", "a.rs", 3), ("lock-discipline", "b.rs", 2)]);
        let back = parse(&render(&c), Path::new("baseline.toml")).expect("parse");
        assert_eq!(back, c);
        assert_eq!(back.get("panic-reach", "a.rs"), 3);
        assert_eq!(back.get("missing", "a.rs"), 0);
    }

    #[test]
    fn load_rejects_garbage() {
        let parsed = parse("\"orphan\" = 1\n", Path::new("bad.toml"));
        assert!(parsed.is_err(), "entry before any [rule] section");
    }
}

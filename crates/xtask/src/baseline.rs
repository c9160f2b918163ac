//! The ratcheted lint baseline.
//!
//! `baseline.toml` records, per rule and file, how many violations are
//! currently tolerated. The format is a TOML subset written and parsed by
//! this module (the workspace builds offline, so no external TOML crate):
//!
//! ```toml
//! [unwrap]
//! "crates/store/src/btree.rs" = 86
//! ```
//!
//! [`compare`] classifies the current counts against the stored ones:
//! a count above the stored allowance (or a file absent from the baseline)
//! is a *regression*; a count below it is an *improvement* that makes the
//! baseline stale until `--update-baseline` re-ratchets it downward.

use crate::rules::Violation;
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

    /// Keeps only entries whose rule satisfies `pred`.
    pub fn retain_rules(&mut self, pred: impl Fn(&str) -> bool) {
        self.map.retain(|(rule, _), _| pred(rule));
    }

    /// Merges `other`'s entries into `self` (overwriting duplicates).
    pub fn merge(&mut self, other: Counts) {
        self.map.extend(other.map);
    }
}

/// Rewrites only the sections owned by `owned_rules` in the baseline at
/// `path`: entries for other rules are carried over untouched, so `cargo
/// xtask lint --update-baseline` and `cargo xtask analyze
/// --update-baseline` never clobber each other.
pub fn update_subset(path: &Path, owned_rules: &[&str], counts: &Counts) -> io::Result<Counts> {
    let mut merged = match load(path) {
        Ok(existing) => existing,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Counts::default(),
        Err(e) => return Err(e),
    };
    merged.retain_rules(|rule| !owned_rules.contains(&rule));
    merged.merge(counts.clone());
    save(path, &merged)?;
    Ok(merged)
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

/// Serialises counts to the baseline file, one `[rule]` section per rule.
pub fn save(path: &Path, counts: &Counts) -> io::Result<()> {
    let mut text = String::from(
        "# Ratcheted lint baseline. Maintained by `cargo xtask lint --update-baseline`;\n\
         # counts may only decrease. See crates/xtask/src/rules.rs for the rules.\n",
    );
    let mut last_rule = "";
    for ((rule, file), count) in &counts.map {
        if rule != last_rule {
            text.push_str(&format!("\n[{rule}]\n"));
            last_rule = rule;
        }
        text.push_str(&format!("\"{file}\" = {count}\n"));
    }
    std::fs::write(path, text)
}

/// Parses a baseline file written by [`save`].
pub fn load(path: &Path) -> io::Result<Counts> {
    let text = std::fs::read_to_string(path)?;
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
        let old = counts(&[("unwrap", "a.rs", 3), ("unwrap", "b.rs", 1)]);
        let new = counts(&[
            ("unwrap", "a.rs", 2),
            ("unwrap", "b.rs", 1),
            ("as-cast", "c.rs", 1),
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
        let c = counts(&[("unwrap", "a.rs", 3), ("as-cast", "b.rs", 2)]);
        let dir = std::env::temp_dir().join("xtask-baseline-test");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("baseline.toml");
        save(&path, &c).expect("save");
        let back = load(&path).expect("load");
        assert_eq!(back, c);
        assert_eq!(back.get("unwrap", "a.rs"), 3);
        assert_eq!(back.get("missing", "a.rs"), 0);
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("xtask-baseline-test");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("bad.toml");
        std::fs::write(&path, "\"orphan\" = 1\n").expect("write");
        assert!(load(&path).is_err(), "entry before any [rule] section");
    }
}

//! Interned node labels.
//!
//! Trees store compact [`LabelSym`] handles; the [`LabelTable`] owns the
//! strings and their Karp–Rabin fingerprints. A table is typically shared by
//! a whole forest so that equal labels in different documents intern to the
//! same symbol.

use crate::fingerprint::{karp_rabin, Fingerprint, NULL_FINGERPRINT};
use crate::hash::FxHashMap;
use std::fmt;

/// Interned label handle, unique per [`LabelTable`].
///
/// The all-ones value is reserved for the *null label* `*` used by the
/// extended tree of Definition 1; it never corresponds to an interned string.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelSym(u32);

impl LabelSym {
    /// The null label `*` (label of the null nodes `•` in the extended tree).
    pub const NULL: LabelSym = LabelSym(u32::MAX);

    /// Returns `true` for the null label.
    #[inline]
    pub fn is_null(self) -> bool {
        self == Self::NULL
    }

    /// Raw index of an interned label; panics on [`LabelSym::NULL`].
    #[inline]
    pub fn index(self) -> usize {
        debug_assert!(!self.is_null(), "index() on LabelSym::NULL");
        self.0 as usize
    }

    /// Reconstructs a symbol from a raw index. Panics when `index` falls
    /// outside the symbol space (`u32` less [`LabelSym::NULL`]).
    #[inline]
    pub fn from_index(index: usize) -> Self {
        let v = u32::try_from(index).unwrap_or(u32::MAX);
        assert_ne!(v, u32::MAX, "label index {index} is out of range");
        LabelSym(v)
    }

    /// A symbol read from untrusted bytes: `None` outside the symbol space.
    pub(crate) fn checked(raw: u64) -> Option<Self> {
        u32::try_from(raw)
            .ok()
            .filter(|&v| v != u32::MAX)
            .map(LabelSym)
    }
}

impl fmt::Debug for LabelSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "*")
        } else {
            write!(f, "l{}", self.0)
        }
    }
}

/// Owns label strings and maps them to stable [`LabelSym`] handles and
/// fingerprints.
#[derive(Default, Clone)]
pub struct LabelTable {
    names: Vec<Box<str>>,
    fingerprints: Vec<Fingerprint>,
    by_name: FxHashMap<Box<str>, LabelSym>,
}

impl LabelTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its symbol. Idempotent.
    pub fn intern(&mut self, name: &str) -> LabelSym {
        if let Some(&sym) = self.by_name.get(name) {
            return sym;
        }
        let sym = LabelSym::from_index(self.names.len());
        let boxed: Box<str> = name.into();
        self.names.push(boxed.clone());
        self.fingerprints.push(karp_rabin(name));
        self.by_name.insert(boxed, sym);
        sym
    }

    /// Looks up an already-interned label.
    pub fn lookup(&self, name: &str) -> Option<LabelSym> {
        self.by_name.get(name).copied()
    }

    /// The string for `sym`; `"*"` for the null label.
    pub fn name(&self, sym: LabelSym) -> &str {
        if sym.is_null() {
            "*"
        } else {
            &self.names[sym.index()]
        }
    }

    /// The Karp–Rabin fingerprint for `sym` ([`NULL_FINGERPRINT`] for `*`).
    #[inline]
    pub fn fingerprint(&self, sym: LabelSym) -> Fingerprint {
        if sym.is_null() {
            NULL_FINGERPRINT
        } else {
            self.fingerprints[sym.index()]
        }
    }

    /// Number of interned labels.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no label has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(sym, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (LabelSym, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (LabelSym::from_index(i), n.as_ref()))
    }
}

impl fmt::Debug for LabelTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LabelTable")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = LabelTable::new();
        let a1 = t.intern("a");
        let a2 = t.intern("a");
        assert_eq!(a1, a2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_labels_distinct_syms() {
        let mut t = LabelTable::new();
        assert_ne!(t.intern("a"), t.intern("b"));
    }

    #[test]
    fn name_roundtrip() {
        let mut t = LabelTable::new();
        let s = t.intern("inproceedings");
        assert_eq!(t.name(s), "inproceedings");
        assert_eq!(t.lookup("inproceedings"), Some(s));
        assert_eq!(t.lookup("article"), None);
    }

    #[test]
    fn null_label() {
        let t = LabelTable::new();
        assert_eq!(t.name(LabelSym::NULL), "*");
        assert_eq!(t.fingerprint(LabelSym::NULL), NULL_FINGERPRINT);
        assert!(LabelSym::NULL.is_null());
    }

    #[test]
    fn fingerprints_match_direct_computation() {
        let mut t = LabelTable::new();
        let s = t.intern("dblp");
        assert_eq!(t.fingerprint(s), karp_rabin("dblp"));
    }

    #[test]
    fn iter_returns_in_order() {
        let mut t = LabelTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        let got: Vec<_> = t.iter().collect();
        assert_eq!(got, vec![(a, "a"), (b, "b")]);
    }
}

//! A disk-resident B+-tree with fixed-width keys.
//!
//! Keys are `(u64, u64)` pairs — in the index store `(tree_id, gram
//! fingerprint)`, matching the paper's relation `(treeId, pqg, cnt)` — and
//! values are `u32` counts. Leaves are chained for range scans (all grams of
//! one tree = one contiguous key range).
//!
//! Node layout (4 KiB pages):
//!
//! ```text
//! leaf:     [0]=1 | count u16 @1 | next leaf PageId @4 | pad | entries @16
//!           entry: key.hi u64 | key.lo u64 | value u32     (20 bytes, 204/leaf)
//! internal: [0]=2 | count u16 @1 | child0 PageId @4 | pad | entries @16
//!           entry: sep key (16) | child PageId (4)         (20 bytes, 204 keys)
//! ```
//!
//! Separator convention: `sep[i]` is a lower bound for everything in child
//! `i + 1`; descent picks `child = partition_point(sep <= key)`.
//! Deletions remove leaf entries without rebalancing (the index workload
//! deletes only what it re-inserts later; space is reclaimed when a tree is
//! dropped wholesale).

use crate::buffer::{BufferPool, RunWriter};
use crate::page::{PageBuf, PageId};
use crate::pager::{Result, StoreError};
use std::sync::Arc;

/// B+-tree key: `(tree_id, gram)` in the index store.
pub type Key = (u64, u64);

/// What `BTree::descend_bounded` finds: the leaf, the `(internal page,
/// child position)` path down to it, and the exclusive upper bound of the
/// leaf's key range.
type BoundedSeek = (PageId, Vec<(PageId, usize)>, Option<Key>);

const TYPE_LEAF: u8 = 1;
const TYPE_INTERNAL: u8 = 2;
const OFF_COUNT: usize = 1;
const OFF_NEXT: usize = 4; // leaf: next-leaf; internal: child0
const OFF_ENTRIES: usize = 16;
const ENTRY: usize = 20;
/// Maximum entries per node (same arithmetic for both node kinds).
pub const NODE_CAPACITY: usize = (crate::page::PAGE_SIZE - OFF_ENTRIES) / ENTRY;

/// A B+-tree rooted at a page recorded in a pager metadata slot.
pub struct BTree<'p> {
    pool: &'p BufferPool,
    meta_slot: usize,
}

impl<'p> BTree<'p> {
    /// Opens the tree whose root page id lives in `meta_slot`; creates an
    /// empty root leaf if the slot is unset (zero).
    // analyze: txn-exempt(lazy root creation only fires when the relation has never existed — while a file is being created; every later open sees a nonzero root slot and writes nothing)
    pub fn open(pool: &'p BufferPool, meta_slot: usize) -> Result<Self> {
        let tree = BTree { pool, meta_slot };
        if pool.meta(meta_slot) == 0 {
            let root = pool.allocate()?;
            pool.with_page_mut(root, init_leaf)?;
            pool.set_meta(meta_slot, u64::from(root.0) + 1)?;
        }
        Ok(tree)
    }

    /// Opens a tree that must already exist — the read path's entry point.
    /// Unlike [`BTree::open`] this never allocates: every relation is
    /// rooted at create time, so an unset slot on a read path is
    /// corruption, not a first touch. This keeps read-only handles
    /// provably free of page writes.
    pub fn open_existing(pool: &'p BufferPool, meta_slot: usize) -> Result<Self> {
        if pool.meta(meta_slot) == 0 {
            return Err(StoreError::Corrupt(format!(
                "relation rooted at meta slot {meta_slot} does not exist"
            )));
        }
        Ok(BTree { pool, meta_slot })
    }

    /// The slot is checked non-zero at open time, and an out-of-range
    /// value degrades to an unmapped page id that the very next page read
    /// rejects as `Corrupt` — it can never wrap into a live page.
    // analyze: taint-exempt(out-of-range roots saturate to an invalid page id; the pager rejects it)
    fn root(&self) -> PageId {
        let raw = self.pool.meta(self.meta_slot).saturating_sub(1);
        PageId(u32::try_from(raw).unwrap_or(u32::MAX))
    }

    fn set_root(&self, id: PageId) -> Result<()> {
        self.pool.set_meta(self.meta_slot, u64::from(id.0) + 1)
    }

    /// Point lookup.
    pub fn get(&self, key: Key) -> Result<Option<u32>> {
        let leaf = self.descend(key)?.0;
        self.pool.with_page(leaf, |p| {
            let (pos, found) = leaf_search(p, key);
            found.then(|| leaf_value(p, pos))
        })
    }

    /// Inserts or overwrites; returns the previous value if any.
    pub fn insert(&self, key: Key, value: u32) -> Result<Option<u32>> {
        let (leaf, path) = self.descend(key)?;
        enum Outcome {
            Done(Option<u32>),
            Split,
        }
        let outcome = self.pool.with_page_mut(leaf, |p| {
            let (pos, found) = leaf_search(p, key);
            if found {
                let old = leaf_value(p, pos);
                set_leaf_value(p, pos, value);
                return Outcome::Done(Some(old));
            }
            if count(p) < NODE_CAPACITY {
                leaf_insert_at(p, pos, key, value);
                return Outcome::Done(None);
            }
            Outcome::Split
        })?;
        match outcome {
            Outcome::Done(old) => Ok(old),
            Outcome::Split => {
                self.split_leaf_and_insert(leaf, key, value, path)?;
                Ok(None)
            }
        }
    }

    /// Removes a key; returns its value if present.
    pub fn delete(&self, key: Key) -> Result<Option<u32>> {
        let leaf = self.descend(key)?.0;
        self.pool.with_page_mut(leaf, |p| {
            let (pos, found) = leaf_search(p, key);
            found.then(|| {
                let old = leaf_value(p, pos);
                leaf_remove_at(p, pos);
                old
            })
        })
    }

    /// Calls `f(key, value)` for every entry with `lo <= key <= hi`, in key
    /// order, until `f` returns `false`.
    pub fn for_each_range(
        &self,
        lo: Key,
        hi: Key,
        mut f: impl FnMut(Key, u32) -> bool,
    ) -> Result<()> {
        let mut leaf = self.descend(lo)?.0;
        loop {
            // Copy the relevant slice out, then release the pool lock.
            // `past_hi` records that the leaf holds a key beyond the range —
            // without it a narrow range probe would walk the rest of the
            // leaf chain finding nothing.
            let (entries, past_hi, next) = self.pool.with_page(leaf, |p| {
                let n = count(p);
                let (start, _) = leaf_search(p, lo);
                let mut out = Vec::with_capacity(n.saturating_sub(start));
                let mut past_hi = false;
                for i in start..n {
                    let k = leaf_key(p, i);
                    if k > hi {
                        past_hi = true;
                        break;
                    }
                    out.push((k, leaf_value(p, i)));
                }
                (out, past_hi, p.get_page_id(OFF_NEXT))
            })?;
            let exhausted = past_hi || entries.last().map(|&(k, _)| k >= hi).unwrap_or(false);
            for (k, v) in entries {
                if !f(k, v) {
                    return Ok(());
                }
            }
            if exhausted || next == PageId::NONE {
                return Ok(());
            }
            leaf = next;
        }
    }

    /// A forward cursor for ascending seeks (see [`LeafCursor::seek`]).
    pub(crate) fn cursor(self) -> LeafCursor<'p> {
        LeafCursor {
            tree: self,
            leaf: None,
        }
    }

    /// Total number of entries (full scan; used by tests and stats).
    pub fn len(&self) -> Result<u64> {
        let mut n = 0u64;
        self.for_each_range((0, 0), (u64::MAX, u64::MAX), |_, _| {
            n += 1;
            true
        })?;
        Ok(n)
    }

    /// True if the tree holds no entries.
    pub fn is_empty(&self) -> Result<bool> {
        let mut any = false;
        self.for_each_range((0, 0), (u64::MAX, u64::MAX), |_, _| {
            any = true;
            false
        })?;
        Ok(!any)
    }

    /// Walks from the root to the leaf responsible for `key`, returning the
    /// leaf and the descent path `(internal page, child index)`.
    fn descend(&self, key: Key) -> Result<(PageId, Vec<(PageId, usize)>)> {
        let (leaf, path, _) = self.descend_bounded(key)?;
        Ok((leaf, path))
    }

    /// [`BTree::descend`] that additionally reports the exclusive upper
    /// bound of the leaf's key range (the tightest right separator seen on
    /// the way down; `None` = rightmost leaf). Every key `k` with
    /// `key <= k < bound` descends to the same leaf along the same path,
    /// which is what lets [`BTree::apply_batch_sorted`] reuse one seek
    /// across a run of adjacent keys.
    fn descend_bounded(&self, key: Key) -> Result<BoundedSeek> {
        let mut cur = self.root();
        let mut path = Vec::new();
        let mut bound: Option<Key> = None;
        loop {
            if path.len() > 64 {
                return Err(corrupt("descent deeper than 64 levels (cycle?)"));
            }
            let step = self.pool.with_page(cur, |p| match p.get_u8(0) {
                TYPE_LEAF => Ok(None),
                TYPE_INTERNAL => {
                    let idx = internal_child_index(p, key);
                    let upper = (idx < count(p)).then(|| internal_key(p, idx));
                    Ok(Some((idx, internal_child(p, idx), upper)))
                }
                t => Err(crate::pager::StoreError::Corrupt(format!(
                    "descend hit unknown node type {t} at {cur:?}"
                ))),
            })??;
            match step {
                None => return Ok((cur, path, bound)),
                Some((idx, child, upper)) => {
                    if let Some(u) = upper {
                        bound = Some(bound.map_or(u, |b: Key| b.min(u)));
                    }
                    path.push((cur, idx));
                    cur = child;
                }
            }
        }
    }

    /// Applies a **strictly ascending** batch of mutations in one
    /// left-to-right pass: `(key, Some(value))` inserts or overwrites,
    /// `(key, None)` deletes (an absent key is ignored, like
    /// [`BTree::delete`]). The leaf located for one key is reused for every
    /// following key that falls below its separator bound, so a batch over
    /// a contiguous key run costs one descent plus sequential in-leaf edits
    /// instead of a fresh root-to-leaf descent per key.
    ///
    /// Errors if the keys are not strictly ascending (the batch may then be
    /// partially applied; callers run inside a transaction and roll back).
    pub fn apply_batch_sorted<I>(&self, ops: I) -> Result<()>
    where
        I: IntoIterator<Item = (Key, Option<u32>)>,
    {
        enum Outcome {
            Done,
            Split(u32),
        }
        let mut cached: Option<BoundedSeek> = None;
        let mut last: Option<Key> = None;
        for (key, value) in ops {
            if let Some(prev) = last {
                if prev >= key {
                    return Err(corrupt("apply_batch_sorted input not strictly ascending"));
                }
            }
            last = Some(key);
            let (leaf, path, bound) = match cached.take() {
                Some(c) if c.2.is_none_or(|b| key < b) => c,
                _ => self.descend_bounded(key)?,
            };
            let outcome = self.pool.with_page_mut(leaf, |p| {
                let (pos, found) = leaf_search(p, key);
                match value {
                    Some(v) if found => {
                        set_leaf_value(p, pos, v);
                        Outcome::Done
                    }
                    Some(v) if count(p) < NODE_CAPACITY => {
                        leaf_insert_at(p, pos, key, v);
                        Outcome::Done
                    }
                    Some(v) => Outcome::Split(v),
                    None => {
                        if found {
                            leaf_remove_at(p, pos);
                        }
                        Outcome::Done
                    }
                }
            })?;
            match outcome {
                Outcome::Done => cached = Some((leaf, path, bound)),
                Outcome::Split(v) => {
                    // The split rewires parents; the cached path is stale
                    // for every later key, so the next key re-descends.
                    self.split_leaf_and_insert(leaf, key, v, path)?;
                }
            }
        }
        Ok(())
    }

    fn split_leaf_and_insert(
        &self,
        leaf: PageId,
        key: Key,
        value: u32,
        path: Vec<(PageId, usize)>,
    ) -> Result<()> {
        let right = self.pool.allocate()?;
        // Move the upper half out of the left leaf.
        let (moved, old_next) = self.pool.with_page_mut(leaf, |p| {
            let n = count(p);
            let mid = n / 2;
            let mut moved = Vec::with_capacity(n - mid);
            for i in mid..n {
                moved.push((leaf_key(p, i), leaf_value(p, i)));
            }
            let old_next = p.get_page_id(OFF_NEXT);
            set_count(p, mid);
            p.put_page_id(OFF_NEXT, right);
            (moved, old_next)
        })?;
        let Some(&(sep, _)) = moved.first() else {
            return Err(StoreError::Corrupt(
                "leaf split produced an empty upper half".into(),
            ));
        };
        self.pool.with_page_mut(right, |p| {
            init_leaf(p);
            p.put_page_id(OFF_NEXT, old_next);
            for (i, &(k, v)) in moved.iter().enumerate() {
                leaf_write_at(p, i, k, v);
            }
            set_count(p, moved.len());
        })?;
        // Insert the pending entry into whichever side owns it.
        let target = if key < sep { leaf } else { right };
        self.pool.with_page_mut(target, |p| {
            let (pos, found) = leaf_search(p, key);
            debug_assert!(!found, "split re-insert of key {key:?} already present");
            leaf_insert_at(p, pos, key, value);
        })?;
        self.propagate_split(sep, right, path)
    }

    /// Inserts `(sep, right)` into the parents, splitting as needed.
    fn propagate_split(
        &self,
        mut sep: Key,
        mut right: PageId,
        mut path: Vec<(PageId, usize)>,
    ) -> Result<()> {
        while let Some((node, idx)) = path.pop() {
            enum Outcome {
                Done,
                Split {
                    promoted: Key,
                    moved: Vec<(Key, PageId)>,
                    right_child0: PageId,
                },
            }
            let outcome = self.pool.with_page_mut(node, |p| {
                if count(p) < NODE_CAPACITY {
                    internal_insert_at(p, idx, sep, right);
                    return Outcome::Done;
                }
                // Split: promote the middle key.
                let n = count(p);
                let mid = n / 2;
                let promoted = internal_key(p, mid);
                let right_child0 = internal_child(p, mid + 1);
                let moved: Vec<(Key, PageId)> = (mid + 1..n)
                    .map(|i| (internal_key(p, i), internal_child(p, i + 1)))
                    .collect();
                set_count(p, mid);
                Outcome::Split {
                    promoted,
                    moved,
                    right_child0,
                }
            })?;
            match outcome {
                Outcome::Done => return Ok(()),
                Outcome::Split {
                    promoted,
                    moved,
                    right_child0,
                } => {
                    let new_node = self.pool.allocate()?;
                    self.pool.with_page_mut(new_node, |p| {
                        init_internal(p, right_child0);
                        for (i, &(k, c)) in moved.iter().enumerate() {
                            internal_write_at(p, i, k, c);
                        }
                        set_count(p, moved.len());
                    })?;
                    // The pending (sep, right) goes to whichever half owns
                    // its key range. Separators are pairwise distinct (a
                    // subtree's minimum key is never promoted again), so
                    // strict comparison suffices.
                    let target = if sep < promoted { node } else { new_node };
                    self.pool.with_page_mut(target, |p| {
                        let pos = internal_child_index(p, sep);
                        internal_insert_at(p, pos, sep, right);
                    })?;
                    sep = promoted;
                    right = new_node;
                }
            }
        }
        // Root split.
        let old_root = self.root();
        let new_root = self.pool.allocate()?;
        self.pool.with_page_mut(new_root, |p| {
            init_internal(p, old_root);
            internal_write_at(p, 0, sep, right);
            set_count(p, 1);
        })?;
        self.set_root(new_root)
    }
}

/// A pinned leaf whose header passed [`pin_leaf`]'s checks.
struct Leaf {
    page: Arc<PageBuf>,
    n: usize,
}

impl Leaf {
    /// True when the leaf holds a key at or after `lo`.
    fn reaches(&self, lo: Key) -> bool {
        self.n > 0 && leaf_key(&self.page, self.n - 1) >= lo
    }
}

/// The entry count of a leaf page, or `Corrupt` when the page is not a
/// leaf or its header claims more entries than a page holds.
// analyze: validates(count)
fn leaf_entries(p: &PageBuf) -> Result<usize> {
    let n = count(p);
    if p.get_u8(0) != TYPE_LEAF || n > NODE_CAPACITY {
        return Err(corrupt("leaf chain reaches a page that is not a leaf"));
    }
    Ok(n)
}

/// Pins leaf `id` so a cursor can read its entries in place.
// analyze: validates(count)
fn pin_leaf(pool: &BufferPool, id: PageId) -> Result<Leaf> {
    let page = pool.pin(id)?.page;
    let n = leaf_entries(&page)?;
    Ok(Leaf { page, n })
}

/// A forward cursor over the leaf chain. A caller visiting ascending keys
/// (the lookup's sorted query grams) stays on the current leaf, or hops
/// to its right sibling, while the next key is within reach, and
/// re-descends from the root only when it is not — instead of one
/// root-to-leaf walk and one copied-out leaf per key.
pub(crate) struct LeafCursor<'p> {
    tree: BTree<'p>,
    leaf: Option<Leaf>,
}

impl LeafCursor<'_> {
    /// Calls `f(key, value)` for every entry with `key >= lo`, ascending,
    /// until `f` returns `false`. Forward-only: `lo` must be greater than
    /// every key `f` accepted (returned `true` for) in earlier calls.
    pub(crate) fn seek(&mut self, lo: Key, mut f: impl FnMut(Key, u32) -> bool) -> Result<()> {
        let tree = &self.tree;
        let near = match self.leaf.take() {
            Some(cur) if cur.reaches(lo) => Some(cur),
            Some(cur) => {
                // Every key up to the end of `cur` is below `lo`.
                let next = cur.page.get_page_id(OFF_NEXT);
                if next == PageId::NONE {
                    self.leaf = Some(cur);
                    return Ok(());
                }
                Some(pin_leaf(tree.pool, next)?).filter(|sibling| sibling.reaches(lo))
            }
            None => None,
        };
        let mut leaf = match near {
            Some(leaf) => leaf,
            None => pin_leaf(tree.pool, tree.descend(lo)?.0)?,
        };
        loop {
            let (start, _) = leaf_search(&leaf.page, lo);
            for i in start..leaf.n {
                if !f(leaf_key(&leaf.page, i), leaf_value(&leaf.page, i)) {
                    self.leaf = Some(leaf);
                    return Ok(());
                }
            }
            let next = leaf.page.get_page_id(OFF_NEXT);
            if next == PageId::NONE {
                self.leaf = Some(leaf);
                return Ok(());
            }
            leaf = pin_leaf(tree.pool, next)?;
        }
    }
}

// ---- pure node views (safe inside pool closures) ---------------------------

fn init_leaf(p: &mut PageBuf) {
    p.as_bytes_mut().fill(0);
    p.put_u8(0, TYPE_LEAF);
    p.put_page_id(OFF_NEXT, PageId::NONE);
}

fn init_internal(p: &mut PageBuf, child0: PageId) {
    p.as_bytes_mut().fill(0);
    p.put_u8(0, TYPE_INTERNAL);
    p.put_page_id(OFF_NEXT, child0);
}

/// Entry count from the node header, widened to `usize` for indexing.
fn count(p: &PageBuf) -> usize {
    usize::from(p.get_u16(OFF_COUNT))
}

/// Stores the entry count. `n` is bounded by [`NODE_CAPACITY`] (far below
/// `u16::MAX`); the saturating conversion keeps an impossible overflow from
/// silently wrapping into a small count.
fn set_count(p: &mut PageBuf, n: usize) {
    debug_assert!(n <= NODE_CAPACITY, "set_count beyond capacity ({n})");
    p.put_u16(OFF_COUNT, u16::try_from(n).unwrap_or(u16::MAX));
}

fn entry_off(i: usize) -> usize {
    OFF_ENTRIES + i * ENTRY
}

fn leaf_key(p: &PageBuf, i: usize) -> Key {
    (p.get_u64(entry_off(i)), p.get_u64(entry_off(i) + 8))
}

fn leaf_value(p: &PageBuf, i: usize) -> u32 {
    p.get_u32(entry_off(i) + 16)
}

fn set_leaf_value(p: &mut PageBuf, i: usize, v: u32) {
    p.put_u32(entry_off(i) + 16, v);
}

fn leaf_write_at(p: &mut PageBuf, i: usize, k: Key, v: u32) {
    p.put_u64(entry_off(i), k.0);
    p.put_u64(entry_off(i) + 8, k.1);
    p.put_u32(entry_off(i) + 16, v);
}

/// Binary search; returns `(position, exact match)`.
fn leaf_search(p: &PageBuf, key: Key) -> (usize, bool) {
    let n = count(p);
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        match leaf_key(p, mid).cmp(&key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return (mid, true),
        }
    }
    (lo, false)
}

fn leaf_insert_at(p: &mut PageBuf, pos: usize, key: Key, value: u32) {
    let n = count(p);
    debug_assert!(
        n < NODE_CAPACITY,
        "leaf_insert_at on a full node ({n} entries)"
    );
    p.shift(entry_off(pos), entry_off(pos + 1), (n - pos) * ENTRY);
    leaf_write_at(p, pos, key, value);
    set_count(p, n + 1);
}

fn leaf_remove_at(p: &mut PageBuf, pos: usize) {
    let n = count(p);
    p.shift(entry_off(pos + 1), entry_off(pos), (n - pos - 1) * ENTRY);
    set_count(p, n - 1);
}

fn internal_key(p: &PageBuf, i: usize) -> Key {
    (p.get_u64(entry_off(i)), p.get_u64(entry_off(i) + 8))
}

/// Child `i` (`0 ..= count`): child 0 lives in the header slot.
fn internal_child(p: &PageBuf, i: usize) -> PageId {
    if i == 0 {
        p.get_page_id(OFF_NEXT)
    } else {
        p.get_page_id(entry_off(i - 1) + 16)
    }
}

fn internal_write_at(p: &mut PageBuf, i: usize, k: Key, child: PageId) {
    p.put_u64(entry_off(i), k.0);
    p.put_u64(entry_off(i) + 8, k.1);
    p.put_page_id(entry_off(i) + 16, child);
}

/// Index of the child to descend into for `key`:
/// `partition_point(sep <= key)`.
fn internal_child_index(p: &PageBuf, key: Key) -> usize {
    let n = count(p);
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if internal_key(p, mid) <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

fn internal_insert_at(p: &mut PageBuf, idx: usize, sep: Key, right: PageId) {
    let n = count(p);
    debug_assert!(
        n < NODE_CAPACITY,
        "internal_insert_at on a full node ({n} entries)"
    );
    p.shift(entry_off(idx), entry_off(idx + 1), (n - idx) * ENTRY);
    internal_write_at(p, idx, sep, right);
    set_count(p, n + 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pqgram-btree-{}", std::process::id()));
        // Idempotent; a failure here surfaces at Pager::create below.
        std::fs::create_dir_all(&dir).ok();
        let p = dir.join(name);
        std::fs::remove_file(&p).ok();
        let mut j = p.as_os_str().to_owned();
        j.push("-journal");
        std::fs::remove_file(PathBuf::from(j)).ok();
        p
    }

    fn pool(name: &str) -> Result<BufferPool> {
        Ok(BufferPool::new(Pager::create(&tmp(name))?, 64))
    }

    #[test]
    fn insert_get_overwrite() -> Result<()> {
        let pool = pool("basic.db")?;
        let tree = BTree::open(&pool, 0)?;
        assert_eq!(tree.get((1, 2))?, None);
        assert_eq!(tree.insert((1, 2), 10)?, None);
        assert_eq!(tree.get((1, 2))?, Some(10));
        assert_eq!(tree.insert((1, 2), 11)?, Some(10));
        assert_eq!(tree.get((1, 2))?, Some(11));
        assert_eq!(tree.len()?, 1);
        Ok(())
    }

    #[test]
    fn many_keys_random_order() -> Result<()> {
        let pool = pool("many.db")?;
        let tree = BTree::open(&pool, 0)?;
        let mut keys: Vec<Key> = (0..20_000u64).map(|i| (i % 7, i * 31 % 65_536)).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut shuffled = keys.clone();
        shuffled.shuffle(&mut StdRng::seed_from_u64(5));
        for (i, &k) in shuffled.iter().enumerate() {
            tree.insert(k, i as u32)?;
        }
        assert_eq!(tree.len()?, keys.len() as u64);
        for &k in keys.iter().step_by(97) {
            assert!(tree.get(k)?.is_some(), "missing {k:?}");
        }
        // Full scan returns keys in sorted order.
        let mut scanned = Vec::new();
        tree.for_each_range((0, 0), (u64::MAX, u64::MAX), |k, _| {
            scanned.push(k);
            true
        })?;
        assert_eq!(scanned, keys);
        Ok(())
    }

    #[test]
    fn range_scan_per_tree_id() -> Result<()> {
        let pool = pool("range.db")?;
        let tree = BTree::open(&pool, 0)?;
        for t in 0..5u64 {
            for g in 0..300u64 {
                tree.insert((t, g * 7), (t * 1000 + g) as u32)?;
            }
        }
        let mut seen = Vec::new();
        tree.for_each_range((2, 0), (2, u64::MAX), |k, v| {
            assert_eq!(k.0, 2);
            seen.push((k.1, v));
            true
        })?;
        assert_eq!(seen.len(), 300);
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0));
        Ok(())
    }

    #[test]
    fn narrow_range_probes_stop_at_the_bound() -> Result<()> {
        // Multi-leaf tree of even grams; probes whose upper bound falls
        // mid-leaf (odd / absent keys) must deliver exactly the in-range
        // slice — a regression guard for the `past_hi` cut-off, without
        // which each probe walked the remaining leaf chain.
        let pool = pool("narrow.db")?;
        let tree = BTree::open(&pool, 0)?;
        for g in 0..2_000u64 {
            tree.insert((1, g * 2), g as u32)?;
        }
        let cases: [(u64, u64, Vec<u64>); 5] = [
            (100, 100, vec![100]),                                   // single present key
            (101, 101, vec![]),                                      // single absent key
            (99, 105, vec![100, 102, 104]),                          // window over absences
            (0, 3, vec![0, 2]),                                      // prefix window
            (3_990, 5_000, vec![3_990, 3_992, 3_994, 3_996, 3_998]), // tail
        ];
        for (lo, hi, expect) in cases {
            let mut seen = Vec::new();
            tree.for_each_range((1, lo), (1, hi), |k, _| {
                seen.push(k.1);
                true
            })?;
            assert_eq!(seen, expect, "probe [{lo}, {hi}]");
        }
        Ok(())
    }

    #[test]
    fn early_termination() -> Result<()> {
        let pool = pool("early.db")?;
        let tree = BTree::open(&pool, 0)?;
        for g in 0..1000u64 {
            tree.insert((1, g), g as u32)?;
        }
        let mut n = 0;
        tree.for_each_range((1, 0), (1, u64::MAX), |_, _| {
            n += 1;
            n < 10
        })?;
        assert_eq!(n, 10);
        Ok(())
    }

    #[test]
    fn delete_then_reinsert() -> Result<()> {
        let pool = pool("delete.db")?;
        let tree = BTree::open(&pool, 0)?;
        for g in 0..5_000u64 {
            tree.insert((0, g), g as u32)?;
        }
        for g in (0..5_000u64).step_by(2) {
            assert_eq!(tree.delete((0, g))?, Some(g as u32));
        }
        assert_eq!(tree.delete((0, 0))?, None);
        assert_eq!(tree.len()?, 2_500);
        for g in 0..5_000u64 {
            let expect = (g % 2 == 1).then_some(g as u32);
            assert_eq!(tree.get((0, g))?, expect, "key {g}");
        }
        for g in (0..5_000u64).step_by(2) {
            tree.insert((0, g), 1)?;
        }
        assert_eq!(tree.len()?, 5_000);
        Ok(())
    }

    #[test]
    fn persists_across_reopen() -> Result<()> {
        let path = tmp("persist.db");
        {
            let pool = BufferPool::new(Pager::create(&path)?, 64);
            let tree = BTree::open(&pool, 0)?;
            for g in 0..3_000u64 {
                tree.insert((9, g), (g * 2) as u32)?;
            }
            pool.flush()?;
        }
        let pool = BufferPool::new(Pager::open(&path)?, 64);
        let tree = BTree::open(&pool, 0)?;
        assert_eq!(tree.len()?, 3_000);
        assert_eq!(tree.get((9, 1234))?, Some(2468));
        Ok(())
    }

    #[test]
    fn descending_and_ascending_inserts_split_correctly() -> Result<()> {
        for reverse in [false, true] {
            let pool = pool(if reverse { "desc.db" } else { "asc.db" })?;
            let tree = BTree::open(&pool, 0)?;
            let keys: Vec<u64> = if reverse {
                (0..10_000).rev().collect()
            } else {
                (0..10_000).collect()
            };
            for &g in &keys {
                tree.insert((0, g), g as u32)?;
            }
            assert_eq!(tree.len()?, 10_000);
            assert_eq!(tree.get((0, 9_999))?, Some(9_999));
            assert_eq!(tree.get((0, 0))?, Some(0));
        }
        Ok(())
    }

    #[test]
    fn two_trees_in_one_pool() -> Result<()> {
        let pool = pool("two.db")?;
        let a = BTree::open(&pool, 0)?;
        let b = BTree::open(&pool, 1)?;
        for g in 0..500u64 {
            a.insert((0, g), 1)?;
            b.insert((0, g), 2)?;
        }
        assert_eq!(a.get((0, 100))?, Some(1));
        assert_eq!(b.get((0, 100))?, Some(2));
        assert_eq!(a.len()?, 500);
        assert_eq!(b.len()?, 500);
        Ok(())
    }
}

impl BTree<'_> {
    /// Verifies the structural invariants of the whole tree: node types,
    /// in-node key ordering, separator bounds, node occupancy (no node over
    /// [`NODE_CAPACITY`], no empty internal node), page aliasing (every
    /// page reachable exactly once), leaf-chain order and reachability.
    /// Returns a description of the first violation.
    ///
    /// Every page of the tree (root, internals, leaves) via a DFS that
    /// only reads node headers — no entry validation, no key order checks.
    fn all_pages(&self) -> Result<Vec<PageId>> {
        let root = self.root();
        let mut pages = vec![root];
        let mut stack = vec![root];
        let limit = u64::from(self.pool.page_count()).saturating_add(1);
        while let Some(id) = stack.pop() {
            let children = self.pool.with_page(id, |p| match p.get_u8(0) {
                TYPE_INTERNAL => {
                    let n = count(p);
                    Ok((0..=n).map(|i| internal_child(p, i)).collect::<Vec<_>>())
                }
                TYPE_LEAF => Ok(Vec::new()),
                t => Err(corrupt(&format!("page walk hit unknown node type {t}"))),
            })??;
            for c in children {
                pages.push(c);
                stack.push(c);
            }
            if u64::try_from(pages.len()).unwrap_or(u64::MAX) > limit {
                return Err(corrupt("tree page walk exceeds the file page count"));
            }
        }
        Ok(pages)
    }

    /// Number of 4 KiB pages the tree occupies on disk.
    pub(crate) fn page_span(&self) -> Result<u64> {
        Ok(u64::try_from(self.all_pages()?.len()).unwrap_or(u64::MAX))
    }

    /// Intended for tests, recovery checks and the CLI's `stats --verify`.
    pub fn verify(&self) -> Result<BTreeCheck> {
        let mut check = BTreeCheck::default();
        let mut leftmost_leaf = PageId::NONE;
        let mut seen = std::collections::BTreeSet::new();
        self.verify_node(
            self.root(),
            None,
            None,
            0,
            &mut check,
            &mut leftmost_leaf,
            &mut seen,
        )?;
        // Walk the leaf chain and confirm global key order and entry count.
        let mut chained = 0u64;
        let mut prev: Option<Key> = None;
        let mut leaf = leftmost_leaf;
        while leaf != PageId::NONE {
            let (entries, next) = self.pool.with_page(leaf, |p| {
                if p.get_u8(0) != TYPE_LEAF {
                    return (None, PageId::NONE);
                }
                let n = count(p);
                let keys: Vec<Key> = (0..n).map(|i| leaf_key(p, i)).collect();
                (Some(keys), p.get_page_id(OFF_NEXT))
            })?;
            let Some(keys) = entries else {
                return Err(corrupt("leaf chain reaches a non-leaf page"));
            };
            for k in keys {
                if let Some(p) = prev {
                    if p >= k {
                        return Err(corrupt("leaf chain keys out of order"));
                    }
                }
                prev = Some(k);
                chained += 1;
            }
            leaf = next;
        }
        if chained != check.entries {
            return Err(corrupt("leaf chain entry count disagrees with tree walk"));
        }
        Ok(check)
    }

    #[allow(clippy::too_many_arguments)]
    fn verify_node(
        &self,
        page: PageId,
        lower: Option<Key>,
        upper: Option<Key>,
        depth: usize,
        check: &mut BTreeCheck,
        leftmost_leaf: &mut PageId,
        seen: &mut std::collections::BTreeSet<u32>,
    ) -> Result<()> {
        if depth > 64 {
            return Err(corrupt("tree too deep (cycle?)"));
        }
        if !seen.insert(page.0) {
            return Err(corrupt("page reachable twice (aliased child pointer)"));
        }
        enum Node {
            Leaf(Vec<Key>),
            Internal(Vec<Key>, Vec<PageId>),
            OverCapacity(&'static str),
        }
        // Check the stored count *before* walking entries: an over-capacity
        // count would index past the page end.
        let node = self.pool.with_page(page, |p| match p.get_u8(0) {
            TYPE_LEAF => {
                let n = count(p);
                if n > NODE_CAPACITY {
                    return Some(Node::OverCapacity("leaf over capacity"));
                }
                Some(Node::Leaf((0..n).map(|i| leaf_key(p, i)).collect()))
            }
            TYPE_INTERNAL => {
                let n = count(p);
                if n > NODE_CAPACITY {
                    return Some(Node::OverCapacity("internal node over capacity"));
                }
                let keys = (0..n).map(|i| internal_key(p, i)).collect();
                let children = (0..=n).map(|i| internal_child(p, i)).collect();
                Some(Node::Internal(keys, children))
            }
            _ => None,
        })?;
        match node {
            None => Err(corrupt("unknown node type")),
            Some(Node::OverCapacity(msg)) => Err(corrupt(msg)),
            Some(Node::Leaf(keys)) => {
                check.leaves += 1;
                check.entries += keys.len() as u64;
                check.depth = check.depth.max(depth);
                if *leftmost_leaf == PageId::NONE {
                    *leftmost_leaf = page;
                }
                for (a, b) in keys.iter().zip(keys.iter().skip(1)) {
                    if a >= b {
                        return Err(corrupt("leaf keys out of order"));
                    }
                }
                if let (Some(lo), Some(first)) = (lower, keys.first()) {
                    if *first < lo {
                        return Err(corrupt("leaf key below separator bound"));
                    }
                }
                if let (Some(hi), Some(last)) = (upper, keys.last()) {
                    if *last >= hi {
                        return Err(corrupt("leaf key at or above separator bound"));
                    }
                }
                Ok(())
            }
            Some(Node::Internal(keys, children)) => {
                if keys.is_empty() {
                    return Err(corrupt("internal node without separators"));
                }
                check.internals += 1;
                for (a, b) in keys.iter().zip(keys.iter().skip(1)) {
                    if a >= b {
                        return Err(corrupt("separators out of order"));
                    }
                }
                for (i, &child) in children.iter().enumerate() {
                    let lo = if i == 0 {
                        lower
                    } else {
                        keys.get(i - 1).copied()
                    };
                    let hi = if i == keys.len() {
                        upper
                    } else {
                        keys.get(i).copied()
                    };
                    self.verify_node(child, lo, hi, depth + 1, check, leftmost_leaf, seen)?;
                }
                Ok(())
            }
        }
    }
}

fn corrupt(msg: &str) -> crate::pager::StoreError {
    crate::pager::StoreError::Corrupt(msg.into())
}

/// Result of [`BTree::verify`]: shape statistics of a healthy tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BTreeCheck {
    /// Number of leaf pages.
    pub leaves: u64,
    /// Number of internal pages.
    pub internals: u64,
    /// Total entries.
    pub entries: u64,
    /// Leaf depth (root = 0).
    pub depth: usize,
}

#[cfg(test)]
mod verify_tests {
    use super::*;
    use crate::buffer::BufferPool;
    use crate::pager::Pager;

    fn pool(name: &str) -> Result<BufferPool> {
        let dir = std::env::temp_dir().join(format!("pqgram-bverify-{}", std::process::id()));
        std::fs::create_dir_all(&dir).ok();
        let p = dir.join(name);
        std::fs::remove_file(&p).ok();
        let mut j = p.as_os_str().to_owned();
        j.push("-journal");
        std::fs::remove_file(std::path::PathBuf::from(j)).ok();
        Ok(BufferPool::new(Pager::create(&p)?, 128))
    }

    #[test]
    fn verify_healthy_tree() -> Result<()> {
        let pool = pool("healthy.db")?;
        let tree = BTree::open(&pool, 0)?;
        for g in 0..30_000u64 {
            tree.insert((g % 5, g.wrapping_mul(0x9e37_79b9)), 1)?;
        }
        let check = tree.verify()?;
        assert_eq!(check.entries, 30_000);
        assert!(check.leaves > 100);
        assert!(check.internals >= 1);
        assert!(check.depth >= 1);
        Ok(())
    }

    #[test]
    fn verify_after_deletions() -> Result<()> {
        let pool = pool("deleted.db")?;
        let tree = BTree::open(&pool, 0)?;
        for g in 0..10_000u64 {
            tree.insert((0, g), 1)?;
        }
        for g in (0..10_000u64).step_by(3) {
            tree.delete((0, g))?;
        }
        let check = tree.verify()?;
        assert_eq!(check.entries, 10_000 - 10_000u64.div_ceil(3));
        Ok(())
    }

    #[test]
    fn verify_detects_corruption() -> Result<()> {
        let pool = pool("corrupt.db")?;
        let tree = BTree::open(&pool, 0)?;
        for g in 0..5_000u64 {
            tree.insert((0, g), 1)?;
        }
        // Corrupt one leaf: swap two keys through the raw page.
        let leaf = {
            // Find any leaf by descending.
            let mut page = PageId((pool.meta(0) - 1) as u32);
            loop {
                let next = pool.with_page(page, |p| {
                    (p.get_u8(0) == TYPE_INTERNAL).then(|| internal_child(p, 0))
                })?;
                match next {
                    Some(child) => page = child,
                    None => break page,
                }
            }
        };
        pool.with_page_mut(leaf, |p| {
            let k0 = leaf_key(p, 0);
            let k1 = leaf_key(p, 1);
            let v0 = leaf_value(p, 0);
            let v1 = leaf_value(p, 1);
            leaf_write_at(p, 0, k1, v1);
            leaf_write_at(p, 1, k0, v0);
        })?;
        match tree.verify() {
            Err(crate::pager::StoreError::Corrupt(m)) => {
                assert!(m.contains("leaf keys out of order"), "{m}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        Ok(())
    }

    #[test]
    fn verify_reports_aliased_child_pointer() -> Result<()> {
        let pool = pool("aliased.db")?;
        let tree = BTree::open(&pool, 0)?;
        for g in 0..5_000u64 {
            tree.insert((0, g), 1)?;
        }
        // Make the root's two leftmost children the same page.
        let root = tree.root();
        let (is_internal, c0) = pool.with_page(root, |p| {
            (p.get_u8(0) == TYPE_INTERNAL, internal_child(p, 0))
        })?;
        assert!(is_internal, "5k inserts must split the root");
        pool.with_page_mut(root, |p| {
            let k = internal_key(p, 0);
            internal_write_at(p, 0, k, c0);
        })?;
        match tree.verify() {
            Err(crate::pager::StoreError::Corrupt(m)) => {
                assert!(m.contains("page reachable twice"), "{m}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        Ok(())
    }

    #[test]
    fn verify_reports_over_capacity_node() -> Result<()> {
        let pool = pool("overcap.db")?;
        let tree = BTree::open(&pool, 0)?;
        tree.insert((0, 1), 1)?;
        // Forge an impossible entry count in the root leaf header.
        pool.with_page_mut(tree.root(), |p| {
            p.put_u16(
                OFF_COUNT,
                u16::try_from(NODE_CAPACITY + 1).unwrap_or(u16::MAX),
            );
        })?;
        match tree.verify() {
            Err(crate::pager::StoreError::Corrupt(m)) => {
                assert!(m.contains("leaf over capacity"), "{m}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        Ok(())
    }
}

impl<'p> BTree<'p> {
    /// Bulk-loads a **sorted, deduplicated** key/value stream into an empty
    /// tree, building leaves left to right and internal levels bottom-up —
    /// `O(n)` page writes with ~90%-full leaves, versus `O(n log n)` descent
    /// costs and half-full splits for repeated inserts.
    ///
    /// The node count follows from the row count, so every page but the
    /// existing root leaf comes from one `BufferPool::allocate_run`; each
    /// node is filled in a private buffer and handed over once, finished
    /// (the root leaf to its cached frame, the rest through a
    /// `RunWriter`). An input whose `size_hint` is not exact is collected
    /// first.
    ///
    /// Errors if the tree is not empty or the input is not strictly
    /// ascending.
    pub fn bulk_load<I>(&self, entries: I) -> Result<u64>
    where
        I: IntoIterator<Item = (Key, u32)>,
    {
        if !self.is_empty()? {
            return Err(corrupt("bulk_load requires an empty tree"));
        }
        let entries = entries.into_iter();
        match entries.size_hint() {
            (lo, Some(hi)) if lo == hi => self.bulk_load_sized(lo, entries),
            _ => {
                let rows: Vec<(Key, u32)> = entries.collect();
                self.bulk_load_sized(rows.len(), rows.into_iter())
            }
        }
    }

    /// [`BTree::bulk_load`] of exactly `n` entries.
    fn bulk_load_sized(&self, n: usize, entries: impl Iterator<Item = (Key, u32)>) -> Result<u64> {
        // Fill factor: leave some slack for future inserts.
        let leaf_cap = NODE_CAPACITY * 9 / 10;
        let fan = leaf_cap + 1;
        let leaves = n.div_ceil(leaf_cap);
        // Nodes above the leaves: every level until one node remains.
        let (mut internal, mut width) = (0usize, leaves);
        while width > 1 {
            width = width.div_ceil(fan);
            internal += width;
        }
        // Leaves first (the first one is the existing root leaf), then the
        // internal levels bottom-up.
        let root_leaf = self.root();
        let ids = self
            .pool
            .allocate_run(leaves.saturating_sub(1) + internal)?;
        let mut fresh = ids.iter().copied();
        let mut next_id = || {
            fresh
                .next()
                .ok_or_else(|| corrupt("bulk_load ran out of pages"))
        };
        let mut out = RunWriter::new(self.pool);
        let mut page = PageBuf::zeroed();

        // (first key, page) of every leaf, for the upper levels.
        let mut level: Vec<(Key, PageId)> = Vec::with_capacity(leaves);
        let mut last_key: Option<Key> = None;
        let mut cur_leaf = root_leaf;
        let (mut fill, mut total) = (0usize, 0usize);
        for (key, value) in entries {
            if last_key.is_some_and(|prev| prev >= key) {
                return Err(corrupt("bulk_load input not strictly ascending"));
            }
            last_key = Some(key);
            if total == n {
                return Err(corrupt("bulk_load input longer than its size hint"));
            }
            if fill == 0 {
                init_leaf(&mut page);
                level.push((key, cur_leaf));
            }
            leaf_write_at(&mut page, fill, key, value);
            fill += 1;
            total += 1;
            if fill == leaf_cap || total == n {
                // Seal this leaf and hand it over.
                set_count(&mut page, fill);
                let sealed = cur_leaf;
                if total < n {
                    cur_leaf = next_id()?;
                    page.put_page_id(OFF_NEXT, cur_leaf);
                }
                if sealed == root_leaf {
                    self.pool
                        .with_page_mut(sealed, |p| *p.as_bytes_mut() = *page.as_bytes())?;
                } else {
                    out.push(sealed, &page)?;
                }
                fill = 0;
            }
        }
        if total != n {
            return Err(corrupt("bulk_load input shorter than its size hint"));
        }

        // Build internal levels until one node remains.
        let mut current = level;
        while current.len() > 1 {
            let mut next_level: Vec<(Key, PageId)> =
                Vec::with_capacity(current.len().div_ceil(fan));
            let mut rest = current.as_slice();
            while !rest.is_empty() {
                let Some((group, tail)) = rest.split_at_checked(group_len(rest.len(), fan)) else {
                    return Err(corrupt("bulk_load level grouping out of range"));
                };
                let Some(&(group_key, group_child)) = group.first() else {
                    return Err(corrupt("bulk_load built an empty internal group"));
                };
                init_internal(&mut page, group_child);
                for (j, &(sep, child)) in group.iter().skip(1).enumerate() {
                    internal_write_at(&mut page, j, sep, child);
                }
                set_count(&mut page, group.len() - 1);
                let node = next_id()?;
                out.push(node, &page)?;
                next_level.push((group_key, node));
                rest = tail;
            }
            current = next_level;
        }
        out.end_run()?;
        // Empty input: the empty root leaf stands.
        if let Some(&(_, root)) = current.first() {
            self.set_root(root)?;
        }
        Ok(u64::try_from(total).unwrap_or(u64::MAX))
    }
}

/// How many of the `left` remaining nodes of a level the next parent
/// takes, at most `fan` per parent. Groups are full except that a lone
/// trailing node is avoided by leaving it a sibling: an internal node
/// with one child has no separator, which [`BTree::verify`] rejects.
fn group_len(left: usize, fan: usize) -> usize {
    if left == fan + 1 {
        fan - 1
    } else {
        fan.min(left)
    }
}

#[cfg(test)]
mod bulk_tests {
    use super::*;
    use crate::buffer::BufferPool;
    use crate::pager::Pager;

    fn pool(name: &str) -> Result<BufferPool> {
        let dir = std::env::temp_dir().join(format!("pqgram-bulk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).ok();
        let p = dir.join(name);
        std::fs::remove_file(&p).ok();
        let mut j = p.as_os_str().to_owned();
        j.push("-journal");
        std::fs::remove_file(std::path::PathBuf::from(j)).ok();
        Ok(BufferPool::new(Pager::create(&p)?, 256))
    }

    #[test]
    fn bulk_load_then_read_everything() -> Result<()> {
        let pool = pool("basic.db")?;
        let tree = BTree::open(&pool, 0)?;
        let entries: Vec<(Key, u32)> = (0..50_000u64).map(|g| ((g % 7, g), g as u32)).collect();
        let mut sorted = entries.clone();
        sorted.sort_unstable();
        let n = tree.bulk_load(sorted.iter().copied())?;
        assert_eq!(n, 50_000);
        tree.verify()?;
        assert_eq!(tree.len()?, 50_000);
        for &(k, v) in sorted.iter().step_by(997) {
            assert_eq!(tree.get(k)?, Some(v));
        }
        // Inserts after bulk load still work (slack in leaves).
        tree.insert((99, 1), 7)?;
        assert_eq!(tree.get((99, 1))?, Some(7));
        tree.verify()?;
        Ok(())
    }

    #[test]
    fn bulk_load_small_inputs() -> Result<()> {
        for n in [0u64, 1, 2, 200] {
            let p = pool(&format!("small{n}.db"))?;
            let tree = BTree::open(&p, 0)?;
            tree.bulk_load((0..n).map(|g| ((0, g), 1)))?;
            assert_eq!(tree.len()?, n);
            tree.verify()?;
        }
        Ok(())
    }

    /// Every level size splits into parents of 2..=fan children.
    #[test]
    fn level_grouping_never_leaves_a_lone_child() {
        for fan in [3usize, 4, 7, 185] {
            for n in 2..=3 * fan * fan + 2 {
                let (mut left, mut groups) = (n, 0usize);
                while left > 0 {
                    let take = group_len(left, fan);
                    assert!(
                        (2..=fan).contains(&take),
                        "fan {fan} n {n}: group of {take}"
                    );
                    left -= take;
                    groups += 1;
                }
                assert_eq!(groups, n.div_ceil(fan), "fan {fan} n {n}: node count moved");
            }
        }
    }

    /// One leaf more than a full internal node: the leaf level holds
    /// `fan + 1` nodes, which used to end in a one-child internal node
    /// ("internal node without separators").
    fn lone_child_case(name: &str, leaves: u64) -> Result<()> {
        let p = pool(name)?;
        let tree = BTree::open(&p, 0)?;
        let leaf_cap = u64::try_from(NODE_CAPACITY * 9 / 10).unwrap_or(u64::MAX);
        let n = (leaves - 1) * leaf_cap + 1;
        assert_eq!(
            tree.bulk_load((0..n).map(|g| ((g / 1000, g % 1000), 1)))?,
            n
        );
        let check = tree.verify()?;
        assert_eq!((check.entries, check.leaves), (n, leaves));
        let mut next = 0u64;
        tree.for_each_range((0, 0), (u64::MAX, u64::MAX), |k, _| {
            assert_eq!(k, (next / 1000, next % 1000));
            next += 1;
            true
        })?;
        assert_eq!(next, n, "a full scan returns the input");
        Ok(())
    }

    #[test]
    fn bulk_load_one_leaf_past_a_full_internal_node() -> Result<()> {
        let fan = u64::try_from(NODE_CAPACITY * 9 / 10 + 1).unwrap_or(u64::MAX);
        lone_child_case("lone1.db", fan + 1)?;
        lone_child_case("lone1k2.db", 2 * fan + 1)
    }

    /// The same one level up (`fan² + 1` leaves put `fan + 1` nodes on the
    /// first internal level): 6.3 M rows and a 140 MB file, so opt-in.
    #[test]
    #[ignore = "bulk-loads 6.3 M rows; run with --ignored"]
    fn bulk_load_one_node_past_a_full_second_level() -> Result<()> {
        let fan = u64::try_from(NODE_CAPACITY * 9 / 10 + 1).unwrap_or(u64::MAX);
        lone_child_case("lone2.db", fan * fan + 1)
    }

    #[test]
    fn bulk_load_rejects_unsorted_and_nonempty() -> Result<()> {
        let p = pool("reject.db")?;
        let tree = BTree::open(&p, 0)?;
        assert!(tree.bulk_load([((0, 2), 1), ((0, 1), 1)]).is_err());
        // After the failed load the tree may hold a prefix; re-check the
        // empty-precondition path with a fresh tree.
        let pool2 = pool("reject2.db")?;
        let tree2 = BTree::open(&pool2, 0)?;
        tree2.insert((0, 0), 1)?;
        assert!(tree2.bulk_load([((0, 1), 1)]).is_err());
        Ok(())
    }

    #[test]
    fn batch_matches_individual_ops() -> Result<()> {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for round in 0..4 {
            let pool_a = pool(&format!("batch-a{round}.db"))?;
            let a = BTree::open(&pool_a, 0)?;
            let pool_b = pool(&format!("batch-b{round}.db"))?;
            let b = BTree::open(&pool_b, 0)?;
            // Seed both trees with the same base content.
            let base: Vec<(Key, u32)> = (0..3_000u64).map(|g| ((g % 4, g * 3), 1)).collect();
            let mut sorted = base.clone();
            sorted.sort_unstable();
            a.bulk_load(sorted.iter().copied())?;
            b.bulk_load(sorted.iter().copied())?;
            // A mixed batch: overwrites, fresh inserts, deletes of present
            // and absent keys.
            let mut ops: Vec<(Key, Option<u32>)> = Vec::new();
            for g in 0..4_000u64 {
                let key = (g % 4, g * 3 + u64::from(rng.random_range(0u32..2)));
                match rng.random_range(0u32..3) {
                    0 => ops.push((key, Some(g as u32))),
                    1 => ops.push((key, None)),
                    _ => {}
                }
            }
            ops.sort_unstable_by_key(|&(k, _)| k);
            ops.dedup_by_key(|&mut (k, _)| k);
            a.apply_batch_sorted(ops.iter().copied())?;
            for &(k, v) in &ops {
                match v {
                    Some(v) => {
                        b.insert(k, v)?;
                    }
                    None => {
                        b.delete(k)?;
                    }
                }
            }
            let dump = |t: &BTree| -> Result<Vec<(Key, u32)>> {
                let mut out = Vec::new();
                t.for_each_range((0, 0), (u64::MAX, u64::MAX), |k, val| {
                    out.push((k, val));
                    true
                })?;
                Ok(out)
            };
            assert_eq!(dump(&a)?, dump(&b)?, "round {round}");
            a.verify()?;
        }
        Ok(())
    }

    #[test]
    fn batch_splits_under_dense_ascending_inserts() -> Result<()> {
        let p = pool("batch-split.db")?;
        let tree = BTree::open(&p, 0)?;
        // Dense ascending run: every leaf on the path fills and splits
        // repeatedly while the batch holds a cached leaf.
        tree.apply_batch_sorted((0..30_000u64).map(|g| ((0, g), Some(g as u32))))?;
        let check = tree.verify()?;
        assert_eq!(check.entries, 30_000);
        assert!(check.depth >= 1);
        // Deleting a dense run through the batch path, interleaved with
        // absent keys, also holds up.
        tree.apply_batch_sorted((0..40_000u64).map(|g| ((0, g), None)))?;
        assert_eq!(tree.verify()?.entries, 0);
        Ok(())
    }

    #[test]
    fn batch_rejects_unsorted_input() -> Result<()> {
        let p = pool("batch-reject.db")?;
        let tree = BTree::open(&p, 0)?;
        let err = tree.apply_batch_sorted([((0, 2), Some(1)), ((0, 1), Some(1))]);
        assert!(err.is_err());
        let dup = tree.apply_batch_sorted([((0, 5), Some(1)), ((0, 5), None)]);
        assert!(dup.is_err(), "duplicate keys are not ascending");
        Ok(())
    }

    #[test]
    fn bulk_load_matches_incremental_inserts() -> Result<()> {
        let pool_a = pool("cmp-a.db")?;
        let a = BTree::open(&pool_a, 0)?;
        let pool_b = pool("cmp-b.db")?;
        let b = BTree::open(&pool_b, 0)?;
        let entries: Vec<(Key, u32)> = (0..10_000u64)
            .map(|g| ((g % 3, g * 17), (g % 91) as u32))
            .collect();
        let mut sorted = entries.clone();
        sorted.sort_unstable();
        a.bulk_load(sorted.iter().copied())?;
        for &(k, v) in &entries {
            b.insert(k, v)?;
        }
        let dump = |t: &BTree| -> Result<Vec<(Key, u32)>> {
            let mut v = Vec::new();
            t.for_each_range((0, 0), (u64::MAX, u64::MAX), |k, val| {
                v.push((k, val));
                true
            })?;
            Ok(v)
        };
        assert_eq!(dump(&a)?, dump(&b)?);
        a.verify()?;
        b.verify()?;
        Ok(())
    }
}

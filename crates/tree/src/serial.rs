//! Compact binary serialization of trees.
//!
//! Used to persist generated datasets and to measure *document size* for the
//! index-size experiment (Figure 14, left): the paper compares the size of
//! the pq-gram index against the size of the tree itself, so we need a
//! byte-honest tree encoding.
//!
//! Format (all integers LEB128 varints):
//!
//! ```text
//! magic "PQTR" | version | label-count | (len, utf8-bytes)*
//! node-count   | preorder (label-index, fanout)*
//! ```
//!
//! Node identifiers are not preserved — a deserialized tree gets fresh,
//! dense, preorder ids. Persist edit logs only together with the arena they
//! were recorded against.

use crate::label::{LabelSym, LabelTable};
use crate::tree::{NodeId, Tree};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"PQTR";
const VERSION: u64 = 1;

/// Writes a LEB128 varint.
pub fn write_varint<W: Write + ?Sized>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Reads a LEB128 varint.
pub fn read_varint<R: Read + ?Sized>(r: &mut R) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let b = byte[0];
        if shift >= 64 || (shift == 63 && b > 1) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint overflow",
            ));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Serializes `tree` (with its label table) to `w`.
pub fn write_tree<W: Write + ?Sized>(
    w: &mut W,
    tree: &Tree,
    labels: &LabelTable,
) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_varint(w, VERSION)?;
    write_varint(w, labels.len() as u64)?;
    for (_, name) in labels.iter() {
        write_varint(w, name.len() as u64)?;
        w.write_all(name.as_bytes())?;
    }
    write_varint(w, tree.node_count() as u64)?;
    for n in tree.preorder(tree.root()) {
        write_varint(w, tree.label(n).index() as u64)?;
        write_varint(w, tree.fanout(n) as u64)?;
    }
    Ok(())
}

/// Deserializes a tree and its label table from `r`.
pub fn read_tree<R: Read + ?Sized>(r: &mut R) -> io::Result<(Tree, LabelTable)> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("bad magic"));
    }
    if read_varint(r)? != VERSION {
        return Err(bad("unsupported version"));
    }
    let label_count = read_varint(r)? as usize;
    let mut labels = LabelTable::new();
    let mut syms = Vec::with_capacity(label_count);
    let mut buf = Vec::new();
    for _ in 0..label_count {
        let len = read_varint(r)? as usize;
        buf.resize(len, 0);
        r.read_exact(&mut buf)?;
        let name = std::str::from_utf8(&buf).map_err(|_| bad("label not utf8"))?;
        syms.push(labels.intern(name));
    }
    let node_count = read_varint(r)? as usize;
    if node_count == 0 {
        return Err(bad("empty tree"));
    }
    let sym_at = |idx: u64| -> io::Result<LabelSym> {
        syms.get(idx as usize)
            .copied()
            .ok_or_else(|| bad("label index out of range"))
    };

    let root_label = sym_at(read_varint(r)?)?;
    let root_fanout = read_varint(r)? as usize;
    let mut tree = Tree::with_root(root_label);
    // Stack of (parent, remaining children to read).
    let mut stack: Vec<(NodeId, usize)> = vec![(tree.root(), root_fanout)];
    let mut read_nodes = 1usize;
    while let Some(&mut (parent, ref mut remaining)) = stack.last_mut() {
        if *remaining == 0 {
            stack.pop();
            continue;
        }
        *remaining -= 1;
        if read_nodes >= node_count {
            return Err(bad("truncated node stream"));
        }
        let label = sym_at(read_varint(r)?)?;
        let fanout = read_varint(r)? as usize;
        let id = tree.add_child(parent, label);
        read_nodes += 1;
        stack.push((id, fanout));
    }
    if read_nodes != node_count {
        return Err(bad("node count mismatch"));
    }
    Ok((tree, labels))
}

/// Serialized size in bytes without materializing the buffer.
pub fn tree_size_bytes(tree: &Tree, labels: &LabelTable) -> usize {
    struct CountingSink(usize);
    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0 += buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    let mut sink = CountingSink(0);
    write_tree(&mut sink, tree, labels).expect("counting sink cannot fail");
    sink.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{dblp, random_tree, xmark, RandomTreeConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn varint_roundtrip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            1 << 20,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), v);
        }
    }

    #[test]
    fn varint_rejects_overflow() {
        let buf = [0xffu8; 11];
        assert!(read_varint(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn tree_roundtrip_is_isomorphic() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut lt = LabelTable::new();
        for gen in 0..3 {
            let tree = match gen {
                0 => random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(300, 7)),
                1 => xmark(&mut rng, &mut lt, 2_000),
                _ => dblp(&mut rng, &mut lt, 2_000),
            };
            let mut buf = Vec::new();
            write_tree(&mut buf, &tree, &lt).unwrap();
            let (back, back_labels) = read_tree(&mut buf.as_slice()).unwrap();
            back.validate().unwrap();
            assert_eq!(back.node_count(), tree.node_count());
            // Isomorphic modulo label table renumbering: compare by name.
            let names = |t: &Tree, l: &LabelTable| -> Vec<String> {
                t.preorder(t.root())
                    .map(|n| format!("{}/{}", l.name(t.label(n)), t.fanout(n)))
                    .collect()
            };
            assert_eq!(names(&tree, &lt), names(&back, &back_labels));
        }
    }

    #[test]
    fn size_matches_buffer_len() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut lt = LabelTable::new();
        let tree = xmark(&mut rng, &mut lt, 1_000);
        let mut buf = Vec::new();
        write_tree(&mut buf, &tree, &lt).unwrap();
        assert_eq!(tree_size_bytes(&tree, &lt), buf.len());
    }

    #[test]
    fn read_rejects_garbage() {
        assert!(read_tree(&mut b"NOPE".as_slice()).is_err());
        assert!(read_tree(&mut b"PQTR".as_slice()).is_err());
        // Valid header, truncated body.
        let mut lt = LabelTable::new();
        let tree = Tree::with_root(lt.intern("a"));
        let mut buf = Vec::new();
        write_tree(&mut buf, &tree, &lt).unwrap();
        buf.truncate(buf.len() - 1);
        assert!(read_tree(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn single_node_roundtrip() {
        let mut lt = LabelTable::new();
        let tree = Tree::with_root(lt.intern("only"));
        let mut buf = Vec::new();
        write_tree(&mut buf, &tree, &lt).unwrap();
        let (back, bl) = read_tree(&mut buf.as_slice()).unwrap();
        assert_eq!(back.node_count(), 1);
        assert_eq!(bl.name(back.label(back.root())), "only");
    }
}

// ---- edit log serialization -------------------------------------------

/// Magic for serialized edit logs.
const LOG_MAGIC: &[u8; 4] = b"PQLG";

use crate::edit::{EditLog, EditOp, InsertAnchor, LogOp};

/// Serializes an edit log (including insert anchors) to `w`.
///
/// Node ids are written as raw arena indices: a log is only meaningful
/// together with the tree lineage it was recorded against, exactly like the
/// in-memory representation.
pub fn write_log<W: Write + ?Sized>(w: &mut W, log: &EditLog) -> io::Result<()> {
    w.write_all(LOG_MAGIC)?;
    write_varint(w, VERSION)?;
    write_varint(w, log.len() as u64)?;
    for entry in log.ops() {
        match entry.op {
            EditOp::Rename { node, label } => {
                write_varint(w, 0)?;
                write_varint(w, node.index() as u64)?;
                write_varint(w, label.index() as u64)?;
            }
            EditOp::Delete { node } => {
                write_varint(w, 1)?;
                write_varint(w, node.index() as u64)?;
            }
            EditOp::Insert {
                node,
                label,
                parent,
                k,
                m,
            } => {
                write_varint(w, 2)?;
                write_varint(w, node.index() as u64)?;
                write_varint(w, label.index() as u64)?;
                write_varint(w, parent.index() as u64)?;
                write_varint(w, k as u64)?;
                // m = k - 1 is legal, bias by +1 so the varint stays unsigned.
                write_varint(w, (m + 1) as u64)?;
                match entry.anchor.as_ref().expect("log inserts carry an anchor") {
                    InsertAnchor::Adopted(run) => {
                        write_varint(w, 1 + run.len() as u64)?;
                        for n in run.iter() {
                            write_varint(w, n.index() as u64)?;
                        }
                    }
                    InsertAnchor::Gap { pred, succ } => {
                        write_varint(w, 0)?;
                        let opt = |v: &Option<NodeId>| match v {
                            None => 0u64,
                            Some(n) => n.index() as u64 + 1,
                        };
                        write_varint(w, opt(pred))?;
                        write_varint(w, opt(succ))?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Deserializes an edit log written by [`write_log`].
pub fn read_log<R: Read + ?Sized>(r: &mut R) -> io::Result<EditLog> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != LOG_MAGIC {
        return Err(bad("bad log magic"));
    }
    if read_varint(r)? != VERSION {
        return Err(bad("unsupported log version"));
    }
    let len = read_varint(r)? as usize;
    let node = |v: u64| NodeId::from_index(v as usize);
    let mut entries = Vec::with_capacity(len.min(1 << 20));
    for _ in 0..len {
        let entry = match read_varint(r)? {
            0 => LogOp::new(
                EditOp::Rename {
                    node: node(read_varint(r)?),
                    label: LabelSym::from_index(read_varint(r)? as usize),
                },
                None,
            ),
            1 => LogOp::new(
                EditOp::Delete {
                    node: node(read_varint(r)?),
                },
                None,
            ),
            2 => {
                let n = node(read_varint(r)?);
                let label = LabelSym::from_index(read_varint(r)? as usize);
                let parent = node(read_varint(r)?);
                let k = read_varint(r)? as usize;
                let m_biased = read_varint(r)? as usize;
                if m_biased == 0 {
                    return Err(bad("invalid m"));
                }
                let anchor = match read_varint(r)? {
                    0 => {
                        let opt = |v: u64| (v > 0).then(|| node(v - 1));
                        InsertAnchor::Gap {
                            pred: opt(read_varint(r)?),
                            succ: opt(read_varint(r)?),
                        }
                    }
                    adopted_plus_1 => {
                        let count = (adopted_plus_1 - 1) as usize;
                        if count == 0 {
                            return Err(bad("adopted run must be non-empty"));
                        }
                        let mut run = Vec::with_capacity(count.min(1 << 16));
                        for _ in 0..count {
                            run.push(node(read_varint(r)?));
                        }
                        InsertAnchor::Adopted(run.into())
                    }
                };
                LogOp::new(
                    EditOp::Insert {
                        node: n,
                        label,
                        parent,
                        k,
                        m: m_biased - 1,
                    },
                    Some(anchor),
                )
            }
            t => return Err(bad(&format!("unknown op tag {t}"))),
        };
        entries.push(entry);
    }
    Ok(entries.into_iter().collect())
}

#[cfg(test)]
mod log_tests {
    use super::*;
    use crate::generate::{random_tree, RandomTreeConfig};
    use crate::label::LabelTable;
    use crate::script::{record_script, ScriptConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn log_roundtrip_preserves_everything() {
        for seed in 0..15u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut lt = LabelTable::new();
            let mut tree = random_tree(&mut rng, &mut lt, &RandomTreeConfig::new(50, 5));
            let snapshot = tree.clone();
            let alphabet: Vec<_> = lt.iter().map(|(s, _)| s).collect();
            let (log, _) = record_script(&mut rng, &mut tree, &ScriptConfig::new(20, alphabet));
            let mut buf = Vec::new();
            write_log(&mut buf, &log).unwrap();
            let back = read_log(&mut buf.as_slice()).unwrap();
            assert_eq!(back, log, "seed {seed}");
            // And the deserialized log rewinds the tree identically.
            back.rewind(&mut tree).unwrap();
            assert_eq!(tree, snapshot);
        }
    }

    #[test]
    fn empty_log_roundtrip() {
        let mut buf = Vec::new();
        write_log(&mut buf, &EditLog::new()).unwrap();
        assert!(read_log(&mut buf.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn log_read_rejects_garbage() {
        assert!(read_log(&mut b"XXXX".as_slice()).is_err());
        assert!(read_log(&mut b"PQLG".as_slice()).is_err());
        let mut lt = LabelTable::new();
        let mut tree = Tree::with_root(lt.intern("a"));
        let x = lt.intern("x");
        let mut log = EditLog::new();
        let id = tree.next_node_id();
        log.push(
            tree.apply_logged(crate::edit::EditOp::Insert {
                node: id,
                label: x,
                parent: tree.root(),
                k: 1,
                m: 0,
            })
            .unwrap(),
        );
        let mut buf = Vec::new();
        write_log(&mut buf, &log).unwrap();
        buf.truncate(buf.len() - 1);
        assert!(read_log(&mut buf.as_slice()).is_err());
    }
}

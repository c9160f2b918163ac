//! A [`Vfs`] that forwards every call to [`RealVfs`] and counts it.
//!
//! Files are classified by path suffix — the manifest, `<base>.main.<g>`,
//! `<base>.seg.<s>`, and any `-journal` — so write and sync cost can be
//! attributed to the layer that caused it. Counting is a relaxed atomic
//! add (the counters publish no other data); with tracing on, each call
//! also records a `vfs.*` span under the harness span that caused it.

use crate::adapter::{RealVfs, Vfs, VfsFile};
use crate::trace;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// What a store file is, told from its name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// `<base>.main.<g>`: the compacted main file.
    Main,
    /// `<base>.seg.<s>`: an immutable segment.
    Seg,
    /// Anything else — for a segmented store, the manifest at `<base>`.
    Manifest,
    /// Any rollback journal (`<file>-journal`).
    Journal,
}

/// All classes, in counter order.
pub const CLASSES: [FileClass; 4] = [
    FileClass::Main,
    FileClass::Seg,
    FileClass::Manifest,
    FileClass::Journal,
];

impl FileClass {
    /// Classifies a path by its file name.
    pub fn of(path: &Path) -> FileClass {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.ends_with("-journal") {
            FileClass::Journal
        } else if name.contains(".main.") {
            FileClass::Main
        } else if name.contains(".seg.") {
            FileClass::Seg
        } else {
            FileClass::Manifest
        }
    }

    /// Metric-name suffix.
    pub fn as_str(self) -> &'static str {
        match self {
            FileClass::Main => "main",
            FileClass::Seg => "seg",
            FileClass::Manifest => "manifest",
            FileClass::Journal => "journal",
        }
    }
}

/// One plain copy of the counters, indexed by [`FileClass`] order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoCounts {
    /// `read_at` calls.
    pub read_calls: [u64; 4],
    /// Bytes `read_at` returned.
    pub read_bytes: [u64; 4],
    /// `write_all_at` calls.
    pub write_calls: [u64; 4],
    /// Bytes handed to `write_all_at`.
    pub write_bytes: [u64; 4],
    /// `sync` calls.
    pub sync_calls: [u64; 4],
    /// `create_new` / `create_truncate` / `open` calls.
    pub open_calls: [u64; 4],
}

impl IoCounts {
    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &IoCounts) -> IoCounts {
        fn sub(a: [u64; 4], b: [u64; 4]) -> [u64; 4] {
            std::array::from_fn(|i| a[i] - b[i])
        }
        IoCounts {
            read_calls: sub(self.read_calls, earlier.read_calls),
            read_bytes: sub(self.read_bytes, earlier.read_bytes),
            write_calls: sub(self.write_calls, earlier.write_calls),
            write_bytes: sub(self.write_bytes, earlier.write_bytes),
            sync_calls: sub(self.sync_calls, earlier.sync_calls),
            open_calls: sub(self.open_calls, earlier.open_calls),
        }
    }

    /// One class's share of a counter.
    pub fn of(counter: &[u64; 4], class: FileClass) -> u64 {
        counter[class as usize]
    }

    /// Read calls against main and segment files: each is one buffer-pool
    /// miss (or one page of a bulk scan) served by the pager.
    pub fn data_read_calls(&self) -> u64 {
        IoCounts::of(&self.read_calls, FileClass::Main)
            + IoCounts::of(&self.read_calls, FileClass::Seg)
    }
}

#[derive(Default)]
struct Counters {
    read_calls: [AtomicU64; 4],
    read_bytes: [AtomicU64; 4],
    write_calls: [AtomicU64; 4],
    write_bytes: [AtomicU64; 4],
    sync_calls: [AtomicU64; 4],
    open_calls: [AtomicU64; 4],
}

fn load(counter: &[AtomicU64; 4]) -> [u64; 4] {
    std::array::from_fn(|i| counter[i].load(Relaxed))
}

/// The counting file system. Clones share one set of counters.
#[derive(Clone, Default)]
pub struct CountingVfs {
    inner: RealVfs,
    counters: Arc<Counters>,
}

impl CountingVfs {
    /// A fresh file system with zeroed counters.
    pub fn new() -> CountingVfs {
        CountingVfs::default()
    }

    /// The counters right now.
    pub fn counts(&self) -> IoCounts {
        let c = &self.counters;
        IoCounts {
            read_calls: load(&c.read_calls),
            read_bytes: load(&c.read_bytes),
            write_calls: load(&c.write_calls),
            write_bytes: load(&c.write_bytes),
            sync_calls: load(&c.sync_calls),
            open_calls: load(&c.open_calls),
        }
    }

    fn wrap(&self, path: &Path, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        let class = FileClass::of(path);
        self.counters.open_calls[class as usize].fetch_add(1, Relaxed);
        Box::new(CountingFile {
            inner: file,
            class: class as usize,
            counters: Arc::clone(&self.counters),
        })
    }
}

impl Vfs for CountingVfs {
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let _span = trace::enter("vfs.open");
        Ok(self.wrap(path, self.inner.create_new(path)?))
    }

    fn create_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let _span = trace::enter("vfs.open");
        Ok(self.wrap(path, self.inner.create_truncate(path)?))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let _span = trace::enter("vfs.open");
        Ok(self.wrap(path, self.inner.open(path)?))
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn delete(&self, path: &Path) -> io::Result<()> {
        self.inner.delete(path)
    }
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    class: usize,
    counters: Arc<Counters>,
}

impl VfsFile for CountingFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let _span = trace::enter("vfs.read");
        let n = self.inner.read_at(offset, buf)?;
        self.counters.read_calls[self.class].fetch_add(1, Relaxed);
        self.counters.read_bytes[self.class].fetch_add(n as u64, Relaxed);
        Ok(n)
    }

    fn write_all_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        let _span = trace::enter("vfs.write");
        self.inner.write_all_at(offset, buf)?;
        self.counters.write_calls[self.class].fetch_add(1, Relaxed);
        self.counters.write_bytes[self.class].fetch_add(buf.len() as u64, Relaxed);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let _span = trace::enter("vfs.sync");
        self.inner.sync()?;
        self.counters.sync_calls[self.class].fetch_add(1, Relaxed);
        Ok(())
    }

    fn truncate(&mut self, size: u64) -> io::Result<()> {
        self.inner.truncate(size)
    }

    fn size(&mut self) -> io::Result<u64> {
        self.inner.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::probe::Pager;

    #[test]
    fn classifies_by_suffix() {
        let p = |s: &str| FileClass::of(Path::new(s));
        assert_eq!(p("/w/store"), FileClass::Manifest);
        assert_eq!(p("/w/store-journal"), FileClass::Journal);
        assert_eq!(p("/w/store.main.3"), FileClass::Main);
        assert_eq!(p("/w/store.main.3-journal"), FileClass::Journal);
        assert_eq!(p("/w/store.seg.12"), FileClass::Seg);
    }

    /// A hand-built pager transaction over three pages must show up as
    /// exactly the I/O the rollback-journal protocol prescribes.
    #[test]
    fn three_page_transaction_is_counted_exactly() {
        let dir = std::env::temp_dir().join(format!("pqgram-perf-vfs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("t.main.0");
        let vfs = CountingVfs::new();
        let page = 4096;

        let mut pager = Pager::create_with(&path, Arc::new(vfs.clone())).expect("create");
        let ids: Vec<_> = (0..3)
            .map(|_| pager.allocate().expect("allocate"))
            .collect();
        pager.sync_file().expect("sync");
        let before = vfs.counts();

        pager.begin().expect("begin");
        for &id in &ids {
            let mut buf = pager.read_page(id).expect("read");
            buf.put_u64(64, 0xFEED);
            pager.write_page(id, &buf).expect("write");
        }
        pager.commit().expect("commit");
        let d = vfs.counts().since(&before);

        // The rollback-journal protocol, call by call: `begin` creates the
        // journal and writes its 16-byte header; each page is read once
        // for the caller and once more as the pre-image, which goes to the
        // journal as one 12 + 4096 byte entry and is synced before the
        // new image overwrites the data page; `commit` syncs the data
        // file once and deletes the journal.
        let mut want = IoCounts::default();
        let main = FileClass::Main as usize;
        let journal = FileClass::Journal as usize;
        want.open_calls[journal] = 1;
        want.read_calls[main] = 6;
        want.read_bytes[main] = 6 * page;
        want.write_calls[main] = 3;
        want.write_bytes[main] = 3 * page;
        want.sync_calls[main] = 1;
        want.write_calls[journal] = 4;
        want.write_bytes[journal] = 16 + 3 * (12 + page);
        want.sync_calls[journal] = 3;
        assert_eq!(d, want);

        // The same transaction again costs exactly the same.
        let before = vfs.counts();
        pager.begin().expect("begin");
        for &id in &ids {
            let mut buf = pager.read_page(id).expect("read");
            buf.put_u64(64, 0xBEEF);
            pager.write_page(id, &buf).expect("write");
        }
        pager.commit().expect("commit");
        assert_eq!(vfs.counts().since(&before), d);

        drop(pager);
        std::fs::remove_dir_all(&dir).ok();
    }
}

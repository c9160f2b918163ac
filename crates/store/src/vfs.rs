//! Virtual file system — the storage engine's only gateway to the disk.
//!
//! Every byte the engine reads or writes crosses the [`Vfs`]/[`VfsFile`]
//! seam: the [`crate::pager`] and [`crate::journal`] hold `Box<dyn VfsFile>`
//! handles obtained from an `Arc<dyn Vfs>`, and never touch `std::fs`
//! directly (an xtask lint rule enforces this for the whole crate). Two
//! implementations exist:
//!
//! * [`RealVfs`] — the production pass-through to `std::fs`; the default of
//!   [`crate::pager::Pager::create`]/[`crate::pager::Pager::open`], with no
//!   behavioral change over calling the OS directly;
//! * [`FaultVfs`] — a deterministic fault injector for crash-recovery
//!   tests: it can halt the simulated machine at any chosen mutating event
//!   (leaving a torn half-written buffer behind), fail or *lie* on a chosen
//!   sync, and fail individual reads or writes with injected `io::Error`s.
//!
//! # The crash-point model
//!
//! `FaultVfs` keeps two byte images per file: `current` (what the process
//! sees) and `durable` (what an honest `sync` has pinned down). Every
//! *mutating* event — a write, sync, truncate, create, or delete — advances
//! a global clock. Arming [`FaultVfs::crash_at`] makes the event at that
//! clock tick fail and halts the file system: all subsequent operations
//! error, exactly like a machine that lost power. A crashing write first
//! applies the front half of its buffer, modelling a torn sector.
//!
//! [`FaultVfs::surviving`] then forks the state a post-crash reboot would
//! find, resolved per [`CrashMode`]: keep everything written (a kernel that
//! flushed its caches), keep only synced bytes (volatile write caches), or
//! drop unsynced bytes for a chosen file-name suffix only (asymmetric loss,
//! which catches write/sync ordering bugs between the data file and its
//! journal). Enumerating `crash_at(n, …)` for every `n` up to
//! [`FaultVfs::io_events`] visits every sync boundary of a workload.
//!
//! Deliberately not modelled: directory-entry durability. Renames and
//! deletes are atomic and immediately durable here, so a crash can never
//! resurrect a deleted journal.

use crate::sync::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An open file handle addressed by absolute byte offsets (no cursor).
pub trait VfsFile: Send {
    /// Reads up to `buf.len()` bytes at `offset`; returns the count read
    /// (`0` at end of file).
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize>;

    /// Writes all of `buf` at `offset`, extending the file if needed.
    fn write_all_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()>;

    /// Makes previously written bytes durable (`fdatasync` semantics).
    fn sync(&mut self) -> io::Result<()>;

    /// Sets the file length, zero-filling on growth.
    fn truncate(&mut self, size: u64) -> io::Result<()>;

    /// Current file size in bytes.
    fn size(&mut self) -> io::Result<u64>;

    /// Fills `buf` exactly from `offset`, failing with `UnexpectedEof` on a
    /// short read.
    fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let mut filled = 0usize;
        while filled < buf.len() {
            let Some(rest) = buf.get_mut(filled..) else {
                return Ok(());
            };
            match self.read_at(offset.saturating_add(len_u64(filled)), rest)? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "short read past end of file",
                    ))
                }
                n => filled += n,
            }
        }
        Ok(())
    }
}

/// Factory for [`VfsFile`] handles. An `Arc<dyn Vfs>` is threaded through
/// the pager and journal so that all disk I/O crosses one mockable seam.
pub trait Vfs: Send + Sync {
    /// Creates the file; fails if it already exists.
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Opens or creates the file, truncating it to zero length.
    fn create_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Opens an existing file read/write.
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// True if a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;

    /// Deletes the file at `path`.
    fn delete(&self, path: &Path) -> io::Result<()>;
}

/// A `usize` byte count as `u64` (cannot overflow on supported targets).
pub(crate) fn len_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// A `u64` file offset as a buffer index (saturating; faulted files are
/// in-memory, so a saturated index simply reads past the end).
fn index_of(offset: u64) -> usize {
    usize::try_from(offset).unwrap_or(usize::MAX)
}

// ---------------------------------------------------------------------------
// RealVfs
// ---------------------------------------------------------------------------

/// The production VFS: a thin pass-through to `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealVfs;

struct RealFile {
    file: File,
}

impl VfsFile for RealFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.read(buf)
    }

    fn write_all_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn truncate(&mut self, size: u64) -> io::Result<()> {
        self.file.set_len(size)
    }

    fn size(&mut self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }
}

impl Vfs for RealVfs {
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new()
            .create_new(true)
            .read(true)
            .write(true)
            .open(path)?;
        Ok(Box::new(RealFile { file }))
    }

    fn create_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(path)?;
        Ok(Box::new(RealFile { file }))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Ok(Box::new(RealFile { file }))
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn delete(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

// ---------------------------------------------------------------------------
// FaultVfs
// ---------------------------------------------------------------------------

/// What survives a simulated crash (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CrashMode {
    /// Every completed write survives, synced or not (plus the torn prefix
    /// of the in-flight write): a kernel that had flushed its caches.
    KeepUnsynced,
    /// Only bytes pinned by an honest `sync` survive, for every file: power
    /// loss with volatile write caches.
    DropUnsynced,
    /// Like [`CrashMode::DropUnsynced`], but only for files whose name ends
    /// with this suffix; other files keep unsynced writes. The asymmetry
    /// catches ordering bugs (e.g. a data write racing its journal's sync).
    DropUnsyncedMatching(String),
}

#[derive(Clone, Default)]
struct Images {
    durable: Vec<u8>,
    current: Vec<u8>,
}

#[derive(Default)]
struct FaultState {
    files: BTreeMap<PathBuf, Images>,
    /// Global clock of mutating events (writes, syncs, truncates, creates,
    /// deletes).
    clock: u64,
    crash: Option<(u64, CrashMode)>,
    crashed: bool,
    lying_syncs: bool,
    syncs_seen: u64,
    fail_syncs: BTreeSet<u64>,
    reads_seen: u64,
    fail_reads: BTreeSet<u64>,
    writes_seen: u64,
    fail_writes: BTreeSet<u64>,
}

impl FaultState {
    fn check_alive(&self) -> io::Result<()> {
        if self.crashed {
            return Err(io::Error::other("simulated crash: file system halted"));
        }
        Ok(())
    }

    /// Advances the event clock; true when the armed crash fires now.
    fn tick(&mut self) -> bool {
        let at = self.clock;
        self.clock += 1;
        if let Some((event, _)) = &self.crash {
            if *event == at {
                self.crashed = true;
                return true;
            }
        }
        false
    }

    fn images(&mut self, path: &Path) -> io::Result<&mut Images> {
        self.files.get_mut(path).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} was deleted", path.display()),
            )
        })
    }
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("injected fault: {what}"))
}

fn write_into(dest: &mut Vec<u8>, offset: u64, data: &[u8]) {
    let start = index_of(offset);
    let end = start.saturating_add(data.len());
    if dest.len() < end {
        dest.resize(end, 0);
    }
    let tail = dest.get_mut(start..end).unwrap_or(&mut []);
    for (d, s) in tail.iter_mut().zip(data.iter()) {
        *d = *s;
    }
}

/// Deterministic fault-injecting VFS for crash-recovery tests.
///
/// Clones share state: hand one clone to the store and keep another to arm
/// faults and inspect the aftermath. See the module docs for the crash-point
/// model and `crates/store/tests/crash.rs` for the exhaustive enumeration.
#[derive(Clone, Default)]
pub struct FaultVfs {
    // analyze: lock-class(vfs-state)
    state: Arc<Mutex<FaultState>>,
}

impl FaultVfs {
    /// A fresh injector with no faults armed.
    pub fn new() -> FaultVfs {
        FaultVfs::default()
    }

    /// Arms a crash at mutating event `event` (0-based on the clock
    /// reported by [`FaultVfs::io_events`]). The event itself fails and
    /// every later operation errors.
    pub fn crash_at(&self, event: u64, mode: CrashMode) {
        self.state.lock().crash = Some((event, mode));
    }

    /// Number of mutating events processed so far.
    pub fn io_events(&self) -> u64 {
        self.state.lock().clock
    }

    /// True once an armed crash has fired.
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Makes the `nth` sync (0-based) fail with an injected error. The sync
    /// makes nothing durable; the file system keeps running.
    pub fn fail_sync(&self, nth: u64) {
        self.state.lock().fail_syncs.insert(nth);
    }

    /// Makes every sync report success without pinning anything durable —
    /// a drive that acknowledges flushes it does not perform.
    pub fn lie_on_syncs(&self) {
        self.state.lock().lying_syncs = true;
    }

    /// Makes the `nth` read (0-based) fail with an injected error.
    pub fn fail_read(&self, nth: u64) {
        self.state.lock().fail_reads.insert(nth);
    }

    /// Makes the `nth` write (0-based) fail with an injected error; the
    /// failed write has no effect on the file.
    pub fn fail_write(&self, nth: u64) {
        self.state.lock().fail_writes.insert(nth);
    }

    /// Forks the file system a post-crash reboot would find: every file
    /// reduced to its surviving bytes per the armed [`CrashMode`] (or kept
    /// as-is after a clean run). The fork has no faults armed.
    pub fn surviving(&self) -> FaultVfs {
        let state = self.state.lock();
        let mode = match &state.crash {
            Some((_, mode)) if state.crashed => mode.clone(),
            _ => CrashMode::KeepUnsynced,
        };
        let files = state
            .files
            .iter()
            .map(|(path, images)| {
                let keep_current = match &mode {
                    CrashMode::KeepUnsynced => true,
                    CrashMode::DropUnsynced => false,
                    CrashMode::DropUnsyncedMatching(suffix) => !path
                        .as_os_str()
                        .to_string_lossy()
                        .ends_with(suffix.as_str()),
                };
                let bytes = if keep_current {
                    images.current.clone()
                } else {
                    images.durable.clone()
                };
                (
                    path.clone(),
                    Images {
                        durable: bytes.clone(),
                        current: bytes,
                    },
                )
            })
            .collect();
        FaultVfs {
            state: Arc::new(Mutex::new(FaultState {
                files,
                ..Default::default()
            })),
        }
    }
}

struct FaultFile {
    // analyze: lock-class(vfs-state)
    state: Arc<Mutex<FaultState>>,
    path: PathBuf,
}

impl VfsFile for FaultFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let mut state = self.state.lock();
        state.check_alive()?;
        let nth = state.reads_seen;
        state.reads_seen += 1;
        if state.fail_reads.contains(&nth) {
            return Err(injected("read"));
        }
        let images = state.images(&self.path)?;
        let start = index_of(offset).min(images.current.len());
        let avail = images.current.get(start..).unwrap_or(&[]);
        let mut copied = 0usize;
        for (d, s) in buf.iter_mut().zip(avail.iter()) {
            *d = *s;
            copied += 1;
        }
        Ok(copied)
    }

    fn write_all_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        let mut state = self.state.lock();
        state.check_alive()?;
        let nth = state.writes_seen;
        state.writes_seen += 1;
        if state.fail_writes.contains(&nth) {
            return Err(injected("write"));
        }
        if state.tick() {
            // Crash mid-write: a torn sector — only the front half of the
            // buffer reaches the file.
            let torn = buf.get(..buf.len() / 2).unwrap_or(&[]);
            let images = state.images(&self.path)?;
            write_into(&mut images.current, offset, torn);
            return Err(io::Error::other("simulated crash during write"));
        }
        let images = state.images(&self.path)?;
        write_into(&mut images.current, offset, buf);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut state = self.state.lock();
        state.check_alive()?;
        let nth = state.syncs_seen;
        state.syncs_seen += 1;
        if state.fail_syncs.contains(&nth) {
            return Err(injected("sync"));
        }
        if state.tick() {
            return Err(io::Error::other("simulated crash during sync"));
        }
        if !state.lying_syncs {
            let images = state.images(&self.path)?;
            images.durable = images.current.clone();
        }
        Ok(())
    }

    fn truncate(&mut self, size: u64) -> io::Result<()> {
        let mut state = self.state.lock();
        state.check_alive()?;
        if state.tick() {
            return Err(io::Error::other("simulated crash during truncate"));
        }
        let images = state.images(&self.path)?;
        images.current.resize(index_of(size), 0);
        Ok(())
    }

    fn size(&mut self) -> io::Result<u64> {
        let mut state = self.state.lock();
        state.check_alive()?;
        let images = state.images(&self.path)?;
        Ok(len_u64(images.current.len()))
    }
}

impl Vfs for FaultVfs {
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut state = self.state.lock();
        state.check_alive()?;
        if state.files.contains_key(path) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{} already exists", path.display()),
            ));
        }
        if state.tick() {
            return Err(io::Error::other("simulated crash during create"));
        }
        state.files.insert(path.to_owned(), Images::default());
        Ok(Box::new(FaultFile {
            state: Arc::clone(&self.state),
            path: path.to_owned(),
        }))
    }

    fn create_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut state = self.state.lock();
        state.check_alive()?;
        if state.tick() {
            return Err(io::Error::other("simulated crash during create"));
        }
        // The truncation is a write like any other: it reaches `current`
        // now and `durable` only at the next honest sync.
        state
            .files
            .entry(path.to_owned())
            .or_default()
            .current
            .clear();
        Ok(Box::new(FaultFile {
            state: Arc::clone(&self.state),
            path: path.to_owned(),
        }))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let state = self.state.lock();
        state.check_alive()?;
        if !state.files.contains_key(path) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} does not exist", path.display()),
            ));
        }
        Ok(Box::new(FaultFile {
            state: Arc::clone(&self.state),
            path: path.to_owned(),
        }))
    }

    fn exists(&self, path: &Path) -> bool {
        self.state.lock().files.contains_key(path)
    }

    fn delete(&self, path: &Path) -> io::Result<()> {
        let mut state = self.state.lock();
        state.check_alive()?;
        if state.tick() {
            return Err(io::Error::other("simulated crash during delete"));
        }
        match state.files.remove(path) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} does not exist", path.display()),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str) -> PathBuf {
        PathBuf::from(format!("/fault/{name}"))
    }

    #[test]
    fn fault_write_read_roundtrip() -> io::Result<()> {
        let vfs = FaultVfs::new();
        let mut f = vfs.create_new(&p("a"))?;
        f.write_all_at(0, b"hello")?;
        f.write_all_at(3, b"LOWORLD")?;
        assert_eq!(f.size()?, 10);
        let mut buf = [0u8; 10];
        f.read_exact_at(0, &mut buf)?;
        assert_eq!(&buf, b"helLOWORLD");
        // Reads past the end are short, not errors.
        let mut tail = [0u8; 8];
        assert_eq!(f.read_at(6, &mut tail)?, 4);
        Ok(())
    }

    #[test]
    fn crash_tears_the_in_flight_write() -> io::Result<()> {
        let vfs = FaultVfs::new();
        let mut f = vfs.create_new(&p("a"))?; // event 0
        f.write_all_at(0, b"aaaa")?; // event 1
        vfs.crash_at(2, CrashMode::KeepUnsynced);
        assert!(f.write_all_at(4, b"bbbb").is_err()); // event 2: crash
        assert!(f.write_all_at(8, b"cccc").is_err(), "halted after crash");
        assert!(vfs.crashed());

        let survivors = vfs.surviving();
        let mut f = survivors.open(&p("a"))?;
        let mut buf = vec![0u8; 6];
        f.read_exact_at(0, &mut buf)?;
        assert_eq!(&buf, b"aaaabb", "front half of the torn write survives");
        assert_eq!(f.size()?, 6);
        Ok(())
    }

    #[test]
    fn drop_unsynced_keeps_only_synced_bytes() -> io::Result<()> {
        let vfs = FaultVfs::new();
        let mut f = vfs.create_new(&p("a"))?; // event 0
        f.write_all_at(0, b"AAAA")?; // event 1
        f.sync()?; // event 2
        vfs.crash_at(3, CrashMode::DropUnsynced);
        assert!(f.write_all_at(4, b"BBBB").is_err()); // event 3: crash

        let survivors = vfs.surviving();
        let mut f = survivors.open(&p("a"))?;
        assert_eq!(f.size()?, 4, "unsynced (torn) write dropped");
        let mut buf = [0u8; 4];
        f.read_exact_at(0, &mut buf)?;
        assert_eq!(&buf, b"AAAA");
        Ok(())
    }

    #[test]
    fn suffix_mode_drops_only_matching_files() -> io::Result<()> {
        let vfs = FaultVfs::new();
        let mut data = vfs.create_new(&p("store"))?; // event 0
        let mut jrnl = vfs.create_new(&p("store-journal"))?; // event 1
        data.write_all_at(0, b"DATA")?; // event 2
        jrnl.write_all_at(0, b"JRNL")?; // event 3
        vfs.crash_at(4, CrashMode::DropUnsyncedMatching("-journal".into()));
        assert!(data.write_all_at(4, b"MORE").is_err()); // event 4: crash

        let survivors = vfs.surviving();
        let mut data = survivors.open(&p("store"))?;
        let mut jrnl = survivors.open(&p("store-journal"))?;
        assert_eq!(data.size()?, 6, "data keeps unsynced bytes + torn half");
        assert_eq!(jrnl.size()?, 0, "journal loses its unsynced bytes");
        Ok(())
    }

    #[test]
    fn lying_sync_pins_nothing() -> io::Result<()> {
        let vfs = FaultVfs::new();
        vfs.lie_on_syncs();
        let mut f = vfs.create_new(&p("a"))?; // event 0
        f.write_all_at(0, b"XXXX")?; // event 1
        f.sync()?; // event 2: lies
        vfs.crash_at(3, CrashMode::DropUnsynced);
        assert!(f.write_all_at(4, b"YYYY").is_err()); // event 3: crash
        let survivors = vfs.surviving();
        let mut f = survivors.open(&p("a"))?;
        assert_eq!(f.size()?, 0, "a lying sync pinned nothing");
        Ok(())
    }

    #[test]
    fn injected_sync_and_write_failures_surface() -> io::Result<()> {
        let vfs = FaultVfs::new();
        let mut f = vfs.create_new(&p("a"))?;
        vfs.fail_sync(0);
        vfs.fail_write(1);
        f.write_all_at(0, b"ok")?; // write 0 succeeds
        assert!(f.sync().is_err(), "sync 0 injected");
        f.sync()?; // sync 1 fine
        assert!(f.write_all_at(2, b"no").is_err(), "write 1 injected");
        assert_eq!(f.size()?, 2, "failed write had no effect");
        f.write_all_at(2, b"yes")?;
        assert!(!vfs.crashed(), "injected errors do not halt the system");
        Ok(())
    }

    #[test]
    fn injected_read_failure_surfaces() -> io::Result<()> {
        let vfs = FaultVfs::new();
        let mut f = vfs.create_new(&p("a"))?;
        f.write_all_at(0, b"abc")?;
        vfs.fail_read(0);
        let mut buf = [0u8; 3];
        assert!(f.read_at(0, &mut buf).is_err());
        f.read_exact_at(0, &mut buf)?;
        assert_eq!(&buf, b"abc");
        Ok(())
    }

    #[test]
    fn delete_and_exists() -> io::Result<()> {
        let vfs = FaultVfs::new();
        drop(vfs.create_new(&p("a"))?);
        assert!(vfs.exists(&p("a")));
        assert!(vfs.create_new(&p("a")).is_err(), "create_new refuses");
        vfs.delete(&p("a"))?;
        assert!(!vfs.exists(&p("a")));
        assert!(vfs.open(&p("a")).is_err());
        assert!(vfs.delete(&p("a")).is_err());
        Ok(())
    }

    #[test]
    fn real_vfs_roundtrip() -> io::Result<()> {
        let dir = std::env::temp_dir().join(format!("pqgram-vfs-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("real.bin");
        std::fs::remove_file(&path).ok();
        let vfs = RealVfs;
        {
            let mut f = vfs.create_new(&path)?;
            f.write_all_at(0, b"0123456789")?;
            f.sync()?;
            f.truncate(6)?;
            assert_eq!(f.size()?, 6);
        }
        let mut f = vfs.open(&path)?;
        let mut buf = [0u8; 6];
        f.read_exact_at(0, &mut buf)?;
        assert_eq!(&buf, b"012345");
        assert!(vfs.exists(&path));
        vfs.delete(&path)?;
        assert!(!vfs.exists(&path));
        Ok(())
    }
}

//! Scratch files that tests leave nothing of.

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// One thread's scratch directories, `(tag, path)`, removed with
/// everything in them when the guard drops at the thread's end.
struct Dirs(Vec<(String, PathBuf)>);

impl Drop for Dirs {
    fn drop(&mut self) {
        for (_, dir) in &self.0 {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

thread_local! {
    static DIRS: RefCell<Dirs> = const { RefCell::new(Dirs(Vec::new())) };
}

/// A path for a test's real file `name`, in a directory that belongs to
/// the calling thread and `tag`: `pqgram-<tag>-<pid>-<n>` under the system
/// temp dir, where `n` counts the directories this process made. It is
/// made on first use and removed, with everything in it, when the thread
/// ends. The test harness runs each test on a thread of its own, so a
/// test's files go when it does, and parallel tests never share a
/// directory.
pub fn scratch_file(tag: &str, name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    DIRS.with_borrow_mut(|Dirs(dirs)| {
        if let Some((_, dir)) = dirs.iter().find(|(t, _)| t == tag) {
            return dir.join(name);
        }
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("pqgram-{tag}-{}-{n}", std::process::id()));
        // What a killed run with the same pid left behind.
        std::fs::remove_dir_all(&dir).ok();
        // A failure here surfaces when the test creates its file.
        std::fs::create_dir_all(&dir).ok();
        let path = dir.join(name);
        dirs.push((tag.to_string(), dir));
        path
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn a_thread_keeps_one_directory_per_tag_and_removes_it_at_its_end() {
        let (a, b, other) = std::thread::spawn(|| {
            let a = scratch_file("check-self", "a");
            let b = scratch_file("check-self", "b");
            let other = scratch_file("check-other", "a");
            std::fs::write(&a, b"x").expect("write a");
            (a, b, other)
        })
        .join()
        .expect("scratch thread");
        assert_eq!(a.parent(), b.parent(), "one directory per tag");
        assert_ne!(a.parent(), other.parent(), "tags do not share");
        let dir = a.parent().expect("a directory");
        assert!(!dir.exists(), "{} outlived its thread", dir.display());
    }

    #[test]
    fn threads_never_share_a_directory() {
        let here = scratch_file("check-self", "a");
        let there = std::thread::spawn(|| scratch_file("check-self", "a"))
            .join()
            .expect("scratch thread");
        assert_ne!(here, there);
        assert!(here.parent().is_some_and(Path::exists));
    }
}

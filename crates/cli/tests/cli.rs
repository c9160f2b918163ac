//! End-to-end tests driving the real `pqgram` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_pqgram")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pqgram-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn p(dir: &std::path::Path, name: &str) -> String {
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn full_index_store_workflow() {
    let dir = workdir().join("flow1");
    std::fs::create_dir_all(&dir).unwrap();
    let a = p(&dir, "a.xml");
    let b = p(&dir, "b.xml");
    let store = p(&dir, "store.pqg");
    std::fs::remove_file(&store).ok();

    assert!(
        run(&["gen", "dblp", "--nodes", "800", "--seed", "1", "--out", &a])
            .status
            .success()
    );
    assert!(
        run(&["gen", "dblp", "--nodes", "800", "--seed", "2", "--out", &b])
            .status
            .success()
    );
    assert!(run(&["create", &store, "--p", "2", "--q", "3"])
        .status
        .success());
    let out = run(&["add", &store, "--id", "1", &a, &b]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("indexed"));

    let out = run(&["lookup", &store, &a, "--tau", "0.99"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let first_hit = text.lines().nth(1).expect("at least one hit");
    assert!(
        first_hit.trim_start().starts_with('1'),
        "own document first: {text}"
    );
    assert!(first_hit.contains("0.0000"));

    let out = run(&["stats", &store]);
    assert!(stdout(&out).contains("documents:  2"), "{}", stdout(&out));

    assert!(run(&["remove", &store, "--id", "2"]).status.success());
    let out = run(&["stats", &store]);
    assert!(stdout(&out).contains("documents:  1"));
    // Removing again fails cleanly.
    let out = run(&["remove", &store, "--id", "2"]);
    assert!(!out.status.success());
}

#[test]
fn document_store_workflow_with_sync() {
    let dir = workdir().join("flow2");
    std::fs::create_dir_all(&dir).unwrap();
    let v1 = p(&dir, "v1.xml");
    let store = p(&dir, "docs.docs");
    std::fs::remove_file(&store).ok();

    assert!(
        run(&["gen", "xmark", "--nodes", "600", "--seed", "3", "--out", &v1])
            .status
            .success()
    );
    // v2: a small textual edit.
    let content = std::fs::read_to_string(&v1)
        .unwrap()
        .replace("cat0", "cat0x");
    let v2 = p(&dir, "v2.xml");
    std::fs::write(&v2, content).unwrap();

    assert!(run(&["init", &store]).status.success());
    assert!(run(&["put", &store, "--id", "7", &v1]).status.success());
    let out = run(&["syncdoc", &store, "--id", "7", &v2]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("derived edits"), "{}", stdout(&out));

    // Round-trip the stored document and confirm it matches v2's tree.
    let round = p(&dir, "round.xml");
    assert!(run(&["get", &store, "--id", "7", "--out", &round])
        .status
        .success());
    let out = run(&["dist", &v2, &round]);
    assert!(stdout(&out).contains("0.000000"), "{}", stdout(&out));

    let out = run(&["find", &store, &v2, "--tau", "0.5"]);
    assert!(stdout(&out).contains("0.0000"));
}

#[test]
fn diff_prints_script() {
    let dir = workdir().join("flow3");
    std::fs::create_dir_all(&dir).unwrap();
    let a = p(&dir, "a.xml");
    std::fs::write(&a, "<r><x>one</x><y/></r>").unwrap();
    let b = p(&dir, "b.xml");
    std::fs::write(&b, "<r><x>two</x><y/><z/></r>").unwrap();
    let out = run(&["diff", &a, &b]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("edit operations"), "{text}");
    assert!(text.contains("REN") || text.contains("INS"), "{text}");
}

#[test]
fn dist_with_ted() {
    let dir = workdir().join("flow4");
    std::fs::create_dir_all(&dir).unwrap();
    let a = p(&dir, "a.xml");
    std::fs::write(&a, "<r><x/><y/></r>").unwrap();
    let b = p(&dir, "b.xml");
    std::fs::write(&b, "<r><x/><z/></r>").unwrap();
    let out = run(&["dist", &a, &b, "--ted"]);
    let text = stdout(&out);
    assert!(text.contains("pq-gram distance"));
    assert!(
        text.contains("exact tree edit distance:        1"),
        "{text}"
    );
}

#[test]
fn errors_are_reported_not_panicked() {
    let out = run(&["lookup", "/nonexistent/store.pqg", "/nonexistent/query.xml"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("error:"));

    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));

    let out = run(&["gen", "nope"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown generator"));

    let out = run(&[]);
    assert!(!out.status.success());
}

#[test]
fn grams_dump_limited() {
    let dir = workdir().join("flow5");
    std::fs::create_dir_all(&dir).unwrap();
    let a = p(&dir, "a.xml");
    std::fs::write(&a, "<r><x/><y/><z/></r>").unwrap();
    let out = run(&["grams", &a, "--limit", "2", "--p", "2", "--q", "2"]);
    let text = stdout(&out);
    assert!(out.status.success());
    assert_eq!(
        text.lines().filter(|l| l.starts_with('(')).count(),
        2,
        "{text}"
    );
    assert!(text.contains("more"));
}

#[test]
fn file_based_incremental_update() {
    let dir = workdir().join("flow6");
    std::fs::create_dir_all(&dir).unwrap();
    let old = p(&dir, "old.xml");
    let newer = p(&dir, "new.xml");
    let store = p(&dir, "store.pqg");
    std::fs::remove_file(&store).ok();

    assert!(
        run(&["gen", "dblp", "--nodes", "1500", "--seed", "8", "--out", &old])
            .status
            .success()
    );
    let content = std::fs::read_to_string(&old)
        .unwrap()
        .replace("venue0", "venue0-renamed");
    std::fs::write(&newer, content).unwrap();

    assert!(run(&["create", &store]).status.success());
    assert!(run(&["add", &store, "--id", "3", &old]).status.success());
    let out = run(&["update", &store, "--id", "3", &old, &newer]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("derived edits"), "{}", stdout(&out));

    // The updated index must now match the new version exactly.
    let out = run(&["lookup", &store, &newer, "--tau", "0.1"]);
    let text = stdout(&out);
    assert!(text.contains("0.0000"), "{text}");
    // …and no longer match the old version at distance zero.
    let out = run(&["lookup", &store, &old, "--tau", "0.0001"]);
    assert!(stdout(&out).contains("no documents"), "{}", stdout(&out));
}

#[test]
fn segmented_store_workflow() {
    let dir = workdir().join("flow7");
    std::fs::create_dir_all(&dir).unwrap();
    let old = p(&dir, "old.xml");
    let newer = p(&dir, "new.xml");
    let other = p(&dir, "other.xml");
    let store = p(&dir, "store.pqg");
    for entry in std::fs::read_dir(&dir).unwrap() {
        std::fs::remove_file(entry.unwrap().path()).ok();
    }

    assert!(
        run(&["gen", "dblp", "--nodes", "1500", "--seed", "8", "--out", &old])
            .status
            .success()
    );
    assert!(
        run(&["gen", "dblp", "--nodes", "900", "--seed", "9", "--out", &other])
            .status
            .success()
    );
    let content = std::fs::read_to_string(&old)
        .unwrap()
        .replace("venue0", "venue0-renamed");
    std::fs::write(&newer, content).unwrap();

    let out = run(&["create", &store, "--segmented"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = run(&["add", &store, "--id", "3", &old, &other]);
    assert!(out.status.success(), "{}", stderr(&out));
    // The incremental update must land in the segmented layout too (and be
    // flushed: every command is its own process).
    let out = run(&["update", &store, "--id", "3", &old, &newer]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("derived edits"), "{}", stdout(&out));

    let out = run(&["lookup", &store, &newer, "--tau", "0.1"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("0.0000"), "{}", stdout(&out));
    let out = run(&["lookup", &store, &old, "--tau", "0.0001"]);
    assert!(stdout(&out).contains("no documents"), "{}", stdout(&out));

    // A self-join of the segmented store pairs every tree with itself.
    let out = run(&["join", &store, &store, "--tau", "0.1"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("join of 2 x 2 trees"), "{text}");
    assert!(text.contains("0.0000"), "{text}");

    let out = run(&["stats", &store, "--verify"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("documents:  2"), "{text}");
    assert!(text.contains("integrity:  ok"), "{text}");
}

/// A segmented store that fails to open reports its own error — here the
/// segment file that went missing — not the single-file probe's
/// kind-marker mismatch.
#[test]
fn damaged_segmented_store_reports_its_own_error() {
    let dir = workdir().join("flow8");
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(&dir).unwrap() {
        std::fs::remove_file(entry.unwrap().path()).ok();
    }
    let doc = p(&dir, "doc.xml");
    let store = p(&dir, "store.pqg");
    assert!(
        run(&["gen", "dblp", "--nodes", "400", "--seed", "3", "--out", &doc])
            .status
            .success()
    );
    assert!(run(&["create", &store, "--segmented"]).status.success());
    let out = run(&["add", &store, "--id", "1", &doc]);
    assert!(out.status.success(), "{}", stderr(&out));
    let segment = format!("{store}.seg.0");
    std::fs::remove_file(&segment).unwrap();

    for command in [
        vec!["lookup", &store, &doc],
        vec!["stats", &store],
        vec!["add", &store, "--id", "2", &doc],
    ] {
        let out = run(&command);
        assert!(!out.status.success(), "{command:?} opened a damaged store");
        let err = stderr(&out);
        assert!(err.contains("store.pqg.seg.0"), "{command:?}: {err}");
        assert!(!err.contains("kind marker"), "{command:?}: {err}");
    }
    // A file of another kind still gets the single-file probe's verdict.
    let docs = p(&dir, "store.docs");
    assert!(run(&["init", &docs]).status.success());
    let err = stderr(&run(&["stats", &docs]));
    assert!(err.contains("the file is a document store"), "{err}");
}

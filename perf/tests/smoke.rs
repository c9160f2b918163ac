//! Runs every workload at smoke scale through the real binary and checks
//! the contract: the declared names are all printed, finite and
//! unit-tagged; counts repeat for a seed; a different seed is a different
//! corpus; `BENCHMARK.json` and the README glossary match the tables the
//! binary prints; `perf compare` passes equal run sets and fails a worse
//! one.

use pqgram_perf::json::{parse, Json};
use pqgram_perf::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perf/ sits in the repository root")
        .to_path_buf()
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs one smoke workload; returns the parsed last line of stdout.
fn smoke(workload: &str, seed: u64, trace: bool, out: &Path) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
        ])
        .arg("--out-dir")
        .arg(out)
        .output()
        .expect("perf binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

fn run_file(out: &Path, workload: &str, trace: bool) -> Json {
    let name = format!("{workload}{}.json", if trace { "-trace" } else { "" });
    parse(&std::fs::read_to_string(out.join(name)).expect("run file written"))
        .expect("run file is JSON")
}

fn metric(run: &Json, name: &str) -> f64 {
    run.get("metrics")
        .and_then(|m| m.get(name)?.get("value")?.as_f64())
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_declared_metric_is_printed_finite_and_unit_tagged() {
    let out = out_dir("declared");
    for w in &WORKLOADS {
        for (trace, declared) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let result = smoke(w.name, 7, trace, &out);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{}", w.name);
            assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{}: no metrics object", w.name);
            };
            assert_eq!(metrics.len(), declared.len(), "{} trace {trace}", w.name);
            for m in declared {
                assert!(well_formed(m.name), "{}", m.name);
                let entry = &metrics[m.name];
                let value = entry.get("value").and_then(Json::as_f64).expect("a number");
                assert!(value.is_finite(), "{} {}", w.name, m.name);
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
                if !trace {
                    assert!(value > 0.0, "{}: end-to-end {} is zero", w.name, m.name);
                }
            }
        }
        let traced = run_file(&out, w.name, true);
        assert!(metric(&traced, "trace_spans") > 0.0, "{}: no spans", w.name);
        assert!(out.join(format!("trace-{}.jsonl", w.name)).exists());
    }
}

#[test]
fn counts_repeat_for_a_seed_and_the_corpus_follows_the_seed() {
    let (a, b, c) = (out_dir("seed-a"), out_dir("seed-b"), out_dir("seed-c"));
    for w in &WORKLOADS {
        smoke(w.name, 11, false, &a);
        smoke(w.name, 11, false, &b);
        smoke(w.name, 12, false, &c);
        let (ra, rb, rc) = (
            run_file(&a, w.name, false),
            run_file(&b, w.name, false),
            run_file(&c, w.name, false),
        );
        let counts = PER_LAYER.iter().map(|m| m.name).filter(|n| {
            n.starts_with("vfs.") && *n != "vfs.busy_us"
                || n.starts_with("ops.") && n.ends_with("_per_lookup")
                || n.starts_with("segmented.") && n.ends_with("_count")
                || *n == "write_amp"
        });
        for name in counts.chain(["disk_bytes_per_node"]) {
            assert_eq!(
                metric(&ra, name).to_bits(),
                metric(&rb, name).to_bits(),
                "{}: {name} differs between two runs of one seed",
                w.name
            );
        }
        let digest = |run: &Json| {
            run.get("notes")
                .and_then(|n| n.get("corpus_digest")?.as_str())
                .expect("corpus digest noted")
                .to_owned()
        };
        assert_eq!(digest(&ra), digest(&rb), "{}", w.name);
        assert_ne!(
            digest(&ra),
            digest(&rc),
            "{}: two seeds, one corpus",
            w.name
        );
    }

    // Equal run sets compare clean; a run set whose latency doubled does not.
    let compare = |x: &Path, y: &Path| {
        Command::new(env!("CARGO_BIN_EXE_perf"))
            .arg("compare")
            .args([x, y])
            .output()
            .expect("perf compare runs")
    };
    assert!(compare(&a, &a).status.success());
    let worse = out_dir("seed-worse");
    std::fs::create_dir_all(&worse).expect("create dir");
    for w in &WORKLOADS {
        let file = format!("{}.json", w.name);
        let text = std::fs::read_to_string(a.join(&file)).expect("run file");
        let p50 = metric(&parse(&text).expect("json"), "op_p50_us");
        let doubled = text.replacen(
            &format!("\"op_p50_us\": {{\"value\": {p50}"),
            &format!("\"op_p50_us\": {{\"value\": {}", p50 * 2.0),
            1,
        );
        assert_ne!(text, doubled);
        std::fs::write(worse.join(&file), doubled).expect("write");
    }
    let verdict = compare(&a, &worse);
    assert!(!verdict.status.success());
    assert!(String::from_utf8_lossy(&verdict.stdout).contains("EXCEEDS"));
}

#[test]
fn benchmark_json_and_readme_follow_the_tables() {
    let root = repo_root();
    let committed = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    assert_eq!(
        committed,
        pqgram_perf::cli::benchmark_json(),
        "BENCHMARK.json is stale: regenerate it with `perf benchmark-json`"
    );
    let doc = parse(&committed).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("an array")
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_owned()
            })
            .collect()
    };
    assert_eq!(names("workloads").len(), WORKLOADS.len());
    assert_eq!(names("end_to_end").len(), END_TO_END.len());
    assert_eq!(names("per_layer").len(), PER_LAYER.len());
    assert!(names("end_to_end").contains(&"setup_s".to_owned()));

    let readme = std::fs::read_to_string(root.join("perf/README.md")).expect("README.md");
    assert!(
        readme.contains(&pqgram_perf::metrics::glossary()),
        "perf/README.md glossary is stale: regenerate it with `perf glossary`"
    );
}

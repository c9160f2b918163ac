//! The command line: argument parsing, the printed sheet, the run file,
//! and the final JSON line the benchmark contract asks for.

use crate::metrics::{self, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads::{self, Cfg, Outcome};
use crate::{compare, json, trace};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perf --workload <lookup-hot|lookup-cold|ingest|edit-stream> --seed <u64> \
[--seconds <s>] [--trace [0|1]] [--smoke] [--out-dir <dir>] [--work-dir <dir>] [--commit <id>]
       perf compare <dirA> <dirB>
       perf glossary | benchmark-json";

/// Measured seconds per run when `--seconds` is absent; also what
/// `BENCHMARK.json` declares as `run_seconds`.
const DEFAULT_SECONDS: u64 = 15;

struct Args {
    workload: String,
    cfg: Cfg,
    out_dir: PathBuf,
    commit: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS as f64;
    let (mut trace, mut smoke) = (false, false);
    let mut out_dir = PathBuf::from("target/perf");
    let mut work_dir = None;
    let mut commit = String::from("unknown");
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(v.parse::<u64>().map_err(|e| format!("--seed {v}: {e}"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {v}: out of range (0, 600]"));
                }
            }
            // Bare `--trace` turns tracing on; the driver passes 0 or 1.
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => smoke = true,
            "--out-dir" => out_dir = PathBuf::from(value("--out-dir")?),
            "--work-dir" => work_dir = Some(PathBuf::from(value("--work-dir")?)),
            "--commit" => commit = value("--commit")?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = seed.ok_or("--seed is required")?;
    let work_dir =
        work_dir.unwrap_or_else(|| out_dir.join(format!("work-{workload}-{}", std::process::id())));
    Ok(Args {
        workload,
        cfg: Cfg {
            seed,
            seconds,
            trace,
            smoke,
            work_dir,
        },
        out_dir,
        commit,
    })
}

fn metrics_json(outcome: &Outcome, metrics: &[Metric], separator: &str) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                outcome.values.get(m.name),
                json::quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(separator))
}

/// The human-readable sheet: every metric by name with its unit.
fn render(args: &Args, outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {}  seed {}  seconds {}  trace {}  smoke {}",
        args.workload, args.cfg.seed, args.cfg.seconds, args.cfg.trace, args.cfg.smoke
    );
    for (key, value) in &outcome.notes {
        let _ = writeln!(out, "  {key:<28} {value}");
    }
    let sections = [
        (
            "end-to-end",
            " (from the untraced rounds of this traced run)",
            "",
            &END_TO_END[..],
        ),
        (
            "per-layer",
            "",
            " (counts only; probes and span metrics need --trace)",
            &PER_LAYER[..],
        ),
    ];
    for (title, traced_note, untraced_note, metrics) in sections {
        let note = if args.cfg.trace {
            traced_note
        } else {
            untraced_note
        };
        let _ = writeln!(out, "{title}{note}");
        for m in metrics {
            let value = outcome.values.get(m.name);
            let _ = writeln!(out, "  {:<40} {value:>16.4} {}", m.name, m.unit);
        }
    }
    if !outcome.trace_summary.is_empty() {
        let _ = writeln!(
            out,
            "trace: self time by operation\n{}",
            outcome.trace_summary
        );
    }
    let _ = writeln!(
        out,
        "ops_attempted {}  ops_failed {}",
        outcome.attempted, outcome.failed
    );
    if outcome.known_defect_hits > 0 {
        let _ = writeln!(
            out,
            "  NOTE: verify() rejected a valid bulk-loaded B+-tree {} time(s) (known defect, see README: Findings)",
            outcome.known_defect_hits
        );
    }
    for f in &outcome.failures {
        let _ = writeln!(out, "  FAILED: {f}");
    }
    for g in &outcome.gate_violations {
        let _ = writeln!(out, "  GATE VIOLATED: {g}");
    }
    out
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The run file `perf compare` reads: everything about one run.
fn run_file(args: &Args, outcome: &Outcome, correct: bool) -> String {
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json::quote(k), json::quote(v)))
        .collect();
    let all: Vec<Metric> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    format!(
        "{{\n\"workload\": {},\n\"seed\": {},\n\"seconds\": {},\n\"trace\": {},\n\"smoke\": {},\n\
         \"nproc\": {},\n\"commit\": {},\n\"correct\": {},\n\"attempted\": {},\n\"failed\": {},\n\
         \"notes\": {{{}}},\n\"metrics\": {}\n}}\n",
        json::quote(&args.workload),
        args.cfg.seed,
        args.cfg.seconds,
        args.cfg.trace,
        args.cfg.smoke,
        nproc(),
        json::quote(&args.commit),
        correct,
        outcome.attempted,
        outcome.failed,
        notes.join(", "),
        metrics_json(outcome, &all, ",\n  "),
    )
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("write {}: {e}", path.display()))
}

fn run_workload(args: &Args) -> Result<bool, String> {
    let outcome = workloads::run(&args.workload, &args.cfg)?;
    let reported: &[Metric] = if args.cfg.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let finite = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .all(|m| outcome.values.get(m.name).is_finite());
    let correct = outcome.failed == 0
        && outcome.attempted > 0
        && outcome.gate_violations.is_empty()
        && finite;

    let suffix = if args.cfg.trace { "-trace" } else { "" };
    write_file(
        &args.out_dir.join(format!("{}{suffix}.json", args.workload)),
        &run_file(args, &outcome, correct),
    )?;
    if args.cfg.trace {
        write_file(
            &args.out_dir.join(format!("trace-{}.jsonl", args.workload)),
            &trace::to_jsonl(&outcome.spans),
        )?;
    }
    print!("{}", render(args, &outcome));
    if !finite {
        println!("  FAILED: a metric is not a finite number");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&outcome, reported, ", ")
    );
    Ok(correct)
}

/// `BENCHMARK.json`, generated from the tables so the two cannot drift
/// (`tests/smoke.rs` compares this with the committed file).
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(w.name),
                json::quote(w.why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.as_str()),
                m.bound.unwrap_or(0.0)
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n  \"paths\": [\"perf\"],\n  \
         \"run_seconds\": {DEFAULT_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// Runs the command line `args` (without the program name).
pub fn run(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            match compare::run(Path::new(&args[1]), Path::new(&args[2])) {
                Ok(report) => {
                    print!("{report}");
                    ExitCode::SUCCESS
                }
                Err(report) => {
                    print!("{report}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("glossary") => {
            print!("{}", metrics::glossary());
            ExitCode::SUCCESS
        }
        Some("benchmark-json") => {
            print!("{}", benchmark_json());
            ExitCode::SUCCESS
        }
        _ => match parse_args(args).and_then(|a| run_workload(&a)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perf: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}

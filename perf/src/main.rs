//! The `perf` binary: see the crate documentation of `pqgram_perf`.
#![forbid(unsafe_code)]

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    pqgram_perf::cli::run(&args)
}

//! Runs one benchmark workload and prints the result line.
//!
//! ```text
//! perfbench --workload resnet18-cold|serve-mix
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root: the oracle reads
//! `results/bench_baseline.json`, and sockets, stores and traces go under
//! `.bench_out/`. The last line of standard output is the JSON result.

use std::process::ExitCode;
use std::time::Duration;

use sunstone_perfbench::library;
use sunstone_perfbench::{serve, RunOptions};

const USAGE: &str = "usage: perfbench --workload resnet18-cold|serve-mix \
                     --seed N --seconds S --trace 0|1";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1));
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        flag("--workload"),
        flag("--seed").and_then(|v| v.parse::<u64>().ok()),
        flag("--seconds").and_then(|v| v.parse::<u64>().ok()).filter(|&s| s > 0),
        flag("--trace").and_then(|v| match v.as_str() {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let scratch = std::path::PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let opts = RunOptions {
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        scratch,
    };
    let outcome = match workload.as_str() {
        "resnet18-cold" => library::run(&opts),
        "serve-mix" => serve::run(&opts),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(outcome) => {
            if let Some(e) = &outcome.run_error {
                println!("run failed: {e}");
            }
            println!("{}", outcome.result_line(trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

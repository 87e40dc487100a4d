//! `campaignbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints the result as one JSON line on stdout
//! (see the crate docs and README.md). Exits 2 on bad arguments and 1
//! when the benchmark cannot run at all.

use std::process::exit;

use campaignbench::fixture::ScratchDir;
use campaignbench::workload::{self, Bench};

struct Args {
    workload: &'static workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (one of: {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("invalid --seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("invalid --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("invalid --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("campaignbench: {e}");
        exit(2)
    });
    // Run dirs live inside the working directory and are removed again.
    let root = std::env::current_dir()
        .map(|dir| dir.join(".campaignbench-scratch").join(std::process::id().to_string()));
    let scratch = match root.and_then(ScratchDir::create) {
        Ok(scratch) => scratch,
        Err(e) => {
            eprintln!("campaignbench: cannot create the scratch directory: {e}");
            exit(1)
        }
    };
    let bench = Bench::new(*args.workload, args.seed, scratch);
    let report = if args.trace {
        bench.run_traced(args.seconds)
    } else {
        bench.run_end_to_end(args.seconds)
    };
    drop(bench);
    match report {
        Ok(report) => println!("{}", report.to_json_line()),
        Err(e) => {
            eprintln!("campaignbench: {e}");
            exit(1)
        }
    }
}

//! The repo's end-to-end benchmark: one invocation runs one workload in
//! a fresh process, verifies every response bit-exact against the
//! functional golden, and prints every metric by name with its unit.
//! See `benchmark/README.md`.

mod drive;
mod estimators;
mod json;
mod layers;
mod metrics;
mod probes;
mod repeat;
mod run;
mod schedule;
mod spans;
mod stack;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

use stack::Workload;

const USAGE: &str =
    "usage: eie-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
       eie-benchmark --repeat N [--seed N] [--seconds S] [--quick]
       eie-benchmark --list";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    repeat: Option<usize>,
    list: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        repeat: None,
        list: false,
    };
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                parsed.repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?)
            }
            "--quick" => parsed.quick = true,
            "--list" => parsed.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Where artifacts and traces go: `benchmark/out` when run from the
/// repository root (as the benchmark command is), `out` from inside
/// `benchmark/`.
fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for workload in Workload::all() {
            println!("workload {}", workload.name());
        }
        for def in metrics::END_TO_END {
            let bound = def.bound.expect("end-to-end metrics have bounds");
            println!(
                "end_to_end {} {} {} is better, bound {bound}",
                def.name,
                def.unit,
                def.better.name()
            );
        }
        for def in metrics::PER_LAYER {
            println!(
                "per_layer {} {} {} is better",
                def.name,
                def.unit,
                def.better.name()
            );
        }
        return ExitCode::SUCCESS;
    }
    // `--quick`: 3 s measured; otherwise BENCHMARK.json's run_seconds.
    let seconds = args.seconds.unwrap_or(if args.quick { 3.0 } else { 15.0 });
    if let Some(runs) = args.repeat {
        return if repeat::repeat(runs, args.seed, seconds, args.quick) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(name) = args.workload else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let Some(workload) = Workload::from_name(&name) else {
        eprintln!("unknown workload {name}; --list names them");
        return ExitCode::from(2);
    };
    let dir = out_dir().join(&name);
    println!(
        "# workload {name} seed {} seconds {seconds} trace {} quick {} threads_available {}",
        args.seed,
        u8::from(args.trace),
        args.quick,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let ((report, tally, correct), defs) = if args.trace {
        let result = layers::per_layer(workload, args.seed, seconds, args.quick, &dir);
        (result, metrics::PER_LAYER)
    } else {
        let result = run::end_to_end(workload, args.seed, seconds, args.quick, &dir);
        (result, metrics::END_TO_END)
    };
    report.emit(defs, tally, correct);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

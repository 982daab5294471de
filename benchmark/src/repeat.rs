//! `--repeat N`: every workload N times, each in a fresh process with
//! its own seed, and the run-to-run spread of every end-to-end metric
//! against its bound.

use std::process::Command;

use crate::estimators::{iqr_share, Spread};
use crate::json::{self, Json};
use crate::metrics::END_TO_END;
use crate::stack::Workload;

/// Runs one workload in a child process and returns its result line.
fn run_child(workload: &str, seed: u64, seconds: f64, quick: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()]);
    if quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}:\n{stdout}",
            output.status
        ));
    }
    let last = stdout.lines().last().ok_or("a run printed nothing")?;
    json::parse(last)
}

/// Prints, per workload and end-to-end metric, min / median / max over
/// the runs and the interquartile spread as a share of the median, next
/// to the metric's bound. Returns `false` if a run failed or reported an
/// incorrect result.
pub fn repeat(runs: usize, first_seed: u64, seconds: f64, quick: bool) -> bool {
    println!("# {runs} runs per workload, seeds {first_seed}.., {seconds} s measured per run");
    println!(
        "| workload | metric | unit | min | median | max | spread | bound |\n\
         |---|---|---|---:|---:|---:|---:|---:|"
    );
    let mut all_good = true;
    for workload in Workload::all() {
        let name = workload.name();
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for run in 0..runs {
            let seed = first_seed + run as u64;
            let result = match run_child(&name, seed, seconds, quick) {
                Ok(result) => result,
                Err(e) => {
                    println!("FAIL {e}");
                    all_good = false;
                    continue;
                }
            };
            if result.get("correct").and_then(Json::as_bool) != Some(true) {
                println!("FAIL {name} seed {seed} reported an incorrect result");
                all_good = false;
            }
            for (def, column) in END_TO_END.iter().zip(&mut values) {
                let value = result
                    .get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64);
                match value {
                    Some(value) => column.push(value),
                    None => {
                        println!("FAIL {name} seed {seed} did not report {}", def.name);
                        all_good = false;
                    }
                }
            }
        }
        for (def, column) in END_TO_END.iter().zip(&values) {
            if column.is_empty() {
                continue;
            }
            let spread = if column.len() >= 2 {
                format!("{:.4}", iqr_share(column))
            } else {
                "-".into()
            };
            let Spread { min, median, max } = Spread::of(column);
            println!(
                "| {name} | {} | {} | {min:.4} | {median:.4} | {max:.4} | {spread} | {} |",
                def.name,
                def.unit,
                def.bound.expect("end-to-end metrics have bounds"),
            );
        }
    }
    all_good
}

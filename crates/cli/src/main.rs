//! `eie` — the model-lifecycle command-line tool.
//!
//! The `.eie` artifact is the deployment unit of this reproduction:
//! compress once, then inspect/run/serve the same file anywhere. Four
//! subcommands cover that lifecycle:
//!
//! ```text
//! eie compress --zoo alex7 -o model.eie     build a versioned artifact
//! eie inspect model.eie                     headers, layers, footprint
//! eie run model.eie --backend native        run a batch from the file
//! eie serve --listen 127.0.0.1:7070 \
//!           --model fc6=a.eie --model fc7=b.eie
//!                                           network node: multi-model
//!                                           registry over TCP
//! eie serve --connect 127.0.0.1:7070 \
//!           --model fc6=a.eie --verify      load-generator client
//! ```
//!
//! Speed is measured elsewhere: `kernel_sweep`, `codec_sweep` and the
//! paper binaries in `eie-bench`, and the end-to-end `benchmark/`.
//!
//! Every subcommand takes `--help`. Exit codes: `0` success, `1`
//! runtime failure (unreadable/corrupt artifact, failed verification),
//! `2` usage error.

#![forbid(unsafe_code)]

mod commands;
mod opts;

use std::process::ExitCode;

use opts::Opts;

/// `println!` replacement that tolerates a closed stdout: piping into `head` (or any
/// reader that stops early) must not panic the process with a broken
/// pipe — it would break the documented 0/1/2 exit-code contract.
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}
pub(crate) use outln;

const USAGE: &str = "eie — compress, inspect, run and serve EIE model artifacts

USAGE:
    eie <COMMAND> [OPTIONS]

COMMANDS:
    compress    Compile a model into a versioned .eie artifact
    inspect     Print an artifact's header, topology and footprint
    run         Load an artifact and run a batch on a backend
    serve       Serve artifacts over TCP: --listen (multi-model node
                with LRU registry) or --connect (concurrent
                load-generator client)

Run `eie <COMMAND> --help` for per-command options.";

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        outln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args[0] == "--version" || args[0] == "-V" {
        outln!("eie {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    let command = args.remove(0);
    let opts = Opts::new(args);
    let result = match command.as_str() {
        "compress" => commands::compress::run(opts),
        "inspect" => commands::inspect::run(opts),
        "run" => commands::run::run(opts),
        "serve" => commands::serve::run(opts),
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}\n\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// A subcommand failure, split by exit code.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation (exit 2): unknown option, missing operand…
    Usage(String),
    /// The work itself failed (exit 1): I/O, corrupt artifact,
    /// verification mismatch…
    Runtime(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        // Option-scanner errors are usage errors.
        CliError::Usage(msg)
    }
}

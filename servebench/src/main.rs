//! `servebench`: the served-path benchmark's entry point.
//!
//! ```text
//! servebench --workload sitting_mixed|sitting_durable|analysis_dashboard
//!            --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Run from the repository root. `--trace 0` boots `mine serve` and
//! prints the end-to-end metrics; `--trace 1` hands over to the
//! `servebench-trace` binary for the per-layer run. The last line of
//! stdout is the JSON result; the exit code is non-zero when a
//! correctness check fails.

use std::process::{Command, ExitCode};

use servebench::report::{self, END_TO_END};
use servebench::served::{self, Context};
use servebench::Args;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("servebench: {err}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        return hand_over(&raw);
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("servebench: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let ctx = Context::prepare(args)?;
    let served = served::run(&ctx, args.seconds, ctx.scale.setups)?;
    for (name, _) in END_TO_END {
        served
            .metric(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
    }
    for failure in &served.failures {
        eprintln!("servebench: check failed: {failure}");
    }
    let correct = served.failures.is_empty() && served.failed == 0;
    report::print(
        &report::header(args),
        &served.notes,
        correct,
        served.attempted,
        served.failed,
        &served.metrics,
    );
    Ok(correct)
}

/// Builds the traced-run binary and runs it with the same arguments.
/// It is a separate binary so that an API change in a traced layer can
/// break only the traced run.
fn hand_over(raw: &[String]) -> ExitCode {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let built = Command::new(&cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "servebench-trace",
            "--manifest-path",
            manifest,
        ])
        .status();
    if !matches!(built, Ok(status) if status.success()) {
        eprintln!("servebench: building servebench-trace failed: {built:?}");
        return ExitCode::FAILURE;
    }
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("servebench: cannot locate the running binary");
        return ExitCode::FAILURE;
    };
    match Command::new(exe.with_file_name("servebench-trace"))
        .args(raw)
        .status()
    {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("servebench: running servebench-trace: {err}");
            ExitCode::FAILURE
        }
    }
}

//! Statistics and output: percentiles, the run header, one human line
//! per metric (name, value, unit, sample count) and the final JSON line.

use std::process::Command;

use crate::Args;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
    /// Observations behind the value.
    pub samples: usize,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// The end-to-end metrics every `--trace 0` run prints, with units.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("sittings_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("answer_p50_ms", "ms"),
    ("answer_p90_ms", "ms"),
    ("finish_p50_ms", "ms"),
    ("finish_p90_ms", "ms"),
    ("analysis_p50_ms", "ms"),
    ("batch_read_p50_ms", "ms"),
    ("analysis_reads_per_s", "1/s"),
    ("server_rss_mb", "MiB"),
];

/// Nearest-rank percentile `q` (0..=1) of sorted samples.
#[must_use]
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median of a non-empty list of measurements.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run header: machine, toolchain, revision, seed and workload.
#[must_use]
pub fn header(args: &Args) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    vec![
        format!(
            "run workload={} seed={} seconds={} trace={} smoke={}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            args.smoke
        ),
        format!(
            "host nproc={nproc} kernel={kernel} rustc=\"{}\" git={}",
            command_line("rustc", &["--version"]),
            command_line("git", &["rev-parse", "--short=12", "HEAD"])
        ),
        format!("why {}", args.workload.why()),
    ]
}

/// Prints the header, one line per metric, and the final JSON result
/// line (always the last line of stdout).
///
/// # Panics
///
/// On a non-finite metric value, which would be invalid JSON and means
/// a measurement is broken.
pub fn print(
    header: &[String],
    notes: &[String],
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) {
    for line in header {
        println!("# {line}");
    }
    for line in notes {
        println!("# {line}");
    }
    for m in metrics {
        println!(
            "metric {:<40} {:>16} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let error_rate = if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    };
    println!(
        "metric {:<40} {:>16} {:<6} n={attempted}",
        "error_rate", error_rate, "ratio"
    );
    let body = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}");
}

//! Served-path benchmark for `mine serve`.
//!
//! One load process drives the real server binary over loopback HTTP
//! from two client connections, each a closed loop with no think time:
//! a simulated student waits for every reply before the next click.
//! Three seeded workloads stress different layers (see [`Workload`]);
//! every run checks the server's outputs and prints each end-to-end
//! metric with its unit and sample count, then one JSON result line.
//!
//! The traced run (`--trace 1`, binary `servebench-trace`) replays the
//! same request streams in-process and times calls into each layer's
//! public functions from this package's own code.

pub mod actors;
pub mod bank;
pub mod procs;
pub mod report;
pub mod served;
pub mod wire;

use std::time::Duration;

/// The benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Back-to-back fixed and adaptive sittings on one journaled node
    /// with the server defaults: the per-request CPU path.
    SittingMixed,
    /// Fixed sittings on a primary and a quorum follower, both fsyncing
    /// every write: the durability layers.
    SittingDurable,
    /// Analysis reads over a 1,000-sitting class while a second client
    /// keeps re-sitting students: report assembly and serialization.
    AnalysisDashboard,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::SittingMixed,
        Workload::SittingDurable,
        Workload::AnalysisDashboard,
    ];

    /// Parses a `--workload` name.
    ///
    /// # Errors
    ///
    /// Names the accepted spellings.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                format!("unknown workload {name:?} (sitting_mixed, sitting_durable, analysis_dashboard)")
            })
    }

    /// The `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SittingMixed => "sitting_mixed",
            Workload::SittingDurable => "sitting_durable",
            Workload::AnalysisDashboard => "analysis_dashboard",
        }
    }

    /// Students the sitting clients cycle through in a full-size run.
    /// Resits replace a student's record, so server state stops growing
    /// once every student has sat once.
    #[must_use]
    pub fn roster(self) -> usize {
        match self {
            Workload::SittingMixed | Workload::SittingDurable => 100,
            Workload::AnalysisDashboard => 1000,
        }
    }

    /// Whether odd sittings are adaptive (CAT).
    #[must_use]
    pub fn adaptive(self) -> bool {
        self == Workload::SittingMixed
    }

    /// Whether a quorum follower replicates the primary.
    #[must_use]
    pub fn replicated(self) -> bool {
        self == Workload::SittingDurable
    }

    /// Whether the timed phase runs a dedicated analysis reader beside a
    /// sitter (the dashboard) rather than sittings then a review phase.
    #[must_use]
    pub fn dashboard(self) -> bool {
        self == Workload::AnalysisDashboard
    }

    /// Extra `mine serve` flags of the primary (beyond bank, address and
    /// data directory). Empty means the server defaults:
    /// `--fsync interval:100 --snapshot-every 512`.
    #[must_use]
    pub fn primary_flags(self) -> &'static [&'static str] {
        match self {
            Workload::SittingDurable => &[
                "--fsync",
                "always",
                "--repl-addr",
                "127.0.0.1:0",
                "--replicate",
                "ack=quorum",
            ],
            _ => &[],
        }
    }

    /// Why the workload exists and what it should and should not move.
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Workload::SittingMixed => {
                "per-request CPU path (parse, route, serialize, WAL write, delivery/CAT step, \
                 streamstats) with no device wait hiding it; fsync and replication changes should not move it"
            }
            Workload::SittingDurable => {
                "every write waits for a local fsync and a follower ack, so store and repl dominate; \
                 serialization and CAT changes should barely move it"
            }
            Workload::AnalysisDashboard => {
                "a read is report assembly plus response serialization over 1,000 sittings, with \
                 snapshots and batch-cache invalidation from a concurrent sitter; store/repl/CAT should not move it"
            }
        }
    }
}

/// Command-line arguments shared by both binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which traffic mix.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Seconds-long smoke mode: smaller classes, fewer set-ups.
    pub smoke: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--smoke]`.
    ///
    /// # Errors
    ///
    /// Describes the first missing or malformed flag.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut smoke = false;
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut value = || {
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value()?)?),
                "--seed" => {
                    seed = Some(
                        value()?
                            .parse::<u64>()
                            .map_err(|_| "--seed takes a whole number")?,
                    );
                }
                "--seconds" => {
                    let s = value()?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                        .ok_or("--seconds takes a positive number up to 600")?;
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                    };
                }
                "--smoke" => smoke = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            smoke,
        })
    }

    /// The run sizes for this mode.
    #[must_use]
    pub fn scale(&self) -> Scale {
        if self.smoke {
            Scale {
                setups: 1,
                warmup: Duration::from_millis(200),
                roster: if self.workload.dashboard() { 60 } else { 20 },
                cycles: 2,
                det_requests: 300,
                snapshot_every: 64,
            }
        } else {
            Scale {
                setups: if self.workload.dashboard() { 5 } else { 15 },
                warmup: Duration::from_secs(1),
                roster: self.workload.roster(),
                cycles: 10,
                det_requests: 1500,
                snapshot_every: 512,
            }
        }
    }
}

/// Run sizes that differ between a real run and the smoke mode.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Server launches per run; `setup_s` is their median.
    pub setups: usize,
    /// Unmeasured driving before the timed phase.
    pub warmup: Duration,
    /// Students the sitting clients cycle through; the dashboard class
    /// holds one finished sitting of each before timing starts.
    pub roster: usize,
    /// Sitting/review cycles of a sitting workload's timed phase (the
    /// dashboard's windows); metrics are medians over them.
    pub cycles: usize,
    /// Requests of the traced replay whose counts must repeat exactly.
    pub det_requests: usize,
    /// Snapshot cadence of the traced replay's journals: `mine serve`'s
    /// default, or small enough that a smoke run still snapshots.
    pub snapshot_every: u64,
}

/// SplitMix64 finalizer: derives independent seeds from one run seed.
#[must_use]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

//! Child processes and scratch files: building the binaries, launching
//! `mine serve` nodes, stopping them on every exit path, and the run's
//! data directory inside the checkout.

use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A node that has not printed its listening address within this long
/// has failed to come up.
pub const START_TIMEOUT: Duration = Duration::from_secs(60);

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const PR_SET_PDEATHSIG: i32 = 1;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// A memory line of `/proc/<pid>/status` (`VmRSS`, `VmHWM`) in MiB.
///
/// # Errors
///
/// When `/proc` does not report it.
pub fn memory_mb(pid: u32, field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|err| format!("reading /proc/{pid}/status: {err}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} in /proc/{pid}/status"))
}

/// The directory Cargo builds into: `CARGO_TARGET_DIR` when set (as a
/// path relative to the checkout root), else `target`.
#[must_use]
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

fn cargo() -> Command {
    Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
}

/// Builds `mine` from the checkout's sources (the current directory)
/// and returns the binary's path.
///
/// # Errors
///
/// The build failure.
pub fn build_mine() -> Result<PathBuf, String> {
    let status = cargo()
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "mine",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|err| format!("running cargo: {err}"))?;
    if !status.success() {
        return Err(format!("building mine failed ({status})"));
    }
    let binary = target_dir().join("release").join("mine");
    if !binary.is_file() {
        return Err(format!("built mine not found at {}", binary.display()));
    }
    Ok(binary)
}

/// Runs a short-lived command to completion, returning its stdout.
///
/// # Errors
///
/// A spawn failure, or a non-zero exit with the command's output.
pub fn run_tool(program: &Path, args: &[&str]) -> Result<String, String> {
    let output = Command::new(program)
        .args(args)
        .output()
        .map_err(|err| format!("running {}: {err}", program.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        return Err(format!(
            "{} {} exited {}:\n{stdout}{}",
            program.display(),
            args.join(" "),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(stdout)
}

/// The run's scratch directory under the checkout, removed on drop.
#[derive(Debug)]
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Creates `.bench_data/servebench-<pid>` under the current
    /// directory.
    ///
    /// # Errors
    ///
    /// The I/O error.
    pub fn create() -> Result<Self, String> {
        let path = PathBuf::from(".bench_data").join(format!("servebench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|err| format!("creating {}: {err}", path.display()))?;
        Ok(Self { path })
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh (emptied) subdirectory.
    ///
    /// # Errors
    ///
    /// The I/O error.
    pub fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.path.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|err| format!("creating {}: {err}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Only removes the parent when no other run is using it.
        let _ = self.path.parent().map(std::fs::remove_dir);
    }
}

/// A running `mine serve` node. Dropping it kills the process and waits
/// for it, so no exit path (error, panic) leaves a server behind; the
/// kernel also kills it if this process dies first.
#[derive(Debug)]
pub struct Node {
    child: Child,
    stdout: Option<JoinHandle<()>>,
    /// The exact command line, for the run header.
    pub argv: String,
    /// Client-facing address.
    pub addr: String,
    /// Replication listener address, when the node ships its WAL.
    pub repl_addr: Option<String>,
    log: PathBuf,
}

impl Node {
    /// Launches `mine serve` and waits until it prints its listening
    /// address (and replication address, when `--repl-addr` is given).
    ///
    /// # Errors
    ///
    /// A launch failure, an early exit, or no address within
    /// [`START_TIMEOUT`] (with the node's stderr).
    pub fn launch(mine: &Path, args: &[String], log: &Path) -> Result<Self, String> {
        let stderr = std::fs::File::create(log)
            .map_err(|err| format!("creating {}: {err}", log.display()))?;
        let mut command = Command::new(mine);
        command
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr);
        // SAFETY: `prctl(PR_SET_PDEATHSIG)` only sets an attribute of the
        // forked child; it allocates nothing and takes no locks, so it is
        // safe between fork and exec.
        unsafe {
            command.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL as libc_ulong);
                Ok(())
            });
        }
        let mut child = command
            .spawn()
            .map_err(|err| format!("launching {}: {err}", mine.display()))?;
        let argv = format!("mine serve {}", args.join(" "));
        let (sender, lines) = mpsc::channel();
        let stdout = child.stdout.take().expect("stdout is piped");
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if sender.send(line).is_err() {
                    // Nobody listens any more; keep draining the pipe.
                    continue;
                }
            }
        });
        let mut node = Self {
            child,
            stdout: Some(reader),
            argv,
            addr: String::new(),
            repl_addr: None,
            log: log.to_path_buf(),
        };
        let wants_repl = args.iter().any(|a| a == "--repl-addr");
        let deadline = Instant::now() + START_TIMEOUT;
        while node.addr.is_empty() || (wants_repl && node.repl_addr.is_none()) {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match lines.recv_timeout(remaining.min(Duration::from_millis(100))) {
                Ok(line) => {
                    if let Some(rest) = line.strip_prefix("listening on http://") {
                        node.addr = rest
                            .split_whitespace()
                            .next()
                            .unwrap_or_default()
                            .to_string();
                    } else if let Some(rest) = line.strip_prefix("replication listener on ") {
                        node.repl_addr = Some(rest.trim().to_string());
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if let Ok(Some(status)) = node.child.try_wait() {
                        return Err(format!(
                            "{} exited {status} before listening:\n{}",
                            node.argv,
                            node.log_tail()
                        ));
                    }
                    if remaining.is_zero() {
                        return Err(format!(
                            "{} did not come up within {START_TIMEOUT:?}:\n{}",
                            node.argv,
                            node.log_tail()
                        ));
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    let _ = node.child.wait();
                    return Err(format!(
                        "{} closed stdout before listening:\n{}",
                        node.argv,
                        node.log_tail()
                    ));
                }
            }
        }
        Ok(node)
    }

    /// The process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the node to drain (SIGTERM) and waits for it; kills it if it
    /// has not exited within `timeout`.
    ///
    /// # Errors
    ///
    /// When it had to be killed or exited unsuccessfully.
    pub fn stop(mut self, timeout: Duration) -> Result<(), String> {
        self.signal(SIGTERM);
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return check_exit(&self.argv, status, &self.log_tail()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err(format!("{} did not drain within {timeout:?}", self.argv)),
            }
        }
    }

    fn signal(&self, sig: i32) {
        let Ok(pid) = i32::try_from(self.child.id()) else {
            return;
        };
        // SAFETY: `kill(2)` on our own child, which has not been reaped
        // (we still own its `Child`), so the pid cannot have been reused.
        unsafe {
            kill(pid, sig);
        }
    }

    fn log_tail(&self) -> String {
        let text = std::fs::read_to_string(&self.log).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(20)..].join("\n")
    }
}

#[allow(non_camel_case_types)]
type libc_ulong = std::ffi::c_ulong;

fn check_exit(argv: &str, status: ExitStatus, log: &str) -> Result<(), String> {
    if status.success() {
        Ok(())
    } else {
        Err(format!("{argv} exited {status}:\n{log}"))
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.signal(SIGKILL);
        }
        let _ = self.child.wait();
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

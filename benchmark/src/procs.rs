//! Child processes, memory high-water marks, and scratch space.
//!
//! Every process a workload starts (the evald fleet, `autofp serve`) is
//! owned by a guard whose drop kills and reaps it, and the scratch
//! directory (trial stores, artifacts) is removed the same way, so a
//! failed check or a panic leaves nothing behind. After a workload,
//! [`children`] must be empty.

use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// Peak resident set (`VmHWM`) of a process in KiB; `pid` is a number or
/// `"self"`.
pub fn hwm_kib(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Live children of this process, from every thread's `children` list.
pub fn children() -> Vec<u32> {
    let mut pids = Vec::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return pids;
    };
    for task in tasks.flatten() {
        if let Ok(list) = std::fs::read_to_string(task.path().join("children")) {
            pids.extend(list.split_whitespace().filter_map(|p| p.parse::<u32>().ok()));
        }
    }
    pids.sort_unstable();
    pids.dedup();
    pids
}

/// Sum of the current children's peak resident sets, in KiB.
pub fn children_hwm_kib() -> u64 {
    children().iter().filter_map(|pid| hwm_kib(&pid.to_string())).sum()
}

/// A binary built into the same directory as this executable.
pub fn sibling_binary(name: &str) -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let path = exe.with_file_name(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    if path.is_file() {
        Ok(path)
    } else {
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} not found; build it with `cargo build --release -p autofp --bins`",
                path.display()
            ),
        ))
    }
}

/// A directory under `.bench_tmp` in the working directory, removed
/// (with the parent, once empty) when dropped.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn new(tag: &str) -> io::Result<Scratch> {
        let path = Path::new(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The stdout line `autofp serve` prints once bound, followed by the
/// address.
const SERVE_READY: &str = "autofp serve listening on ";

/// A running `autofp serve` child; dropping it kills and reaps it.
pub struct ServeProcess {
    child: Child,
    // Held open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServeProcess {
    /// Start `autofp serve` on `artifact` with one prediction thread and
    /// wait for its ready line.
    pub fn spawn(autofp: &Path, artifact: &Path) -> io::Result<ServeProcess> {
        let mut child = Command::new(autofp)
            .arg("serve")
            .arg("--artifact")
            .arg(artifact)
            .args(["--threads", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("autofp serve stdout was not captured"));
        };
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let ready = reader.read_line(&mut line);
        match (ready, line.strip_prefix(SERVE_READY)) {
            (Ok(_), Some(addr)) => {
                let addr = addr.trim().to_string();
                Ok(ServeProcess { child, _stdout: reader, addr })
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!("autofp serve did not report ready: {line:?}")))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Wait for the process to exit on its own (after a `Shutdown`).
    pub fn wait(mut self) -> io::Result<std::process::ExitStatus> {
        self.child.wait()
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

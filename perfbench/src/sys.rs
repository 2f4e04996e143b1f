//! What the benchmark reads from the operating system: resident-set
//! sizes from `/proc/self/status` and the run's provenance stamp.

use std::path::Path;

/// Resident-set sizes of this process, in bytes.
#[derive(Debug, Clone, Copy)]
pub struct Rss {
    /// `VmRSS`: resident now.
    pub current: u64,
    /// `VmHWM`: peak resident since start or the last [`reset_peak`].
    pub peak: u64,
}

/// Read `VmRSS` and `VmHWM`.
pub fn rss() -> Result<Rss, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let field = |key: &str| -> Result<u64, String> {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse::<u64>().ok())
            .map(|kb| kb * 1024)
            .ok_or_else(|| format!("no {key} in /proc/self/status"))
    };
    Ok(Rss {
        current: field("VmRSS:")?,
        peak: field("VmHWM:")?,
    })
}

/// Reset `VmHWM` to the current resident size, so the next [`rss`]
/// reports the peak of the phase that follows.
pub fn reset_peak() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset VmHWM through /proc/self/clear_refs: {e}"))
}

extern "C" {
    /// glibc: return the allocator's free memory to the operating system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand memory the allocator keeps after `free` back to the operating
/// system, so that a phase measured after it cannot reuse set-up's
/// freed memory and hide its own growth from `VmRSS`/`VmHWM`.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` takes a plain integer, touches only the
    // allocator's own free lists, and is safe to call at any time from
    // any thread in a glibc process, which every Linux target here is.
    unsafe {
        malloc_trim(0);
    }
}

/// Provenance printed with every result.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Commit of the measured tree, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// Threads the machine offers (`available_parallelism`).
    pub nproc: usize,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
}

impl Stamp {
    /// Collect the stamp from the working directory and toolchain.
    pub fn collect() -> Stamp {
        Stamp {
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".to_string()),
            nproc: nproc(),
            rustc: std::process::Command::new("rustc")
                .arg("--version")
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// Threads the machine offers; the benchmark never uses more.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resolve `HEAD` by reading the git directory, without running git.
fn git_rev(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

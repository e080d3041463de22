//! What the benchmark reads about its own process and build: CPU time,
//! peak memory and provenance.

use std::process::Command;

/// CPU time of every live thread of this process but the calling one (the
/// load generator), in nanoseconds, from `/proc/self/task/*/schedstat`
/// (nanosecond resolution, unlike the tick counts in `/proc/self/stat`).
/// Threads that exit in between are lost, so callers bracket spans in
/// which the thread set is fixed.
pub fn server_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    // `/proc/thread-self` links to `<pid>/task/<tid>` of the caller.
    let caller = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|link| link.file_name().map(|tid| tid.to_owned()));
    tasks
        .flatten()
        .filter(|task| Some(task.file_name()) != caller)
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|line| line.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// CPU time the hypervisor has stolen from the virtual CPUs since boot,
/// summed over them, in `/proc/stat` ticks (1/100 s); 0 where it is not
/// reported.
pub fn steal_ticks() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0;
    };
    // cpu user nice system idle iowait irq softirq steal ...
    stat.lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    Some(text.lines().next()?.trim().to_owned())
}

/// The checked-out commit, when the benchmark runs inside a git work tree.
pub fn commit() -> String {
    first_line_of("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git work tree)".into())
}

pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// FNV-1a over the product crates' sources (paths and bytes, in path
/// order): identifies the measured code when no commit is available.
pub fn source_digest(root: &std::path::Path) -> String {
    fn collect(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                collect(&path, files);
            } else if path
                .extension()
                .is_some_and(|ext| ext == "rs" || ext == "toml")
            {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    collect(&root.join("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        let name = path.strip_prefix(root).unwrap_or(path).to_string_lossy();
        for &byte in name.as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x} over {} files", files.len())
}

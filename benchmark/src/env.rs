//! The environment block attached to every result, so no number is ever
//! again "from an unlabeled host".

use std::process::Command;

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `"key": value` pairs describing the host and the build, as JSON fields.
pub fn fields() -> Vec<(&'static str, String)> {
    let quoted = |s: String| format!("\"{}\"", s.replace(['"', '\\'], "'"));
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("cpu_model", quoted(cpu_model())),
        ("avx2", btr_bitpacking::simd::avx2_available().to_string()),
        ("rustc", quoted(first_line("rustc", &["--version"]))),
        (
            "git_rev",
            quoted(first_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
    ]
}

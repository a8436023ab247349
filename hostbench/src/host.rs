//! Host fingerprint and process memory, stamped on every result record so a
//! figure is never read without the machine and toolchain that produced it.

use std::process::Command;

use crate::report::Json;

/// The machine and build a result came from.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Runtime-detected instruction-set extensions the kernels may use.
    pub avx2: bool,
    /// AVX-512 VNNI.
    pub avx512vnni: bool,
    /// AVX-VNNI (the VEX-encoded 256-bit form).
    pub avxvnni: bool,
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// `rustc --version` of the compiler that built this binary.
    pub rustc: String,
    /// Commit of the source tree, or `unknown` outside a git checkout.
    pub git_sha: String,
}

impl Fingerprint {
    /// Detects the current host.
    pub fn detect() -> Fingerprint {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        #[cfg(target_arch = "x86_64")]
        let (avx2, avx512vnni, avxvnni) = (
            std::is_x86_feature_detected!("avx2"),
            std::is_x86_feature_detected!("avx512vnni"),
            std::is_x86_feature_detected!("avxvnni"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, avx512vnni, avxvnni) = (false, false, false);
        // `output` waits for the child, so no process outlives the call. The
        // ceiling keeps git from reading any repository above the working
        // directory.
        let ceiling = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(|p| p.to_path_buf()))
            .unwrap_or_default();
        let git_sha = Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            cpu,
            avx2,
            avx512vnni,
            avxvnni,
            nproc: nbsmt_tensor::exec::available_threads(),
            rustc: env!("HOSTBENCH_RUSTC").to_string(),
            git_sha,
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("cpu", Json::str(&self.cpu)),
            ("avx2", Json::Bool(self.avx2)),
            ("avx512vnni", Json::Bool(self.avx512vnni)),
            ("avxvnni", Json::Bool(self.avxvnni)),
            ("nproc", Json::Num(self.nproc as f64)),
            ("rustc", Json::str(&self.rustc)),
            ("git_sha", Json::str(&self.git_sha)),
        ])
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`), or
/// `None` where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

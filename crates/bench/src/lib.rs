//! # bench — experiment harness regenerating every table and figure
//!
//! * [`experiments`] — one function per paper artifact (Figure 3,
//!   Figures 4/5, Figure 7, Figures 8/9, Tables 2/4), each running the
//!   named configurations on the simulated platform at paper scale
//!   (37 in situ steps, 5 trials);
//! * [`render`] — plain-text tables matching the paper's rows/series.
//!
//! The `repro` binary drives both:
//! `cargo run -p bench --bin repro -- all`.

#![warn(missing_docs)]

pub mod experiments;
pub mod render;

/// `git describe --always --dirty` of the checkout a bench runs in —
/// the `commit` field of the `BENCH_*.json` files.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |text| text.trim().to_string())
}

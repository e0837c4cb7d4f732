//! The repo's benchmark: four workloads, six end-to-end metrics each, and
//! a traced run that prices every layer. See `README.md` beside
//! `Cargo.toml` for what is measured and why.

pub mod agree;
pub mod cli;
pub mod faults;
pub mod host;
pub mod json;
pub mod lab;
pub mod oracle;
pub mod reference;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Where the traced run writes its Chrome-trace files: `out/` beside the
/// benchmark's `Cargo.toml`, inside the checkout.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

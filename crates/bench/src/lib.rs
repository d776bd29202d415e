//! Shared plumbing for the benchmark harness.
//!
//! Each bench target in `benches/` times kernels of the simulator, the
//! analysis or the defense with Criterion. The deterministic paper
//! artifacts are not written here: `jgre all --paper --out artifacts`
//! regenerates them. The five wall-clock benches (`fleet`, `fuzz`,
//! `streaming`, `incremental`, `pathsense`) also write their measured
//! throughput or overhead to `artifacts/` through [`write_artifact`].

use std::fs;
use std::path::PathBuf;

use serde::Serialize;

/// Directory the artifacts land in: `<workspace>/artifacts`.
pub fn artifact_dir() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // workspace root
    dir.push("artifacts");
    dir
}

/// Writes `artifacts/<name>.txt` (the rendered table/series) and
/// `artifacts/<name>.json` (the raw data).
///
/// # Panics
///
/// Panics when the artifact directory cannot be created or written —
/// a broken harness should fail loudly, not silently skip artifacts.
pub fn write_artifact<T: Serialize>(name: &str, data: &T, rendered: &str) {
    let dir = artifact_dir();
    fs::create_dir_all(&dir).expect("create artifacts dir");
    fs::write(dir.join(format!("{name}.txt")), rendered).expect("write rendered artifact");
    let json = serde_json::to_string_pretty(data).expect("experiment structs serialise");
    fs::write(dir.join(format!("{name}.json")), json).expect("write json artifact");
    eprintln!("[artifact] {name}: {}", dir.join(name).display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_dir_is_inside_workspace() {
        let dir = artifact_dir();
        assert!(dir.ends_with("artifacts"));
        assert!(dir.parent().unwrap().join("Cargo.toml").exists());
    }
}

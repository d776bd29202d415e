//! Records the toolchain and source revision the benchmark was built
//! from, for the host fingerprint printed beside every result.

use std::process::Command;

fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    let line = text.lines().next()?.trim().to_owned();
    (!line.is_empty()).then_some(line)
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let rustc_version = first_line(&rustc, &["-V"]).unwrap_or_else(|| "unknown".to_owned());
    // A source tarball or an exported tree has no .git: say so rather than
    // guess a revision.
    let commit = first_line("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned());
    println!("cargo:rustc-env=PERFBENCH_RUSTC_VERSION={rustc_version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
    // Re-record the revision when it moves; watching a missing path
    // would rerun this script on every build.
    let head = std::path::Path::new("../.git/HEAD");
    if let Ok(text) = std::fs::read_to_string(head) {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        if let Some(reference) = text.trim().strip_prefix("ref: ") {
            let path = format!("../.git/{reference}");
            if std::path::Path::new(&path).exists() {
                println!("cargo:rerun-if-changed={path}");
            }
        }
    }
}

//! Workspace scoping: which lints apply to which files.
//!
//! The determinism lints are properties of the *library* crates every
//! simulation result flows through. Tool crates (bench, testutil, the
//! analyzer itself), vendored dependency stand-ins, and test/example
//! code are out of scope — benches legitimately read the wall clock,
//! tests legitimately unwrap.

use crate::lints::FileSpec;

/// Tool crates: not part of the deterministic result path, skipped
/// entirely (their hygiene is covered by clippy, not by this gate).
const TOOL_CRATES: &[&str] = &["crates/bench/", "crates/testutil/", "crates/analyzer/"];

/// The no-panic hot paths: the machine receive path, the transport /
/// fault layer every frame crosses, the farm's admission + dispatch
/// path every escalation is serviced by, and the whole sparse solver.
const PANIC_HOT_FILES: &[&str] = &[
    "crates/core/src/machine.rs",
    "crates/bandwidth/src/transport.rs",
    "crates/bandwidth/src/fault.rs",
    "crates/farm/src/farm.rs",
];
const PANIC_HOT_PREFIXES: &[&str] = &["crates/sparse/src/"];

/// Classifies a workspace-relative path (`/`-separated). `None` means
/// the file is out of scope and is not scanned.
#[must_use]
pub fn classify(rel: &str) -> Option<FileSpec> {
    if rel.starts_with("vendor/") || rel.starts_with("target/") {
        return None;
    }
    if TOOL_CRATES.iter().any(|p| rel.starts_with(p)) {
        return None;
    }
    // Library sources only: integration tests, examples, and benches
    // may unwrap and time things freely.
    let in_lib_src = rel.starts_with("src/")
        || (rel.starts_with("crates/") && rel.split('/').nth(2) == Some("src"));
    if !in_lib_src {
        return None;
    }
    Some(FileSpec {
        determinism: true,
        // btwc-pool is the one crate allowed to touch std::thread.
        det_spawn: !rel.starts_with("crates/pool/"),
        panic_hot: PANIC_HOT_FILES.contains(&rel)
            || PANIC_HOT_PREFIXES.iter().any(|p| rel.starts_with(p)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping_matches_the_lint_catalog() {
        assert!(classify("vendor/rand/src/lib.rs").is_none());
        assert!(classify("crates/bench/src/bin/fig11.rs").is_none());
        assert!(classify("crates/analyzer/src/lints.rs").is_none());
        assert!(classify("crates/sparse/tests/properties.rs").is_none());
        assert!(classify("examples/quickstart.rs").is_none());

        let core = classify("crates/core/src/machine.rs").expect("in scope");
        assert!(core.panic_hot && core.determinism && core.det_spawn);
        let sparse = classify("crates/sparse/src/blossom.rs").expect("in scope");
        assert!(sparse.panic_hot);
        let pool = classify("crates/pool/src/pool.rs").expect("in scope");
        assert!(!pool.det_spawn && pool.determinism && !pool.panic_hot);
        let farm = classify("crates/farm/src/farm.rs").expect("in scope");
        assert!(farm.panic_hot && farm.determinism && farm.det_spawn);
        let root = classify("src/lib.rs").expect("in scope");
        assert!(root.determinism && !root.panic_hot);
    }
}

//! The figure record: every deterministic figure/table binary, run at
//! `BTWC_SCALE=0.02`, must print exactly its checked-in golden under
//! `tests/goldens/`.
//!
//! The bins are deterministic in their seeds for any `BTWC_WORKERS`,
//! so a diff here is a behaviour change (a tie-break, a sampler change,
//! a model change), never noise. `ablate_hierarchy` pins only what it
//! prints before its host-time table.
//!
//! Release-only: in a debug build `fig09` alone takes seconds. Run with
//! `cargo test --release -p btwc-bench --test figure_goldens`.
//!
//! A change that moves a figure on purpose regenerates the goldens from
//! the repository root, and says why:
//!
//! ```sh
//! cargo build --release -p btwc-bench --bins
//! for b in table1 fig04 fig09 fig11 fig12 fig13 fig14 fig15 fig16 ablate_rounds; do
//!     BTWC_SCALE=0.02 target/release/$b > crates/bench/tests/goldens/$b.txt
//! done
//! BTWC_SCALE=0.02 target/release/ablate_hierarchy | sed '/^## Host/,$d' \
//!     > crates/bench/tests/goldens/ablate_hierarchy.txt
//! ```

use std::process::Command;

/// The heading of `ablate_hierarchy`'s host-time table: it and
/// everything after it vary run to run.
const HOST_TIME_HEADING: &str = "## Host";

fn check(name: &str, exe: &str) {
    let out = Command::new(exe).env("BTWC_SCALE", "0.02").output().expect("figure bin runs");
    assert!(out.status.success(), "{name} exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("figure output is UTF-8");
    let pinned = stdout.find(HOST_TIME_HEADING).map_or(&stdout[..], |i| &stdout[..i]);
    let path = format!("{}/tests/goldens/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).expect("golden file exists");
    if pinned != golden {
        let (line, (got, want)) = pinned
            .lines()
            .chain(std::iter::once("<end of output>"))
            .zip(golden.lines().chain(std::iter::once("<end of golden>")))
            .enumerate()
            .find(|(_, (got, want))| got != want)
            .unwrap_or((0, ("<line endings differ>", "")));
        panic!("{name} differs from {path} at line {}:\n  got:  {got}\n  want: {want}", line + 1);
    }
}

macro_rules! golden_tests {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        #[cfg_attr(debug_assertions, ignore = "release-only: run with --release")]
        fn $name() {
            check(stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))));
        }
    )*};
}

golden_tests!(
    table1,
    fig04,
    fig09,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    ablate_rounds,
    ablate_hierarchy,
);

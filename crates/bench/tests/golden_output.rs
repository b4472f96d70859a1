//! Golden-output test of the `repro` binary: `repro all` must print exactly the
//! committed `tests/golden/repro_all.txt`, byte for byte.
//!
//! Every experiment is seeded and its output carries no wall-clock figure, so the
//! bytes are the same in debug and release builds and at any thread count. A change
//! that is meant to leave results alone (a refactor, a deletion, a speed-up) must
//! keep this test passing unchanged; a change that is meant to move a number
//! regenerates the file with `repro all > crates/bench/tests/golden/repro_all.txt`
//! and says why.

use std::process::Command;

const GOLDEN: &str = include_str!("golden/repro_all.txt");

#[test]
fn repro_all_matches_golden_output() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("all")
        .output()
        .expect("spawn repro");
    assert!(
        output.status.success(),
        "repro all failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let actual = String::from_utf8(output.stdout).expect("repro prints UTF-8");
    // Line by line first, so a mismatch names the first differing line.
    for (i, (got, expected)) in actual.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(
            got,
            expected,
            "repro all differs from the golden output at line {}",
            i + 1
        );
    }
    assert_eq!(
        actual, GOLDEN,
        "repro all output length differs from the golden output"
    );
}

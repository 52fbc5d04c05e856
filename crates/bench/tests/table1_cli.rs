//! `table1` runs no campaign, so a trial count on its command line is an
//! error, not a value it silently ignores.

use std::process::Command;

#[test]
fn trial_counts_exit_2_before_any_table() {
    for args in [&["--trials", "5"][..], &["500"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_table1"))
            .args(args)
            .output()
            .expect("table1 starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr:?}");
    }
}

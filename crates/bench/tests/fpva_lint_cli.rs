//! `fpva-lint` refuses check names it does not know, before any pass runs.

use std::process::Command;

use fpva_bench::lint::CHECKS;

#[test]
fn unknown_check_names_exit_2_with_the_list() {
    // A typo, and a name no pass emits.
    for name in ["certfy", "symmetry"] {
        for flag in ["--only", "--allow"] {
            let out = Command::new(env!("CARGO_BIN_EXE_fpva-lint"))
                .args([flag, name, "--deny-warnings"])
                .output()
                .expect("fpva-lint starts");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{flag} {name}: {stderr}");
            assert!(out.stdout.is_empty(), "{flag} {name} printed a table");
            for check in CHECKS {
                assert!(
                    stderr.contains(check),
                    "{flag} {name}: {stderr:?} lacks {check}"
                );
            }
        }
    }
}

//! A binary whose stdout reader has gone stops quietly, with the status a
//! shell reports for a process killed by `SIGPIPE`, instead of panicking
//! inside `println!`.

use std::process::{Command, Stdio};

use fpva_bench::BROKEN_PIPE_STATUS;

#[test]
fn closed_stdout_exits_141_without_a_panic() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    // With the read end gone before the spawn, the first line fails.
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--threads", "1"])
        .stdout(Stdio::from(writer))
        .output()
        .expect("table1 starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(BROKEN_PIPE_STATUS), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

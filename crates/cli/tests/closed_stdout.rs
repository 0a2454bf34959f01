//! The `obx` binary writing into a pipe whose reader has gone
//! (`obx validate <dir> | head -0`): the output ends there, with no panic,
//! and the process exits with the command's own code.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_keeps_the_commands_exit_code_and_never_panics() {
    let dir = std::env::temp_dir().join(format!("obx-closed-stdout-{}", std::process::id()));
    let dir_arg = dir.to_string_lossy().into_owned();
    obx_cli::run(&["init".to_owned(), dir_arg.clone()]).expect("init writes the paper scenario");
    // `validate` warns about the unused STUD relation (exit 2); `explain`
    // completes (exit 0). Both print only after loading the scenario.
    for (command, code) in [("validate", 2), ("explain", 0)] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_obx"))
            .args([command, &dir_arg])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("obx starts");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("obx exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "obx {command}: {stderr}");
        assert_eq!(out.status.code(), Some(code), "obx {command}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

//! Separate OS processes inside tier-1: a test starts its own test
//! binary again, filtered to that one test, with its role in the
//! environment (the crash/resume children of `checkpoint_equivalence`,
//! the worker processes of `net_conformance`, the tenant processes of
//! `service_conformance`). The role variables are private to the suites.

use std::process::{Child, Command, Output, Stdio};

/// Start this test binary again running exactly `test_name` with `env`
/// set; its output is captured for the parent's assertion messages.
pub fn spawn_self(test_name: &str, env: &[(&str, &str)]) -> Child {
    Command::new(std::env::current_exe().expect("no current_exe"))
        .args([test_name, "--exact", "--nocapture"])
        .envs(env.iter().copied())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cannot re-exec the test binary")
}

/// Everything a child printed, for an assertion message.
pub fn printed(out: &Output) -> String {
    format!(
        "{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

/// Wait for `child`; if it failed, fail with everything it printed.
pub fn expect_success(child: Child, what: &str) {
    let out = child.wait_with_output().expect("wait for child process");
    assert!(out.status.success(), "{what} failed:\n{}", printed(&out));
}

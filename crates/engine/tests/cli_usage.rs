//! Bad command-line values must end in a usage error (exit status 2 and a
//! message on stderr), never in a panic inside the library.

use std::process::Command;

/// Runs the engine binary with `args` and returns its exit code and
/// stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gpsched-engine"))
        .args(args)
        .output()
        .expect("the engine binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn zero_ops_is_a_usage_error() {
    for args in [
        &["gen", "--preset", "wide-ilp", "--ops", "0"][..],
        &["export", "--synth", "2", "--ops", "0"][..],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("error: --ops needs a positive count"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

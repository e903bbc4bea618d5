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

#[test]
fn profile_refuses_the_sweep_flags_it_would_ignore() {
    // `profile` always traces and writes no records, so `--out`, `--quiet`
    // and `--trace` would be accepted and then ignored.
    let out = std::env::temp_dir().join(format!("gpsched-profile-{}.jsonl", std::process::id()));
    let out = out.to_str().expect("a UTF-8 temp path");
    for flag in [&["--out", out][..], &["--quiet"], &["--trace"]] {
        let mut args = vec![
            "profile",
            "--gen",
            "mem-bound:2:1",
            "--machines",
            "c2r32b1l1",
        ];
        args.extend(["--algos", "gp"]);
        args.extend(flag);
        let (code, stderr) = run(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        let refused = format!("error: unknown option `{}`", flag[0]);
        assert!(stderr.contains(&refused), "{args:?}: {stderr}");
    }
    assert!(!std::path::Path::new(out).exists(), "profile wrote {out}");
}

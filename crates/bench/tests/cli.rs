//! End-to-end tests of the `--dims` checks of the fault sweeps and the
//! chaos harness: a dimension the binary's construction rejects exits 2
//! with the construction's message and the usage line before any sweep
//! or trial starts.

use std::process::Command;

/// Runs `bin` with `args`; returns its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (i32, String) {
    let out = Command::new(bin).args(args).output().expect("spawn the experiment binary");
    let code = out.status.code().expect("terminated by a signal");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn bad_dims_exit_2_before_any_trial() {
    let (e12, e18) = (env!("CARGO_BIN_EXE_e12_faults"), env!("CARGO_BIN_EXE_e18_scale"));
    let chaos = env!("CARGO_BIN_EXE_chaos_soak");
    let cases: [(&str, &[&str], &str); 8] = [
        (e12, &["--dims", "3"], "Theorem 1 requires n >= 4"),
        (e12, &["--dims", "8,28"], "Q_14 is out of range"),
        (e18, &["--dims", "3"], "Theorem 1 requires n >= 4"),
        (e18, &["--dims", "28"], "Q_14 is out of range"),
        (chaos, &["--dims", "3"], "Theorem 1 requires n >= 4"),
        (chaos, &["--dims", "29"], "Q_14 is out of range"),
        (chaos, &["--tenants", "--dims", "4"], "tenants chaos needs dims >= 6"),
        (chaos, &["--tenants", "--dims", "5"], "tenants chaos needs dims >= 6"),
    ];
    for (bin, args, message) in cases {
        let (code, stderr) = run(bin, &[args, &["--trials", "1"]].concat());
        assert_eq!(code, 2, "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(message), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage: <experiment>"), "{bin} {args:?}: {stderr}");
    }
}

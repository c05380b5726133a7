//! End-to-end tests of the fault-sweep binaries' `--dims` check: a
//! dimension the Theorem 1 construction rejects exits 2 with the
//! construction's message and the usage line before any sweep starts.

use std::process::Command;

/// Runs `bin` with `args`; returns its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (i32, String) {
    let out = Command::new(bin).args(args).output().expect("spawn the experiment binary");
    let code = out.status.code().expect("terminated by a signal");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn fault_sweeps_reject_dims_theorem1_rejects() {
    let cases = [
        (env!("CARGO_BIN_EXE_e12_faults"), "3", "Theorem 1 requires n >= 4"),
        (env!("CARGO_BIN_EXE_e12_faults"), "8,28", "Q_14 is out of range"),
        (env!("CARGO_BIN_EXE_e18_scale"), "3", "Theorem 1 requires n >= 4"),
        (env!("CARGO_BIN_EXE_e18_scale"), "28", "Q_14 is out of range"),
    ];
    for (bin, dims, message) in cases {
        let (code, stderr) = run(bin, &["--dims", dims, "--trials", "1"]);
        assert_eq!(code, 2, "{bin} --dims {dims}: {stderr}");
        assert!(stderr.contains(message), "{bin} --dims {dims}: {stderr}");
        assert!(stderr.contains("usage: <experiment>"), "{bin} --dims {dims}: {stderr}");
    }
}

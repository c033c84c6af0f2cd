//! The figure binaries parse argv strictly: the global flags (less
//! `pacq`'s `--hot`) plus the binary's own (only `bench_batched` has
//! any), so a typo'd flag is a usage error (exit code 2) instead of a
//! silently default run.

use std::process::Command;

fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    let output = Command::new(bin)
        .args(args)
        .env_remove("PACQ_JOBS")
        .env_remove("PACQ_BACKEND")
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    output.status.code()
}

#[test]
fn unknown_repeated_and_value_less_flags_exit_2() {
    let cache = format!("{}/flags-cache", env!("CARGO_TARGET_TMPDIR"));
    let cases: &[(&str, &[&str])] = &[
        (env!("CARGO_BIN_EXE_fig7"), &["--jbos", "2"]),
        (env!("CARGO_BIN_EXE_fig9"), &["--jbos", "4", "--hot", "8"]),
        (env!("CARGO_BIN_EXE_fig9"), &["stray"]),
        (env!("CARGO_BIN_EXE_fig9"), &["--jobs", "1", "--jobs", "2"]),
        (env!("CARGO_BIN_EXE_fig9"), &["--label", "x"]),
        (
            env!("CARGO_BIN_EXE_fig9"),
            &["--cache", &cache, "--hot", "8"],
        ),
        (env!("CARGO_BIN_EXE_fig9"), &["--cache", &cache, "--hot=8"]),
        (env!("CARGO_BIN_EXE_bench_batched"), &["--hot", "8"]),
        (env!("CARGO_BIN_EXE_table1"), &["--metrics"]),
        (env!("CARGO_BIN_EXE_bench_batched"), &["--label"]),
        (env!("CARGO_BIN_EXE_bench_batched"), &["--lable", "x"]),
    ];
    for (bin, args) in cases {
        assert_eq!(exit_code(bin, args), Some(2), "{bin} {args:?}");
    }
    // The global flags are still taken, in either spelling.
    assert_eq!(
        exit_code(
            env!("CARGO_BIN_EXE_fig9"),
            &["--jobs=1", "--backend", "batched"]
        ),
        Some(0)
    );
}

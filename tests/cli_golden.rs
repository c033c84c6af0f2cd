//! Golden-file tests for the `pacq sweep` arms and a `pacq dse` Pareto
//! search.
//!
//! Every sweep arm is a fixed preset over the dse engine; these pins
//! hold each arm's rendered table — and a dse run with the Pareto
//! front — byte for byte, so any drift in enumeration order, pricing or
//! formatting reads as a diff against `tests/golden/*.txt`.
//!
//! To regenerate after an *intentional* model or format change:
//!
//! ```text
//! cargo build --release -p pacq --bin pacq
//! for p in grid batch dup width; do
//!     ./target/release/pacq sweep --param $p --shape m16n256k256 \
//!         > tests/golden/sweep_$p.txt
//! done
//! ./target/release/pacq dse --shape m16n256k256 --param batch=16,32 \
//!     --param arch=std,packedk,is,pacq --pareto > tests/golden/dse_pareto.txt
//! ```

use pacq::cli;

/// Runs `cmd` through the library CLI and compares its output
/// byte-for-byte against the committed golden file.
fn assert_matches_golden(cmd: &str, golden: &str) {
    let argv: Vec<String> = cmd.split_whitespace().map(String::from).collect();
    let out = cli::run(&argv).unwrap_or_else(|e| panic!("`{cmd}` failed: {e}"));
    if out != golden {
        let line = out
            .lines()
            .zip(golden.lines())
            .take_while(|(a, b)| a == b)
            .count();
        panic!(
            "`{cmd}` drifted from its golden file at line {}\n  golden: {:?}\n  actual: {:?}\n\
             (regenerate per the header of tests/cli_golden.rs if intentional)",
            line + 1,
            golden.lines().nth(line).unwrap_or("<eof>"),
            out.lines().nth(line).unwrap_or("<eof>"),
        );
    }
}

macro_rules! golden_test {
    ($name:ident, $cmd:literal, $file:literal) => {
        #[test]
        fn $name() {
            assert_matches_golden($cmd, include_str!($file));
        }
    };
}

golden_test!(
    sweep_grid_is_pinned,
    "sweep --param grid --shape m16n256k256",
    "golden/sweep_grid.txt"
);
golden_test!(
    sweep_batch_is_pinned,
    "sweep --param batch --shape m16n256k256",
    "golden/sweep_batch.txt"
);
golden_test!(
    sweep_dup_is_pinned,
    "sweep --param dup --shape m16n256k256",
    "golden/sweep_dup.txt"
);
golden_test!(
    sweep_width_is_pinned,
    "sweep --param width --shape m16n256k256",
    "golden/sweep_width.txt"
);
golden_test!(
    dse_pareto_is_pinned,
    "dse --shape m16n256k256 --param batch=16,32 --param arch=std,packedk,is,pacq --pareto",
    "golden/dse_pareto.txt"
);

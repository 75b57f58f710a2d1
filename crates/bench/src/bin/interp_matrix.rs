#![forbid(unsafe_code)]

//! Deterministic (workload × decode-mode) interpreter matrix.
//!
//! Prints one CSV row of *simulated* counters per cell — instructions,
//! cycles, branches, LLC misses, and the decode-cache stats — with no
//! wall-clock numbers, so the output is bit-identical across hosts and
//! across `PROTEAN_JOBS` worker counts. CI runs this twice (one worker
//! vs many) and diffs the output, the same pinning strategy as the
//! trace-determinism double-run, and diffs the quick-scale serial run
//! against `crates/bench/golden/interp_matrix_quick.txt`.
//!
//! The matrix also cross-checks the decoded tier per cell: every
//! simulated counter of a `decoded` row must equal its `fallback`
//! sibling's (decode-cache stats excepted — those measure the tier
//! itself). A divergence exits nonzero.
//!
//! Cycle budget follows `PROTEAN_SCALE` (quick/normal/full).

use protean_bench::{interp_cycles, interp_matrix_rows, Scale};

fn main() {
    let scale = Scale::from_env();
    // The matrix runs 2 modes x N workloads; a fraction of the
    // throughput budget keeps the double-run CI step cheap.
    let cycles = interp_cycles(scale) / 8;
    let rows = interp_matrix_rows(cycles);
    let mut failures = 0;
    for pair in rows.chunks(2) {
        for row in pair {
            println!("{row}");
        }
        // decoded row, then fallback row, per workload; simulated
        // counters are everything before the decode-cache fields.
        let sim = |row: &str| {
            row.split(",decoded_hits=")
                .next()
                .map(|s| s.replacen("decoded", "", 1).replacen("fallback", "", 1))
        };
        if pair.len() == 2 && sim(&pair[0]) != sim(&pair[1]) {
            eprintln!(
                "interp_matrix: decoded/fallback divergence:\n  {}\n  {}",
                pair[0], pair[1]
            );
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("interp_matrix: {failures} cell pair(s) diverged");
        std::process::exit(1);
    }
}

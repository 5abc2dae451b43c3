//! Regenerates Table V: per-framework speedup over the GAP reference for
//! every kernel/graph/mode, with heat classes.
//!
//! ```sh
//! GAPBS_SCALE=small cargo run --release -p gapbs-bench --bin table5_speedups
//! ```

use gapbs_bench::{corpus, scale_from_env};
use gapbs_core::{all_frameworks, run_matrix, Kernel, Mode, TrialConfig};

fn main() {
    let scale = scale_from_env();
    let config = TrialConfig {
        trials: std::env::var("GAPBS_TRIALS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(3),
        verify: std::env::var("GAPBS_VERIFY").as_deref() != Ok("0"),
        ..Default::default()
    };
    eprintln!("generating corpus at scale {scale}...");
    let inputs = corpus(scale);
    let frameworks = all_frameworks();
    let report = run_matrix(
        &frameworks,
        &inputs,
        scale,
        &Kernel::ALL,
        &Mode::ALL,
        &config,
        |cell| {
            eprintln!(
                "  [{}] {:<12} {:<5} {:<8} best={:.4}s",
                cell.mode,
                cell.framework,
                cell.kernel.name(),
                cell.graph,
                cell.best_seconds()
            );
        },
    );
    println!("{}", report.table5());
}

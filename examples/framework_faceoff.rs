//! Framework face-off: run every framework on every kernel over a small
//! two-graph corpus and print Table-V-style speedups — the paper's
//! experiment in miniature.
//!
//! ```sh
//! cargo run --release --example framework_faceoff
//! ```

use gapbs::core::{all_frameworks, run_matrix, BenchGraph, Kernel, Mode, TrialConfig};
use gapbs::graph::gen::{GraphSpec, Scale};

fn main() {
    // A deliberately contrasting pair: shallow power-law vs deep lattice.
    let inputs: Vec<BenchGraph> = [GraphSpec::Kron, GraphSpec::Road]
        .into_iter()
        .map(|spec| BenchGraph::generate(spec, Scale::Small))
        .collect();
    let frameworks = all_frameworks();
    let config = TrialConfig {
        trials: 2,
        verify: true,
        ..Default::default()
    };
    eprintln!(
        "Running {} cells...",
        frameworks.len() * Kernel::ALL.len() * inputs.len()
    );
    let report = run_matrix(
        &frameworks,
        &inputs,
        Scale::Small,
        &Kernel::ALL,
        &[Mode::Baseline],
        &config,
        |cell| {
            eprintln!(
                "  {:<12} {:<5} {:<8} {:.4}s verified={}",
                cell.framework,
                cell.kernel.name(),
                cell.graph,
                cell.best_seconds(),
                cell.verified
            );
        },
    );

    println!("\nSpeedup over the GAP reference (>100% = faster):\n");
    println!(
        "{:<12} {:<6} {:>10} {:>10}",
        "framework", "kernel", "Kron", "Road"
    );
    for fw in ["SuiteSparse", "Galois", "GraphIt", "GKC", "NWGraph"] {
        for kernel in Kernel::ALL {
            let kron = report
                .speedup(fw, kernel, "Kron", Mode::Baseline)
                .map(|r| format!("{:.0}%", r * 100.0))
                .unwrap_or_else(|| "-".into());
            let road = report
                .speedup(fw, kernel, "Road", Mode::Baseline)
                .map(|r| format!("{:.0}%", r * 100.0))
                .unwrap_or_else(|| "-".into());
            println!("{fw:<12} {:<6} {kron:>10} {road:>10}", kernel.name());
        }
    }
    println!("\nNo framework should be fastest everywhere — the paper's headline finding.");
}

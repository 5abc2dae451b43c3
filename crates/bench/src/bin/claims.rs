//! Re-evaluates the paper's shape claims from a previously recorded CSV
//! (no re-measuring).
//!
//! ```sh
//! cargo run --release -p gapbs-bench --bin claims -- results/results_medium.csv
//! ```
//!
//! `GAPBS_SCALE` names the scale the CSV was recorded at, as for `run_all`.

use gapbs_bench::scale_from_env;
use gapbs_core::Report;

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "gapbs_results.csv".into());
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match Report::from_csv(&text, scale_from_env()) {
        Ok(report) => println!("{}", gapbs_bench::shape_claims(&report)),
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        }
    }
}

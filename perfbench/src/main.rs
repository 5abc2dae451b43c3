//! `perfbench`: the repository benchmark.
//!
//! ```sh
//! bash perfbench/run.sh --workload table4 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `table4` (the Baseline matrix, in process), `serve-bfs`
//! and `serve-mix` (the `serve` daemon under a two-connection closed
//! loop). With `--trace 0` the last stdout line carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer metrics of a run
//! that records a span around every call into a layer. Every output is
//! checked; any failed check makes the exit code 1. See
//! `perfbench/README.md` for the metric definitions.

mod corpus;
mod probes;
mod report;
mod serve;
mod stats;
mod table4;
mod trace;

use report::Outcome;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// `table4`, `serve-bfs` or `serve-mix`.
    pub workload: String,
    /// Seed of every generated input (sources, request sequences).
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: u64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// The `serve` daemon binary (serve workloads).
    pub serve_bin: Option<PathBuf>,
    /// Scratch directory for snapshots, port files and the trace file.
    pub work_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload table4|serve-bfs|serve-mix --seed N \
                     --seconds N --trace 0|1 [--serve-bin PATH] [--work-dir DIR]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        serve_bin: None,
        work_dir: PathBuf::from(".perfbench_work"),
    };
    let mut seed = None;
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|_| format!("bad {flag} {v:?}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => args.seconds = number(&value)?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            "--serve-bin" => args.serve_bin = Some(value.into()),
            "--work-dir" => args.work_dir = value.into(),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    if !["table4", "serve-bfs", "serve-mix"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    // One scratch directory per run, so concurrent runs never share
    // snapshot or port files.
    args.work_dir = args
        .work_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let mut out = Outcome::default();
    let started = Instant::now();
    let ticks = corpus::cpu_ticks();
    let run = corpus::fresh_dir(&args.work_dir).and_then(|()| match args.workload.as_str() {
        "table4" => table4::run(&args, &mut tracer, &mut out),
        _ => serve::run(&args, &mut tracer, &mut out),
    });
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks, corpus::cpu_ticks()) {
        out.set(
            "host_steal_frac",
            (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
            "ratio",
        );
    }
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.set("fail_ratio", fail_ratio, "ratio");
    let code = finish(&args, &tracer, &out, run);
    eprintln!(
        "perfbench: {} done in {:.1}s",
        args.workload,
        started.elapsed().as_secs_f64()
    );
    std::process::exit(code);
}

/// Prints the report and result lines, writes the trace file, removes
/// the scratch directory, and picks the exit code.
fn finish(args: &Args, tracer: &Tracer, out: &Outcome, run: Result<(), String>) -> i32 {
    for problem in &out.problems {
        eprintln!("perfbench: FAILED {problem}");
    }
    if let Err(e) = run {
        eprintln!("perfbench: {e}");
        return 1;
    }
    if args.trace {
        let path = args
            .work_dir
            .with_file_name(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, tracer.to_json().encode()) {
            eprintln!("perfbench: write {}: {e}", path.display());
            return 1;
        }
        eprintln!(
            "perfbench: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    if let Err(e) = std::fs::remove_dir_all(&args.work_dir) {
        eprintln!("perfbench: remove {}: {e}", args.work_dir.display());
    }
    let names: Vec<(String, &str)> = if args.trace {
        report::per_layer()
    } else {
        report::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let mut filled = Outcome::default();
    let measured = if args.trace {
        // Layers this workload never calls report 0.
        for (name, unit) in &names {
            filled.set(name, out.get(name).unwrap_or(0.0), unit);
        }
        filled.attempted = out.attempted;
        filled.failed = out.failed;
        &filled
    } else {
        out
    };
    println!("report {}", out.report_json().encode());
    match measured.result_json(&names) {
        Ok(line) => println!("{}", line.encode()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    }
    i32::from(out.failed > 0)
}

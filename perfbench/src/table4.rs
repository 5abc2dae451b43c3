//! `table4`: the paper's Baseline matrix — 6 frameworks × 6 kernels ×
//! 5 graphs — timed kernel-only under the GAP rules, every trial
//! verified with `gapbs-verify` outside the timer.

use crate::corpus::{self, graph_key, THREADS};
use crate::probes;
use crate::report::{kernel_key, Outcome};
use crate::stats::{geomean, median, quantile, tail, QUIET_QUANTILE};
use crate::trace::Tracer;
use crate::Args;
use gapbs_core::spec::{SourcePicker, BC_ROOTS, PR_TOLERANCE};
use gapbs_core::{all_frameworks, BenchGraph, Kernel, Mode, PreparedKernels};
use gapbs_graph::gen::GraphSpec;
use gapbs_graph::types::NodeId;
use gapbs_parallel::ThreadPool;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Times the corpus set-up is repeated; `setup_s` is their median.
const SETUP_REPEATS: u64 = 3;

/// Timed trials per cell. Fixed by `--seconds` alone, never by host
/// speed, so every run does the same work.
pub fn trials_per_cell(seconds: u64) -> usize {
    (seconds as usize / 4).max(2)
}

/// One (framework, kernel, graph) cell of the matrix.
struct Cell {
    /// Index of the cell's prepared kernels.
    prepared: usize,
    /// Index of the cell's graph in the corpus.
    graph: usize,
    kernel: Kernel,
    /// `framework/kernel/graph`, the label of the cell's spans.
    label: String,
    picker: SourcePicker,
    /// Trial times in seconds.
    times: Vec<f64>,
}

impl Cell {
    /// Whether the cell matches a framework and graph key (`None`
    /// matches any).
    fn matches(&self, fw: Option<&str>, kernel: Kernel, graph: Option<&str>) -> bool {
        let mut parts = self.label.split('/');
        let (f, _, g) = (parts.next(), parts.next(), parts.next());
        self.kernel == kernel
            && fw.is_none_or(|fw| f == Some(fw))
            && graph.is_none_or(|gr| g == Some(gr))
    }
}

/// Runs one kernel call on `prepared`, timing only the call, then
/// verifies its output. Returns the time and the verification result.
fn trial(
    prepared: &dyn PreparedKernels,
    bg: &BenchGraph,
    cell: &mut Cell,
    tracer: &mut Tracer,
    group: u64,
    tc_verified: &mut BTreeSet<(GraphSpec, u64)>,
) -> (f64, Result<(), String>) {
    let (label, picker) = (cell.label.as_str(), &mut cell.picker);
    macro_rules! timed {
        ($call:expr) => {
            tracer.span("kernel", label, group, |_| {
                let start = Instant::now();
                let out = $call;
                (start.elapsed().as_secs_f64(), out)
            })
        };
    }
    let verify = |tracer: &mut Tracer,
                  check: &dyn Fn() -> Result<(), gapbs_verify::VerifyError>| {
        tracer
            .span("verify", label, group, |_| check())
            .map_err(|e| format!("{label}: {e}"))
    };
    match cell.kernel {
        Kernel::Bfs => {
            let source = picker.next_source();
            let (t, parent) = timed!(prepared.bfs(source));
            (
                t,
                verify(tracer, &|| {
                    gapbs_verify::verify_bfs(&bg.graph, source, &parent)
                }),
            )
        }
        Kernel::Sssp => {
            let source = picker.next_source();
            let (t, dist) = timed!(prepared.sssp(source));
            (
                t,
                verify(tracer, &|| {
                    gapbs_verify::verify_sssp(&bg.wgraph, source, &dist)
                }),
            )
        }
        Kernel::Pr => {
            let (t, (scores, _iters)) = timed!(prepared.pr());
            (
                t,
                verify(tracer, &|| {
                    gapbs_verify::verify_pr(&bg.graph, &scores, PR_TOLERANCE * 50.0)
                }),
            )
        }
        Kernel::Cc => {
            let (t, labels) = timed!(prepared.cc());
            (
                t,
                verify(tracer, &|| gapbs_verify::verify_cc(&bg.graph, &labels)),
            )
        }
        Kernel::Bc => {
            let sources: Vec<NodeId> = picker.next_sources(BC_ROOTS);
            let (t, scores) = timed!(prepared.bc(&sources));
            (
                t,
                verify(tracer, &|| {
                    gapbs_verify::verify_bc(&bg.graph, &sources, &scores)
                }),
            )
        }
        Kernel::Tc => {
            let (t, count) = timed!(prepared.tc());
            // `verify_tc` is a pure function of (graph, count) that
            // recounts every triangle: a count equal to one it already
            // accepted for this graph is checked by that equality.
            if tc_verified.contains(&(bg.spec, count)) {
                return (t, Ok(()));
            }
            let verdict = verify(tracer, &|| gapbs_verify::verify_tc(&bg.sym_graph, count));
            if verdict.is_ok() {
                tc_verified.insert((bg.spec, count));
            }
            (t, verdict)
        }
    }
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let pool = ThreadPool::new(THREADS);
    let snap_dir = args.work_dir.join("snapshots");

    // Set-up: generate + prepare + snapshot write, repeated; the last
    // corpus is the one measured.
    let mut setups = Vec::new();
    let mut snapshot_bytes = 0;
    let mut corpus = Vec::new();
    for rep in 0..SETUP_REPEATS {
        drop(std::mem::take(&mut corpus));
        corpus::fresh_dir(&snap_dir)?;
        let start = Instant::now();
        corpus = corpus::build(&pool, tracer, rep);
        snapshot_bytes = corpus::write(&corpus, &snap_dir, tracer, rep)?;
        setups.push(start.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&setups).expect("set-up ran"), "s");

    // The timed matrix. `Framework::prepare` takes no kernel, so each
    // (framework, graph) pair is prepared once, untimed, and serves its
    // six cells.
    let frameworks = all_frameworks();
    let trials = trials_per_cell(args.seconds);
    let mut prepared = Vec::new();
    let mut prepare_ms: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut cells = Vec::new();
    for fw in &frameworks {
        let fw_key = corpus::framework_key(fw.name());
        for (gi, bg) in corpus.iter().enumerate() {
            let g_key = graph_key(bg.spec);
            let label = format!("{fw_key}/{g_key}");
            let start = Instant::now();
            prepared.push(tracer.span("framework.prepare", &label, 0, |_| {
                fw.prepare(bg, Mode::Baseline, &pool)
            }));
            prepare_ms
                .entry((fw_key.clone(), g_key.clone()))
                .or_default()
                .push(start.elapsed().as_secs_f64() * 1e3);
            for kernel in Kernel::ALL {
                // Every framework draws the same sources for a
                // (kernel, graph) pair.
                let cell_seed = corpus::mix(args.seed, (gi as u64) << 8 | kernel as u64);
                cells.push(Cell {
                    prepared: prepared.len() - 1,
                    graph: gi,
                    kernel,
                    label: format!("{fw_key}/{}/{g_key}", kernel_key(kernel)),
                    picker: SourcePicker::from_candidates(bg.source_candidates.clone(), cell_seed),
                    times: Vec::with_capacity(trials),
                });
            }
        }
    }
    let mut regions: BTreeMap<Kernel, (u64, u64)> = BTreeMap::new();
    let (mut pool_regions, mut pool_parks) = (0u64, 0u64);
    // Traced runs trace alternate trials (the other half is the
    // untraced control arm for trace.overhead_frac).
    let (mut traced_times, mut untraced_times) = (BTreeMap::new(), BTreeMap::new());
    let mut tc_verified = BTreeSet::new();
    // Passes over the whole matrix, so a slow spell on the host is
    // spread over many cells instead of spoiling every trial of a few;
    // each cell's lower quartile then drops it.
    for pass in 0..trials {
        for (ci, cell) in cells.iter_mut().enumerate() {
            let group = (pass * 1000 + ci) as u64;
            let traced = args.trace && (pass + ci) % 2 == 0;
            let mut quiet = Tracer::new(false, tracer.epoch());
            let rec = if traced { &mut *tracer } else { &mut quiet };
            let before = pool.stats();
            let (secs, verdict) = trial(
                prepared[cell.prepared].as_ref(),
                &corpus[cell.graph],
                cell,
                rec,
                group,
                &mut tc_verified,
            );
            let after = pool.stats().delta(&before);
            out.check(verdict);
            cell.times.push(secs);
            if args.trace {
                let arm = if traced {
                    &mut traced_times
                } else {
                    &mut untraced_times
                };
                arm.entry(ci).or_insert_with(Vec::new).push(secs);
            }
            let r = regions.entry(cell.kernel).or_default();
            r.0 += after.regions;
            r.1 += 1;
            pool_regions += after.regions;
            pool_parks += after.parks;
        }
    }
    drop(prepared);

    // End-to-end metrics, from each cell's lower-quartile trial.
    let cell_ms: Vec<f64> = cells
        .iter()
        .map(|c| quantile(&c.times, QUIET_QUANTILE).expect("trials ran") * 1e3)
        .collect();
    let trials_run: usize = cells.iter().map(|c| c.times.len()).sum();
    let cell_geomean = geomean(&cell_ms).ok_or("a cell time is not positive")?;
    out.set("cell_geomean_ms", cell_geomean, "ms");
    out.set("kernel_geomean_ms", cell_geomean, "ms");
    for kernel in Kernel::ALL {
        let of_kernel: Vec<f64> = cells
            .iter()
            .zip(&cell_ms)
            .filter(|(c, _)| c.kernel == kernel)
            .map(|(_, m)| *m)
            .collect();
        let g = geomean(&of_kernel).ok_or("a cell time is not positive")?;
        out.set(&format!("{}_ms", kernel_key(kernel)), g, "ms");
    }
    // The batch's operations are its cells: the latency and throughput
    // figures are taken over the 180 cell times, which a slow spell on
    // the host moves far less than single trials.
    out.set("latency_p50_ms", median(&cell_ms).expect("cells ran"), "ms");
    let (pct, p99) = tail(&cell_ms, 99.0).ok_or("too few cells for a tail")?;
    out.set("latency_p99_ms", p99, "ms");
    out.set("latency_tail_percentile", pct, "%");
    out.set(
        "latency_p90_ms",
        tail(&cell_ms, 90.0).ok_or("too few cells")?.1,
        "ms",
    );
    out.set("latency_samples", cell_ms.len() as f64, "count");
    out.set("trials", trials_run as f64, "count");
    out.set(
        "qps",
        1e3 * cell_ms.len() as f64 / cell_ms.iter().sum::<f64>(),
        "1/s",
    );
    out.set(
        "peak_rss_mb",
        corpus::peak_rss_mb(None).ok_or("no VmHWM in /proc/self/status")?,
        "MiB",
    );

    if !args.trace {
        return Ok(());
    }

    // Per-layer metrics from the spans of the traced trials and set-ups.
    out.set(
        "graph.generate_s",
        tracer.median_group_total("graph.generate"),
        "s",
    );
    out.set(
        "core.prepare_input_s",
        tracer.median_group_total("core.prepare_input"),
        "s",
    );
    out.set(
        "snapshot.write_s",
        tracer.median_group_total("snapshot.write"),
        "s",
    );
    out.set("snapshot.bytes", snapshot_bytes as f64, "bytes");
    for fw in &frameworks {
        let fw_key = corpus::framework_key(fw.name());
        let per_graph: Vec<f64> = prepare_ms
            .iter()
            .filter(|((f, _), _)| *f == fw_key)
            .filter_map(|(_, v)| median(v))
            .collect();
        out.set(
            &format!("framework.prepare_ms.{fw_key}"),
            geomean(&per_graph).unwrap_or(0.0),
            "ms",
        );
    }
    let kernel_spans = |fw: Option<&str>, kernel: Kernel, graph: Option<&str>| -> f64 {
        let medians: Vec<f64> = cells
            .iter()
            .filter(|c| c.matches(fw, kernel, graph))
            .filter_map(|c| median(&tracer.durations("kernel", Some(&c.label))).map(|s| s * 1e3))
            .collect();
        geomean(&medians).unwrap_or(0.0)
    };
    for fw in &frameworks {
        let fw_key = corpus::framework_key(fw.name());
        for kernel in Kernel::ALL {
            out.set(
                &format!("kernel_ms.{fw_key}.{}", kernel_key(kernel)),
                kernel_spans(Some(&fw_key), kernel, None),
                "ms",
            );
        }
    }
    for kernel in Kernel::ALL {
        for bg in &corpus {
            let g_key = graph_key(bg.spec);
            out.set(
                &format!("kernel_ms.{}.{g_key}", kernel_key(kernel)),
                kernel_spans(None, kernel, Some(&g_key)),
                "ms",
            );
        }
    }
    out.set(
        "verify.s",
        tracer.durations("verify", None).iter().sum(),
        "s",
    );
    for (kernel, (r, n)) in &regions {
        out.set(
            &format!("pool.regions.{}", kernel_key(*kernel)),
            *r as f64 / *n as f64,
            "count",
        );
    }
    out.set(
        "pool.parks_per_region",
        pool_parks as f64 / pool_regions.max(1) as f64,
        "ratio",
    );
    let arm_geomean = |arm: &BTreeMap<usize, Vec<f64>>| -> f64 {
        let m: Vec<f64> = arm.values().filter_map(|v| median(v)).collect();
        geomean(&m).unwrap_or(f64::NAN)
    };
    out.set(
        "trace.overhead_frac",
        arm_geomean(&traced_times) / arm_geomean(&untraced_times) - 1.0,
        "ratio",
    );
    probes::snapshot(&snap_dir, &pool, tracer, out)?;
    let road = corpus
        .iter()
        .find(|bg| bg.spec == GraphSpec::Road)
        .expect("Road is in the corpus");
    probes::pool(road, args.seed, tracer, out);
    Ok(())
}

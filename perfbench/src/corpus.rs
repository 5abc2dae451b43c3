//! The shared input corpus: the five medium graphs, generated and
//! prepared on the benchmark's pool and written as snapshot files.

use crate::trace::Tracer;
use gapbs_core::BenchGraph;
use gapbs_graph::gen::{GraphSpec, Scale};
use gapbs_parallel::ThreadPool;
use std::path::{Path, PathBuf};

/// Corpus scale of every workload.
pub const SCALE: Scale = Scale::Medium;

/// Worker threads of every pool the benchmark drives (`nproc` on the
/// reference host).
pub const THREADS: usize = 2;

/// Lower-case key of a graph, as metric names and requests use it.
pub fn graph_key(spec: GraphSpec) -> String {
    spec.name().to_lowercase()
}

/// Lower-case key of a framework display name.
pub fn framework_key(name: &str) -> String {
    name.to_lowercase()
}

/// Generates and prepares the five graphs on `pool`, one span per
/// generator and preparation call, all in trace group `group`.
pub fn build(pool: &ThreadPool, tracer: &mut Tracer, group: u64) -> Vec<BenchGraph> {
    GraphSpec::TABLE_ORDER
        .iter()
        .map(|&spec| {
            let key = graph_key(spec);
            let (graph, wgraph) = tracer.span("graph.generate", &key, group, |_| {
                (
                    spec.generate_in(SCALE, pool),
                    spec.generate_weighted_in(SCALE, pool),
                )
            });
            tracer.span("core.prepare_input", &key, group, |_| {
                BenchGraph::from_graphs_in(spec, graph, wgraph, pool)
            })
        })
        .collect()
}

/// Writes every graph of `corpus` into `dir` (which must exist and be
/// empty) and returns the total bytes written.
pub fn write(
    corpus: &[BenchGraph],
    dir: &Path,
    tracer: &mut Tracer,
    group: u64,
) -> Result<u64, String> {
    let mut bytes = 0;
    for bg in corpus {
        let stats = tracer
            .span("snapshot.write", &graph_key(bg.spec), group, |_| {
                bg.write_snapshot(dir, SCALE)
            })
            .map_err(|e| format!("snapshot write of {}: {e}", bg.spec))?;
        bytes += stats.file_bytes;
    }
    Ok(bytes)
}

/// Snapshot files of the corpus under `dir`, in table order.
pub fn snapshot_files(dir: &Path) -> Vec<(GraphSpec, PathBuf)> {
    GraphSpec::TABLE_ORDER
        .iter()
        .map(|&spec| {
            (
                spec,
                gapbs_core::snapshot_cache::snapshot_path(dir, spec, SCALE),
            )
        })
        .collect()
}

/// Removes and recreates `dir`, so it is empty.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// A 64-bit mix of the benchmark seed with a stream number
/// (SplitMix64 finalizer), so each cell or connection draws its own
/// deterministic sequence.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set (VmHWM) of process `pid`, or of this process when
/// `None`, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let kb: f64 = text.lines().find_map(|line| {
        line.strip_prefix("VmHWM:")?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()
    })?;
    Some(kb / 1024.0)
}

/// Cumulative (steal, total) CPU ticks of the host from `/proc/stat`:
/// the time the hypervisor ran other guests on this machine's virtual
/// CPUs. A run's share of stolen ticks tells a noisy host from a slow
/// program.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

//! Layer probes shared by every traced run: snapshot open/decode on the
//! corpus files, empty pool regions, and the 1-vs-2-thread GAP A/B on
//! Road.

use crate::corpus;
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use gapbs_core::spec::SourcePicker;
use gapbs_core::{all_frameworks, BenchGraph, Mode};
use gapbs_graph::snapshot::LoadOptions;
use gapbs_graph::Snapshot;
use gapbs_parallel::ThreadPool;
use std::path::Path;

/// Repetitions of the snapshot open + decode pass.
const SNAPSHOT_REPEATS: u64 = 5;
/// Empty regions per timed batch, and batches per pool size.
const REGIONS_PER_BATCH: u32 = 2000;
const REGION_BATCHES: u32 = 5;
/// Source pairs of the 1-vs-2-thread A/B.
const AB_ROUNDS: u64 = 10;

/// `snapshot.open_s`, `snapshot.decode_s` (median over repetitions of
/// the five-file total) and `snapshot.compressed_share`, on the files
/// under `dir`.
pub fn snapshot(
    dir: &Path,
    pool: &ThreadPool,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let files = corpus::snapshot_files(dir);
    let (mut varint, mut adjacency) = (0u64, 0u64);
    for rep in 0..SNAPSHOT_REPEATS {
        for (spec, path) in &files {
            let key = corpus::graph_key(*spec);
            let snap = tracer
                .span("snapshot.open", &key, rep, |_| {
                    Snapshot::open_with(path, LoadOptions::default())
                })
                .map_err(|e| format!("open {}: {e}", path.display()))?;
            let bundle = tracer
                .span("snapshot.decode", &key, rep, |_| {
                    snap.bundle_in::<u32>(Some(pool))
                })
                .map_err(|e| format!("decode {}: {e}", path.display()))?;
            drop(bundle);
            if rep == 0 {
                for s in snap
                    .sections()
                    .iter()
                    .filter(|s| s.name.ends_with("targets"))
                {
                    adjacency += s.bytes;
                    if s.encoding != "raw" {
                        varint += s.bytes;
                    }
                }
            }
        }
    }
    out.set(
        "snapshot.open_s",
        tracer.median_group_total("snapshot.open"),
        "s",
    );
    out.set(
        "snapshot.decode_s",
        tracer.median_group_total("snapshot.decode"),
        "s",
    );
    out.set(
        "snapshot.compressed_share",
        varint as f64 / adjacency.max(1) as f64,
        "ratio",
    );
    Ok(())
}

/// `pool.region_us.{t1,t2}` (median per-region cost of empty regions)
/// and `pool.t2_over_t1.road.{bfs,sssp}` (GAP median at 2 threads over
/// the median at 1 thread, same sources, alternating arms).
pub fn pool(road: &BenchGraph, seed: u64, tracer: &mut Tracer, out: &mut Outcome) {
    let pools = [ThreadPool::new(1), ThreadPool::new(corpus::THREADS)];
    for (pool, key) in pools.iter().zip(["t1", "t2"]) {
        for _ in 0..REGIONS_PER_BATCH / 10 {
            pool.run(|_| {});
        }
        for batch in 0..REGION_BATCHES {
            tracer.span("pool.regions", key, u64::from(batch), |_| {
                for _ in 0..REGIONS_PER_BATCH {
                    pool.run(|_| {});
                }
            });
        }
        let per_region: Vec<f64> = tracer
            .durations("pool.regions", Some(key))
            .iter()
            .map(|s| s * 1e6 / f64::from(REGIONS_PER_BATCH))
            .collect();
        out.set(
            &format!("pool.region_us.{key}"),
            median(&per_region).unwrap_or(0.0),
            "us",
        );
    }

    let gap = all_frameworks()
        .into_iter()
        .find(|f| f.name() == "GAP")
        .expect("GAP is in the roster");
    let prepared: Vec<_> = pools
        .iter()
        .map(|p| gap.prepare(road, Mode::Baseline, p))
        .collect();
    let mut picker = SourcePicker::from_candidates(road.source_candidates.clone(), seed);
    for round in 0..AB_ROUNDS {
        let source = picker.next_source();
        // Alternate which arm runs first.
        let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
        for arm in order {
            let key = ["t1", "t2"][arm];
            tracer.span("pool.ab", &format!("{key}/bfs"), round, |_| {
                std::hint::black_box(prepared[arm].bfs(source))
            });
            tracer.span("pool.ab", &format!("{key}/sssp"), round, |_| {
                std::hint::black_box(prepared[arm].sssp(source))
            });
        }
    }
    for kernel in ["bfs", "sssp"] {
        let arm =
            |key: &str| median(&tracer.durations("pool.ab", Some(&format!("{key}/{kernel}"))));
        let ratio = match (arm("t2"), arm("t1")) {
            (Some(t2), Some(t1)) if t1 > 0.0 => t2 / t1,
            _ => 0.0,
        };
        out.set(&format!("pool.t2_over_t1.road.{kernel}"), ratio, "ratio");
    }
}

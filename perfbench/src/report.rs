//! What one run reports: counts of checked operations, failures, and
//! named metrics, plus the final JSON line.

use gapbs_core::Kernel;
use gapbs_graph::gen::GraphSpec;
use gapbs_telemetry::json::Json;

/// Framework keys, in the order of `gapbs_core::all_frameworks`.
pub const FRAMEWORKS: [&str; 6] = ["gap", "suitesparse", "galois", "graphit", "gkc", "nwgraph"];

/// Lower-case kernel key.
pub fn kernel_key(kernel: Kernel) -> String {
    kernel.name().to_lowercase()
}

/// The end-to-end metrics every workload reports with tracing off (the
/// `end_to_end` list of `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("qps", "1/s"),
    ("cell_geomean_ms", "ms"),
];

/// Every per-layer metric, with its unit (the `per_layer` list of
/// `BENCHMARK.json`). A traced run reports all of them; a layer the
/// workload never calls reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    add("graph.generate_s".into(), "s");
    add("core.prepare_input_s".into(), "s");
    add("snapshot.write_s".into(), "s");
    add("snapshot.bytes".into(), "bytes");
    add("snapshot.open_s".into(), "s");
    add("snapshot.decode_s".into(), "s");
    add("snapshot.compressed_share".into(), "ratio");
    add("serve.time_to_ready_s".into(), "s");
    for fw in FRAMEWORKS {
        add(format!("framework.prepare_ms.{fw}"), "ms");
    }
    for fw in FRAMEWORKS {
        for k in Kernel::ALL {
            add(format!("kernel_ms.{fw}.{}", kernel_key(k)), "ms");
        }
    }
    for k in Kernel::ALL {
        for g in GraphSpec::TABLE_ORDER {
            add(
                format!("kernel_ms.{}.{}", kernel_key(k), g.name().to_lowercase()),
                "ms",
            );
        }
    }
    add("verify.s".into(), "s");
    add("pool.region_us.t1".into(), "us");
    add("pool.region_us.t2".into(), "us");
    for k in Kernel::ALL {
        add(format!("pool.regions.{}", kernel_key(k)), "count");
    }
    add("pool.parks_per_region".into(), "ratio");
    add("pool.t2_over_t1.road.bfs".into(), "ratio");
    add("pool.t2_over_t1.road.sssp".into(), "ratio");
    add("serve.server_ms_p50".into(), "ms");
    add("serve.wire_ms_p50".into(), "ms");
    add("admission.queue_wait_us_p50".into(), "us");
    add("admission.queue_wait_us_p99".into(), "us");
    add("coalesce.batched_share".into(), "ratio");
    add("coalesce.batch_width_mean".into(), "count");
    add("engine.prepare_ms_p50".into(), "ms");
    add("engine.kernel_ms_p50".into(), "ms");
    add("engine.canon_ms_p50".into(), "ms");
    add("engine.overhead_ms_p50".into(), "ms");
    add("serve.pool_regions_per_query".into(), "count");
    add("serve.pool_parks_per_query".into(), "count");
    add("trace.overhead_frac".into(), "ratio");
    m
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations: trials, requests, daemon checks.
    pub attempted: u64,
    /// Operations whose check failed; one line each in `problems`.
    pub failed: u64,
    /// Why each failure failed (printed to stderr).
    pub problems: Vec<String>,
    /// Measured metrics by name: value and unit.
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    /// Records one checked operation; a failure carries its reason.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.problems.push(why);
        }
    }

    /// Sets a metric (replacing an earlier value of the same name).
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Every measured metric as one JSON object (the `report` line).
    pub fn report_json(&self) -> Json {
        Json::obj(
            self.metrics
                .iter()
                .map(|(n, v, u)| (n.clone(), metric(*v, u))),
        )
    }

    /// The final line: `correct`, `attempted`, `failed`, and exactly the
    /// metrics in `names` (a missing one is an error: it means the
    /// workload failed to measure it).
    pub fn result_json(&self, names: &[(String, &str)]) -> Result<Json, String> {
        let mut out = Vec::new();
        for (name, unit) in names {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            out.push((name.clone(), metric(value, unit)));
        }
        Ok(Json::obj([
            ("correct".to_string(), Json::Bool(self.failed == 0)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::obj(out)),
        ]))
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value".to_string(), Json::Num(value)),
        ("unit".to_string(), Json::Str(unit.to_string())),
    ])
}

//! The metrics `BENCHMARK.json` declares. Every workload prints all of the
//! end-to-end metrics in its untraced run and all of the per-layer metrics in
//! its traced run, each in its declared unit, so that each name means the
//! same kind of figure in every workload (see `README.md`).

use crate::stats::Metric;

/// `(name, unit)` of each end-to-end metric.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MiB"), ("latency_s", "s"), ("sim_s_per_s", "sim-s/s")];

/// `(name, unit)` of each per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.ref_us", "us"),
    ("host.fsync_us", "us"),
    ("trace.overhead_frac", "frac"),
    ("raw.setup_s", "s"),
    ("raw.latency_s", "s"),
    ("raw.sim_s_per_s", "sim-s/s"),
    ("session.start_us", "us"),
    ("solver.ns_per_step", "ns"),
    ("solver.steps", "count"),
    ("solver.steps_ab1", "count"),
    ("solver.steps_ab2", "count"),
    ("solver.steps_ab3", "count"),
    ("solver.steps_ab4", "count"),
    ("solver.stability_updates", "count"),
    ("solver.factorisations", "count"),
    ("solver.cached_solves", "count"),
    ("assembly.pwl_skip_rate", "frac"),
    ("assembly.constant_skip_rate", "frac"),
    ("assembly.stamp_full_ns", "ns"),
    ("assembly.stamp_skip_ns", "ns"),
    ("linalg.terminal_solve_ns", "ns"),
    ("linalg.derivative_ns", "ns"),
    ("ode.stability_plan_us", "us"),
    ("ode.etd2_advance_ns", "ns"),
    ("replay.share_stamp", "frac"),
    ("replay.share_terminal", "frac"),
    ("replay.share_derivative", "frac"),
    ("replay.share_plan", "frac"),
    ("replay.share_etd2", "frac"),
    ("digital.events", "count"),
    ("baseline.ns_per_newton_iter", "ns"),
    ("baseline.newton_iters_per_step", "ratio"),
    ("baseline.factorisations", "count"),
    ("checkpoint.frame_bytes", "bytes"),
    ("checkpoint.encode_us", "us"),
    ("checkpoint.restore_us", "us"),
    ("store.put_us_p50", "us"),
    ("store.put_us_p95", "us"),
    ("store.open_ms", "ms"),
];

/// Checks that `metrics` are exactly the declared set for the run's mode,
/// each once and in its declared unit.
pub fn check(metrics: &[Metric], trace: bool) -> Result<(), String> {
    let declared = if trace { PER_LAYER } else { END_TO_END };
    let mut problems = Vec::new();
    for (name, unit) in declared {
        match metrics.iter().filter(|metric| metric.name == *name).collect::<Vec<_>>()[..] {
            [] => problems.push(format!("{name} missing")),
            [metric] if metric.unit != *unit => {
                problems.push(format!("{name} in {} instead of {unit}", metric.unit))
            }
            [_] => {}
            _ => problems.push(format!("{name} printed more than once")),
        }
    }
    for metric in metrics {
        if !declared.iter().any(|(name, _)| metric.name == *name) {
            problems.push(format!("{} not declared", metric.name));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list of `BENCHMARK.json`, read by
    /// scanning its one-object-per-line layout.
    fn declared_in(json: &str, list: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{list}\": [")).expect("list present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closed")];
        let field = |line: &str, key: &str| -> Option<String> {
            let from = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
            Some(line[from..from + line[from..].find('"')?].to_string())
        };
        body.lines().filter_map(|line| Some((field(line, "name")?, field(line, "unit")?))).collect()
    }

    fn owned(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs.iter().map(|(name, unit)| (name.to_string(), unit.to_string())).collect()
    }

    #[test]
    fn declared_metrics_match_the_benchmark_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        assert_eq!(declared_in(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(declared_in(&json, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn check_rejects_missing_extra_and_mislabelled_metrics() {
        let all: Vec<Metric> =
            END_TO_END.iter().map(|(name, unit)| Metric::single(*name, unit, 1.0)).collect();
        assert!(check(&all, false).is_ok());
        assert!(check(&all, true).is_err());
        assert!(check(&all[1..], false).is_err());
        let mut extra = all.clone();
        extra.push(Metric::single("grid_wall_s", "s", 1.0));
        assert!(check(&extra, false).is_err());
        let mut relabelled = all.clone();
        relabelled[2].unit = "ms";
        assert!(check(&relabelled, false).is_err());
        let mut twice = all.clone();
        twice.push(all[0].clone());
        assert!(check(&twice, false).is_err());
    }
}

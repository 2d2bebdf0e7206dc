//! # harvsim-bench
//!
//! Benchmark harness that regenerates every table and figure of the paper's
//! evaluation (Section IV) plus the ablation studies listed in DESIGN.md:
//!
//! * Criterion micro/meso benchmarks live in `benches/` (one file per
//!   experiment).
//! * The `repro` binary (`cargo run --release -p harvsim-bench --bin repro`)
//!   runs the full experiments once and prints paper-style tables; its
//!   Table II record (`BENCH_table2.json`) is the source of the numbers
//!   tracked in ROADMAP.md and DESIGN.md.
//!
//! Shared experiment plumbing (scenario construction, the dense reference
//! run, the interleaved Table II row and result formatting) lives in this
//! library so the benches and the binary stay consistent.

#![forbid(unsafe_code)]
// `!(x > 0.0)`-style negated comparisons are the validation idiom throughout
// this workspace: unlike `x <= 0.0` they also reject NaN, which is exactly
// what the parameter checks need. Clippy's suggested `partial_cmp` rewrite
// obscures that intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

use std::io::Write;
use std::path::Path;

use harvsim_core::scenario::ScenarioConfig;
use harvsim_core::{CoreError, ExploreReport, ProbeId, Session, Simulation, WaveformProbe};

pub mod accuracy;
pub mod comparison;

pub use comparison::{table2_row, RowProbes};

/// Sample spacing of every dense waveform capture the benches and `repro`
/// take, in seconds: about one accepted step in 50–100.
const RECORD_INTERVAL_S: f64 = 1e-3;

/// A value JSON can encode. JSON has no encoding for non-finite numbers,
/// and the CI gates must stay parseable even when a timing anomaly produces
/// one: +∞ ("infinitely faster", e.g. a sub-resolution proposed time) clamps
/// to a large finite value so a gate still passes, while NaN clamps to 0.0
/// so a gate fails loudly on a genuinely broken measurement.
fn json_number(value: f64) -> f64 {
    if value.is_nan() {
        0.0
    } else if value.is_infinite() {
        1e9_f64.copysign(value)
    } else {
        value
    }
}

/// One scenario row of the machine-readable Table II record emitted by the
/// `repro` binary (`BENCH_table2.json`), used by the CI perf-smoke job and by
/// ROADMAP.md to track the speed-up trajectory across PRs. Besides the
/// headline speed-up, the row records the state-space engine's work counters
/// so a perf regression is attributable (did the step count move, the
/// factorisation count, or the per-step cost?) rather than a bare number.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Record {
    /// Scenario label (`scenario1` / `scenario2`).
    pub name: String,
    /// Simulated span, in seconds.
    pub simulated_span_s: f64,
    /// Newton–Raphson baseline CPU time, in seconds.
    pub baseline_cpu_s: f64,
    /// Proposed state-space engine CPU time, in seconds.
    pub proposed_cpu_s: f64,
    /// Speed-up factor (baseline / proposed).
    pub speedup: f64,
    /// Maximum supercapacitor-voltage deviation between the engines, in volts.
    pub max_deviation_v: f64,
    /// Accepted state-space steps.
    pub steps: usize,
    /// `Jyy` LU factorisations actually performed by the state-space engine.
    pub factorisations: usize,
    /// Eq. 4 eliminations served by the cached factorisation.
    pub cached_solves: usize,
    /// Accepted steps per Adams–Bashforth order (index `k − 1` = order `k`),
    /// the order/step governor's observable behaviour. Books the non-stiff
    /// lane only; `stiff_exact_steps` reports the exponential lane, so the
    /// histogram still sums to `steps`.
    pub steps_by_order: [usize; 4],
    /// Steps on which the stiff partition advanced via the exact exponential
    /// update (equals `steps` when the partitioned IMEX march is active).
    pub stiff_exact_steps: usize,
    /// Per-block Jacobian stamps skipped under the constant-contract split.
    pub constant_stamps_skipped: usize,
    /// Per-block stamps skipped under the per-device PWL contract (the
    /// Dickson stamp skip): no diode changed table segment, so neither the
    /// scatter nor the Eq. 3 scan ran.
    pub pwl_stamps_skipped: usize,
    /// High-water probe memory of the proposed engine's session, in bytes.
    /// Headline rows capture dense waveforms (O(recorded samples)); `--sweep`
    /// rows run streaming probes whose footprint is O(1) — independent of the
    /// simulated span — which the CI gate checks.
    pub peak_probe_bytes: usize,
    /// Real part of the eigenvalue that priced the step limit at the last
    /// governor selection — the proof that the binding pole is physical
    /// (70 Hz mechanics, conduction) and no longer the −4.1·10⁴ s⁻¹
    /// rail-regularisation artifact excluded by the IMEX partition.
    pub binding_pole_re: f64,
    /// Imaginary part of the binding eigenvalue.
    pub binding_pole_im: f64,
}

/// Serialises the Table II records to `path` as a small, dependency-free JSON
/// document:
///
/// ```json
/// {
///   "experiment": "table2",
///   "scenarios": [ { "name": "scenario1", "speedup": 12.3, ... } ],
///   "min_speedup": 12.3
/// }
/// ```
///
/// # Errors
///
/// Propagates I/O failures from creating or writing the file.
pub fn write_table2_json(path: &Path, records: &[Table2Record]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    writeln!(file, "{{")?;
    writeln!(file, "  \"experiment\": \"table2\",")?;
    writeln!(file, "  \"scenarios\": [")?;
    for (i, record) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        writeln!(file, "    {{")?;
        writeln!(file, "      \"name\": \"{}\",", record.name)?;
        writeln!(file, "      \"simulated_span_s\": {},", json_number(record.simulated_span_s))?;
        writeln!(file, "      \"baseline_cpu_s\": {:.6},", json_number(record.baseline_cpu_s))?;
        writeln!(file, "      \"proposed_cpu_s\": {:.6},", json_number(record.proposed_cpu_s))?;
        writeln!(file, "      \"speedup\": {:.3},", json_number(record.speedup))?;
        writeln!(file, "      \"max_deviation_v\": {:.6},", json_number(record.max_deviation_v))?;
        writeln!(file, "      \"steps\": {},", record.steps)?;
        writeln!(file, "      \"factorisations\": {},", record.factorisations)?;
        writeln!(file, "      \"cached_solves\": {},", record.cached_solves)?;
        writeln!(
            file,
            "      \"steps_by_order\": [{}, {}, {}, {}],",
            record.steps_by_order[0],
            record.steps_by_order[1],
            record.steps_by_order[2],
            record.steps_by_order[3]
        )?;
        writeln!(file, "      \"stiff_exact_steps\": {},", record.stiff_exact_steps)?;
        writeln!(file, "      \"constant_stamps_skipped\": {},", record.constant_stamps_skipped)?;
        writeln!(file, "      \"pwl_stamps_skipped\": {},", record.pwl_stamps_skipped)?;
        writeln!(file, "      \"peak_probe_bytes\": {},", record.peak_probe_bytes)?;
        writeln!(file, "      \"binding_pole_re\": {:.3},", json_number(record.binding_pole_re))?;
        writeln!(file, "      \"binding_pole_im\": {:.3}", json_number(record.binding_pole_im))?;
        writeln!(file, "    }}{comma}")?;
    }
    writeln!(file, "  ],")?;
    let min_speedup = records.iter().map(|r| json_number(r.speedup)).fold(f64::INFINITY, f64::min);
    let min_speedup = if min_speedup.is_finite() { min_speedup } else { 0.0 };
    writeln!(file, "  \"min_speedup\": {min_speedup:.3}")?;
    writeln!(file, "}}")?;
    Ok(())
}

/// Serialises an [`ExploreReport`] to `path` as the `BENCH_explore.json`
/// document the `explore-smoke` CI job validates (schema modelled on
/// `BENCH_table2.json`): experiment header, grid description, balanced point
/// accounting, scheduler/warm-start counters, one row per point, the Pareto
/// front's point indices and the per-objective summaries.
///
/// # Errors
///
/// Propagates I/O failures from creating or writing the file.
pub fn write_explore_json(path: &Path, report: &ExploreReport) -> std::io::Result<()> {
    // Labels are machine-built, but error rows carry arbitrary display
    // strings — escape the JSON specials instead of trusting them.
    let json_string = |value: &str| {
        let mut out = String::with_capacity(value.len() + 2);
        for ch in value.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    };
    let mut file = std::fs::File::create(path)?;
    writeln!(file, "{{")?;
    writeln!(file, "  \"experiment\": \"explore\",")?;
    writeln!(file, "  \"base\": \"{}\",", json_string(&report.base_label))?;
    writeln!(file, "  \"axes\": [")?;
    for (i, (param, values)) in report.axes.iter().enumerate() {
        let comma = if i + 1 < report.axes.len() { "," } else { "" };
        let values: Vec<String> = values.iter().map(|v| format!("{}", json_number(*v))).collect();
        writeln!(
            file,
            "    {{ \"param\": \"{}\", \"values\": [{}] }}{comma}",
            json_string(param),
            values.join(", ")
        )?;
    }
    writeln!(file, "  ],")?;
    writeln!(file, "  \"subsample\": {},", json_number(report.subsample))?;
    writeln!(file, "  \"seed\": {},", report.seed)?;
    writeln!(file, "  \"offered\": {},", report.offered)?;
    writeln!(file, "  \"completed\": {},", report.completed)?;
    writeln!(file, "  \"failed\": {},", report.failed)?;
    writeln!(file, "  \"skipped\": {},", report.skipped)?;
    writeln!(file, "  \"workers\": {},", report.workers)?;
    writeln!(file, "  \"threads_used\": {},", report.threads_used)?;
    writeln!(file, "  \"steals\": {},", report.steals)?;
    writeln!(file, "  \"warm_hits\": {},", report.warm_hits)?;
    writeln!(file, "  \"cold_starts\": {},", report.cold_starts)?;
    writeln!(file, "  \"resumed\": {},", report.resumed)?;
    writeln!(file, "  \"dropped_regions\": {},", report.dropped_regions)?;
    writeln!(file, "  \"points\": [")?;
    for (i, row) in report.rows.iter().enumerate() {
        let comma = if i + 1 < report.rows.len() { "," } else { "" };
        write!(
            file,
            "    {{ \"index\": {}, \"label\": \"{}\", \"warm\": {}, \"resumed\": {}, ",
            row.index,
            json_string(&row.label),
            row.warm,
            row.recovered
        )?;
        match row.metrics() {
            Some(metrics) => writeln!(
                file,
                "\"status\": \"completed\", \"energy_gain_j\": {:.9}, \"dip_v\": {:.6}, \
                 \"wall_s\": {:.6}, \"steps\": {}, \"v_first\": {:.6}, \"v_last\": {:.6}, \
                 \"rms_after_uw\": {:.3} }}{comma}",
                json_number(metrics.energy_gain_j),
                json_number(metrics.dip_v),
                json_number(metrics.wall_s),
                metrics.steps,
                json_number(metrics.v_first),
                json_number(metrics.v_last),
                json_number(metrics.rms_after_uw),
            )?,
            None => writeln!(
                file,
                "\"status\": \"failed\", \"error\": \"{}\" }}{comma}",
                json_string(row.error().unwrap_or(""))
            )?,
        }
    }
    writeln!(file, "  ],")?;
    let front: Vec<String> = report.pareto_front.iter().map(|i| i.to_string()).collect();
    writeln!(file, "  \"pareto_front\": [{}],", front.join(", "))?;
    writeln!(file, "  \"summaries\": [")?;
    for (i, summary) in report.summaries.iter().enumerate() {
        let comma = if i + 1 < report.summaries.len() { "," } else { "" };
        writeln!(
            file,
            "    {{ \"objective\": \"{}\", \"min\": {:.9}, \"max\": {:.9}, \"mean\": {:.9} }}{comma}",
            json_string(summary.objective),
            json_number(summary.min),
            json_number(summary.max),
            json_number(summary.mean),
        )?;
    }
    writeln!(file, "  ]")?;
    writeln!(file, "}}")?;
    Ok(())
}

/// Scenario 1 (70 → 71 Hz) trimmed to `duration_s` seconds for benchmarking.
pub fn scenario1(duration_s: f64) -> ScenarioConfig {
    let mut scenario = ScenarioConfig::scenario1();
    scenario.duration_s = duration_s;
    scenario.frequency_step_time_s = (duration_s * 0.2).max(0.05);
    scenario
}

/// Scenario 2 (70 → 84 Hz) trimmed to `duration_s` seconds for benchmarking.
pub fn scenario2(duration_s: f64) -> ScenarioConfig {
    let mut scenario = ScenarioConfig::scenario2();
    scenario.duration_s = duration_s;
    scenario.frequency_step_time_s = (duration_s * 0.2).max(0.05);
    scenario.initial_supercap_voltage = 2.6;
    scenario
}

/// A scenario run with one dense [`WaveformProbe`] at 1 ms: the decimated
/// trajectories the figures are computed from.
#[derive(Debug)]
pub struct DenseRun {
    session: Session,
    capture: ProbeId,
}

impl DenseRun {
    /// Runs `config` to the end on its configured engine.
    ///
    /// # Errors
    ///
    /// Propagates configuration, engine and kernel failures.
    pub fn run(config: &ScenarioConfig) -> Result<Self, CoreError> {
        let mut session = Simulation::from_config(config.clone()).start()?;
        let capture = session.add_probe(WaveformProbe::new(RECORD_INTERVAL_S));
        session.run_to_end()?;
        Ok(DenseRun { session, capture })
    }

    /// The finished session (report, harvester and its net indices).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The dense capture.
    pub fn waveform(&self) -> &WaveformProbe {
        self.session.probe::<WaveformProbe>(self.capture).expect("the capture keeps its type")
    }
}

/// Formats a duration as seconds with millisecond resolution.
pub fn seconds(duration: std::time::Duration) -> String {
    format!("{:.3}", duration.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_json_is_written_and_parseable_by_eye() {
        let dir = std::env::temp_dir();
        let path = dir.join("harvsim_bench_table2_test.json");
        let records = vec![
            Table2Record {
                name: "scenario1".to_string(),
                simulated_span_s: 5.0,
                baseline_cpu_s: 1.25,
                proposed_cpu_s: 0.25,
                speedup: 5.0,
                max_deviation_v: 0.01,
                steps: 1000,
                factorisations: 4,
                cached_solves: 996,
                steps_by_order: [2, 900, 58, 40],
                stiff_exact_steps: 1000,
                constant_stamps_skipped: 998,
                pwl_stamps_skipped: 950,
                peak_probe_bytes: 123456,
                binding_pole_re: -439.8,
                binding_pole_im: 62.1,
            },
            Table2Record {
                name: "scenario2".to_string(),
                simulated_span_s: 8.0,
                baseline_cpu_s: 2.0,
                proposed_cpu_s: 0.2,
                speedup: 10.0,
                max_deviation_v: 0.02,
                steps: 2000,
                factorisations: 6,
                cached_solves: 1994,
                steps_by_order: [4, 1800, 120, 76],
                stiff_exact_steps: 2000,
                constant_stamps_skipped: 1996,
                pwl_stamps_skipped: 1900,
                peak_probe_bytes: 4096,
                binding_pole_re: -512.4,
                binding_pole_im: 0.0,
            },
        ];
        write_table2_json(&path, &records).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(written.contains("\"experiment\": \"table2\""));
        assert!(written.contains("\"name\": \"scenario1\""));
        assert!(written.contains("\"speedup\": 5.000"));
        assert!(written.contains("\"min_speedup\": 5.000"));
        assert!(written.contains("\"steps\": 1000"));
        assert!(written.contains("\"factorisations\": 6"));
        assert!(written.contains("\"cached_solves\": 996"));
        assert!(written.contains("\"steps_by_order\": [2, 900, 58, 40]"));
        assert!(written.contains("\"stiff_exact_steps\": 1000"));
        assert!(written.contains("\"constant_stamps_skipped\": 998"));
        assert!(written.contains("\"pwl_stamps_skipped\": 950"));
        assert!(written.contains("\"peak_probe_bytes\": 123456"));
        assert!(written.contains("\"binding_pole_re\": -439.800"));
        assert!(written.contains("\"binding_pole_im\": 62.100"));
        // Braces balance (cheap well-formedness check without a JSON parser).
        assert_eq!(written.matches('{').count(), written.matches('}').count());
    }

    #[test]
    fn explore_json_carries_rows_front_and_counters() {
        use harvsim_core::{
            ExploreReport, ObjectiveSummary, PointMetrics, PointOutcome, PointRecord,
        };
        let report = ExploreReport {
            base_label: "scenario1".to_string(),
            axes: vec![("acc".to_string(), vec![0.45, 0.6])],
            subsample: 1.0,
            seed: 0,
            offered: 2,
            completed: 1,
            failed: 1,
            skipped: 0,
            workers: 2,
            threads_used: 2,
            steals: 1,
            warm_hits: 1,
            cold_starts: 1,
            resumed: 0,
            dropped_regions: 0,
            rows: vec![
                PointRecord {
                    index: 0,
                    label: "scenario1+acc=4.5e-1".to_string(),
                    values: vec![0.45],
                    warm: false,
                    recovered: false,
                    outcome: PointOutcome::Completed(PointMetrics {
                        energy_gain_j: 1.5e-4,
                        dip_v: 0.002,
                        wall_s: f64::NAN,
                        steps: 321,
                        v_first: 2.5,
                        v_last: 2.51,
                        rms_after_uw: 117.0,
                        final_state: vec![0.0; 3],
                    }),
                },
                PointRecord {
                    index: 1,
                    label: "scenario1+acc=6e-1".to_string(),
                    values: vec![0.6],
                    warm: true,
                    recovered: true,
                    outcome: PointOutcome::Failed(
                        "scenario `x`: a \"quoted\"\nfailure".to_string(),
                    ),
                },
            ],
            pareto_front: vec![0],
            summaries: vec![ObjectiveSummary {
                objective: "energy_gain_j",
                min: 1.5e-4,
                max: 1.5e-4,
                mean: 1.5e-4,
            }],
        };
        let path = std::env::temp_dir().join("harvsim_bench_explore_test.json");
        write_explore_json(&path, &report).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(written.contains("\"experiment\": \"explore\""));
        assert!(written.contains("\"param\": \"acc\""));
        assert!(written.contains("\"offered\": 2"));
        assert!(written.contains("\"warm_hits\": 1"));
        assert!(written.contains("\"status\": \"completed\""));
        assert!(written.contains("\"status\": \"failed\""));
        // The NaN wall-time clamps to 0.0 so the file stays parseable JSON.
        assert!(written.contains("\"wall_s\": 0.000000"));
        // Error strings arrive escaped, never raw.
        assert!(written.contains("a \\\"quoted\\\"\\nfailure"));
        assert!(written.contains("\"pareto_front\": [0]"));
        assert!(written.contains("\"objective\": \"energy_gain_j\""));
        assert_eq!(written.matches('{').count(), written.matches('}').count());
    }

    #[test]
    fn scenario_helpers_scale_the_span() {
        let s1 = scenario1(2.0);
        assert_eq!(s1.duration_s, 2.0);
        assert!(s1.frequency_step_time_s < 2.0);
        let s2 = scenario2(3.0);
        assert_eq!(s2.duration_s, 3.0);
        assert_eq!(s2.scenario.frequency_shift_hz(), 14.0);
        assert_eq!(seconds(std::time::Duration::from_millis(1500)), "1.500");
    }
}

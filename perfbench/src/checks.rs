//! Output checks. Each workload counts an operation whose result fails one of
//! these as failed, exactly like one that errored or was shed.

use harvsim_core::{fnv1a64, ExploreReport, ServerStats, WireState};

/// Largest store-voltage deviation Table II accepts between the proposed
/// engine and the Newton–Raphson baseline.
pub const DEVIATION_GATE_V: f64 = 2e-4;

/// Table II: the largest deviation between the two engines' store voltages
/// sampled at the same simulated times, or why the comparison fails.
pub fn matched_deviation(proposed: &[f64], baseline: &[f64]) -> Result<f64, String> {
    if proposed.is_empty() || proposed.len() != baseline.len() {
        return Err(format!(
            "matched samples differ in count ({} proposed vs {} baseline)",
            proposed.len(),
            baseline.len()
        ));
    }
    let mut worst = 0.0_f64;
    for (a, b) in proposed.iter().zip(baseline) {
        let deviation = (a - b).abs();
        if !deviation.is_finite() {
            return Err("non-finite store voltage".into());
        }
        worst = worst.max(deviation);
    }
    if worst > DEVIATION_GATE_V {
        return Err(format!(
            "max deviation {worst:.3e} V exceeds the {DEVIATION_GATE_V:.0e} V gate"
        ));
    }
    Ok(worst)
}

/// Explore: how many of the grid's points count as failed. A broken
/// report-level law (unbalanced accounting, empty Pareto front) fails the
/// whole grid; otherwise each failed row, each row with a non-finite
/// objective, and each row that differs from the same point in `reference`
/// (an earlier repetition — the study is deterministic) fails.
pub fn explore_failures(report: &ExploreReport, reference: Option<&ExploreReport>) -> usize {
    if report.offered != report.completed + report.failed + report.skipped
        || report.pareto_front.is_empty()
        || report.rows.len() != report.offered
    {
        return report.offered.max(1);
    }
    report
        .rows
        .iter()
        .enumerate()
        .filter(|(at, row)| {
            let Some(metrics) = row.metrics() else { return true };
            let objectives = [
                metrics.energy_gain_j,
                metrics.dip_v,
                metrics.v_first,
                metrics.v_last,
                metrics.rms_after_uw,
            ];
            if objectives.iter().any(|value| !value.is_finite()) {
                return true;
            }
            let Some(reference) = reference else { return false };
            match reference.rows.get(*at).and_then(|other| other.metrics()) {
                Some(expected) => {
                    expected.steps != metrics.steps
                        || expected.energy_gain_j.to_bits() != metrics.energy_gain_j.to_bits()
                        || expected.dip_v.to_bits() != metrics.dip_v.to_bits()
                        || expected.v_last.to_bits() != metrics.v_last.to_bits()
                }
                None => true,
            }
        })
        .count()
}

/// The server's bit-identity witness for a final state: FNV-1a over the
/// state vector's little-endian bytes.
pub fn state_fnv(state: &[f64]) -> u64 {
    let bytes: Vec<u8> = state.iter().flat_map(|value| value.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// Serve: a finished job is correct when it reached `done` and, if it was
/// sampled for an inline re-run, its final state is bit-identical to it.
pub fn served_job_ok(state: WireState, server_fnv: Option<u64>, inline_fnv: Option<u64>) -> bool {
    state == WireState::Done
        && match inline_fnv {
            Some(expected) => server_fnv == Some(expected),
            None => server_fnv.is_some(),
        }
}

/// Serve: the server's offer ledger balances and matches what was sent.
pub fn ledger_balanced(stats: &ServerStats, submitted: u64) -> Result<(), String> {
    if stats.offered != stats.admitted + stats.shed + stats.resubmitted {
        return Err(format!(
            "offered {} != admitted {} + shed {} + resubmitted {}",
            stats.offered, stats.admitted, stats.shed, stats.resubmitted
        ));
    }
    if stats.offered != submitted {
        return Err(format!("server saw {} offers, client sent {submitted}", stats.offered));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvsim_core::{Explorer, GridSpec, ScenarioConfig, SweepParameter};

    #[test]
    fn table2_deviation_gate_fails_corrupted_samples() {
        let proposed = vec![2.5, 2.51, 2.52];
        let baseline = vec![2.5 + 1e-4, 2.51, 2.52 - 5e-5];
        assert!((matched_deviation(&proposed, &baseline).unwrap() - 1e-4).abs() < 1e-12);
        let mut shifted = baseline.clone();
        shifted[1] += 3e-4;
        assert!(matched_deviation(&proposed, &shifted).is_err());
        let mut poisoned = baseline.clone();
        poisoned[2] = f64::NAN;
        assert!(matched_deviation(&proposed, &poisoned).is_err());
        assert!(matched_deviation(&proposed, &baseline[..2]).is_err());
        assert!(matched_deviation(&[], &[]).is_err());
    }

    fn tiny_grid() -> ExploreReport {
        let mut base = ScenarioConfig::scenario1();
        base.duration_s = 0.06;
        base.frequency_step_time_s = 0.03;
        let spec = GridSpec::new(base).axis(SweepParameter::InitialSupercapVoltage, &[2.4, 2.6]);
        Explorer::new(spec).workers(1).run().expect("tiny grid runs")
    }

    #[test]
    fn explore_checks_fail_corrupted_reports() {
        let good = tiny_grid();
        assert_eq!(explore_failures(&good, None), 0);
        assert_eq!(explore_failures(&good, Some(&good)), 0);

        let mut unbalanced = good.clone();
        unbalanced.completed -= 1;
        assert_eq!(explore_failures(&unbalanced, None), good.offered);

        let mut no_front = good.clone();
        no_front.pareto_front.clear();
        assert_eq!(explore_failures(&no_front, None), good.offered);

        let mut non_finite = good.clone();
        if let harvsim_core::PointOutcome::Completed(metrics) = &mut non_finite.rows[0].outcome {
            metrics.dip_v = f64::NAN;
        }
        assert_eq!(explore_failures(&non_finite, None), 1);

        let mut drifted = good.clone();
        if let harvsim_core::PointOutcome::Completed(metrics) = &mut drifted.rows[1].outcome {
            metrics.steps += 1;
        }
        assert_eq!(explore_failures(&drifted, Some(&good)), 1);

        let mut failed_row = good.clone();
        failed_row.rows[0].outcome = harvsim_core::PointOutcome::Failed("injected".into());
        failed_row.completed -= 1;
        failed_row.failed += 1;
        assert_eq!(explore_failures(&failed_row, None), 1);
    }

    #[test]
    fn serve_checks_fail_wrong_or_unfinished_jobs() {
        let state = [1.0, -2.5, 3.25];
        let witness = state_fnv(&state);
        assert!(served_job_ok(WireState::Done, Some(witness), Some(witness)));
        assert!(served_job_ok(WireState::Done, Some(witness), None));
        assert!(!served_job_ok(WireState::Done, Some(witness ^ 1), Some(witness)));
        assert!(!served_job_ok(WireState::Done, None, None));
        assert!(!served_job_ok(WireState::Failed, Some(witness), Some(witness)));
        assert!(!served_job_ok(WireState::Cancelled, None, None));
        assert_ne!(state_fnv(&[1.0, -2.5, 3.25 + 1e-15]), witness);
    }

    #[test]
    fn serve_ledger_check_fails_unbalanced_books() {
        let mut stats =
            ServerStats { offered: 10, admitted: 9, shed: 1, resubmitted: 0, ..Default::default() };
        assert!(ledger_balanced(&stats, 10).is_ok());
        assert!(ledger_balanced(&stats, 11).is_err());
        stats.admitted = 8;
        assert!(ledger_balanced(&stats, 10).is_err());
    }
}

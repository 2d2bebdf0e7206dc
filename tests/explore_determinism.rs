//! Determinism pins for the design-space explorer (DESIGN.md §12).
//!
//! Two contracts are pinned here:
//!
//! 1. **Scheduler independence** — the same `GridSpec` + seed produces
//!    bit-identical per-point results and an identical Pareto front whether
//!    the grid runs on 1 worker or on a 4-worker pool. This is the payoff
//!    of the fixed-donor chain design: the warm-start donor of every point
//!    is decided by the grid (nearest preceding completed point along the
//!    innermost axis), never by execution order.
//! 2. **Warm-start fidelity** — warm-started points land within the 2e-4 V
//!    deviation gate of cold-started references: adoption copies only the
//!    fast states and keeps the supercapacitor branches at the point's own
//!    pre-charge, so warmth is a solver head start, not a different answer.

use harvsim::{Explorer, GridSpec, ScenarioConfig, SweepParameter};

fn quick_base() -> ScenarioConfig {
    let mut base = ScenarioConfig::scenario1();
    base.duration_s = 0.06;
    base.frequency_step_time_s = 0.02;
    base
}

/// 4 chains × 3 points — as many chains as a 4-worker pool has workers.
fn pinned_spec() -> GridSpec {
    GridSpec::new(quick_base())
        .axis(SweepParameter::AccelerationAmplitude, &[0.45, 0.55, 0.65, 0.75])
        .axis(SweepParameter::InitialSupercapVoltage, &[2.3, 2.5, 2.7])
}

#[test]
fn one_worker_and_a_steal_heavy_pool_agree_bit_for_bit() {
    let sequential = Explorer::new(pinned_spec()).workers(1).run().unwrap();
    let stolen = Explorer::new(pinned_spec()).workers(4).run().unwrap();

    assert_eq!(sequential.rows.len(), 12);
    assert_eq!(stolen.rows.len(), 12);
    assert_eq!(sequential.completed, 12);
    assert_eq!(stolen.completed, 12);
    // Chain heads cold-start, all successors warm-start — on both schedules.
    assert_eq!(sequential.cold_starts, 4);
    assert_eq!(stolen.cold_starts, 4);
    assert_eq!(sequential.warm_hits, 8);
    assert_eq!(stolen.warm_hits, 8);

    for (a, b) in sequential.rows.iter().zip(&stolen.rows) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.label, b.label);
        assert_eq!(a.values, b.values);
        assert_eq!(a.warm, b.warm, "warmth of {} depends on the schedule", a.label);
        let (ma, mb) = (a.metrics().unwrap(), b.metrics().unwrap());
        // Every deterministic field must match exactly; `wall_s` is the one
        // intentionally nondeterministic field (and exactly why the Pareto
        // front prices run cost in steps, not seconds).
        assert_eq!(ma.steps, mb.steps, "step count of {} diverged", a.label);
        assert_eq!(ma.energy_gain_j.to_bits(), mb.energy_gain_j.to_bits());
        assert_eq!(ma.dip_v.to_bits(), mb.dip_v.to_bits());
        assert_eq!(ma.v_first.to_bits(), mb.v_first.to_bits());
        assert_eq!(ma.v_last.to_bits(), mb.v_last.to_bits());
        assert_eq!(ma.rms_after_uw.to_bits(), mb.rms_after_uw.to_bits());
        assert_eq!(ma.final_state.len(), mb.final_state.len());
        for (xa, xb) in ma.final_state.iter().zip(&mb.final_state) {
            assert_eq!(xa.to_bits(), xb.to_bits(), "final state of {} diverged", a.label);
        }
    }
    assert_eq!(sequential.pareto_front, stolen.pareto_front);
    assert!(!sequential.pareto_front.is_empty());
}

#[test]
fn warm_starts_stay_within_the_deviation_gate_of_cold_references() {
    // Paper-scale storage (250× the default supercapacitances) so the
    // supercap is the slow reservoir the warm-start design assumes.
    let spec = || {
        GridSpec::new(quick_base())
            .axis(SweepParameter::StorageScale, &[250.0])
            .axis(SweepParameter::AccelerationAmplitude, &[0.5, 0.7])
            .axis(SweepParameter::InitialSupercapVoltage, &[2.4, 2.5, 2.6])
    };
    let warm = Explorer::new(spec()).workers(2).run().unwrap();
    let cold = Explorer::new(spec()).workers(2).warm_start(false).run().unwrap();

    assert_eq!(warm.completed, 6);
    assert_eq!(cold.completed, 6);
    assert!(warm.warm_hits > 0, "the grid must actually exercise warm starts");
    assert_eq!(cold.warm_hits, 0);

    for (w, c) in warm.rows.iter().zip(&cold.rows) {
        assert_eq!(w.index, c.index);
        let (mw, mc) = (w.metrics().unwrap(), c.metrics().unwrap());
        let deviation = (mw.v_last - mc.v_last).abs();
        assert!(
            deviation <= 2e-4,
            "warm-started {} deviates {deviation:e} V from its cold reference",
            w.label
        );
    }
}

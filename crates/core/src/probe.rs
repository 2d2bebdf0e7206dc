//! Typed streaming probes — the observation side of the [`crate::session`]
//! facade.
//!
//! A [`Probe`] watches a running simulation instead of post-processing a
//! finished one, and probes are the only way out of a session: the engine
//! marches hand every accepted analogue point (`on_sample`) and the forced
//! segment-end samples (`on_final_sample`) straight to the session's probes,
//! and the session forwards every digital-kernel activation and control
//! action (`on_event`). The built-ins cover the measurements the
//! `measurement` module used to re-walk dense trajectories for, with
//! **O(1)** memory:
//!
//! * [`PowerProbe`] — streaming RMS/average generator-power windows plus the
//!   off-resonance dip scan (subsumes [`crate::measurement::power_report`]);
//! * [`EnvelopeProbe`] — running min/max/last of one state or terminal (the
//!   supercapacitor envelope of a sweep point);
//! * [`StepHistogramProbe`] — a log₂ histogram of the accepted step sizes
//!   (the per-*order* histogram stays in [`crate::SolverStats`], which the
//!   session reports alongside);
//! * [`WaveformProbe`] — the one deliberately O(steps) probe and the only
//!   dense recorder: decimated capture, for runs that need full trajectories
//!   (the figures, the Table II deviation, the bit-identity tests).
//!
//! A sweep point that attaches only streaming probes never materialises a
//! dense [`Trajectory`] at all — the property the `repro --sweep` grid and
//! its `peak_probe_bytes` record are built on.

use std::any::Any;

use harvsim_linalg::DVector;
use harvsim_ode::Trajectory;

use crate::checkpoint::{ByteReader, ByteWriter};
use crate::measurement::PowerReport;
use crate::session::ControlEvent;

/// A digital-side event forwarded to probes by the session.
#[derive(Debug, Clone, PartialEq)]
pub enum DigitalEvent {
    /// One digital-kernel process activation (tapped through
    /// `harvsim_digital::Kernel::run_until_with`), after the process has run.
    Activation {
        /// Simulation time of the activation, in seconds.
        time_s: f64,
        /// Name of the resumed process (e.g. `microcontroller`).
        process: String,
    },
    /// A control action the digital side applied to the analogue model
    /// (load-mode switch and/or resonance retune).
    Control(ControlEvent),
}

/// An observer attached to a [`crate::session::Session`].
///
/// Probes are trait objects; the session owns them and drives every hook.
/// All hooks except [`Probe::on_sample`] have conservative defaults, so a
/// minimal probe implements one method. `Probe: Any` enables typed retrieval
/// through [`crate::session::Session::probe`] after (or during) a run;
/// `Probe: Send` lets a session (and its probes) migrate between the worker
/// threads of a [`crate::server::Server`] or an [`crate::explore::Explorer`].
pub trait Probe: Any + Send {
    /// Called when an analogue segment `[t0, t_end]` opens (between digital
    /// events). Dense recorders reset their decimation clock here so every
    /// segment records its opening point; streaming probes normally ignore
    /// it.
    fn on_segment(&mut self, _t0: f64, _t_end: f64) {}

    /// Called once per accepted analogue point with the march's state and
    /// terminal vectors (borrowed from the engine — clone what must outlive
    /// the call); the march makes one dynamic call per probe per step. Sample
    /// times are non-decreasing; segment boundaries deliver the same time
    /// twice (segment-end forced sample, then the next segment's opening
    /// point), which integrating probes absorb as a zero-width trapezoid.
    fn on_sample(&mut self, t: f64, states: &DVector, terminals: &DVector);

    /// Called for the forced sample at the end of every analogue segment.
    /// The default forwards to [`Probe::on_sample`] (right for streaming
    /// accumulators); dense recorders override it to record unconditionally,
    /// decimation notwithstanding.
    fn on_final_sample(&mut self, t: f64, states: &DVector, terminals: &DVector) {
        self.on_sample(t, states, terminals);
    }

    /// Called for every digital-kernel activation and control action.
    fn on_event(&mut self, _event: &DigitalEvent) {}

    /// Bytes of sample-dependent memory this probe currently retains. The
    /// session tracks the high-water sum across all probes
    /// ([`crate::session::SessionReport::peak_probe_bytes`]) — the observable
    /// proof that a streaming run is O(1) in the simulated duration. The
    /// default reports the probe's own struct size, which is exact for
    /// heap-free streaming probes; retaining probes must add their buffers.
    fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self)
    }

    /// Serialises the probe's observation state for a session checkpoint.
    /// Blobs are self-describing (each built-in opens with a type tag), so a
    /// restore against the wrong probe type is detected, not silently
    /// accepted. The default returns an empty blob — correct for probes with
    /// no state worth carrying across a save/restore cycle.
    fn save_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state saved by [`Probe::save_state`] on a freshly constructed
    /// probe of the same type. Returns `false` (leaving the probe untouched)
    /// if the blob was not written by this probe type or is corrupt; the
    /// session maps that to a typed checkpoint error. The default accepts
    /// exactly the empty blob its default `save_state` produces.
    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        bytes.is_empty()
    }
}

// Probe-state blob type tags (first byte of every built-in probe blob).
const TAG_WAVEFORM: u8 = 1;
const TAG_POWER: u8 = 2;
const TAG_ENVELOPE: u8 = 3;
const TAG_STEP_HISTOGRAM: u8 = 4;

fn encode_trajectory(w: &mut ByteWriter, trajectory: &Trajectory) {
    w.put_usize(trajectory.len());
    for (time, state) in trajectory.times().iter().zip(trajectory.states()) {
        w.put_f64(*time);
        w.put_vector(state);
    }
}

fn decode_trajectory(r: &mut ByteReader<'_>) -> Option<Trajectory> {
    let len = r.take_usize().ok()?;
    let mut trajectory = Trajectory::new();
    for _ in 0..len {
        let time = r.take_f64().ok()?;
        let state = r.take_vector().ok()?;
        trajectory.push(time, state);
    }
    Some(trajectory)
}

/// Dense decimated waveform capture — the only dense recorder. Retains a
/// sample when at least `interval` seconds have passed since the last
/// retained one within the current segment, plus every forced segment-end
/// sample; the decimation clock resets at segment starts, so every segment
/// records its opening point. The interval is usually the engine's
/// [`crate::SimulationEngine::record_interval`].
#[derive(Debug, Clone)]
pub struct WaveformProbe {
    interval: f64,
    last_recorded: f64,
    states: Trajectory,
    terminals: Trajectory,
}

impl WaveformProbe {
    /// Creates a capture probe with the given minimum sample spacing
    /// (`0.0` retains every offered sample).
    pub fn new(interval: f64) -> Self {
        WaveformProbe {
            interval,
            last_recorded: f64::NEG_INFINITY,
            states: Trajectory::new(),
            terminals: Trajectory::new(),
        }
    }

    /// The captured state trajectory so far.
    pub fn states(&self) -> &Trajectory {
        &self.states
    }

    /// The captured terminal trajectory so far.
    pub fn terminals(&self) -> &Trajectory {
        &self.terminals
    }
}

impl Probe for WaveformProbe {
    fn on_segment(&mut self, _t0: f64, _t_end: f64) {
        self.last_recorded = f64::NEG_INFINITY;
    }

    fn on_sample(&mut self, t: f64, states: &DVector, terminals: &DVector) {
        if t - self.last_recorded >= self.interval {
            self.states.push(t, states.clone());
            self.terminals.push(t, terminals.clone());
            self.last_recorded = t;
        }
    }

    fn on_final_sample(&mut self, t: f64, states: &DVector, terminals: &DVector) {
        self.states.push(t, states.clone());
        self.terminals.push(t, terminals.clone());
    }

    fn memory_bytes(&self) -> usize {
        let per_sample = |trajectory: &Trajectory| {
            let state_len = trajectory.states().first().map(DVector::len).unwrap_or(0);
            trajectory.len() * (std::mem::size_of::<f64>() * (1 + state_len))
        };
        std::mem::size_of_val(self) + per_sample(&self.states) + per_sample(&self.terminals)
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(TAG_WAVEFORM);
        w.put_f64(self.interval);
        w.put_f64(self.last_recorded);
        encode_trajectory(&mut w, &self.states);
        encode_trajectory(&mut w, &self.terminals);
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        let mut r = ByteReader::new(bytes);
        let parsed = (|| {
            if r.take_u8().ok()? != TAG_WAVEFORM {
                return None;
            }
            let interval = r.take_f64().ok()?;
            let last_recorded = r.take_f64().ok()?;
            let states = decode_trajectory(&mut r)?;
            let terminals = decode_trajectory(&mut r)?;
            r.expect_end().ok()?;
            Some((interval, last_recorded, states, terminals))
        })();
        match parsed {
            Some((interval, last_recorded, states, terminals)) => {
                self.interval = interval;
                self.last_recorded = last_recorded;
                self.states = states;
                self.terminals = terminals;
                true
            }
            None => false,
        }
    }
}

/// Trapezoidal mean of a streamed scalar over a fixed window `[t0, t1]`,
/// with linear interpolation at the window edges — O(1) state.
#[derive(Debug, Clone, Copy)]
struct WindowMean {
    t0: f64,
    t1: f64,
    integral: f64,
    covered: f64,
}

impl WindowMean {
    fn new(t0: f64, t1: f64) -> Self {
        WindowMean { t0, t1, integral: 0.0, covered: 0.0 }
    }

    /// Accumulates the trapezoid of the segment `(ta, va) → (tb, vb)` clipped
    /// to the window.
    fn feed(&mut self, ta: f64, va: f64, tb: f64, vb: f64) {
        let lo = ta.max(self.t0);
        let hi = tb.min(self.t1);
        if hi <= lo {
            return;
        }
        let value_at = |t: f64| {
            if tb > ta {
                va + (vb - va) * (t - ta) / (tb - ta)
            } else {
                va
            }
        };
        let (v_lo, v_hi) = (value_at(lo), value_at(hi));
        self.integral += 0.5 * (v_lo + v_hi) * (hi - lo);
        self.covered += hi - lo;
    }

    fn mean(&self) -> f64 {
        if self.covered > 0.0 {
            self.integral / self.covered
        } else {
            0.0
        }
    }

    fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(self.t0);
        w.put_f64(self.t1);
        w.put_f64(self.integral);
        w.put_f64(self.covered);
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(WindowMean {
            t0: r.take_f64().ok()?,
            t1: r.take_f64().ok()?,
            integral: r.take_f64().ok()?,
            covered: r.take_f64().ok()?,
        })
    }
}

/// Streaming generator-power measurement: the instantaneous power
/// `p(t) = V_m(t)·I_m(t)` is integrated on the fly into the three figures the
/// paper quotes alongside Fig. 8(a) — mean power before the frequency step,
/// mean power after retuning, and the minimum windowed mean while detuned —
/// with O(1) memory. This subsumes the post-hoc
/// [`crate::measurement::power_report`] walk over recorded trajectories; the
/// probe integrates the *full* accepted-step grid instead of the decimated
/// recording, so its windows are at least as well resolved.
#[derive(Debug, Clone)]
pub struct PowerProbe {
    vm: usize,
    im: usize,
    before: WindowMean,
    after: WindowMean,
    /// Tumbling dip window currently being filled (starts at the frequency
    /// step; each window is `dip_window` long).
    dip_current: WindowMean,
    dip_window: f64,
    dip_end: f64,
    dip_min: f64,
    last: Option<(f64, f64)>,
}

impl PowerProbe {
    /// Creates a power probe for a run of `duration_s` whose ambient
    /// frequency steps at `step_time_s`, reading `V_m`/`I_m` from the given
    /// terminal indices (see `TunableHarvester::generator_voltage_net` /
    /// `generator_current_net`). The windows mirror
    /// [`crate::measurement::power_report`]: before = settled span up to the
    /// step, after = final quarter of the post-step span, dip = minimum
    /// 50 ms-mean between the step and the end.
    pub fn new(vm: usize, im: usize, step_time_s: f64, duration_s: f64) -> Self {
        let before_start = step_time_s * 0.2;
        let after_start = duration_s - (duration_s - step_time_s) * 0.25;
        PowerProbe {
            vm,
            im,
            before: WindowMean::new(before_start, step_time_s.max(before_start + 1e-3)),
            after: WindowMean::new(after_start, duration_s),
            dip_current: WindowMean::new(step_time_s, step_time_s + 0.05),
            dip_window: 0.05,
            dip_end: duration_s,
            dip_min: f64::INFINITY,
            last: None,
        }
    }

    /// The streaming [`PowerReport`]: RMS-equivalent mean power before the
    /// step and after retuning (in µW), and the minimum windowed mean in
    /// between. Valid at any point of the run; final once the run completes.
    pub fn report(&self) -> PowerReport {
        let after = self.after.mean();
        let mut dip = self.dip_min.min(after);
        // A partially filled final dip window still counts, exactly like the
        // truncated trailing window of the post-hoc scan.
        if self.dip_current.covered > 0.0 {
            dip = dip.min(self.dip_current.mean());
        }
        PowerReport {
            rms_before_uw: self.before.mean() * 1e6,
            rms_after_uw: after * 1e6,
            dip_uw: dip * 1e6,
        }
    }
}

impl Probe for PowerProbe {
    fn on_sample(&mut self, t: f64, _states: &DVector, terminals: &DVector) {
        let p = terminals[self.vm] * terminals[self.im];
        if let Some((ta, pa)) = self.last {
            if t > ta {
                self.before.feed(ta, pa, t, p);
                self.after.feed(ta, pa, t, p);
                // Tumbling dip windows: finalise every window the new sample
                // crosses (feeds clip to the window, so one segment can fill
                // several), then feed the remainder into the open one.
                while t >= self.dip_current.t1 && self.dip_current.t0 < self.dip_end {
                    self.dip_current.feed(ta, pa, t, p);
                    if self.dip_current.covered > 0.0 {
                        self.dip_min = self.dip_min.min(self.dip_current.mean());
                    }
                    let t1 = self.dip_current.t1;
                    self.dip_current = WindowMean::new(t1, t1 + self.dip_window);
                }
                self.dip_current.feed(ta, pa, t, p);
            }
        }
        self.last = Some((t, p));
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(TAG_POWER);
        w.put_usize(self.vm);
        w.put_usize(self.im);
        self.before.encode(&mut w);
        self.after.encode(&mut w);
        self.dip_current.encode(&mut w);
        w.put_f64(self.dip_window);
        w.put_f64(self.dip_end);
        w.put_f64(self.dip_min);
        match self.last {
            Some((t, p)) => {
                w.put_bool(true);
                w.put_f64(t);
                w.put_f64(p);
            }
            None => w.put_bool(false),
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        let mut r = ByteReader::new(bytes);
        let parsed = (|| {
            if r.take_u8().ok()? != TAG_POWER {
                return None;
            }
            let vm = r.take_usize().ok()?;
            let im = r.take_usize().ok()?;
            let before = WindowMean::decode(&mut r)?;
            let after = WindowMean::decode(&mut r)?;
            let dip_current = WindowMean::decode(&mut r)?;
            let dip_window = r.take_f64().ok()?;
            let dip_end = r.take_f64().ok()?;
            let dip_min = r.take_f64().ok()?;
            let last = if r.take_bool().ok()? {
                Some((r.take_f64().ok()?, r.take_f64().ok()?))
            } else {
                None
            };
            r.expect_end().ok()?;
            Some(PowerProbe {
                vm,
                im,
                before,
                after,
                dip_current,
                dip_window,
                dip_end,
                dip_min,
                last,
            })
        })();
        match parsed {
            Some(probe) => {
                *self = probe;
                true
            }
            None => false,
        }
    }
}

/// What an [`EnvelopeProbe`] watches: one component of the state vector or of
/// the terminal (net) vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SignalSource {
    /// Global state component `x[i]`.
    State(usize),
    /// Terminal (net) component `y[i]`.
    Terminal(usize),
}

/// Running min/max/last envelope of one signal — the O(1) replacement for
/// retaining a whole trajectory when a sweep only needs "did the store dip
/// below threshold / where did it end".
#[derive(Debug, Clone)]
pub struct EnvelopeProbe {
    source: SignalSource,
    min: f64,
    max: f64,
    first: f64,
    last: f64,
    samples: usize,
}

impl EnvelopeProbe {
    /// Envelope of a terminal (net) component — e.g. the supercapacitor
    /// voltage `V_c` (see `TunableHarvester::storage_voltage_net`).
    pub fn terminal(index: usize) -> Self {
        Self::of(SignalSource::Terminal(index))
    }

    /// Envelope of a global state component.
    pub fn state(index: usize) -> Self {
        Self::of(SignalSource::State(index))
    }

    fn of(source: SignalSource) -> Self {
        EnvelopeProbe {
            source,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            first: f64::NAN,
            last: f64::NAN,
            samples: 0,
        }
    }

    /// Minimum observed value (∞ before the first sample).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observed value (−∞ before the first sample).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// First observed value (NaN before the first sample).
    pub fn first(&self) -> f64 {
        self.first
    }

    /// Most recent observed value (NaN before the first sample).
    pub fn last(&self) -> f64 {
        self.last
    }

    /// Number of samples observed.
    pub fn samples(&self) -> usize {
        self.samples
    }
}

impl Probe for EnvelopeProbe {
    fn on_sample(&mut self, _t: f64, states: &DVector, terminals: &DVector) {
        let value = match self.source {
            SignalSource::State(i) => states[i],
            SignalSource::Terminal(i) => terminals[i],
        };
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if self.samples == 0 {
            self.first = value;
        }
        self.last = value;
        self.samples += 1;
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(TAG_ENVELOPE);
        match self.source {
            SignalSource::State(index) => {
                w.put_u8(0);
                w.put_usize(index);
            }
            SignalSource::Terminal(index) => {
                w.put_u8(1);
                w.put_usize(index);
            }
        }
        w.put_f64(self.min);
        w.put_f64(self.max);
        w.put_f64(self.first);
        w.put_f64(self.last);
        w.put_usize(self.samples);
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        let mut r = ByteReader::new(bytes);
        let parsed = (|| {
            if r.take_u8().ok()? != TAG_ENVELOPE {
                return None;
            }
            let source = match r.take_u8().ok()? {
                0 => SignalSource::State(r.take_usize().ok()?),
                1 => SignalSource::Terminal(r.take_usize().ok()?),
                _ => return None,
            };
            let probe = EnvelopeProbe {
                source,
                min: r.take_f64().ok()?,
                max: r.take_f64().ok()?,
                first: r.take_f64().ok()?,
                last: r.take_f64().ok()?,
                samples: r.take_usize().ok()?,
            };
            r.expect_end().ok()?;
            Some(probe)
        })();
        match parsed {
            Some(probe) => {
                *self = probe;
                true
            }
            None => false,
        }
    }
}

/// Number of logarithmic bins in the [`StepHistogramProbe`]; bin `k` covers
/// step sizes in `[2^(k-30), 2^(k-29))` seconds, spanning ~1 ns … ~0.26 s.
const STEP_HISTOGRAM_BINS: usize = 28;

/// Log₂ histogram of the accepted step sizes, measured as the spacing of the
/// offered sample times — the streaming view of "where does the march spend
/// its steps" that used to require a dense time vector. (The per-*order*
/// histogram is already O(1) in [`crate::SolverStats::steps_by_order`]; the
/// session reports both.) Duplicate times at segment boundaries are ignored.
#[derive(Debug, Clone)]
pub struct StepHistogramProbe {
    bins: [usize; STEP_HISTOGRAM_BINS],
    last_t: Option<f64>,
    total_steps: usize,
    min_dt: f64,
    max_dt: f64,
}

impl StepHistogramProbe {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        StepHistogramProbe {
            bins: [0; STEP_HISTOGRAM_BINS],
            last_t: None,
            total_steps: 0,
            min_dt: f64::INFINITY,
            max_dt: 0.0,
        }
    }

    /// Bin counts; bin `k` covers `[2^(k-30), 2^(k-29))` seconds.
    pub fn bins(&self) -> &[usize; STEP_HISTOGRAM_BINS] {
        &self.bins
    }

    /// Lower edge of bin `k`, in seconds.
    pub fn bin_floor(k: usize) -> f64 {
        (2.0_f64).powi(k as i32 - 30)
    }

    /// Number of intervals observed.
    pub fn total_steps(&self) -> usize {
        self.total_steps
    }

    /// Smallest observed step (∞ before two samples).
    pub fn min_dt(&self) -> f64 {
        self.min_dt
    }

    /// Largest observed step.
    pub fn max_dt(&self) -> f64 {
        self.max_dt
    }
}

impl Default for StepHistogramProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe for StepHistogramProbe {
    fn on_sample(&mut self, t: f64, _states: &DVector, _terminals: &DVector) {
        if let Some(last) = self.last_t {
            let dt = t - last;
            if dt > 0.0 {
                let bin = (dt.log2() + 30.0).floor().clamp(0.0, (STEP_HISTOGRAM_BINS - 1) as f64);
                self.bins[bin as usize] += 1;
                self.total_steps += 1;
                self.min_dt = self.min_dt.min(dt);
                self.max_dt = self.max_dt.max(dt);
            }
        }
        self.last_t = Some(t);
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(TAG_STEP_HISTOGRAM);
        for &bin in &self.bins {
            w.put_usize(bin);
        }
        w.put_bool(self.last_t.is_some());
        w.put_f64(self.last_t.unwrap_or(0.0));
        w.put_usize(self.total_steps);
        w.put_f64(self.min_dt);
        w.put_f64(self.max_dt);
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        let mut r = ByteReader::new(bytes);
        let parsed = (|| {
            if r.take_u8().ok()? != TAG_STEP_HISTOGRAM {
                return None;
            }
            let mut bins = [0usize; STEP_HISTOGRAM_BINS];
            for bin in bins.iter_mut() {
                *bin = r.take_usize().ok()?;
            }
            let have_last = r.take_bool().ok()?;
            let last = r.take_f64().ok()?;
            let probe = StepHistogramProbe {
                bins,
                last_t: have_last.then_some(last),
                total_steps: r.take_usize().ok()?,
                min_dt: r.take_f64().ok()?,
                max_dt: r.take_f64().ok()?,
            };
            r.expect_end().ok()?;
            Some(probe)
        })();
        match parsed {
            Some(probe) => {
                *self = probe;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(probe: &mut dyn Probe, t: f64, x: &[f64], y: &[f64]) {
        probe.on_sample(t, &DVector::from_slice(x), &DVector::from_slice(y));
    }

    #[test]
    fn waveform_probe_decimates_and_resets_per_segment() {
        let mut probe = WaveformProbe::new(0.01);
        probe.on_segment(0.0, 0.05);
        for k in 0..=10 {
            sample(&mut probe, k as f64 * 0.002, &[k as f64], &[0.0]);
        }
        // 0.0, 0.01(8: t=0.016? no: retained at 0.0, 0.010, 0.020)
        let times = probe.states().times().to_vec();
        assert_eq!(times.first(), Some(&0.0));
        assert!(times.windows(2).all(|w| w[1] - w[0] >= 0.01 - 1e-12));
        let before = probe.states().len();
        // Forced segment-end sample records regardless of spacing.
        probe.on_final_sample(0.0201, &DVector::from_slice(&[99.0]), &DVector::from_slice(&[0.0]));
        assert_eq!(probe.states().len(), before + 1);
        // New segment: the opening point records even though it repeats.
        probe.on_segment(0.0201, 0.1);
        sample(&mut probe, 0.0201, &[99.0], &[0.0]);
        assert_eq!(probe.states().len(), before + 2);
        assert!(probe.memory_bytes() > std::mem::size_of::<WaveformProbe>());
        assert_eq!(probe.states().len(), probe.terminals().len());
    }

    #[test]
    fn envelope_probe_tracks_min_max_last() {
        let mut probe = EnvelopeProbe::terminal(1);
        sample(&mut probe, 0.0, &[0.0], &[0.0, 2.5]);
        sample(&mut probe, 1.0, &[0.0], &[0.0, 2.2]);
        sample(&mut probe, 2.0, &[0.0], &[0.0, 2.8]);
        assert_eq!(probe.min(), 2.2);
        assert_eq!(probe.max(), 2.8);
        assert_eq!(probe.first(), 2.5);
        assert_eq!(probe.last(), 2.8);
        assert_eq!(probe.samples(), 3);
        // O(1): the probe's own struct size, independent of sample count.
        assert_eq!(probe.memory_bytes(), std::mem::size_of::<EnvelopeProbe>());
        let mut state_probe = EnvelopeProbe::state(0);
        sample(&mut state_probe, 0.0, &[-1.0], &[0.0, 0.0]);
        assert_eq!(state_probe.min(), -1.0);
    }

    #[test]
    fn power_probe_means_match_a_flat_waveform() {
        // Constant p = 2 W everywhere: every window mean must be exactly 2 W.
        let mut probe = PowerProbe::new(0, 1, 1.0, 4.0);
        let mut t = 0.0;
        while t <= 4.0 {
            sample(&mut probe, t, &[0.0], &[2.0, 1.0]);
            t += 0.01;
        }
        let report = probe.report();
        assert!((report.rms_before_uw - 2e6).abs() < 1.0, "before {}", report.rms_before_uw);
        assert!((report.rms_after_uw - 2e6).abs() < 1.0, "after {}", report.rms_after_uw);
        assert!((report.dip_uw - 2e6).abs() < 1.0, "dip {}", report.dip_uw);
    }

    #[test]
    fn power_probe_dip_finds_the_trough() {
        // p = 1 W, except a 0.2 s trough at 0.1 W in the middle of the
        // post-step span.
        let mut probe = PowerProbe::new(0, 1, 1.0, 4.0);
        let mut t = 0.0;
        while t <= 4.0 {
            let p: f64 = if (2.0..2.2).contains(&t) { 0.1 } else { 1.0 };
            sample(&mut probe, t, &[0.0], &[p, 1.0]);
            t += 0.001;
        }
        let report = probe.report();
        assert!(report.dip_uw < 0.2e6, "dip {} should see the trough", report.dip_uw);
        assert!((report.rms_after_uw - 1e6).abs() < 1e4, "after {}", report.rms_after_uw);
        // Streaming state stays O(1).
        assert_eq!(probe.memory_bytes(), std::mem::size_of::<PowerProbe>());
    }

    #[test]
    fn step_histogram_bins_by_log2() {
        let mut probe = StepHistogramProbe::default();
        let mut t = 0.0;
        for _ in 0..100 {
            sample(&mut probe, t, &[0.0], &[0.0]);
            t += 1e-4;
        }
        // Duplicate boundary time is ignored.
        sample(&mut probe, t - 1e-4, &[0.0], &[0.0]);
        assert_eq!(probe.total_steps(), 99);
        assert!((probe.min_dt() - 1e-4).abs() < 1e-9);
        assert!((probe.max_dt() - 1e-4).abs() < 1e-9);
        let filled: Vec<usize> =
            (0..STEP_HISTOGRAM_BINS).filter(|&k| probe.bins()[k] > 0).collect();
        // 1e-4 s lands in exactly one bin (modulo float rounding at edges).
        assert!(filled.len() <= 2, "bins {filled:?}");
        let k = filled[0];
        assert!(StepHistogramProbe::bin_floor(k) <= 1e-4);
        assert!(StepHistogramProbe::bin_floor(k + 2) > 1e-4);
    }
}

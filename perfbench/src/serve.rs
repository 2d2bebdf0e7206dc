//! `serve`: the front door under a closed loop. One generator thread drives
//! two unix-socket connections to an in-process `Server` (2 workers, default
//! 0.05 s slices, store on the real filesystem):
//!
//! * connection A keeps one interactive job in flight (scenario 1, a few
//!   tenths of a simulated second) — its submit-to-`done` latency is the
//!   user-facing number;
//! * connection B keeps two background jobs in flight: batch on scenario 2
//!   and best-effort on scenario 1, each several simulated seconds long.
//!
//! Every slice is checkpointed and fsync'd, so checkpointing, the store,
//! class scheduling and the protocol set these numbers; the Newton–Raphson
//! baseline and the explorer do nothing here. Job specs are drawn from the
//! seed, and no two are identical.

use std::collections::HashSet;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use harvsim_core::{
    Client, Command, JobClass, Response, RetryPolicy, Server, ServerOptions, SessionStore,
    StatusInfo, SubmitSpec, WireError, WireState,
};

use crate::checks::{ledger_balanced, served_job_ok, state_fnv};
use crate::host::{factor, fsync_probe_us, peak_rss_mb, HostClock, FSYNC_NOMINAL_US};
use crate::layers;
use crate::stats::{median, percentile, Metric};
use crate::trace::Tracer;
use crate::{Options, Outcome, Rng};

const WORKERS: usize = 2;
/// Server start-ups per run; the last one serves the timed phase.
const SETUPS: usize = 15;
/// Interactive status poll period: the resolution of the latency metric.
const INTERACTIVE_POLL: Duration = Duration::from_micros(500);
/// Background status poll period.
const BACKGROUND_POLL_S: f64 = 0.01;
/// Period of the CPU burst and disk probe taken in the generator thread.
const REFERENCE_PERIOD_S: f64 = 0.05;
/// References within this many seconds of a job scale its latency.
const LATENCY_PAD: f64 = 0.5;
/// The interactive p95 needs at least this many samples.
const MIN_INTERACTIVE: usize = 200;
/// Finished jobs re-run inline for the bit-identity check.
const SAMPLED_INTERACTIVE: usize = 8;

type Connector = Box<dyn FnMut(&RetryPolicy) -> std::io::Result<(UnixStream, UnixStream)>>;
type WireClient = Client<UnixStream, Connector>;

fn connector(path: PathBuf) -> Connector {
    Box::new(move |policy: &RetryPolicy| {
        let stream = UnixStream::connect(&path)?;
        stream.set_read_timeout(Some(policy.deadline))?;
        let read_half = stream.try_clone()?;
        Ok((read_half, stream))
    })
}

/// A running server with its listener thread and the two connections.
struct Stack {
    server: Server,
    listener: JoinHandle<std::io::Result<()>>,
    interactive: WireClient,
    background: WireClient,
}

/// Sends one command, recording a span tagged with the command and job.
fn send(
    client: &mut WireClient,
    command: &Command,
    tracer: &mut Tracer,
    verb: &'static str,
    job: u64,
) -> Result<Response, String> {
    let started = Instant::now();
    let reply = client.send(command).map_err(|err| format!("{verb}: {err}"))?;
    tracer.record("Client::send", verb, job, None, started, Instant::now());
    Ok(reply)
}

/// Store open, server start, socket bind, both client connections.
fn start_stack(dir: &Path, socket: &Path, tracer: &mut Tracer, job: u64) -> Result<Stack, String> {
    let opened = Instant::now();
    let store = SessionStore::open(dir).map_err(|err| err.to_string())?;
    tracer.record("SessionStore::open", "setup", job, None, opened, Instant::now());
    let options = ServerOptions { workers: Some(WORKERS), ..ServerOptions::default() };
    let server = Server::start(store, options).map_err(|err| err.to_string())?;
    let listener = {
        let server = server.clone();
        let socket = socket.to_path_buf();
        std::thread::spawn(move || server.serve_unix(&socket))
    };
    let bind_deadline = Instant::now() + Duration::from_secs(5);
    while !socket.exists() {
        if Instant::now() > bind_deadline {
            return Err(format!("server never bound {}", socket.display()));
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    // The listener polls a non-blocking accept every 5 ms. Connecting in the
    // microseconds between bind and its first poll would skip that wait at
    // random; waiting 1 ms first makes every set-up pay it, so the set-up
    // time is steady (and a faster accept path would show in it).
    std::thread::sleep(Duration::from_millis(1));
    let connect = || Client::new(connector(socket.to_path_buf()), RetryPolicy::default());
    let mut interactive = connect();
    let mut background = connect();
    for client in [&mut interactive, &mut background] {
        match send(client, &Command::Ping, tracer, "ping", job)? {
            Response::Pong => {}
            other => return Err(format!("ping answered {other:?}")),
        }
    }
    Ok(Stack { server, listener, interactive, background })
}

fn stop_stack(mut stack: Stack, tracer: &mut Tracer) -> Result<(), String> {
    match send(&mut stack.interactive, &Command::Drain, tracer, "drain", 0)? {
        Response::Drained { .. } => {}
        other => return Err(format!("drain answered {other:?}")),
    }
    stack.server.join();
    drop(stack.interactive);
    drop(stack.background);
    match stack.listener.join() {
        Ok(result) => result.map_err(|err| format!("listener: {err}")),
        Err(_) => Err("listener thread panicked".into()),
    }
}

/// Irrational steps of the per-dimension Weyl sequences behind the job specs.
const WEYL: [f64; 3] = [0.414_213_562_373_095, 0.732_050_807_568_877, 0.236_067_977_499_789];

/// Seeded job specs, distinct within a run. Each class walks a Weyl
/// sequence from seeded offsets, so every run covers each parameter range
/// evenly — the seed changes which specs run, not how costly the mix is.
struct JobSource {
    rng: Rng,
    offsets: [[f64; 3]; 3],
    drawn: [u64; 3],
    used: HashSet<(u8, u64, u64, u64)>,
    next_id: u64,
}

impl JobSource {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let offsets = [(); 3].map(|_| [(); 3].map(|_| rng.unit()));
        JobSource { rng, offsets, drawn: [0; 3], used: HashSet::new(), next_id: 0 }
    }

    fn draw(&mut self, class: JobClass) -> SubmitSpec {
        // (scenario, span range, step-time range) per class.
        let (scenario, span, step, prefix) = match class {
            JobClass::Interactive => (1, (0.15, 0.25), (0.05, 0.10), "i"),
            JobClass::Batch => (2, (3.0, 5.0), (0.5, 1.0), "b"),
            JobClass::BestEffort => (1, (2.0, 4.0), (0.3, 0.6), "e"),
        };
        let lane = class.index();
        let round = |value: f64| (value * 1e4).round() / 1e4;
        loop {
            let k = self.drawn[lane] as f64;
            self.drawn[lane] += 1;
            let u = |dim: usize| (self.offsets[lane][dim] + k * WEYL[dim]).fract();
            let duration = round(span.0 + (span.1 - span.0) * u(0));
            let step_at = round(step.0 + (step.1 - step.0) * u(1));
            let v0 = round(2.45 + 0.2 * u(2));
            if !self.used.insert((scenario, duration.to_bits(), step_at.to_bits(), v0.to_bits())) {
                continue;
            }
            self.next_id += 1;
            let mut spec = SubmitSpec::new(format!("{prefix}{}", self.next_id));
            spec.class = class;
            spec.scenario = scenario;
            spec.duration_s = Some(duration);
            spec.step_at_s = Some(step_at);
            spec.initial_voltage = Some(v0);
            return spec;
        }
    }
}

/// A submitted job, then its observed outcome.
struct Job {
    spec: SubmitSpec,
    number: u64,
    submitted: Instant,
    submitted_s: f64,
    traced: bool,
    done: Option<Done>,
}

struct Done {
    latency_s: f64,
    done_s: f64,
    status: StatusInfo,
}

fn span_of(spec: &SubmitSpec) -> f64 {
    spec.duration_s.expect("every drawn spec sets its span")
}

/// Submits `spec`; `Ok(None)` when the server shed it.
fn submit(
    client: &mut WireClient,
    spec: SubmitSpec,
    number: u64,
    tracer: &mut Tracer,
    clock: &HostClock,
) -> Result<Option<Job>, String> {
    let submitted = Instant::now();
    let submitted_s = clock.elapsed_s();
    match send(client, &Command::Submit(spec.clone()), tracer, "submit", number)? {
        Response::Submitted { .. } => Ok(Some(Job {
            spec,
            number,
            submitted,
            submitted_s,
            traced: tracer.enabled(),
            done: None,
        })),
        Response::Error(WireError::Overloaded { .. }) => Ok(None),
        other => Err(format!("submit {} answered {other:?}", spec.id)),
    }
}

fn status(client: &mut WireClient, job: &Job, tracer: &mut Tracer) -> Result<StatusInfo, String> {
    let command = Command::Status { id: job.spec.id.clone() };
    match send(client, &command, tracer, "status", job.number)? {
        Response::Status(info) => Ok(info),
        other => Err(format!("status {} answered {other:?}", job.spec.id)),
    }
}

/// The closed-loop phase's raw results.
struct Loop {
    finished: Vec<Job>,
    /// Jobs that failed, were cancelled or were shed.
    lost: u64,
    submitted: u64,
    window_s: f64,
    served_sim_s: f64,
    /// Engine time the server billed for the simulated seconds counted in
    /// `served_sim_s`.
    billed_s: f64,
}

/// The two host references: CPU bursts and disk probes, on one time axis.
struct References {
    cpu: HostClock,
    disk: HostClock,
}

impl References {
    /// Expresses `total` wall seconds, of which `billed` were engine time, at
    /// the reference host: the engine part scaled by the CPU reference, the
    /// rest — checkpoint persistence and the queueing behind it, which fsync
    /// latency dominates — by the disk reference `disk_us`.
    fn split(&self, total: f64, billed: f64, cpu_us: f64, disk_us: f64) -> f64 {
        let billed = billed.min(total);
        billed * factor(cpu_us) + (total - billed) * FSYNC_NOMINAL_US / disk_us
    }

    /// One job's latency observed between `t0` and `t1`, scaled by the
    /// median of the references within `LATENCY_PAD` of it.
    fn latency(&self, total: f64, billed: f64, t0: f64, t1: f64) -> f64 {
        let cpu = self.cpu.median_around(t0, t1, LATENCY_PAD);
        self.split(total, billed, cpu, self.disk.median_around(t0, t1, LATENCY_PAD))
    }

    /// Worker time over the window `[t0, t1]`, for a rate. A rate sums
    /// service times, so its disk part is scaled by the mean probe.
    fn window(&self, total: f64, billed: f64, t0: f64, t1: f64) -> f64 {
        self.split(total, billed, self.cpu.median_around(t0, t1, 0.0), self.disk_mean(t0, t1))
    }

    /// Mean disk probe over `[t0, t1]`, µs.
    fn disk_mean(&self, t0: f64, t1: f64) -> f64 {
        let probes = self.disk.window(t0, t1);
        probes.iter().sum::<f64>() / probes.len().max(1) as f64
    }
}

fn closed_loop(
    stack: &mut Stack,
    options: &Options,
    tracer: &mut Tracer,
    refs: &mut References,
    work: &Path,
    jobs: &mut JobSource,
) -> Result<Loop, String> {
    // The traced run splits the window into four phases, traced and
    // untraced alternating in a seeded order.
    let phase_count = if options.trace { 4 } else { 1 };
    let traced_first = jobs.rng.below(2) == 0;
    let phase_len = options.seconds / phase_count as f64;
    let mut result = Loop {
        finished: Vec::new(),
        lost: 0,
        submitted: 0,
        window_s: options.seconds,
        served_sim_s: 0.0,
        billed_s: 0.0,
    };
    let mut interactive: Option<Job> = None;
    let mut background: [Option<Job>; 2] = [None, None];
    let classes = [JobClass::Batch, JobClass::BestEffort];
    let window_start = refs.cpu.elapsed_s();
    let mut next_reference = window_start;
    let mut next_background = window_start;
    let mut number = 0u64;
    let mut snapshot_taken = false;
    loop {
        let now = refs.cpu.elapsed_s();
        let elapsed = now - window_start;
        let open = elapsed < options.seconds;
        let phase = ((elapsed / phase_len) as usize).min(phase_count - 1);
        tracer.set_enabled(options.trace && (phase.is_multiple_of(2) == traced_first));

        if !open && !snapshot_taken {
            // End of the window: count the simulated progress of jobs still
            // in flight, then stop submitting.
            snapshot_taken = true;
            result.window_s = elapsed;
            if let Some(job) = &interactive {
                let info = status(&mut stack.interactive, job, tracer)?;
                result.served_sim_s += info.time_s;
                result.billed_s += info.billed_ns as f64 / 1e9;
            }
            for job in background.iter().flatten() {
                let info = status(&mut stack.background, job, tracer)?;
                result.served_sim_s += info.time_s;
                result.billed_s += info.billed_ns as f64 / 1e9;
            }
        }

        if interactive.is_none() && open {
            number += 1;
            let spec = jobs.draw(JobClass::Interactive);
            result.submitted += 1;
            match submit(&mut stack.interactive, spec, number, tracer, &refs.cpu)? {
                Some(job) => interactive = Some(job),
                None => result.lost += 1,
            }
        }
        if let Some(job) = interactive.as_mut() {
            let info = status(&mut stack.interactive, job, tracer)?;
            match info.state {
                WireState::Done => {
                    let latency_s = job.submitted.elapsed().as_secs_f64();
                    if open {
                        result.served_sim_s += span_of(&job.spec);
                        result.billed_s += info.billed_ns as f64 / 1e9;
                    }
                    job.done = Some(Done { latency_s, done_s: refs.cpu.elapsed_s(), status: info });
                    result.finished.extend(interactive.take());
                    continue;
                }
                WireState::Failed | WireState::Cancelled => {
                    println!("interactive {} ended {}", job.spec.id, info.state);
                    result.lost += 1;
                    interactive = None;
                }
                _ => {}
            }
        }
        if now >= next_background {
            next_background = now + BACKGROUND_POLL_S;
            for (slot, class) in background.iter_mut().zip(classes) {
                if slot.is_none() && open {
                    number += 1;
                    let spec = jobs.draw(class);
                    result.submitted += 1;
                    match submit(&mut stack.background, spec, number, tracer, &refs.cpu)? {
                        Some(job) => *slot = Some(job),
                        None => result.lost += 1,
                    }
                    continue;
                }
                let Some(job) = slot.as_mut() else { continue };
                if !open {
                    continue;
                }
                let info = status(&mut stack.background, job, tracer)?;
                match info.state {
                    WireState::Done => {
                        let latency_s = job.submitted.elapsed().as_secs_f64();
                        result.served_sim_s += span_of(&job.spec);
                        result.billed_s += info.billed_ns as f64 / 1e9;
                        job.done =
                            Some(Done { latency_s, done_s: refs.cpu.elapsed_s(), status: info });
                        result.finished.extend(slot.take());
                    }
                    WireState::Failed | WireState::Cancelled => {
                        println!("{} {} ended {}", class, job.spec.id, info.state);
                        result.lost += 1;
                        *slot = None;
                    }
                    _ => {}
                }
            }
        }
        if !open && interactive.is_none() {
            break;
        }
        if now >= next_reference {
            next_reference = now + REFERENCE_PERIOD_S;
            refs.cpu.sample(1);
            refs.disk.record(fsync_probe_us(work).map_err(|err| format!("fsync probe: {err}"))?);
        }
        std::thread::sleep(INTERACTIVE_POLL);
    }
    tracer.set_enabled(options.trace);
    Ok(result)
}

pub fn run(options: &Options, tracer: &mut Tracer, work: &Path) -> Result<Outcome, String> {
    let cpu = HostClock::new();
    let disk = HostClock::with_origin(cpu.origin());
    let mut refs = References { cpu, disk };
    let mut jobs = JobSource::new(options.seed);
    let mut outcome = Outcome::default();

    // Set-up, several times; the last stack serves the timed phase. Most of
    // a set-up is waiting (the listener polls `accept` every 5 ms, opening
    // the store persists its manifest), which neither reference tracks, so
    // `setup_s` here is the raw median: scaling it by either reference was
    // measured to widen its run-to-run spread, not narrow it.
    let mut setups = Vec::new();
    let mut stack = None;
    for round in 0..SETUPS {
        let started = Instant::now();
        let dir = work.join(format!("store-{round}"));
        let fresh = start_stack(&dir, &work.join(format!("s{round}.sock")), tracer, round as u64)?;
        setups.push(started.elapsed().as_secs_f64());
        if round + 1 < SETUPS {
            stop_stack(fresh, tracer)?;
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            stack = Some(fresh);
        }
    }
    let mut stack = stack.expect("at least one set-up");

    let window_from = refs.cpu.elapsed_s();
    let looped = closed_loop(&mut stack, options, tracer, &mut refs, work, &mut jobs)?;
    let window_to = window_from + looped.window_s;

    // Checks, outside the timed phase: a seeded sample of finished jobs is
    // re-run inline and must be bit-identical; every finished job must be
    // `done` with a final-state witness; the offer ledger must balance.
    let mut sample: Vec<usize> = (0..looped.finished.len())
        .filter(|&i| looped.finished[i].spec.class == JobClass::Interactive)
        .collect();
    jobs.rng.shuffle(&mut sample);
    sample.truncate(SAMPLED_INTERACTIVE);
    for class in [JobClass::Batch, JobClass::BestEffort] {
        if let Some(index) = looped.finished.iter().position(|job| job.spec.class == class) {
            sample.push(index);
        }
    }
    let mut wrong = 0u64;
    for (index, job) in looped.finished.iter().enumerate() {
        let done = job.done.as_ref().expect("finished jobs are done");
        let inline = if sample.contains(&index) {
            let mut session = job.spec.simulation().start().map_err(|err| err.to_string())?;
            session.run_to_end().map_err(|err| err.to_string())?;
            Some(state_fnv(session.report().final_state.as_slice()))
        } else {
            None
        };
        if !served_job_ok(done.status.state, done.status.final_state_fnv, inline) {
            println!("job {} served a wrong answer", job.spec.id);
            wrong += 1;
        }
    }
    let stats = match send(&mut stack.interactive, &Command::Stats, tracer, "stats", 0)? {
        Response::Stats(stats) => stats,
        other => return Err(format!("stats answered {other:?}")),
    };
    if let Err(reason) = ledger_balanced(&stats, looped.submitted) {
        outcome.problems.push(format!("offer ledger: {reason}"));
    }
    let interactive: Vec<&Job> =
        looped.finished.iter().filter(|job| job.spec.class == JobClass::Interactive).collect();
    if interactive.len() < MIN_INTERACTIVE {
        outcome.problems.push(format!(
            "only {} interactive jobs finished; the p95 needs {MIN_INTERACTIVE}",
            interactive.len()
        ));
    }
    outcome.attempted = looped.finished.len() as u64 + looped.lost;
    outcome.failed = looped.lost + wrong;
    stop_stack(stack, tracer)?;

    // Each latency is scaled by the references taken around it, the rate by
    // the window's: the served sim-seconds per reference second of worker
    // time, split into billed engine time and the rest.
    let latencies = |traced: Option<bool>| -> (Vec<f64>, Vec<f64>) {
        interactive
            .iter()
            .filter(|job| traced.is_none_or(|want| job.traced == want))
            .map(|job| {
                let done = job.done.as_ref().expect("finished jobs are done");
                let billed = done.status.billed_ns as f64 / 1e9;
                (refs.latency(done.latency_s, billed, job.submitted_s, done.done_s), done.latency_s)
            })
            .unzip()
    };
    let worker_s = WORKERS as f64 * looped.window_s;
    let worker_ref_s = refs.window(worker_s, looped.billed_s, window_from, window_to);
    let served_raw = looped.served_sim_s / looped.window_s;
    let served = looped.served_sim_s * WORKERS as f64 / worker_ref_s;
    let (norm, raw) = latencies(None);
    let cpu_scale = factor(refs.cpu.median_around(window_from, window_to, 0.0));
    let disk_scale = FSYNC_NOMINAL_US / refs.disk_mean(window_from, window_to);

    // Serve-only numbers, for the reader.
    let d = &mut outcome.derived;
    d.push(Metric::single("serve.interactive_jobs", "count", interactive.len() as f64));
    d.push(Metric::single(
        "serve.background_jobs",
        "count",
        (looped.finished.len() - interactive.len()) as f64,
    ));
    let mut p95 = Metric::single("serve.interactive_p95_s", "s", percentile(&norm, 0.95));
    p95.reps = norm.len();
    d.push(p95);
    d.push(Metric::single("raw.interactive_p95_s", "s", percentile(&raw, 0.95)));
    let class_jobs = |class: JobClass| {
        looped.finished.iter().filter(|job| job.spec.class == class).count().max(1)
    };
    for (class, name) in [
        (JobClass::Interactive, "interactive"),
        (JobClass::Batch, "batch"),
        (JobClass::BestEffort, "best_effort"),
    ] {
        let total_ms = stats.queue_latency_ns[class.index()] as f64 / 1e6;
        d.push(Metric::single(
            format!("server.queue_wait_ms_{name}"),
            "ms",
            total_ms / class_jobs(class) as f64 * disk_scale,
        ));
    }
    let outside: Vec<f64> = interactive
        .iter()
        .map(|job| {
            let done = job.done.as_ref().expect("finished jobs are done");
            1.0 - done.status.billed_ns as f64 / 1e9 / done.latency_s
        })
        .collect();
    d.push(Metric::repeated("server.outside_engine_frac", "frac", &outside));
    let rtt_us: Vec<f64> =
        tracer.durations("Client::send", "status").iter().map(|ns| ns / 1e3 * cpu_scale).collect();
    if !rtt_us.is_empty() {
        d.push(Metric::single("protocol.status_rtt_us_p50", "us", percentile(&rtt_us, 0.5)));
        d.push(Metric::single("protocol.status_rtt_us_p95", "us", percentile(&rtt_us, 0.95)));
    }
    d.push(Metric::single("server.shed", "count", stats.shed as f64));
    d.push(Metric::single("server.failed", "count", stats.failed as f64));

    let host = Metric::repeated("host.ref_us", "us", &refs.cpu.all_us());
    let raws = [
        Metric::repeated("raw.setup_s", "s", &setups),
        Metric::repeated("raw.latency_s", "s", &raw),
        Metric::single("raw.sim_s_per_s", "sim-s/s", served_raw),
    ];
    if !options.trace {
        outcome.derived.push(host);
        outcome.derived.push(Metric::repeated("host.fsync_us", "us", &refs.disk.all_us()));
        outcome.derived.extend(raws);
        outcome.metrics.push(Metric::repeated("setup_s", "s", &setups));
        outcome.metrics.push(Metric::single("peak_rss_mb", "MiB", peak_rss_mb()));
        outcome.metrics.push(Metric::repeated("latency_s", "s", &norm));
        outcome.metrics.push(Metric::single("sim_s_per_s", "sim-s/s", served));
        return Ok(outcome);
    }

    // Engine layers: one finished job of each class marched inline on both
    // engines and replayed; durability layers on a fixed session.
    let simulations: Vec<_> = [JobClass::Interactive, JobClass::Batch, JobClass::BestEffort]
        .into_iter()
        .filter_map(|class| looped.finished.iter().find(|job| job.spec.class == class))
        .map(|job| job.spec.simulation())
        .collect();
    let (traced_norm, _) = latencies(Some(true));
    let (untraced_norm, _) = latencies(Some(false));
    let marched = layers::march_both(&simulations, tracer)?;
    let replay = layers::replay(&marched.captures(), tracer)?;
    let durability = layers::durability_metrics(work, &mut refs.cpu, &mut refs.disk)?;
    let statuses = || looped.finished.iter().map(|job| &job.done.as_ref().expect("done").status);
    let steps: f64 = statuses().map(|status| status.steps as f64).sum();
    let billed_ns: f64 = statuses().map(|status| status.billed_ns as f64).sum();
    let m = &mut outcome.metrics;
    m.push(host);
    m.push(Metric::single(
        "trace.overhead_frac",
        "frac",
        median(&traced_norm) / median(&untraced_norm) - 1.0,
    ));
    m.extend(raws);
    m.push(Metric::single("solver.ns_per_step", "ns", billed_ns * cpu_scale / steps.max(1.0)));
    m.push(Metric::single("solver.steps", "count", steps));
    m.extend(layers::engine_metrics(&marched.runs, &replay, &marched.start_us)?);
    m.extend(durability);
    Ok(outcome)
}

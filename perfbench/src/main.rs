//! harvsim benchmark: one named workload per invocation, measured for a fixed
//! time from a seed, its outputs checked, every metric printed by name with
//! its unit, and one JSON result object as the last line of standard output.
//!
//! ```text
//! perfbench --workload <table2|explore|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is the separate traced run that yields the per-layer metrics and the
//! tracing overhead. See `README.md` beside this package for the metric
//! table, the workloads and the host-noise design.

mod checks;
mod explore;
mod host;
mod layers;
mod manifest;
mod parity;
mod serve;
mod stats;
mod table2;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stats::Metric;
use trace::Tracer;

/// Where run-time files (stores, sockets, traces) go, relative to the
/// checkout root the benchmark runs from: the directory `run.py` builds into
/// by default, which git ignores.
const WORK_ROOT: &str = ".bench_build";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Checks that are not per-operation (e.g. too few samples) and failed.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Reported for the reader, not part of the JSON result.
    pub derived: Vec<Metric>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut at = 0;
    while at < args.len() {
        let flag = args[at].as_str();
        let value = args.get(at + 1).ok_or_else(|| format!("{flag} expects a value"))?;
        match flag {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("bad --seed {value}"))?)
            }
            "--seconds" => {
                let parsed = value.parse::<f64>().map_err(|_| format!("bad --seconds {value}"))?;
                if !(parsed > 0.0 && parsed <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
        at += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["table2", "explore", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (table2, explore, serve)"));
    }
    Ok(Options {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// SplitMix64: the seeded generator behind every benchmark input and
/// interleaving order.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x005E_EDBA_5E0F_F00D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn print_metric(prefix: &str, metric: &Metric) {
    let steadiness = match metric.spread {
        Some(spread) => format!("reps={} spread={:.2}%", metric.reps, spread * 100.0),
        None => format!("reps={}", metric.reps),
    };
    println!(
        "{prefix} {:<36} {:>16} {:<8} {steadiness}",
        metric.name,
        format_value(metric.value),
        metric.unit
    );
}

fn format_value(value: f64) -> String {
    if value != 0.0 && (value.abs() < 1e-3 || value.abs() >= 1e7) {
        format!("{value:.6e}")
    } else {
        format!("{value:.6}")
    }
}

fn run_workload(options: &Options, tracer: &mut Tracer, work: &Path) -> Result<Outcome, String> {
    match options.workload.as_str() {
        "table2" => table2::run(options, tracer, work),
        "explore" => explore::run(options, tracer, work),
        _ => serve::run(options, tracer, work),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!("usage: perfbench --workload <table2|explore|serve> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    println!("{}", parity::parity_line(std::fs::read_to_string("Cargo.toml").ok().as_deref()));
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        options.workload,
        options.seed,
        options.seconds,
        u8::from(options.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let work = PathBuf::from(WORK_ROOT).join("perfbench-run").join(format!(
        "{}-{}",
        options.workload,
        std::process::id()
    ));
    if let Err(err) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {err}", work.display());
        return ExitCode::from(1);
    }
    let mut tracer = Tracer::new(options.trace);
    let outcome = run_workload(&options, &mut tracer, &work);
    let _ = std::fs::remove_dir_all(&work);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {} failed to run: {message}", options.workload);
            return ExitCode::from(1);
        }
    };
    if options.trace {
        let path = PathBuf::from(WORK_ROOT)
            .join("perfbench-traces")
            .join(format!("{}-seed{}.jsonl", options.workload, options.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans: {} written to {}", tracer.spans().len(), path.display()),
            Err(err) => eprintln!("perfbench: could not write spans to {}: {err}", path.display()),
        }
    }
    for metric in &outcome.derived {
        print_metric("derived", metric);
    }
    for metric in &outcome.metrics {
        print_metric("metric ", metric);
    }
    for problem in &outcome.problems {
        println!("check failed: {problem}");
    }
    if let Err(message) = manifest::check(&outcome.metrics, options.trace) {
        eprintln!(
            "perfbench: {} printed metrics outside the manifest: {message}",
            options.workload
        );
        return ExitCode::from(1);
    }
    let all_finite = outcome.metrics.iter().all(|metric| metric.value.is_finite());
    let correct = outcome.failed == 0 && outcome.problems.is_empty() && all_finite;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|metric| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_number(metric.value),
                metric.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn command_line_is_parsed_strictly() {
        let options = parse(&strings(&[
            "--workload",
            "serve",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (options.workload.as_str(), options.seed, options.seconds, options.trace),
            ("serve", 7, 10.0, true)
        );
        assert!(parse(&strings(&["--workload", "nope"])).is_err());
        assert!(parse(&strings(&["--workload", "table2", "--trace", "2"])).is_err());
        assert!(parse(&strings(&["--workload", "table2", "--seconds"])).is_err());
        assert!(parse(&strings(&["--workload", "table2", "--bogus", "1"])).is_err());
    }

    #[test]
    fn seeded_generator_repeats() {
        let mut a = Rng::new(3);
        let mut b = Rng::new(3);
        let mut c = Rng::new(4);
        let first: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(first, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(first, (0..4).map(|_| c.next_u64()).collect::<Vec<_>>());
        assert!((0..1000).all(|_| (0.0..1.0).contains(&a.unit())));
    }
}

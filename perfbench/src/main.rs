//! `perfbench` — one benchmark workload per process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --tmp <dir>
//! perfbench golden --workload <name> [--seed <n>] --tmp <dir>
//! ```
//!
//! `perfbench/run.py` builds this binary and runs the first form. With
//! `--trace 0` it times set-up and untraced executions for about
//! `--seconds`, checks every output, and reports the end-to-end metrics
//! at a nominal host speed (see [`reference`]).
//! With `--trace 1` it alternates untraced and traced executions (see
//! [`profile`]), checks that each traced output equals its untraced twin,
//! and reports the per-layer metrics. Either way it prints the metrics by
//! name with units, then one JSON line `{"correct", "attempted", "failed",
//! "metrics"}`, and exits 0 only when every execution passed its checks.
//! `golden` prints the text committed under `golden/`. Every file it
//! writes goes under `--tmp`, which it removes before exiting.

#![forbid(unsafe_code)]

mod profile;
mod reference;
mod workload;

use profile::Metric;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Kind, DEFAULT_SEED};

/// A set-up sample times a batch this long (at least one set-up), so
/// sub-millisecond set-ups are not lost in timer noise.
const SETUP_BATCH_S: f64 = 0.005;
/// Set-up batches timed before each execution.
const SETUP_BATCHES: usize = 5;
/// The traced layers must account for the traced run within this share.
const ACCOUNTING_TOLERANCE: f64 = 0.01;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Measure,
    Profile,
    Golden,
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    kind: Kind,
    seed: u64,
    seconds: f64,
    tmp: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let golden = args.first().is_some_and(|a| a == "golden");
    if golden {
        args.remove(0);
    }
    let (mut kind, mut seed, mut seconds, mut mode, mut tmp) =
        (None, DEFAULT_SEED, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload '{value}' (expected {})", names.join("|"))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                mode = Some(match value.as_str() {
                    "0" => Mode::Measure,
                    "1" => Mode::Profile,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--tmp" => tmp = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let mode = if golden {
        Mode::Golden
    } else {
        mode.ok_or("--trace is required")?
    };
    let seconds = match mode {
        Mode::Golden => 0.0,
        _ => seconds.ok_or("--seconds is required")?,
    };
    Ok(Args {
        mode,
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        tmp: tmp.ok_or("--tmp is required")?,
    })
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Prints the result line, the last line of standard output. Metric names
/// and units are fixed identifiers, so they need no escaping.
fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _)| {
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    );
}

/// Set-ups per timed batch: doubled (untimed) until one batch takes
/// [`SETUP_BATCH_S`].
fn calibrate_setup(args: &Args) -> Result<usize, String> {
    let mut batch = 1;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            workload::setup(args.kind, args.seed, &args.tmp)?;
        }
        if t.elapsed().as_secs_f64() >= SETUP_BATCH_S || batch >= 1 << 16 {
            return Ok(batch);
        }
        batch *= 2;
    }
}

/// Peak resident set of this process (`VmHWM`, which `exec` resets, so
/// it covers this workload only), in KiB.
fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Times [`SETUP_BATCHES`] batches of `batch` set-ups into `samples`
/// (seconds per set-up) and returns the last set-up's result.
fn setup_batches(
    args: &Args,
    batch: usize,
    samples: &mut Vec<f64>,
) -> Result<(dcluster_scenario::Runner, dcluster_sim::Network), String> {
    let mut built = None;
    for _ in 0..SETUP_BATCHES {
        let t = Instant::now();
        for _ in 0..batch {
            built = Some(workload::setup(args.kind, args.seed, &args.tmp)?);
        }
        samples.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    Ok(built.expect("at least one set-up per batch"))
}

/// Wall times and the same times at the reference host speed.
#[derive(Default)]
struct Samples {
    wall: Vec<f64>,
    adjusted: Vec<f64>,
}

impl Samples {
    fn push(&mut self, wall: f64, speed: f64) {
        self.wall.push(wall);
        self.adjusted.push(wall * speed);
    }
}

fn measure(args: &Args) -> Result<bool, String> {
    let start = Instant::now();
    let batch = calibrate_setup(args)?;
    let (mut setup_s, mut run_s, mut errors) = (Samples::default(), Samples::default(), Vec::new());
    let (mut attempted, mut resolver, mut trace_bytes) = (0u64, String::new(), None);
    // The reference kernel is timed before the first set-up and after every
    // execution; the set-ups and the execution between two timings are
    // scaled by the nominal time over the mean of the two.
    let mut reference_s = vec![reference::time()];
    loop {
        let mut setups = Vec::new();
        let (runner, net) = setup_batches(args, batch, &mut setups)?;
        let t = Instant::now();
        let output = workload::execute(args.kind, &runner, net, args.seed);
        let elapsed = t.elapsed().as_secs_f64();
        let after = reference::time();
        let speed = reference::NOMINAL_S * 2.0 / (reference_s[reference_s.len() - 1] + after);
        reference_s.push(after);
        attempted += 1;
        let checked = output.and_then(|output| {
            trace_bytes = workload::take_run_trace(args.kind, &args.tmp)?.map(|t| t.bytes);
            resolver = output.resolver();
            workload::check(args.kind, args.seed, &output)
        });
        for s in setups {
            setup_s.push(s, speed);
        }
        match checked {
            Ok(()) => run_s.push(elapsed, speed),
            Err(e) => errors.push(e),
        }
        // At least two executions, so one slow spell does not decide a run
        // whose executions each take half of it.
        let per_execution = start.elapsed().as_secs_f64() / attempted as f64;
        if attempted >= 2 && start.elapsed().as_secs_f64() + per_execution > args.seconds {
            break;
        }
    }
    let peak_rss_mb = peak_rss_kib()? as f64 / 1024.0;
    for e in &errors {
        println!("FAIL {e}");
    }
    if run_s.wall.is_empty() {
        return Err(format!("{}: every execution failed", args.kind.name()));
    }
    // Medians of the times at the reference host speed are the steadiest
    // readings of a run (see README); wall times are printed beside them.
    let (run, setup) = (
        median(run_s.adjusted.clone()),
        median(setup_s.adjusted.clone()),
    );
    let failed = errors.len() as u64;
    println!(
        "perfbench {} seed={} backend={resolver} (tracing off)",
        args.kind.name(),
        args.seed
    );
    println!(
        "  run_s        {run:.6} s   median of {} executions at the reference host speed \
         (wall median {:.4}, fastest {:.4}, max {:.4})",
        run_s.wall.len(),
        median(run_s.wall.clone()),
        fastest(&run_s.wall),
        run_s.wall.iter().copied().fold(0.0, f64::max)
    );
    println!(
        "  setup_s      {setup:.4e} s   median of {} batches of {batch} set-ups at the reference \
         host speed (wall median {:.4e})",
        setup_s.wall.len(),
        median(setup_s.wall.clone())
    );
    println!(
        "  reference    {:.4} s   median of {} kernel timings (nominal {} s)",
        median(reference_s.clone()),
        reference_s.len(),
        reference::NOMINAL_S
    );
    println!("  peak_rss_mb  {peak_rss_mb:.2} MB");
    match trace_bytes {
        Some(b) => println!("  trace_mb     {:.6} MB", b as f64 / 1e6),
        None => println!("  trace_mb     absent"),
    }
    println!(
        "  fail_frac    {}   ({failed} of {attempted} executions failed)",
        failed as f64 / attempted as f64
    );
    print_result(
        failed == 0,
        attempted,
        failed,
        &[
            ("run_s".to_string(), run, "s", true),
            ("setup_s".to_string(), setup, "s", true),
            ("peak_rss_mb".to_string(), peak_rss_mb, "MB", true),
        ],
    );
    Ok(failed == 0)
}

/// Mean seconds of `Runner::build_network` on the workload's spec, over
/// at least five builds and 50 ms.
fn build_seconds(args: &Args) -> Result<f64, String> {
    let runner = dcluster_scenario::Runner::new(workload::spec(args.kind, args.seed)?);
    let (t, mut reps) = (Instant::now(), 0u32);
    while reps < 5 || t.elapsed().as_secs_f64() < 0.05 {
        runner.build_network().map_err(|e| e.to_string())?;
        reps += 1;
    }
    Ok(t.elapsed().as_secs_f64() / f64::from(reps))
}

fn profile(args: &Args) -> Result<bool, String> {
    let start = Instant::now();
    let build_s = build_seconds(args)?;
    let (runner, net) = workload::setup(args.kind, args.seed, &args.tmp)?;
    let (mut untraced, mut traced, mut errors) = (Vec::new(), Vec::new(), Vec::new());
    let mut attempted = 0u64;
    let mut resolver;
    loop {
        attempted += 1;
        let t = Instant::now();
        let output = workload::execute(args.kind, &runner, net.clone(), args.seed)?;
        untraced.push(t.elapsed().as_secs_f64());
        let trace = workload::take_run_trace(args.kind, &args.tmp)?;
        resolver = output.resolver();
        let pair = workload::check(args.kind, args.seed, &output).and_then(|()| {
            let run = profile::traced_execution(
                args.kind,
                &runner,
                net.clone(),
                args.seed,
                &output,
                &args.tmp,
            )?;
            if run.output != output {
                return Err(format!(
                    "{}: traced output differs from untraced",
                    args.kind.name()
                ));
            }
            if run.trace != trace {
                return Err(format!(
                    "{}: traced JSONL trace differs from untraced",
                    args.kind.name()
                ));
            }
            Ok(run)
        });
        match pair {
            Ok(run) => traced.push(run),
            Err(e) => errors.push(e),
        }
        let per_pair = start.elapsed().as_secs_f64() / attempted as f64;
        if start.elapsed().as_secs_f64() + per_pair > args.seconds {
            break;
        }
    }
    if traced.is_empty() {
        for e in &errors {
            println!("FAIL {e}");
        }
        return Err(format!(
            "{}: no traced execution passed its checks",
            args.kind.name()
        ));
    }
    let metrics = profile::metrics(args.kind, &traced, median(untraced), build_s);
    let accounted = metrics
        .iter()
        .find(|m| m.0 == "bench.accounted_share")
        .map_or(0.0, |m| m.1);
    if (1.0 - accounted).abs() > ACCOUNTING_TOLERANCE {
        errors.push(format!(
            "layer self times account for {accounted:.4} of the traced run (tolerance {ACCOUNTING_TOLERANCE})"
        ));
    }
    for e in &errors {
        println!("FAIL {e}");
    }
    println!(
        "perfbench {} seed={} backend={resolver} (traced, {} traced/untraced pairs; \
         layers must account for the traced run within {ACCOUNTING_TOLERANCE})",
        args.kind.name(),
        args.seed,
        traced.len()
    );
    for (name, value, unit, present) in &metrics {
        let shown = if *present {
            value.to_string()
        } else {
            "absent".to_string()
        };
        println!("  {name:36} {shown:>22} {unit}");
    }
    let failed = errors.len() as u64;
    print_result(failed == 0, attempted, failed, &metrics);
    Ok(failed == 0)
}

fn golden(args: &Args) -> Result<bool, String> {
    let (runner, net) = workload::setup(args.kind, args.seed, &args.tmp)?;
    let output = workload::execute(args.kind, &runner, net, args.seed)?;
    workload::take_run_trace(args.kind, &args.tmp)?;
    print!("{}", workload::golden_text(&output));
    Ok(true)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.tmp) {
        eprintln!("perfbench: {}: {e}", args.tmp.display());
        return ExitCode::from(2);
    }
    let result = match args.mode {
        Mode::Measure => measure(&args),
        Mode::Profile => profile(&args),
        Mode::Golden => golden(&args),
    };
    let _ = std::fs::remove_dir_all(&args.tmp);
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

//! The repository benchmark: three seeded workloads through the fpp print
//! and parse pipeline, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload shortest_uniform --seed 1 --seconds 40 --trace 0
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` a separate traced run reports the per-layer ledger. Every
//! output is checked against an oracle outside the timed regions. The last
//! line of standard output is the result as one JSON object; a record with
//! the host stamp (and, when traced, the span dump) is written under
//! `$CARGO_TARGET_DIR/ledger/` (`target/ledger/` by default). `--smoke`
//! shrinks every column 16-fold for a quick check.
//!
//! Set-up time and memory are measured in fresh child processes (the
//! binary re-runs itself): `--cold` many times for the median set-up
//! time, and `--rss` once for the peak memory of a process that keeps one
//! formatter throughout, as a caller's would.

mod e2e;
mod host;
mod oracle;
mod probes;
mod stats;
mod trace;
mod workloads;

use e2e::{timer_cost_ns, Pipeline, Tally};
use host::{json_num, json_str, peak_rss_mb, Host};
use probes::{Metric, Probes};
use stats::{median, BestTimes};
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{cold_probe, generate, Kind, Workload};

/// Fresh processes per run for the set-up figures (median taken).
const COLD_RUNS: usize = 41;
/// At least this many timed bulk passes, however short the run.
const MIN_PASSES: usize = 3;
/// Values of the column (its first ones; the column is in seeded random
/// order) whose scalar latency is measured.
const LATENCY_VALUES: usize = 1 << 18;
/// Timed scalar calls per measured value, spread over the run; its latency
/// is the best of them. A shared host has slow stretches, and the 99.9th
/// percentile is only as good as its slowest 0.1% of values, so every value
/// needs enough spaced timings that some fall outside them.
const SWEEPS: usize = 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    mode: Mode,
}

enum Mode {
    Run,
    Cold,
    Rss,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 40.0,
        trace: false,
        smoke: false,
        mode: Mode::Run,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--smoke" => args.smoke = true,
            "--cold" => args.mode = Mode::Cold,
            "--rss" => args.mode = Mode::Rss,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.mode {
        Mode::Cold => cold_child(&args.workload),
        Mode::Rss => rss_child(&args),
        Mode::Run => run(&args),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fpp-ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

fn workload(args: &Args) -> Result<Workload, String> {
    generate(&args.workload, args.seed, if args.smoke { 16 } else { 1 }).ok_or_else(|| {
        format!(
            "unknown workload {:?} (one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        )
    })
}

/// Runs this binary again with `args` and returns its standard output.
fn child(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("starting a child process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child {args:?} failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))
}

/// Whitespace-separated numbers from a child's last output line.
fn numbers(text: &str, count: usize) -> Result<Vec<f64>, String> {
    let fields: Result<Vec<f64>, _> = text
        .lines()
        .last()
        .unwrap_or_default()
        .split_whitespace()
        .map(str::parse::<f64>)
        .collect();
    match fields {
        Ok(v) if v.len() == count => Ok(v),
        _ => Err(format!("unexpected child output {text:?}")),
    }
}

/// Child mode: the first conversions of a fresh process. Prints
/// `<print seconds> <parse seconds>`.
fn cold_child(name: &str) -> Result<(), String> {
    let (kind, values) = cold_probe(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let (print_s, parse_s) = e2e::cold_start(kind, &values);
    println!("{print_s} {parse_s}");
    Ok(())
}

/// Set-up seconds (print, parse) from fresh `--cold` processes.
#[derive(Default)]
struct Cold {
    print: Vec<f64>,
    parse: Vec<f64>,
}

impl Cold {
    /// Runs one more cold-start process.
    fn sample(&mut self, name: &str) -> Result<(), String> {
        let v = numbers(&child(&["--workload", name, "--cold"])?, 2)?;
        self.print.push(v[0]);
        self.parse.push(v[1]);
        Ok(())
    }

    /// Tops the sample up to [`COLD_RUNS`] processes and returns the
    /// median print and parse seconds.
    fn medians(&mut self, name: &str) -> Result<(f64, f64), String> {
        while self.print.len() < COLD_RUNS {
            self.sample(name)?;
        }
        Ok((median(&self.print), median(&self.parse)))
    }
}

/// Child mode: the workload's pipeline run warm with one formatter kept
/// throughout, as a caller's process would (three bulk passes and one
/// scalar sweep). Prints the process's peak resident memory in MiB.
fn rss_child(args: &Args) -> Result<(), String> {
    let w = workload(args)?;
    let mut pipe = Pipeline::new(&w, false);
    for _ in 0..MIN_PASSES {
        pipe.bulk(None);
    }
    let m = w.values.len().min(LATENCY_VALUES);
    pipe.scalar_sweep(0..m, &mut BestTimes::new(m));
    if pipe.tally.failed > 0 {
        return Err(format!("{} values failed the oracle", pipe.tally.failed));
    }
    println!("{}", peak_rss_mb());
    Ok(())
}

/// What the untraced measurement reports.
struct Measured {
    rates: Vec<f64>,
    p50_ns: f64,
    p999_ns: f64,
    timer_ns: f64,
    tally: Tally,
    calls: u64,
}

/// The untraced measurement: bulk passes for throughput, interleaved with
/// [`SWEEPS`] scalar sweeps of the column's first [`LATENCY_VALUES`] values
/// for per-value latency and with the cold-start processes. Sweeps and
/// cold starts are cut into one share per pass, so all three spread over
/// the whole run.
fn measure(w: &Workload, seconds: Duration, cold: &mut Cold) -> Result<Measured, String> {
    let n = w.values.len();
    let m = n.min(LATENCY_VALUES);
    let mut pipe = Pipeline::new(w, true);
    pipe.bulk(None); // warms every buffer; checked by the oracle, untimed
    let warm = m.min(20_000);
    let start = Instant::now();
    pipe.scalar_sweep(0..warm, &mut BestTimes::new(m));
    let sweep_s = start.elapsed().as_secs_f64() / warm as f64 * (SWEEPS * m) as f64;
    let start = Instant::now();
    pipe.bulk(None);
    let bulk_s = start.elapsed().as_secs_f64();
    let budget = (seconds.as_secs_f64() - sweep_s).max(seconds.as_secs_f64() / 2.0);
    let iterations = (budget / bulk_s).max(1.0) as usize;
    let chunk = (SWEEPS * m).div_ceil(iterations);
    let colds_per_pass = COLD_RUNS.div_ceil(iterations);

    let mut times = BestTimes::new(m);
    let mut timer_costs = Vec::new();
    let mut rates = Vec::new();
    let mut swept = 0;
    let until = Instant::now() + seconds;
    while rates.len() < MIN_PASSES || swept < SWEEPS * m || Instant::now() < until {
        if rates.len() < MIN_PASSES || Instant::now() < until {
            rates.push(n as f64 / pipe.bulk(None));
        }
        let end = (swept + chunk).min(SWEEPS * m);
        if end > swept {
            timer_costs.push(timer_cost_ns());
        }
        while swept < end {
            let from = swept % m;
            let to = m.min(from + (end - swept));
            pipe.scalar_sweep(from..to, &mut times);
            swept += to - from;
        }
        for _ in 0..colds_per_pass {
            if cold.print.len() < COLD_RUNS {
                cold.sample(w.name)?;
            }
        }
    }
    Ok(Measured {
        p50_ns: times.quantile(0.5),
        p999_ns: times.quantile(0.999),
        timer_ns: median(&timer_costs),
        rates,
        tally: pipe.tally,
        calls: times.samples(),
    })
}

/// The traced run, in this process: traced against untraced bulk passes
/// for the tracing overhead, then probe passes for the per-layer ledger.
fn traced(
    w: &Workload,
    seconds: Duration,
    cold: (f64, f64),
) -> (Vec<Metric>, Tally, Tracer, String) {
    let n = w.values.len() as f64;
    let mut pipe = Pipeline::new(w, true);
    pipe.bulk(None); // warms every buffer; checked by the oracle, untimed
    let mut tracer = Tracer::new();
    let overhead_until = Instant::now() + seconds / 3;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while untraced.len() < MIN_PASSES || Instant::now() < overhead_until {
        // Alternate which goes first, so neither gains from the order.
        if untraced.len() % 2 == 0 {
            untraced.push(n / pipe.bulk(None));
            traced.push(n / pipe.bulk(Some(&mut tracer)));
        } else {
            traced.push(n / pipe.bulk(Some(&mut tracer)));
            untraced.push(n / pipe.bulk(None));
        }
    }
    let mut probes = Probes::new(w);
    let until = Instant::now() + seconds * 2 / 3;
    probes.pass(&mut Tracer::new()); // warm-up pass, not recorded
    loop {
        probes.pass(&mut tracer);
        if Instant::now() >= until {
            break;
        }
    }
    let metrics = probes.metrics(&tracer, (median(&untraced), median(&traced)), cold);
    let detail = format!(
        "\"untraced_values_per_s\":{},\"traced_values_per_s\":{}",
        json_list(&untraced),
        json_list(&traced)
    );
    (metrics, pipe.tally, tracer, detail)
}

fn run(args: &Args) -> Result<(), String> {
    let w = workload(args)?;
    let host = Host::probe();
    println!(
        "{{\"workload\":{},\"seed\":{},\"values\":{},\"trace\":{},\"host\":{}}}",
        json_str(w.name),
        args.seed,
        w.values.len(),
        u8::from(args.trace),
        host.to_json()
    );
    let mut cold = Cold::default();
    let (metrics, tally, tracer, detail) = if args.trace {
        let cold = cold.medians(w.name)?;
        let (metrics, tally, tracer, detail) =
            traced(&w, Duration::from_secs_f64(args.seconds), cold);
        (metrics, tally, Some(tracer), detail)
    } else {
        let seed = args.seed.to_string();
        let mut rss_args = vec!["--rss", "--workload", w.name, "--seed", &seed];
        if args.smoke {
            rss_args.push("--smoke");
        }
        let rss = numbers(&child(&rss_args)?, 1)?[0];
        // Cold-start processes run between the timed passes, so set-up
        // time samples the same stretch of the host's time as the rest.
        let m = measure(&w, Duration::from_secs_f64(args.seconds), &mut cold)?;
        let cold = cold.medians(w.name)?;
        let setup = match w.kind {
            Kind::RoundTrip => cold.0 + cold.1,
            Kind::Fixed => cold.0,
        };
        let metrics = vec![
            Metric::new("values_per_s", median(&m.rates), "1/s"),
            Metric::new("value_p50_ns", m.p50_ns - m.timer_ns, "ns"),
            Metric::new("value_p999_ns", m.p999_ns - m.timer_ns, "ns"),
            Metric::new("setup_s", setup, "s"),
            Metric::new("peak_rss_mb", rss, "MB"),
        ];
        println!(
            "{} bulk passes; latency is the best of {SWEEPS} timed calls for each of {} values ({} calls, {:.2} ns timer cost subtracted)",
            m.rates.len(),
            w.values.len().min(LATENCY_VALUES),
            m.calls,
            m.timer_ns
        );
        let detail = format!(
            "\"bulk_values_per_s\":{},\"timer_cost_ns\":{},\"cold_print_s\":{},\"cold_parse_s\":{}",
            json_list(&m.rates),
            json_num(m.timer_ns),
            json_num(cold.0),
            json_num(cold.1)
        );
        (metrics, m.tally, None, detail)
    };

    for m in &metrics {
        println!("{:<28} {:>16} {}", m.name, json_num(m.value), m.unit);
    }
    println!(
        "{:<28} {:>16} share ({} of {} values failed the oracle)",
        "fail_rate",
        json_num(tally.fail_rate()),
        tally.failed,
        tally.attempted
    );

    let mut result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            result.push(',');
        }
        write!(
            result,
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(m.name),
            json_num(m.value),
            json_str(m.unit)
        )
        .expect("writing to a String");
    }
    result.push_str("}}");
    write_record(args, &w, &host, &result, &detail, tracer.as_ref())?;
    println!("{result}");
    Ok(())
}

fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|&x| json_num(x)).collect();
    format!("[{}]", items.join(","))
}

/// Writes the run's record (host stamp, seed, result, per-process detail)
/// and, for a traced run, its spans, under the build directory.
fn write_record(
    args: &Args,
    w: &Workload,
    host: &Host,
    result: &str,
    detail: &str,
    tracer: Option<&Tracer>,
) -> Result<(), String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let dir = std::path::Path::new(&target).join("ledger");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let stem = format!(
        "{}{}-seed{}-trace{}",
        if args.smoke { "smoke-" } else { "" },
        w.name,
        args.seed,
        u8::from(args.trace)
    );
    let record = format!(
        "{{\"schema\":\"fpp-ledger/1\",\"workload\":{},\"seed\":{},\"values\":{},\"seconds\":{},\"smoke\":{},\"host\":{},\"result\":{result},{detail}}}\n",
        json_str(w.name),
        args.seed,
        w.values.len(),
        args.seconds,
        args.smoke,
        host.to_json()
    );
    let write = |name: String, body: &str| {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write(format!("{stem}.json"), &record)?;
    if let Some(t) = tracer {
        write(format!("{stem}-spans.json"), &t.to_json())?;
    }
    Ok(())
}

//! End-to-end and per-layer benchmark of the GCoD workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-local --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each workload trains the GCoD pipeline on the half-size cora replica and
//! serves it under open-loop Poisson traffic at two fixed rates and a
//! capacity search: `serve-local` from one in-process registration,
//! `serve-mixed` from that plus a 2-shard registration of the same model,
//! classify traffic alternating between the two. Between serving windows it
//! runs the offline phase on the full-size cora replica: fp32 and int8
//! full-graph inference and training epochs. Every response and every
//! logits tensor is checked against an oracle.
//!
//! With `--trace 0` the last stdout line is a JSON object holding the
//! end-to-end metrics; with `--trace 1` the workload runs twice, untraced
//! and then traced, and the JSON holds the per-layer metrics, derived from
//! spans recorded around each call into a layer, plus the traced-minus-
//! untraced difference of every end-to-end metric. The spans are written
//! to `.bench_out/`. The exit code is non-zero when any output was wrong.

mod capacity;
mod metrics;
mod offline;
mod openloop;
mod serve;
mod stats;
mod trace;

use metrics::Metrics;
use offline::Offline;
use serve::{Mode, Served};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Full set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rounds per run; each holds one window per fixed rate, a share of the
/// offline phase and part of the capacity search. Many short rounds spread
/// each metric's samples over the whole run.
const ROUNDS: usize = 8;
/// Stretches a run's rounds are split into, each with its own capacity
/// search: a search runs its probes in sequence, so a stretch of host
/// stalls can end it early, and `capacity_rps` is the higher result.
const STRETCHES: usize = 2;
/// Which of a rate's window medians is `p50_ms.*`: the lower quartile.
/// Host stalls only add latency and slow whole stretches of a run, so the
/// quieter windows read the program best, while one lucky window alone
/// cannot set the figure.
const WINDOW_QUANTILE: f64 = 0.25;
/// Share of `--seconds` spent serving; the offline phase gets the rest.
const SERVE_SHARE: f64 = 0.7;
/// Where spans and the shard sockets go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

#[derive(Debug)]
struct Args {
    mode: Mode,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let mode = match workload.as_str() {
        "serve-local" => Mode::Local,
        "serve-mixed" => Mode::Mixed,
        _ => {
            return Err(format!(
                "unknown workload {workload:?} (serve-local, serve-mixed)"
            ))
        }
    };
    let seconds = seconds.unwrap_or(20);
    if !(1..=120).contains(&seconds) {
        return Err(format!("--seconds must be 1..=120, not {seconds}"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, not {t}")),
    };
    Ok(Args {
        mode,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Everything one pass of a workload measured.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn run_workload(args: &Args, tracer: &Arc<Tracer>, setups: usize) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut kept: Option<(Served, Offline)> = None;
    for _ in 0..setups {
        if let Some((served, _)) = kept.take() {
            served.shutdown();
        }
        let started = Instant::now();
        let served = Served::setup(args.mode, tracer)?;
        let offline = Offline::setup(tracer)?;
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some((served, offline));
    }
    let (served, offline) = kept.ok_or("no set-up ran")?;

    // Rounds interleave the phases, so each metric's samples spread over
    // the whole run instead of one stretch of it.
    let seconds = args.seconds as f64;
    let serve_round = seconds * SERVE_SHARE / ROUNDS as f64;
    let offline_round = Duration::from_secs_f64(seconds * (1.0 - SERVE_SHARE) / ROUNDS as f64);
    let mut serve_run = served.begin(args.seed, seconds * SERVE_SHARE, STRETCHES);
    let mut offline_run = offline.begin();
    for round in 0..ROUNDS {
        let stretch = round * STRETCHES / ROUNDS;
        let last_of_stretch = (round + 1) * STRETCHES / ROUNDS != stretch;
        served.fixed_round(&mut serve_run, serve_round, tracer);
        offline.round(&mut offline_run, offline_round, tracer);
        served.capacity_round(
            &mut serve_run,
            stretch,
            serve_round,
            last_of_stretch,
            tracer,
        );
    }
    let serving = served.finish(serve_run);
    let offline_run = offline.finish(offline_run);

    let mut m = Metrics::default();
    let mut errors = offline_run.errors.clone();
    let mut invalid = 0;
    for (name, steps) in [("low", &serving.low), ("high", &serving.high)] {
        for step in steps.iter() {
            println!(
                "window {name} at {} rps: offered {} ok {} rejected {} errored {} mismatched {} lost {} late_p99_ms {:.3} p50_ms {:.3}",
                step.rate, step.offered, step.ok, step.rejected, step.errored, step.mismatched,
                step.lost, step.late_p99_ms(), stats::quantile(&step.latency_ms, 0.5)
            );
            if let Err(e) = openloop::check_conservation(step.offered, step.ok, step.failed()) {
                errors.push(format!("{name}: {e}"));
            }
            if step.mismatched > 0 {
                errors.push(format!(
                    "{name}: {} responses differ from the oracle",
                    step.mismatched
                ));
            }
            if step.lost > 0 {
                errors.push(format!(
                    "{name}: {} accepted requests never resolved",
                    step.lost
                ));
            }
        }
        let valid: Vec<&openloop::StepResult> = steps
            .iter()
            .filter(|s| s.late_p99_ms() <= serve::LATE_BOUND_MS)
            .collect();
        invalid += steps.len() - valid.len();
        let supports_p99 = |windows: &[&openloop::StepResult]| {
            let n = windows.iter().map(|s| s.latency_ms.len()).sum();
            stats::supported_quantile(n, &[0.5, 0.99]) == Some(0.99)
        };
        let used = if supports_p99(&valid) {
            valid
        } else {
            steps.iter().collect()
        };
        if !supports_p99(&used) {
            errors.push(format!("{name}: the windows' samples do not support p99"));
        }
        let windows: Vec<&[f64]> = used.iter().map(|s| s.latency_ms.as_slice()).collect();
        let pooled: Vec<f64> = windows.concat();
        m.end_to_end(
            &format!("p50_ms.{name}"),
            stats::quantile_of_windows(&windows, 0.5, WINDOW_QUANTILE),
            "ms",
        );
        // Reported, not gated: on a shared 2-vCPU host the tail follows the
        // host's stalls more than the program (see README.md).
        m.per_layer(
            &format!("serve.p99_ms.{name}"),
            stats::quantile(&pooled, 0.99),
            "ms",
        );
        m.per_layer(
            &format!("serve.samples.{name}"),
            pooled.len() as f64,
            "count",
        );
        let achieved: Vec<f64> = used.iter().map(|s| s.achieved_rps).collect();
        m.per_layer(
            &format!("serve.achieved_rps.{name}"),
            stats::median(&achieved),
            "1/s",
        );
    }
    if !serving.probe_conserved {
        errors.push("capacity search: count conservation broken".into());
    }
    if serving.probe_wrong > 0 {
        errors.push(format!(
            "capacity search: {} requests answered wrongly or never",
            serving.probe_wrong
        ));
    }
    let cap = &serving.capacity;
    m.end_to_end("capacity_rps", cap.rps, "1/s");
    m.end_to_end("setup_s", stats::median(&setup_s), "s");
    m.end_to_end("fp32_fwd_per_s", offline_run.fp32_fwd_per_s(), "1/s");
    m.end_to_end("int8_fwd_per_s", offline_run.int8_fwd_per_s(), "1/s");
    m.end_to_end(
        "train_epochs_per_s",
        offline_run.train_epochs_per_s(),
        "1/s",
    );

    let fixed = serving.low.iter().chain(&serving.high);
    let attempted = fixed.clone().map(|s| s.offered).sum::<u64>()
        + serving.probe_offered
        + offline_run.attempted;
    let failed =
        fixed.clone().map(|s| s.failed()).sum::<u64>() + serving.probe_failed + offline_run.failed;
    let late: Vec<f64> = fixed.flat_map(|s| s.late_ms.iter().copied()).collect();
    m.per_layer("serve.gen_late_ms.p99", stats::quantile(&late, 0.99), "ms");
    m.per_layer("serve.invalid_steps", invalid as f64, "count");
    let flag = |b: bool| f64::from(u8::from(b));
    m.per_layer("serve.capacity_at_cap", flag(cap.at_cap), "flag");
    m.per_layer(
        "serve.capacity_pacer_limited",
        flag(cap.pacer_limited),
        "flag",
    );
    m.per_layer("serve.capacity_below_floor", flag(cap.below_floor), "flag");
    m.per_layer(
        "serve.capacity_resolution_rps",
        capacity::resolution(
            serve::PLAN.floor_rps,
            serve::PLAN.cap_rps,
            serve::BISECT_STEPS,
        ),
        "1/s",
    );
    m.per_layer(
        "fail_share",
        failed as f64 / attempted.max(1) as f64,
        "share",
    );
    m.per_layer(
        "runtime.lanes",
        gcod::runtime::Pool::global().workers() as f64,
        "count",
    );
    m.per_layer("runtime.nproc", nproc() as f64, "count");

    if tracer.enabled() {
        offline.probe_layers(tracer, &mut m)?;
        served.probe_layers(&serving, tracer, &mut m)?;
    }
    for search in &serving.searches {
        eprintln!(
            "capacity search found {} rps; probes (rps, pass): {:?}",
            search.rps,
            search
                .probes
                .iter()
                .map(|(r, p)| (r.round(), *p))
                .collect::<Vec<_>>()
        );
    }
    served.shutdown();
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        errors,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <serve-local|serve-mixed> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(ok) => std::process::exit(if ok { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs the workload and prints the result; `Ok(false)` when an output was
/// wrong.
fn run(args: &Args) -> Result<bool, String> {
    // Shard sockets are created under the temp dir: keep them inside the
    // working directory. No thread exists yet.
    let tmp = PathBuf::from(OUT_DIR).join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);

    println!(
        "workload={} seed={} seconds={} trace={} runtime.lanes={} nproc={} plan: {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        gcod::runtime::Pool::global().workers(),
        nproc(),
        serve::PLAN.describe()
    );
    let (metrics, attempted, failed, errors) = if args.trace {
        // The untraced pass is a whole `--trace 0` run. Its set-ups leave
        // the allocator in the state every measurement here starts from
        // (see README.md), and the traced pass after it starts from it too.
        let mut untraced = run_workload(args, &Arc::new(Tracer::new(false)), SETUPS)?;
        untraced
            .metrics
            .end_to_end("peak_rss_mb", peak_rss_mb(), "MiB");
        let tracer = Arc::new(Tracer::new(true));
        let mut traced = run_workload(args, &tracer, 1)?;
        traced
            .metrics
            .end_to_end("peak_rss_mb", peak_rss_mb(), "MiB");
        let traced_e2e = std::mem::take(&mut traced.metrics.end_to_end);
        for (name, (value, unit)) in traced_e2e {
            let base = untraced.metrics.end_to_end.get(&name).map_or(0.0, |v| v.0);
            traced
                .metrics
                .per_layer(&format!("trace_overhead.{name}"), value - base, unit);
        }
        let path =
            PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
        println!("note: nn.bytes_moved.* are computed from tensor sizes, not measured");
        let mut errors = untraced.errors;
        errors.extend(traced.errors);
        (
            traced.metrics.per_layer,
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
            errors,
        )
    } else {
        let mut outcome = run_workload(args, &Arc::new(Tracer::new(false)), SETUPS)?;
        outcome
            .metrics
            .end_to_end("peak_rss_mb", peak_rss_mb(), "MiB");
        for (name, (value, unit)) in &outcome.metrics.per_layer {
            println!("  {name} = {value} {unit}");
        }
        (
            outcome.metrics.end_to_end,
            outcome.attempted,
            outcome.failed,
            outcome.errors,
        )
    };

    for (name, (value, unit)) in &metrics {
        println!("{name} = {value} {unit}");
    }
    for e in &errors {
        println!("error: {e}");
    }
    let finite = metrics.values().all(|(v, _)| v.is_finite());
    if !finite {
        println!("error: a metric is not a finite number");
    }
    // Refused or errored requests count in `failed`; a wrong or lost
    // answer makes the run incorrect.
    let correct = errors.is_empty() && finite;
    let shown = if finite {
        metrics
    } else {
        metrics
            .into_iter()
            .map(|(k, (v, u))| (k, (if v.is_finite() { v } else { -1.0 }, u)))
            .collect()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics::json_object(&shown)
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload serve-mixed --seed 4 --seconds 15 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.mode, Mode::Mixed);
        assert_eq!((a.seed, a.seconds, a.trace), (4, 15, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload serve-local")).is_err());
        assert!(parse_args(&argv("--workload serve-local --seed x")).is_err());
        assert!(parse_args(&argv("--workload serve-local --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve-local --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload serve-local --seed")).is_err());
    }
}

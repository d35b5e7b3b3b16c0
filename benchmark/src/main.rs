//! `byz-benchmark`: times the real PS round end to end on one workload
//! per process, or (with `--trace 1`) attributes it to layers.
//!
//! ```text
//! byz-benchmark --workload wire_dense --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; see README.md for the
//! metric glossary and `run.sh` for the one command that builds
//! everything and runs all four workloads.

mod calib;
mod job;
mod probes;
mod procfs;
mod stats;
mod trace;
mod workload;

use job::{fingerprint, run_job, run_process_job, summed_loss, JobRecord};
use probes::{metric, Metric};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{LinkKind, Workload, WORKLOAD_NAMES};

/// Fewest measured jobs in a run, however short `--seconds` is: set-up
/// time and the per-job rates are reported as medians over jobs.
const MIN_JOBS: usize = 3;

/// Rounds dropped from the head of each job before pooling round times
/// (the first broadcast finds cold worker buffers).
const SKIPPED_ROUNDS: usize = 2;

/// Rounds per job under `--quick`.
const QUICK_ROUNDS: usize = 10;

/// Share of a traced run's `--seconds` spent on jobs; the rest goes to
/// the reference deployment and the probes.
const TRACED_JOB_SHARE: f64 = 0.45;

/// Timed loops the probes run: the remaining budget is split over them.
const PROBE_LOOPS: f64 = 26.0;

const USAGE: &str = "usage: byz-benchmark --workload NAME [--seed N] [--seconds S] \
                     [--trace 0|1] [--quick] [--out DIR]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    while let Some(flag) = argv.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = argv
            .next()
            .ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("{flag} {value}: not a valid value\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if !WORKLOAD_NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOAD_NAMES:?}, got `{}`\n{USAGE}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err(format!("--seconds must be positive\n{USAGE}"));
    }
    Ok(args)
}

/// What one run reports.
struct Report {
    metrics: Vec<Metric>,
    /// File votes the measured jobs should have completed.
    attempted: u64,
    /// File votes that produced no winner or never ran.
    failed: u64,
    /// Failed correctness checks; empty means `correct`.
    failures: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // 16 threads share this box's cores whatever the pool size is; pin
    // it so the number is the same on every box and in every child.
    if std::env::var_os("BYZ_KERNEL_THREADS").is_none() {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        std::env::set_var("BYZ_KERNEL_THREADS", nproc.min(4).to_string());
    }

    let rounds = args.quick.then_some(QUICK_ROUNDS);
    let workload = Workload::new(&args.workload, args.seed, rounds).expect("name was checked");
    let mut report = if args.trace {
        traced_run(&args, &workload)
    } else {
        measured_run(&args, &workload)
    };

    for m in &report.metrics {
        if !m.value.is_finite() {
            report.failures.push(format!("{} is not a number", m.name));
        }
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for failure in &report.failures {
        eprintln!("CHECK FAILED [{}]: {failure}", workload.name);
    }
    println!("{}", result_line(&report));
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The contract's result object, on one line.
fn result_line(report: &Report) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failures.is_empty(),
        report.attempted,
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    line.push_str("}}");
    line
}

/// The median over `jobs` of a per-job reading.
fn median_of(jobs: &[&JobRecord], reading: impl Fn(&JobRecord) -> f64) -> f64 {
    stats::median(&jobs.iter().map(|j| reading(j)).collect::<Vec<_>>())
}

/// Round wall times of `jobs` in ms, each job's first rounds dropped.
fn pooled_round_ms(jobs: &[&JobRecord]) -> Vec<f64> {
    jobs.iter()
        .flat_map(|j| j.round_ms(SKIPPED_ROUNDS))
        .collect()
}

/// The checks every job of a workload must pass, and the file-vote
/// failure count. `reference` is the warm-up job, run over channels.
fn check_jobs(
    workload: &Workload,
    reference: &JobRecord,
    jobs: &[&JobRecord],
    failures: &mut Vec<String>,
) -> (u64, u64) {
    let spec = workload.spec();
    let files = (spec.l * spec.l) as u64;
    let expected = fingerprint(&reference.run.params);
    let (mut attempted, mut failed) = (0, 0);
    for (i, job) in jobs.iter().enumerate() {
        let got = fingerprint(&job.run.params);
        if got != expected {
            // For a TCP workload this is also the TCP ≡ channel check.
            failures.push(format!(
                "job {i} ended on params fingerprint {got:#018x}, the warm-up (channel) job on {expected:#018x}"
            ));
        }
        failures.extend(job.worker_errors.iter().cloned());
        let abandoned: usize = job.run.summaries.iter().map(|s| s.abandoned_files).sum();
        let missing_rounds = workload.rounds.saturating_sub(job.rounds()) as u64;
        attempted += files * workload.rounds as u64;
        failed += abandoned as u64 + files * missing_rounds;
        if spec.reputation {
            let quarantined = job
                .run
                .summaries
                .last()
                .map(|s| s.quarantined_workers.clone())
                .unwrap_or_default();
            if quarantined != spec.byzantine {
                failures.push(format!(
                    "job {i} quarantined {quarantined:?}, the Byzantine set is {:?}",
                    spec.byzantine
                ));
            }
        }
    }
    // None of the four workloads injects a fault that may cost a file.
    if failed > 0 {
        failures.push(format!(
            "{failed} of {attempted} file votes produced no winner"
        ));
    }
    (attempted, failed)
}

/// The trained model's loss, with the check that training made the
/// progress the workload promises (any progress at all under `--quick`).
fn final_loss(
    workload: &Workload,
    job: &JobRecord,
    quick: bool,
    failures: &mut Vec<String>,
) -> f64 {
    let spec = workload.spec();
    let dataset = spec.dataset();
    let initial = summed_loss(&spec, &dataset, &spec.initial_params());
    let trained = summed_loss(&spec, &dataset, &job.run.params);
    let limit = if quick {
        initial
    } else {
        workload.max_final_loss_share * initial
    };
    if trained.is_nan() || trained >= limit {
        failures.push(format!(
            "final loss {trained} is not below {limit} (initial loss {initial})"
        ));
    }
    trained
}

/// `--trace 0`: a warm-up job, then measured jobs for `--seconds`, with
/// no probe or span recorder running.
fn measured_run(args: &Args, workload: &Workload) -> Report {
    let mut tracer = Tracer::new(false);
    // Discarded: the first job of a process pays glibc's mmap-threshold
    // adaptation (7.5 vs 10 rounds/s on wire_dense), a deployment is one
    // long job. Run over channels, it is also the transport-free
    // reference a TCP workload's fingerprint must equal.
    let warm_up = run_job(workload, LinkKind::Channel, &mut tracer);

    let window = Instant::now();
    let mut jobs: Vec<JobRecord> = Vec::new();
    let mut slice_s = calib::slice_seconds();
    loop {
        let last_start = Instant::now();
        let mut job = run_job(workload, workload.link, &mut tracer);
        let before = std::mem::replace(&mut slice_s, calib::slice_seconds());
        job.slowdown = calib::slowdown(before, slice_s);
        eprintln!(
            "{} job {}: slice {:.3} ms, slowdown x{:.3}; calibrated {:.3} rounds/s, \
             {:.1} cpu ms/round, {:.3} s job, {:.3} s set-up; {:.1} MB peak",
            workload.name,
            jobs.len(),
            (before + slice_s) * 500.0,
            job.slowdown,
            job.rounds_per_s(),
            job.cpu_ms_per_round(),
            job.job_s(),
            job.setup_s(),
            job.peak_rss_mb,
        );
        let next_ends = (window.elapsed() + last_start.elapsed()).as_secs_f64();
        jobs.push(job);
        if args.quick || (jobs.len() >= MIN_JOBS && next_ends > args.seconds) {
            break;
        }
    }
    let jobs: Vec<&JobRecord> = jobs.iter().collect();

    let mut failures = Vec::new();
    let (attempted, failed) = check_jobs(workload, &warm_up, &jobs, &mut failures);
    final_loss(workload, jobs[0], args.quick, &mut failures);

    let uplink: Vec<f64> = jobs
        .iter()
        .flat_map(|j| &j.run.summaries)
        .map(|s| s.bytes_received as f64)
        .collect();
    let metrics = vec![
        metric(
            "rounds_per_s",
            median_of(&jobs, JobRecord::rounds_per_s),
            "1/s",
        ),
        metric("round_ms_p50", stats::median(&pooled_round_ms(&jobs)), "ms"),
        metric(
            "cpu_ms_per_round",
            median_of(&jobs, JobRecord::cpu_ms_per_round),
            "ms",
        ),
        metric("job_s", median_of(&jobs, JobRecord::job_s), "s"),
        metric("uplink_bytes_per_round", stats::mean(&uplink), "bytes"),
        // The smallest job peak: later jobs add what the allocator kept
        // and how far the socket readers happened to run ahead (330 to
        // 550 MB from job to job on tcp_chunked_byz, the floor ± 3 %).
        metric(
            "peak_rss_mb",
            jobs.iter()
                .map(|j| j.peak_rss_mb)
                .fold(f64::INFINITY, f64::min),
            "MB",
        ),
        // 1 − failed file share: a metric may never read 0.
        metric(
            "completed_file_share",
            1.0 - failed as f64 / attempted as f64,
            "ratio",
        ),
        metric("setup_s", median_of(&jobs, JobRecord::setup_s), "s"),
    ];
    Report {
        metrics,
        attempted,
        failed,
        failures,
    }
}

/// `--trace 1`: jobs with and without the span recorder, the reference
/// deployment on real processes, then the per-layer probes.
fn traced_run(args: &Args, workload: &Workload) -> Report {
    let mut tracer = Tracer::new(false);
    let mut failures = Vec::new();
    let warm_up = run_job(workload, LinkKind::Channel, &mut tracer);

    let window = Instant::now();
    let (mut plain, mut traced): (Vec<JobRecord>, Vec<JobRecord>) = (Vec::new(), Vec::new());
    loop {
        let pair = Instant::now();
        tracer.set_enabled(false);
        plain.push(run_job(workload, workload.link, &mut tracer));
        tracer.set_enabled(true);
        traced.push(run_job(workload, workload.link, &mut tracer));
        let next_ends = (window.elapsed() + pair.elapsed()).as_secs_f64();
        if args.quick || next_ends > TRACED_JOB_SHARE * args.seconds {
            break;
        }
    }
    let all: Vec<&JobRecord> = plain.iter().chain(&traced).collect();
    let (attempted, failed) = check_jobs(workload, &warm_up, &all, &mut failures);
    let traced: Vec<&JobRecord> = traced.iter().collect();
    let plain: Vec<&JobRecord> = plain.iter().collect();

    let mut metrics = server_metrics(workload, &traced);
    // Deterministic per seed, but 2–3× apart between seeds: a diagnostic
    // next to the layers, not an end-to-end metric with a bound.
    let loss = final_loss(workload, traced[0], args.quick, &mut failures);
    metrics.push(metric("train.final_loss", loss, "nats"));
    let p50_traced = stats::median(&pooled_round_ms(&traced));
    let p50_plain = stats::median(&pooled_round_ms(&plain));

    // The same tokens through all three doors: channels, loopback TCP in
    // this process, and the two release binaries as 16 processes.
    let reference = Workload::process_reference(args.seed);
    tracer.set_enabled(false);
    let in_process = run_job(&reference, LinkKind::Tcp, &mut tracer);
    let on_channels = run_job(&reference, LinkKind::Channel, &mut tracer);
    check_jobs(&reference, &on_channels, &[&in_process], &mut failures);
    tracer.set_enabled(true);
    let rounds = in_process.rounds() as f64;
    let uplink: usize = in_process
        .run
        .summaries
        .iter()
        .map(|s| s.bytes_received)
        .sum();
    let lo_per_round = in_process.lo_bytes as f64 / rounds;
    metrics.push(metric(
        "wire.link.lo_bytes_per_round",
        lo_per_round,
        "bytes",
    ));
    // Everything on loopback that was not uplink: the K broadcasts a
    // round, never counted by the PS, plus handshakes.
    metrics.push(metric(
        "wire.link.downlink_bytes_per_round_est",
        lo_per_round - uplink as f64 / rounds,
        "bytes",
    ));
    let bin_dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .expect("benchmark binary has a directory");
    match run_process_job(&reference, &bin_dir, &mut tracer) {
        Ok(p) => {
            let expected = fingerprint(&in_process.run.params);
            if p.fingerprint != expected {
                failures.push(format!(
                    "byzshield-ps printed fingerprint {:#018x}, the in-process run of the same tokens ends on {expected:#018x}",
                    p.fingerprint
                ));
            }
            metrics.push(metric(
                "psd.process_rounds_per_s",
                p.rounds as f64 / p.rounds_s,
                "1/s",
            ));
            metrics.push(metric("psd.process_job_wall_s", p.wall_s, "s"));
        }
        Err(e) => failures.push(format!("process deployment: {e}")),
    }

    let remaining = (args.seconds - window.elapsed().as_secs_f64()).max(0.0);
    let budget = if args.quick {
        0.0
    } else {
        remaining / PROBE_LOOPS
    };
    let report = probes::run_all(workload, Duration::from_secs_f64(budget), &mut tracer);
    metrics.extend(report.metrics);
    metrics.push(metric(
        "bench.attributed_cpu_share",
        report.attributed_cpu_ms_per_round / median_of(&all, JobRecord::cpu_ms_per_round),
        "ratio",
    ));
    metrics.push(metric(
        "bench.trace_overhead_pct",
        (p50_traced - p50_plain) / p50_plain * 100.0,
        "%",
    ));

    print_self_time_shares(&tracer);
    let path = args.out.join(format!("trace-{}.json", workload.name));
    if let Err(e) =
        std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, tracer.to_json()))
    {
        failures.push(format!("write {}: {e}", path.display()));
    }
    Report {
        metrics,
        attempted,
        failed,
        failures,
    }
}

/// The `wire.server.*` metrics: means and counts over the traced jobs'
/// `RoundSummary`s.
fn server_metrics(workload: &Workload, traced: &[&JobRecord]) -> Vec<Metric> {
    let rounds: Vec<_> = traced.iter().flat_map(|j| &j.run.summaries).collect();
    let mean_of = |f: &dyn Fn(&byz_wire::RoundSummary) -> f64| -> f64 {
        stats::mean(&rounds.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    let ms = |ns: u64| ns as f64 / 1e6;
    let byzantine = workload.spec().byzantine.len();
    // 0 when nobody is Byzantine or someone escaped.
    let quarantine_round = traced
        .first()
        .and_then(|j| {
            j.run
                .summaries
                .iter()
                .find(|s| byzantine > 0 && s.quarantined_workers.len() == byzantine)
        })
        .map_or(0, |s| s.iteration);
    vec![
        metric(
            "wire.server.compute_ms",
            mean_of(&|s| ms(s.timings.compute_ns)),
            "ms",
        ),
        metric(
            "wire.server.wire_ms",
            mean_of(&|s| ms(s.timings.wire_ns)),
            "ms",
        ),
        metric(
            "wire.server.vote_ms",
            mean_of(&|s| ms(s.timings.vote_ns)),
            "ms",
        ),
        metric(
            "wire.server.update_ms",
            mean_of(&|s| ms(s.timings.update_ns)),
            "ms",
        ),
        metric(
            "wire.server.startup_drain_ms",
            stats::mean(
                &traced
                    .iter()
                    .map(|j| j.startup_drain_ms())
                    .collect::<Vec<_>>(),
            ),
            "ms",
        ),
        metric(
            "wire.server.round_ms_p95",
            stats::percentile(&pooled_round_ms(traced), 95.0),
            "ms",
        ),
        metric(
            "wire.server.overlap_ratio",
            mean_of(&|s| s.timings.overlap_ratio()),
            "ratio",
        ),
        metric(
            "wire.server.frames_per_round",
            mean_of(&|s| s.frames_received as f64),
            "count",
        ),
        metric(
            "wire.server.missing_votes_per_round",
            mean_of(&|s| s.missing_votes as f64),
            "count",
        ),
        metric(
            "wire.server.degraded_votes_per_round",
            mean_of(&|s| s.degraded_votes as f64),
            "count",
        ),
        metric(
            "wire.server.deferred_files_per_round",
            mean_of(&|s| s.deferred_files as f64),
            "count",
        ),
        metric(
            "wire.server.stale_folded_per_round",
            mean_of(&|s| s.stale_folded as f64),
            "count",
        ),
        metric(
            "wire.server.quarantine_round",
            quarantine_round as f64,
            "count",
        ),
    ]
}

/// Prints, for the spans of the traced jobs (probes and the reference
/// deployment left out), each name's total self time and its share of
/// the jobs' wall time: the table README.md's "measured shares" section
/// is read from.
fn print_self_time_shares(tracer: &Tracer) {
    let spans = tracer.spans();
    let self_ns = trace::self_times_ns(spans);
    let in_job = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        spans[i].name == "job"
    };
    let mut by_name: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for (i, span) in spans.iter().enumerate().filter(|(i, _)| in_job(*i)) {
        *by_name.entry(span.name.as_str()).or_default() += self_ns[i];
    }
    let total: u64 = by_name.values().sum();
    for (name, ns) in by_name {
        println!(
            "self_time {name} {:.1} ms {:.1} %",
            ns as f64 / 1e6,
            ns as f64 * 100.0 / total.max(1) as f64
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args(&[
            "--workload",
            "wire_dense",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("wire_dense", 7, 12.0, true)
        );
        assert!(!a.quick);
        let a = args(&["--quick", "--workload", "compute_heavy", "--out", "x"]).unwrap();
        assert!(a.quick && !a.trace);
        assert_eq!(a.out, PathBuf::from("x"));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "wire_dense", "--trace", "2"],
            &["--workload", "wire_dense", "--seconds", "0"],
            &["--workload", "wire_dense", "--seconds", "NaN"],
            &["--workload", "wire_dense", "--frobnicate", "1"],
            &["--workload"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn result_line_is_the_contracts_object() {
        let report = Report {
            metrics: vec![
                metric("rounds_per_s", 11.25, "1/s"),
                metric("setup_s", 0.5, "s"),
            ],
            attempted: 100,
            failed: 0,
            failures: Vec::new(),
        };
        assert_eq!(
            result_line(&report),
            "{\"correct\": true, \"attempted\": 100, \"failed\": 0, \"metrics\": \
             {\"rounds_per_s\": {\"value\": 11.25, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}

//! Runs one training job through the real entry points and records what
//! a user of the system would see of it.
//!
//! Three ways in, all long-lived public surface: `train_run` over
//! channels, `PsServer::serve` + `run_tcp_worker` threads over loopback
//! TCP, and the `byzshield-ps` / `byzshield-worker` binaries' CLI.

use crate::procfs;
use crate::trace::Tracer;
use crate::workload::{LinkKind, Workload};
use byz_data::Dataset;
use byz_nn::FastMlp;
use byz_psd::DeploySpec;
use byz_wire::{
    run_tcp_worker, JobSpec, MessagePassingCluster, PsServer, WireTrainingRun, WorkerSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::ops::Range;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// How long a PS waits for its workers to handshake before giving up.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// Samples the training loss is summed over.
const LOSS_SAMPLES: usize = 400;

/// One finished in-process job.
pub struct JobRecord {
    pub run: WireTrainingRun,
    /// The whole job, from parsing the tokens to joining the workers.
    wall_s: f64,
    /// Everything before the call that runs the rounds: tokens →
    /// `JobSpec` (dataset, assignment, initial parameters), and over TCP
    /// the 15 `WorkerSpec`s, the bind and the worker threads' spawn.
    build_s: f64,
    /// The call that runs the rounds: `train_run` or `serve`.
    call_s: f64,
    /// CPU seconds the process spent over the job (all threads).
    pub cpu_s: f64,
    /// Peak resident set of the process during the job.
    pub peak_rss_mb: f64,
    /// Bytes that crossed loopback during the job.
    pub lo_bytes: u64,
    /// `Err` exits of TCP worker threads (channel workers cannot fail
    /// without panicking the run).
    pub worker_errors: Vec<String>,
    /// How much slower than the reference the box ran around this job
    /// (see `calib`); every time below is divided by it. 1 until a
    /// measured run calibrates.
    pub slowdown: f64,
}

impl JobRecord {
    pub fn rounds(&self) -> usize {
        self.run.summaries.len()
    }

    /// Wall time spent inside rounds, as the PS measured it.
    fn rounds_s(&self) -> f64 {
        let ns: u64 = self.run.summaries.iter().map(|s| s.timings.round_ns).sum();
        ns as f64 / 1e9 / self.slowdown
    }

    pub fn rounds_per_s(&self) -> f64 {
        self.rounds() as f64 / self.rounds_s()
    }

    /// Round wall times in ms, the first `skip` rounds left out.
    pub fn round_ms(&self, skip: usize) -> impl Iterator<Item = f64> + '_ {
        let summaries = self.run.summaries.iter().skip(skip);
        summaries.map(|s| s.timings.round_ns as f64 / 1e6 / self.slowdown)
    }

    pub fn cpu_ms_per_round(&self) -> f64 {
        self.cpu_s * 1e3 / self.slowdown / self.rounds() as f64
    }

    /// The whole job: what a user waits for `rounds()` rounds.
    pub fn job_s(&self) -> f64 {
        self.wall_s / self.slowdown
    }

    /// Time spent before the first worker could do anything.
    pub fn setup_s(&self) -> f64 {
        self.build_s / self.slowdown
    }

    /// Time inside the round-running call but outside any round: thread
    /// spawn and handshake before round 1, drain and shutdown after the
    /// last (a lagging straggler finishes its sleep first).
    pub fn startup_drain_ms(&self) -> f64 {
        (self.call_s / self.slowdown - self.rounds_s()) * 1e3
    }
}

/// The digest `byzshield-ps` prints of the trained parameters.
pub fn fingerprint(params: &[f32]) -> u64 {
    params.iter().fold(0xcbf2_9ce4_8422_2325, |acc, p| {
        (acc ^ u64::from(p.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Summed cross-entropy of `params` over the first [`LOSS_SAMPLES`]
/// training samples: the "quality after a fixed number of rounds".
pub fn summed_loss(spec: &DeploySpec, dataset: &Dataset, params: &[f32]) -> f64 {
    let mut model = FastMlp::new(&spec.dims, &mut StdRng::seed_from_u64(0));
    model.set_params(params);
    let n = LOSS_SAMPLES.min(dataset.len());
    let (x, labels) = first_samples(dataset, n);
    f64::from(model.gradient_sum(&x, n, &labels).0)
}

/// The first `n` samples of `dataset`, flattened the way
/// `FastMlp::gradient_sum` takes them, and their labels.
pub fn first_samples(dataset: &Dataset, n: usize) -> (Vec<f32>, Vec<usize>) {
    let (x, labels) = dataset.gather(&(0..n).collect::<Vec<_>>());
    (x.to_vec(), labels)
}

/// Runs one job of `workload` over `link` (a TCP workload can also be
/// run over channels, for the fingerprint the two must share).
pub fn run_job(workload: &Workload, link: LinkKind, tracer: &mut Tracer) -> JobRecord {
    procfs::reset_peak_rss();
    let cpu_before = procfs::self_cpu_seconds();
    let lo_before = procfs::loopback_bytes();
    let started = Instant::now();
    let root = tracer.begin("job", None);

    let build = tracer.begin("psd.job_spec", root);
    let spec = workload.spec();
    let mut job = spec
        .job_spec()
        .expect("generated spec admits an assignment");
    workload.patch(&mut job.config);
    tracer.end(build);

    let (run, call, worker_errors) = match link {
        LinkKind::Channel => {
            let cluster = MessagePassingCluster::new(
                job.assignment.clone(),
                job.dataset.clone(),
                job.model_dims.clone(),
            );
            let call_start = started.elapsed();
            let train = tracer.begin("wire.server.train_run", root);
            let run = cluster.train_run(job.initial_params.clone(), &job.config);
            tracer.end(train);
            record_rounds(tracer, train, &run);
            (run, call_start..started.elapsed(), Vec::new())
        }
        LinkKind::Tcp => run_over_tcp(workload, &spec, job, started, root, tracer),
    };

    tracer.end(root);
    JobRecord {
        run,
        wall_s: started.elapsed().as_secs_f64(),
        build_s: call.start.as_secs_f64(),
        call_s: (call.end - call.start).as_secs_f64(),
        cpu_s: procfs::self_cpu_seconds() - cpu_before,
        peak_rss_mb: procfs::self_peak_rss_mb(),
        lo_bytes: procfs::loopback_bytes() - lo_before,
        worker_errors,
        slowdown: 1.0,
    }
}

fn run_over_tcp(
    workload: &Workload,
    spec: &DeploySpec,
    job: JobSpec,
    started: Instant,
    root: Option<usize>,
    tracer: &mut Tracer,
) -> (WireTrainingRun, Range<Duration>, Vec<String>) {
    let worker_specs: Vec<WorkerSpec> = tracer.span("psd.worker_specs", root, || {
        (0..spec.num_workers())
            .map(|w| {
                let mut ws = spec.worker_spec(w).expect("worker id in range");
                workload.patch(&mut ws.config);
                ws
            })
            .collect()
    });

    let server = tracer.span("wire.psd.bind", root, || {
        PsServer::bind("127.0.0.1:0".parse().expect("literal address")).expect("bind loopback")
    });
    let addr: SocketAddr = server.local_addr().expect("bound address");
    let workers: Vec<_> = tracer.span("wire.psd.spawn_workers", root, || {
        worker_specs
            .into_iter()
            .map(|ws| thread::spawn(move || run_tcp_worker(addr, &ws)))
            .collect()
    });

    let call_start = started.elapsed();
    let serve = tracer.begin("wire.psd.serve", root);
    let mut results = server
        .serve(vec![job], READY_TIMEOUT)
        .expect("loopback job serves to completion");
    tracer.end(serve);
    let call = call_start..started.elapsed();
    let run = results.pop().expect("one job in, one result out").run;
    record_rounds(tracer, serve, &run);

    let worker_errors = tracer.span("wire.psd.join_workers", root, || {
        workers
            .into_iter()
            .enumerate()
            .filter_map(|(w, t)| match t.join() {
                Ok(Ok(())) => None,
                Ok(Err(e)) => Some(format!("worker {w}: {e}")),
                Err(_) => Some(format!("worker {w}: panicked")),
            })
            .collect()
    });
    (run, call, worker_errors)
}

/// Lays the rounds of a finished run out as spans under `parent`, the
/// span of the call that ran them (nothing to do when the tracer is
/// off). The summaries carry durations, not start times, so rounds are
/// placed back to back ending where the call returned (shutdown is short
/// next to handshake), and the phases in protocol order: compute, then
/// the wire window, then whatever vote and update time fell outside it.
fn record_rounds(tracer: &mut Tracer, parent: Option<usize>, run: &WireTrainingRun) {
    let Some(call) = parent.map(|id| &tracer.spans()[id]) else {
        return;
    };
    let call = call.start_ns..call.end_ns;
    let total: u64 = run.summaries.iter().map(|s| s.timings.round_ns).sum();
    let mut at = call.end.saturating_sub(total).max(call.start);
    for s in &run.summaries {
        let t = s.timings;
        let round = Some(s.iteration as u64);
        let end = (at + t.round_ns).min(call.end);
        let id = tracer.record("wire.server.round", at, end, parent, round);
        let wire_start = (at + t.compute_ns).min(end);
        let wire_end = (wire_start + t.wire_ns).min(end);
        tracer.record("wire.server.compute", at, wire_start, id, round);
        tracer.record("wire.server.wire", wire_start, wire_end, id, round);
        // Streaming votes inside the wire window; only the remainder of
        // vote + update extends the round past it.
        let tail = end - wire_end;
        let update = t.update_ns.min(tail);
        let vote = t.vote_ns.min(tail - update);
        tracer.record(
            "wire.server.vote",
            end - update - vote,
            end - update,
            id,
            round,
        );
        tracer.record("wire.server.update", end - update, end, id, round);
        at = end;
    }
}

/// One finished deployment on real processes.
pub struct ProcessRecord {
    /// Parsed from the PS's `params fingerprint 0x…` line.
    pub fingerprint: u64,
    pub rounds: usize,
    /// Σ round wall time, from the PS's `phases: … over …ms wall` line.
    pub rounds_s: f64,
    /// First spawn to last exit.
    pub wall_s: f64,
}

/// Kills and reaps whatever is still running when dropped, so no exit
/// path of [`run_process_job`] leaves a process behind.
struct Reaper(Vec<Child>);

impl Drop for Reaper {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Launches `byzshield-ps` and one `byzshield-worker` per slot from
/// `bin_dir` on `workload`'s tokens and waits for all of them.
pub fn run_process_job(
    workload: &Workload,
    bin_dir: &Path,
    tracer: &mut Tracer,
) -> Result<ProcessRecord, String> {
    assert!(
        workload.top_k_seed.is_none() && workload.straggler_unit.is_none(),
        "token-less knobs cannot reach another process"
    );
    let started = Instant::now();
    let root = tracer.begin("psd.process_job", None);
    let mut reaper = Reaper(Vec::new());

    let mut ps = Command::new(bin_dir.join("byzshield-ps"))
        .args(["listen=127.0.0.1:0", "ready-secs=30", "job"])
        .args(&workload.tokens)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn byzshield-ps from {}: {e}", bin_dir.display()))?;
    let mut lines = BufReader::new(ps.stdout.take().expect("piped stdout")).lines();
    reaper.0.push(ps);

    let addr = lines
        .by_ref()
        .map_while(Result::ok)
        .find_map(|l| {
            let rest = l.strip_prefix("listening on ")?;
            rest.split_whitespace().next().map(String::from)
        })
        .ok_or("byzshield-ps exited before listening")?;
    for w in 0..workload.spec().num_workers() {
        let worker = Command::new(bin_dir.join("byzshield-worker"))
            .arg(format!("connect={addr}"))
            .arg(format!("worker={w}"))
            .args(&workload.tokens)
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn byzshield-worker {w}: {e}"))?;
        reaper.0.push(worker);
    }

    let (mut fingerprint, mut rounds, mut rounds_s) = (None, None, None);
    for line in lines.map_while(Result::ok) {
        if let Some((_, hex)) = line.split_once("params fingerprint 0x") {
            fingerprint = u64::from_str_radix(hex.trim(), 16).ok();
            rounds = line
                .split_once("done: ")
                .and_then(|(_, rest)| rest.split_whitespace().next()?.parse().ok());
        }
        if let Some((_, rest)) = line.split_once(" over ") {
            rounds_s = rest
                .split_once("ms wall")
                .and_then(|(ms, _)| ms.parse::<f64>().ok())
                .map(|ms| ms / 1e3);
        }
    }
    for (i, child) in reaper.0.iter_mut().enumerate() {
        let status = child.wait().map_err(|e| format!("wait: {e}"))?;
        if !status.success() {
            let who = if i == 0 {
                "byzshield-ps".into()
            } else {
                format!("worker {}", i - 1)
            };
            return Err(format!("{who} exited with {status}"));
        }
    }
    tracer.end(root);
    Ok(ProcessRecord {
        fingerprint: fingerprint.ok_or("no fingerprint line from byzshield-ps")?,
        rounds: rounds.ok_or("no round count from byzshield-ps")?,
        rounds_s: rounds_s.ok_or("no phases line from byzshield-ps")?,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_sensitive() {
        assert_ne!(fingerprint(&[1.0, 2.0]), fingerprint(&[2.0, 1.0]));
        assert_eq!(fingerprint(&[]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn channel_and_tcp_jobs_agree_and_account_their_time() {
        let workload = Workload::new("tcp_chunked_byz", 2, Some(3)).unwrap();
        let mut tracer = Tracer::new(true);
        let tcp = run_job(&workload, LinkKind::Tcp, &mut tracer);
        let channel = run_job(&workload, LinkKind::Channel, &mut Tracer::new(false));
        assert_eq!(
            fingerprint(&tcp.run.params),
            fingerprint(&channel.run.params)
        );
        assert!(tcp.worker_errors.is_empty());
        assert_eq!(tcp.run.summaries.len(), 3);
        assert!(tcp.lo_bytes > tcp.run.summaries[0].bytes_received as u64);
        assert!(tcp.setup_s() > 0.0 && tcp.startup_drain_ms() > 0.0);
        assert!(
            tcp.setup_s() + tcp.startup_drain_ms() / 1e3 + 3.0 / tcp.rounds_per_s() < tcp.job_s()
        );

        // job → serve → 3 rounds × (round + 4 phases), all nested.
        let spans = tracer.spans();
        let rounds: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "wire.server.round")
            .collect();
        assert_eq!(rounds.len(), 3);
        assert_eq!(spans.iter().filter(|s| s.round == Some(2)).count(), 5);
        for s in spans {
            assert!(s.end_ns >= s.start_ns, "{s:?}");
            if let Some(p) = s.parent {
                assert!(
                    spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns,
                    "{s:?}"
                );
            }
        }
    }

    #[test]
    fn loss_falls_from_its_initial_value() {
        let workload = Workload::new("wire_dense", 2, Some(8)).unwrap();
        let spec = workload.spec();
        let data = spec.dataset();
        let before = summed_loss(&spec, &data, &spec.initial_params());
        let job = run_job(&workload, LinkKind::Channel, &mut Tracer::new(false));
        assert!(summed_loss(&spec, &data, &job.run.params) < before);
    }
}

//! Socket-deployment conformance and chaos suite.
//!
//! The TCP transport is pure edge adaptation: the PS loop stays typed
//! against channels, readers and slot writers patch sockets into that
//! fabric, so a loopback-TCP run must be **bit-identical** to a channel
//! run — parameters, per-round summaries (vote audits included) and
//! serialized ledger bytes — on both wire formats, each with its own vote
//! schedule, at any `BYZ_KERNEL_THREADS` (CI runs 1 and 4).
//!
//! Connection lifecycle is a fault class, not an error path: these tests
//! also pin that a seeded mid-round disconnect and a half-open (stalled)
//! connection degrade through the existing missing-replica accounting —
//! the round completes under the PS deadline, nothing panics or hangs —
//! and that a reconnecting worker is readmitted at the current round
//! without corrupting the ledger. A PS thread that panics fails `serve`
//! with a typed error and frees its workers.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use byz_wire::ChunkConfig;
use byzshield::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset() -> Dataset {
    SyntheticImages::new(SyntheticConfig {
        num_classes: 4,
        channels: 1,
        hw: 6,
        train_samples: 400,
        test_samples: 50,
        noise: 0.4,
        max_shift: 1,
        seed: 5,
    })
    .generate()
    .0
}

fn initial_params(dims: &[usize]) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(2);
    FastMlp::new(dims, &mut rng).params_flat()
}

/// The paper's K = 15 cluster (l = 5, r = 3, 25 files).
fn mols() -> Assignment {
    MolsAssignment::new(5, 3).unwrap().build()
}

fn job(job_id: u64, data: &Arc<Dataset>, config: ServerConfig) -> JobSpec {
    let dims = vec![36usize, 8, 4];
    JobSpec {
        job_id,
        assignment: mols(),
        dataset: Arc::clone(data),
        model_dims: dims.clone(),
        initial_params: initial_params(&dims),
        config,
    }
}

/// The in-process baseline: same spec, channel transport.
fn channel_run(job: &JobSpec) -> WireTrainingRun {
    MessagePassingCluster::new(
        job.assignment.clone(),
        Arc::clone(&job.dataset),
        job.model_dims.clone(),
    )
    .train_run(job.initial_params.clone(), &job.config)
}

/// Runs the jobs over loopback TCP: one `PsServer` on an ephemeral port,
/// one thread per worker standing in for a worker process. Returns the
/// job results (input order) and every worker's exit status (job-major,
/// worker-minor order).
fn run_over_tcp(jobs: &[JobSpec]) -> (Vec<JobResult>, Vec<Result<(), ClusterError>>) {
    let server = PsServer::bind("127.0.0.1:0".parse().unwrap()).expect("bind loopback");
    let addr: SocketAddr = server.local_addr().expect("local addr");
    let mut workers = Vec::new();
    for job in jobs {
        for w in 0..job.assignment.num_workers() {
            let spec = WorkerSpec::new(
                job.job_id,
                w,
                job.assignment.clone(),
                Arc::clone(&job.dataset),
                job.model_dims.clone(),
                job.config.clone(),
            );
            workers.push(thread::spawn(move || run_tcp_worker(addr, &spec)));
        }
    }
    let results = server
        .serve(jobs.to_vec(), Duration::from_secs(30))
        .expect("serve completes");
    let exits = workers
        .into_iter()
        .map(|t| t.join().expect("worker thread panicked"))
        .collect();
    (results, exits)
}

/// Wall-clock timings are the only admissible difference between the two
/// transports; zero them so everything else compares exactly.
fn normalized(run: &WireTrainingRun) -> WireTrainingRun {
    let mut run = run.clone();
    for summary in &mut run.summaries {
        summary.timings = PhaseTimings::default();
    }
    run
}

fn assert_runs_bit_identical(label: &str, tcp: &WireTrainingRun, channel: &WireTrainingRun) {
    let (tcp, channel) = (normalized(tcp), normalized(channel));
    let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&tcp.params),
        bits(&channel.params),
        "{label}: trained parameters diverged across transports"
    );
    assert_eq!(
        tcp.summaries, channel.summaries,
        "{label}: round summaries (audits included) diverged across transports"
    );
    assert_eq!(
        tcp.ledger_bytes, channel.ledger_bytes,
        "{label}: serialized ledger bytes diverged across transports"
    );
}

/// TCP ≡ channel on every observable, on the batched wire (votes at
/// close) and the chunked wire (votes as files complete), with Byzantine
/// workers, message drops, a straggler and reputation all active.
#[test]
fn tcp_matches_channel_across_formats_and_modes() {
    let data = Arc::new(dataset());
    for wire in [
        WireFormat::Batched,
        WireFormat::Chunked(ChunkConfig::dense(64)),
    ] {
        let config = ServerConfig {
            iterations: 4,
            byzantine: vec![0, 5],
            attack: LocalAttack::Constant { value: -50.0 },
            faults: FaultPlan::new(7).drop_rate(0.08).straggle(4, 3.0),
            reputation: Some(ReputationConfig::default()),
            seed: 31,
            wire,
            receive_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        };
        let spec = job(1, &data, config);
        let baseline = channel_run(&spec);
        let (mut results, exits) = run_over_tcp(std::slice::from_ref(&spec));
        let label = format!("{wire:?}");
        for (w, exit) in exits.iter().enumerate() {
            assert_eq!(exit, &Ok(()), "{label}: worker {w} failed");
        }
        assert_eq!(results.len(), 1, "{label}");
        let result = results.remove(0);
        assert_eq!(result.job_id, 1, "{label}");
        assert!(
            result.run.ledger_bytes.is_some(),
            "{label}: reputation was configured, ledger missing"
        );
        assert_runs_bit_identical(&label, &result.run, &baseline);
    }
}

/// Two jobs with different seeds, Byzantine sets and attack payloads
/// share one PS port concurrently; each must equal its own channel
/// baseline (the strongest isolation statement available), and the two
/// must genuinely differ from each other.
#[test]
fn concurrent_jobs_stay_isolated() {
    let data = Arc::new(dataset());
    let config_a = ServerConfig {
        iterations: 3,
        byzantine: vec![0, 5],
        attack: LocalAttack::Constant { value: -50.0 },
        reputation: Some(ReputationConfig::default()),
        seed: 31,
        ..ServerConfig::default()
    };
    let config_b = ServerConfig {
        iterations: 3,
        byzantine: vec![2, 9],
        attack: LocalAttack::ReversedGradient { magnitude: 8.0 },
        reputation: Some(ReputationConfig::default()),
        seed: 97,
        ..ServerConfig::default()
    };
    let job_a = job(7, &data, config_a);
    let job_b = job(8, &data, config_b);
    let baseline_a = channel_run(&job_a);
    let baseline_b = channel_run(&job_b);

    let (results, exits) = run_over_tcp(&[job_a, job_b]);
    for (i, exit) in exits.iter().enumerate() {
        assert_eq!(exit, &Ok(()), "worker thread {i} failed");
    }
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].job_id, 7);
    assert_eq!(results[1].job_id, 8);
    assert_runs_bit_identical("job 7", &results[0].run, &baseline_a);
    assert_runs_bit_identical("job 8", &results[1].run, &baseline_b);

    // Cross-job bleed would show up as one job's state in the other's.
    assert_ne!(
        results[0].run.params, results[1].run.params,
        "distinct jobs trained to identical parameters — crosstalk?"
    );
    assert_ne!(
        results[0].run.ledger_bytes, results[1].run.ledger_bytes,
        "distinct jobs produced identical ledgers — crosstalk?"
    );
}

/// A seeded mid-round disconnect: worker 2's socket is cut after the
/// first upload of round 3 (the chunked wire with one chunk per replica,
/// which uploads each file as it is computed, so the remaining four
/// files of the round are genuinely in flight). The round must complete under
/// the receive window with exactly those four replicas degraded; the
/// worker reconnects through the handshake and every later round is
/// clean again. Nothing panics, nothing hangs, the ledger survives.
#[test]
fn mid_round_disconnect_degrades_then_reconnects() {
    let data = Arc::new(dataset());
    let config = ServerConfig {
        iterations: 6,
        faults: FaultPlan::new(3).disconnect_at(2, 3),
        reputation: Some(ReputationConfig::default()),
        seed: 11,
        wire: WireFormat::Chunked(ChunkConfig::dense(512)),
        receive_timeout: Duration::from_millis(600),
        ..ServerConfig::default()
    };
    let spec = job(4, &data, config);
    let (mut results, exits) = run_over_tcp(std::slice::from_ref(&spec));
    for (w, exit) in exits.iter().enumerate() {
        assert_eq!(exit, &Ok(()), "worker {w} failed (2 should reconnect)");
    }
    let run = results.remove(0).run;
    assert_eq!(run.summaries.len(), 6, "run did not complete every round");
    for summary in &run.summaries {
        // l = 5 files on the cut worker; one upload escaped before the
        // cut, so exactly 4 replicas go missing — each degrading its
        // file to 2 of 3 replicas, none below quorum.
        let (missing, degraded) = if summary.iteration == 3 {
            (4, 4)
        } else {
            (0, 0)
        };
        assert_eq!(
            summary.missing_votes, missing,
            "round {}: disconnect must degrade exactly the in-flight replicas",
            summary.iteration
        );
        assert_eq!(
            summary.degraded_votes, degraded,
            "round {}",
            summary.iteration
        );
        assert_eq!(summary.abandoned_files, 0, "round {}", summary.iteration);
        // Absence is benign evidence: a dropped connection must never
        // quarantine the worker it dropped.
        assert!(
            summary.quarantined_workers.is_empty(),
            "round {}: disconnect led to quarantine",
            summary.iteration
        );
    }
    // The reconnect did not corrupt the ledger: it still round-trips.
    let bytes = run.ledger_bytes.expect("reputation was on");
    let ledger = ReputationLedger::from_bytes(&bytes).expect("ledger bytes corrupted");
    assert!(!ledger.is_quarantined(2));
}

/// A half-open connection: from round 3 on, worker 4's uploads are
/// swallowed while its downlink keeps flowing — from the PS this is a
/// healthy socket that never delivers. Every affected round must absorb
/// the silence as l = 5 missing replicas within the receive window, and
/// the worker still exits cleanly on the shutdown frame it can receive.
#[test]
fn half_open_connection_degrades_like_drops() {
    let data = Arc::new(dataset());
    let config = ServerConfig {
        iterations: 5,
        faults: FaultPlan::new(3).stall_from(4, 3),
        reputation: Some(ReputationConfig::default()),
        seed: 13,
        receive_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    };
    let spec = job(5, &data, config);
    let (mut results, exits) = run_over_tcp(std::slice::from_ref(&spec));
    for (w, exit) in exits.iter().enumerate() {
        assert_eq!(
            exit,
            &Ok(()),
            "worker {w} failed (4's downlink still works)"
        );
    }
    let run = results.remove(0).run;
    assert_eq!(run.summaries.len(), 5, "run did not complete every round");
    for summary in &run.summaries {
        let (missing, degraded) = if summary.iteration >= 3 {
            (5, 5)
        } else {
            (0, 0)
        };
        assert_eq!(
            summary.missing_votes, missing,
            "round {}: a stalled socket must look exactly like dropped frames",
            summary.iteration
        );
        assert_eq!(
            summary.degraded_votes, degraded,
            "round {}",
            summary.iteration
        );
        assert_eq!(summary.abandoned_files, 0, "round {}", summary.iteration);
        assert!(
            summary.quarantined_workers.is_empty(),
            "round {}: benign stall led to quarantine",
            summary.iteration
        );
    }
    let bytes = run.ledger_bytes.expect("reputation was on");
    assert!(ReputationLedger::from_bytes(&bytes).is_ok());
}

/// A job whose PS thread panics fails `serve` with a typed error — no
/// panic escapes, nothing hangs — and its workers still terminate. The
/// panic is a batch larger than the dataset: `serve` does not pre-check
/// it, and the PS loop's sampler asserts it once every worker is in.
#[test]
fn a_panicking_ps_thread_fails_serve_and_frees_its_workers() {
    let data = Arc::new(dataset());
    let config = ServerConfig {
        iterations: 2,
        batch_size: data.len() + 25,
        ..ServerConfig::default()
    };
    let spec = job(6, &data, config);
    let server = PsServer::bind("127.0.0.1:0".parse().unwrap()).expect("bind loopback");
    let addr: SocketAddr = server.local_addr().expect("local addr");
    let workers: Vec<_> = (0..spec.assignment.num_workers())
        .map(|w| {
            let mut worker = WorkerSpec::new(
                spec.job_id,
                w,
                spec.assignment.clone(),
                Arc::clone(&spec.dataset),
                spec.model_dims.clone(),
                spec.config.clone(),
            );
            // A lost link ends the worker at once instead of redialling
            // a server that is done.
            worker.reconnect_attempts = 0;
            thread::spawn(move || run_tcp_worker(addr, &worker))
        })
        .collect();
    let outcome = server.serve(vec![spec], Duration::from_secs(30));
    assert!(
        matches!(outcome, Err(ClusterError::Transport(_))),
        "{outcome:?}"
    );
    for (w, worker) in workers.into_iter().enumerate() {
        assert!(worker.join().is_ok(), "worker {w} panicked");
    }
}

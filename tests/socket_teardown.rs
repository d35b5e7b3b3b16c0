//! Socket teardown contract: a TCP job ends by handoffs, not timers.
//!
//! When a job's PS loop ends, `Shutdown` is queued on every slot, each
//! slot writer writes what was queued and then half-closes its
//! connection, and readers keep reading until the worker closes. So
//! every worker reads its `Shutdown` on an intact connection, whatever
//! it is doing when the job ends: uploading while quarantined, sleeping
//! out a straggler delay, or serving the other of two jobs on one port.
//!
//! Every worker here runs with `reconnect_attempts = 0`: a connection
//! that closed before its `Shutdown` was read would end the worker with
//! an error instead of a redial. Each shape runs over 20 seeds, and no
//! assertion reads a clock. A peer that uploads after the job ended must
//! see its upload land and still read `Shutdown`, then a clean EOF; a
//! peer that never closes its socket must still let `serve` return.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use byz_wire::{client_handshake, ChunkConfig, Link, LinkError, Message, RoundMode, TcpLink};
use byzshield::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEEDS: u64 = 20;

fn dataset() -> Arc<Dataset> {
    Arc::new(
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
        .0,
    )
}

/// A K = 15 job (MOLS l = 5, r = 3) on a small model.
fn job(job_id: u64, data: &Arc<Dataset>, config: ServerConfig) -> JobSpec {
    let dims = vec![36usize, 8, 4];
    JobSpec {
        job_id,
        assignment: MolsAssignment::new(5, 3).unwrap().build(),
        dataset: Arc::clone(data),
        initial_params: FastMlp::new(&dims, &mut StdRng::seed_from_u64(2)).params_flat(),
        model_dims: dims,
        config,
    }
}

/// A worker of `job` that fails on its first lost connection.
fn worker_spec(job: &JobSpec, w: usize) -> WorkerSpec {
    let mut spec = WorkerSpec::new(
        job.job_id,
        w,
        job.assignment.clone(),
        Arc::clone(&job.dataset),
        job.model_dims.clone(),
        job.config.clone(),
    );
    spec.reconnect_attempts = 0;
    spec
}

/// Serves `jobs` on loopback with one thread per worker slot, and
/// asserts that `serve` succeeds and every worker thread returns
/// `Ok(())`.
fn serve_cleanly(label: &str, jobs: &[JobSpec]) -> Vec<JobResult> {
    let server = PsServer::bind("127.0.0.1:0".parse().unwrap()).expect("bind loopback");
    let addr: SocketAddr = server.local_addr().expect("local addr");
    let workers: Vec<_> = jobs
        .iter()
        .flat_map(|job| (0..job.assignment.num_workers()).map(move |w| (job, w)))
        .map(|(job, w)| {
            let spec = worker_spec(job, w);
            (
                job.job_id,
                w,
                thread::spawn(move || run_tcp_worker(addr, &spec)),
            )
        })
        .collect();
    let results = server
        .serve(jobs.to_vec(), Duration::from_secs(30))
        .unwrap_or_else(|e| panic!("{label}: serve failed: {e}"));
    for (job_id, w, worker) in workers {
        let exit = worker.join().expect("worker thread panicked");
        assert_eq!(exit, Ok(()), "{label}: job {job_id} worker {w}");
    }
    results
}

/// `tcp_chunked_byz`'s shape on a small model: chunked wire, streaming
/// votes, two Byzantine workers under the ledger. The ledger
/// quarantines both, and they keep uploading to the end of the job.
#[test]
fn quarantined_uploaders_read_their_shutdown() {
    let data = dataset();
    for seed in 0..SEEDS {
        let config = ServerConfig {
            iterations: 6,
            byzantine: vec![0, 5],
            attack: LocalAttack::Constant { value: -50.0 },
            reputation: Some(ReputationConfig::default()),
            wire: WireFormat::Chunked(ChunkConfig::dense(64)),
            mode: RoundMode::Streaming,
            seed,
            ..ServerConfig::default()
        };
        let label = format!("seed {seed}");
        let results = serve_cleanly(&label, &[job(1, &data, config)]);
        let last = results[0].run.summaries.last().expect("rounds ran");
        assert_eq!(last.quarantined_workers, vec![0, 5], "{label}");
    }
}

/// A bounded-staleness job whose straggler is outrun: when the job ends
/// it is waiting out a 50 ms delay with broadcasts queued behind it.
#[test]
fn an_outrun_straggler_reads_its_shutdown() {
    let data = dataset();
    for seed in 0..SEEDS {
        let config = ServerConfig {
            iterations: 8,
            faults: FaultPlan::new(7).straggle(3, 51.0),
            mode: RoundMode::BoundedStaleness { max_staleness: 1 },
            seed,
            ..ServerConfig::default()
        };
        serve_cleanly(&format!("seed {seed}"), &[job(1, &data, config)]);
    }
}

/// Two jobs on one port: the one that ends first tears down while the
/// other still runs.
#[test]
fn both_jobs_of_one_serve_read_their_shutdown() {
    let data = dataset();
    for seed in 0..SEEDS {
        let short = ServerConfig {
            iterations: 2,
            seed,
            ..ServerConfig::default()
        };
        let long = ServerConfig {
            iterations: 5,
            byzantine: vec![2, 9],
            attack: LocalAttack::ReversedGradient { magnitude: 8.0 },
            reputation: Some(ReputationConfig::default()),
            wire: WireFormat::Chunked(ChunkConfig::dense(64)),
            mode: RoundMode::Streaming,
            seed: seed + 100,
            ..ServerConfig::default()
        };
        let results = serve_cleanly(
            &format!("seed {seed}"),
            &[job(7, &data, short), job(8, &data, long)],
        );
        assert_eq!(results[0].run.summaries.len(), 2);
        assert_eq!(results[1].run.summaries.len(), 5);
    }
}

/// The PS side of a job whose slot 14 is held by `peer`: serves it with
/// fourteen real workers, asserts they exit cleanly, and returns what
/// `peer` returned.
fn serve_with_peer<T: Send + 'static>(
    config: ServerConfig,
    peer: impl FnOnce(TcpLink) -> T + Send + 'static,
) -> T {
    let spec = job(3, &dataset(), config);
    let server = PsServer::bind("127.0.0.1:0".parse().unwrap()).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let workers: Vec<_> = (0..14)
        .map(|w| {
            let worker = worker_spec(&spec, w);
            thread::spawn(move || run_tcp_worker(addr, &worker))
        })
        .collect();
    let peer = thread::spawn(move || {
        let mut link = TcpLink::connect(addr, Duration::from_secs(5)).unwrap();
        client_handshake(&mut link, 3, 14, Duration::from_secs(5)).unwrap();
        peer(link)
    });
    let iterations = spec.config.iterations;
    let results = server
        .serve(vec![spec], Duration::from_secs(30))
        .expect("serve returns");
    assert_eq!(results[0].run.summaries.len(), iterations);
    for (w, worker) in workers.into_iter().enumerate() {
        assert_eq!(worker.join().unwrap(), Ok(()), "worker {w}");
    }
    peer.join().expect("peer thread panicked")
}

/// Every frame `link` still receives, and the error that ended them.
fn read_to_end(link: &mut TcpLink) -> (Vec<bytes::Bytes>, LinkError) {
    let mut frames = Vec::new();
    loop {
        match link.recv() {
            Ok(frame) => frames.push(frame),
            Err(e) => return (frames, e),
        }
    }
}

/// Slot 14 is held by a peer that is busy when the job ends, as a
/// quarantined worker still computing is: after the last broadcast it
/// sleeps, then uploads 1 MiB the PS will never count, and only then
/// reads on. The upload lands, and the peer reads its `Shutdown`, then
/// EOF.
#[test]
fn a_late_upload_lands_and_the_uploader_reads_its_shutdown() {
    let config = ServerConfig {
        iterations: 3,
        receive_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let (uploaded, frames, end) = serve_with_peer(config, |mut link| {
        while !matches!(
            Message::decode(&link.recv().unwrap()),
            Ok(Message::ModelBroadcast { iteration: 3, .. })
        ) {}
        thread::sleep(Duration::from_millis(300));
        let filler = Message::Shutdown.encode();
        let uploaded = (0..(1 << 20) / filler.len())
            .try_for_each(|_| link.queue(filler.clone()))
            .and_then(|()| link.flush());
        let (frames, end) = read_to_end(&mut link);
        (uploaded, frames, end)
    });
    assert_eq!(uploaded, Ok(()), "the late upload was refused");
    assert_eq!(frames, vec![Message::Shutdown.encode()]);
    assert_eq!(end, LinkError::Closed);
}

/// Slot 14 is held by a peer that completes the handshake and then
/// neither reads nor closes. `serve` still returns, the other fourteen
/// workers still exit cleanly, and what the peer was sent ends with
/// `Shutdown`, then EOF.
#[test]
fn a_peer_that_never_closes_is_cut_off() {
    let config = ServerConfig {
        iterations: 3,
        receive_timeout: Duration::from_millis(100),
        round_deadline: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    // The peer's thread hands its open link back without a read.
    let mut link = serve_with_peer(config, |link| link);
    let (frames, end) = read_to_end(&mut link);
    assert_eq!(end, LinkError::Closed);
    assert_eq!(frames.len(), 4, "three broadcasts, then the bye");
    assert_eq!(frames.last(), Some(&Message::Shutdown.encode()));
}

//! One worker process of a socket deployment.
//!
//! ```text
//! byzshield-worker connect=127.0.0.1:7001 worker=3 id=1 l=5 r=3 iters=10 …
//! ```
//!
//! The spec tokens (everything except `connect=` and `worker=`) must
//! match the ones the PS was launched with for this job id — worker and
//! PS derive the assignment, dataset and initial parameters from the
//! spec rather than exchanging them. The process connects, handshakes
//! into its `(job, worker)` slot, serves gradient rounds until the PS
//! sends the shutdown frame, and transparently reconnects (with a small
//! retry budget) if the connection drops mid-run.

use byz_psd::{DeploySpec, SpecError};
use byz_wire::run_tcp_worker;

const USAGE: &str = "usage: byzshield-worker connect=ADDR worker=N <key=value>...";

fn main() {
    if let Err(e) = run() {
        eprintln!("byzshield-worker: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(());
    }

    let mut connect = None;
    let mut worker = None;
    let mut spec_tokens = Vec::new();
    for token in args {
        if let Some(addr) = token.strip_prefix("connect=") {
            connect = Some(addr.to_string());
        } else if let Some(id) = token.strip_prefix("worker=") {
            worker = Some(
                id.parse::<usize>()
                    .map_err(|_| SpecError(format!("worker={id} is not a number")))?,
            );
        } else {
            spec_tokens.push(token);
        }
    }
    let connect = connect.ok_or(SpecError(format!("connect= is required\n{USAGE}")))?;
    let worker = worker.ok_or(SpecError(format!("worker= is required\n{USAGE}")))?;

    let spec = DeploySpec::parse(&spec_tokens)?;
    let worker_spec = spec.worker_spec(worker)?;
    println!(
        "worker {worker} joining job {} at {connect} ({} of {} files)",
        spec.job_id,
        worker_spec.assignment.load(),
        worker_spec.assignment.num_files(),
    );
    run_tcp_worker(connect.parse()?, &worker_spec)?;
    println!("worker {worker}: job {} complete", spec.job_id);
    Ok(())
}

//! Regenerates the paper's tables and figures (DESIGN.md §5) and this
//! repo's ablations: `repro <id>`, `repro list`, `repro all`.
//!
//! Figures honor `BYZ_ITERS` / `BYZ_EVAL_EVERY` and write
//! `bench_results/<id>.csv`; everything else only prints. Exits non-zero
//! on an unknown id.

use byz_assign::MolsFamily;
use byz_bench::{distortion_table, run_figure};
use byz_distortion::DEFAULT_NODE_LIMIT;
use byzshield::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Every experiment id, in the order `repro all` runs them (tables
/// first; `table5_distortion` is the long one — exact B&B to q = 13).
const IDS: [&str; 21] = [
    "table1_mols",
    "table2_allocation",
    "table3_distortion",
    "table4_distortion",
    "table6_distortion",
    "table5_distortion",
    "fig2_alie_median",
    "fig3_alie_bulyan",
    "fig4_alie_multikrum",
    "fig5_constant_signsgd",
    "fig6_revgrad_median",
    "fig7_revgrad_bulyan",
    "fig8_revgrad_multikrum",
    "fig9_alie_median_k15",
    "fig10_alie_bulyan_k15",
    "fig11_alie_multikrum_k15",
    "fig12_iteration_time",
    "ablation_assignment",
    "ablation_aggregation",
    "ablation_attacker_knowledge",
    "ablation_redundancy",
];

fn main() -> ExitCode {
    let arg = std::env::args().nth(1).unwrap_or_default();
    let ids = match arg.as_str() {
        "list" => {
            IDS.iter().for_each(|id| println!("{id}"));
            return ExitCode::SUCCESS;
        }
        "all" => IDS.to_vec(),
        id => vec![id],
    };
    for id in ids {
        let Some(run) = experiment(id) else {
            eprintln!("repro: unknown experiment {id:?}\nusage: repro <id> | list | all");
            return ExitCode::from(2);
        };
        if arg == "all" {
            println!("=== {id} ===");
        }
        match run {
            Report(report) => report(),
            Figure(description, cluster, attack, series) => {
                let specs = series
                    .iter()
                    .map(|&(scheme, agg, q)| ExperimentSpec::new(scheme, agg, cluster, attack, q))
                    .collect();
                run_figure(id, description, specs);
            }
        }
    }
    ExitCode::SUCCESS
}

/// What one id runs.
enum Experiment {
    /// Prints its own output (tables, timings, multi-part ablations).
    Report(fn()),
    /// One accuracy-vs-iteration figure named after its id: description,
    /// cluster, attack, and a series per `(scheme, aggregator, q)`.
    Figure(
        &'static str,
        ClusterSize,
        AttackKind,
        &'static [(SchemeSpec, AggregatorKind, usize)],
    ),
}
use Experiment::{Figure, Report};

/// The experiment behind `id`.
fn experiment(id: &str) -> Option<Experiment> {
    use AggregatorKind::{Bulyan, Mean, Median, MedianOfMeans, MultiKrum, SignSgd, TrimmedMean};
    use AttackKind::{Alie, Constant, ReversedGradient};
    use ClusterSize::{K15, K25};
    use SchemeSpec::{Baseline, ByzShield, Detox};
    Some(match id {
        "table1_mols" => Report(table1_mols),
        "table2_allocation" => Report(table2_allocation),
        "table3_distortion" => Report(table3_distortion),
        "table4_distortion" => Report(|| {
            let a = RamanujanAssignment::new(5, 5).expect("valid").build();
            let title = "Table 4: distortion fraction, Ramanujan Case 2 (25, 25, 5, 5)";
            distortion_table(title, &a, 3..=12);
        }),
        // The paper calls this instance "computationally intractable" for
        // plain enumeration (C(35, 13) ≈ 1.5 billion subsets); the
        // branch-and-bound solver certifies every q in a few minutes.
        "table5_distortion" => Report(|| {
            let a = MolsAssignment::new(7, 5).expect("valid").build();
            distortion_table(
                "Table 5: distortion fraction, MOLS (35, 49, 7, 5)",
                &a,
                3..=13,
            );
        }),
        "table6_distortion" => Report(|| {
            let a = MolsAssignment::new(7, 3).expect("valid").build();
            distortion_table(
                "Table 6: distortion fraction, MOLS (21, 49, 7, 3)",
                &a,
                2..=10,
            );
        }),
        "fig2_alie_median" => Figure(
            "ALIE attack and median-based defenses (K = 25)",
            K25,
            Alie,
            &[
                (Baseline, Median, 3),
                (Baseline, Median, 5),
                (ByzShield, Median, 3),
                (ByzShield, Median, 5),
                (Detox, MedianOfMeans, 3),
                (Detox, MedianOfMeans, 5),
            ],
        ),
        // DETOX-Bulyan is inapplicable exactly as in the paper: with only
        // K/r = 5 vote outputs, Bulyan's f ≥ 4c + 3 cannot hold for q ≥ 1.
        // The last series demonstrates it.
        "fig3_alie_bulyan" => Figure(
            "ALIE attack and Bulyan-based defenses (K = 25)",
            K25,
            Alie,
            &[
                (Baseline, Bulyan, 3),
                (Baseline, Bulyan, 5),
                (ByzShield, Median, 3),
                (ByzShield, Median, 5),
                (Detox, Bulyan, 3),
            ],
        ),
        // DETOX-Multi-Krum's maximum feasible q is 5 (the paper's
        // observation); beyond that 2c + 3 exceeds its 5 vote outputs.
        "fig4_alie_multikrum" => Figure(
            "ALIE attack and Multi-Krum-based defenses (K = 25)",
            K25,
            Alie,
            &[
                (Baseline, MultiKrum, 3),
                (Baseline, MultiKrum, 5),
                (ByzShield, Median, 3),
                (ByzShield, Median, 5),
                (Detox, MultiKrum, 3),
                (Detox, MultiKrum, 5),
            ],
        ),
        // signSGD is paired with the constant attack because sign flips
        // barely move a symmetric gradient distribution.
        "fig5_constant_signsgd" => Figure(
            "Constant attack and signSGD-based defenses (K = 25)",
            K25,
            Constant,
            &[
                (Baseline, SignSgd, 3),
                (Baseline, SignSgd, 5),
                (ByzShield, Median, 3),
                (ByzShield, Median, 5),
                (Detox, SignSgd, 3),
                (Detox, SignSgd, 5),
            ],
        ),
        // The headline phenomenon: at q = 9 the omniscient adversary
        // corrupts ⌊9/3⌋ = 3 of DETOX's 5 vote groups (ε̂ = 0.6 > 1/2), so
        // DETOX-MoM collapses to chance even under this weak attack while
        // ByzShield (ε̂ = 0.36) still converges.
        "fig6_revgrad_median" => Figure(
            "Reversed gradient attack and median-based defenses (K = 25)",
            K25,
            ReversedGradient,
            &[
                (Baseline, Median, 3),
                (Baseline, Median, 9),
                (ByzShield, Median, 3),
                (ByzShield, Median, 9),
                (Detox, MedianOfMeans, 3),
                (Detox, MedianOfMeans, 9),
            ],
        ),
        // Baseline Bulyan is inapplicable at q = 9 (4q + 3 = 39 > 25
        // workers — the paper's "Bulyan cannot be applied in this case");
        // the last series demonstrates it.
        "fig7_revgrad_bulyan" => Figure(
            "Reversed gradient attack and Bulyan-based defenses (K = 25)",
            K25,
            ReversedGradient,
            &[
                (Baseline, Bulyan, 3),
                (Baseline, Bulyan, 5),
                (ByzShield, Median, 3),
                (ByzShield, Median, 5),
                (ByzShield, Median, 9),
                (Baseline, Bulyan, 9),
            ],
        ),
        // DETOX-Multi-Krum is feasible only up to q = 5 (at q = 9 it would
        // need 2·3 + 3 = 9 > 5 vote groups); the last series demonstrates it.
        "fig8_revgrad_multikrum" => Figure(
            "Reversed gradient attack and Multi-Krum-based defenses (K = 25)",
            K25,
            ReversedGradient,
            &[
                (Baseline, MultiKrum, 3),
                (Baseline, MultiKrum, 5),
                (Baseline, MultiKrum, 9),
                (ByzShield, Median, 3),
                (ByzShield, Median, 5),
                (ByzShield, Median, 9),
                (Detox, MultiKrum, 3),
                (Detox, MultiKrum, 5),
                (Detox, MultiKrum, 9),
            ],
        ),
        "fig9_alie_median_k15" => Figure(
            "ALIE attack and median-based defenses (K = 15)",
            K15,
            Alie,
            &[
                (Baseline, Median, 2),
                (ByzShield, Median, 2),
                (Detox, MedianOfMeans, 2),
            ],
        ),
        "fig10_alie_bulyan_k15" => Figure(
            "ALIE attack and Bulyan-based defenses (K = 15)",
            K15,
            Alie,
            &[(Baseline, Bulyan, 2), (ByzShield, Median, 2)],
        ),
        "fig11_alie_multikrum_k15" => Figure(
            "ALIE attack and Multi-Krum-based defenses (K = 15)",
            K15,
            Alie,
            &[
                (Baseline, MultiKrum, 2),
                (ByzShield, Median, 2),
                (Detox, MultiKrum, 2),
            ],
        ),
        "fig12_iteration_time" => Report(fig12_iteration_time),
        "ablation_assignment" => Report(ablation_assignment),
        // The paper's conclusion suggests Bulyan/Multi-Krum after the vote
        // could "potentially yield even better results"; `Mean` is the
        // non-robust control — votes alone don't save it.
        "ablation_aggregation" => Figure(
            "ByzShield vote stage + different second-stage aggregators (constant attack, q = 5)",
            K25,
            Constant,
            &[
                (ByzShield, Median, 5),
                (ByzShield, TrimmedMean, 5),
                (ByzShield, MultiKrum, 5),
                (ByzShield, Bulyan, 5),
                (ByzShield, Mean, 5),
            ],
        ),
        "ablation_attacker_knowledge" => Report(ablation_attacker_knowledge),
        "ablation_redundancy" => Report(ablation_redundancy),
        _ => return None,
    })
}

/// Paper Table 1: a set of three MOLS of degree 5
/// (`L_α(i, j) = α·i + j` over `F_5` for `α = 1, 2, 3`).
fn table1_mols() {
    let family = MolsFamily::construct(5, 3).expect("5 is prime, 3 ≤ 4");
    println!("Table 1: a set of three MOLS of degree 5\n");
    for (idx, square) in family.squares().iter().enumerate() {
        println!("L{}:", idx + 1);
        println!("{square}");
    }
    assert!(family.is_mutually_orthogonal());
    println!("pairwise orthogonality verified ✓");
}

/// Paper Table 2: the complete file allocation for the MOLS-based
/// assignment with l = 5, r = 3 (15 workers, 25 files).
fn table2_allocation() {
    let assignment = MolsAssignment::new(5, 3).expect("valid parameters").build();
    println!("Table 2: file allocation for l = 5, r = 3 based on MOLS\n");
    for replica in 0..assignment.replication() {
        println!(
            "2({}): replica {} (from L{})",
            (b'a' + replica as u8) as char,
            replica + 1,
            replica + 1
        );
        println!("{:>6} | stores", "node");
        for slot in 0..assignment.load() {
            let worker = replica * assignment.load() + slot;
            let files: Vec<String> = assignment
                .graph()
                .files_of(worker)
                .iter()
                .map(|f| f.to_string())
                .collect();
            println!("{:>6} | {}", format!("U{worker}"), files.join(", "));
        }
        println!();
    }
}

/// Paper Table 3, plus its Ramanujan Case 1 footnote: a Case 1 graph
/// with identical parameters has identical simulated c_max.
fn table3_distortion() {
    let mols = MolsAssignment::new(5, 3).expect("valid parameters").build();
    let rows = distortion_table(
        "Table 3: distortion fraction, MOLS (15, 25, 5, 3)",
        &mols,
        2..=7,
    );

    let ram = RamanujanAssignment::new(3, 5)
        .expect("valid parameters")
        .build();
    print!("Ramanujan Case 1 with identical parameters: c_max = ");
    let mut all_match = true;
    for row in &rows {
        let c = cmax_auto(&ram, row.q);
        print!("{} ", c.value);
        all_match &= c.value == row.cmax.value;
    }
    println!();
    println!(
        "identical to the MOLS values: {}",
        if all_match {
            "yes ✓ (as the paper observes)"
        } else {
            "NO"
        }
    );
}

/// Paper Figure 12: per-iteration time split into computation /
/// communication / aggregation for baseline median, ByzShield and DETOX
/// median-of-means (the ALIE, q = 3, K = 25 setup), from two sources: the
/// calibrated [`CostModel`] at the EC2 cluster's geometry, and measured
/// gradient times of this repo's `FastMlp` on the synthetic task.
fn fig12_iteration_time() {
    println!("Figure 12: per-iteration time estimate (ALIE attack, median defenses, q = 3)\n");

    let model = CostModel::default();
    let byzshield = RamanujanAssignment::new(5, 5).expect("valid").build();
    let detox = FrcAssignment::new(25, 5).expect("valid").build();
    let baseline = FrcAssignment::new(25, 1).expect("valid").build();

    let base = model.estimate_baseline(25, 750, 1.0);
    let bs = model.estimate(&byzshield, 750, 25, 1.0);
    let dx = model.estimate(&detox, 750, 5, 1.0);

    println!("cost model (ResNet-18-sized, EC2-like constants), seconds per iteration:");
    println!(
        "{:>14} | {:>12} | {:>14} | {:>12} | {:>8}",
        "scheme", "computation", "communication", "aggregation", "total"
    );
    for (name, est) in [("Median", base), ("ByzShield", bs), ("DETOX-MoM", dx)] {
        println!(
            "{:>14} | {:>12.3} | {:>14.3} | {:>12.3} | {:>8.3}",
            name,
            est.computation.as_secs_f64(),
            est.communication.as_secs_f64(),
            est.aggregation.as_secs_f64(),
            est.total().as_secs_f64()
        );
    }
    println!(
        "\npaper's measured full-training times: Median 3.14 h, ByzShield 10.81 h, \
         DETOX-MoM 4 h → ratios 1 : 3.4 : 1.3"
    );
    let ratio_bs = bs.total().as_secs_f64() / base.total().as_secs_f64();
    let ratio_dx = dx.total().as_secs_f64() / base.total().as_secs_f64();
    println!("model's ratios: 1 : {ratio_bs:.1} : {ratio_dx:.1}\n");

    // Every worker computes each of its `l` files, as a deployed worker
    // does: K·l = f·r gradients a round, the slowest worker bounding it.
    println!("measured on this simulator (synthetic task, one computation round):");
    let (train, _) = experiments::standard_dataset(7);
    let mut rng = StdRng::seed_from_u64(1);
    let sample_len: usize = train.item_shape().iter().product();
    let net = FastMlp::new(&[sample_len, 64, 10], &mut rng);
    let file_gradient = |samples: &[usize]| {
        let (x, labels) = train.gather(samples);
        net.gradient_sum(&x, samples.len(), &labels)
    };
    // Untimed: spawns the kernel pool and sizes the scratch buffers.
    std::hint::black_box(file_gradient(&[0]));

    for (name, assignment) in [
        ("Median (r = 1)", baseline),
        ("ByzShield", byzshield),
        ("DETOX-MoM", detox),
    ] {
        let per_file = 300 / assignment.num_files();
        let mut gradients = 0usize;
        let start = Instant::now();
        let slowest: Duration = (0..assignment.num_workers())
            .map(|worker| {
                let start = Instant::now();
                for &file in assignment.graph().files_of(worker) {
                    let samples: Vec<usize> = (file * per_file..(file + 1) * per_file).collect();
                    std::hint::black_box(file_gradient(&samples));
                    gradients += 1;
                }
                start.elapsed()
            })
            .max()
            .expect("cluster has workers");
        println!(
            "{:>16}: round {:>8.1?} (slowest worker {:>8.1?}, {} replica gradients)",
            name,
            start.elapsed(),
            slowest,
            gradients,
        );
    }
}

/// Ablation: the assignment graph is the load-bearing design choice.
/// Holds (K, f, l, r) = (15, 25, 5, 3) fixed and swaps only the
/// placement, then reports worst-case ε̂ per q. The FRC row uses its own
/// geometry (f = 5) because grouping is what it is; its ε̂ column is the
/// comparable metric.
fn ablation_assignment() {
    println!("Ablation: placement scheme at (K, f, l, r) = (15, 25, 5, 3)\n");
    let mols = MolsAssignment::new(5, 3).expect("valid").build();
    let ram = RamanujanAssignment::new(3, 5).expect("valid").build();
    let mut rng = StdRng::seed_from_u64(17);
    let random = RandomAssignment::new(15, 25, 3)
        .expect("valid")
        .build(&mut rng);
    let frc = FrcAssignment::with_files_per_group(15, 3, 5)
        .expect("valid")
        .build();

    println!(
        "{:>3} | {:>6} {:>12} {:>8} {:>6}",
        "q", "MOLS", "Ramanujan-1", "Random", "FRC"
    );
    println!("{}", "-".repeat(44));
    for q in 2..=7 {
        let frc_res = cmax_auto(&frc, q);
        println!(
            "{:>3} | {:>6.2} {:>12.2} {:>8.2} {:>6.2}",
            q,
            cmax_auto(&mols, q).epsilon_hat(25),
            cmax_auto(&ram, q).epsilon_hat(25),
            cmax_auto(&random, q).epsilon_hat(25),
            frc_res.epsilon_hat(frc.num_files()),
        );
    }

    println!("\nspectral gaps (µ₁ of AAᵀ; smaller = better expansion):");
    for (name, a) in [
        ("MOLS", &mols),
        ("Ramanujan-1", &ram),
        ("Random", &random),
        ("FRC", &frc),
    ] {
        println!(
            "  {:>12}: µ₁ = {:.4}",
            name,
            a.second_eigenvalue().expect("biregular")
        );
    }
    println!("\nMOLS/Ramanujan achieve the optimal µ₁ = 1/r; FRC's disconnected");
    println!("groups have no spectral gap (µ₁ = 1), which is exactly why the");
    println!("omniscient attacker defeats them (DESIGN.md §7).");
}

/// Ablation: how much does the adversary's knowledge matter? DETOX's
/// guarantees assume a RANDOM Byzantine set; the paper's point is that an
/// omniscient set defeats the same placement. Same FRC placement, same
/// attack, only the selection strategy changes.
fn ablation_attacker_knowledge() {
    // Part 1: expected distorted fraction, random vs omniscient, on FRC.
    let frc = FrcAssignment::new(25, 5).expect("valid").build();
    println!("FRC (K = 25, r = 5): distorted vote-group fraction by selection strategy\n");
    println!("{:>3} | {:>10} | {:>10}", "q", "random(avg)", "omniscient");
    println!("{}", "-".repeat(32));
    for q in [3usize, 6, 9, 12] {
        let sel = ByzantineSelector::Random { seed: 7 };
        let trials = 200;
        let avg: f64 = (0..trials)
            .map(|t| count_distorted(&frc, &sel.select(&frc, q, t)) as f64)
            .sum::<f64>()
            / trials as f64;
        let omn = count_distorted(&frc, &ByzantineSelector::Omniscient.select(&frc, q, 0));
        println!(
            "{:>3} | {:>10.2} | {:>10.2}",
            q,
            avg / frc.num_files() as f64,
            omn as f64 / frc.num_files() as f64
        );
    }
    println!();

    // Part 2: end-to-end accuracy under both adversaries (DETOX-MoM, q = 9).
    let spec = |selector| ExperimentSpec {
        selector,
        ..ExperimentSpec::new(
            SchemeSpec::Detox,
            AggregatorKind::MedianOfMeans,
            ClusterSize::K25,
            AttackKind::ReversedGradient,
            9,
        )
    };
    run_figure(
        "ablation_attacker_knowledge",
        "DETOX-MoM under random vs omniscient Byzantine selection (revgrad, q = 9)",
        vec![spec(SelectorKind::Random), spec(SelectorKind::Omniscient)],
    );
}

/// Ablation: the redundancy factor r. Higher r means fewer distortable
/// files (majority threshold rises) but r× compute; this sweep quantifies
/// the robustness/cost trade-off for MOLS degree l = 7 with r ∈ {3, 5}.
fn ablation_redundancy() {
    println!("Ablation: replication factor r (MOLS, l = 7, f = 49)\n");
    for r in [3usize, 5] {
        let a = MolsAssignment::new(7, r).expect("valid").build();
        println!(
            "r = {r}: K = {}, load = {}, majority threshold r' = {}",
            a.num_workers(),
            a.load(),
            a.majority_threshold()
        );
        print!("  ε̂ by q: ");
        for q in 2..=8 {
            let res = cmax_branch_and_bound(&a, q, DEFAULT_NODE_LIMIT);
            print!(
                "q{q}={:.2}{} ",
                res.epsilon_hat(49),
                if res.exact { "" } else { "*" }
            );
        }
        println!();
        let est = CostModel::default().estimate(&a, 735, 49, 1.0);
        println!(
            "  modelled iteration time: compute {:.3}s, comm {:.3}s, agg {:.3}s (total {:.3}s)\n",
            est.computation.as_secs_f64(),
            est.communication.as_secs_f64(),
            est.aggregation.as_secs_f64(),
            est.total().as_secs_f64()
        );
    }
    println!("(* = branch-and-bound hit its node budget; value is a greedy lower bound)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_id_has_an_experiment_and_nothing_else_does() {
        assert!(IDS.iter().all(|id| experiment(id).is_some()));
        let mut unique = IDS.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), IDS.len());
        assert!(experiment("fig13_nope").is_none() && experiment("list").is_none());
    }
}

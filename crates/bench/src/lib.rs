//! Shared helpers of the `repro` binary, which regenerates every table
//! and figure of the paper's evaluation (`repro list`; DESIGN.md §5 has
//! the index). It prints the same rows/series the paper reports and, for
//! figures, also writes CSV files under `bench_results/` for external
//! plotting. The criterion micro-benches under `benches/` time product
//! functions directly; end-to-end performance lives in `benchmark/`.

mod chart;

pub use chart::render_ascii_chart;

use byz_assign::Assignment;
use byz_distortion::{
    baseline_epsilon, cmax_branch_and_bound, frc_epsilon, CmaxResult, DEFAULT_NODE_LIMIT,
};
use byzshield::prelude::{experiments, Curve, ExperimentSpec};
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Number of training iterations figures run by default; override
/// with the `BYZ_ITERS` environment variable (the paper uses ~1000, which
/// works too but takes proportionally longer).
pub fn figure_iterations() -> usize {
    std::env::var("BYZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

/// Evaluation cadence for figure curves.
pub fn figure_eval_every() -> usize {
    std::env::var("BYZ_EVAL_EVERY")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20)
}

/// One row of a distortion table (Tables 3–6).
pub struct DistortionRow {
    /// Number of Byzantine workers.
    pub q: usize,
    /// Simulated `c_max(q)`.
    pub cmax: CmaxResult,
    /// ByzShield distortion fraction.
    pub epsilon_byzshield: f64,
    /// Baseline fraction `q/K`.
    pub epsilon_baseline: f64,
    /// Worst-case FRC fraction.
    pub epsilon_frc: f64,
    /// The spectral upper bound γ.
    pub gamma: f64,
}

/// Computes and prints one of the paper's distortion tables for the given
/// assignment and q range, returning the rows for further checks.
pub fn distortion_table(
    title: &str,
    assignment: &Assignment,
    q_range: impl IntoIterator<Item = usize>,
) -> Vec<DistortionRow> {
    println!("{title}");
    println!(
        "(K, f, l, r) = ({}, {}, {}, {})",
        assignment.num_workers(),
        assignment.num_files(),
        assignment.load(),
        assignment.replication()
    );
    println!(
        "{:>3} | {:>6} | {:>11} | {:>10} | {:>7} | {:>7} | exact",
        "q", "c_max", "ε̂-ByzShield", "ε̂-Baseline", "ε̂-FRC", "γ"
    );
    println!("{}", "-".repeat(66));
    let f = assignment.num_files() as f64;
    let k = assignment.num_workers();
    let r = assignment.replication();
    let mut rows = Vec::new();
    for q in q_range {
        let cmax = cmax_branch_and_bound(assignment, q, DEFAULT_NODE_LIMIT);
        let row = DistortionRow {
            q,
            epsilon_byzshield: cmax.value as f64 / f,
            epsilon_baseline: baseline_epsilon(q, k),
            epsilon_frc: frc_epsilon(q, r, k),
            gamma: assignment
                .expansion_bound(q)
                .expect("biregular assignment")
                .gamma(),
            cmax,
        };
        println!(
            "{:>3} | {:>6} | {:>11.2} | {:>10.2} | {:>7.2} | {:>7.2} | {}",
            row.q,
            row.cmax.value,
            row.epsilon_byzshield,
            row.epsilon_baseline,
            row.epsilon_frc,
            row.gamma,
            if row.cmax.exact {
                "yes"
            } else {
                "no (lower bound)"
            },
        );
        rows.push(row);
    }
    println!();
    rows
}

/// Runs a figure's experiment specs, prints the accuracy series the way
/// the paper plots them, and writes `bench_results/<name>.csv`.
pub fn run_figure(name: &str, description: &str, specs: Vec<ExperimentSpec>) -> Vec<Curve> {
    println!("{name}: {description}");
    println!(
        "(iterations = {}, eval every {}; set BYZ_ITERS / BYZ_EVAL_EVERY to change)\n",
        figure_iterations(),
        figure_eval_every()
    );
    let mut curves = Vec::with_capacity(specs.len());
    for mut spec in specs {
        spec.iterations = figure_iterations();
        spec.eval_every = figure_eval_every();
        let curve = experiments::run_experiment(&spec);
        match &curve.error {
            Some(err) => println!("  {:<28} INAPPLICABLE: {err}", curve.label),
            None => println!(
                "  {:<28} mean ε̂ = {:.2}, final accuracy = {:5.1}%",
                curve.label,
                curve.mean_epsilon_hat,
                curve.points.last().map_or(f64::NAN, |p| 100.0 * p.accuracy),
            ),
        }
        curves.push(curve);
    }

    // Aligned table of the curves.
    let runnable: Vec<&Curve> = curves.iter().filter(|c| c.error.is_none()).collect();
    if let Some(first) = runnable.first() {
        println!("\n{:>6}", "iter");
        let mut header = format!("{:>6}", "iter");
        for c in &runnable {
            header.push_str(&format!(" | {:>24}", c.label));
        }
        println!("{header}");
        for (row, point) in first.points.iter().enumerate() {
            let mut line = format!("{:>6}", point.iteration);
            for c in &runnable {
                match c.points.get(row) {
                    Some(p) => line.push_str(&format!(" | {:>23.1}%", 100.0 * p.accuracy)),
                    None => line.push_str(&format!(" | {:>24}", "-")),
                }
            }
            println!("{line}");
        }
    }

    // The figure itself, as ASCII (the paper's plots, roughly).
    println!("\n{}", render_ascii_chart(&curves, 72, 18));

    write_csv(name, &curves);
    curves
}

/// Writes the curves of a figure as CSV under `bench_results/`.
pub fn write_csv(name: &str, curves: &[Curve]) {
    let dir = PathBuf::from("bench_results");
    if fs::create_dir_all(&dir).is_err() {
        return; // best-effort; printing is the primary output
    }
    let path = dir.join(format!("{name}.csv"));
    let Ok(mut file) = fs::File::create(&path) else {
        return;
    };
    let _ = writeln!(file, "label,iteration,accuracy");
    for c in curves {
        for p in &c.points {
            let _ = writeln!(file, "{},{},{}", c.label, p.iteration, p.accuracy);
        }
    }
    println!("\n(series written to {})", path.display());
}

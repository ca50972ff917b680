//! Shared infrastructure for the figure-regeneration harnesses.
//!
//! Every binary in `src/bin/` regenerates one figure of the paper: it sweeps
//! the same parameter grid, prints the measured (simulated) and predicted
//! series, and summarises the headline comparison the paper draws from that
//! figure. The helpers here provide deterministic input generation, a
//! simulation-budget guard (the full 512×512-PE wafer is beyond what a
//! cycle-level simulator can sweep on one core — those points are reported
//! from the validated model instead, see DESIGN.md), and a small parallel
//! sweep runner.

use std::collections::VecDeque;
use std::sync::Mutex;

use wse_collectives::prelude::*;
use wse_collectives::runner::expected_reduce;
use wse_collectives::RunOutcome;
use wse_fabric::program::ReduceOp;

/// Default budget on `predicted cycles × PEs` above which a configuration is
/// not simulated (the model prediction is reported instead).
pub const DEFAULT_SIM_BUDGET: f64 = 4.0e7;

/// Budget used when `--paper` is passed: substantially larger, for overnight
/// full-scale runs.
pub const PAPER_SIM_BUDGET: f64 = 2.0e9;

/// Command-line options shared by all harnesses.
#[derive(Debug, Clone, Copy)]
pub struct HarnessOptions {
    /// Maximum `predicted cycles × PEs` product that is still simulated.
    pub sim_budget: f64,
}

impl HarnessOptions {
    /// Parse the (tiny) shared command line: `--paper` raises the simulation
    /// budget, `--quick` lowers it.
    pub fn from_args() -> Self {
        let mut budget = DEFAULT_SIM_BUDGET;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--paper" => budget = PAPER_SIM_BUDGET,
                "--quick" => budget = 2.0e6,
                other => {
                    eprintln!("ignoring unknown argument {other:?} (supported: --paper, --quick)")
                }
            }
        }
        HarnessOptions { sim_budget: budget }
    }

    /// Whether a configuration with the given predicted cycle count and PE
    /// count fits in the simulation budget.
    pub fn within_budget(&self, predicted_cycles: f64, pes: u64) -> bool {
        predicted_cycles * pes as f64 <= self.sim_budget
    }
}

/// Deterministic per-PE input vectors (the values the paper's benchmarks use
/// are irrelevant for timing; these are chosen so result checking catches
/// ordering mistakes).
pub fn make_inputs(pes: usize, vector_len: usize) -> Vec<Vec<f32>> {
    (0..pes)
        .map(|i| (0..vector_len).map(|j| ((i * 31 + j * 7) % 113) as f32 * 0.03125 + 0.5).collect())
        .collect()
}

/// Run a plan on the simulator, verify the Reduce/AllReduce result and
/// return the measured runtime in cycles.
pub fn simulate_plan(plan: &CollectivePlan, op: ReduceOp) -> u64 {
    let inputs = make_inputs(plan.data_pes().len(), plan.vector_len() as usize);
    let outcome = run_plan(plan, &inputs, &RunConfig::default())
        .unwrap_or_else(|e| panic!("plan {} failed: {e}", plan.name()));
    verify_against_reference(plan, &inputs, &outcome, op);
    outcome.runtime_cycles()
}

fn verify_against_reference(
    plan: &CollectivePlan,
    inputs: &[Vec<f32>],
    outcome: &RunOutcome,
    op: ReduceOp,
) {
    let expected = expected_reduce(inputs, op);
    let tolerance = 1e-3;
    for (at, output) in &outcome.outputs {
        let err = wse_collectives::max_relative_error(output, &expected);
        assert!(
            err <= tolerance,
            "plan {} produced a wrong result at {at} (relative error {err})",
            plan.name()
        );
    }
}

/// A single cell of a printed sweep: measured (if simulated) and predicted
/// runtimes in cycles.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Simulated runtime in cycles, if the configuration fit in the budget.
    pub measured_cycles: Option<f64>,
    /// Model-predicted runtime in cycles.
    pub predicted_cycles: f64,
}

impl Cell {
    /// The value used for figure output: measured when available, predicted
    /// otherwise.
    pub fn best_estimate(&self) -> f64 {
        self.measured_cycles.unwrap_or(self.predicted_cycles)
    }

    /// Relative model error (|measured − predicted| / measured), if measured.
    pub fn relative_error(&self) -> Option<f64> {
        self.measured_cycles.map(|m| (m - self.predicted_cycles).abs() / m.max(1.0))
    }
}

/// Format a cycles value as microseconds at the CS-2 clock (850 MHz), the
/// unit of the paper's y-axes.
pub fn cycles_to_us(cycles: f64) -> f64 {
    Machine::wse2().cycles_to_us(cycles)
}

/// Print a table header followed by rows; purely cosmetic, but keeps the six
/// harnesses visually consistent.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("{}", header.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
}

/// Summary statistics of model accuracy over a set of cells.
pub fn error_summary(cells: &[Cell]) -> Option<(f64, f64)> {
    let errors: Vec<f64> = cells.iter().filter_map(Cell::relative_error).collect();
    if errors.is_empty() {
        return None;
    }
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    let max = errors.iter().cloned().fold(0.0, f64::max);
    Some((mean, max))
}

/// Run `jobs` closures on a small worker pool (one worker per core) and
/// collect their results in order.
pub fn parallel_sweep<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let queue: Mutex<VecDeque<(usize, F)>> = Mutex::new(jobs.into_iter().enumerate().collect());
    let results: Mutex<Vec<Option<T>>> = {
        let len = queue.lock().unwrap().len();
        Mutex::new((0..len).map(|_| None).collect())
    };
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let Some((index, job)) = queue.lock().unwrap().pop_front() else {
                    break;
                };
                let value = job();
                results.lock().unwrap()[index] = Some(value);
            });
        }
    });
    results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|v| v.expect("every sweep job produces a result"))
        .collect()
}

/// Measured + predicted runtime of a 1D Broadcast on `p` PEs.
pub fn broadcast_1d_cell(p: u32, b: u32, opts: &HarnessOptions, machine: &Machine) -> Cell {
    let predicted = wse_model::costs_1d::broadcast(p as u64, b as u64).predict(machine);
    let measured = if opts.within_budget(predicted, p as u64) {
        let path = LinePath::row(GridDim::row(p), 0);
        let plan = flood_broadcast_plan(&path, b, wse_fabric::wavelet::Color::new(0));
        let inputs = make_inputs(1, b as usize);
        let outcome = run_plan(&plan, &inputs, &RunConfig::default()).expect("broadcast runs");
        Some(outcome.runtime_cycles() as f64)
    } else {
        None
    };
    Cell { measured_cycles: measured, predicted_cycles: predicted }
}

/// Measured + predicted runtime of a 1D Reduce with the given pattern.
pub fn reduce_1d_cell(
    pattern: ReducePattern,
    p: u32,
    b: u32,
    opts: &HarnessOptions,
    machine: &Machine,
) -> Cell {
    let predicted = predict_reduce_1d(pattern, p, b, machine);
    let measured = if opts.within_budget(predicted, p as u64) {
        let plan = reduce_1d_plan(pattern, p, b, ReduceOp::Sum, machine);
        Some(simulate_plan(&plan, ReduceOp::Sum) as f64)
    } else {
        None
    };
    Cell { measured_cycles: measured, predicted_cycles: predicted }
}

/// Measured + predicted runtime of a 1D AllReduce (Reduce+Bcast or Ring).
pub fn allreduce_1d_cell(
    pattern: AllReducePattern,
    p: u32,
    b: u32,
    opts: &HarnessOptions,
    machine: &Machine,
) -> Cell {
    let predicted = match pattern {
        AllReducePattern::ReduceBroadcast(inner) => wse_model::costs_1d::reduce_then_broadcast(
            predict_reduce_1d(inner, p, b, machine),
            p as u64,
            b as u64,
            machine,
        ),
        AllReducePattern::Ring => {
            wse_model::costs_1d::ring_allreduce(p as u64, b as u64).predict(machine)
        }
    };
    let simulatable = match pattern {
        AllReducePattern::Ring => b.is_multiple_of(p),
        _ => true,
    };
    let measured = if simulatable && opts.within_budget(predicted, p as u64) {
        let plan = match pattern {
            AllReducePattern::ReduceBroadcast(inner) => allreduce_1d_plan(
                AllReducePattern::ReduceBroadcast(inner),
                p,
                b,
                ReduceOp::Sum,
                machine,
            ),
            AllReducePattern::Ring => {
                allreduce_1d_plan(AllReducePattern::Ring, p, b, ReduceOp::Sum, machine)
            }
        };
        Some(simulate_plan(&plan, ReduceOp::Sum) as f64)
    } else {
        None
    };
    Cell { measured_cycles: measured, predicted_cycles: predicted }
}

/// Measured + predicted runtime of a 2D Reduce over a `side × side` grid.
pub fn reduce_2d_cell(
    pattern: Reduce2dPattern,
    side: u32,
    b: u32,
    opts: &HarnessOptions,
    machine: &Machine,
) -> Cell {
    let predicted = predict_reduce_2d(pattern, side, b, machine);
    let pes = side as u64 * side as u64;
    let measured = if opts.within_budget(predicted, pes) {
        let dim = GridDim::new(side, side);
        let plan = reduce_2d_plan(pattern, dim, b, ReduceOp::Sum, machine);
        Some(simulate_plan(&plan, ReduceOp::Sum) as f64)
    } else {
        None
    };
    Cell { measured_cycles: measured, predicted_cycles: predicted }
}

/// Measured + predicted runtime of a 2D AllReduce (Reduce + 2D Broadcast).
pub fn allreduce_2d_cell(
    pattern: Reduce2dPattern,
    side: u32,
    b: u32,
    opts: &HarnessOptions,
    machine: &Machine,
) -> Cell {
    let reduce_predicted = predict_reduce_2d(pattern, side, b, machine);
    let predicted = wse_model::costs_2d::reduce_then_broadcast_2d(
        reduce_predicted,
        side as u64,
        side as u64,
        b as u64,
        machine,
    );
    let pes = side as u64 * side as u64;
    let measured = if opts.within_budget(predicted, pes) {
        let dim = GridDim::new(side, side);
        let plan = allreduce_2d_plan(pattern, dim, b, ReduceOp::Sum, machine);
        Some(simulate_plan(&plan, ReduceOp::Sum) as f64)
    } else {
        None
    };
    Cell { measured_cycles: measured, predicted_cycles: predicted }
}

/// Model prediction for a 1D Reduce pattern (cycles).
pub fn predict_reduce_1d(pattern: ReducePattern, p: u32, b: u32, machine: &Machine) -> f64 {
    pattern.model_algorithm().cycles(p as u64, b as u64, machine, None)
}

/// Model prediction for a 2D Reduce pattern (cycles).
pub fn predict_reduce_2d(pattern: Reduce2dPattern, side: u32, b: u32, machine: &Machine) -> f64 {
    match pattern {
        Reduce2dPattern::Snake => {
            wse_model::costs_2d::snake_reduce(side as u64, side as u64, b as u64, machine)
        }
        Reduce2dPattern::Xy(inner) => 2.0 * predict_reduce_1d(inner, side, b, machine),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_deterministic_and_sized() {
        let a = make_inputs(4, 8);
        let b = make_inputs(4, 8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|v| v.len() == 8));
    }

    #[test]
    fn budget_gate_respects_product() {
        let opts = HarnessOptions { sim_budget: 1000.0 };
        assert!(opts.within_budget(10.0, 10));
        assert!(!opts.within_budget(10.0, 1000));
    }

    #[test]
    fn cell_prefers_measured_value() {
        let cell = Cell { measured_cycles: Some(110.0), predicted_cycles: 100.0 };
        assert_eq!(cell.best_estimate(), 110.0);
        assert!((cell.relative_error().unwrap() - 10.0 / 110.0).abs() < 1e-12);
        let model_only = Cell { measured_cycles: None, predicted_cycles: 42.0 };
        assert_eq!(model_only.best_estimate(), 42.0);
        assert!(model_only.relative_error().is_none());
    }

    #[test]
    fn parallel_sweep_preserves_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
            (0..16usize).map(|i| Box::new(move || i * i) as _).collect();
        let results = parallel_sweep(jobs);
        assert_eq!(results, (0..16usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn simulate_plan_checks_results() {
        let plan = reduce_1d_plan(ReducePattern::TwoPhase, 8, 16, ReduceOp::Sum, &Machine::wse2());
        let cycles = simulate_plan(&plan, ReduceOp::Sum);
        assert!(cycles > 0);
    }

    #[test]
    fn error_summary_aggregates() {
        let cells = vec![
            Cell { measured_cycles: Some(100.0), predicted_cycles: 90.0 },
            Cell { measured_cycles: Some(200.0), predicted_cycles: 220.0 },
            Cell { measured_cycles: None, predicted_cycles: 10.0 },
        ];
        let (mean, max) = error_summary(&cells).unwrap();
        assert!((mean - 0.1).abs() < 1e-9);
        assert!((max - 0.1).abs() < 1e-9);
    }
}

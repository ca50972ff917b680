//! Figure 13: 2D Reduce and AllReduce.
//!
//! * (a) 2D Reduce on 512×512 PEs for increasing vector length,
//! * (b) 2D AllReduce on 512×512 PEs for increasing vector length,
//! * (c) 2D Reduce at a fixed 1 KB vector for grids from 4×4 to 512×512.
//!
//! Cycle-level simulation of the full 262 144-PE wafer is outside this
//! harness's budget (see DESIGN.md); by default the 512×512 series are
//! model predictions, cross-validated against simulation at the grid sizes
//! that fit the budget (the `measured` rows of part (c) and any `--paper`
//! runs).

use wse_bench::*;
use wse_collectives::prelude::*;
use wse_model::{selection, sweep};

fn patterns() -> Vec<Reduce2dPattern> {
    vec![
        Reduce2dPattern::Xy(ReducePattern::Star),
        Reduce2dPattern::Xy(ReducePattern::Chain),
        Reduce2dPattern::Xy(ReducePattern::Tree),
        Reduce2dPattern::Xy(ReducePattern::TwoPhase),
        Reduce2dPattern::Xy(ReducePattern::AutoGen),
        Reduce2dPattern::Snake,
    ]
}

fn main() {
    let opts = HarnessOptions::from_args();
    let machine = Machine::wse2();
    let vector_bytes = sweep::figure11_vector_bytes();
    let side: u32 = 512;

    let header: Vec<String> = std::iter::once("series".to_string())
        .chain(vector_bytes.iter().map(|b| sweep::format_bytes(*b)))
        .collect();

    // ---------------------------------------------------------------- (a)
    let mut rows = Vec::new();
    let mut chain_series = Vec::new();
    let mut auto_series = Vec::new();
    for pattern in patterns() {
        let mut measured_row = vec![format!("measured {} (us)", pattern.name())];
        let mut predicted_row = vec![format!("predicted {} (us)", pattern.name())];
        for &bytes in &vector_bytes {
            let b = sweep::bytes_to_wavelets(bytes) as u32;
            let cell = reduce_2d_cell(pattern, side, b, &opts, &machine);
            measured_row.push(match cell.measured_cycles {
                Some(m) => format!("{:.3}", cycles_to_us(m)),
                None => "-".to_string(),
            });
            predicted_row.push(format!("{:.3}", cycles_to_us(cell.predicted_cycles)));
            if pattern == Reduce2dPattern::Xy(ReducePattern::Chain) {
                chain_series.push(cell.best_estimate());
            }
            if pattern == Reduce2dPattern::Xy(ReducePattern::AutoGen) {
                auto_series.push(cell.best_estimate());
            }
        }
        rows.push(measured_row);
        rows.push(predicted_row);
    }
    print_table(
        "Figure 13a: 2D Reduce on 512x512 PEs for increasing vector length (us)",
        &header,
        &rows,
    );
    let speedup = chain_series.iter().zip(&auto_series).map(|(c, a)| c / a).fold(0.0f64, f64::max);
    println!("largest X-Y Auto-Gen speedup over the vendor X-Y Chain: {speedup:.2}x (paper: up to 3.27x)");

    // ---------------------------------------------------------------- (b)
    let mut rows = Vec::new();
    let mut chain_series = Vec::new();
    let mut auto_series = Vec::new();
    for pattern in patterns() {
        let mut measured_row = vec![format!("measured {}+2D-Bcast (us)", pattern.name())];
        let mut predicted_row = vec![format!("predicted {}+2D-Bcast (us)", pattern.name())];
        for &bytes in &vector_bytes {
            let b = sweep::bytes_to_wavelets(bytes) as u32;
            let cell = allreduce_2d_cell(pattern, side, b, &opts, &machine);
            measured_row.push(match cell.measured_cycles {
                Some(m) => format!("{:.3}", cycles_to_us(m)),
                None => "-".to_string(),
            });
            predicted_row.push(format!("{:.3}", cycles_to_us(cell.predicted_cycles)));
            if pattern == Reduce2dPattern::Xy(ReducePattern::Chain) {
                chain_series.push(cell.best_estimate());
            }
            if pattern == Reduce2dPattern::Xy(ReducePattern::AutoGen) {
                auto_series.push(cell.best_estimate());
            }
        }
        rows.push(measured_row);
        rows.push(predicted_row);
    }
    // X-Y Ring (predicted only, as in the paper's Figure 13b legend).
    let mut ring_row = vec!["predicted X-Y Ring (us)".to_string()];
    for &bytes in &vector_bytes {
        let b = sweep::bytes_to_wavelets(bytes);
        ring_row.push(format!(
            "{:.3}",
            cycles_to_us(wse_model::costs_2d::xy_ring_allreduce(
                side as u64,
                side as u64,
                b,
                &machine
            ))
        ));
    }
    rows.push(ring_row);
    print_table(
        "Figure 13b: 2D AllReduce on 512x512 PEs for increasing vector length (us)",
        &header,
        &rows,
    );
    let speedup = chain_series.iter().zip(&auto_series).map(|(c, a)| c / a).fold(0.0f64, f64::max);
    println!(
        "largest X-Y Auto-Gen AllReduce speedup over X-Y Chain: {speedup:.2}x (paper: up to 2.54x)"
    );

    // ---------------------------------------------------------------- (c)
    let b = sweep::bytes_to_wavelets(sweep::FIXED_VECTOR_BYTES) as u32;
    let sides = sweep::figure13_grid_sides();
    let header: Vec<String> = std::iter::once("series".to_string())
        .chain(sides.iter().map(|s| format!("{s}x{s}")))
        .collect();
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for pattern in patterns() {
        let mut measured_row = vec![format!("measured {} (us)", pattern.name())];
        let mut predicted_row = vec![format!("predicted {} (us)", pattern.name())];
        for &s in &sides {
            let cell = reduce_2d_cell(pattern, s as u32, b, &opts, &machine);
            measured_row.push(match cell.measured_cycles {
                Some(m) => format!("{:.3}", cycles_to_us(m)),
                None => "-".to_string(),
            });
            predicted_row.push(format!("{:.3}", cycles_to_us(cell.predicted_cycles)));
            cells.push(cell);
        }
        rows.push(measured_row);
        rows.push(predicted_row);
    }
    print_table("Figure 13c: 2D Reduce at 1 KB for increasing grid size (us)", &header, &rows);
    if let Some((mean, max)) = error_summary(&cells) {
        println!(
            "model error (simulated grid sizes): mean {:.1}% / max {:.1}%",
            mean * 100.0,
            max * 100.0
        );
    }

    // Best-algorithm transitions along the grid-size axis (paper §8.7:
    // Snake -> X-Y Chain -> X-Y Two Phase).
    println!("\nbest fixed 2D Reduce per grid size at 1 KB:");
    for &s in &sides {
        let best = selection::best_fixed_reduce_2d(s, s, b as u64, &machine);
        println!("  {s}x{s}: {}", best.algorithm.name());
    }
}

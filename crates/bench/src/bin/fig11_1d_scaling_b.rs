//! Figure 11: 1D Broadcast (a), Reduce (b) and AllReduce (c) on a row of
//! 512×1 PEs for increasing vector length (4 B … 16 KB), measured on the
//! fabric simulator and predicted by the performance model.
//!
//! By default configurations whose simulation would exceed the cycle budget
//! (notably the Star pattern at long vectors, whose runtime is `B·(P-1)`)
//! are reported from the model only; pass `--paper` to simulate everything.

use wse_bench::*;
use wse_collectives::prelude::*;
use wse_model::{costs_1d, sweep};

fn main() {
    let opts = HarnessOptions::from_args();
    let machine = Machine::wse2();
    let p: u32 = 512;
    let vector_bytes = sweep::figure11_vector_bytes();

    let header: Vec<String> = std::iter::once("series".to_string())
        .chain(vector_bytes.iter().map(|b| sweep::format_bytes(*b)))
        .collect();

    // ---------------------------------------------------------------- (a)
    let mut rows = Vec::new();
    let mut bcast_cells = Vec::new();
    let mut measured_row = vec!["measured broadcast (us)".to_string()];
    let mut predicted_row = vec!["predicted broadcast (us)".to_string()];
    for &bytes in &vector_bytes {
        let b = sweep::bytes_to_wavelets(bytes) as u32;
        let cell = broadcast_1d_cell(p, b, &opts, &machine);
        measured_row.push(match cell.measured_cycles {
            Some(m) => format!("{:.3}", cycles_to_us(m)),
            None => "-".to_string(),
        });
        predicted_row.push(format!("{:.3}", cycles_to_us(cell.predicted_cycles)));
        bcast_cells.push(cell);
    }
    rows.push(measured_row);
    rows.push(predicted_row);
    print_table("Figure 11a: 1D Broadcast on 512x1 PEs (runtime in us)", &header, &rows);
    if let Some((mean, max)) = error_summary(&bcast_cells) {
        println!(
            "model error: mean {:.1}% / max {:.1}% (paper: <= 21%)",
            mean * 100.0,
            max * 100.0
        );
    }

    // ---------------------------------------------------------------- (b)
    let patterns = [
        ReducePattern::Star,
        ReducePattern::Chain,
        ReducePattern::Tree,
        ReducePattern::TwoPhase,
        ReducePattern::AutoGen,
    ];
    let mut rows = Vec::new();
    let mut all_cells = Vec::new();
    let mut per_pattern: Vec<Vec<Cell>> = Vec::new();
    for pattern in patterns {
        let mut measured_row = vec![format!("measured {} (us)", pattern.name())];
        let mut predicted_row = vec![format!("predicted {} (us)", pattern.name())];
        let mut cells = Vec::new();
        for &bytes in &vector_bytes {
            let b = sweep::bytes_to_wavelets(bytes) as u32;
            let cell = reduce_1d_cell(pattern, p, b, &opts, &machine);
            measured_row.push(match cell.measured_cycles {
                Some(m) => format!("{:.3}", cycles_to_us(m)),
                None => "-".to_string(),
            });
            predicted_row.push(format!("{:.3}", cycles_to_us(cell.predicted_cycles)));
            all_cells.push(cell);
            cells.push(cell);
        }
        rows.push(measured_row);
        rows.push(predicted_row);
        per_pattern.push(cells);
    }
    print_table(
        "Figure 11b: 1D Reduce on 512x1 PEs for increasing vector length (runtime in us)",
        &header,
        &rows,
    );
    if let Some((mean, max)) = error_summary(&all_cells) {
        println!(
            "model error over all patterns: mean {:.1}% / max {:.1}% (paper: 12%-35% mean per pattern)",
            mean * 100.0,
            max * 100.0
        );
    }
    let chain_idx = patterns.iter().position(|p| *p == ReducePattern::Chain).unwrap();
    let auto_idx = patterns.iter().position(|p| *p == ReducePattern::AutoGen).unwrap();
    let speedup = per_pattern[chain_idx]
        .iter()
        .zip(&per_pattern[auto_idx])
        .map(|(c, a)| c.best_estimate() / a.best_estimate())
        .fold(0.0, f64::max);
    println!("largest Auto-Gen speedup over the vendor Chain: {speedup:.2}x (paper: up to 3.16x)");

    // ---------------------------------------------------------------- (c)
    let mut rows = Vec::new();
    let mut ar_cells = Vec::new();
    let mut chain_row_best: Vec<f64> = Vec::new();
    let mut auto_row_best: Vec<f64> = Vec::new();
    for pattern in patterns {
        let mut measured_row = vec![format!("measured {}+Bcast (us)", pattern.name())];
        let mut predicted_row = vec![format!("predicted {}+Bcast (us)", pattern.name())];
        for &bytes in &vector_bytes {
            let b = sweep::bytes_to_wavelets(bytes) as u32;
            let cell = allreduce_1d_cell(
                AllReducePattern::ReduceBroadcast(pattern),
                p,
                b,
                &opts,
                &machine,
            );
            measured_row.push(match cell.measured_cycles {
                Some(m) => format!("{:.3}", cycles_to_us(m)),
                None => "-".to_string(),
            });
            predicted_row.push(format!("{:.3}", cycles_to_us(cell.predicted_cycles)));
            if pattern == ReducePattern::Chain {
                chain_row_best.push(cell.best_estimate());
            }
            if pattern == ReducePattern::AutoGen {
                auto_row_best.push(cell.best_estimate());
            }
            ar_cells.push(cell);
        }
        rows.push(measured_row);
        rows.push(predicted_row);
    }
    // Predicted-only series: Ring and Butterfly (the paper plots their
    // predictions and concludes they are never the best choice, §8.6).
    let mut ring_row = vec!["predicted Ring (us)".to_string()];
    let mut butterfly_row = vec!["predicted Butterfly (us)".to_string()];
    for &bytes in &vector_bytes {
        let b = sweep::bytes_to_wavelets(bytes);
        ring_row.push(format!(
            "{:.3}",
            cycles_to_us(costs_1d::ring_allreduce(p as u64, b).predict(&machine))
        ));
        butterfly_row.push(format!(
            "{:.3}",
            cycles_to_us(costs_1d::butterfly_allreduce(p as u64, b).predict(&machine))
        ));
    }
    rows.push(ring_row);
    rows.push(butterfly_row);
    print_table(
        "Figure 11c: 1D AllReduce on 512x1 PEs for increasing vector length (runtime in us)",
        &header,
        &rows,
    );
    if let Some((mean, max)) = error_summary(&ar_cells) {
        println!("model error: mean {:.1}% / max {:.1}%", mean * 100.0, max * 100.0);
    }
    let speedup = chain_row_best.iter().zip(&auto_row_best).map(|(c, a)| c / a).fold(0.0, f64::max);
    println!(
        "largest Auto-Gen AllReduce speedup over Chain+Bcast: {speedup:.2}x (paper: up to 2.47x)"
    );
}

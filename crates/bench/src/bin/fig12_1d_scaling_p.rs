//! Figure 12: 1D Broadcast (a), Reduce (b) and AllReduce (c) for a fixed
//! vector length of 1 KB (256 f32 values) and an increasing number of PEs
//! (4×1 … 512×1), measured on the simulator and predicted by the model.

use wse_bench::*;
use wse_collectives::prelude::*;
use wse_model::{costs_1d, sweep};

fn main() {
    let opts = HarnessOptions::from_args();
    let machine = Machine::wse2();
    let b = sweep::bytes_to_wavelets(sweep::FIXED_VECTOR_BYTES) as u32;
    let pe_counts = sweep::figure12_pe_counts();

    let header: Vec<String> = std::iter::once("series".to_string())
        .chain(pe_counts.iter().map(|p| format!("{p}x1")))
        .collect();

    // ---------------------------------------------------------------- (a)
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let mut measured_row = vec!["measured broadcast (us)".to_string()];
    let mut predicted_row = vec!["predicted broadcast (us)".to_string()];
    for &p in &pe_counts {
        let cell = broadcast_1d_cell(p as u32, b, &opts, &machine);
        measured_row.push(match cell.measured_cycles {
            Some(m) => format!("{:.3}", cycles_to_us(m)),
            None => "-".to_string(),
        });
        predicted_row.push(format!("{:.3}", cycles_to_us(cell.predicted_cycles)));
        cells.push(cell);
    }
    rows.push(measured_row);
    rows.push(predicted_row);
    print_table("Figure 12a: 1D Broadcast at 1 KB for increasing PE count (us)", &header, &rows);
    if let Some((mean, max)) = error_summary(&cells) {
        println!(
            "model error: mean {:.1}% / max {:.1}% (paper: 8%-21%)",
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
    let mut cells = Vec::new();
    let mut best_fixed: Vec<f64> = vec![f64::INFINITY; pe_counts.len()];
    let mut auto_best: Vec<f64> = vec![f64::INFINITY; pe_counts.len()];
    for pattern in patterns {
        let mut measured_row = vec![format!("measured {} (us)", pattern.name())];
        let mut predicted_row = vec![format!("predicted {} (us)", pattern.name())];
        for (i, &p) in pe_counts.iter().enumerate() {
            let cell = reduce_1d_cell(pattern, p as u32, b, &opts, &machine);
            measured_row.push(match cell.measured_cycles {
                Some(m) => format!("{:.3}", cycles_to_us(m)),
                None => "-".to_string(),
            });
            predicted_row.push(format!("{:.3}", cycles_to_us(cell.predicted_cycles)));
            if pattern == ReducePattern::AutoGen {
                auto_best[i] = cell.best_estimate();
            } else {
                best_fixed[i] = best_fixed[i].min(cell.best_estimate());
            }
            cells.push(cell);
        }
        rows.push(measured_row);
        rows.push(predicted_row);
    }
    print_table("Figure 12b: 1D Reduce at 1 KB for increasing PE count (us)", &header, &rows);
    if let Some((mean, max)) = error_summary(&cells) {
        println!(
            "model error: mean {:.1}% / max {:.1}% (paper: 13%-28% mean per pattern)",
            mean * 100.0,
            max * 100.0
        );
    }
    let worst = auto_best.iter().zip(&best_fixed).map(|(a, f)| a / f).fold(0.0f64, f64::max);
    println!(
        "Auto-Gen vs best fixed pattern across PE counts: never more than {:.2}x slower \
         (the paper finds Auto-Gen fastest throughout, with Two-Phase matching it from 64 PEs on)",
        worst
    );

    // ---------------------------------------------------------------- (c)
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for pattern in patterns {
        let mut measured_row = vec![format!("measured {}+Bcast (us)", pattern.name())];
        let mut predicted_row = vec![format!("predicted {}+Bcast (us)", pattern.name())];
        for &p in &pe_counts {
            let cell = allreduce_1d_cell(
                AllReducePattern::ReduceBroadcast(pattern),
                p as u32,
                b,
                &opts,
                &machine,
            );
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
    // Ring: predicted always, measured where the chunking divides evenly.
    let mut ring_measured = vec!["measured Ring (us)".to_string()];
    let mut ring_predicted = vec!["predicted Ring (us)".to_string()];
    for &p in &pe_counts {
        let cell = allreduce_1d_cell(AllReducePattern::Ring, p as u32, b, &opts, &machine);
        ring_measured.push(match cell.measured_cycles {
            Some(m) => format!("{:.3}", cycles_to_us(m)),
            None => "-".to_string(),
        });
        ring_predicted.push(format!("{:.3}", cycles_to_us(cell.predicted_cycles)));
    }
    rows.push(ring_measured);
    rows.push(ring_predicted);
    print_table("Figure 12c: 1D AllReduce at 1 KB for increasing PE count (us)", &header, &rows);
    if let Some((mean, max)) = error_summary(&cells) {
        println!("model error: mean {:.1}% / max {:.1}%", mean * 100.0, max * 100.0);
    }
    // The paper's observation: from 8 PEs upwards reduce-then-broadcast beats
    // the ring by up to ~1.4x.
    let p_check = 128u64;
    let ring = costs_1d::ring_allreduce(p_check, b as u64).predict(&machine);
    let best = wse_model::selection::best_fixed_allreduce_1d(p_check, b as u64, &machine);
    println!(
        "at {p_check} PEs the best reduce-then-broadcast beats the predicted ring by {:.2}x",
        ring / best.cycles
    );
}

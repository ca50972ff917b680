//! The metric tables: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — the regression bound. The same
//! tables drive the result line, `compare` and the README glossary, and a
//! test pins them against `BENCHMARK.json`.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen.
    pub bound: f64,
    /// Deterministic: two runs of the same code and seed must agree exactly,
    /// and `compare` treats any worsening as a regression.
    pub exact: bool,
    /// Absolute slack added to the relative bound (`setup_s` only: a 3 ms
    /// set-up may double without anyone paying for it).
    pub floor: f64,
}

const fn timing(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound, exact: false, floor: 0.0 }
}

/// `BENCHMARK.json` wants a bound per metric; an exact metric gets the
/// smallest one that still survives a strict `<` test on a zero spread.
const fn exact(name: &'static str, unit: &'static str, better: Better) -> EndToEnd {
    EndToEnd { name, unit, better, bound: 0.001, exact: true, floor: 0.0 }
}

/// One bound for everything the host's clock touches. On the two-core
/// sandbox the run-to-run spread (inter-quartile range ÷ median over ten
/// seeds) of the noisiest pairing — a latency on `serve_burst_admit` or
/// `batch_small_doors`, both at the mercy of where freshly spawned worker
/// threads land — is 7–8 %; a bound has to be three times the spread it
/// sits on, and the manifest allows at most 0.25. The engine and sweep
/// workloads repeat within 1–3 %: for them `compare`'s segment spread says
/// how much smaller a difference is already real.
const TIMING_BOUND: f64 = 0.25;

pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd { floor: 0.05, ..timing("setup_s", "s", Better::Lower, TIMING_BOUND) },
    timing("throughput_rps", "1/s", Better::Higher, TIMING_BOUND),
    timing("sim_pe_cycles_per_s", "1/s", Better::Higher, TIMING_BOUND),
    timing("latency_p50_us", "us", Better::Lower, TIMING_BOUND),
    timing("latency_p90_us", "us", Better::Lower, TIMING_BOUND),
    timing("peak_rss_mb", "MiB", Better::Lower, TIMING_BOUND),
    exact("ok_share", "share", Better::Higher),
    exact("sim_cycles_total", "cycles", Better::Lower),
    exact("model_error_mean_pct", "%", Better::Lower),
    exact("model_error_max_pct", "%", Better::Lower),
    exact("optimality_ratio_max", "ratio", Better::Lower),
    exact("auto_vs_best_ratio_max", "ratio", Better::Lower),
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 44] = [
    layer("model.predict_us_p50", "us", Lower),
    layer("model.autogen_solve_ms_p50", "ms", Lower),
    layer("model.select_us_p50", "us", Lower),
    layer("model.lower_bound_ms_p50", "ms", Lower),
    layer("model.time_share", "share", Lower),
    layer("plan.resolve_cold_us_p50", "us", Lower),
    layer("plan.time_share", "share", Lower),
    layer("plan.wavelets_sent_total", "count", Lower),
    layer("cache.hit_us_p50", "us", Lower),
    layer("cache.hit_ratio", "share", Higher),
    layer("fabric.new_us_p50", "us", Lower),
    layer("fabric.apply_us_p50", "us", Lower),
    layer("fabric.load_us_p50", "us", Lower),
    layer("fabric.run_us_p50", "us", Lower),
    layer("fabric.read_us_p50", "us", Lower),
    layer("fabric.reset_us_p50", "us", Lower),
    layer("fabric.run_share", "share", Higher),
    layer("fabric.host_ns_per_pe_cycle", "ns", Lower),
    layer("fabric.host_ns_per_hop", "ns", Lower),
    layer("fabric.energy_hops_total", "count", Lower),
    layer("fabric.stall_cycles_total", "count", Lower),
    layer("session.run_us_p50", "us", Lower),
    layer("session.self_us_p50", "us", Lower),
    layer("executor.batch_us_p50", "us", Lower),
    layer("executor.self_us_per_item", "us", Lower),
    layer("executor.pool_reuse_ratio", "share", Higher),
    layer("executor.speedup_vs_session", "ratio", Higher),
    layer("serve.submit_us_p50", "us", Lower),
    layer("serve.overhead_us_p50", "us", Lower),
    layer("serve.wake_us_p50", "us", Lower),
    layer("serve.mean_batch_size", "count", Higher),
    layer("serve.deadline_flush_share", "share", Lower),
    layer("serve.max_queue_depth", "count", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.deferred", "count", Lower),
    layer("serve.over_budget", "count", Lower),
    layer("serve.small_latency_p50_us", "us", Lower),
    layer("serve.large_latency_p50_us", "us", Lower),
    layer("serve.latency_p99_us", "us", Lower),
    layer("serve.prediction_error_mean_cycles", "cycles", Lower),
    layer("serve.generator_late_us_p99", "us", Lower),
    layer("trace.accounted_share", "share", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.spans", "count", Lower),
];

/// The three per-layer counts that are deterministic for a given seed.
pub const EXACT_PER_LAYER: [&str; 3] =
    ["plan.wavelets_sent_total", "fabric.energy_hops_total", "fabric.stall_cycles_total"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        let total = names.len();
        for name in &names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(EXACT_PER_LAYER.iter().all(|name| PER_LAYER.iter().any(|m| m.name == *name)));
    }
}

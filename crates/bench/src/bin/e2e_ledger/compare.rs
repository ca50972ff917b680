//! `compare <a.json> <b.json>`: one row per (workload, end-to-end metric)
//! plus one per exact per-layer count, `a` the baseline and `b` the candidate.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END, EXACT_PER_LAYER};
use crate::stats::relative_spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The metric's own segment spread is wider than its bound on one side,
    /// so a difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the reported value and its segment values.
#[derive(Debug, Clone, Default)]
pub struct Side {
    pub value: f64,
    pub segments: Vec<f64>,
}

/// How much worse `candidate` is than `baseline`, as a share of the
/// baseline (negative when it is better).
pub fn worsening(metric: &EndToEnd, baseline: f64, candidate: f64) -> f64 {
    let delta = match metric.better {
        Better::Lower => candidate - baseline,
        Better::Higher => baseline - candidate,
    };
    if baseline == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / baseline.abs()
    }
}

pub fn judge(metric: &EndToEnd, baseline: &Side, candidate: &Side) -> Verdict {
    if metric.exact {
        // Deterministic: any worsening is real, however small.
        return if worsening(metric, baseline.value, candidate.value) > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let spread = relative_spread(&baseline.segments).max(relative_spread(&candidate.segments));
    if spread > metric.bound {
        return Verdict::Unresolved;
    }
    let allowed = metric.bound + metric.floor / baseline.value.abs().max(f64::MIN_POSITIVE);
    if worsening(metric, baseline.value, candidate.value) > allowed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(doc, |node, key| node.get(key))
}

/// Results are only comparable when they measured the same thing on the
/// same kind of host.
fn refuse(a: &Json, b: &Json) -> Result<(), String> {
    for doc in [a, b] {
        if doc.get("quick").and_then(Json::as_bool) != Some(false) {
            return Err("refusing --quick results: they are smoke runs, not measurements".into());
        }
    }
    for path in [&["seed"][..], &["seconds"], &["host", "nproc"]] {
        let (left, right) = (field(a, path), field(b, path));
        if left.is_none() || left != right {
            return Err(format!(
                "refusing to compare: `{}` differs ({} vs {})",
                path.join("."),
                left.map_or("missing".into(), Json::render),
                right.map_or("missing".into(), Json::render)
            ));
        }
    }
    Ok(())
}

fn side(doc: &Json, workload: &str, section: &str, metric: &str) -> Option<Side> {
    let entry = field(doc, &["workloads", workload, section, "metrics", metric])?;
    Some(Side {
        value: entry.get("value")?.as_f64()?,
        segments: entry
            .get("segments")
            .and_then(Json::as_arr)
            .map(|s| s.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default(),
    })
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub baseline: f64,
    pub candidate: f64,
    pub verdict: Verdict,
}

pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    refuse(a, b)?;
    let workloads = a.get("workloads").and_then(Json::as_obj).ok_or("baseline has no workloads")?;
    let mut rows = Vec::new();
    // The deterministic per-layer counts ride along as exact, lower-better
    // rows: they explain any move of `sim_cycles_total`.
    let counts = EXACT_PER_LAYER.map(|name| EndToEnd {
        name,
        unit: "count",
        better: Better::Lower,
        bound: 0.0,
        exact: true,
        floor: 0.0,
    });
    let sections = [("end_to_end", &END_TO_END[..]), ("per_layer", &counts[..])];
    for (workload, _) in workloads {
        for (section, metrics) in sections {
            for metric in metrics {
                let find = |doc, which: &str| {
                    side(doc, workload, section, metric.name)
                        .ok_or_else(|| format!("{which} lacks {workload}/{}", metric.name))
                };
                let (baseline, candidate) = (find(a, "baseline")?, find(b, "candidate")?);
                rows.push(Row {
                    workload: workload.clone(),
                    metric: metric.name,
                    baseline: baseline.value,
                    candidate: candidate.value,
                    verdict: judge(metric, &baseline, &candidate),
                });
            }
        }
    }
    Ok(rows)
}

/// Print the table; `Ok(true)` when no row regressed.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let rows = compare(&load(a_path)?, &load(b_path)?)?;
    println!(
        "{:<20} {:<24} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "baseline", "candidate", "change"
    );
    for row in &rows {
        let change =
            if row.baseline == 0.0 { 0.0 } else { (row.candidate / row.baseline - 1.0) * 100.0 };
        println!(
            "{:<20} {:<24} {:>16.4} {:>16.4} {:>8.2}%  {}",
            row.workload,
            row.metric,
            row.baseline,
            row.candidate,
            change,
            row.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} unresolved, {} regressed",
        count(Verdict::Ok),
        count(Verdict::Unresolved),
        count(Verdict::Regressed)
    );
    Ok(count(Verdict::Regressed) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
        END_TO_END.iter().find(|m| m.name == name)
    }

    fn steady(value: f64) -> Side {
        Side { value, segments: vec![value * 0.99, value, value * 1.01, value, value] }
    }

    /// `base` worsened by `share` of itself, in the metric's bad direction.
    fn worse(metric: &EndToEnd, base: f64, share: f64) -> Side {
        steady(match metric.better {
            Better::Lower => base * (1.0 + share),
            Better::Higher => base * (1.0 - share),
        })
    }

    #[test]
    fn bounded_metrics_regress_only_past_their_bound_in_their_direction() {
        for name in ["throughput_rps", "latency_p50_us", "sim_pe_cycles_per_s"] {
            let metric = end_to_end(name).unwrap();
            let base = steady(1000.0);
            assert_eq!(
                judge(metric, &base, &worse(metric, 1000.0, metric.bound * 0.8)),
                Verdict::Ok
            );
            assert_eq!(
                judge(metric, &base, &worse(metric, 1000.0, metric.bound * 1.2)),
                Verdict::Regressed
            );
            // Any amount better is fine.
            assert_eq!(judge(metric, &base, &worse(metric, 1000.0, -0.5)), Verdict::Ok);
        }
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let latency = end_to_end("latency_p90_us").unwrap();
        // Two of five segments off by the bound each way: the quartiles, and
        // so the spread, are wider than the bound.
        let wobble = 700.0 * latency.bound;
        let noisy = Side {
            value: 700.0,
            segments: vec![700.0 - wobble, 700.0 - wobble, 700.0, 700.0 + wobble, 700.0 + wobble],
        };
        // Equal values, and even a clear worsening, cannot be called.
        assert_eq!(judge(latency, &steady(700.0), &noisy), Verdict::Unresolved);
        assert_eq!(judge(latency, &noisy, &steady(1400.0)), Verdict::Unresolved);
        // A metric measured once has no spread to hide behind.
        let rss = end_to_end("peak_rss_mb").unwrap();
        let once = |value| Side { value, segments: vec![] };
        assert_eq!(judge(rss, &once(100.0), &once(100.0 * (1.0 + rss.bound * 0.9))), Verdict::Ok);
        assert_eq!(
            judge(rss, &once(100.0), &once(100.0 * (1.0 + rss.bound * 1.1))),
            Verdict::Regressed
        );
    }

    #[test]
    fn exact_metrics_allow_nothing_and_setup_has_an_absolute_floor() {
        let cycles = end_to_end("sim_cycles_total").unwrap();
        let once = |value| Side { value, segments: vec![] };
        assert_eq!(judge(cycles, &once(5000.0), &once(5000.0)), Verdict::Ok);
        assert_eq!(judge(cycles, &once(5000.0), &once(5001.0)), Verdict::Regressed);
        assert_eq!(judge(cycles, &once(5000.0), &once(4000.0)), Verdict::Ok);
        let ok = end_to_end("ok_share").unwrap();
        assert_eq!(judge(ok, &once(1.0), &once(0.9999)), Verdict::Regressed);
        // 3 ms → 30 ms of set-up is within the 0.05 s floor; 1 s → 1.4 s is not.
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!(judge(setup, &steady(0.003), &steady(0.030)), Verdict::Ok);
        assert_eq!(judge(setup, &steady(1.0), &steady(1.4)), Verdict::Regressed);
        assert_eq!(judge(setup, &steady(1.0), &steady(1.2)), Verdict::Ok);
    }

    fn results(quick: bool, seed: f64, nproc: f64, throughput: f64) -> Json {
        let entry = |name: &'static str| {
            let value = if name == "throughput_rps" { throughput } else { 1.0 };
            (name, Json::obj([("value", Json::Num(value))]))
        };
        let metrics = END_TO_END.iter().map(|m| entry(m.name));
        let counts = EXACT_PER_LAYER.iter().map(|name| entry(name));
        Json::obj([
            ("quick", Json::Bool(quick)),
            ("seed", Json::Num(seed)),
            ("seconds", Json::Num(10.0)),
            ("host", Json::obj([("nproc", Json::Num(nproc))])),
            (
                "workloads",
                Json::obj([(
                    "w",
                    Json::obj([
                        ("end_to_end", Json::obj([("metrics", Json::obj(metrics))])),
                        ("per_layer", Json::obj([("metrics", Json::obj(counts))])),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn incomparable_results_are_refused() {
        let base = results(false, 1.0, 2.0, 100.0);
        assert!(compare(&base, &results(true, 1.0, 2.0, 100.0)).unwrap_err().contains("quick"));
        assert!(compare(&base, &results(false, 2.0, 2.0, 100.0)).unwrap_err().contains("seed"));
        assert!(compare(&base, &results(false, 1.0, 8.0, 100.0))
            .unwrap_err()
            .contains("host.nproc"));
        let rows = compare(&base, &results(false, 1.0, 2.0, 50.0)).unwrap();
        assert_eq!(rows.len(), END_TO_END.len() + EXACT_PER_LAYER.len());
        let regressed: Vec<_> = rows.iter().filter(|r| r.verdict == Verdict::Regressed).collect();
        assert_eq!(regressed.len(), 1);
        assert_eq!(regressed[0].metric, "throughput_rps");
    }
}

//! `e2e_ledger` — the repository's one benchmark: six named workloads,
//! twelve end-to-end metrics, and a per-layer ledger measured from outside
//! the libraries. `README.md` beside this file is the manual.
//!
//! ```text
//! e2e_ledger --out DIR [--seed N] [--seconds S] [--quick]      every workload, one child process each
//! e2e_ledger --workload NAME --seed N --seconds S --trace 0|1  one workload, in this process
//! e2e_ledger compare BASELINE.json CANDIDATE.json
//! e2e_ledger manifest                                          prints BENCHMARK.json from the metric tables
//! ```

mod compare;
mod direct;
mod host;
mod json;
mod ledger;
mod metrics;
mod rng;
mod run;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use run::Options;
use workloads::Workload;

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 10.0;
/// `--quick`: a smoke run of the whole set in about ten seconds.
const QUICK_SECONDS: f64 = 0.25;

#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

impl Args {
    fn seed(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SEED)
    }

    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick { QUICK_SECONDS } else { DEFAULT_SECONDS })
    }
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = || Workload::ALL.map(Workload::name).join(", ");
                parsed.workload =
                    Some(Workload::from_name(name).ok_or_else(|| {
                        format!("unknown workload `{name}` (one of: {})", known())
                    })?);
            }
            "--seed" => {
                parsed.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

fn mode(traced: bool) -> &'static str {
    if traced {
        "per_layer"
    } else {
        "end_to_end"
    }
}

/// `BENCHMARK.json`, generated from the same tables the runs report from, so
/// the manifest cannot drift from the program (a test pins the checked-in
/// file to this output).
fn manifest() -> Json {
    let dir = "crates/bench/src/bin/e2e_ledger";
    let manifest_path = format!("{dir}/Cargo.toml");
    let command = ["cargo", "run", "--release", "--quiet", "--manifest-path", &manifest_path, "--"];
    Json::obj([
        ("command", Json::Arr(command.into_iter().map(Json::str).collect())),
        ("paths", Json::Arr(vec![Json::str(dir)])),
        ("run_seconds", Json::Num(DEFAULT_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                metrics::END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                metrics::PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One workload in this process. The last line printed is the result line.
fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    let options = Options {
        workload,
        seed: args.seed(),
        seconds: args.seconds(),
        trace: args.trace,
        quick: args.quick,
    };
    println!(
        "host: nproc {} · spin {:.4} ns/iter · seed {} · {} s",
        std::thread::available_parallelism().map_or(1, usize::from),
        host::spin_ns_per_iter(),
        options.seed,
        options.seconds
    );
    let result = run::run(&options);
    result.print();
    if let Some(out) = &args.out {
        std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
        let detail = out.join(format!("{}.{}.json", workload.name(), mode(options.trace)));
        write_file(&detail, &result.detail_json().render())?;
        if let Some(trace) = &result.trace {
            write_file(&out.join(format!("trace-{}.json", workload.name())), &trace.render())?;
        }
    }
    println!("{}", result.result_line());
    Ok(result.correct())
}

/// Every workload, each run in a child process of its own so `peak_rss_mb`
/// (the process's high-water mark) belongs to that workload alone.
fn run_all(args: &Args) -> Result<bool, String> {
    let out =
        args.out.as_ref().ok_or("running every workload needs --out <dir> for the results")?;
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let (seed, seconds) = (args.seed(), args.seconds());
    let host = host::Host::record();
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let mut sections = Vec::new();
        for traced in [false, true] {
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(out);
            if args.quick {
                child.arg("--quick");
            }
            // `status` waits for the child; nothing is left running.
            let status =
                child.status().map_err(|e| format!("spawning {}: {e}", workload.name()))?;
            all_correct &= status.success();
            let path = out.join(format!("{}.{}.json", workload.name(), mode(traced)));
            let detail = std::fs::read_to_string(&path)
                .map_err(|e| format!("{}: {e}", path.display()))
                .and_then(|text| Json::parse(&text))?;
            std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            sections.push((mode(traced), detail));
        }
        workloads.push((workload.name(), Json::obj(sections)));
    }
    let results = Json::obj([
        ("benchmark", Json::str("e2e_ledger")),
        ("quick", Json::Bool(args.quick)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("host", host.to_json()),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = out.join("results.json");
    write_file(&path, &results.render())?;
    println!("results written to {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("usage: e2e_ledger compare <baseline.json> <candidate.json>".into()),
        }
    } else if args.first().map(String::as_str) == Some("manifest") {
        println!("{}", manifest().render_pretty());
        Ok(true)
    } else {
        parse(&args).and_then(|parsed| match parsed.workload {
            Some(workload) => run_one(workload, &parsed),
            None => run_all(&parsed),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("e2e_ledger: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let parsed = parse(&strings(&[
            "--workload",
            "engine_dense_2d",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(parsed.workload, Some(Workload::EngineDense2d));
        assert_eq!(parsed.seed, Some(42));
        assert_eq!(parsed.seconds, Some(10.0));
        assert!(parsed.trace && !parsed.quick);
    }

    /// `BENCHMARK.json` sits at the repository root, above this directory
    /// however the benchmark was built, and must be what `manifest` prints.
    #[test]
    fn the_checked_in_manifest_is_the_generated_one() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|dir| dir.join("BENCHMARK.json"))
            .find(|candidate| candidate.exists())
            .expect("BENCHMARK.json above the benchmark directory");
        let checked_in = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            checked_in.trim_end(),
            manifest().render_pretty(),
            "regenerate with `e2e_ledger manifest`"
        );
        assert_eq!(Json::parse(&checked_in).unwrap(), manifest());
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--trace", "yes"],
            &["--frobnicate"],
        ] {
            assert!(parse(&strings(bad)).is_err(), "{bad:?} should be refused");
        }
    }
}

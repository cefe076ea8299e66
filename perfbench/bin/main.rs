//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process, checks its outputs, prints a few
//! human-readable lines and, as the last line of standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with no
//! tracing; with `--trace 1` they are the per-layer ones, from a run
//! that alternates plain and traced instances of the same workload.
//! A failed output check prints `"correct": false` with no metrics and
//! exits with code 1. `--workload all` runs every workload in turn.
//!
//! Workloads: `wire_8shard`, `region_64flows` (admission decisions over
//! wire frames), `horizon_mixed` (windowed offers on the reservation
//! plane) and `adaptive_stream` (the adaptive sender and receiver in
//! the two-host simulator). `BENCHMARK.json` at the repository root
//! says why each exists and which layer metric should move which
//! end-to-end metric.

mod horizon;
mod report;
mod script;
mod service;
mod stream;
mod util;

use report::{result_line, Outcome};

pub const WORKLOADS: &[&str] = &[
    "wire_8shard",
    "region_64flows",
    "horizon_mixed",
    "adaptive_stream",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        traced: traced.unwrap_or(false),
    })
}

/// Runs one workload.
pub fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    match name {
        "wire_8shard" => service::run(&service::WIRE_8SHARD, seed, seconds, traced),
        "region_64flows" => service::run(&service::REGION_64FLOWS, seed, seconds, traced),
        "horizon_mixed" => horizon::run(seed, seconds, traced),
        "adaptive_stream" => stream::run(seed, seconds, traced),
        _ => Err(format!("unknown workload {name:?}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut rendered = Vec::new();
    for name in &names {
        println!(
            "# {name} seed={} seconds={} trace={}",
            args.seed,
            args.seconds,
            u8::from(args.traced)
        );
        let result = run_workload(name, args.seed, args.seconds, args.traced)
            .and_then(|out| out.metrics.render(args.traced).map(|m| (out, m)));
        match result {
            Ok((out, metrics)) => {
                for note in &out.notes {
                    println!("{name}: {note}");
                }
                println!(
                    "{name}: failed_frac = {:.6} ({} of {} operations)",
                    out.failed as f64 / out.attempted.max(1) as f64,
                    out.failed,
                    out.attempted
                );
                attempted += out.attempted;
                failed += out.failed;
                rendered.push((name, metrics));
            }
            Err(e) => {
                eprintln!("perfbench: {name}: check failed: {e}");
                println!("{}", result_line(false, attempted.max(1), failed, "{}"));
                std::process::exit(1);
            }
        }
    }
    let metrics = if let [(_, only)] = &rendered[..] {
        only.clone()
    } else {
        let keyed: Vec<String> = rendered
            .iter()
            .map(|(name, m)| format!("\"{name}\": {m}"))
            .collect();
        format!("{{{}}}", keyed.join(", "))
    };
    println!("{}", result_line(true, attempted, failed, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue the binary reports is the one `BENCHMARK.json`
    /// declares, name for name and unit for unit.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in report::END_TO_END.iter().chain(report::PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for name in WORKLOADS {
            assert!(
                compact.contains(&format!("\"name\":\"{name}\"")),
                "workload {name}"
            );
        }
        let declared = compact.matches("\"name\":").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + report::END_TO_END.len() + report::PER_LAYER.len(),
            "BENCHMARK.json declares names the binary does not report"
        );
    }

    /// The exact work counts of the traced run repeat bit for bit
    /// across two runs of one seed, on every workload.
    #[test]
    fn exact_counts_repeat_for_a_seed() {
        let seed = 7;
        let twice = |f: &dyn Fn() -> report::Counts| (f().fingerprint(), f().fingerprint());
        let runs = [
            twice(&|| service::counted(&service::WIRE_8SHARD, seed).unwrap().1),
            twice(&|| service::counted(&service::REGION_64FLOWS, seed).unwrap().1),
            twice(&|| horizon::counted(seed).unwrap()),
            twice(&|| stream::counted(seed).unwrap()),
        ];
        for (name, (a, b)) in WORKLOADS.iter().zip(runs) {
            assert!(a.contains("lp.solves"), "{name}: no LP work counted: {a}");
            assert_eq!(
                a, b,
                "{name}: counts differ between two runs of seed {seed}"
            );
        }
    }
}

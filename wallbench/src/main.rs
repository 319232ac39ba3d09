//! `wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics as one JSON object on the last
//! line of standard output. A traced run also writes its spans to
//! `wallbench-out/spans-<workload>-seed<n>.json`.

use std::process::ExitCode;

use sympack_wallbench::{run, RunConfig, Scale, Workload};

const USAGE: &str =
    "usage: wallbench --workload <cold_bone|serve_thermal|fleet_mix> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("wallbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (outcome, tracer) = match run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("wallbench: {} failed: {e}", cfg.workload.name());
            return ExitCode::from(1);
        }
    };
    for p in &outcome.problems {
        eprintln!("wallbench: problem: {p}");
    }
    eprintln!(
        "wallbench: {} seed {} trace {}: {} requests, {} failed",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace),
        outcome.attempted,
        outcome.failed
    );
    if let Some(tr) = tracer {
        let dir = std::path::Path::new("wallbench-out");
        let path = dir.join(format!(
            "spans-{}-seed{}.json",
            cfg.workload.name(),
            cfg.seed
        ));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_json()))
        {
            eprintln!("wallbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

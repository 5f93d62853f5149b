//! rkr_perfbench: the rkrd benchmark's load generator.
//!
//! ```text
//! rkr_perfbench --workload NAME --seed N --seconds S --trace 0|1 --rkr PATH --out DIR
//! ```
//!
//! Starts the real `rkr` daemons, drives them from this one process (at
//! most two threads and two connections), checks every reply against an
//! in-process reference, and prints a human summary followed by one JSON
//! result line. `--trace 1` runs the workload again with spans recorded
//! around each call this program makes, replays the workload's inputs
//! through each layer's public functions, scrapes the daemons' own
//! counters, and reports the per-layer metrics instead of the end-to-end
//! ones. `perfbench/run.py` builds and runs this; see
//! `perfbench/workloads.json` for what each workload is and why.

mod check;
mod daemon;
mod inputs;
mod load;
mod replay;
mod scrape;
mod trace;
mod util;
mod wire;
mod workloads;

use std::path::PathBuf;

use util::{json_num, result_line};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub rkr: PathBuf,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = std::collections::BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        map.insert(name, value);
    }
    let get = |name: &str| {
        map.get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let seconds: f64 = get("seconds")?.parse().map_err(|_| "bad --seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("workload")?,
        seed: get("seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
        rkr: PathBuf::from(get("rkr")?),
        out: PathBuf::from(get("out")?),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rkr_perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match workloads::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rkr_perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    println!(
        "workload {} seed {} ({} s, trace {})",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for line in &report.notes {
        println!("  {line}");
    }
    // A traced run's end-to-end figures carry the tracing; it reports its
    // per-layer metrics instead.
    let shown = if args.trace {
        &report.layers
    } else {
        &report.e2e
    };
    for (name, value, unit) in shown.iter().chain(&report.info) {
        println!("  {name:<28} {:>20} {unit}", json_num(*value));
    }
    for failure in report.failures.iter().take(20) {
        println!("  FAILED {failure}");
    }
    if report.attempted == 0 {
        eprintln!("rkr_perfbench: {} attempted no operation", args.workload);
        std::process::exit(1);
    }
    let failed = report.failures.len() as u64;
    println!(
        "{}",
        result_line(failed == 0, report.attempted, failed, shown)
    );
}

//! End-to-end benchmark of colored-tori jobs: spec text in, outcome text
//! out.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <served-small|big-grid|served-sweep> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload runs untraced for the given time and
//! the result line carries the end-to-end metrics.  With `--trace 1` a
//! sample of the workload is replayed down the executor ladder with
//! spans around every layer call, and the result line carries the
//! per-layer metrics.  Either way every outcome is checked against a
//! single-threaded reference; any mismatch makes the exit code non-zero.
//! The last line of standard output is the result line.

mod ladder;
mod measure;
mod report;
mod spans;
mod stack;
mod workloads;

use workloads::Workload;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: e2ebench --workload <served-small|big-grid|served-sweep> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => {
                let n = number()?;
                if !(1..=600).contains(&n) {
                    return Err(format!("--seconds {n} is outside 1..=600"));
                }
                seconds = Some(n);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", stack::machine_json(args.seed));
    let result = if args.trace {
        ladder::run(args.workload, args.seed)
    } else {
        measure::run(args.workload, args.seed, args.seconds)
    };
    print!("{}", result.report.human());
    let mut problems = result.problems;
    if !result.report.all_finite() {
        problems.push("a metric is not a finite number".into());
    }
    let correct = result.failed == 0 && problems.is_empty();
    println!(
        "{}",
        result
            .report
            .result_line(correct, result.attempted, result.failed)
    );
    if !correct {
        for problem in &problems {
            eprintln!("error: {problem}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Result<Args, String> {
        parse_args(
            &text
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn command_line_is_parsed_strictly() {
        let ok = args("--workload big-grid --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(ok.workload, Workload::BigGrid);
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 10, true));
        for bad in [
            "",
            "--workload big-grid --seed 7 --seconds 10",
            "--workload nope --seed 7 --seconds 10 --trace 0",
            "--workload big-grid --seed -1 --seconds 10 --trace 0",
            "--workload big-grid --seed 7 --seconds 0 --trace 0",
            "--workload big-grid --seed 7 --seconds 10 --trace 2",
            "--workload big-grid --seed 7 --seconds 10 --trace 0 --extra 1",
            "--workload big-grid --seed",
        ] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }
}

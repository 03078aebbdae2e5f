//! `bench` — the WattDB-RS two-clock benchmark.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bench merge <dir>
//! bench compare <a.json> <b.json>
//! ```
//!
//! A run prints every metric by name with its unit and sample count, the
//! correctness checks, and as its last line the one-object summary the
//! driver reads; it exits non-zero when a check fails. See README.md.

mod catalogue;
mod compare;
mod host;
mod ledger;
mod probe;
mod results;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use catalogue::Catalogue;
use results::RunResult;

#[global_allocator]
static ALLOCATOR: host::CountingAllocator = host::CountingAllocator;

/// Where result and trace files go, relative to the repository root
/// (`run.sh` changes into it).
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage:
  bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  bench merge <dir>
  bench compare <a.json> <b.json>";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_run_args(args: &[String], cat: &Catalogue) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 11,
        seconds: cat.run_seconds,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = number()?,
            "--seconds" => run.seconds = number()?,
            "--trace" => run.traced = number()? != 0,
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if !(1..=60).contains(&run.seconds) {
        return Err(format!("--seconds {}: must be 1 to 60", run.seconds));
    }
    Ok(run)
}

fn run(args: &[String]) -> Result<bool, String> {
    let cat = Catalogue::embedded();
    let a = parse_run_args(args, &cat)?;
    let spec = probe::Spec::find(&a.workload).ok_or_else(|| {
        format!(
            "unknown workload `{}`; one of: {}",
            a.workload,
            cat.workloads.join(", ")
        )
    })?;
    let write = |name: String, text: &str| {
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(Path::new(OUT_DIR).join(&name), text))
            .map_err(|e| format!("{OUT_DIR}/{name}: {e}"))
    };
    let result = if a.traced {
        let (result, spans) = ledger::run_traced(spec, a.seed, a.seconds, &cat);
        write(format!("trace-{}.jsonl", spec.name), &spans)?;
        result
    } else {
        ledger::run_untraced(spec, a.seed, a.seconds, &cat)
    };
    write(
        format!("result-{}-trace{}.json", spec.name, a.traced as u8),
        &result.to_json(),
    )?;
    print!("{}", result.table(&cat));
    println!("{}", result.contract_line(&cat));
    Ok(result.correct())
}

/// Gather every `result-*.json` of `dir` into `dir/results.json`.
fn merge(dir: &str) -> Result<bool, String> {
    let cat = Catalogue::embedded();
    let mut runs: Vec<RunResult> = Vec::new();
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("result-") && n.ends_with(".json"))
        })
        .collect();
    names.sort();
    for path in names {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let value = probe::parse_json(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
        runs.push(RunResult::from_json(&value)?);
    }
    // Declared workload order, untraced before traced.
    let rank = |r: &RunResult| {
        (
            cat.workloads.iter().position(|w| *w == r.workload),
            r.traced,
        )
    };
    runs.sort_by_key(rank);
    let out = Path::new(dir).join("results.json");
    std::fs::write(&out, results::merged_json(&runs))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    for r in &runs {
        print!("{}", r.table(&cat));
    }
    println!("merged {} runs into {}", runs.len(), out.display());
    Ok(!runs.is_empty() && runs.iter().all(RunResult::correct))
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| results::parse_merged(&t))
    };
    let rows = compare::compare(&Catalogue::embedded(), &read(a)?, &read(b)?);
    print!("{}", compare::render(&rows));
    if rows.is_empty() {
        return Err("no workload × metric present in both files".to_string());
    }
    Ok(!compare::regressed(&rows))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("merge") if args.len() == 2 => merge(&args[1]),
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        Some(flag) if flag.starts_with("--") => run(&args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

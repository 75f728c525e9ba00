//! `hmdbench`: the serving benchmark. Workloads, metrics and bounds are
//! declared in the repository's `BENCHMARK.json`; see this directory's
//! README for the workload rationale and how to read the numbers.
//!
//! ```text
//! hmdbench run --workload NAME [--seed S] [--seconds N] [--trace 0|1] [--out DIR]
//! hmdbench compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! `--seconds` is accepted only with the value of `run_seconds`.

mod compare;
mod drive;
mod mirror;
mod run;
mod spec;
mod stats;
mod yardstick;

use hmd_util::alloc::CountingAllocator;

/// Counts heap allocations, for `serving.allocs_per_window`.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Errors cross this binary as messages.
fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

const USAGE: &str = "usage:\n  hmdbench run --workload NAME [--seed S] [--seconds N] [--trace 0|1] [--out DIR]\n  hmdbench compare PARENT_DIR CHANGE_DIR";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") if args.len() == 3 => compare::command(&args[1], &args[2]),
        _ => Err(USAGE.to_owned()),
    };
    match code {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("hmdbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run_command(args: &[String]) -> Result<i32, String> {
    let spec = spec::Spec::load()?;
    let mut workload = None;
    let mut seed = run::DEFAULT_SEED;
    let mut trace = false;
    let mut out = std::path::PathBuf::from("hmdbench-out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            // BENCHMARK.json's run_seconds is the one definition of a
            // run's length; a caller may state it, but not change it
            "--seconds" => {
                if number()? != spec.run_seconds {
                    return Err(format!(
                        "--seconds {value}: a run lasts run_seconds = {} from BENCHMARK.json; change it there",
                        spec.run_seconds
                    ));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => out = value.into(),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let shape = run::shape(&workload)
        .filter(|_| spec.workloads.contains(&workload))
        .ok_or_else(|| {
            format!(
                "unknown workload {workload:?}; declared: {:?}",
                spec.workloads
            )
        })?;
    let plan = run::Plan::new(shape, seed, spec.run_seconds, trace);
    let report = run::run(&plan)?;
    report.emit(&spec, &plan, &out)?;
    Ok(if report.correct { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    /// The settings of a manifest's `[profile.release]` table.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    #[test]
    fn the_package_builds_with_the_workspace_release_profile() {
        let workspace = release_profile(include_str!("../../../../../Cargo.toml"));
        assert!(!workspace.is_empty());
        assert_eq!(release_profile(include_str!("Cargo.toml")), workspace);
    }
}

//! `hmdbench compare PARENT_DIR CHANGE_DIR`: judges a change against its
//! parent from two directories of untraced run results. Runs pair up by
//! workload and seed. A gain needs at least ten pairs, alternating which
//! side ran first, the change winning at least nine in ten, and medians
//! apart by more than the parent's interquartile range. A regression is
//! a median worse than the parent's by more than the metric's bound in
//! `BENCHMARK.json`; where either side's spread is wider than the bound
//! the metric is unresolved, unless every change run beats every parent
//! run.

use std::path::Path;

use hmd_util::json::Json;

use crate::spec::{Better, Spec};
use crate::stats::{median, quartiles, spread};

/// What a metric did between parent and change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    NoChange,
    Regression,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Self::Gain => "gain",
            Self::NoChange => "ok",
            Self::Regression => "REGRESSION",
            Self::Unresolved => "unresolved",
        }
    }
}

/// Judges paired values (`parent[i]` and `change[i]` ran on one seed).
/// `alternating`: the pairs alternated which side ran first.
pub fn judge(
    parent: &[f64],
    change: &[f64],
    better: Better,
    bound: f64,
    alternating: bool,
) -> Verdict {
    let sign = if better == Better::Higher { 1.0 } else { -1.0 };
    let (mp, mc) = (median(parent), median(change));
    let n = parent.len();
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| sign * (*c - *p) > 0.0)
        .count();
    let (q1, q3) = quartiles(parent);
    let improvement = sign * (mc - mp);
    if n >= 10 && alternating && wins * 10 >= n * 9 && improvement > q3 - q1 {
        return Verdict::Gain;
    }
    let all_better = parent
        .iter()
        .all(|p| change.iter().all(|c| sign * (c - p) > 0.0));
    if (spread(parent) > bound || spread(change) > bound) && !all_better {
        return Verdict::Unresolved;
    }
    if -improvement > bound * mp.abs() {
        return Verdict::Regression;
    }
    Verdict::NoChange
}

/// One untraced run result.
struct RunResult {
    workload: String,
    seed: u64,
    /// cores, shards, batch, windows, rate: what must match to compare.
    stamp: [u64; 5],
    started_ms: u64,
    correct: bool,
    digest: String,
    metrics: Json,
}

fn load(dir: &str) -> Result<Vec<RunResult>, String> {
    let mut runs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{dir}: {e}"))?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if !(name.starts_with("hmdbench_") && name.ends_with(".json")) {
            continue;
        }
        let doc = read(&path)?;
        if doc.get("trace").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let num = |k: &str| {
            doc.get(k)
                .and_then(Json::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("{}: no {k}", path.display()))
        };
        runs.push(RunResult {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
            seed: num("seed")?,
            stamp: [
                num("cores")?,
                num("shards")?,
                num("batch")?,
                num("windows")?,
                num("rate")?,
            ],
            started_ms: num("started_ms")?,
            correct: doc.get("correct").and_then(Json::as_bool) == Some(true),
            digest: doc
                .get("digest")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
            metrics: doc
                .get("metrics")
                .cloned()
                .ok_or_else(|| format!("{}: no metrics", path.display()))?,
        });
    }
    Ok(runs)
}

fn read(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs the comparison; exit code 1 when any metric regressed or any run
/// failed its correctness checks.
pub fn command(parent_dir: &str, change_dir: &str) -> Result<i32, String> {
    let spec = Spec::load()?;
    let parent = load(parent_dir)?;
    let change = load(change_dir)?;
    let mut code = 0;
    for workload in &spec.workloads {
        let mut pairs: Vec<(&RunResult, &RunResult)> = parent
            .iter()
            .filter(|p| &p.workload == workload)
            .filter_map(|p| {
                change
                    .iter()
                    .find(|c| &c.workload == workload && c.seed == p.seed)
                    .map(|c| (p, c))
            })
            .collect();
        if pairs.is_empty() {
            continue;
        }
        pairs.sort_by_key(|(p, c)| p.started_ms.min(c.started_ms));
        for (p, c) in &pairs {
            if p.stamp != c.stamp {
                return Err(format!(
                    "refusing to compare {workload} seed {}: [cores, shards, batch, windows, rate] {:?} vs {:?}",
                    p.seed, p.stamp, c.stamp
                ));
            }
        }
        let parent_first = pairs
            .iter()
            .filter(|(p, c)| p.started_ms < c.started_ms)
            .count();
        let alternating = parent_first.abs_diff(pairs.len() - parent_first) <= 1;
        let same_digest = pairs.iter().filter(|(p, c)| p.digest == c.digest).count();
        let mut row = format!(
            "{workload}: {} pairs, cores {}, parent first in {parent_first}, same digest in {same_digest}",
            pairs.len(),
            pairs[0].0.stamp[0]
        );
        if pairs.iter().any(|(p, c)| !p.correct || !c.correct) {
            row.push_str(" | FAILED correctness checks");
            code = 1;
        }
        // each side's median and quartiles, one line per metric, below
        // the row
        let mut detail = String::new();
        for m in &spec.end_to_end {
            let value = |r: &RunResult| {
                r.metrics
                    .get(&m.name)
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64)
            };
            let Some((pv, cv)) = pairs
                .iter()
                .map(|(p, c)| Some((value(p)?, value(c)?)))
                .collect::<Option<(Vec<f64>, Vec<f64>)>>()
            else {
                row.push_str(&format!(" | {} missing", m.name));
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let verdict = judge(&pv, &cv, m.better, bound, alternating);
            let (mp, mc) = (median(&pv), median(&cv));
            let delta = if mp == 0.0 {
                0.0
            } else {
                (mc / mp - 1.0) * 100.0
            };
            row.push_str(&format!(" | {} {} {delta:+.2}%", m.name, verdict.name()));
            if verdict == Verdict::Regression {
                code = 1;
            }
            let side = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!(
                    "median {:.4} [{q1:.4}, {q3:.4}] spread {:.2}%",
                    median(v),
                    spread(v) * 100.0
                )
            };
            detail.push_str(&format!(
                "\n  {}: parent {}; change {}",
                m.name,
                side(&pv),
                side(&cv)
            ));
        }
        println!("{row}{detail}");
    }
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARENT: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
    ];

    #[test]
    fn a_consistent_win_beyond_the_parent_spread_is_a_gain() {
        let change: Vec<f64> = PARENT.iter().map(|p| p * 1.05).collect();
        assert_eq!(
            judge(&PARENT, &change, Better::Higher, 0.1, true),
            Verdict::Gain
        );
        // the same numbers read as lower-is-better are 5% worse: within
        // a 10% bound that is no regression, beyond a 2% bound it is
        assert_eq!(
            judge(&PARENT, &change, Better::Lower, 0.1, false),
            Verdict::NoChange
        );
        assert_eq!(
            judge(&PARENT, &change, Better::Lower, 0.02, false),
            Verdict::Regression
        );
        // no gain without ten alternating pairs
        assert_eq!(
            judge(&PARENT, &change, Better::Higher, 0.1, false),
            Verdict::NoChange
        );
        assert_eq!(
            judge(&PARENT[..9], &change[..9], Better::Higher, 0.1, true),
            Verdict::NoChange
        );
    }

    #[test]
    fn a_tie_is_no_change() {
        assert_eq!(
            judge(&PARENT, &PARENT, Better::Higher, 0.1, true),
            Verdict::NoChange
        );
        // a win inside the parent's own spread is not a gain
        let change: Vec<f64> = PARENT.iter().map(|p| p + 0.05).collect();
        assert_eq!(
            judge(&PARENT, &change, Better::Higher, 0.1, true),
            Verdict::NoChange
        );
    }

    #[test]
    fn spreads_wider_than_the_bound_are_unresolved() {
        let wide = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(
            judge(&wide, &wide, Better::Higher, 0.1, true),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&PARENT, &wide, Better::Lower, 0.1, true),
            Verdict::Unresolved
        );
        // unless every change run beats every parent run
        let far: Vec<f64> = wide.iter().map(|w| w + 1_000.0).collect();
        assert_eq!(
            judge(&wide, &far, Better::Higher, 0.1, false),
            Verdict::NoChange
        );
    }
}

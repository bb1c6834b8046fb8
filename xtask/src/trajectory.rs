//! The perf trajectory: `BENCH_trajectory.json` at the repo root holds
//! one row per (PR, workload, metric) of an A/B measurement — the
//! parent's and the change's value in each pair, their medians, the
//! pairs the change won, the seeds, the seconds and the host — and
//! `xtask ab` measures one, running `benchmark/run.sh` alternately in a
//! copy of the parent commit and in the working tree. Nothing here
//! edits a file under `benchmark/`: the one file a run rewrites,
//! `benchmark/Cargo.lock`, is put back after every run.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// A JSON value, as far as the trajectory, `BENCHMARK.json` and
/// `benchmark/run.sh`'s result line need one.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, its members in text order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses `text`, one value and nothing after it but whitespace.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.space();
        if p.at < p.bytes.len() {
            return Err(format!("trailing text at byte {}", p.at));
        }
        Ok(value)
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number this is, if it is one.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string this is, if it is one.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{}{item}", if i > 0 { ", " } else { "" })?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (key, value)) in members.iter().enumerate() {
                    let key = Json::Str(key.clone());
                    write!(f, "{}{key}: {value}", if i > 0 { ", " } else { "" })?;
                }
                f.write_str("}")
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.space();
        let hit = self.bytes.get(self.at) == Some(&byte);
        self.at += usize::from(hit);
        hit
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        let rest = &self.bytes[self.at..];
        for (word, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
        ] {
            if rest.starts_with(word.as_bytes()) {
                self.at += word.len();
                return Ok(value);
            }
        }
        match rest.first() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value()?);
                        if self.eat(b']') {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                if !self.eat(b'}') {
                    loop {
                        self.space();
                        let key = self.string()?;
                        self.expect(b':')?;
                        members.push((key, self.value()?));
                        if self.eat(b'}') {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Ok(Json::Obj(members))
            }
            Some(b'-' | b'0'..=b'9') => {
                let start = self.at;
                let numeric = |b: &u8| b.is_ascii_digit() || b"+-.eE".contains(b);
                while self.bytes.get(self.at).is_some_and(numeric) {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap_or("");
                text.parse()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number `{text}` at byte {start}"))
            }
            _ => Err(format!("unexpected input at byte {}", self.at)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.at) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.at));
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.at) else {
                return Err("unterminated string".into());
            };
            self.at += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.at) else {
                        return Err("unterminated escape".into());
                    };
                    self.at += 1;
                    let c = match e {
                        b'"' | b'\\' | b'/' => e as char,
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self.bytes.get(self.at..self.at + 4).unwrap_or(b"");
                            let hex = std::str::from_utf8(hex).unwrap_or("");
                            self.at += 4;
                            u32::from_str_radix(hex, 16)
                                .ok()
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape `{hex}`"))?
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at - 1)),
                    };
                    let mut buf = [0; 4];
                    out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                }
                _ => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|e| e.to_string())
    }
}

/// The value below which a share `p` of the sorted `values` lies,
/// interpolated linearly between ranks; `NaN` for no values.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return f64::NAN;
    };
    let pos = p * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// How many of the pairs the change won: a strictly better value in
/// the metric's direction (`better` is `"higher"` or `"lower"`).
pub fn pairs_better(parent: &[f64], change: &[f64], better: &str) -> usize {
    let won = |(p, c): (&f64, &f64)| if better == "higher" { c > p } else { c < p };
    parent.iter().zip(change).filter(|&pair| won(pair)).count()
}

/// One end-to-end metric of `BENCHMARK.json`: its name and which way
/// is better.
pub struct Metric {
    /// The name, as `run.sh`'s result line keys it.
    pub name: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
}

/// The end-to-end metrics `benchmark` (`BENCHMARK.json`'s text) names.
pub fn metrics(benchmark: &str) -> Result<Vec<Metric>, String> {
    let json = Json::parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = json.get("end_to_end").and_then(Json::arr);
    let list = list.ok_or("BENCHMARK.json: no `end_to_end` list")?;
    list.iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::str).map(str::to_owned);
            match (field("name"), field("better")) {
                (Some(name), Some(better)) => Ok(Metric { name, better }),
                _ => Err("BENCHMARK.json: an `end_to_end` entry lacks `name` or `better`".into()),
            }
        })
        .collect()
}

/// Values within a part in 10⁹ of each other (medians are recomputed
/// from the per-pair values a row holds).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Checks a trajectory (`BENCH_trajectory.json`'s text) against the
/// metrics of `benchmark` and the newest row of `changes`
/// (`CHANGES.md`). Returns the number of rows, or every problem found.
///
/// Each row is an object with `pr` (a positive integer, never lower
/// than the row before's), `workload`, `metric` (an end-to-end metric)
/// and `better` (its direction), `parent` (the revision measured
/// against), `seeds`, `seconds`, `pairs` and `pairs_better`,
/// `parent_median` and `change_median`, `parent_values` and
/// `change_values` (one number a pair each — or both empty, for a row
/// backfilled from a CHANGES.md row that gave only medians), and
/// `kernel` and `cpu` (the host). A row's (PR, workload, metric) is
/// unique. When the newest CHANGES.md `PR ` row says "claim met", the
/// file holds a row of that PR.
pub fn check(trajectory: &str, benchmark: &str, changes: &str) -> Result<usize, Vec<String>> {
    let metrics = metrics(benchmark).map_err(|e| vec![e])?;
    let json = Json::parse(trajectory).map_err(|e| vec![format!("BENCH_trajectory.json: {e}")])?;
    let rows = json
        .arr()
        .ok_or_else(|| vec!["BENCH_trajectory.json: not an array".into()])?;
    let mut problems = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let mut last_pr = 0;
    for (i, row) in rows.iter().enumerate() {
        let mut bad = |what: String| problems.push(format!("row {}: {what}", i + 1));
        let text = |k: &str| row.get(k).and_then(Json::str).filter(|s| !s.is_empty());
        let count = |k: &str| {
            row.get(k)
                .and_then(Json::num)
                .filter(|n| n.fract() == 0.0 && *n >= 0.0)
                .map(|n| n as u64)
        };
        let numbers = |k: &str| -> Option<Vec<f64>> {
            let items = row.get(k)?.arr()?;
            items
                .iter()
                .map(|v| v.num().filter(|n| n.is_finite()))
                .collect()
        };
        let pr = count("pr").filter(|&pr| pr > 0);
        match pr {
            None => bad("`pr` is not a positive integer".into()),
            Some(pr) if pr < last_pr => bad(format!("PR {pr} after PR {last_pr}")),
            Some(pr) => last_pr = pr,
        }
        let (workload, metric) = (text("workload"), text("metric"));
        let known = metrics.iter().find(|m| Some(m.name.as_str()) == metric);
        match (workload, known) {
            (None, _) => bad("no `workload`".into()),
            (_, None) => bad(format!("`metric` {metric:?} is no end-to-end metric")),
            (Some(w), Some(m)) => {
                if text("better") != Some(m.better.as_str()) {
                    bad(format!("`better` is not BENCHMARK.json's `{}`", m.better));
                }
                if !seen.insert((pr, w.to_owned(), m.name.clone())) {
                    bad(format!("a second row for PR {pr:?}, {w}, {}", m.name));
                }
            }
        }
        for key in ["parent", "kernel", "cpu"] {
            if text(key).is_none() {
                bad(format!("no `{key}`"));
            }
        }
        let seeds = row.get("seeds").and_then(Json::arr).unwrap_or_default();
        if seeds.is_empty()
            || seeds
                .iter()
                .any(|s| !s.num().is_some_and(|n| n.fract() == 0.0))
        {
            bad("`seeds` is not a list of integers".into());
        }
        if count("seconds").is_none_or(|s| s == 0) {
            bad("`seconds` is not a positive integer".into());
        }
        let (pairs, won) = (count("pairs"), count("pairs_better"));
        let pairs = match (pairs, won) {
            (Some(p), Some(w)) if p > 0 && w <= p => p as usize,
            _ => {
                bad("`pairs` or `pairs_better` is not a count of pairs".into());
                continue;
            }
        };
        let medians = (
            row.get("parent_median").and_then(Json::num),
            row.get("change_median").and_then(Json::num),
        );
        let (Some(pm), Some(cm)) = medians else {
            bad("a median is not a number".into());
            continue;
        };
        let (Some(parent), Some(change)) = (numbers("parent_values"), numbers("change_values"))
        else {
            bad("per-pair values are not lists of numbers".into());
            continue;
        };
        if parent.is_empty() && change.is_empty() {
            continue;
        }
        if parent.len() != pairs || change.len() != pairs {
            bad(format!(
                "{} and {} values for {pairs} pairs",
                parent.len(),
                change.len()
            ));
            continue;
        }
        if !close(median(&parent), pm) || !close(median(&change), cm) {
            bad("a median is not its values' median".into());
        }
        if let Some(m) = known {
            if pairs_better(&parent, &change, &m.better) as u64 != won.unwrap_or(0) {
                bad("`pairs_better` is not the pairs the change won".into());
            }
        }
    }
    if let Some(row) = changes.lines().rev().find(|l| l.starts_with("PR ")) {
        let pr = row[3..].split(|c: char| !c.is_ascii_digit()).next();
        let pr: Option<u64> = pr.and_then(|n| n.parse().ok());
        let claimed = row.to_lowercase().contains("claim met");
        let recorded = |pr| seen.iter().any(|(p, _, _)| *p == Some(pr));
        if let Some(pr) = pr.filter(|&pr| claimed && !recorded(pr)) {
            problems.push(format!(
                "CHANGES.md's newest row, PR {pr}, says \"claim met\" and has no row here"
            ));
        }
    }
    if problems.is_empty() {
        Ok(rows.len())
    } else {
        Err(problems)
    }
}

/// What `xtask ab` measures: the parent revision, the workload, how
/// many pairs, each run's seconds and seed, whether both trees build
/// with the alignment flags, and the PR to record the rows under.
pub struct AbPlan {
    /// The revision to measure the working tree against.
    pub parent: String,
    /// The workload `run.sh --workload` runs.
    pub workload: String,
    /// Pairs of runs, one run a side each.
    pub pairs: usize,
    /// Each run's `--seconds`.
    pub seconds: u64,
    /// The seeds, pair `i` running `seeds[i % len]`.
    pub seeds: Vec<u64>,
    /// Build both trees with every function and block aligned, so a
    /// step that is code placement alone does not show.
    pub aligned: bool,
    /// Append the measured rows to the trajectory as this PR's.
    pub record: Option<u64>,
}

/// The code-placement flags `--aligned` builds both trees with.
const ALIGNED: &str =
    "-C llvm-args=-align-all-functions=6 -C llvm-args=-align-all-nofallthru-blocks=5";

/// Runs `benchmark/run.sh` once in `tree` and returns its result line's
/// metrics by name. `benchmark/Cargo.lock` is put back as it was.
fn run_once(tree: &Path, plan: &AbPlan, seed: u64) -> Result<Vec<(String, f64)>, String> {
    let lock = tree.join("benchmark/Cargo.lock");
    let before = std::fs::read(&lock).map_err(|e| format!("{}: {e}", lock.display()))?;
    let target = tree.join(if plan.aligned {
        "benchmark/target-aligned"
    } else {
        "benchmark/target"
    });
    let mut run = Command::new("bash");
    run.current_dir(tree)
        .args(["benchmark/run.sh", "--workload", &plan.workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &plan.seconds.to_string(),
        ])
        .env("CARGO_TARGET_DIR", &target)
        .stdin(Stdio::null());
    if plan.aligned {
        run.env("RUSTFLAGS", ALIGNED);
    } else {
        run.env_remove("RUSTFLAGS");
    }
    let out = run.output().map_err(|e| format!("run.sh: {e}"));
    if std::fs::read(&lock).ok().as_deref() != Some(&before[..]) {
        std::fs::write(&lock, &before).map_err(|e| format!("{}: {e}", lock.display()))?;
    }
    let out = out?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let tail: Vec<&str> = stderr.lines().rev().take(15).collect();
        let tail: Vec<&str> = tail.into_iter().rev().collect();
        return Err(format!(
            "run.sh in {} failed ({})\n{}",
            tree.display(),
            out.status,
            tail.join("\n")
        ));
    }
    let json = Json::parse(line).map_err(|e| format!("run.sh's result line: {e}"))?;
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        return Err("run.sh's result line has no `metrics`".into());
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.num()?)))
        .collect())
}

/// The parent revision's files, unpacked once under
/// `target/ab/<commit>` by `git archive`.
fn parent_tree(root: &Path, rev: &str) -> Result<(String, PathBuf), String> {
    let git = |args: &[&str]| {
        let out = Command::new("git").current_dir(root).args(args).output();
        let out = out.map_err(|e| format!("git: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "git {}: {}",
                args.join(" "),
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        Ok(String::from_utf8_lossy(&out.stdout).trim().to_owned())
    };
    let commit = git(&["rev-parse", "--verify", &format!("{rev}^{{commit}}")])?;
    let tree = root.join("target/ab").join(&commit);
    if !tree.join("benchmark/run.sh").exists() {
        std::fs::create_dir_all(&tree).map_err(|e| format!("{}: {e}", tree.display()))?;
        let archive = Command::new("git")
            .current_dir(root)
            .args(["archive", "--format=tar", &commit])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("git archive: {e}"))?;
        let unpacked = Command::new("tar")
            .current_dir(&tree)
            .arg("-xf")
            .arg("-")
            .stdin(archive.stdout.ok_or("git archive: no stdout")?)
            .status()
            .map_err(|e| format!("tar: {e}"))?;
        if !unpacked.success() {
            return Err(format!("unpacking {commit} into {} failed", tree.display()));
        }
    }
    Ok((commit, tree))
}

/// One line of a host fact: the kernel from `uname -sr`, or the CPU
/// model from `/proc/cpuinfo`.
fn host() -> (String, String) {
    let uname = Command::new("uname").arg("-sr").output();
    let kernel = uname.map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?
                .split_once(':')
                .map(|(_, m)| m.trim())
        })
        .unwrap_or("unknown")
        .to_owned();
    let cpus = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let kernel = kernel
        .ok()
        .filter(|k| !k.is_empty())
        .unwrap_or("unknown".into());
    (kernel, format!("{model} ({cpus} logical CPUs)"))
}

/// `xtask ab`: runs the plan's pairs, the parent first in odd pairs,
/// prints per-pair values, medians, the pairs the change won and the
/// parent's interquartile range for every end-to-end metric, and, with
/// `record`, appends one row a metric to the trajectory.
pub fn run_ab(root: &Path, plan: &AbPlan) -> Result<(), String> {
    let read =
        |name: &str| std::fs::read_to_string(root.join(name)).map_err(|e| format!("{name}: {e}"));
    let metrics = metrics(&read("BENCHMARK.json")?)?;
    let (commit, parent) = parent_tree(root, &plan.parent)?;
    let mut values: Vec<[Vec<f64>; 2]> = vec![[Vec::new(), Vec::new()]; metrics.len()];
    let mut seeds = Vec::new();
    for pair in 0..plan.pairs {
        let seed = plan.seeds[pair % plan.seeds.len()];
        seeds.push(seed);
        let mut got: [Vec<(String, f64)>; 2] = Default::default();
        // Pair 1 (and every odd pair) runs the parent first.
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let tree = if side == 0 { parent.as_path() } else { root };
            got[side] = run_once(tree, plan, seed)?;
        }
        println!("ab: pair {} (seed {seed}):", pair + 1);
        for (m, slot) in metrics.iter().zip(&mut values) {
            let find =
                |side: &[(String, f64)]| side.iter().find(|(n, _)| *n == m.name).map(|v| v.1);
            let (Some(p), Some(c)) = (find(&got[0]), find(&got[1])) else {
                return Err(format!("a result line lacks `{}`", m.name));
            };
            println!("ab:   {} {p} -> {c}", m.name);
            slot[0].push(p);
            slot[1].push(c);
        }
    }
    let (kernel, cpu) = host();
    let mut rows = Vec::new();
    println!(
        "ab: {} vs {commit}, {}, {} pair(s) of {} s on {cpu}, {kernel}",
        root.display(),
        plan.workload,
        plan.pairs,
        plan.seconds
    );
    for (m, [p, c]) in metrics.iter().zip(&values) {
        let (pm, cm) = (median(p), median(c));
        let won = pairs_better(p, c, &m.better);
        let change = if pm == 0.0 {
            0.0
        } else {
            (cm - pm) / pm.abs() * 100.0
        };
        println!(
            "ab: {} ({} is better): median {pm} -> {cm} ({change:+.2} %), change better in {won}/{}, parent IQR {}..{}",
            m.name,
            m.better,
            plan.pairs,
            quantile(p, 0.25),
            quantile(p, 0.75)
        );
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        let num = |x: u64| Json::Num(x as f64);
        if let Some(pr) = plan.record {
            rows.push(Json::Obj(vec![
                ("pr".into(), num(pr)),
                ("workload".into(), Json::Str(plan.workload.clone())),
                ("metric".into(), Json::Str(m.name.clone())),
                ("better".into(), Json::Str(m.better.clone())),
                ("parent".into(), Json::Str(commit.clone())),
                (
                    "seeds".into(),
                    Json::Arr(seeds.iter().map(|&s| num(s)).collect()),
                ),
                ("seconds".into(), num(plan.seconds)),
                ("pairs".into(), num(plan.pairs as u64)),
                ("pairs_better".into(), num(won as u64)),
                ("parent_median".into(), Json::Num(pm)),
                ("change_median".into(), Json::Num(cm)),
                ("parent_values".into(), nums(p)),
                ("change_values".into(), nums(c)),
                ("kernel".into(), Json::Str(kernel.clone())),
                ("cpu".into(), Json::Str(cpu.clone())),
            ]));
        }
    }
    if plan.record.is_some() {
        let path = root.join(TRAJECTORY);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|_| "[]".into());
        let Json::Arr(mut all) = Json::parse(&text).map_err(|e| format!("{TRAJECTORY}: {e}"))?
        else {
            return Err(format!("{TRAJECTORY}: not an array"));
        };
        all.extend(rows);
        std::fs::write(&path, render(&all)).map_err(|e| format!("{TRAJECTORY}: {e}"))?;
        println!("ab: recorded {} row(s) in {TRAJECTORY}", metrics.len());
    }
    Ok(())
}

/// The trajectory's file name, at the repo root.
pub const TRAJECTORY: &str = "BENCH_trajectory.json";

/// The trajectory's text: an array with one row a line.
pub fn render(rows: &[Json]) -> String {
    let lines: Vec<String> = rows.iter().map(Json::to_string).collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{"end_to_end": [
        {"name": "readings_per_s", "better": "higher"},
        {"name": "recovery_s", "better": "lower"}]}"#;

    fn row(pr: u64, metric: &str, parent: &str, change: &str, won: u64) -> String {
        format!(
            r#"{{"pr": {pr}, "workload": "w", "metric": "{metric}", "better": "higher", "parent": "abc", "seeds": [1, 2, 3], "seconds": 5, "pairs": 3, "pairs_better": {won}, "parent_median": 2, "change_median": 3, "parent_values": {parent}, "change_values": {change}, "kernel": "k", "cpu": "c"}}"#
        )
    }

    #[test]
    fn json_round_trips_through_its_text() {
        let text = r#"{"a": [1, -2.5, 0.00001, true, null], "b\"\\": "x\ny", "c": {}}"#;
        let json = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&json.to_string()), Ok(json.clone()));
        assert_eq!(
            json.get("a").and_then(Json::arr).map(<[Json]>::len),
            Some(5)
        );
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} x").is_err());
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(pairs_better(&[1.0, 2.0], &[2.0, 2.0], "higher"), 1);
        assert_eq!(pairs_better(&[1.0, 2.0], &[2.0, 1.0], "lower"), 1);
    }

    #[test]
    fn a_valid_trajectory_checks_and_a_broken_one_names_its_rows() {
        let good = row(7, "readings_per_s", "[1, 2, 3]", "[2, 3, 4]", 3);
        let backfilled = row(8, "readings_per_s", "[]", "[]", 2);
        let text = format!("[{good}, {backfilled}]");
        assert_eq!(check(&text, BENCHMARK, "PR 8 (x): claim met\n"), Ok(2));
        // A claim with no row of its PR.
        let missing = check(&text, BENCHMARK, "PR 9 (x): **Claim met**\n").unwrap_err();
        assert!(missing[0].contains("PR 9"), "{missing:?}");
        for (broken, why) in [
            (
                row(7, "readings_per_s", "[1, 2, 3]", "[2, 3, 4]", 1),
                "pairs_better",
            ),
            (
                row(7, "readings_per_s", "[0, 2.5, 3]", "[2, 3, 4]", 3),
                "median",
            ),
            (
                row(7, "readings_per_s", "[1, 2]", "[2, 3]", 2),
                "values for 3 pairs",
            ),
            (row(7, "recovery_s", "[]", "[]", 0), "`better`"),
            (row(7, "rss", "[]", "[]", 0), "no end-to-end metric"),
            (
                good.replace(r#""kernel": "k""#, r#""kernel": """#),
                "no `kernel`",
            ),
        ] {
            let problems = check(&format!("[{broken}]"), BENCHMARK, "").unwrap_err();
            assert!(
                problems.iter().any(|p| p.contains(why)),
                "{why}: {problems:?}"
            );
        }
        let twice = check(&format!("[{good}, {good}]"), BENCHMARK, "").unwrap_err();
        assert!(twice[0].contains("a second row"), "{twice:?}");
        let backwards = check(&format!("[{backfilled}, {good}]"), BENCHMARK, "").unwrap_err();
        assert!(backwards[0].contains("PR 7 after PR 8"), "{backwards:?}");
    }
}

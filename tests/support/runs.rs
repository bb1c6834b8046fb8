//! The raw-alarm runs of checkpoint layout v4 — `w:f:n`, `n` windows
//! from `w` all with flag `f`, `:n` left out for one — as the suites
//! that read checkpoint text damage and rewrite them. Included by path
//! (`#[path = "…/tests/support/runs.rs"] mod runs;`) beside
//! `seeded.rs`.

#![allow(dead_code)]

use super::seeded::TestRng;

/// `text`, a pipeline, shard or collector text of layout v4, as layout
/// v3 wrote it: v3 magics, and every run its `n` one-window tokens.
pub fn as_v3(text: &str) -> String {
    let mut out = String::new();
    for line in text.split_inclusive('\n') {
        match line.strip_prefix("raw ") {
            Some(runs) if runs.trim_end() != "-" => {
                out.push_str("raw");
                for (w, flag, n) in runs.trim_end().split(' ').map(run) {
                    for v in w..w + n {
                        out.push_str(&format!(" {v}:{}", u8::from(flag)));
                    }
                }
                out.push('\n');
            }
            _ => out.push_str(line),
        }
    }
    out.replace("sentinet-pipeline v4\n", "sentinet-pipeline v3\n")
        .replace("sentinet-checkpoint v4\n", "sentinet-checkpoint v3\n")
}

/// One run token as `(w, f, n)`.
fn run(token: &str) -> (u64, bool, u64) {
    let parts: Vec<&str> = token.split(':').collect();
    let num = |s: &str| s.parse::<u64>().unwrap_or_else(|_| panic!("run `{token}`"));
    let n = parts.get(2).map_or(1, |n| num(n));
    (num(parts[0]), parts[1] == "1", n)
}

fn token((w, flag, n): (u64, bool, u64)) -> String {
    match n {
        1 => format!("{w}:{}", u8::from(flag)),
        n => format!("{w}:{}:{n}", u8::from(flag)),
    }
}

/// One damaged variant of a text, and what a reader must make of it.
pub struct Damage {
    /// What was done, and at which line.
    pub what: String,
    /// The damaged text.
    pub text: String,
    /// The 1-based line of the damaged `raw` line.
    pub line: usize,
    /// Whether the text is to be refused, `Malformed` at [`Damage::line`];
    /// otherwise it is valid and re-encodes to itself.
    pub refused: bool,
    /// Whether its shard section alone, which states no window count,
    /// is to be refused.
    pub shard_refused: bool,
}

impl Damage {
    /// Whether a reader's `answer` to `input` — this text or its shard
    /// section, to be refused at `line` when `refused` — is right:
    /// given as the text it re-encodes to, or the line of the
    /// `Malformed` it returned (`None` for any other error).
    pub fn check(
        &self,
        input: &str,
        refused: bool,
        line: usize,
        answer: Result<String, Option<usize>>,
    ) -> Result<(), String> {
        let what = &self.what;
        match answer {
            Err(Some(at)) if refused && at == line => Ok(()),
            Ok(text) if !refused && text == input => Ok(()),
            Ok(_) if refused => Err(format!("{what}: read, not refused at line {line}")),
            Ok(_) => Err(format!("{what}: re-encoded to other bytes")),
            Err(at) if refused => Err(format!("{what}: refused at {at:?}, not at line {line}")),
            Err(at) => Err(format!("{what}: refused at {at:?}, though valid")),
        }
    }
}

/// One damaged variant of `text` (a pipeline or collector text of
/// layout v4 with at least one non-empty `raw` line): a run of no
/// windows or of `u64::MAX`, a run past the last window, runs out of
/// order or overlapping, a run of one written with its length, a run
/// split in two, more windows than the text's `windows` line states, a
/// three-part token in the same text as v3 wrote it, or — still valid —
/// the `windows` line raised to a huge count and the last run made as
/// long as the new count allows.
pub fn damage_runs(rng: &mut TestRng, text: &str) -> Damage {
    let mut windows: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("windows "))
        .and_then(|n| n.parse().ok())
        .expect("a `windows` line");
    let kind = rng.usize_in(0, 10);
    let text = if kind == 8 {
        as_v3(text)
    } else {
        text.to_string()
    };
    let mut lines: Vec<String> = text.split('\n').map(str::to_string).collect();
    let raws: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("raw ") && lines[i] != "raw -")
        .collect();
    let at = raws[rng.usize_in(0, raws.len())];
    let mut runs: Vec<(u64, bool, u64)> = lines[at][4..].split(' ').map(run).collect();
    let i = rng.usize_in(0, runs.len());
    let (w, flag, n) = runs[i];
    let end = |r: (u64, bool, u64)| r.0 + r.2;
    // A token no run is written as, refused whatever the window count.
    let token_damage = |mut lines: Vec<String>, what: &str, token: String| {
        let mut tokens: Vec<String> = runs.iter().map(|&r| self::token(r)).collect();
        tokens[i] = token;
        lines[at] = format!("raw {}", tokens.join(" "));
        finish(lines, at, what, true, true)
    };
    let what = match kind {
        0 => {
            runs[i].2 = 0;
            "a run of no windows"
        }
        1 => {
            runs[i].2 = u64::MAX;
            "a run of u64::MAX windows"
        }
        2 => {
            let from_top = rng.range(0..1_000);
            runs[i] = (
                u64::MAX - from_top,
                flag,
                from_top + rng.range(1..1_000) + 1,
            );
            "a run past the last window"
        }
        3 if runs.len() > 1 => {
            let j = if i + 1 < runs.len() { i + 1 } else { i - 1 };
            runs.swap(i, j);
            "two runs out of order"
        }
        3 | 4 => {
            // The next run starts inside this one, or a copy follows it.
            match runs.get(i + 1).copied() {
                Some(next) => runs[i + 1].0 = rng.range(w..end(runs[i]).min(next.0)),
                None => runs.push(runs[i]),
            }
            "overlapping runs"
        }
        5 => {
            let last = runs[runs.len() - 1];
            let total: u64 = runs.iter().map(|r| r.2).sum();
            let more = windows - total + rng.range(1..1_000);
            runs.push((end(last), !last.1, more));
            "more windows than processed"
        }
        6 if n == 1 => {
            let token = format!("{w}:{}:1", u8::from(flag));
            return token_damage(lines, "a run of one written with its length", token);
        }
        6 | 7 if n > 1 => {
            let k = rng.range(1..n);
            runs[i].2 = k;
            runs.insert(i + 1, (w + k, flag, n - k));
            "a run split in two"
        }
        6 | 7 => {
            runs[i].2 = 0;
            "a run of no windows"
        }
        8 => {
            let parts = rng.range(1u64..4);
            let token = format!("{w}:{}:{parts}", u8::from(flag));
            return token_damage(lines, "a three-part token under a v3 magic", token);
        }
        _ => {
            // Up to `u64::MAX` windows: far more than a decoder could
            // hold a pair a window for.
            let last = runs.len() - 1;
            let (w, _, n) = runs[last];
            let total: u64 = runs.iter().map(|r| r.2).sum();
            runs[last].2 = u64::MAX - w - rng.range(0..1_000);
            windows = (total - n + runs[last].2).saturating_add(rng.range(0..3));
            let windows_at = lines.iter().position(|l| l.starts_with("windows "));
            lines[windows_at.expect("a `windows` line")] = format!("windows {windows}");
            "the windows line raised and the last run as long as it allows"
        }
    };
    let refused_as_shard = !well_formed(&runs);
    let total = runs.iter().try_fold(0u64, |sum, r| sum.checked_add(r.2));
    let refused = refused_as_shard || total.is_none_or(|total| total > windows);
    let tokens: Vec<String> = runs.iter().map(|&r| token(r)).collect();
    lines[at] = format!("raw {}", tokens.join(" "));
    finish(lines, at, what, refused, refused_as_shard)
}

/// Whether `runs` are runs a sensor writes: each of at least one
/// window, none past `u64::MAX`, each after the one before and not its
/// continuation.
fn well_formed(runs: &[(u64, bool, u64)]) -> bool {
    let end = |r: &(u64, bool, u64)| r.0.checked_add(r.2);
    runs.iter().all(|r| r.2 > 0 && end(r).is_some())
        && runs
            .windows(2)
            .all(|p| end(&p[0]).is_some_and(|e| e < p[1].0 || e == p[1].0 && p[0].1 != p[1].1))
}

fn finish(lines: Vec<String>, at: usize, what: &str, refused: bool, shard_refused: bool) -> Damage {
    Damage {
        what: format!("{what} at line {}: `{}`", at + 1, lines[at]),
        text: lines.join("\n"),
        line: at + 1,
        refused,
        shard_refused,
    }
}

//! The project lint engine.
//!
//! Nineteen textual lints over the workspace's library crates, built
//! on the masked source view of [`crate::lexer`] — no rustc plugin,
//! fully offline. Findings are suppressed inline with
//! `// sentinet-allow(lint-name): reason` on the same line or on the
//! comment block directly above; the reason is mandatory.
//!
//! | lint | fires on |
//! |---|---|
//! | `unwrap-used` | `.unwrap()` in library code |
//! | `expect-used` | `.expect(…)` in library code |
//! | `panic-used` | `panic!` / `unreachable!` / `todo!` / `unimplemented!` |
//! | `dbg-used` | `dbg!` / `println!` / `print!` / `eprintln!` / `eprint!` |
//! | `float-eq` | `==` / `!=` with a float-literal operand |
//! | `unseeded-rng` | `thread_rng` / `from_entropy` / `rand::random` |
//! | `missing-forbid-unsafe` | `lib.rs` without `#![forbid(unsafe_code)]` |
//! | `missing-deny-docs` | `lib.rs` without `#![deny(missing_docs)]` |
//! | `hot-path-alloc` | allocation markers in registered hot functions |
//! | `thread-spawn` | `thread::spawn` outside `crates/engine` / `crates/gateway` |
//! | `resume-unwind` | `resume_unwind` outside the engine supervisor |
//! | `unbounded-channel` | `unbounded` channels outside the engine supervisor |
//! | `net-outside-gateway` | `std::net` / `std::os::unix::net` outside `crates/gateway` |
//! | `socket-read-timeout` | socket reads in a file that never sets a read timeout |
//! | `io-outside-vfs` | raw filesystem mutation outside `gateway/src/vfs.rs` |
//! | `ack-ordering` | `Ack`/`AckUpTo` built with no durability check first, or built in gateway code outside `protocol.rs` |
//! | `partition-map-mutation` | `.commit_owner(` / `.commit_health(` / `.split_at(` / `.transfer(` outside the federation commit path |
//! | `codec-alloc` | in a text codec file: `push_str(&format!(…))`, a non-`pub` `fn … -> String` helper, or — outside the one `Reader`/`Fields` kit — `.lines()`, `from_str_radix`, a non-literal `with_capacity` |
//! | `stale-suppression` | `sentinet-allow` comment that no longer suppresses any finding |
//!
//! Test code (`#[cfg(test)] mod`s and `#[test]` fns) is exempt from
//! all except the header lints, and the `cli`/`bench` crates are
//! exempt from the panic-family, `dbg-used` and header lints (they are
//! terminal programs where aborting and printing are the interface).
//! `assert!`/`debug_assert!` are deliberately allowed: validated
//! preconditions are part of the API contract. Crash recovery is the
//! engine supervisor's monopoly: everywhere else, a worker panic must
//! surface as a typed `ShardError` (never be re-raised) and channels
//! must be bounded so a stuck consumer back-pressures instead of
//! buffering without limit. Live network I/O is likewise the gateway's
//! monopoly: raw sockets elsewhere would bypass its framing, dedup,
//! WAL, and backpressure, and any file naming a socket stream type
//! that reads from it must configure a read timeout so a dead peer
//! cannot wedge a thread forever. Durable file mutation is the storage
//! layer's monopoly (`io-outside-vfs`): a raw `File::create`,
//! `OpenOptions`, or `std::fs` write outside `gateway::vfs` would
//! bypass the injectable `Vfs` seam, so disk-fault chaos could never
//! reach it and its fsync/crash semantics would go untested.
//!
//! The ack-after-durable rule of the pipelined protocol gets its own
//! dataflow pass (`ack-ordering`). The gateway's sans-IO protocol core
//! returns its replies and the drivers write them verbatim, so
//! *constructing* a `Message::Ack` or `Message::AckUpTo` is emitting
//! it: a function body that builds one must check durability first —
//! an earlier `synced_cursor`/`sync_wal` consultation or a v1
//! `.deliver(` call (durable-before-return by contract) on the same
//! path. Anything else is the eager-ack bug the protocol model checker
//! (`xtask protocol-check`) exists to catch. Inside `crates/gateway`
//! the core (`protocol.rs`) is the only place allowed to build one at
//! all — the wire codec (`frame.rs`, which decodes received acks) and
//! match patterns excepted — so a second emitter cannot grow beside
//! the one the checker explores. The restore-point encoders
//! (`core/src/checkpoint.rs`, `gateway/src/snapshot.rs`,
//! `gateway/src/collector/checkpoint.rs`) run on the gateway's event
//! loop once per checkpoint and write hundreds of kilobytes, so they
//! append to one caller-supplied buffer (`codec-alloc`): a
//! `push_str(&format!(…))` allocates a `String` per line, and a
//! private helper returning `String` (the old `hex(v) -> String`)
//! allocates one per field — both are what `push_hex`/`push_dec` and
//! `write!` into the buffer replaced. The `pub fn encode_* -> String`
//! entry points, which allocate the one buffer, are not helpers. The
//! decode side of the same files (plus `gateway/src/report_codec.rs`
//! and `gateway/src/collector/migration.rs`) reads untrusted bytes
//! through the one line reader in `core/src/checkpoint.rs`, so outside
//! its `impl Reader`/`impl Fields` blocks the lint also flags a second
//! line splitter (`.lines()`), a second hex-float parser
//! (`from_str_radix`) and a `with_capacity` whose argument is not a
//! literal — the shape of the `bootstrap <n>` capacity-overflow panic.
//! And suppression hygiene is enforced by `stale-suppression`: a
//! well-formed `sentinet-allow`
//! comment that no longer silences any actual finding is itself a
//! finding, so fixed code sheds its stale annotations instead of
//! carrying holes a future regression could slip through.

use crate::lexer::{match_brace, SourceMap};
use std::fmt;
use std::path::{Path, PathBuf};

/// Every lint name, for suppression validation.
pub const LINTS: &[&str] = &[
    "unwrap-used",
    "expect-used",
    "panic-used",
    "dbg-used",
    "float-eq",
    "unseeded-rng",
    "missing-forbid-unsafe",
    "missing-deny-docs",
    "hot-path-alloc",
    "thread-spawn",
    "resume-unwind",
    "unbounded-channel",
    "net-outside-gateway",
    "socket-read-timeout",
    "io-outside-vfs",
    "ack-ordering",
    "partition-map-mutation",
    "codec-alloc",
    "stale-suppression",
];

/// Files holding the durable text codecs (`codec-alloc`).
const CODEC_FILES: &[&str] = &[
    "core/src/checkpoint.rs",
    "gateway/src/snapshot.rs",
    "gateway/src/report_codec.rs",
    "gateway/src/collector/checkpoint.rs",
    "gateway/src/collector/migration.rs",
];

/// Needles whose word-bounded occurrence in a fn body marks an ack
/// construction (or pattern) the `ack-ordering` lint anchors on.
const ACK_NEEDLES: &[&str] = &["Message::Ack", "Message::AckUpTo"];

/// Occurrences that dominate an ack release: consulting the fsync
/// watermark, forcing it, or the v1 `.deliver(` path (durable before
/// it returns, by contract).
const ACK_DOMINATORS: &[&str] = &["synced_cursor", "sync_wal", ".deliver("];

/// Functions that must stay lexically allocation-free, keyed by a path
/// suffix of the file that defines them. These are the PR-1 hot paths:
/// the steady-state ingest/window/update code the benches measure.
pub const HOT_PATHS: &[(&str, &[&str])] = &[
    ("cluster/src/online.rs", &["nearest", "update_labeled"]),
    (
        "core/src/window.rs",
        &[
            "push",
            "entry",
            "mean_into",
            "trimmed_mean_with",
            "order_key",
            "represent",
            "label_nearest",
            "voted",
            "elect",
            "identify_states_into",
            "tally_votes",
        ],
    ),
    ("core/src/pipeline.rs", &["push_values", "analyze_window"]),
    (
        "core/src/runtime.rs",
        &["label", "step", "step_sensor", "grow"],
    ),
    ("hmm/src/matrix.rs", &["reinforce"]),
    ("hmm/src/online.rs", &["observe"]),
    // The WAL's per-reading write path: where an extent's frames are
    // cut, and the two encoders that fill them — and the per-reading
    // read path: the arena's push (`push` is also the planner's in
    // `wal.rs`) and the decoders' per-reading step.
    (
        "gateway/src/frame.rs",
        &[
            "encode_data_payload",
            "encode_batch_payload",
            "frame_with",
            "push",
            "value_bits",
            "reading",
        ],
    ),
    ("gateway/src/wal.rs", &["push", "encode_run"]),
    // A run's way from a batch's arena to the window: the run offer and
    // its per-reading step, the slab's insert, release and compaction,
    // the run admit around them with its liveness update, the released
    // reading's sanitize-and-push, the slice check — on the client, the
    // push into the open batch — and the reply drain's encoder.
    (
        "gateway/src/reorder.rs",
        &[
            "offer_run",
            "admit",
            "insert",
            "pop_front",
            "release_through",
        ],
    ),
    (
        "gateway/src/collector/admission.rs",
        &["admit_run", "take", "heard", "update"],
    ),
    ("sim/src/sanitize.rs", &["check"]),
    ("gateway/src/client.rs", &["send"]),
    ("gateway/src/server.rs", &["encode"]),
    // The one part of a restore point the event loop still runs.
    (
        "gateway/src/collector/checkpoint.rs",
        &["stage_restore_point"],
    ),
];

/// Allocation markers searched inside hot-path function bodies.
/// `Vec::new()`/`.collect()` into pre-sized scratch are not markers:
/// the hot bodies reuse recycled buffers, and an empty `Vec::new` does
/// not touch the allocator.
const ALLOC_MARKERS: &[&str] = &[
    "vec![",
    ".to_vec()",
    ".to_owned()",
    ".to_string()",
    "String::from(",
    "format!",
    "Box::new(",
    "with_capacity(",
    ".clone()",
];

/// Crates whose code is a terminal program rather than a library.
const EXEMPT_CRATES: &[&str] = &["cli", "bench"];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Lint name.
    pub lint: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.lint,
            self.message
        )
    }
}

/// What the lint engine knows about the file being checked.
#[derive(Debug, Clone, Default)]
pub struct FileContext {
    /// The file belongs to an exempt (terminal-program) crate.
    pub exempt_crate: bool,
    /// The file is a crate root (`lib.rs`) subject to header lints.
    pub is_lib_root: bool,
    /// The file belongs to `crates/engine` (may spawn threads).
    pub engine_crate: bool,
    /// The file belongs to `crates/gateway` (may spawn threads and
    /// open sockets — live I/O is its monopoly).
    pub gateway_crate: bool,
    /// The file belongs to `crates/controller` (drives collectors over
    /// the gateway's live transports, so it shares the socket grant).
    pub controller_crate: bool,
    /// The file is the federation commit path
    /// (`controller/src/federation.rs`), the one place allowed to
    /// mutate partition-map ownership or health.
    pub controller_commit_file: bool,
    /// The file is the engine supervisor (may resume unwinds and own
    /// unbounded channels as part of crash recovery).
    pub supervisor_file: bool,
    /// The file is the storage abstraction (`gateway/src/vfs.rs`),
    /// the one place allowed to touch the real filesystem.
    pub vfs_file: bool,
    /// The file is the gateway's protocol core
    /// (`gateway/src/protocol.rs`), the one place in the gateway
    /// allowed to construct an ack reply.
    pub protocol_core_file: bool,
    /// The file is the wire codec (`gateway/src/frame.rs`): decoding a
    /// received ack constructs one, which is not an emission.
    pub wire_codec_file: bool,
    /// The file holds a durable text codec: its encoder appends to the
    /// caller's buffer instead of allocating per line or field, and its
    /// decoder reads through the one line reader.
    pub codec_file: bool,
    /// Hot-path function names registered for this file.
    pub hot_functions: Vec<String>,
}

impl FileContext {
    /// Builds the context for a workspace file at `path` (used by the
    /// directory walker; tests construct contexts directly).
    pub fn for_path(path: &Path) -> Self {
        let p = path.to_string_lossy().replace('\\', "/");
        let crate_name = p
            .split("crates/")
            .nth(1)
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("");
        let hot_functions = HOT_PATHS
            .iter()
            .find(|(suffix, _)| p.ends_with(suffix))
            .map(|(_, fns)| fns.iter().map(|s| s.to_string()).collect())
            .unwrap_or_default();
        Self {
            exempt_crate: EXEMPT_CRATES.contains(&crate_name),
            is_lib_root: p.ends_with("src/lib.rs"),
            engine_crate: crate_name == "engine",
            gateway_crate: crate_name == "gateway",
            controller_crate: crate_name == "controller",
            controller_commit_file: p.ends_with("controller/src/federation.rs"),
            supervisor_file: p.ends_with("engine/src/supervisor.rs"),
            vfs_file: p.ends_with("gateway/src/vfs.rs"),
            protocol_core_file: p.ends_with("gateway/src/protocol.rs"),
            wire_codec_file: p.ends_with("gateway/src/frame.rs"),
            codec_file: CODEC_FILES.iter().any(|suffix| p.ends_with(suffix)),
            hot_functions,
        }
    }
}

/// Runs every lint over one file.
pub fn lint_source(path: &Path, source: &str, ctx: &FileContext) -> Vec<Finding> {
    let map = SourceMap::new(source);
    let mut findings = Vec::new();
    // Suppression lines that actually silenced a finding; whatever is
    // left over at the end is stale.
    let mut used_suppressions: std::collections::BTreeSet<usize> =
        std::collections::BTreeSet::new();
    let mut push = |map: &SourceMap, offset: usize, lint: &str, message: String| {
        let line = map.line_of(offset);
        match map.covering_suppression(lint, line) {
            Some(sup_line) => {
                used_suppressions.insert(sup_line);
            }
            None => findings.push(Finding {
                file: path.to_path_buf(),
                line,
                lint: lint.to_string(),
                message,
            }),
        }
    };

    // Panic-family, dbg and rng lints: library code only, tests exempt.
    if !ctx.exempt_crate {
        for offset in find_all(&map.masked, ".unwrap()") {
            if !map.in_test_region(offset) {
                push(
                    &map,
                    offset,
                    "unwrap-used",
                    "`.unwrap()` in library code; return a typed error or justify with sentinet-allow".into(),
                );
            }
        }
        for offset in find_all(&map.masked, ".expect(") {
            if !map.in_test_region(offset) {
                push(
                    &map,
                    offset,
                    "expect-used",
                    "`.expect(…)` in library code; return a typed error or justify with sentinet-allow".into(),
                );
            }
        }
        for mac in ["panic!", "unreachable!", "todo!", "unimplemented!"] {
            for offset in find_macro(&map.masked, mac) {
                if !map.in_test_region(offset) {
                    push(
                        &map,
                        offset,
                        "panic-used",
                        format!("`{mac}` in library code; prefer a typed error (assert!/debug_assert! are fine)"),
                    );
                }
            }
        }
        for mac in ["dbg!", "println!", "print!", "eprintln!", "eprint!"] {
            for offset in find_macro(&map.masked, mac) {
                if !map.in_test_region(offset) {
                    push(
                        &map,
                        offset,
                        "dbg-used",
                        format!("`{mac}` in library code; return data instead of printing"),
                    );
                }
            }
        }
    }

    // Float equality and unseeded RNG apply everywhere outside tests.
    for (offset, op, lhs, rhs) in find_float_eq(&map.masked) {
        if !map.in_test_region(offset) {
            push(
                &map,
                offset,
                "float-eq",
                format!("float literal compared with `{op}` (`{lhs} {op} {rhs}`); use an epsilon or total_cmp"),
            );
        }
    }
    for needle in ["thread_rng", "from_entropy", "rand::random"] {
        for offset in find_word(&map.masked, needle) {
            if !map.in_test_region(offset) {
                push(
                    &map,
                    offset,
                    "unseeded-rng",
                    format!("`{needle}` breaks reproducibility; seed a StdRng explicitly"),
                );
            }
        }
    }

    // Crate-root header lints (never suppressible by test regions).
    if ctx.is_lib_root && !ctx.exempt_crate {
        if !map.masked.contains("#![forbid(unsafe_code)]") {
            push(
                &map,
                0,
                "missing-forbid-unsafe",
                "crate root lacks `#![forbid(unsafe_code)]`".into(),
            );
        }
        if !map.masked.contains("#![deny(missing_docs)]") {
            push(
                &map,
                0,
                "missing-deny-docs",
                "crate root lacks `#![deny(missing_docs)]`".into(),
            );
        }
    }

    // Hot-path allocation lint: registered functions only.
    for func in &ctx.hot_functions {
        for (open, close) in function_bodies(&map.masked, func) {
            if map.in_test_region(open) {
                continue;
            }
            let body = &map.masked[open..close];
            for marker in ALLOC_MARKERS {
                for pos in find_all(body, marker) {
                    push(
                        &map,
                        open + pos,
                        "hot-path-alloc",
                        format!(
                            "`{marker}` inside hot-path fn `{func}` (registered allocation-free)"
                        ),
                    );
                }
            }
        }
    }

    // Thread spawning is shared between the engine (shard workers) and
    // the gateway (socket accept/reader threads).
    if !ctx.engine_crate && !ctx.gateway_crate {
        for offset in find_all(&map.masked, "thread::spawn") {
            if !map.in_test_region(offset) {
                push(
                    &map,
                    offset,
                    "thread-spawn",
                    "`thread::spawn` outside crates/engine or crates/gateway; route concurrency through them"
                        .into(),
                );
            }
        }
    }

    // Live network I/O is the gateway's monopoly: raw sockets anywhere
    // else would bypass its framing, dedup, WAL, and backpressure. The
    // controller tier is admitted — it federates collectors over the
    // gateway's own transports and needs the socket types in scope.
    if !ctx.gateway_crate && !ctx.controller_crate {
        for needle in ["std::net", "std::os::unix::net"] {
            for offset in find_all(&map.masked, needle) {
                if !map.in_test_region(offset) {
                    push(
                        &map,
                        offset,
                        "net-outside-gateway",
                        format!(
                            "`{needle}` outside crates/gateway; route live I/O through the gateway"
                        ),
                    );
                }
            }
        }
    }

    // Sockets must never block forever: a file that names a socket
    // stream type and reads from it must configure a read timeout,
    // otherwise a dead peer wedges the reading thread. One finding per
    // file, anchored at the first read call.
    let names_socket = ["TcpStream", "UnixStream"]
        .iter()
        .flat_map(|w| find_word(&map.masked, w))
        .any(|offset| !map.in_test_region(offset));
    if names_socket && !map.masked.contains("set_read_timeout") {
        let mut reads: Vec<usize> = [".read(", ".read_exact(", ".read_to_end("]
            .iter()
            .flat_map(|n| find_all(&map.masked, n))
            .filter(|&offset| !map.in_test_region(offset))
            .collect();
        reads.sort_unstable();
        if let Some(&first) = reads.first() {
            push(
                &map,
                first,
                "socket-read-timeout",
                "blocking socket read in a file that never calls `set_read_timeout`; a dead peer would wedge this thread".into(),
            );
        }
    }

    // Durable file mutation is the storage layer's monopoly: a raw
    // filesystem write outside `gateway::vfs` bypasses the injectable
    // seam, so disk-fault chaos (ENOSPC, failed fsync, torn writes)
    // could never reach it. Reads are deliberately not flagged — only
    // mutation needs fault coverage to protect durability.
    if !ctx.vfs_file {
        for needle in [
            "File::create(",
            "OpenOptions::new(",
            "fs::write(",
            "fs::rename(",
            "fs::remove_file(",
            "fs::create_dir_all(",
            "fs::remove_dir_all(",
        ] {
            for offset in find_macro(&map.masked, needle) {
                if !map.in_test_region(offset) {
                    push(
                        &map,
                        offset,
                        "io-outside-vfs",
                        format!(
                            "`{needle}…)` outside gateway::vfs; route durable writes through the Vfs trait so fault injection covers them"
                        ),
                    );
                }
            }
        }
    }

    // Crash recovery is the supervisor's monopoly: panics must surface
    // as typed errors (not be re-raised) and channels must be bounded
    // so a stuck consumer back-pressures instead of buffering forever.
    if !ctx.supervisor_file {
        for offset in find_word(&map.masked, "resume_unwind") {
            if !map.in_test_region(offset) {
                push(
                    &map,
                    offset,
                    "resume-unwind",
                    "`resume_unwind` outside the engine supervisor; surface the crash as a typed ShardError instead".into(),
                );
            }
        }
        for offset in find_word(&map.masked, "unbounded") {
            if !map.in_test_region(offset) {
                push(
                    &map,
                    offset,
                    "unbounded-channel",
                    "unbounded channel outside the engine supervisor; use `bounded` with an explicit capacity".into(),
                );
            }
        }
    }

    // Ack-ordering: a fn body that constructs an Ack/AckUpTo (match
    // patterns are not constructions) must consult durability first on
    // the same path, and in the gateway only the protocol core may
    // construct one at all. One finding per body, anchored at the
    // first construction; nested fns are claimed innermost-first so an
    // inner violation is not double-counted through its enclosing body.
    let mut claimed_anchors: Vec<usize> = Vec::new();
    let mut bodies = if ctx.wire_codec_file {
        Vec::new()
    } else {
        all_function_bodies(&map.masked)
    };
    bodies.sort_by_key(|&(open, close)| close - open);
    for (open, close) in bodies {
        if map.in_test_region(open) {
            continue;
        }
        let body = &map.masked[open..close];
        let anchor = ACK_NEEDLES
            .iter()
            .flat_map(|n| {
                find_word(body, n)
                    .into_iter()
                    .filter(|&pos| !is_pattern(body, pos + n.len()))
            })
            .min();
        let Some(anchor) = anchor else {
            continue;
        };
        if claimed_anchors.contains(&(open + anchor)) {
            continue;
        }
        claimed_anchors.push(open + anchor);
        if ctx.gateway_crate && !ctx.protocol_core_file {
            push(
                &map,
                open + anchor,
                "ack-ordering",
                "Ack/AckUpTo constructed in gateway code outside `protocol.rs`; emit acks through the protocol core so the model checker explores them".into(),
            );
            continue;
        }
        let dominated = ACK_DOMINATORS
            .iter()
            .flat_map(|d| find_all(body, d))
            .any(|pos| pos < anchor);
        if !dominated {
            push(
                &map,
                open + anchor,
                "ack-ordering",
                "Ack/AckUpTo constructed with no dominating `synced_cursor`/`sync_wal` check; an unsynced crash would lose acked data".into(),
            );
        }
    }

    // Partition ownership, health and range transitions are the
    // federation commit path's monopoly: a `.commit_owner(`/
    // `.commit_health(` call anywhere else could re-assign a partition
    // without fencing the old owner or recording the epoch bump, and a
    // `.split_at(`/`.transfer(` could move a sensor range without the
    // two-phase cut/adopt handoff — either silently forks the fleet's
    // view of who may ack.
    if !ctx.controller_commit_file {
        for needle in [
            ".commit_owner(",
            ".commit_health(",
            ".split_at(",
            ".transfer(",
        ] {
            for offset in find_all(&map.masked, needle) {
                if !map.in_test_region(offset) {
                    push(
                        &map,
                        offset,
                        "partition-map-mutation",
                        format!(
                            "`{needle}…)` outside controller::federation; route ownership/health/range transitions through the federation commit path"
                        ),
                    );
                }
            }
        }
    }

    // Text codecs append to one caller-supplied buffer: no `String` per
    // line (`push_str(&format!(`) and none per field (a helper
    // returning `String`); the `pub fn` entry points that allocate the
    // buffer itself are exempt. And they decode through the one reader:
    // outside its own `impl` blocks, no second line splitter or
    // hex-float parser, and no allocation sized by a computed value.
    if ctx.codec_file {
        let reader = reader_kit(&map.masked);
        let mut flag = |offset: usize, message: String| {
            if !map.in_test_region(offset) {
                push(&map, offset, "codec-alloc", message);
            }
        };
        for offset in find_all(&map.masked, "push_str(&format!(") {
            flag(offset, "`push_str(&format!(…))` in a text codec allocates a String per line; `write!` into the buffer".into());
        }
        for offset in find_string_helpers(&map.masked) {
            flag(offset, "helper returning `String` in a text codec allocates per call; append to the caller's buffer (`push_hex`, `push_dec`, `write!`)".into());
        }
        let outside_reader = |offset: &usize| {
            !reader
                .iter()
                .any(|(open, close)| (open..close).contains(&offset))
        };
        for needle in [".lines()", "from_str_radix"] {
            for offset in find_all(&map.masked, needle)
                .into_iter()
                .filter(outside_reader)
            {
                flag(offset, format!("`{needle}` in a text codec outside the line reader; decode through `core::checkpoint::Reader`"));
            }
        }
        for offset in find_all(&map.masked, "with_capacity(")
            .into_iter()
            .filter(outside_reader)
        {
            let arg = &map.masked[offset + "with_capacity(".len()..];
            let arg = &arg[..arg.find(')').unwrap_or(arg.len())];
            if !arg.bytes().all(|b| b.is_ascii_digit() || b == b'_') {
                flag(offset, format!("`with_capacity({arg})` in a text codec: a decoder must not size an allocation from its input; grow as rows are read"));
            }
        }
    }

    // Malformed or unknown suppressions are findings themselves, so a
    // typo cannot silently disable a lint.
    for sup in &map.suppressions {
        if !LINTS.contains(&sup.lint.as_str()) {
            findings.push(Finding {
                file: path.to_path_buf(),
                line: sup.line,
                lint: "unknown-suppression".into(),
                message: format!("sentinet-allow names unknown lint `{}`", sup.lint),
            });
        } else if !sup.has_reason {
            findings.push(Finding {
                file: path.to_path_buf(),
                line: sup.line,
                lint: "unknown-suppression".into(),
                message: format!(
                    "sentinet-allow({}) lacks a reason; write `// sentinet-allow({}): why`",
                    sup.lint, sup.lint
                ),
            });
        }
    }

    // Suppression hygiene: a well-formed sentinet-allow that silenced
    // nothing is stale — the code it excused was fixed or moved, and
    // leaving the annotation behind would mask a future regression.
    // (Malformed suppressions were already reported above.)
    for sup in &map.suppressions {
        if !LINTS.contains(&sup.lint.as_str()) || !sup.has_reason {
            continue;
        }
        if used_suppressions.contains(&sup.line) {
            continue;
        }
        if let Some(cover) = map.covering_suppression("stale-suppression", sup.line) {
            used_suppressions.insert(cover);
            continue;
        }
        findings.push(Finding {
            file: path.to_path_buf(),
            line: sup.line,
            lint: "stale-suppression".into(),
            message: format!(
                "sentinet-allow({}) no longer suppresses any finding; remove it",
                sup.lint
            ),
        });
    }

    findings.sort_by(|a, b| (a.line, &a.lint).cmp(&(b.line, &b.lint)));
    findings
}

/// Lints every `.rs` file under `crates/*/src` of `repo_root`.
pub fn lint_workspace(repo_root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    let crates_dir = repo_root.join("crates");
    for entry in std::fs::read_dir(&crates_dir)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    files.sort();
    let mut findings = Vec::new();
    for file in files {
        let source = std::fs::read_to_string(&file)?;
        let ctx = FileContext::for_path(&file);
        let rel = file.strip_prefix(repo_root).unwrap_or(&file).to_path_buf();
        findings.extend(lint_source(&rel, &source, &ctx));
    }
    Ok(findings)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Byte offsets of every occurrence of `needle` in `hay`.
fn find_all(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = hay[from..].find(needle) {
        out.push(from + pos);
        from += pos + needle.len();
    }
    out
}

/// Macro invocations: the name must start a token (not `.foo!` or part
/// of a longer identifier like `eprintln!` when searching `print!`).
fn find_macro(hay: &str, mac: &str) -> Vec<usize> {
    find_all(hay, mac)
        .into_iter()
        .filter(|&pos| {
            let before = hay[..pos].bytes().next_back();
            !matches!(before, Some(b) if b.is_ascii_alphanumeric() || b == b'_' || b == b'.')
        })
        .collect()
}

/// Identifier-ish occurrences: not embedded in a longer identifier.
fn find_word(hay: &str, word: &str) -> Vec<usize> {
    find_all(hay, word)
        .into_iter()
        .filter(|&pos| {
            let before = hay[..pos].bytes().next_back();
            let after = hay.as_bytes().get(pos + word.len());
            let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
            !matches!(before, Some(b) if ident(b)) && !matches!(after, Some(&b) if ident(b))
        })
        .collect()
}

/// Offsets of `fn` keywords whose signature returns exactly `String`
/// and which are not plain `pub fn` — the codec files' public
/// `encode_* -> String` entry points own the one buffer; anything
/// narrower is a helper.
fn find_string_helpers(masked: &str) -> Vec<usize> {
    find_word(masked, "fn")
        .into_iter()
        .filter(|&pos| {
            let rest = &masked[pos..];
            let sig = &rest[..rest.find(['{', ';']).unwrap_or(rest.len())];
            let returns_string = sig
                .rsplit_once("->")
                .is_some_and(|(_, ret)| ret.split_whitespace().eq(["String"]));
            let line_start = masked[..pos].rfind('\n').map_or(0, |nl| nl + 1);
            returns_string && masked[line_start..pos].trim() != "pub"
        })
        .collect()
}

/// Brace-matched `impl` blocks of the one line reader (`Reader` and
/// its `Fields`), the only place a text codec file may split lines or
/// parse hex floats.
fn reader_kit(masked: &str) -> Vec<(usize, usize)> {
    find_word(masked, "impl")
        .into_iter()
        .filter_map(|pos| {
            let open = pos + masked[pos..].find('{')?;
            let header = &masked[pos..open];
            let is_kit = ["Reader<", "Fields<"].iter().any(|t| header.contains(t));
            let close = match_brace(masked, open)?;
            is_kit.then_some((open, close + 1))
        })
        .collect()
}

/// `==`/`!=` comparisons where either operand is a float literal.
/// Returns `(offset, operator, lhs, rhs)`.
fn find_float_eq(masked: &str) -> Vec<(usize, &'static str, String, String)> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for op in ["==", "!="] {
        for pos in find_all(masked, op) {
            // Exclude `<=`, `>=`, `===`-like runs and `!=` inside `=!=`.
            let before = pos.checked_sub(1).map(|i| bytes[i]);
            let after = bytes.get(pos + 2).copied();
            if matches!(before, Some(b'=') | Some(b'<') | Some(b'>') | Some(b'!'))
                || after == Some(b'=')
            {
                continue;
            }
            let lhs = token_before(masked, pos);
            let rhs = token_after(masked, pos + 2);
            if is_float_literal(&lhs) || is_float_literal(&rhs) {
                out.push((pos, if op == "==" { "==" } else { "!=" }, lhs, rhs));
            }
        }
    }
    out.sort_by_key(|&(pos, ..)| pos);
    out
}

fn token_before(hay: &str, end: usize) -> String {
    let bytes = hay.as_bytes();
    let mut i = end;
    while i > 0 && bytes[i - 1] == b' ' {
        i -= 1;
    }
    let stop = i;
    while i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || matches!(bytes[i - 1], b'_' | b'.')) {
        i -= 1;
    }
    hay[i..stop].to_string()
}

fn token_after(hay: &str, start: usize) -> String {
    let bytes = hay.as_bytes();
    let mut i = start;
    while i < bytes.len() && bytes[i] == b' ' {
        i += 1;
    }
    let begin = i;
    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || matches!(bytes[i], b'_' | b'.')) {
        i += 1;
    }
    hay[begin..i].to_string()
}

/// A numeric token that is a float: starts with a digit and has a
/// decimal point, a pure-digit exponent, or an f32/f64 suffix.
fn is_float_literal(token: &str) -> bool {
    let Some(first) = token.bytes().next() else {
        return false;
    };
    if !first.is_ascii_digit() {
        return false;
    }
    if token.contains('.') {
        return true;
    }
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit() || b == b'_');
    if let Some(mantissa) = token
        .strip_suffix("f32")
        .or_else(|| token.strip_suffix("f64"))
    {
        if digits(mantissa) {
            return true;
        }
    }
    match token.split_once(['e', 'E']) {
        Some((mantissa, exponent)) => digits(mantissa) && digits(exponent),
        None => false,
    }
}

/// Whether the struct-literal-shaped text starting at `after` (just
/// past an enum-variant path) is a pattern rather than a construction:
/// its braces are followed — closing parentheses aside — by a match
/// arrow, an or-pattern bar, a guard, or a `let`-style `=`.
fn is_pattern(body: &str, after: usize) -> bool {
    let rest = &body[after..];
    let Some(open) = rest.find(|c: char| !c.is_whitespace()) else {
        return false;
    };
    if !rest[open..].starts_with('{') {
        return false;
    }
    let Some(close) = match_brace(rest, open) else {
        return false;
    };
    let tail = rest[close + 1..].trim_start_matches(|c: char| c.is_whitespace() || c == ')');
    tail.starts_with("=>")
        || tail.starts_with("if ")
        || (tail.starts_with('|') && !tail.starts_with("||"))
        || (tail.starts_with('=') && !tail.starts_with("=="))
}

/// Brace-matched bodies of every `fn` in the masked source, named or
/// not (trait-method declarations without bodies are skipped).
fn all_function_bodies(masked: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for pos in find_word(masked, "fn") {
        let sig_start = pos + 2;
        let Some(open) = masked[sig_start..].find('{').map(|p| sig_start + p) else {
            continue;
        };
        if masked[sig_start..open].contains(';') {
            continue;
        }
        if let Some(close) = match_brace(masked, open) {
            out.push((open, close + 1));
        }
    }
    out
}

/// Brace-matched bodies of every `fn <name>` in the masked source.
fn function_bodies(masked: &str, name: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for pos in find_all(masked, &format!("fn {name}")) {
        // The name must end the identifier: `fn push(` but not `fn push_values(`.
        let after = masked.as_bytes().get(pos + 3 + name.len());
        if matches!(after, Some(&b) if b.is_ascii_alphanumeric() || b == b'_') {
            continue;
        }
        let sig_end = pos + 3 + name.len();
        if let Some(open) = masked[sig_end..].find('{').map(|p| sig_end + p) {
            if masked[sig_end..open].contains(';') {
                continue; // a trait method declaration, no body
            }
            if let Some(close) = match_brace(masked, open) {
                out.push((open, close + 1));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> FileContext {
        FileContext::default()
    }

    fn run(src: &str) -> Vec<Finding> {
        lint_source(Path::new("test.rs"), src, &ctx())
    }

    #[test]
    fn detects_unwrap_outside_tests_only() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod t { fn b() { y.unwrap(); } }\n";
        let f = run(src);
        assert_eq!(f.iter().filter(|f| f.lint == "unwrap-used").count(), 1);
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let f = run("fn a() { x.unwrap_or(1); x.unwrap_or_default(); }\n");
        assert!(f.iter().all(|f| f.lint != "unwrap-used"));
    }

    #[test]
    fn string_contents_do_not_fire() {
        let f = run("fn a() { let s = \".unwrap() panic! 1.0 == 2.0\"; drop(s); }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn float_eq_needs_float_literal() {
        let f = run("fn a() { if x == 0.0 {} if a == b {} if n == 3 {} }\n");
        assert_eq!(f.iter().filter(|f| f.lint == "float-eq").count(), 1);
    }

    #[test]
    fn comparison_operators_do_not_fire_float_eq() {
        let f = run("fn a() { if x <= 0.0 {} if x >= 1.0 {} }\n");
        assert!(f.iter().all(|f| f.lint != "float-eq"));
    }

    #[test]
    fn suppression_with_reason_silences() {
        let src = "fn a() {\n    // sentinet-allow(unwrap-used): invariant documented\n    x.unwrap();\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn unknown_suppression_is_reported() {
        let src = "// sentinet-allow(no-such-lint): whatever\nfn a() {}\n";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "unknown-suppression");
    }

    #[test]
    fn header_lints_fire_on_lib_root() {
        let mut c = ctx();
        c.is_lib_root = true;
        let f = lint_source(Path::new("crates/x/src/lib.rs"), "//! docs\n", &c);
        let lints: Vec<_> = f.iter().map(|f| f.lint.as_str()).collect();
        assert!(lints.contains(&"missing-forbid-unsafe"));
        assert!(lints.contains(&"missing-deny-docs"));
    }

    #[test]
    fn hot_path_alloc_checks_registered_fn_only() {
        let mut c = ctx();
        c.hot_functions = vec!["push".into()];
        let src =
            "fn push(&mut self) { let v = x.to_vec(); }\nfn other() { let w = y.to_vec(); }\n";
        let f = lint_source(Path::new("w.rs"), src, &c);
        assert_eq!(f.iter().filter(|f| f.lint == "hot-path-alloc").count(), 1);
    }

    #[test]
    fn exempt_crate_skips_panic_family() {
        let mut c = ctx();
        c.exempt_crate = true;
        let f = lint_source(
            Path::new("cli.rs"),
            "fn a() { panic!(); x.unwrap(); }\n",
            &c,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn supervisor_monopoly_lints_fire_elsewhere_only() {
        let src = "fn a(p: P) { let (tx, rx) = unbounded(); std::panic::resume_unwind(p); }\n";
        let f = run(src);
        assert_eq!(f.iter().filter(|f| f.lint == "resume-unwind").count(), 1);
        assert_eq!(
            f.iter().filter(|f| f.lint == "unbounded-channel").count(),
            1
        );
        let mut c = ctx();
        c.supervisor_file = true;
        let f = lint_source(Path::new("crates/engine/src/supervisor.rs"), src, &c);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn raw_fs_mutation_flagged_outside_vfs() {
        let src = "fn a(p: &Path) { std::fs::write(p, b\"x\").ok(); let f = File::create(p); }\n";
        let f = run(src);
        assert_eq!(f.iter().filter(|f| f.lint == "io-outside-vfs").count(), 2);
        let mut c = ctx();
        c.vfs_file = true;
        let f = lint_source(Path::new("crates/gateway/src/vfs.rs"), src, &c);
        assert!(f.is_empty(), "{f:?}");
        // Reads stay unflagged: only mutation needs fault coverage.
        let f = run("fn a(p: &Path) { let s = fs::read_to_string(p); let f = File::open(p); }\n");
        assert!(f.iter().all(|f| f.lint != "io-outside-vfs"), "{f:?}");
    }

    #[test]
    fn ack_ordering_requires_dominating_sync_check() {
        let acks = |f: &[Finding]| f.iter().filter(|f| f.lint == "ack-ordering").count();
        // The eager ack: built with no durability check upstream.
        let bad = "fn reply(out: &mut Vec<Reply>) {\n    out.push(Message::AckUpTo { sensor, seq });\n}\n";
        assert_eq!(acks(&run(bad)), 1);
        // A `synced_cursor` comparison before the ack dominates it: silent.
        let synced = "fn reply(out: &mut Vec<Reply>) {\n    if cursor > self.synced_cursor() { return; }\n    out.push(Message::AckUpTo { sensor, seq });\n}\n";
        assert_eq!(acks(&run(synced)), 0);
        // `.deliver(` ahead of a per-reading Ack also dominates (v1 is
        // durable per the fsync policy before it returns).
        let delivered = "fn reply(out: &mut Vec<Reply>) {\n    let o = collector.deliver(s, q, t, v);\n    out.push(Message::Ack { sensor, seq });\n}\n";
        assert_eq!(acks(&run(delivered)), 0);
        // A check *after* the construction does not dominate it.
        let late = "fn reply(out: &mut Vec<Reply>) {\n    out.push(Message::Ack { sensor, seq });\n    collector.sync_wal();\n}\n";
        assert_eq!(acks(&run(late)), 1);
        // Patterns are not constructions: a client decoding replies, an
        // ignore arm, an `if let`, a `matches!`-style guard.
        let patterns = "fn on_reply(m: Message) {\n    match m {\n        Message::Ack { sensor: s, seq: q } if q == 1 => {}\n        Message::AckUpTo { sensor, seq } => {}\n        Message::Ack { .. } | Message::Nack { .. } => {}\n    }\n    if let Some(Message::AckUpTo { seq, .. }) = last {}\n}\n";
        assert_eq!(acks(&run(patterns)), 0);
    }

    #[test]
    fn ack_construction_in_gateway_belongs_to_the_protocol_core() {
        let acks = |f: &[Finding]| f.iter().filter(|f| f.lint == "ack-ordering").count();
        // Dominated or not, a driver building its own ack is a finding.
        let src = "fn reply(out: &mut Vec<Reply>) {\n    let o = collector.deliver(s, q, t, v);\n    out.push(Message::Ack { sensor, seq });\n}\n";
        let at = |path: &str| {
            lint_source(
                Path::new(path),
                src,
                &FileContext::for_path(Path::new(path)),
            )
        };
        assert_eq!(acks(&at("crates/gateway/src/server.rs")), 1);
        assert_eq!(acks(&at("crates/gateway/src/harness.rs")), 1);
        // The core may (still subject to the dominance rule) …
        assert_eq!(acks(&at("crates/gateway/src/protocol.rs")), 0);
        // … and the codec's decoder builds received acks, not replies.
        assert_eq!(acks(&at("crates/gateway/src/frame.rs")), 0);
    }

    #[test]
    fn stale_suppression_reports_unused_allow() {
        // The allow excuses nothing: the body has no float comparison.
        let src = "// sentinet-allow(float-eq): excused code was rewritten\nfn a(x: f64) -> f64 { x.max(0.0) }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "stale-suppression");
        assert!(f[0].message.contains("sentinet-allow(float-eq)"));
        // A live suppression is not stale.
        let live = "fn a(x: f64) {\n    // sentinet-allow(float-eq): documented tolerance\n    if x == 1.0 {}\n}\n";
        assert!(run(live).is_empty());
        // A stale allow can itself be suppressed, one level deep.
        let excused = "// sentinet-allow(stale-suppression): kept for doc purposes\n// sentinet-allow(float-eq): intentionally stale\nfn a(x: f64) -> f64 { x.max(0.0) }\n";
        assert!(run(excused).is_empty());
        // Reasonless allows are already flagged by suppression-missing-reason;
        // the stale pass skips them rather than double-reporting.
        let reasonless = "// sentinet-allow(float-eq)\nfn a(x: f64) -> f64 { x.max(0.0) }\n";
        let f = run(reasonless);
        assert!(f.iter().all(|f| f.lint != "stale-suppression"), "{f:?}");
    }

    #[test]
    fn partition_map_mutation_flagged_outside_commit_path() {
        let src = "fn adopt(map: &mut PartitionMap) {\n    map.commit_owner(0, 2);\n    map.commit_health(0, PartitionHealth::Ok);\n    if let Ok(q) = map.split_at(0, SensorId(2)) {\n        let _ = map.transfer(q, 0);\n    }\n}\n";
        let f = run(src);
        assert_eq!(
            f.iter()
                .filter(|f| f.lint == "partition-map-mutation")
                .count(),
            4
        );
        // The federation commit path owns these transitions.
        let mut c = ctx();
        c.controller_commit_file = true;
        let f = lint_source(Path::new("crates/controller/src/federation.rs"), src, &c);
        assert!(f.is_empty(), "{f:?}");
        // The definitions themselves (no leading dot) are not calls.
        let defs = "impl PartitionMap {\n    pub fn commit_owner(&mut self, p: PartitionId, epoch: u64) {}\n}\n";
        assert!(run(defs).iter().all(|f| f.lint != "partition-map-mutation"));
    }

    #[test]
    fn codec_alloc_flags_per_line_and_per_field_strings_in_codec_files_only() {
        let src = "fn hex(v: f64) -> String { todo(v) }\n\
                   pub(super) fn text(n: u64) -> String { todo(n) }\n\
                   pub fn encode(s: &Snap) -> String {\n    let mut out = String::new();\n    out.push_str(&format!(\"n {}\\n\", s.n));\n    out\n}\n\
                   pub fn write<W: fmt::Write>(out: &mut W) -> fmt::Result { Ok(()) }\n\
                   fn parse(s: &str) -> Result<String, String> { todo(s) }\n";
        let codec = FileContext {
            codec_file: true,
            ..ctx()
        };
        let f = lint_source(Path::new("checkpoint.rs"), src, &codec);
        let lines: Vec<usize> = f
            .iter()
            .filter(|x| x.lint == "codec-alloc")
            .map(|x| x.line)
            .collect();
        assert_eq!(lines, vec![1, 2, 5], "{f:?}");
        assert!(run(src).iter().all(|x| x.lint != "codec-alloc"));
        assert!(FileContext::for_path(Path::new("crates/gateway/src/snapshot.rs")).codec_file);
        assert!(FileContext::for_path(Path::new("crates/gateway/src/report_codec.rs")).codec_file);
        assert!(
            FileContext::for_path(Path::new("crates/gateway/src/collector/migration.rs"))
                .codec_file
        );
        assert!(!FileContext::for_path(Path::new("crates/gateway/src/wal.rs")).codec_file);
    }

    /// The decode side: a second line splitter, a second hex parser and
    /// an allocation sized by a parsed count must each fail in a codec
    /// file — and only outside the reader kit, only outside tests.
    #[test]
    fn codec_alloc_flags_decoders_that_bypass_the_reader() {
        let src = "impl<'a> Reader<'a> {\n    fn hex(s: &str) { u64::from_str_radix(s, 16); }\n}\n\
                   fn decode(text: &str) {\n    for line in text.lines() {}\n\
                   \x20   let bits = u64::from_str_radix(line, 16);\n\
                   \x20   let points = Vec::with_capacity(count);\n\
                   \x20   let header = String::with_capacity(64);\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t(text: &str) { text.lines(); Vec::<u8>::with_capacity(n); }\n}\n";
        let codec = FileContext {
            codec_file: true,
            ..ctx()
        };
        let f = lint_source(Path::new("snapshot.rs"), src, &codec);
        let lines: Vec<usize> = f
            .iter()
            .filter(|x| x.lint == "codec-alloc")
            .map(|x| x.line)
            .collect();
        assert_eq!(lines, vec![5, 6, 7], "{f:?}");
        assert!(run(src).iter().all(|x| x.lint != "codec-alloc"));
    }

    #[test]
    fn thread_spawn_flagged_outside_engine() {
        let f = run("fn a() { std::thread::spawn(|| {}); }\n");
        assert_eq!(f.iter().filter(|f| f.lint == "thread-spawn").count(), 1);
        let mut c = ctx();
        c.engine_crate = true;
        let f = lint_source(
            Path::new("e.rs"),
            "fn a() { std::thread::spawn(|| {}); }\n",
            &c,
        );
        assert!(f.is_empty());
    }
}

//! `rdms-perfbench`: one end-to-end benchmark for rdms.
//!
//! Three workloads, each a closed loop (the next request goes out only after the reply to
//! the previous one):
//!
//! * `booking-search` — one verification job on the Appendix C booking agency: an
//!   invariant search at depth 5 and an MSO-FO trace property at depth 4, both through
//!   `Explorer::run`. Both are exhaustive deterministic searches, so the workload is
//!   seed-independent by construction.
//! * `inventory-edits` — one edit session on the permit-capped inventory: a cold
//!   `Workspace::check`, then four edits in an order the seed draws, each re-checked.
//! * `serve-audit` — `Check` round trips to the real `rdms-serve` binary over loopback,
//!   two sessions of 1,024 transactions each, then a drain, a restart from the journal
//!   directory and a `Resume` of both sessions.
//!
//! Every answer is compared with the hand-written known answers (`expected.json`). The
//! untraced run (`--trace 0`) reports the end-to-end metrics; the traced run
//! (`--trace 1`) reports the per-layer split, measured by timing calls into each crate's
//! public functions from this benchmark. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.

mod answers;
mod search;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics every untraced run reports, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, in output order. A metric whose
/// layer the workload's requests never call reads 0 (the report says so by name).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("db.guard.calls", "count"),
    ("db.guard.ms", "ms"),
    ("db.phi.calls", "count"),
    ("db.phi.ms", "ms"),
    ("db.index_probes", "count"),
    ("db.index_hit_rate", "share"),
    ("db.relations_shared", "count"),
    ("db.relations_materialized", "count"),
    ("core.apply.ms", "ms"),
    ("core.canon.calls", "count"),
    ("core.canon.ms", "ms"),
    ("core.intern.calls", "count"),
    ("core.intern.ms", "ms"),
    ("core.intern.new_share", "share"),
    ("core.fingerprint.ms", "ms"),
    ("logic.eval.calls", "count"),
    ("logic.eval.ms", "ms"),
    ("checker.explorer.invariant_ms", "ms"),
    ("checker.explorer.property_ms", "ms"),
    ("checker.explorer.overhead_ms", "ms"),
    ("checker.configs_explored", "count"),
    ("checker.dedup_hit_rate", "share"),
    ("checker.peak_frontier", "count"),
    ("checker.threads", "count"),
    ("checker.revision.full_ms", "ms"),
    ("checker.revision.delta_ms", "ms"),
    ("checker.revision.bound_seed_ms", "ms"),
    ("checker.revision.target_ms", "ms"),
    ("checker.revision.noop_ms", "ms"),
    ("checker.revision.re_expansions", "count"),
    ("checker.revision.edges_reused", "count"),
    ("checker.revision.phi_memo_hit_rate", "share"),
    ("checker.incremental.us", "us"),
    ("cert.emit_ms", "ms"),
    ("cert.verify_ms", "ms"),
    ("cert.bytes", "bytes"),
    ("serve.decode_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.frame_bytes", "bytes"),
    ("serve.session_us", "us"),
    ("serve.journal_us", "us"),
    ("serve.fsyncs", "count"),
    ("serve.socket_us", "us"),
    ("serve.drain_ms", "ms"),
    ("serve.boot_ms", "ms"),
    ("serve.checkpoint_bytes", "bytes"),
    ("serve.snapshot_write_ms", "ms"),
    ("serve.snapshot_read_ms", "ms"),
    ("serve.resume_ms", "ms"),
    ("serve.replay_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `rdms-serve` release binary (`serve-audit` only).
    pub server_bin: PathBuf,
    /// Scratch directory inside the checkout: journals, server logs, the span file.
    pub run_dir: PathBuf,
    /// The known-answers file.
    pub answers: PathBuf,
}

const USAGE: &str =
    "usage: rdms-perfbench --workload <booking-search|inventory-edits|serve-audit> \
--seed <n> --seconds <s> --trace <0|1> --server-bin <path> --run-dir <dir> --answers <file>";

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| flags.remove(name).ok_or_else(|| format!("missing {name}"));
    let args = Args {
        workload: take("--workload")?,
        seed: take("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: take("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        server_bin: take("--server-bin")?.into(),
        run_dir: take("--run-dir")?.into(),
        answers: take("--answers")?.into(),
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag {extra}"));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// What a run measured and how many of its answers were right.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    end_to_end: BTreeMap<&'static str, (f64, usize)>,
    per_layer: BTreeMap<&'static str, (f64, usize)>,
    notes: Vec<String>,
}

impl Report {
    /// Count one checked operation; an `Err` is a failure with its reason.
    pub fn outcome(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(reason);
            }
        }
    }

    /// Record an end-to-end metric with the number of samples behind it.
    pub fn end_to_end(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(END_TO_END.iter().any(|(n, _)| *n == name), "{name}");
        self.end_to_end.insert(name, (value, samples));
    }

    /// Record a per-layer metric with the number of samples behind it.
    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.per_layer.insert(name, (value, samples));
    }

    /// A human-readable line printed before the JSON result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn print(&self, args: &Args) {
        let workload = &args.workload;
        for note in &self.notes {
            println!("{workload}: {note}");
        }
        for failure in &self.failures {
            println!("{workload}: FAILED {failure}");
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{workload}: error_rate = {error_rate} share ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        let (list, values) = if args.trace {
            (PER_LAYER, &self.per_layer)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        let mut json = Vec::new();
        for (name, unit) in list {
            let (value, samples) = values.get(name).copied().unwrap_or((0.0, 0));
            let value = if value.is_finite() { value } else { 0.0 };
            if samples == 0 && args.trace {
                println!("{workload}: {name} = 0 {unit} (not exercised on this workload)");
            } else {
                println!("{workload}: {name} = {value} {unit} (n={samples})");
            }
            json.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn own_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("rdms-perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let answers = match answers::Answers::load(&args.answers) {
        Ok(answers) => answers,
        Err(message) => {
            eprintln!("rdms-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let result = match args.workload.as_str() {
        "booking-search" => search::booking(&args, &answers, &mut report),
        "inventory-edits" => search::inventory(&args, &answers, &mut report),
        "serve-audit" => serve::audit(&args, &answers, &mut report),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(message) = result {
        eprintln!("rdms-perfbench: {}: {message}", args.workload);
        return ExitCode::from(1);
    }
    // after the measurements, so its memory does not count in peak_rss_mb
    search::check_inventory_certificate(&answers.inventory_edits, &mut report);
    report.print(&args);
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

//! The two search workloads: `booking-search` (one verification job per request) and
//! `inventory-edits` (one edit-recheck session per request), plus the decomposed replay
//! the traced run uses to split a search by layer.

use crate::answers::{Answers, InventoryState, SearchAnswer};
use crate::stats::{median, per_batch, quantile};
use crate::trace::Tracer;
use crate::{own_peak_rss_mb, Args, Report};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdms_checker::{
    CheckRequest, CheckTarget, Explorer, ExplorerConfig, Reuse, Verdict, Workspace,
};
use rdms_core::fingerprint::dms_fingerprint;
use rdms_core::iso::canonical_config_key;
use rdms_core::{Dms, ExtendedRun, KeyInterner, RecencySemantics};
use rdms_db::{answers_with_constants, DataValue, Query, RelName, Term, Var};
use rdms_logic::msofo::{eval_sentence, MsoFo};
use rdms_logic::templates;
use rdms_workloads::{booking, inventory};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generous configuration budget: no search of either workload comes near it, so no
/// verdict is ever a budget cutoff (the known answers check that).
const MAX_CONFIGS: usize = 200_000;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 32;

/// Batches the latency statistics are taken over (see [`latency_metrics`]), and the
/// fewest requests a batch may hold.
const MAX_BATCHES: usize = 10;
const MIN_BATCH_LEN: usize = 15;

/// The explorer configuration of every job: only the depth, the budget and a fresh
/// private interner differ from the defaults, so each job pays a one-shot user's cold
/// cost.
fn explorer_config(depth: usize) -> ExplorerConfig {
    ExplorerConfig {
        depth,
        max_configs: MAX_CONFIGS,
        interner: Some(Arc::new(KeyInterner::new())),
        ..Default::default()
    }
}

fn is_complete(verdict: &Verdict) -> bool {
    matches!(verdict, Verdict::Holds { complete: true, .. })
}

fn check_search(what: &str, verdict: &Verdict, expected: &SearchAnswer) -> Result<(), String> {
    let stats = verdict.stats();
    let mut wrong = Vec::new();
    if verdict.holds() != expected.holds {
        wrong.push(format!(
            "holds {} (expected {})",
            verdict.holds(),
            expected.holds
        ));
    }
    if is_complete(verdict) != expected.complete {
        wrong.push(format!("complete {}", is_complete(verdict)));
    }
    if stats.configs_explored < expected.min_configs_explored {
        wrong.push(format!(
            "configs_explored {} (expected at least {})",
            stats.configs_explored, expected.min_configs_explored
        ));
    }
    if expected.prefixes_checked != 0 && stats.prefixes_checked != expected.prefixes_checked {
        wrong.push(format!(
            "prefixes_checked {} (expected {})",
            stats.prefixes_checked, expected.prefixes_checked
        ));
    }
    if let Some(cutoff) = stats.cutoff {
        wrong.push(format!("cut off by {cutoff:?}"));
    }
    if wrong.is_empty() {
        Ok(())
    } else {
        Err(format!("{what}: {}", wrong.join(", ")))
    }
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {want:?}"))
    }
}

/// Report `latency_p50_ms` and `throughput_per_s` (and print `latency_p90_ms`) of one run's
/// requests, given as (completion time since the window opened, latency in ms) in
/// completion order. Each is the median over consecutive batches of the statistic within
/// the batch, so a burst of load from outside the benchmark that covers less than half
/// the run does not move it.
fn latency_metrics(report: &mut Report, completions: &[(Duration, f64)]) {
    let n = completions.len();
    let batches = (n / MIN_BATCH_LEN).clamp(1, MAX_BATCHES);
    let latencies: Vec<f64> = completions.iter().map(|&(_, ms)| ms).collect();
    let batched = |statistic: fn(&[f64]) -> f64| median(&per_batch(&latencies, batches, statistic));
    report.end_to_end("latency_p50_ms", batched(median), n);
    report.note(format!(
        "latency_p90_ms = {} ms (n={n})",
        batched(|v| quantile(v, 0.9))
    ));
    // a batch's throughput: its requests over the time from the previous batch's last
    // completion (or the window's opening) to its own last completion
    let throughput: Vec<f64> = (0..batches)
        .map(|b| {
            let (lo, hi) = (b * n / batches, (b + 1) * n / batches);
            let opened = if lo == 0 {
                Duration::ZERO
            } else {
                completions[lo - 1].0
            };
            (hi - lo) as f64 / (completions[hi - 1].0 - opened).as_secs_f64()
        })
        .collect();
    report.end_to_end("throughput_per_s", median(&throughput), n);
    report.note(format!(
        "latency statistics are medians over {batches} consecutive batches"
    ));
}

/// Times one build of the inputs at evenly spaced points of the measured window, so
/// `setup_s` is the median of set-ups spread over the whole run.
struct SetupSampler {
    window: Duration,
    times: Vec<f64>,
}

impl SetupSampler {
    fn new(window: Duration) -> SetupSampler {
        SetupSampler {
            window,
            times: Vec::with_capacity(SETUP_SAMPLES),
        }
    }

    /// Take the next sample once `measured` has reached its point in the window.
    fn maybe_sample<T>(&mut self, measured: Duration, build: impl Fn() -> T) {
        let due = self
            .window
            .mul_f64(self.times.len() as f64 / SETUP_SAMPLES as f64);
        if self.times.len() < SETUP_SAMPLES && measured >= due {
            let start = Instant::now();
            std::hint::black_box(build());
            self.times.push(start.elapsed().as_secs_f64());
        }
    }

    fn report(&self, report: &mut Report) {
        report.end_to_end("setup_s", median(&self.times), self.times.len());
    }

    fn absorb(&mut self, other: SetupSampler) {
        self.times.extend(other.times);
    }
}

/// Median traced minus median untraced request latency.
fn tracing_overhead(report: &mut Report, traced_ms: &[f64], untraced_ms: &[f64]) {
    let overhead = median(traced_ms) - median(untraced_ms);
    report.layer(
        "trace.overhead_ms",
        overhead,
        traced_ms.len() + untraced_ms.len(),
    );
    report.note(format!(
        "tracing overhead: traced p50 {} ms (n={}) - untraced p50 {} ms (n={}) = {overhead} ms",
        median(traced_ms),
        traced_ms.len(),
        median(untraced_ms),
        untraced_ms.len()
    ));
}

// -----------------------------------------------------------------------------------------
// decomposed replay
// -----------------------------------------------------------------------------------------

/// A sequential breadth-first search over the `b`-bounded configuration graph built only
/// from public calls, each in its own span: `RecencySemantics::successors`
/// (`core.successors`), the guard answers of every action at the expanded configuration
/// (`db.guard`), then per successor `iso::canonical_config_key` (`core.canon`),
/// `KeyInterner::intern_new` (`core.intern`) and, for new states, the invariant
/// (`db.phi`). Returns the number of distinct states, which must equal
/// `Explorer::reachable_state_count()`.
///
/// The guard answers are computed after the successors of the same configuration, so
/// they see the per-relation caches the successor call built: `db.guard` is a lower bound
/// on the guard share and `core.apply` (successors minus guard) an upper bound on the
/// update share.
fn replay_invariant(
    dms: &Dms,
    bound: usize,
    depth: usize,
    invariant: &Query,
    tracer: &mut Tracer,
) -> Result<usize, String> {
    let sem = RecencySemantics::new(dms, bound);
    let constants = dms.constants();
    let guard_constants: Vec<BTreeSet<DataValue>> = dms
        .actions()
        .iter()
        .map(|action| action.guard().constants())
        .collect();
    let interner = KeyInterner::new();
    let mut new_keys = 0usize;
    let root = dms.initial_bconfig();
    let key = tracer.time("core.canon", || canonical_config_key(&root, constants));
    let (_, new) = tracer.time("core.intern", || interner.intern_new(key));
    new_keys += usize::from(new);
    let holds = tracer.time("db.phi", || {
        rdms_db::eval::holds_boolean(root.instance(), invariant)
    });
    if holds != Ok(true) {
        return Err(format!("replay: invariant fails at the root ({holds:?})"));
    }
    let mut frontier = vec![root];
    for _ in 0..depth {
        let mut next_frontier = Vec::new();
        for config in &frontier {
            let successors = tracer
                .time("core.successors", || sem.successors(config))
                .map_err(|e| format!("replay: successors: {e}"))?;
            let adom: BTreeSet<DataValue> = config.recency_ranks().iter().copied().collect();
            for (action, constants) in dms.actions().iter().zip(&guard_constants) {
                tracer
                    .time("db.guard", || {
                        answers_with_constants(config.instance(), &adom, constants, action.guard())
                    })
                    .map_err(|e| format!("replay: guard answers: {e}"))?;
            }
            for (_, next) in successors {
                let key = tracer.time("core.canon", || canonical_config_key(&next, constants));
                let (_, new) = tracer.time("core.intern", || interner.intern_new(key));
                if !new {
                    continue;
                }
                new_keys += 1;
                let holds = tracer.time("db.phi", || {
                    rdms_db::eval::holds_boolean(next.instance(), invariant)
                });
                if holds != Ok(true) {
                    return Err(format!(
                        "replay: invariant fails on a reached state ({holds:?})"
                    ));
                }
                next_frontier.push(next);
            }
        }
        if next_frontier.is_empty() {
            break;
        }
        frontier = next_frontier;
    }
    Ok(new_keys)
}

/// The trace-property half of a booking job, replayed: every run prefix up to `depth`,
/// `msofo::eval_sentence` on each in a `logic.eval` span. Returns the number of
/// prefixes, which must equal the explorer's `prefixes_checked`.
fn replay_property(
    dms: &Dms,
    bound: usize,
    depth: usize,
    property: &MsoFo,
    tracer: &mut Tracer,
) -> Result<usize, String> {
    let sem = RecencySemantics::new(dms, bound);
    let mut stack = vec![ExtendedRun::new(dms.initial_bconfig())];
    let mut prefixes = 0;
    while let Some(run) = stack.pop() {
        prefixes += 1;
        let instances = run.instances();
        if !tracer.time("logic.eval", || eval_sentence(&instances, property)) {
            return Err("replay: the trace property fails on a prefix".to_string());
        }
        if run.len() < depth {
            for (step, next) in sem
                .successors(run.last())
                .map_err(|e| format!("replay: successors: {e}"))?
            {
                let mut child = run.clone();
                child.push(step, next);
                stack.push(child);
            }
        }
    }
    Ok(prefixes)
}

/// Per-layer metrics from one replay's spans; returns the replay's total self time in
/// guard, apply, canon, intern and φ, in milliseconds.
fn replay_metrics(report: &mut Report, replay: &Tracer) -> f64 {
    let totals = replay.self_time_by_name();
    let get = |name: &str| totals.get(name).copied().unwrap_or((0, 0));
    let ms = |ns: u64| ns as f64 / 1e6;
    let (guard_calls, guard_ns) = get("db.guard");
    let (_, successors_ns) = get("core.successors");
    let (canon_calls, canon_ns) = get("core.canon");
    let (intern_calls, intern_ns) = get("core.intern");
    let (phi_calls, phi_ns) = get("db.phi");
    report.layer("db.guard.calls", guard_calls as f64, 1);
    report.layer("db.guard.ms", ms(guard_ns), 1);
    report.layer("core.apply.ms", ms(successors_ns) - ms(guard_ns), 1);
    report.layer("core.canon.calls", canon_calls as f64, 1);
    report.layer("core.canon.ms", ms(canon_ns), 1);
    report.layer("core.intern.calls", intern_calls as f64, 1);
    report.layer("core.intern.ms", ms(intern_ns), 1);
    report.layer(
        "core.intern.new_share",
        phi_calls as f64 / intern_calls.max(1) as f64,
        1,
    );
    report.layer("db.phi.calls", phi_calls as f64, 1);
    report.layer("db.phi.ms", ms(phi_ns), 1);
    // guard + apply = successors, so the layers' self time adds up to this
    ms(successors_ns) + ms(canon_ns) + ms(intern_ns) + ms(phi_ns)
}

/// `CheckStats` counters of a search verdict.
fn stats_metrics(report: &mut Report, verdict: &Verdict) {
    let stats = verdict.stats();
    report.layer("db.index_probes", stats.index_probes as f64, 1);
    report.layer("db.index_hit_rate", stats.index_hit_rate, 1);
    report.layer("db.relations_shared", stats.relations_shared as f64, 1);
    report.layer(
        "db.relations_materialized",
        stats.relations_materialized as f64,
        1,
    );
    report.layer("checker.configs_explored", stats.configs_explored as f64, 1);
    report.layer("checker.dedup_hit_rate", stats.dedup_hit_rate, 1);
    report.layer("checker.peak_frontier", stats.peak_frontier as f64, 1);
    report.layer("checker.threads", stats.threads as f64, 1);
}

fn write_spans(args: &Args, tracer: &Tracer, report: &mut Report) {
    let path = args.run_dir.join(format!("spans-{}.jsonl", args.workload));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => report.note(format!("could not write spans to {}: {e}", path.display())),
    }
}

// -----------------------------------------------------------------------------------------
// booking-search
// -----------------------------------------------------------------------------------------

struct BookingInputs {
    dms: Dms,
    /// "Every booking's offer has a lifecycle state."
    invariant: Query,
    /// `templates::invariant(¬∃o. OState(o,avail) ∧ OState(o,onhold))`.
    property: MsoFo,
}

fn booking_inputs() -> BookingInputs {
    let agency = booking::build(&booking::BookingConfig::default());
    let o = Var::new("o");
    let ostate =
        |state: DataValue| Query::atom(RelName::new("OState"), [Term::Var(o), Term::Value(state)]);
    let both = Query::exists(
        o,
        ostate(agency.states.avail).and(ostate(agency.states.onhold)),
    );
    BookingInputs {
        dms: agency.dms,
        invariant: booking::offer_state_invariant(),
        property: templates::invariant(both.not()),
    }
}

/// One job: both searches through `Explorer::run`. Returns the two verdicts.
fn booking_job(
    inputs: &BookingInputs,
    answers: &crate::answers::BookingAnswers,
    tracer: &mut Tracer,
) -> (Verdict, Verdict) {
    let request = tracer.begin("request");
    let invariant = tracer.time("checker.explorer.invariant", || {
        Explorer::new(&inputs.dms, answers.bound)
            .with_config(explorer_config(answers.invariant.depth))
            .run(CheckRequest::invariant(inputs.invariant.clone()))
    });
    let property = tracer.time("checker.explorer.property", || {
        Explorer::new(&inputs.dms, answers.bound)
            .with_config(explorer_config(answers.property.depth))
            .run(CheckRequest::property(inputs.property.clone()))
    });
    tracer.end(request);
    (invariant, property)
}

pub fn booking(args: &Args, answers: &Answers, report: &mut Report) -> Result<(), String> {
    let expected = &answers.booking_search;
    let inputs = booking_inputs();

    // known answer outside timing: the invariant half's distinct-state count
    let (states, _) = Explorer::new(&inputs.dms, expected.bound)
        .with_config(explorer_config(expected.invariant.depth))
        .reachable_state_count();
    report.outcome(expect_eq(
        "booking reachable_state_count",
        states,
        expected.invariant.distinct_states,
    ));

    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    if args.trace {
        let mut replay = Tracer::new(epoch);
        let replay_states = replay_invariant(
            &inputs.dms,
            expected.bound,
            expected.invariant.depth,
            &inputs.invariant,
            &mut replay,
        );
        report.outcome(replay_states.and_then(|n| {
            expect_eq(
                "booking replay distinct states vs reachable_state_count",
                n,
                states,
            )
        }));
        let replay_self_ms = replay_metrics(report, &replay);
        let prefixes = replay_property(
            &inputs.dms,
            expected.bound,
            expected.property.depth,
            &inputs.property,
            &mut replay,
        );
        report.outcome(prefixes.and_then(|n| {
            expect_eq(
                "booking property replay prefixes",
                n,
                expected.property.prefixes_checked,
            )
        }));
        let eval = replay
            .self_time_by_name()
            .get("logic.eval")
            .copied()
            .unwrap_or((0, 0));
        report.layer("logic.eval.calls", eval.0 as f64, 1);
        report.layer("logic.eval.ms", eval.1 as f64 / 1e6, 1);
        tracer.absorb(replay);
        report.note(format!(
            "decomposed replay: {states} distinct states = Explorer::reachable_state_count()"
        ));
        run_booking_window(
            args,
            &inputs,
            expected,
            report,
            &mut tracer,
            Some(replay_self_ms),
        );
        write_spans(args, &tracer, report);
    } else {
        run_booking_window(args, &inputs, expected, report, &mut tracer, None);
        report.end_to_end("peak_rss_mb", own_peak_rss_mb(), 1);
    }
    Ok(())
}

/// The measured closed loop. Untraced runs time every job; traced runs alternate traced
/// and untraced jobs, so the difference is the tracing overhead.
fn run_booking_window(
    args: &Args,
    inputs: &BookingInputs,
    expected: &crate::answers::BookingAnswers,
    report: &mut Report,
    tracer: &mut Tracer,
    replay_self_ms: Option<f64>,
) {
    let window = Duration::from_secs_f64(args.seconds);
    let mut setup = SetupSampler::new(window);
    let mut untraced = Tracer::disabled();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut last_traced = None;
    let mut measured = Duration::ZERO;
    let mut job = 0u64;
    while measured < window {
        setup.maybe_sample(measured, booking_inputs);
        let traced = args.trace && job % 2 == 1;
        let active = if traced { &mut *tracer } else { &mut untraced };
        active.set_request(job);
        let start = Instant::now();
        let (invariant, property) = booking_job(inputs, expected, active);
        let elapsed = start.elapsed();
        measured += elapsed;
        report.outcome(
            check_search("booking invariant", &invariant, &expected.invariant)
                .and_then(|()| check_search("booking property", &property, &expected.property)),
        );
        let ms = elapsed.as_secs_f64() * 1e3;
        if traced {
            traced_ms.push(ms);
            last_traced = Some(invariant);
        } else {
            // one client: a job completes when the measured time so far has passed
            plain_ms.push((measured, ms));
        }
        job += 1;
    }
    if !args.trace {
        setup.report(report);
        latency_metrics(report, &plain_ms);
        return;
    }
    let plain_ms: Vec<f64> = plain_ms.iter().map(|&(_, ms)| ms).collect();
    tracing_overhead(report, &traced_ms, &plain_ms);
    let invariant_ms = tracer.durations_ms("checker.explorer.invariant");
    let property_ms = tracer.durations_ms("checker.explorer.property");
    report.layer(
        "checker.explorer.invariant_ms",
        median(&invariant_ms),
        invariant_ms.len(),
    );
    report.layer(
        "checker.explorer.property_ms",
        median(&property_ms),
        property_ms.len(),
    );
    if let Some(replay_ms) = replay_self_ms {
        report.layer(
            "checker.explorer.overhead_ms",
            median(&invariant_ms) - replay_ms,
            invariant_ms.len(),
        );
        report.note(format!(
            "explorer overhead: invariant search p50 {} ms - replay self time {replay_ms} ms",
            median(&invariant_ms)
        ));
    }
    if let Some(verdict) = &last_traced {
        stats_metrics(report, verdict);
    }
}

// -----------------------------------------------------------------------------------------
// inventory-edits
// -----------------------------------------------------------------------------------------

struct InventoryInputs {
    base: Dms,
    gated: Dms,
    lifecycle: Query,
    reserved: Query,
}

fn inventory_inputs() -> InventoryInputs {
    InventoryInputs {
        base: inventory::finite_dms(2, 3),
        gated: inventory::finite_dms_with_gated_cancel(2, 3),
        lifecycle: inventory::lifecycle_stages_are_exclusive(),
        reserved: inventory::reserved_items_are_off_the_shelf(),
    }
}

/// The four edits of a session; the seed draws their order.
#[derive(Clone, Copy, Debug)]
enum Edit {
    /// `finite_dms_with_gated_cancel(2, 3)`: one guard changed.
    GatedCancel,
    /// Bound 3 → 4.
    Bound,
    /// Target → `reserved_items_are_off_the_shelf`.
    Target,
    /// The current DMS again, as a value-identical copy.
    NoOp,
}

/// One `Workspace::check` as observed: the inputs it ran on and what it answered.
struct Observed {
    dms: &'static str,
    bound: usize,
    target: &'static str,
    holds: bool,
    complete: bool,
    distinct_states: Option<usize>,
    reuse: Reuse,
    re_expansions: usize,
    edges_reused: usize,
    phi_evaluations: usize,
    phi_memo_hits: usize,
    verdict: Verdict,
}

fn reuse_span(reuse: &Reuse) -> &'static str {
    match reuse {
        Reuse::FullRun => "checker.revision.full",
        Reuse::DeltaReExpansion => "checker.revision.delta",
        Reuse::BoundSeeded { .. } => "checker.revision.bound_seed",
        Reuse::ExploredSetReused => "checker.revision.target",
        Reuse::CachedVerdict => "checker.revision.noop",
        Reuse::ViolationCarriedOver { .. } => "checker.revision.violation_carried",
    }
}

/// One session: a cold check on a fresh workspace, then the four edits in `order`, each
/// followed by a check.
fn inventory_session(
    inputs: &InventoryInputs,
    depth: usize,
    order: &[Edit],
    tracer: &mut Tracer,
) -> Vec<Observed> {
    let mut observed = Vec::with_capacity(order.len() + 1);
    let (mut dms, mut bound, mut target) = ("base", 3, "lifecycle");
    let request = tracer.begin("request");
    let mut workspace = Workspace::new(inputs.base.clone(), bound, inputs.lifecycle.clone())
        .with_depth(depth)
        .with_max_configs(MAX_CONFIGS);
    for edit in std::iter::once(None).chain(order.iter().copied().map(Some)) {
        match edit {
            None => {}
            Some(Edit::GatedCancel) => {
                workspace.set_dms(inputs.gated.clone());
                dms = "gated";
            }
            Some(Edit::Bound) => {
                bound = 4;
                workspace.set_bound(bound);
            }
            Some(Edit::Target) => {
                workspace.set_target(inputs.reserved.clone());
                target = "reserved";
            }
            Some(Edit::NoOp) => {
                let same = if dms == "gated" {
                    &inputs.gated
                } else {
                    &inputs.base
                };
                workspace.set_dms(same.clone());
            }
        }
        let span = tracer.begin("checker.revision.check");
        let verdict = workspace.check();
        let report = workspace.last_report();
        tracer.end_as(span, reuse_span(&report.reuse));
        observed.push(Observed {
            dms,
            bound,
            target,
            holds: verdict.holds(),
            complete: is_complete(&verdict),
            distinct_states: report.distinct_states,
            reuse: report.reuse.clone(),
            re_expansions: report.re_expansions,
            edges_reused: report.edges_reused,
            phi_evaluations: report.phi_evaluations,
            phi_memo_hits: report.phi_memo_hits,
            verdict,
        });
    }
    tracer.end(request);
    observed
}

fn check_session(
    observed: &[Observed],
    order: &[Edit],
    expected: &crate::answers::InventoryAnswers,
) -> Result<(), String> {
    for (i, seen) in observed.iter().enumerate() {
        let edit = if i == 0 {
            "cold".to_string()
        } else {
            format!("{:?}", order[i - 1])
        };
        let want: &InventoryState = expected
            .state(seen.dms, seen.bound, seen.target)
            .ok_or_else(|| {
                format!(
                    "no known answer for ({}, {}, {})",
                    seen.dms, seen.bound, seen.target
                )
            })?;
        let context = || {
            format!(
                "inventory {edit} check on ({}, {}, {})",
                seen.dms, seen.bound, seen.target
            )
        };
        if seen.holds != want.holds || seen.complete != want.complete {
            return Err(format!(
                "{}: holds {} complete {} (expected {} {})",
                context(),
                seen.holds,
                seen.complete,
                want.holds,
                want.complete
            ));
        }
        if let Some(states) = seen.distinct_states {
            expect_eq(
                &format!("{} distinct states", context()),
                states,
                want.distinct_states,
            )?;
        }
        let reuse_ok = match (i, order.get(i.wrapping_sub(1))) {
            (0, _) => seen.reuse == Reuse::FullRun,
            (_, Some(Edit::NoOp)) => seen.reuse == Reuse::CachedVerdict,
            _ => true,
        };
        if !reuse_ok {
            return Err(format!("{}: reuse {:?}", context(), seen.reuse));
        }
    }
    Ok(())
}

fn draw_order(rng: &mut StdRng) -> [Edit; 4] {
    let mut order = [Edit::GatedCancel, Edit::Bound, Edit::Target, Edit::NoOp];
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

/// The `Safe` certificate JSON of a from-scratch check of (base, 3, lifecycle).
fn inventory_certificate_json(inputs: &InventoryInputs, depth: usize) -> Option<String> {
    Explorer::new(&inputs.base, 3)
        .with_config(ExplorerConfig {
            emit_certificate: true,
            ..explorer_config(depth)
        })
        .run(CheckRequest::invariant(inputs.lifecycle.clone()))
        .certificate()
        .map(|c| c.to_json())
}

/// The known answer every run checks once, after its measurements, whatever its
/// workload: the `Safe` certificate of a from-scratch inventory check verifies with the
/// engine-free `rdms-cert` checker.
pub fn check_inventory_certificate(
    expected: &crate::answers::InventoryAnswers,
    report: &mut Report,
) {
    let json = inventory_certificate_json(&inventory_inputs(), expected.depth);
    let verifies = json.as_deref().is_some_and(|json| {
        rdms_cert::Certificate::from_json(json).is_ok_and(|c| c.verify().is_ok())
    });
    report.outcome(expect_eq(
        "inventory Safe certificate verifies",
        verifies,
        expected.certificate_verifies,
    ));
}

pub fn inventory(args: &Args, answers: &Answers, report: &mut Report) -> Result<(), String> {
    let expected = &answers.inventory_edits;
    let inputs = inventory_inputs();

    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let replay_self = if args.trace {
        Some(inventory_layers(&inputs, expected, report, &mut tracer))
    } else {
        None
    };

    // two clients, each a closed loop of sessions on its own thread
    let window = Duration::from_secs_f64(args.seconds);
    let opened = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let inputs = &inputs;
                scope.spawn(move || {
                    inventory_client(client, args, inputs, expected, epoch, opened, window)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut setup = SetupSampler::new(window);
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut traced_sessions: Vec<Vec<Observed>> = Vec::new();
    let mut fingerprint_ms = Vec::new();
    for run in runs {
        setup.absorb(run.setup);
        plain_ms.extend(run.plain_ms);
        traced_ms.extend(run.traced_ms);
        traced_sessions.extend(run.traced_sessions);
        fingerprint_ms.extend(run.fingerprint_ms);
        for outcome in run.outcomes {
            report.outcome(outcome);
        }
        tracer.absorb(run.tracer);
    }
    plain_ms.sort_by_key(|&(done, _)| done);
    if !args.trace {
        setup.report(report);
        latency_metrics(report, &plain_ms);
        report.end_to_end("peak_rss_mb", own_peak_rss_mb(), 1);
        return Ok(());
    }

    let plain_ms: Vec<f64> = plain_ms.iter().map(|&(_, ms)| ms).collect();
    tracing_overhead(report, &traced_ms, &plain_ms);
    report.layer(
        "core.fingerprint.ms",
        median(&fingerprint_ms),
        fingerprint_ms.len(),
    );
    for (metric, span) in [
        ("checker.revision.full_ms", "checker.revision.full"),
        ("checker.revision.delta_ms", "checker.revision.delta"),
        (
            "checker.revision.bound_seed_ms",
            "checker.revision.bound_seed",
        ),
        ("checker.revision.target_ms", "checker.revision.target"),
        ("checker.revision.noop_ms", "checker.revision.noop"),
    ] {
        let times = tracer.durations_ms(span);
        if !times.is_empty() {
            report.layer(metric, median(&times), times.len());
        }
    }
    let per_session = |f: fn(&Observed) -> usize| -> Vec<f64> {
        traced_sessions
            .iter()
            .map(|s| s.iter().map(f).sum::<usize>() as f64)
            .collect()
    };
    let n = traced_sessions.len();
    report.layer(
        "checker.revision.re_expansions",
        median(&per_session(|o| o.re_expansions)),
        n,
    );
    report.layer(
        "checker.revision.edges_reused",
        median(&per_session(|o| o.edges_reused)),
        n,
    );
    let hits: usize = traced_sessions
        .iter()
        .flatten()
        .map(|o| o.phi_memo_hits)
        .sum();
    let evaluations: usize = traced_sessions
        .iter()
        .flatten()
        .map(|o| o.phi_evaluations)
        .sum();
    report.layer(
        "checker.revision.phi_memo_hit_rate",
        hits as f64 / (hits + evaluations).max(1) as f64,
        n,
    );
    if let Some(cold) = traced_sessions.last().and_then(|s| s.first()) {
        stats_metrics(report, &cold.verdict);
    }
    let full_ms = tracer.durations_ms("checker.revision.full");
    if let Some(replay_ms) = replay_self {
        report.layer(
            "checker.explorer.overhead_ms",
            median(&full_ms) - replay_ms,
            full_ms.len(),
        );
    }
    write_spans(args, &tracer, report);
    Ok(())
}

/// Concurrent `inventory-edits` clients. Two closed loops keep both CPUs of a small
/// machine busy, so a run measures them both rather than whichever one the scheduler
/// kept a single client on.
const CLIENTS: usize = 2;

/// What one `inventory-edits` client observed.
struct ClientRun {
    setup: SetupSampler,
    /// Untraced sessions: (completion time since the window opened, latency in ms).
    plain_ms: Vec<(Duration, f64)>,
    traced_ms: Vec<f64>,
    traced_sessions: Vec<Vec<Observed>>,
    fingerprint_ms: Vec<f64>,
    outcomes: Vec<Result<(), String>>,
    tracer: Tracer,
}

/// One client's closed loop of sessions until `window` has passed since `opened`. The
/// seed and the client number draw the edit orders; traced runs trace every other
/// session.
fn inventory_client(
    client: usize,
    args: &Args,
    inputs: &InventoryInputs,
    expected: &crate::answers::InventoryAnswers,
    epoch: Instant,
    opened: Instant,
    window: Duration,
) -> ClientRun {
    let mut rng = StdRng::seed_from_u64(
        args.seed
            .wrapping_mul(CLIENTS as u64)
            .wrapping_add(client as u64),
    );
    let mut run = ClientRun {
        setup: SetupSampler::new(window),
        plain_ms: Vec::new(),
        traced_ms: Vec::new(),
        traced_sessions: Vec::new(),
        fingerprint_ms: Vec::new(),
        outcomes: Vec::new(),
        tracer: if args.trace {
            Tracer::new(epoch)
        } else {
            Tracer::disabled()
        },
    };
    let mut untraced = Tracer::disabled();
    let mut session = 0u64;
    while opened.elapsed() < window {
        run.setup.maybe_sample(opened.elapsed(), inventory_inputs);
        let order = draw_order(&mut rng);
        let traced = args.trace && session % 2 == 1;
        let active = if traced {
            &mut run.tracer
        } else {
            &mut untraced
        };
        active.set_request(session * CLIENTS as u64 + client as u64);
        let start = Instant::now();
        let observed = inventory_session(inputs, expected.depth, &order, active);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let done = opened.elapsed();
        run.outcomes
            .push(check_session(&observed, &order, expected));
        if traced {
            run.traced_ms.push(ms);
            // fingerprint every input the session submitted, outside the request span
            let start = Instant::now();
            run.tracer.time("core.fingerprint", || {
                let mut submitted = vec![&inputs.base];
                for edit in order {
                    match edit {
                        Edit::GatedCancel => submitted.push(&inputs.gated),
                        Edit::NoOp => submitted.push(submitted[submitted.len() - 1]),
                        _ => {}
                    }
                }
                for dms in submitted {
                    std::hint::black_box(dms_fingerprint(dms));
                }
                std::hint::black_box(
                    CheckTarget::invariant(inputs.lifecycle.clone()).fingerprint(),
                );
                std::hint::black_box(CheckTarget::invariant(inputs.reserved.clone()).fingerprint());
            });
            run.fingerprint_ms.push(start.elapsed().as_secs_f64() * 1e3);
            run.traced_sessions.push(observed);
        } else {
            run.plain_ms.push((done, ms));
        }
        session += 1;
    }
    run
}

/// The traced run's one-off inventory measurements: the decomposed replay of the cold
/// check's search and the certificate costs. Returns the replay's self time in ms.
fn inventory_layers(
    inputs: &InventoryInputs,
    expected: &crate::answers::InventoryAnswers,
    report: &mut Report,
    tracer: &mut Tracer,
) -> f64 {
    const REPEATS: usize = 5;
    let depth = expected.depth;
    let (states, _) = Explorer::new(&inputs.base, 3)
        .with_config(explorer_config(depth))
        .reachable_state_count();
    let mut replay = Tracer::new(Instant::now());
    let replayed = replay_invariant(&inputs.base, 3, depth, &inputs.lifecycle, &mut replay);
    report.outcome(replayed.and_then(|n| {
        expect_eq(
            "inventory replay distinct states vs reachable_state_count",
            n,
            states,
        )
    }));
    let replay_self_ms = replay_metrics(report, &replay);
    tracer.absorb(replay);
    report.note(format!(
        "decomposed replay: {states} distinct states = Explorer::reachable_state_count()"
    ));

    // certificate emission: a from-scratch check with recording on, minus the same check
    // with it off (medians of REPEATS each), then the engine-free verifier
    let timed_check = |emit: bool| {
        let start = Instant::now();
        std::hint::black_box(
            Explorer::new(&inputs.base, 3)
                .with_config(ExplorerConfig {
                    emit_certificate: emit,
                    ..explorer_config(depth)
                })
                .run(CheckRequest::invariant(inputs.lifecycle.clone())),
        );
        start.elapsed().as_secs_f64() * 1e3
    };
    let on: Vec<f64> = (0..REPEATS).map(|_| timed_check(true)).collect();
    let off: Vec<f64> = (0..REPEATS).map(|_| timed_check(false)).collect();
    report.layer("cert.emit_ms", median(&on) - median(&off), REPEATS);
    if let Some(json) = inventory_certificate_json(inputs, depth) {
        let json = json.as_str();
        let verify_ms: Vec<f64> = (0..REPEATS)
            .map(|_| {
                let start = Instant::now();
                let verified = rdms_cert::Certificate::from_json(json).map(|c| c.verify());
                std::hint::black_box(verified.is_ok());
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        report.layer("cert.verify_ms", median(&verify_ms), REPEATS);
        report.layer("cert.bytes", json.len() as f64, 1);
    }
    replay_self_ms
}

//! The repository benchmark for conditional messaging.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <local_durable_fanout|relay_tcp|expiry_backlog> \
//!     --seed <n> --seconds <n> --trace <0|1> [--short]
//! ```
//!
//! Prints a human-readable report (every metric with its unit, sample
//! counts and ratio bases), then, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for the design.

mod gen;
mod load;
mod spans;
mod stats;
mod world;

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use conditional_messaging::condmsg::{analyze, CompiledCondition, Condition, MessageStatus};
use conditional_messaging::mq::{MetricsSnapshot, DEAD_LETTER_QUEUE};

use gen::Generator;
use load::{PhasePlan, PhaseResult, Plan, RunResult};
use spans::{Layer, SpanLog};
use stats::{median, pct, ratio, Delta, Pct};
use world::{Design, Workload, World};

const USAGE: &str = "usage: perfbench --workload <local_durable_fanout|relay_tcp|expiry_backlog> \
                     --seed <n> --seconds <n> --trace <0|1> [--short]";

/// End-to-end metrics, printed with `--trace 0`. Open-loop latency is
/// bounded at p50 only: neither p99 nor p95 repeated within a tenth from
/// run to run on a 2-core host (interquartile spread over ten runs up to
/// 0.7 of the median; single one-second windows of `relay_tcp` swing from
/// 1 ms to 50 ms at p95 with no CPU steal). The tails are printed in the
/// report and carried unbounded as `tail.*` per-layer metrics.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("decided_per_s", "1/s"),
    ("verdict_ms.p50", "ms"),
    ("send_us.p50", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("messenger.pending_peak", "count"),
    ("messenger.acks_per_drain", "acks/drain"),
    ("messenger.updates_per_ack", "updates/ack"),
    ("messenger.timer_fires", "count"),
    ("messenger.outcome_get_us.p99", "us"),
    ("messenger.prune_ms.p99", "ms"),
    ("messenger.tx_per_decided", "tx/decided"),
    ("messenger.failure_ms.p50", "ms"),
    ("messenger.failure_ms.p99", "ms"),
    ("eval.compile_us", "us"),
    ("analyze.us", "us"),
    ("receiver.read_us.p50", "us"),
    ("receiver.read_us.p99", "us"),
    ("receiver.commit_us.p99", "us"),
    ("receiver.annihilated", "count"),
    ("receiver.comp_delivered", "count"),
    ("store.done_depth", "count"),
    ("store.comp_depth", "count"),
    ("store.ack_backlog_peak", "count"),
    ("journal.appends_per_decided", "appends/decided"),
    ("journal.fsyncs_per_decided", "fsyncs/decided"),
    ("journal.records_per_fsync", "records/fsync"),
    ("journal.append_us.p99", "us"),
    ("journal.bytes_per_decided", "B/decided"),
    ("journal.group_waits", "count"),
    ("transport.msgs_per_batch", "msgs/batch"),
    ("transport.bytes_per_decided", "B/decided"),
    ("transport.batch_us.p99", "us"),
    ("transport.send_stalls", "count"),
    ("transport.window_rollbacks", "count"),
    ("transport.reconnects", "count"),
    ("codec.encodes_per_msg", "encodes/msg"),
    ("relay.forwarded_per_decided", "fwd/decided"),
    ("relay.duplicates", "count"),
    ("relay.dead_lettered", "count"),
    ("simtime.pending_timers_peak", "count"),
    ("generator.lag_ms.p99", "ms"),
    ("generator.offered_per_s", "1/s"),
    ("trace.self_us.program", "us/decided"),
    ("trace.self_us.messenger", "us/decided"),
    ("trace.self_us.receiver", "us/decided"),
    ("trace.spans", "count"),
    ("trace.overhead.verdict_ms.p50", "ms"),
    ("trace.overhead.send_us.p50", "us"),
    ("trace.overhead.decided_per_s", "1/s"),
    ("trace.untraced.decided_per_s", "1/s"),
    ("tail.verdict_ms.p95", "ms"),
    ("tail.verdict_ms.p99", "ms"),
    ("tail.send_us.p95", "us"),
    ("tail.send_us.p99", "us"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    short: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut short = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--short" {
            short = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(0.5..=120.0).contains(&s) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        short,
    })
}

/// Open-loop/saturation cycles per run (split across the two halves of a
/// traced run).
const CYCLES: usize = 6;

fn plan(args: &Args) -> Plan {
    let secs = Duration::from_secs_f64;
    let phase = |cycles: usize, traced: bool| PhasePlan {
        cycles,
        settle: secs(if args.short { 0.2 } else { 0.5 }),
        open: secs(args.seconds * 0.6 / CYCLES as f64),
        saturation: secs(args.seconds * 0.4 / CYCLES as f64),
        traced,
    };
    Plan {
        warmup: secs(if args.short { 0.3 } else { 1.0 }),
        // The traced run measures an untraced half first, so the tracing
        // overhead is a difference within one run.
        phases: if args.trace {
            vec![phase(CYCLES / 2, false), phase(CYCLES / 2, true)]
        } else {
            vec![phase(CYCLES, false)]
        },
        drain: secs(if args.short { 15.0 } else { 30.0 }),
    }
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    note: String,
}

/// How many of `samples` lie beyond percentile `q`, flagged when fewer
/// than ten.
fn beyond_note(samples: usize, q: f64) -> String {
    let beyond = stats::beyond(samples, q);
    let warn = if beyond < 10 {
        " (fewer than 10 samples beyond this percentile)"
    } else {
        ""
    };
    format!("beyond={beyond}{warn}")
}

fn pct_note(p: Pct, q: f64) -> String {
    format!("n={} {}", p.samples, beyond_note(p.samples, q))
}

/// Post-run output oracle; returns every violation found.
fn oracle(
    world: &World,
    run: &RunResult,
    baseline: &MetricsSnapshot,
    end: &MetricsSnapshot,
) -> Vec<String> {
    let mut v = Vec::new();
    let d = Delta {
        start: baseline,
        end,
    };
    let (fanout, released, consumed) = (
        d.counter("cond.fanout"),
        d.counter("cond.comp.released"),
        d.counter("cond.comp.consumed"),
    );
    if released + consumed != fanout {
        v.push(format!(
            "compensation conservation: released {released} + consumed {consumed} != fanout {fanout}"
        ));
    }
    for m in &world.managers {
        let dlq = m.queue(DEAD_LETTER_QUEUE).map_or(0, |q| q.depth());
        if dlq > 0 {
            v.push(format!("{}: {dlq} dead-lettered", m.name()));
        }
    }
    for q in world.pickup.iter().chain(&world.process).chain(&world.late) {
        let depth = world.receiver().queue(q).map_or(0, |q| q.depth());
        if depth > 0 {
            v.push(format!("{q}: {depth} messages left after the run"));
        }
    }
    let pending = world.messenger.pending_count();
    if pending != world.preloaded.len() {
        v.push(format!(
            "{pending} pending after the drain, expected the {} preloaded",
            world.preloaded.len()
        ));
    }
    let decided_preload = world
        .preloaded
        .iter()
        .filter(|id| world.messenger.status(**id) != MessageStatus::Pending)
        .count();
    if decided_preload > 0 {
        v.push(format!(
            "{decided_preload} preloaded messages are no longer pending"
        ));
    }
    let r = &run.receiver;
    for (what, n) in [
        ("duplicate deliveries", r.duplicates),
        ("corrupt payloads", r.bad_payloads),
        ("unexpected message kinds", r.unexpected),
    ] {
        if n > 0 {
            v.push(format!("receiver saw {n} {what}"));
        }
    }
    v.extend(r.errors.iter().map(|e| format!("receiver error: {e}")));
    // Every leaf is delivered exactly once or annihilated with its
    // compensation: on-time leaves of a failing message may be annihilated
    // too, when its failure lands before the receiver reaches them.
    let annihilated = d.counter("cond.recv.annihilated");
    let leaves = world.on_time_leaves() as u64 * run.sent + run.late_sent;
    if r.originals + r.late_originals + annihilated != leaves {
        v.push(format!(
            "leaves: {} read on time + {} read late + {annihilated} annihilated != {leaves} sent",
            r.originals, r.late_originals
        ));
    }
    if r.compensations + annihilated != released {
        v.push(format!(
            "compensations: {} delivered + {annihilated} annihilated != {released} released",
            r.compensations
        ));
    }
    if run.failures != run.late_sent || run.successes + run.failures + run.undecided != run.sent {
        v.push(format!(
            "outcomes: {} successes, {} failures for {} sent ({} with a lagging leaf)",
            run.successes, run.failures, run.sent, run.late_sent
        ));
    }
    v
}

/// Open-loop samples per window, so a window's p95 has at least ten
/// samples beyond it (the bounded p50 has a hundred).
const SAMPLES_PER_WINDOW: usize = 200;
/// Saturation rates and open-loop percentiles are medians over at most
/// this many equal windows, so one stall moves one window, not the metric.
const WINDOWS: usize = 16;
/// Windows in which the hypervisor stole more than this share of the
/// machine's CPU time are left out of the median (the program cannot
/// cause steal), as long as at least half the windows remain.
const MAX_STEAL: f64 = 0.05;

/// A metric taken as the median over equal time windows.
struct Windowed {
    value: f64,
    windows: Vec<f64>,
    /// Share of CPU time stolen in each window.
    steal: Vec<f64>,
    /// Windows that entered the median.
    used: usize,
    /// Fewest samples in a window.
    min_samples: usize,
}

impl Windowed {
    fn new(windows: Vec<f64>, steal: Vec<f64>, min_samples: usize) -> Windowed {
        let n = windows.len();
        let mut used: Vec<usize> = (0..n).filter(|&i| steal[i] <= MAX_STEAL).collect();
        if used.len() * 2 < n {
            // Mostly stolen: keep the least-stolen half.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
            used = order[..n.div_ceil(2)].to_vec();
        }
        let kept: Vec<f64> = used.iter().map(|&i| windows[i]).collect();
        Windowed {
            value: median(&kept),
            used: used.len(),
            windows,
            steal,
            min_samples,
        }
    }

    fn note(&self, q: Option<f64>) -> String {
        let beyond = q.map_or(String::new(), |q| {
            format!(" (per window {})", beyond_note(self.min_samples, q))
        });
        let list = |v: &[f64], scale: f64| {
            v.iter()
                .map(|w| format!("{:.4}", w * scale))
                .collect::<Vec<_>>()
                .join(" ")
        };
        format!(
            "median of {} of {} windows [{}], steal % [{}], >={} samples per window{beyond}",
            self.used,
            self.windows.len(),
            list(&self.windows, 1.0),
            list(&self.steal, 100.0),
            self.min_samples
        )
    }
}

/// Splits `span` seconds into `n` equal windows and groups the values
/// by the time `at` each belongs to.
fn split<'a>(
    values: impl IntoIterator<Item = &'a f64>,
    at: &[f64],
    span: f64,
    n: usize,
) -> Vec<Vec<f64>> {
    let mut windows = vec![Vec::new(); n];
    for (&v, &t) in values.into_iter().zip(at) {
        let i = ((t / span) * n as f64).floor().clamp(0.0, (n - 1) as f64) as usize;
        windows[i].push(v);
    }
    windows
}

/// Share of CPU time stolen in each of `n` equal windows of `span`
/// seconds, from tick samples on the same time axis.
fn steal_shares(ticks: &[(f64, u64, u64)], span: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let (lo, hi) = (span * i as f64 / n as f64, span * (i + 1) as f64 / n as f64);
            let a = ticks.iter().rev().find(|t| t.0 <= lo).or(ticks.first());
            let b = ticks.iter().find(|t| t.0 >= hi).or(ticks.last());
            match (a, b) {
                (Some(a), Some(b)) if b.2 > a.2 => {
                    b.1.saturating_sub(a.1) as f64 / (b.2 - a.2) as f64
                }
                _ => 0.0,
            }
        })
        .collect()
}

/// Median over windows of the open loop of each window's percentile `q`.
fn windowed_pct(ph: &PhaseResult, values: &[f64], at: &[f64], q: f64) -> Windowed {
    let n = (values.len() / SAMPLES_PER_WINDOW).clamp(1, WINDOWS);
    let windows = split(values, at, ph.open_secs, n);
    Windowed::new(
        windows.iter().map(|w| pct(w, q).value).collect(),
        steal_shares(&ph.open_ticks, ph.open_secs, n),
        windows.iter().map(Vec::len).min().unwrap_or(0),
    )
}

/// Median over windows of the saturation phase of outcomes per second.
fn windowed_rate(ph: &PhaseResult) -> Windowed {
    let windows = split(
        std::iter::repeat(&1.0),
        &ph.decided_at,
        ph.saturation_secs,
        WINDOWS,
    );
    let width = ph.saturation_secs / WINDOWS as f64;
    Windowed::new(
        windows.iter().map(|w| w.len() as f64 / width).collect(),
        steal_shares(&ph.saturation_ticks, ph.saturation_secs, WINDOWS),
        windows.iter().map(Vec::len).min().unwrap_or(0),
    )
}

fn verdict_pct(ph: &PhaseResult, q: f64) -> Windowed {
    windowed_pct(ph, &ph.verdict_ms, &ph.verdict_at, q)
}

fn send_pct(ph: &PhaseResult, q: f64) -> Windowed {
    windowed_pct(ph, &ph.send_us, &ph.send_at, q)
}

fn end_to_end(setup_s: &[f64], ph: &PhaseResult) -> Vec<Metric> {
    let rate = windowed_rate(ph);
    let rate_note = format!(
        "{}; decided={} in {:.2}s",
        rate.note(None),
        ph.saturation_decided,
        ph.saturation_secs
    );
    let window = |w: Windowed, q: f64| (w.value, w.note(Some(q)));
    let values = [
        (
            median(setup_s),
            format!("median of {} set-ups {setup_s:.4?}", setup_s.len()),
        ),
        (rate.value, rate_note),
        window(verdict_pct(ph, 0.5), 0.5),
        window(send_pct(ph, 0.5), 0.5),
        (stats::peak_rss_mb(), "VmHWM".to_owned()),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, note))| Metric {
            name,
            unit,
            value,
            note,
        })
        .collect()
}

/// Times `CompiledCondition::compile` and `analyze` on the workload's
/// condition shapes; returns median microseconds per call for each.
fn time_compile_analyze(
    world: &World,
    design: &Design,
    seed: u64,
    log: &mut SpanLog,
) -> (Pct, Pct) {
    let mut gen = Generator::new(seed, design.late_one_in);
    let shapes: Vec<Condition> = (0..200)
        .map(|i| world.condition(&gen.next_msg(), i))
        .collect();
    let (mut compile, mut analyzed) = (Vec::new(), Vec::new());
    for _ in 0..10 {
        for c in &shapes {
            let t0 = Instant::now();
            let compiled = CompiledCondition::compile(black_box(c)).expect("condition compiles");
            black_box(compiled);
            let t1 = Instant::now();
            black_box(analyze(black_box(c)));
            let t2 = Instant::now();
            log.record("CompiledCondition::compile", Layer::Eval, t0, t1, None);
            log.record("analyze", Layer::Analyze, t1, t2, None);
            compile.push((t1 - t0).as_secs_f64() * 1e6);
            analyzed.push((t2 - t1).as_secs_f64() * 1e6);
        }
    }
    (pct(&compile, 0.5), pct(&analyzed, 0.5))
}

fn per_layer(
    world: &World,
    design: &Design,
    seed: u64,
    run: &mut RunResult,
    out_dir: &Path,
    spans_file: &str,
) -> Vec<Metric> {
    let base = &run.phases[0];
    let ph = &run.phases[1];
    let d = Delta {
        start: &ph.snap_start,
        end: &ph.snap_end,
    };
    let decided = d.counter("cond.verdict.success") + d.counter("cond.verdict.failure");
    let acks = d.counter("cond.ack.read") + d.counter("cond.ack.processed");
    let per = |n: u64| ratio(n as f64, decided as f64);
    let c = |name: &str| d.counter(name);
    let mut epoch_log = SpanLog::new(Instant::now());
    let (compile, analyzed) = time_compile_analyze(world, design, seed, &mut epoch_log);
    let self_times = spans::self_times(&run.spans);
    let roots = self_times.roots.max(1) as f64;
    let self_us = |l: Layer| self_times.by_layer.get(&l).copied().unwrap_or(0) as f64 / 1e3 / roots;
    let verdict_p50 = |p: &PhaseResult| verdict_pct(p, 0.5).value;
    let send_p50 = |p: &PhaseResult| send_pct(p, 0.5).value;
    let rate = |p: &PhaseResult| windowed_rate(p).value;
    let ack_batch = d.histogram("cond.ack.batch_size");
    let (drains, drained) = ack_batch.map_or((0, 0), |h| (h.count, h.sum));
    let (appends, fsyncs) = (c("mq.journal.appends"), c("mq.journal.fsyncs"));
    let (msgs, batches) = (
        c("mq.transport.messages_sent"),
        c("mq.transport.batches_sent"),
    );
    let h = |name: &str| d.histogram_pct(name, 0.99);
    let with = |p: Pct, q: f64| (p.value, pct_note(p, q));
    let count = |n: u64| (n as f64, String::new());
    let per_decided = |n: u64, what: &str| (per(n), format!("{what}={n} decided={decided}"));
    let mut values: Vec<(f64, String)> = vec![
        count(ph.pending_peak as u64),
        (
            ratio(drained as f64, drains as f64),
            format!("acks={drained} drains={drains}"),
        ),
        (
            ratio(c("cond.eval.incremental_updates") as f64, acks as f64),
            format!("updates={} acks={acks}", c("cond.eval.incremental_updates")),
        ),
        count(c("cond.eval.timer_fires")),
        with(pct(&ph.outcome_get_us, 0.99), 0.99),
        with(pct(&ph.prune_ms, 0.99), 0.99),
        per_decided(c("mq.tx.committed"), "tx"),
        with(pct(&ph.failure_ms, 0.5), 0.5),
        with(pct(&ph.failure_ms, 0.99), 0.99),
        with(compile, 0.5),
        with(analyzed, 0.5),
        with(pct(&ph.read_us, 0.5), 0.5),
        with(pct(&ph.read_us, 0.99), 0.99),
        with(pct(&ph.commit_us, 0.99), 0.99),
        count(c("cond.recv.annihilated")),
        count(c("cond.recv.comp_delivered")),
        count(ph.done_depth as u64),
        count(ph.comp_depth as u64),
        count(ph.ack_backlog_peak as u64),
        per_decided(appends, "appends"),
        per_decided(fsyncs, "fsyncs"),
        (
            ratio(appends as f64, fsyncs as f64),
            format!("appends={appends} fsyncs={fsyncs}"),
        ),
        with(h("mq.journal.append_micros"), 0.99),
        per_decided(ph.journal_bytes, "bytes"),
        count(c("mq.journal.group_waits")),
        (
            ratio(msgs as f64, batches as f64),
            format!("msgs={msgs} batches={batches}"),
        ),
        per_decided(c("mq.transport.bytes_sent"), "bytes"),
        with(h("mq.transport.batch_micros"), 0.99),
        count(c("mq.transport.send_stalls")),
        count(c("mq.transport.window_rollbacks")),
        count(c("mq.transport.reconnects")),
        (
            ratio(c("mq.codec.encodes") as f64, msgs as f64),
            format!("encodes={} msgs={msgs}", c("mq.codec.encodes")),
        ),
        per_decided(c("mq.relay.forwarded"), "forwarded"),
        count(c("mq.relay.duplicates")),
        count(c("mq.relay.dead_lettered")),
        count(ph.timers_peak as u64),
        with(pct(&ph.lag_ms, 0.99), 0.99),
        (
            ratio(ph.open_sent as f64, ph.open_secs),
            format!(
                "sent={} in {:.2}s, target {}",
                ph.open_sent, ph.open_secs, design.offered_per_s
            ),
        ),
        (
            self_us(Layer::Program),
            format!("roots={}", self_times.roots),
        ),
        (
            self_us(Layer::Messenger),
            format!("roots={}", self_times.roots),
        ),
        (
            self_us(Layer::Receiver),
            format!("roots={}", self_times.roots),
        ),
        count(run.spans.len() as u64),
        (
            verdict_p50(ph) - verdict_p50(base),
            format!(
                "traced {:.4} - untraced {:.4}",
                verdict_p50(ph),
                verdict_p50(base)
            ),
        ),
        (
            send_p50(ph) - send_p50(base),
            format!(
                "traced {:.4} - untraced {:.4}",
                send_p50(ph),
                send_p50(base)
            ),
        ),
        (
            rate(ph) - rate(base),
            format!("traced {:.2} - untraced {:.2}", rate(ph), rate(base)),
        ),
        (rate(base), windowed_rate(base).note(None)),
    ];
    // Tails of the untraced half, so tracing does not inflate them.
    let tails = [
        (verdict_pct(base, 0.95), 0.95),
        (verdict_pct(base, 0.99), 0.99),
        (send_pct(base, 0.95), 0.95),
        (send_pct(base, 0.99), 0.99),
    ];
    values.extend(tails.into_iter().map(|(w, q)| (w.value, w.note(Some(q)))));
    run.spans.extend(epoch_log.spans);
    let path = out_dir.join(spans_file);
    match spans::write_jsonl(&path, &run.spans) {
        Ok(()) => println!("# spans: {} written to {}", run.spans.len(), path.display()),
        Err(e) => println!("# spans: could not write {}: {e}", path.display()),
    }
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, note))| Metric {
            name,
            unit,
            value,
            note,
        })
        .collect()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let design = args.workload.design();
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} short={}",
        design.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.short
    );
    println!("# why: {}", design.why);
    println!("# moves: {}", design.moves);
    println!(
        "# load: open loop at {}/s, then saturation with {} outstanding; 1 sender + 1 receiver thread",
        design.offered_per_s, design.outstanding
    );

    let preload = if args.short { 2_000 } else { design.preload };
    let setups = if args.short { 2 } else { design.setups };
    let mut setup_s = Vec::new();
    let mut world: Option<World> = None;
    for _ in 0..setups {
        if let Some(old) = world.take() {
            old.shutdown();
        }
        let t = Instant::now();
        world = Some(World::build(args.workload, preload, &out_dir));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let world = world.expect("at least one set-up");

    let baseline = world.obs.snapshot();
    let mut run = load::run(&world, &design, &plan(&args), args.seed);
    let end = world.obs.snapshot();
    let mut violations = run.violations.clone();
    if run.undecided > 0 {
        violations.push(format!(
            "{} messages had no verdict by the drain deadline",
            run.undecided
        ));
    }
    let checks = oracle(&world, &run, &baseline, &end);
    let failed = run.violation_count + run.undecided + checks.len() as u64;
    violations.extend(checks);

    let untraced = &run.phases[0];
    let failure = (
        pct(&untraced.failure_ms, 0.5),
        pct(&untraced.failure_ms, 0.99),
    );
    let tails = [
        ("verdict_ms.p95", verdict_pct(untraced, 0.95), 0.95),
        ("verdict_ms.p99", verdict_pct(untraced, 0.99), 0.99),
        ("send_us.p95", send_pct(untraced, 0.95), 0.95),
        ("send_us.p99", send_pct(untraced, 0.99), 0.99),
    ];
    let metrics = if args.trace {
        let file = format!("spans-{}-{}.jsonl", design.name, args.seed);
        per_layer(&world, &design, args.seed, &mut run, &out_dir, &file)
    } else {
        end_to_end(&setup_s, &run.phases[0])
    };
    world.shutdown();

    println!(
        "# outcomes: sent={} successes={} failures={} lagging={} undecided={} send_errors={}",
        run.sent, run.successes, run.failures, run.late_sent, run.undecided, run.send_errors
    );
    if !run.phases[0].failure_ms.is_empty() {
        println!(
            "# failure_ms.p50 {:.4} ms ({}); failure_ms.p99 {:.4} ms ({})",
            failure.0.value,
            pct_note(failure.0, 0.5),
            failure.1.value,
            pct_note(failure.1, 0.99)
        );
    }
    for (name, w, q) in &tails {
        println!(
            "# {name} {:.4} (not bounded: {})",
            w.value,
            w.note(Some(*q))
        );
    }
    println!(
        "# error_rate {} ({failed} failed of {} attempted)",
        ratio(failed as f64, run.attempted as f64),
        run.attempted
    );
    for v in &violations {
        println!("# VIOLATION: {v}");
    }
    for m in &metrics {
        println!("{:<34} {:>16.4} {:<16} {}", m.name, m.value, m.unit, m.note);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        violations.is_empty() && failed == 0,
        run.attempted.max(1),
        body.join(", ")
    );
}

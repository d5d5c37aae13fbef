//! The load: one sender thread (which also consumes outcomes from
//! `DS.OUTCOME.Q` and prunes decided history) and one receiver thread.
//!
//! A run is an unmeasured open-loop warm-up, then one or more measured
//! phases, each alternating an open-loop part at the workload's fixed
//! offered rate with a saturation part that keeps a fixed number of
//! conditional messages outstanding; then a drain until every sent
//! message has its outcome. An unmeasured open-loop settle precedes each
//! open-loop part, so none starts behind a saturation backlog.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use conditional_messaging::condmsg::{
    CondMessageId, ConditionalReceiver, MessageKind, MessageOutcome, OutcomeNotification,
    ReceivedMessage,
};
use conditional_messaging::mq::{MetricsSnapshot, Queue, Wait};
use conditional_messaging::simtime::Time;
use parking_lot::{Condvar, Mutex};

use crate::gen::{payload_ok, Generator};
use crate::spans::{Layer, Span, SpanLog};
use crate::stats;
use crate::world::{Design, World, LATE_SLOTS, LATE_WINDOW};

/// Wall-clock cadence of `prune_decided_before`, which removes every
/// outcome decided before the call from `DS.DONE.Q`. Each pruned entry
/// costs a pass over the queue's history, so the cadence is short to keep
/// the history, and the cost per call, small.
const PRUNE_EVERY: Duration = Duration::from_millis(25);
/// Cadence of the traced phase's depth samples.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);
/// Every this many depth samples, also count the clock's live timers
/// (a full pass over the timer heap, so it is sampled sparingly).
const TIMER_SAMPLE_STRIDE: u32 = 10;
/// Cadence of the CPU steal samples that let the report set aside windows
/// in which the hypervisor took the CPU away.
const TICK_SAMPLE_EVERY: Duration = Duration::from_millis(100);
/// Longest the sender parks waiting for an outcome.
const MAX_PARK: Duration = Duration::from_millis(20);

/// A measured phase: `cycles` repetitions of an unmeasured open-loop
/// settle, a measured open-loop part and a measured saturation part.
/// Alternating spreads both kinds of sample over the whole phase.
pub struct PhasePlan {
    pub cycles: usize,
    pub settle: Duration,
    pub open: Duration,
    pub saturation: Duration,
    pub traced: bool,
}

pub struct Plan {
    /// Unmeasured open loop before the first phase.
    pub warmup: Duration,
    pub phases: Vec<PhasePlan>,
    pub drain: Duration,
}

/// What one measured phase saw.
#[derive(Default)]
pub struct PhaseResult {
    /// Measured open-loop and saturation time, summed over cycles.
    pub open_secs: f64,
    pub saturation_secs: f64,
    pub open_sent: usize,
    pub send_us: Vec<f64>,
    /// Due time of each `send_us` sample, in seconds of measured open
    /// loop (cycles laid end to end).
    pub send_at: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub verdict_ms: Vec<f64>,
    /// Due time of each `verdict_ms` sample, as for `send_at`.
    pub verdict_at: Vec<f64>,
    pub failure_ms: Vec<f64>,
    pub outcome_get_us: Vec<f64>,
    pub prune_ms: Vec<f64>,
    pub saturation_decided: u64,
    /// When each saturation outcome was consumed, in seconds of measured
    /// saturation (cycles laid end to end).
    pub decided_at: Vec<f64>,
    /// CPU tick samples (axis offset, stolen, total) on the open-loop and
    /// saturation time axes.
    pub open_ticks: Vec<(f64, u64, u64)>,
    pub saturation_ticks: Vec<(f64, u64, u64)>,
    /// Start of the current cycle's open-loop and saturation parts.
    pub open_start: Option<Instant>,
    pub saturation_start: Option<Instant>,
    pub snap_start: MetricsSnapshot,
    pub snap_end: MetricsSnapshot,
    pub journal_bytes: u64,
    pub pending_peak: usize,
    pub ack_backlog_peak: usize,
    pub timers_peak: usize,
    pub done_depth: usize,
    pub comp_depth: usize,
    pub read_us: Vec<f64>,
    pub commit_us: Vec<f64>,
}

/// The receiver thread's totals.
#[derive(Default)]
pub struct ReceiverOut {
    /// Originals read from on-time queues.
    pub originals: u64,
    /// Originals read from the lagging queues (late reads).
    pub late_originals: u64,
    /// Compensations delivered to the application.
    pub compensations: u64,
    pub duplicates: u64,
    pub bad_payloads: u64,
    pub unexpected: u64,
    pub errors: Vec<String>,
    /// (phase, microseconds)
    pub read_us: Vec<(usize, f64)>,
    pub commit_us: Vec<(usize, f64)>,
    pub spans: Vec<Span>,
}

pub struct RunResult {
    pub phases: Vec<PhaseResult>,
    pub attempted: u64,
    pub sent: u64,
    pub late_sent: u64,
    pub send_errors: u64,
    pub undecided: u64,
    pub successes: u64,
    pub failures: u64,
    /// Send errors, wrong or unexpected outcomes (the first few are in
    /// `violations`).
    pub violation_count: u64,
    pub violations: Vec<String>,
    pub spans: Vec<Span>,
    pub receiver: ReceiverOut,
}

/// A generation counter the receiver parks on; bumped by put watchers on
/// every queue the receiver reads.
#[derive(Default)]
struct Notify {
    seq: Mutex<u64>,
    cv: Condvar,
}

impl Notify {
    fn bump(&self) {
        *self.seq.lock() += 1;
        self.cv.notify_all();
    }

    fn current(&self) -> u64 {
        *self.seq.lock()
    }

    /// Parks until the counter moves past `seen` or `timeout` elapses.
    fn wait_past(&self, seen: u64, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let mut seq = self.seq.lock();
        while *seq == seen {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || self.cv.wait_for(&mut seq, left).timed_out() {
                return;
            }
        }
    }
}

/// State shared by the two load threads.
struct Shared {
    epoch: Instant,
    phase: AtomicUsize,
    traced: AtomicBool,
    /// Set once every verdict is in: the receiver makes its final passes.
    finish: AtomicBool,
    notify: Arc<Notify>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The lagging queue a message sent now goes to: one per wall-clock
/// second, rotating, so the receiver can sweep a queue whose every
/// original is already past its window.
fn late_slot(epoch: Instant) -> usize {
    epoch.elapsed().as_secs() as usize % LATE_SLOTS
}

struct Inflight {
    phase: usize,
    open: bool,
    /// Due time in seconds of measured open loop (open-loop sends only).
    at: f64,
    traced: bool,
    due: Instant,
    late: bool,
}

#[derive(Clone, Copy)]
enum Mode {
    Open,
    Closed,
}

struct Sender<'w> {
    world: &'w World,
    design: &'w Design,
    shared: &'w Shared,
    gen: Generator,
    outcome_queue: String,
    ack_queue: Arc<Queue>,
    inflight: HashMap<CondMessageId, Inflight>,
    preloaded: HashSet<CondMessageId>,
    phase: usize,
    traced: bool,
    counting_saturation: bool,
    phases: Vec<PhaseResult>,
    spans: SpanLog,
    next_prune: Instant,
    next_sample: Instant,
    next_ticks: Instant,
    samples: u32,
    attempted: u64,
    sent: u64,
    late_sent: u64,
    send_errors: u64,
    successes: u64,
    failures: u64,
    violation_count: u64,
    violations: Vec<String>,
}

impl<'w> Sender<'w> {
    fn current(&mut self) -> Option<&mut PhaseResult> {
        self.phase.checked_sub(1).map(|i| &mut self.phases[i])
    }

    fn violation(&mut self, what: String) {
        self.violation_count += 1;
        if self.violations.len() < 20 {
            self.violations.push(what);
        } else if self.violations.len() == 20 {
            self.violations
                .push("(further violations elided)".to_owned());
        }
    }

    /// Sends one generated message; false when the send failed.
    fn send(&mut self, due: Instant, open: bool) -> bool {
        let spec = self.gen.next_msg();
        let condition = self.world.condition(&spec, late_slot(self.shared.epoch));
        let t0 = Instant::now();
        let result = self.world.messenger.send_message(spec.payload, &condition);
        let t1 = Instant::now();
        self.attempted += 1;
        match result {
            Ok(id) => {
                self.sent += 1;
                self.late_sent += u64::from(spec.late);
                if self.traced {
                    self.spans
                        .record("send_message", Layer::Messenger, t0, t1, Some(id.as_u128()));
                }
                let mut at = 0.0;
                if open {
                    if let Some(ph) = self.current() {
                        at = ph.open_secs + ph.open_start.map_or(0.0, |s| (due - s).as_secs_f64());
                        ph.open_sent += 1;
                        ph.send_us.push(us(t1 - t0));
                        ph.send_at.push(at);
                        ph.lag_ms.push(ms(t0.saturating_duration_since(due)));
                    }
                }
                self.inflight.insert(
                    id,
                    Inflight {
                        phase: self.phase,
                        open,
                        at,
                        traced: self.traced,
                        due,
                        late: spec.late,
                    },
                );
                true
            }
            Err(e) => {
                self.send_errors += 1;
                self.violation(format!("send failed: {e}"));
                false
            }
        }
    }

    /// Consumes every outcome already on `DS.OUTCOME.Q`.
    fn consume(&mut self) -> usize {
        let mut n = 0;
        loop {
            let t0 = Instant::now();
            let got = self.world.sender().get(&self.outcome_queue, Wait::NoWait);
            let t1 = Instant::now();
            match got {
                Ok(Some(msg)) => {
                    n += 1;
                    if let Some(ph) = self.current() {
                        ph.outcome_get_us.push(us(t1 - t0));
                    }
                    match OutcomeNotification::from_message(&msg) {
                        Ok(note) => self.on_outcome(note, t0, t1),
                        Err(e) => self.violation(format!("malformed outcome: {e}")),
                    }
                }
                Ok(None) => return n,
                Err(e) => {
                    self.violation(format!("outcome get failed: {e}"));
                    return n;
                }
            }
        }
    }

    fn on_outcome(&mut self, note: OutcomeNotification, t0: Instant, t1: Instant) {
        let id = note.cond_id;
        let Some(m) = self.inflight.remove(&id) else {
            let what = if self.preloaded.contains(&id) {
                "a preloaded message decided"
            } else {
                "outcome for an unknown or already-decided message"
            };
            self.violation(format!("{what}: {}", id.to_hex()));
            return;
        };
        if m.traced {
            let raw = Some(id.as_u128());
            self.spans
                .record("outcome_get", Layer::Messenger, t0, t1, raw);
            self.spans.record("message", Layer::Program, m.due, t1, raw);
        }
        let expected = if m.late {
            MessageOutcome::Failure
        } else {
            MessageOutcome::Success
        };
        if note.outcome != expected {
            self.violation(format!(
                "message {} decided {} ({:?}), expected {expected}",
                id.to_hex(),
                note.outcome,
                note.reason
            ));
        }
        match note.outcome {
            MessageOutcome::Success => self.successes += 1,
            MessageOutcome::Failure => self.failures += 1,
        }
        if self.counting_saturation {
            if let Some(ph) = self.current() {
                ph.saturation_decided += 1;
                let into = ph.saturation_start.map_or(0.0, |s| (t1 - s).as_secs_f64());
                ph.decided_at.push(ph.saturation_secs + into);
            }
        }
        if m.open && m.phase > 0 {
            let ph = &mut self.phases[m.phase - 1];
            match note.outcome {
                MessageOutcome::Success => {
                    ph.verdict_ms.push(ms(t1 - m.due));
                    ph.verdict_at.push(m.at);
                }
                MessageOutcome::Failure => {
                    let deadline = m.due + LATE_WINDOW.to_duration();
                    ph.failure_ms
                        .push(ms(t1.saturating_duration_since(deadline)));
                }
            }
        }
    }

    /// Records the machine's CPU tick counters against the current
    /// measured part's time axis.
    fn sample_ticks(&mut self) {
        let Some((stolen, total)) = stats::cpu_ticks() else {
            return;
        };
        let saturation = self.counting_saturation;
        let Some(ph) = self.current() else {
            return;
        };
        let now = Instant::now();
        if saturation {
            let into = ph.saturation_start.map_or(0.0, |s| (now - s).as_secs_f64());
            ph.saturation_ticks
                .push((ph.saturation_secs + into, stolen, total));
        } else {
            let into = ph.open_start.map_or(0.0, |s| (now - s).as_secs_f64());
            ph.open_ticks.push((ph.open_secs + into, stolen, total));
        }
    }

    /// Samples CPU ticks and prunes decided history on their cadences and,
    /// in a traced phase, samples depths.
    fn maintain(&mut self) {
        let now = Instant::now();
        if now >= self.next_ticks {
            self.next_ticks = now + TICK_SAMPLE_EVERY;
            self.sample_ticks();
        }
        if now >= self.next_prune {
            self.next_prune = now + PRUNE_EVERY;
            let t0 = Instant::now();
            let result = self
                .world
                .messenger
                .prune_decided_before(Time(self.world.clock_now()));
            let t1 = Instant::now();
            if self.traced {
                self.spans
                    .record("prune_decided_before", Layer::Messenger, t0, t1, None);
            }
            if let Some(ph) = self.current() {
                ph.prune_ms.push(ms(t1 - t0));
            }
            if let Err(e) = result {
                self.violation(format!("prune failed: {e}"));
            }
        }
        if self.traced && now >= self.next_sample {
            self.next_sample = now + SAMPLE_EVERY;
            self.samples += 1;
            let pending = self.world.messenger.pending_count();
            let backlog = self.ack_queue.depth();
            let timers = if self.samples % TIMER_SAMPLE_STRIDE == 1 {
                self.world.clock.pending_timers()
            } else {
                0
            };
            if let Some(ph) = self.current() {
                ph.pending_peak = ph.pending_peak.max(pending);
                ph.ack_backlog_peak = ph.ack_backlog_peak.max(backlog);
                ph.timers_peak = ph.timers_peak.max(timers);
            }
        }
    }

    fn drive(&mut self, duration: Duration, mode: Mode) {
        let start = Instant::now();
        let end = start + duration;
        let interval = Duration::from_secs_f64(1.0 / self.design.offered_per_s);
        let mut k: u32 = 0;
        loop {
            let now = Instant::now();
            if now >= end {
                return;
            }
            match mode {
                Mode::Open => loop {
                    let due = start + interval * k;
                    if due > now || due >= end {
                        break;
                    }
                    k += 1;
                    if !self.send(due, true) {
                        break;
                    }
                },
                Mode::Closed => {
                    while self.inflight.len() < self.design.outstanding
                        && self.send(Instant::now(), false)
                    {}
                }
            }
            let consumed = self.consume();
            self.maintain();
            if consumed == 0 {
                let wake = match mode {
                    Mode::Open => (start + interval * k).min(end),
                    Mode::Closed => end,
                };
                let park = wake.saturating_duration_since(Instant::now()).min(MAX_PARK);
                if !park.is_zero() {
                    self.world.messenger.wait_outcome_event(park);
                }
            }
        }
    }

    fn set_phase(&mut self, phase: usize, traced: bool) {
        self.phase = phase;
        self.traced = traced;
        self.shared.phase.store(phase, Ordering::SeqCst);
        self.shared.traced.store(traced, Ordering::SeqCst);
    }

    fn measure(&mut self, index: usize, plan: &PhasePlan) {
        self.phases.push(PhaseResult {
            snap_start: self.world.obs.snapshot(),
            journal_bytes: self.world.journal_bytes(),
            ..PhaseResult::default()
        });
        for _ in 0..plan.cycles {
            self.set_phase(0, false);
            self.drive(plan.settle, Mode::Open);
            self.set_phase(index, plan.traced);
            let t = Instant::now();
            self.current().expect("measured phase").open_start = Some(t);
            self.sample_ticks();
            self.drive(plan.open, Mode::Open);
            self.sample_ticks();
            self.current().expect("measured phase").open_secs += t.elapsed().as_secs_f64();
            self.counting_saturation = true;
            let t = Instant::now();
            self.current().expect("measured phase").saturation_start = Some(t);
            self.sample_ticks();
            self.drive(plan.saturation, Mode::Closed);
            self.sample_ticks();
            self.current().expect("measured phase").saturation_secs += t.elapsed().as_secs_f64();
            self.counting_saturation = false;
        }
        let snap_end = self.world.obs.snapshot();
        let journal_bytes = self.world.journal_bytes();
        let cfg = self.world.messenger.config();
        let depth = |q: &str| self.world.sender().queue(q).map_or(0, |q| q.depth());
        let (done, comp) = (depth(&cfg.done_queue), depth(&cfg.comp_queue));
        let ph = self.current().expect("measured phase");
        ph.snap_end = snap_end;
        ph.journal_bytes = journal_bytes.saturating_sub(ph.journal_bytes);
        ph.done_depth = done;
        ph.comp_depth = comp;
        // Past the measured phase: stop tagging samples and spans.
        self.set_phase(0, false);
    }

    fn drain(&mut self, timeout: Duration) {
        let end = Instant::now() + timeout;
        while !self.inflight.is_empty() && Instant::now() < end {
            if self.consume() == 0 {
                self.maintain();
                self.world.messenger.wait_outcome_event(MAX_PARK);
            }
        }
    }
}

struct Receiver<'w> {
    world: &'w World,
    shared: &'w Shared,
    rx: ConditionalReceiver,
    queues: HashMap<String, Arc<Queue>>,
    seen: HashSet<(u128, u32)>,
    spans: SpanLog,
    out: ReceiverOut,
}

impl Receiver<'_> {
    fn handle(&mut self, m: &ReceivedMessage, lagging: bool) {
        match m.kind() {
            MessageKind::Original => {
                if lagging {
                    self.out.late_originals += 1;
                } else {
                    self.out.originals += 1;
                }
                if !payload_ok(m.payload()) {
                    self.out.bad_payloads += 1;
                }
                if let (Some(id), Some(leaf)) = (m.cond_id(), m.leaf()) {
                    if !self.seen.insert((id.as_u128(), leaf)) {
                        self.out.duplicates += 1;
                    }
                }
            }
            MessageKind::Compensation => self.out.compensations += 1,
            _ => self.out.unexpected += 1,
        }
    }

    fn error(&mut self, what: String) {
        if self.out.errors.len() < 20 {
            self.out.errors.push(what);
        }
    }

    fn timed_read(&mut self, queue: &str) -> Option<ReceivedMessage> {
        let t0 = Instant::now();
        let got = self.rx.read_message(queue, Wait::NoWait);
        let t1 = Instant::now();
        match got {
            Ok(Some(m)) => {
                let phase = self.shared.phase.load(Ordering::SeqCst);
                if phase > 0 {
                    self.out.read_us.push((phase, us(t1 - t0)));
                }
                if self.shared.traced.load(Ordering::SeqCst) {
                    let id = m.cond_id().map(CondMessageId::as_u128);
                    self.spans
                        .record("read_message", Layer::Receiver, t0, t1, id);
                }
                Some(m)
            }
            Ok(None) => None,
            Err(e) => {
                self.error(format!("read {queue}: {e}"));
                None
            }
        }
    }

    /// Plain reads until the queue is empty.
    fn drain_plain(&mut self, queue: &str, lagging: bool) -> usize {
        let mut n = 0;
        while let Some(m) = self.timed_read(queue) {
            self.handle(&m, lagging);
            n += 1;
        }
        n
    }

    /// One transaction per message: transactional read, then `commit_tx`.
    fn drain_processing(&mut self, queue: &str) -> usize {
        let mut n = 0;
        while self.queues[queue].depth() > 0 {
            if let Err(e) = self.rx.begin_tx() {
                self.error(format!("begin_tx: {e}"));
                break;
            }
            let Some(m) = self.timed_read(queue) else {
                let _ = self.rx.rollback_tx();
                break;
            };
            self.handle(&m, false);
            n += 1;
            let t0 = Instant::now();
            let committed = self.rx.commit_tx();
            let t1 = Instant::now();
            let phase = self.shared.phase.load(Ordering::SeqCst);
            if phase > 0 {
                self.out.commit_us.push((phase, us(t1 - t0)));
            }
            if self.shared.traced.load(Ordering::SeqCst) {
                let id = m.cond_id().map(CondMessageId::as_u128);
                self.spans.record("commit_tx", Layer::Receiver, t0, t1, id);
            }
            if let Err(e) = committed {
                self.error(format!("commit_tx on {queue}: {e}"));
                let _ = self.rx.rollback_tx();
                break;
            }
        }
        n
    }

    fn pass(&mut self) -> usize {
        let world = self.world;
        let mut n = 0;
        for q in &world.pickup {
            n += self.drain_plain(q, false);
        }
        for q in &world.process {
            n += self.drain_processing(q);
        }
        n
    }

    fn run(mut self) -> ReceiverOut {
        let world = self.world;
        let mut swept_second = 0;
        loop {
            let finishing = self.shared.finish.load(Ordering::SeqCst);
            let seen = self.shared.notify.current();
            let mut n = self.pass();
            if !world.late.is_empty() {
                let second = self.shared.epoch.elapsed().as_secs();
                if finishing {
                    for q in &world.late {
                        n += self.drain_plain(q, true);
                    }
                } else if second > swept_second {
                    // The queue filled two seconds ago: every original on
                    // it is past its window.
                    swept_second = second;
                    let q = &world.late[(second as usize + 2) % LATE_SLOTS];
                    n += self.drain_plain(q, true);
                }
            }
            if finishing && n == 0 {
                break;
            }
            if n == 0 {
                self.shared.notify.wait_past(seen, MAX_PARK);
            }
        }
        self.out.spans = std::mem::take(&mut self.spans.spans);
        self.out
    }
}

/// Runs the load against a built world.
pub fn run(world: &World, design: &Design, plan: &Plan, seed: u64) -> RunResult {
    let notify = Arc::new(Notify::default());
    let receiver_qm = world.receiver();
    let mut queues = HashMap::new();
    for name in world.pickup.iter().chain(&world.process).chain(&world.late) {
        let q = receiver_qm.queue(name).expect("receiver queue");
        let n = notify.clone();
        q.add_put_watcher(Arc::new(move || n.bump()));
        queues.insert(name.clone(), q);
    }
    let shared = Shared {
        epoch: Instant::now(),
        phase: AtomicUsize::new(0),
        traced: AtomicBool::new(false),
        finish: AtomicBool::new(false),
        notify,
    };
    let cfg = world.messenger.config();
    let now = Instant::now();
    let mut sender = Sender {
        world,
        design,
        shared: &shared,
        gen: Generator::new(seed, design.late_one_in),
        outcome_queue: cfg.outcome_queue.clone(),
        ack_queue: world.sender().queue(&cfg.ack_queue).expect("ack queue"),
        inflight: HashMap::new(),
        preloaded: world.preloaded.iter().copied().collect(),
        phase: 0,
        traced: false,
        counting_saturation: false,
        phases: Vec::new(),
        spans: SpanLog::new(shared.epoch),
        next_prune: now + PRUNE_EVERY,
        next_sample: now,
        next_ticks: now,
        samples: 0,
        attempted: 0,
        sent: 0,
        late_sent: 0,
        send_errors: 0,
        successes: 0,
        failures: 0,
        violation_count: 0,
        violations: Vec::new(),
    };
    let rx = ConditionalReceiver::with_identity(receiver_qm.clone(), "perfbench-receiver")
        .expect("receiver");
    let receiver = Receiver {
        world,
        shared: &shared,
        rx,
        queues,
        seen: HashSet::new(),
        spans: SpanLog::new(shared.epoch),
        out: ReceiverOut::default(),
    };
    let receiver_out = std::thread::scope(|s| {
        let handle = s.spawn(move || receiver.run());
        sender.drive(plan.warmup, Mode::Open);
        for (i, phase) in plan.phases.iter().enumerate() {
            sender.measure(i + 1, phase);
        }
        sender.drain(plan.drain);
        shared.finish.store(true, Ordering::SeqCst);
        shared.notify.bump();
        handle.join().expect("receiver thread panicked")
    });
    let mut phases = std::mem::take(&mut sender.phases);
    for &(p, v) in &receiver_out.read_us {
        phases[p - 1].read_us.push(v);
    }
    for &(p, v) in &receiver_out.commit_us {
        phases[p - 1].commit_us.push(v);
    }
    let mut spans = std::mem::take(&mut sender.spans.spans);
    spans.extend(receiver_out.spans.iter().cloned());
    RunResult {
        phases,
        attempted: sender.attempted,
        sent: sender.sent,
        late_sent: sender.late_sent,
        send_errors: sender.send_errors,
        undecided: sender.inflight.len() as u64,
        successes: sender.successes,
        failures: sender.failures,
        violation_count: sender.violation_count,
        violations: sender.violations,
        spans,
        receiver: receiver_out,
    }
}

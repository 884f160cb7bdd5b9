//! The phase plan every workload follows once it is set up, and the
//! figures each phase yields.
//!
//! ```text
//! qps-1 → learn-1 → latency-1 → qps-2 → train-2 → learn-2 → qps-3
//!   → ladder → qps-4 → latency-2 → learn-3 → train-3 → qps-5 → learn-4
//!   → latency-3 → qps-6 → train-4 → learn-5 → qps-7 → train-5 → qps-8
//!   → (traced replays) → drain
//! ```
//!
//! Each `qps-k` point runs two closed-loop bursts back to back, named
//! `qps-(2k-1)` and `qps-2k` in the output.
//!
//! Throughput figures are taken over repetitions spread across the run
//! (medians of sixteen closed-loop bursts and of five learn parts of six
//! timed slices each; per-step minima over five training phases): the
//! host's speed drifts over seconds, and a figure taken in one stretch of
//! the run carries that stretch's speed.
//! Latency figures are lower quartiles over the short request windows
//! of the three latency segments.

use std::time::{Duration, Instant};

use generic_hdc::{DrainReport, ServerHandle, SubmitError};

use crate::common::{Ctx, Run, Trained, CHUNKS, LATENCY_WINDOW, R, WINDOW_QUARTILE};
use crate::gen;
use crate::load::{self, Phase, Tracing};
use crate::stats;
use crate::trace;

/// Requests the closed `qps` bursts send, in total, per second of budget.
pub const QPS_REQUESTS_PER_S: f64 = 3000.0;
/// Closed-loop bursts per run, two back to back at each of the plan's
/// eight `qps` points; `qps` is their median. One run's bursts range
/// over a factor of two on a shared host, so eight left the median
/// moving by a fifth between runs.
const BURSTS: usize = 16;
/// Parts the closed learn phase is pushed in.
pub const LEARN_PARTS: usize = 5;
/// Labeled samples the closed learn phase pushes per second of budget.
pub const LEARN_SAMPLES_PER_S: f64 = 1500.0;
/// Share of the run budget the nominal-rate latency phase lasts.
const LATENCY_SHARE: f64 = 0.25;
/// Share of the run budget one rate-ladder step lasts.
const STEP_SHARE: f64 = 0.025;
/// Ratio between neighbouring ladder rates.
const LADDER_RATIO: f64 = 1.06;
/// Step runs per ladder (a failed step is retried once before it counts).
const LADDER_RUNS: usize = 12;

/// How a workload's requests reach the server.
pub trait Target {
    /// A closed loop of `n` requests keeping `WINDOW` in flight.
    fn closed(&mut self, name: &str, n: usize, tr: Tracing) -> R<Phase>;
    /// An open loop at `rate` requests/s for `dur`.
    fn open(&mut self, name: &str, rate: f64, dur: Duration, tr: Tracing) -> R<Phase>;
}

/// A workload's fixed load shape.
pub struct Plan {
    /// Lowest rate of the rate ladder, 1/s.
    pub ladder_base: f64,
    /// Latency limit on the sliced p90 (µs).
    pub limit_us: f64,
    /// Rate of the latency phase, 1/s.
    pub nominal: f64,
}

/// Runs the serving phases, four more timed training phases and the
/// learn parts; fills `qps`, `max_qps`, `p50_us`, `p90_us` and the
/// latency diagnostics. Returns the indices in `run.phases` of the three
/// latency segments.
pub fn serve_phases(
    ctx: &Ctx,
    run: &mut Run,
    target: &mut dyn Target,
    plan: &Plan,
    trainings: &mut Vec<Trained>,
    train_again: &mut dyn FnMut(&mut Run) -> R<Trained>,
    learn: &mut LearnStream,
) -> R<Vec<usize>> {
    let tr = ctx.tracing();
    let n_burst = (QPS_REQUESTS_PER_S * ctx.seconds / BURSTS as f64) as usize;
    let segment = ctx.span(LATENCY_SHARE / 3.0);
    let mut rates = Vec::new();
    let mut lat = Vec::new();
    let burst = |run: &mut Run, target: &mut dyn Target, rates: &mut Vec<f64>| {
        for _ in 0..2 {
            let name = format!("qps-{}", rates.len() + 1);
            let mut p = target.closed(&name, n_burst, tr)?;
            let slice_rates = load::slice_rates(&p, CHUNKS);
            run.spans.append(&mut p.spans);
            run.phases.push(p);
            rates.push(stats::median(&slice_rates));
        }
        R::Ok(())
    };
    let latency = |run: &mut Run, target: &mut dyn Target, lat: &mut Vec<usize>| {
        let name = format!("latency-{}", lat.len() + 1);
        let mut p = target.open(&name, plan.nominal, segment, tr)?;
        run.spans.append(&mut p.spans);
        run.phases.push(p);
        lat.push(run.phases.len() - 1);
        R::Ok(())
    };
    // A traced run also measures a burst untraced first: the difference
    // is the tracing overhead.
    let untraced = if ctx.trace {
        let p = target.closed("qps-untraced", n_burst, tr.off())?;
        let rate = stats::median(&load::slice_rates(&p, CHUNKS));
        run.phases.push(p);
        Some(rate)
    } else {
        None
    };
    burst(run, target, &mut rates)?;
    if let Some(u) = untraced {
        run.set("trace.overhead_pct", (u - rates[0]) / u * 100.0);
    }
    learn.part()?;
    latency(run, target, &mut lat)?;
    burst(run, target, &mut rates)?;
    trainings.push(train_again(run)?);
    learn.part()?;
    burst(run, target, &mut rates)?;

    let mut ladder = Vec::new();
    let mut step =
        |rate: f64, dur: Duration| target.open(&format!("ladder@{rate:.0}"), rate, dur, tr);
    run.e2e.max_qps = climb(ctx, plan, stats::median(&rates), &mut step, &mut ladder)?;
    for mut p in ladder {
        run.spans.append(&mut p.spans);
        run.phases.push(p);
    }
    burst(run, target, &mut rates)?;
    latency(run, target, &mut lat)?;
    learn.part()?;
    trainings.push(train_again(run)?);
    burst(run, target, &mut rates)?;
    learn.part()?;
    latency(run, target, &mut lat)?;
    burst(run, target, &mut rates)?;
    trainings.push(train_again(run)?);
    learn.part()?;
    burst(run, target, &mut rates)?;
    trainings.push(train_again(run)?);
    burst(run, target, &mut rates)?;

    run.e2e.qps = stats::median(&rates);
    run.lines.push(format!(
        "qps: closed loop, window {}, {n_burst} requests per burst; burst rates {}",
        crate::common::WINDOW,
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    record_latency(run, &lat, plan.limit_us);
    Ok(lat)
}

// ---------------------------------------------------------------------------
// Rate ladder
// ---------------------------------------------------------------------------

/// A ladder step passes when every request was answered, the windowed
/// p90 (the `p90_us` estimator) stays under the limit and the backlog
/// does not grow.
pub fn step_passes(p: &Phase, limit_us: f64) -> bool {
    p.refused == 0
        && p.failed == 0
        && p.answered == p.sent
        && load::windowed_percentile(p, 0.9, LATENCY_WINDOW).is_some_and(|v| v < limit_us)
        && !p.backlog_grows()
}

/// Climbs the workload's rate ladder from about 60 % of the closed-loop
/// rate (walking down first if that step fails) and returns the achieved
/// rate of the highest passing step.
fn climb(
    ctx: &Ctx,
    plan: &Plan,
    qps: f64,
    step: &mut dyn FnMut(f64, Duration) -> R<Phase>,
    phases: &mut Vec<Phase>,
) -> R<f64> {
    let rates = gen::rate_ladder(ctx.seed, plan.ladder_base, LADDER_RATIO, 80);
    let dur = ctx.span(STEP_SHARE);
    let mut i = rates.iter().rposition(|&r| r <= 0.6 * qps).unwrap_or(0);
    let mut best: Option<f64> = None;
    let mut descending = false;
    let mut runs = 0;
    while runs < LADDER_RUNS {
        let mut passed = None;
        for _ in 0..2 {
            if runs == LADDER_RUNS {
                break;
            }
            let p = step(rates[i], dur)?;
            runs += 1;
            let ok = step_passes(&p, plan.limit_us);
            let achieved = p.answered as f64 / p.wall.as_secs_f64().max(1e-9);
            phases.push(p);
            if ok {
                passed = Some(achieved);
                break;
            }
        }
        match passed {
            Some(rate) => {
                best = Some(rate);
                if descending || i + 1 == rates.len() {
                    break;
                }
                i += 1;
            }
            None if best.is_some() || i == 0 => break,
            None => {
                descending = true;
                i -= 1;
            }
        }
    }
    best.ok_or_else(|| format!("no ladder step passed (lowest tried {:.0}/s)", rates[i]))
}

// ---------------------------------------------------------------------------
// Learn phase
// ---------------------------------------------------------------------------

/// The closed learn phase: a fixed labeled stream pushed from one thread
/// through `submit_learn` of a server of its own (so the served model
/// never changes under the serving phases), in [`LEARN_PARTS`] parts
/// spread across the run. Refusals are retried after a short pause: the
/// writer's bounded queue paces the pushes, so push progress tracks what
/// the writer applies.
pub struct LearnStream<'a> {
    handle: ServerHandle,
    samples: Vec<(&'a [f64], usize)>,
    next: usize,
    /// Rate of every timed slice, samples/s.
    rates: Vec<f64>,
    /// Queue-full refusals retried.
    full: u64,
}

impl<'a> LearnStream<'a> {
    pub fn new(handle: ServerHandle, samples: Vec<(&'a [f64], usize)>) -> Self {
        LearnStream {
            handle,
            samples,
            next: 0,
            rates: Vec::new(),
            full: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Pushes the next part in `CHUNKS + 1` equal slices. The first
    /// fills the writer's idle queue and is not timed; each other slice
    /// is timed from push progress, the queue staying full throughout.
    pub fn part(&mut self) -> R<()> {
        let end = (self.next + self.samples.len().div_ceil(LEARN_PARTS)).min(self.samples.len());
        let part = &self.samples[self.next..end];
        let bound = |j: usize| j * part.len() / (CHUNKS + 1);
        let mut marks = vec![Instant::now()];
        for (i, &(x, y)) in part.iter().enumerate() {
            loop {
                match self.handle.submit_learn(x.to_vec(), y) {
                    Ok(()) => break,
                    Err(SubmitError::QueueFull) => {
                        self.full += 1;
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Err(e) => return Err(format!("learn submit: {e}")),
                }
            }
            if i + 1 == bound(marks.len()) {
                marks.push(Instant::now());
            }
        }
        for j in 2..marks.len() {
            let secs = marks[j].duration_since(marks[j - 1]).as_secs_f64();
            self.rates.push((bound(j) - bound(j - 1)) as f64 / secs);
        }
        self.next = end;
        Ok(())
    }
}

/// Learn figures from the drain reports of the learn server (`learn`)
/// and the serving server (`serving`, which applied `mix_accepted`
/// labeled samples mixed into its latency segments): every accepted
/// sample must have been applied. The rate is the median over the timed
/// slices of every part.
pub fn record_learn(
    run: &mut Run,
    stream: &LearnStream,
    learn: &DrainReport,
    serving: &DrainReport,
    mix_accepted: u64,
) {
    let applied = |r: &DrainReport| r.writer.learned + r.writer.held_out + r.writer.quarantined;
    let sent = stream.samples.len() as u64;
    if applied(learn) != sent {
        run.problems.push(format!(
            "the learn writer applied {} labeled samples, {sent} were accepted",
            applied(learn)
        ));
    }
    if applied(serving) != mix_accepted {
        run.problems.push(format!(
            "the serving writer applied {} labeled samples, {mix_accepted} were accepted",
            applied(serving)
        ));
    }
    run.e2e.learn_samples_per_s = stats::median(&stream.rates);
    let (lw, sw) = (&learn.writer, &serving.writer);
    run.set("runtime.drift_retrains", (lw.retrains + sw.retrains) as f64);
    run.set(
        "runtime.checkpoints",
        (lw.checkpoints + sw.checkpoints) as f64,
    );
    run.set(
        "runtime.learn_queue_full",
        (learn.serve.learn_rejected + serving.serve.learn_rejected) as f64,
    );
    let answered = serving.workers.answered.max(1) as f64;
    run.set("serve.steals", serving.workers.steals as f64);
    run.set(
        "serve.degraded_share",
        serving.workers.degraded as f64 / answered,
    );
    run.set(
        "serve.deadline_miss_share",
        serving.workers.deadline_misses as f64 / answered,
    );
    let sent_all: u64 = run.phases.iter().map(|p| p.sent).sum();
    let refused: u64 = run.phases.iter().map(|p| p.refused).sum();
    run.set(
        "serve.refused_share",
        refused as f64 / sent_all.max(1) as f64,
    );
    let rates = stats::sorted(&stream.rates);
    run.lines.push(format!(
        "learn phase: {sent} samples in {LEARN_PARTS} parts ({} queue-full retries), {} timed \
         slices at {:.0}/{:.0}/{:.0} samples/s (min/median/max); learn writer: {} retrains, \
         {} checkpoints, {} quarantined; serving writer: {} mixed samples applied, {} \
         retrains, {} checkpoints; final checkpoints {}",
        stream.full,
        rates.len(),
        rates.first().copied().unwrap_or(0.0),
        run.e2e.learn_samples_per_s,
        rates.last().copied().unwrap_or(0.0),
        lw.retrains,
        lw.checkpoints,
        lw.quarantined,
        applied(serving),
        sw.retrains,
        sw.checkpoints,
        if learn.final_checkpoint_ok && serving.final_checkpoint_ok {
            "ok"
        } else {
            "FAILED"
        }
    ));
    if !(learn.final_checkpoint_ok && serving.final_checkpoint_ok) {
        run.problems.push("final checkpoint failed".into());
    }
}

// ---------------------------------------------------------------------------
// Figures
// ---------------------------------------------------------------------------

/// `setup_s` is the median of `setups`. `train_samples_per_s` divides the
/// training rows by the sum, over the steps of a training phase (encoder
/// fit, encode, fit, each retrain epoch), of each step's fastest time over
/// the run's timed phases. Every phase repeats the same steps on the same
/// data, and a shared host only ever slows a step down (its speed flips
/// between modes about 1.6× apart for hundreds of milliseconds at a time),
/// so the per-step minimum is steady where a median over whole phases
/// carries the mix of modes the run happened to get.
pub fn record_setup_and_training(run: &mut Run, setups: &[f64], trainings: &[Trained]) {
    run.e2e.setup_s = stats::median(setups);
    let rates: Vec<f64> = trainings
        .iter()
        .map(|t| t.rows as f64 / t.wall.as_secs_f64())
        .collect();
    let t = &trainings[0];
    let fastest: f64 = (0..t.steps.len())
        .map(|i| {
            trainings
                .iter()
                .filter_map(|o| o.steps.get(i).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    run.e2e.train_samples_per_s = t.rows as f64 / fastest;
    run.set("model.retrain_epochs", t.epochs as f64);
    run.set("model.retrain_updates", t.updates as f64);
    run.lines.push(format!(
        "setup: {} reps, median {:.3} s ({})",
        setups.len(),
        run.e2e.setup_s,
        setups
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    run.lines.push(format!(
        "training: {} rows, {} epochs, {} updates; {} timed phases at {} rows/s; \
         fastest time of each of the {} steps summed: {:.3} s, {:.0} rows/s",
        t.rows,
        t.epochs,
        t.updates,
        trainings.len(),
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(", "),
        t.steps.len(),
        fastest,
        run.e2e.train_samples_per_s
    ));
    if trainings
        .iter()
        .any(|o| (o.epochs, o.updates) != (t.epochs, t.updates))
    {
        run.problems
            .push("repeated training was not deterministic".into());
    }
}

fn describe(v: f64) -> String {
    if v < 0.0 {
        "insufficient samples".into()
    } else {
        format!("{v:.1} µs")
    }
}

/// Latency figures: `p50_us` and `p90_us` are the [`WINDOW_QUARTILE`]
/// quantiles over the [`LATENCY_WINDOW`]-request windows of the three
/// latency segments of each window's percentile; the tail and the
/// generator's lateness are diagnostics over all of them.
fn record_latency(run: &mut Run, lat: &[usize], limit_us: f64) {
    let segments: Vec<&Phase> = lat.iter().map(|&i| &run.phases[i]).collect();
    let windows = |q: f64| -> Option<Vec<f64>> {
        let mut all = Vec::new();
        for p in &segments {
            all.extend(load::window_percentiles(p, q, LATENCY_WINDOW)?);
        }
        (!all.is_empty()).then_some(all)
    };
    let (p50, p90) = (windows(0.5), windows(0.9));
    let pooled = |f: fn(&Phase) -> &Vec<f64>| -> Vec<f64> {
        stats::sorted(
            &segments
                .iter()
                .flat_map(|p| f(p).iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    let all = pooled(|p| &p.lat_us);
    let late = pooled(|p| &p.late_us);
    let server = pooled(|p| &p.server_us);
    let rtt = pooled(|p| &p.rtt_us);
    let wake: Vec<f64> = segments
        .iter()
        .flat_map(|p| p.rtt_us.iter().zip(&p.server_us).map(|(r, s)| r - s))
        .collect();
    let max_late = late.last().copied().unwrap_or(0.0);
    let mut flags: Vec<String> = run
        .phases
        .iter()
        .filter(|p| p.max_lateness_us() > limit_us)
        .map(|p| {
            format!(
                "FLAG: the {} generator ran up to {:.0} µs late, beyond the {limit_us:.0} µs \
                 limit",
                p.name,
                p.max_lateness_us()
            )
        })
        .collect();
    let window_p90 = stats::sorted(p90.as_deref().unwrap_or_default());
    let pct = |s: &[f64], q: f64| stats::percentile(s, q).map_or(-1.0, |v| v.min(1e9));
    match (&p50, &p90) {
        (Some(p50), Some(p90)) => {
            // A refused or failed request sorts as an infinite latency.
            let across = |v: &[f64]| stats::nearest_rank(&stats::sorted(v), WINDOW_QUARTILE);
            run.e2e.p50_us = across(p50).unwrap_or(f64::INFINITY).min(1e9);
            run.e2e.p90_us = across(p90).unwrap_or(f64::INFINITY).min(1e9);
        }
        _ => run
            .problems
            .push("latency segments too short for p90".into()),
    }
    run.set("latency.p99_us", pct(&all, 0.99));
    run.set("latency.p999_us", pct(&all, 0.999));
    run.set("latency.samples", all.len() as f64);
    run.set("gen.lateness_us.p90", pct(&late, 0.9));
    run.set("gen.lateness_us.max", max_late);
    run.set("gen.samples", late.len() as f64);
    run.set("serve.server_elapsed_us.p50", pct(&server, 0.5));
    run.set("serve.server_elapsed_us.p90", pct(&server, 0.9));
    run.set("serve.wakeup_us", stats::median(&wake));
    run.lines.push(format!(
        "latency: limit {limit_us:.0} µs, p50 {:.1} µs, p90 {:.1} µs (lower quartiles over \
         {} windows of {LATENCY_WINDOW} requests; window p90 min/quartiles/max {}) over {} \
         requests; p99 {}, p999 {}; client round trip p90 {:.1} µs, server elapsed p90 \
         {:.1} µs, generator lateness p90 {:.1} µs, max {max_late:.1} µs",
        run.e2e.p50_us,
        run.e2e.p90_us,
        window_p90.len(),
        [0.0, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&q| {
                let i = (q * window_p90.len().saturating_sub(1) as f64).round() as usize;
                window_p90.get(i).map_or("-".into(), |v| format!("{v:.0}"))
            })
            .collect::<Vec<_>>()
            .join("/"),
        all.len(),
        describe(pct(&all, 0.99)),
        describe(pct(&all, 0.999)),
        pct(&rtt, 0.9),
        pct(&server, 0.9),
        pct(&late, 0.9),
    ));
    run.lines.append(&mut flags);
}

/// Share of the latency segments' answers whose label is the true one;
/// `truth(phase, k)` is the label of request `k` of `phase`.
pub fn accuracy(run: &Run, lat: &[usize], truth: &dyn Fn(&str, usize) -> usize) -> f64 {
    let (mut right, mut total) = (0usize, 0usize);
    for &i in lat {
        let p = &run.phases[i];
        total += p.answers.len();
        right += p
            .answers
            .iter()
            .filter(|a| a.label as usize == truth(&p.name, a.k as usize))
            .count();
    }
    right as f64 / total.max(1) as f64
}

/// Self times of the root spans and the mean durations of the timed calls.
pub fn record_spans(run: &mut Run) {
    use crate::common::mean_ns;
    let spans = &run.spans;
    let selfs = trace::self_times(spans);
    let self_mean = |name: &str| {
        selfs
            .get(name)
            .map_or(0.0, |&(n, t)| t as f64 / n.max(1) as f64)
    };
    let values = [
        ("self.request_us", self_mean("request") / 1e3),
        ("self.train_ms", self_mean("train") / 1e6),
        ("self.setup_ms", self_mean("setup") / 1e6),
        ("self.replay_us", self_mean("replay") / 1e3),
        (
            "encoding.encode_batch_ms",
            mean_ns(spans, "encode_batch") / 1e6,
        ),
        ("model.fit_ms", mean_ns(spans, "fit") / 1e6),
        (
            "model.retrain_epoch_ms",
            mean_ns(spans, "retrain_epoch") / 1e6,
        ),
        ("encoding.bins_ns", mean_ns(spans, "bins")),
        ("encoding.encode_bins_ns", mean_ns(spans, "encode_bins")),
        ("model.score_ns_per_row.b1", mean_ns(spans, "score_b1")),
        (
            "model.score_ns_per_row.b16",
            mean_ns(spans, "score_b16") / 16.0,
        ),
        ("net.frame_encode_ns", mean_ns(spans, "frame_encode")),
        ("net.frame_decode_ns", mean_ns(spans, "frame_decode")),
        ("serve.submit_ns", mean_ns(spans, "submit")),
        ("compress.prune_ms", mean_ns(spans, "prune") / 1e6),
        ("ledger.publish_ms", mean_ns(spans, "publish") / 1e6),
    ];
    let lines: Vec<String> = selfs
        .iter()
        .map(|(name, &(n, t))| {
            format!(
                "  self time {name:<18} {n:>8} spans, mean {:>12.2} µs",
                t as f64 / n.max(1) as f64 / 1e3
            )
        })
        .collect();
    for (name, v) in values {
        run.set(name, v);
    }
    run.lines.push("span self times (traced run):".into());
    run.lines.extend(lines);
}

/// Queue wait: the server-reported p50 beyond the replayed encode and
/// score time of the same requests (`base_ns`, reported too).
pub fn record_queue_wait(run: &mut Run, base_ns: f64) {
    let p50 = run
        .layers
        .get("serve.server_elapsed_us.p50")
        .copied()
        .unwrap_or(0.0);
    run.set("serve.queue_wait_base_us", base_ns / 1e3);
    run.set("serve.queue_wait_us", p50 - base_ns / 1e3);
}

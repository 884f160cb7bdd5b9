//! Load drivers: closed loops (fixed request count, fixed window) and open
//! loops (fixed rate and duration, latency timed from each request's due
//! time), in process through `ServerHandle` and over a GNET socket.

use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use generic_hdc::{Frame, ServeAnswer, SubmitError, Ticket};

use crate::common::WINDOW_QUARTILE;
use crate::stats;
use crate::trace::{fresh_tag, Span, SpanLog};

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    Answered,
    /// QueueFull, DeadlineHopeless, TenantUnavailable or a GNET Refusal.
    Refused,
    /// Canceled, or any other error.
    Failed,
}

/// One answered request, kept for the oracle check after the window.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    pub k: u32,
    pub label: u32,
    pub dims: u32,
    /// Which pinned model scored it (snapshot version or tenant bit width).
    pub model: u32,
}

/// Everything one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub name: String,
    pub sent: u64,
    pub answered: u64,
    pub refused: u64,
    pub failed: u64,
    /// Oracle mismatches, filled in by the check after the window.
    pub mismatched: u64,
    pub wall: Duration,
    /// Per request in send order: latency from due (open loop) or from
    /// send (closed loop) in µs; `INFINITY` for refused/failed requests.
    pub lat_us: Vec<f64>,
    /// Client round trip from the actual send, µs (answered only).
    pub rtt_us: Vec<f64>,
    /// Server-reported admission→answer time, µs (answered only).
    pub server_us: Vec<f64>,
    /// Generator lateness per request, µs (open loop only).
    pub late_us: Vec<f64>,
    /// Completion instants, seconds from phase start (closed loop only).
    pub done_s: Vec<f64>,
    pub answers: Vec<Answer>,
    /// (sent - answered) at each quarter of an open-loop phase.
    pub backlog: Vec<u64>,
    pub spans: Vec<Span>,
}

impl Phase {
    pub fn p(&self, q: f64) -> Option<f64> {
        stats::percentile(&stats::sorted(&self.lat_us), q)
    }

    pub fn backlog_grows(&self) -> bool {
        match (self.backlog.first(), self.backlog.last()) {
            (Some(&first), Some(&last)) => last > 64 && last > 2 * first,
            _ => false,
        }
    }

    pub fn max_lateness_us(&self) -> f64 {
        self.late_us.iter().copied().fold(0.0, f64::max)
    }

    pub fn line(&self) -> String {
        let late = stats::sorted(&self.late_us);
        let lateness = match (stats::percentile(&late, 0.9), late.last()) {
            (Some(p90), Some(max)) => format!(" lateness p90 {p90:.0} µs max {max:.0} µs"),
            _ => String::new(),
        };
        format!(
            "phase {:<14} sent {:>6} answered {:>6} refused {:>5} failed {:>3} (oracle {}) \
             wall {:.3} s p50 {:.0} µs p90 {:.0} µs{lateness}",
            self.name,
            self.sent,
            self.answered,
            self.refused,
            self.failed + self.mismatched,
            self.mismatched,
            self.wall.as_secs_f64(),
            self.p(0.5).unwrap_or(-1.0),
            self.p(0.9).unwrap_or(-1.0),
        )
    }
}

/// Whether spans are recorded, and the instant span times count from.
#[derive(Debug, Clone, Copy)]
pub struct Tracing {
    pub on: bool,
    pub origin: Instant,
}

impl Tracing {
    pub fn log(self) -> SpanLog {
        SpanLog::new(self.on, self.origin)
    }

    pub fn off(self) -> Tracing {
        Tracing { on: false, ..self }
    }
}

/// A 16-bit hash of a phase name, for seeding the phase's inputs.
pub fn name_hash(name: &str) -> u64 {
    name.bytes()
        .fold(7u64, |h, b| h.wrapping_mul(31).wrapping_add(u64::from(b)))
        & 0xFFFF
}

/// Span id of request `k` of the phase run tagged `tag` (a fresh tag per
/// run): shared by every thread that records a span of that request.
pub fn request_id(tag: u64, k: usize) -> u64 {
    (0xFE << 48) | ((tag & 0xFFFF) << 32) | k as u64
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Sleeps until `due` (never spins: a spinning client would take a core
/// from a 2-core server). Returns the lateness.
fn wait_until(due: Instant) -> Duration {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    Instant::now().saturating_duration_since(due)
}

pub fn refusal(e: &SubmitError) -> End {
    match e {
        SubmitError::QueueFull
        | SubmitError::DeadlineHopeless { .. }
        | SubmitError::TenantUnavailable { .. } => End::Refused,
        _ => End::Failed,
    }
}

/// What an in-process phase submits: request `k` → a ticket or a refusal.
pub type SubmitFn<'a> = dyn Fn(usize, &mut SpanLog, u64) -> Result<Ticket, SubmitError> + Sync + 'a;
/// Turns an answer to request `k` into its check record.
pub type RecordFn<'a> = dyn Fn(usize, &ServeAnswer) -> Answer + Sync + 'a;
/// A side event of an open-loop schedule (learn submit, tenant publish).
pub type SideFn<'a> = dyn FnMut(usize, &mut SpanLog) + 'a;

/// Closed loop from one thread keeping `window` requests in flight until
/// `n` requests have completed.
pub fn closed_inproc(
    name: &str,
    n: usize,
    window: usize,
    submit: &SubmitFn,
    record: &RecordFn,
    tr: Tracing,
) -> Phase {
    let tag = fresh_tag();
    let mut log = tr.log();
    let mut phase = Phase {
        name: name.to_string(),
        ..Phase::default()
    };
    let start = Instant::now();
    let mut inflight: VecDeque<(usize, Instant, Ticket)> = VecDeque::new();
    let mut next = 0usize;
    while next < n || !inflight.is_empty() {
        while next < n && inflight.len() < window {
            let k = next;
            next += 1;
            phase.sent += 1;
            let sent = Instant::now();
            match submit(k, &mut log, tag) {
                Ok(ticket) => inflight.push_back((k, sent, ticket)),
                Err(e) => {
                    match refusal(&e) {
                        End::Refused => phase.refused += 1,
                        _ => phase.failed += 1,
                    }
                    phase.lat_us.push(f64::INFINITY);
                    phase.done_s.push(start.elapsed().as_secs_f64());
                }
            }
        }
        let Some((k, sent, ticket)) = inflight.pop_front() else {
            break;
        };
        let result = ticket.wait();
        let now = Instant::now();
        phase.done_s.push(now.duration_since(start).as_secs_f64());
        match result {
            Ok(answer) => {
                phase.answered += 1;
                let rtt = us(now - sent);
                phase.lat_us.push(rtt);
                phase.rtt_us.push(rtt);
                phase.server_us.push(us(answer.elapsed));
                phase.answers.push(record(k, &answer));
                log.record(
                    request_id(tag, k),
                    None,
                    request_id(tag, k),
                    "request",
                    sent,
                    now,
                );
            }
            Err(_) => {
                phase.failed += 1;
                phase.lat_us.push(f64::INFINITY);
            }
        }
    }
    phase.wall = start.elapsed();
    phase.spans = log.into_spans();
    phase
}

/// Open loop at `rate` requests/s for `duration`: this thread generates on
/// schedule (and fires `side` events at `side_rate`), a second thread
/// redeems tickets in order.
#[allow(clippy::too_many_arguments)]
pub fn open_inproc(
    name: &str,
    rate: f64,
    duration: Duration,
    submit: &SubmitFn,
    record: &RecordFn,
    side_rate: f64,
    side: &mut SideFn,
    tr: Tracing,
) -> Phase {
    let tag = fresh_tag();
    let n = ((rate * duration.as_secs_f64()) as usize).max(1);
    let n_side = (side_rate * duration.as_secs_f64()) as usize;
    let mut phase = Phase {
        name: name.to_string(),
        ..Phase::default()
    };
    let done = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Instant, Result<Ticket, End>)>();
    let start = Instant::now() + Duration::from_millis(2);
    let due = |k: usize| start + Duration::from_secs_f64(k as f64 / rate);
    let side_due = |j: usize| start + Duration::from_secs_f64((j as f64 + 0.5) / side_rate);

    let mut gen_log = tr.log();
    let collected = std::thread::scope(|scope| {
        let done = &done;
        let collector = scope.spawn(move || {
            let mut log = tr.log();
            let mut out = Phase::default();
            let mut last = start;
            for (k, sent, ticket) in rx {
                let end = match ticket {
                    Ok(ticket) => match ticket.wait() {
                        Ok(answer) => {
                            let now = Instant::now();
                            last = now;
                            out.lat_us.push(us(now.saturating_duration_since(due(k))));
                            out.rtt_us.push(us(now - sent));
                            out.server_us.push(us(answer.elapsed));
                            out.answers.push(record(k, &answer));
                            log.record(
                                request_id(tag, k),
                                None,
                                request_id(tag, k),
                                "request",
                                sent,
                                now,
                            );
                            End::Answered
                        }
                        Err(_) => End::Failed,
                    },
                    Err(end) => end,
                };
                match end {
                    End::Answered => out.answered += 1,
                    End::Refused => out.refused += 1,
                    End::Failed => out.failed += 1,
                }
                if end != End::Answered {
                    out.lat_us.push(f64::INFINITY);
                }
                done.fetch_add(1, Ordering::Relaxed);
            }
            out.wall = last.saturating_duration_since(start);
            out.spans = log.into_spans();
            out
        });

        let mut j = 0usize;
        for k in 0..n {
            while j < n_side && side_due(j) <= due(k) {
                wait_until(side_due(j));
                side(j, &mut gen_log);
                j += 1;
            }
            let late = wait_until(due(k));
            phase.late_us.push(us(late));
            if k % (n / 4).max(1) == 0 || k + 1 == n {
                phase.backlog.push(k as u64 - done.load(Ordering::Relaxed));
            }
            let sent = Instant::now();
            let ticket = submit(k, &mut gen_log, tag).map_err(|e| refusal(&e));
            if tx.send((k, sent, ticket)).is_err() {
                break;
            }
        }
        drop(tx);
        collector.join().expect("collector thread does not panic")
    });
    phase.sent = n as u64;
    phase.answered = collected.answered;
    phase.refused = collected.refused;
    phase.failed = collected.failed;
    phase.lat_us = collected.lat_us;
    phase.rtt_us = collected.rtt_us;
    phase.server_us = collected.server_us;
    phase.answers = collected.answers;
    phase.wall = collected.wall;
    phase.spans = gen_log.into_spans();
    phase.spans.extend(collected.spans);
    phase
}

// ---------------------------------------------------------------------------
// Socket drivers
// ---------------------------------------------------------------------------

/// Reads one whole frame (length prefix included) into `buf`.
fn read_raw<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> std::io::Result<()> {
    buf.resize(4, 0);
    r.read_exact(&mut buf[..4])?;
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > generic_hdc::net::MAX_FRAME_LEN {
        return Err(std::io::Error::other("oversized frame"));
    }
    buf.resize(4 + len, 0);
    r.read_exact(&mut buf[4..])
}

/// The request for row `features` (no budget: full tier) with id `id`.
fn infer_frame(id: u64, features: &[f64]) -> Frame {
    Frame::Infer {
        request_id: id,
        deadline_us: 0,
        tenant: None,
        features: features.to_vec(),
    }
}

/// Which feature row request `k` of a phase sends.
pub type RowFn<'a, 'r> = dyn Fn(usize) -> &'r [f64] + Sync + 'a;

/// What one response frame means for the request it answers.
enum Response {
    Answer {
        id: u64,
        label: u64,
        dims: u32,
        elapsed_us: u64,
    },
    Refused,
    Other,
}

fn decode(buf: &[u8], log: &mut SpanLog, parent: impl Fn(u64) -> Option<u64>) -> Response {
    let start = Instant::now();
    let frame = Frame::decode(buf);
    let end = Instant::now();
    let (response, id) = match frame {
        Ok(Frame::Answer {
            request_id,
            label,
            dims_used,
            elapsed_us,
            ..
        }) => (
            Response::Answer {
                id: request_id,
                label,
                dims: dims_used,
                elapsed_us,
            },
            request_id,
        ),
        Ok(Frame::Refusal { request_id, .. }) => (Response::Refused, request_id),
        _ => (Response::Other, 0),
    };
    if log.enabled() {
        let span = log.id();
        log.record(span, parent(id), id, "frame_decode", start, end);
    }
    response
}

/// Closed loop over one connection from one thread: up to `window` Infer
/// frames in flight until `n` have been answered or refused.
#[allow(clippy::too_many_arguments)]
pub fn closed_net(
    name: &str,
    stream: &TcpStream,
    base: u64,
    n: usize,
    window: usize,
    row: &RowFn,
    tr: Tracing,
) -> std::io::Result<Phase> {
    let tag = fresh_tag();
    let mut log = tr.log();
    let mut phase = Phase {
        name: name.to_string(),
        ..Phase::default()
    };
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut sent_at: VecDeque<Instant> = VecDeque::new();
    let mut buf = Vec::new();
    let start = Instant::now();
    let mut next = 0usize;
    let mut completed = 0usize;
    while completed < n {
        while next < n && sent_at.len() < window {
            let frame = infer_frame(base + next as u64, row(next));
            let rid = request_id(tag, next);
            let bytes = log.time("frame_encode", Some(rid), rid, || frame.encode());
            sent_at.push_back(Instant::now());
            writer.write_all(&bytes)?;
            next += 1;
            phase.sent += 1;
        }
        read_raw(&mut reader, &mut buf)?;
        let response = decode(&buf, &mut log, |id| {
            Some(request_id(tag, id.wrapping_sub(base) as usize))
        });
        let now = Instant::now();
        let sent = sent_at
            .pop_front()
            .expect("a response answers an in-flight request");
        phase.done_s.push(now.duration_since(start).as_secs_f64());
        completed += 1;
        match response {
            Response::Answer {
                id,
                label,
                dims,
                elapsed_us,
            } => {
                let k = id.wrapping_sub(base) as usize;
                phase.answered += 1;
                let rtt = us(now - sent);
                phase.lat_us.push(rtt);
                phase.rtt_us.push(rtt);
                phase.server_us.push(elapsed_us as f64);
                phase.answers.push(Answer {
                    k: k as u32,
                    label: label as u32,
                    dims,
                    model: 0,
                });
                log.record(request_id(tag, k), None, id, "request", sent, now);
            }
            Response::Refused => {
                phase.refused += 1;
                phase.lat_us.push(f64::INFINITY);
            }
            Response::Other => {
                phase.failed += 1;
                phase.lat_us.push(f64::INFINITY);
            }
        }
    }
    phase.wall = start.elapsed();
    phase.spans = log.into_spans();
    Ok(phase)
}

/// Open loop over one connection: this thread writes Infer frames on
/// schedule, a second thread reads the responses on a cloned stream.
#[allow(clippy::too_many_arguments)]
pub fn open_net(
    name: &str,
    stream: &TcpStream,
    base: u64,
    rate: f64,
    duration: Duration,
    row: &RowFn,
    tr: Tracing,
) -> std::io::Result<Phase> {
    let tag = fresh_tag();
    let n = ((rate * duration.as_secs_f64()) as usize).max(1);
    let mut phase = Phase {
        name: name.to_string(),
        sent: n as u64,
        ..Phase::default()
    };
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let sent_ns: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let done = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let due = |k: usize| start + Duration::from_secs_f64(k as f64 / rate);
    let mut log = tr.log();

    let collected = std::thread::scope(|scope| -> std::io::Result<Phase> {
        let sent_ns = &sent_ns;
        let done = &done;
        let reader_thread = scope.spawn(move || -> std::io::Result<Phase> {
            let mut log = tr.log();
            let mut out = Phase::default();
            let mut buf = Vec::new();
            let mut last = start;
            for _ in 0..n {
                read_raw(&mut reader, &mut buf)?;
                let response = decode(&buf, &mut log, |id| {
                    Some(request_id(tag, id.wrapping_sub(base) as usize))
                });
                let now = Instant::now();
                last = now;
                match response {
                    Response::Answer {
                        id,
                        label,
                        dims,
                        elapsed_us,
                    } => {
                        let k = id.wrapping_sub(base) as usize;
                        let sent = start + Duration::from_nanos(sent_ns[k].load(Ordering::Acquire));
                        out.answered += 1;
                        out.lat_us.push(us(now.saturating_duration_since(due(k))));
                        out.rtt_us.push(us(now.saturating_duration_since(sent)));
                        out.server_us.push(elapsed_us as f64);
                        out.answers.push(Answer {
                            k: k as u32,
                            label: label as u32,
                            dims,
                            model: 0,
                        });
                        log.record(request_id(tag, k), None, id, "request", sent, now);
                    }
                    Response::Refused => {
                        out.refused += 1;
                        out.lat_us.push(f64::INFINITY);
                    }
                    Response::Other => {
                        out.failed += 1;
                        out.lat_us.push(f64::INFINITY);
                    }
                }
                done.fetch_add(1, Ordering::Relaxed);
            }
            out.wall = last.saturating_duration_since(start);
            out.spans = log.into_spans();
            Ok(out)
        });

        for (k, slot) in sent_ns.iter().enumerate() {
            let late = wait_until(due(k));
            phase.late_us.push(us(late));
            if k % (n / 4).max(1) == 0 || k + 1 == n {
                phase.backlog.push(k as u64 - done.load(Ordering::Relaxed));
            }
            let frame = infer_frame(base + k as u64, row(k));
            let rid = request_id(tag, k);
            let bytes = log.time("frame_encode", Some(rid), rid, || frame.encode());
            let sent = Instant::now();
            slot.store(
                sent.saturating_duration_since(start).as_nanos() as u64,
                Ordering::Release,
            );
            writer.write_all(&bytes)?;
        }
        reader_thread.join().expect("reader thread does not panic")
    })?;
    phase.answered = collected.answered;
    phase.refused = collected.refused;
    phase.failed = collected.failed;
    phase.lat_us = collected.lat_us;
    phase.rtt_us = collected.rtt_us;
    phase.server_us = collected.server_us;
    phase.answers = collected.answers;
    phase.wall = collected.wall;
    phase.spans = log.into_spans();
    phase.spans.extend(collected.spans);
    Ok(phase)
}

/// The completion rate (1/s) within each of `chunks` consecutive slices
/// of a closed-loop phase.
pub fn slice_rates(phase: &Phase, chunks: usize) -> Vec<f64> {
    let size = phase.done_s.len() / chunks;
    (0..chunks)
        .filter_map(|c| {
            let (a, b) = (c * size, (c + 1) * size - 1);
            let dt = phase.done_s[b] - phase.done_s[a];
            (dt > 0.0).then(|| (b - a) as f64 / dt)
        })
        .collect()
}

/// The `q` latency percentile of each whole window of `size` consecutive
/// requests (in send order); `None` if a window has too few samples.
pub fn window_percentiles(phase: &Phase, q: f64, size: usize) -> Option<Vec<f64>> {
    phase
        .lat_us
        .chunks_exact(size)
        .map(|w| stats::percentile(&stats::sorted(w), q))
        .collect()
}

/// The [`WINDOW_QUARTILE`] quantile over windows of `size` requests of
/// each window's `q` latency percentile; `None` if the phase holds no
/// whole window.
pub fn windowed_percentile(phase: &Phase, q: f64, size: usize) -> Option<f64> {
    window_percentiles(phase, q, size)
        .and_then(|v| stats::nearest_rank(&stats::sorted(&v), WINDOW_QUARTILE))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whole windows only, each window's own percentile, and the lower
    /// quartile across windows ignores the windows a stall filled.
    #[test]
    fn windowed_percentiles_take_the_lower_quartile_over_whole_windows() {
        let mut lat: Vec<f64> = (0..450).map(|i| f64::from(i % 200 + 1)).collect();
        for v in &mut lat[200..400] {
            *v += 1e4;
        }
        let phase = Phase {
            lat_us: lat,
            ..Phase::default()
        };
        let p90 = window_percentiles(&phase, 0.9, 200).expect("20 samples beyond p90");
        assert_eq!(p90, vec![180.0, 10_180.0]);
        let short = Phase {
            lat_us: vec![1.0; 100],
            ..Phase::default()
        };
        assert_eq!(window_percentiles(&short, 0.95, 100), None);
        assert_eq!(windowed_percentile(&short, 0.5, 200), None);
        // Two of four windows stalled: the figure is the quiet windows'.
        let four = Phase {
            lat_us: phase.lat_us[..400].repeat(2),
            ..Phase::default()
        };
        assert_eq!(windowed_percentile(&four, 0.9, 200), Some(180.0));
    }
}

//! Open-loop traffic against a running server, timed without coordinated
//! omission.
//!
//! The schedule (Poisson arrival offsets and the requests themselves) is
//! generated from the seed before a step starts. The pacer thread sends
//! each request at its scheduled instant regardless of how far the server
//! has fallen behind; a collector thread observes completions. Latency is
//! measured from the *scheduled* send instant, so a stall that delays later
//! sends is charged to those requests, and the pacer's own lateness is
//! recorded so that a step where the pacer fell behind can be marked
//! invalid instead of slow.

use crate::stats;
use crate::trace::Tracer;
use gcod::nn::Tensor;
use gcod::prelude::{Handle, ServeRequest, ServeResponse, SubmitOptions, Ticket};
use gcod_bench::load::SplitMix64;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nodes per classify request.
pub const WINDOW: usize = 8;
/// One request in this many is a `predict_perf(Auto)`.
pub const PERF_EVERY: usize = 16;
/// How long the collector blocks on the oldest ticket before sweeping the
/// others: bounds the stamping error of a request that completes ahead of
/// an older one.
const SWEEP_EVERY: Duration = Duration::from_millis(1);
/// An accepted ticket unresolved this long after its send is lost.
const LOST_AFTER: Duration = Duration::from_secs(10);

/// What a response must match.
#[derive(Debug)]
pub struct Oracle {
    /// Full logits computed once with `GnnModel::forward`.
    pub logits: Tensor,
    /// Platform `Server::serve_one` picked for `predict_perf(Auto)`.
    pub platform: String,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    Classify(Vec<usize>),
    Perf,
}

impl Oracle {
    pub fn check(&self, expect: &Expect, response: &ServeResponse) -> bool {
        match (expect, response) {
            (Expect::Classify(nodes), ServeResponse::Classification(c)) => {
                c.nodes == *nodes
                    && self.logits.gather_rows(nodes).is_ok_and(|want| {
                        want.shape() == c.logits.shape()
                            && want
                                .data()
                                .iter()
                                .zip(c.logits.data())
                                .all(|(a, b)| a.to_bits() == b.to_bits())
                    })
            }
            (Expect::Perf, ServeResponse::Perf(p)) => p.platform == self.platform,
            _ => false,
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Arrival {
    pub offset: Duration,
    pub request: ServeRequest,
    pub expect: Expect,
}

/// The models one traffic mix addresses.
#[derive(Debug, Clone)]
pub struct Traffic {
    /// Classify requests take these in turn.
    pub classify_models: Vec<String>,
    pub perf_model: String,
    pub nodes: usize,
}

impl Traffic {
    /// `count` Poisson arrivals at `rate` per second; every
    /// [`PERF_EVERY`]-th is a perf prediction, the rest classify
    /// [`WINDOW`] uniformly drawn nodes.
    pub fn schedule(&self, seed: u64, rate: f64, count: usize) -> Vec<Arrival> {
        let mut rng = SplitMix64::new(seed);
        let mut offset = Duration::ZERO;
        let mut models = self.classify_models.iter().cycle();
        (0..count)
            .map(|i| {
                offset += rng.next_exp_gap(rate);
                let (request, expect) = if i % PERF_EVERY == PERF_EVERY - 1 {
                    (ServeRequest::predict_perf(&self.perf_model), Expect::Perf)
                } else {
                    let nodes: Vec<usize> = (0..WINDOW)
                        .map(|_| (rng.next_u64() % self.nodes as u64) as usize)
                        .collect();
                    let model = models.next().expect("at least one classify model");
                    (
                        ServeRequest::classify(model, nodes.clone()),
                        Expect::Classify(nodes),
                    )
                };
                Arrival {
                    offset,
                    request,
                    expect,
                }
            })
            .collect()
    }
}

/// Outcome of one open-loop step.
#[derive(Debug, Clone, Default)]
pub struct StepResult {
    pub rate: f64,
    pub offered: u64,
    /// Completed with a response that matched the oracle.
    pub ok: u64,
    pub classify_ok: u64,
    /// Refused at `Handle::submit`.
    pub rejected: u64,
    /// Resolved with an error.
    pub errored: u64,
    /// Resolved with a response that did not match the oracle.
    pub mismatched: u64,
    /// Accepted but never resolved.
    pub lost: u64,
    /// Scheduled send to observed completion, per ok request.
    pub latency_ms: Vec<f64>,
    /// How late the pacer sent each request.
    pub late_ms: Vec<f64>,
    /// `Handle::queue_len` sampled before each submit (traced runs only).
    pub queue_len: Vec<f64>,
    /// Offered rate realised by the schedule: arrival intervals over the
    /// span from first to last arrival.
    pub realised_rps: f64,
    /// Completion rate, inferred from how latency grows over the step: a
    /// FIFO server completing μ requests per second under λ arrivals per
    /// second adds λ/μ − 1 seconds of latency per second of arrivals, so
    /// μ = λ / (1 + slope) with the slope fitted over every ok request. It
    /// falls behind `realised_rps` when a backlog grows. A fit over the
    /// whole step is not thrown off, as the span from first to last
    /// completion is, by fused batches completing in bursts.
    pub achieved_rps: f64,
}

impl StepResult {
    pub fn failed(&self) -> u64 {
        self.rejected + self.errored + self.mismatched + self.lost
    }

    pub fn late_p99_ms(&self) -> f64 {
        stats::quantile(&self.late_ms, 0.99)
    }
}

/// Every offered request is accounted for exactly once.
pub fn check_conservation(offered: u64, ok: u64, failed: u64) -> Result<(), String> {
    if offered == ok + failed {
        Ok(())
    } else {
        Err(format!(
            "count conservation broken: offered {offered} != ok {ok} + failed {failed}"
        ))
    }
}

struct InFlight {
    ticket: Ticket,
    due: Instant,
    expect: Expect,
    request_id: u64,
    span_id: u64,
}

#[derive(Default)]
struct Collected {
    ok: u64,
    classify_ok: u64,
    errored: u64,
    mismatched: u64,
    lost: u64,
    latency_ms: Vec<f64>,
    /// Scheduled send instant of each ok request, in `latency_ms` order.
    due: Vec<Instant>,
}

/// Runs `arrivals` against `handle`. `request_base` offsets the request
/// ids that tie a request's spans together.
pub fn run_step(
    handle: &Handle,
    arrivals: Vec<Arrival>,
    rate: f64,
    oracle: &Arc<Oracle>,
    tracer: &Arc<Tracer>,
    request_base: u64,
) -> StepResult {
    let offered = arrivals.len() as u64;
    let span_s = match (arrivals.first(), arrivals.last()) {
        (Some(a), Some(b)) => (b.offset - a.offset).as_secs_f64(),
        _ => 0.0,
    };
    let (tx, rx) = mpsc::channel::<InFlight>();
    let collector = {
        let oracle = Arc::clone(oracle);
        let tracer = Arc::clone(tracer);
        std::thread::spawn(move || collect(&rx, &oracle, &tracer))
    };

    let tracing = tracer.enabled();
    let mut result = StepResult {
        rate,
        offered,
        ..StepResult::default()
    };
    result.late_ms.reserve(arrivals.len());
    let start = Instant::now() + Duration::from_millis(1);
    for (i, arrival) in arrivals.into_iter().enumerate() {
        let due = start + arrival.offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let request_id = request_base + i as u64;
        if tracing {
            result.queue_len.push(handle.queue_len() as f64);
        }
        let sent = Instant::now();
        result
            .late_ms
            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        let span_id = tracer.reserve();
        let submitted = tracer.span("serve.submit", Some(span_id), Some(request_id), |_| {
            handle.submit(arrival.request, SubmitOptions::default())
        });
        match submitted {
            Ok(ticket) => {
                let _ = tx.send(InFlight {
                    ticket,
                    due,
                    expect: arrival.expect,
                    request_id,
                    span_id,
                });
            }
            Err(_) => result.rejected += 1,
        }
    }
    drop(tx);
    let collected = collector.join().expect("collector thread panicked");
    let due_s: Vec<f64> = collected
        .due
        .iter()
        .map(|d| d.saturating_duration_since(start).as_secs_f64())
        .collect();
    let latency_s: Vec<f64> = collected.latency_ms.iter().map(|l| l / 1e3).collect();
    // Latency falling this fast means a stall at the start drained: the
    // server kept up.
    let growth = stats::slope(&due_s, &latency_s).max(-0.5);

    result.ok = collected.ok;
    result.classify_ok = collected.classify_ok;
    result.errored = collected.errored;
    result.mismatched = collected.mismatched;
    result.lost = collected.lost;
    result.latency_ms = collected.latency_ms;
    result.realised_rps = if offered > 1 && span_s > 0.0 {
        (offered - 1) as f64 / span_s
    } else {
        0.0
    };
    result.achieved_rps = result.realised_rps / (1.0 + growth);
    result
}

fn collect(rx: &mpsc::Receiver<InFlight>, oracle: &Oracle, tracer: &Tracer) -> Collected {
    let mut out = Collected::default();
    let mut pending: VecDeque<InFlight> = VecDeque::new();
    let mut open = true;
    loop {
        if pending.is_empty() {
            if !open {
                break;
            }
            match rx.recv() {
                Ok(f) => pending.push_back(f),
                Err(_) => {
                    open = false;
                    continue;
                }
            }
        }
        loop {
            match rx.try_recv() {
                Ok(f) => pending.push_back(f),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        if let Some(head) = pending.front() {
            let _ = head.ticket.wait_timeout(SWEEP_EVERY);
        }
        let now = Instant::now();
        pending.retain(|f| match f.ticket.try_result() {
            Some(outcome) => {
                match outcome {
                    Ok(response) if oracle.check(&f.expect, &response) => {
                        out.ok += 1;
                        if matches!(f.expect, Expect::Classify(_)) {
                            out.classify_ok += 1;
                        }
                        out.latency_ms
                            .push(now.saturating_duration_since(f.due).as_secs_f64() * 1e3);
                        out.due.push(f.due);
                        tracer.record_as(
                            f.span_id,
                            "serve.request",
                            f.due,
                            now,
                            None,
                            Some(f.request_id),
                        );
                    }
                    Ok(_) => out.mismatched += 1,
                    Err(_) => out.errored += 1,
                }
                false
            }
            None if now.saturating_duration_since(f.due) > LOST_AFTER => {
                out.lost += 1;
                false
            }
            None => true,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic() -> Traffic {
        Traffic {
            classify_models: vec!["m".into(), "s".into()],
            perf_model: "p".into(),
            nodes: 100,
        }
    }

    #[test]
    fn conservation_accepts_balanced_counts_only() {
        assert!(check_conservation(10, 7, 3).is_ok());
        assert!(check_conservation(0, 0, 0).is_ok());
        assert!(check_conservation(10, 7, 2).is_err());
        assert!(check_conservation(10, 8, 3).is_err());
    }

    #[test]
    fn step_failures_sum_every_failure_kind() {
        let step = StepResult {
            offered: 20,
            ok: 10,
            rejected: 4,
            errored: 3,
            mismatched: 2,
            lost: 1,
            ..StepResult::default()
        };
        assert_eq!(step.failed(), 10);
        assert!(check_conservation(step.offered, step.ok, step.failed()).is_ok());
    }

    #[test]
    fn schedule_is_seeded_and_mixes_one_perf_in_sixteen() {
        let a = traffic().schedule(5, 1000.0, 64);
        let b = traffic().schedule(5, 1000.0, 64);
        let c = traffic().schedule(6, 1000.0, 64);
        let offsets = |s: &[Arrival]| s.iter().map(|a| a.offset).collect::<Vec<_>>();
        assert_eq!(offsets(&a), offsets(&b));
        assert_ne!(offsets(&a), offsets(&c));
        assert!(a.windows(2).all(|w| w[0].offset <= w[1].offset));
        let perf = a.iter().filter(|x| x.expect == Expect::Perf).count();
        assert_eq!(perf, 64 / PERF_EVERY);
        let classify: Vec<&Arrival> = a.iter().filter(|x| x.expect != Expect::Perf).collect();
        for (i, x) in classify.iter().enumerate() {
            let Expect::Classify(nodes) = &x.expect else {
                unreachable!("filtered")
            };
            assert_eq!(nodes.len(), WINDOW);
            assert!(nodes.iter().all(|&n| n < 100));
            let model = if i % 2 == 0 { "m" } else { "s" };
            assert_eq!(x.request, ServeRequest::classify(model, nodes.clone()));
        }
    }
}

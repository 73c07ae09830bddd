//! The serving side of a workload: the GCoD-trained cora replica behind a
//! `Server`, driven by open-loop traffic at two fixed rates and by a
//! capacity search, a round at a time.

use crate::capacity::{Bisection, Capacity, Probe};
use crate::metrics::Metrics;
use crate::openloop::{self, Expect, Oracle, StepResult, Traffic};
use crate::stats::{self, median};
use crate::trace::{self, Tracer};
use gcod::graph::{normalize_symmetric, SelfLoops};
use gcod::prelude::{
    Experiment, GnnModel, Graph, Handle, InferenceWorkload, ModelConfig, ModelKind, Precision,
    ServeError, ServeRequest, ServedModel, Server, ServerConfig, ServerStats, ShardOptions,
    ShardedModel, SubmitOptions,
};
use gcod_bench::load::SplitMix64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name the trained model is served under.
const MODEL: &str = "cora-gcn";
/// Name of the sharded registration of the same model (mixed workload).
const SHARDED_MODEL: &str = "cora-gcn-sharded";
/// Shard workers of the sharded registration.
const SHARDS: usize = 2;
/// Linear bisection halvings of the capacity search.
pub const BISECT_STEPS: u32 = 6;
/// A window whose pacer ran later than this at p99 measured the pacer, not
/// the server: it is invalid, and its latencies are left out of the
/// metrics while the valid windows at the same rate support p99.
pub const LATE_BOUND_MS: f64 = 10.0;
/// Fewest requests in a capacity probe: its p99 then has at least ten
/// samples beyond it.
const MIN_PROBE_REQUESTS: usize = 1010;
/// Fewest requests in a fixed-rate window. A window's median decides
/// `p50_ms.*`; the tail is taken over a rate's windows pooled.
const MIN_WINDOW_REQUESTS: usize = 300;
/// Completions must keep up with arrivals to this share (no growing
/// backlog).
const KEEP_UP: f64 = 0.97;
/// Shares of a round's serving time spent at the low and the high rate;
/// the capacity searches get the rest, half: a run holds two searches of
/// a dozen or more probes of at least 1010 requests each.
const LOW_SHARE: f64 = 0.3;
const HIGH_SHARE: f64 = 0.2;
const CAPACITY_SHARE: f64 = 1.0 - LOW_SHARE - HIGH_SHARE;
/// Submission queue of the measured server. The default (64) turns a
/// forward that stalls for two batches into refusals, so near the knee a
/// probe's outcome would hinge on the longest host stall in it; with room
/// to queue, overload shows as the latency and backlog the search judges.
const QUEUE_CAPACITY: usize = 4096;
/// Calls per direct per-layer probe in a traced run.
const PROBE_CALLS: usize = 50;

/// Where classify requests are answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One local registration: every fused batch runs a full-graph forward.
    Local,
    /// A local and a 2-shard registration of the same model in one server,
    /// classify traffic alternating between them: half the requests are
    /// answered by a gather RPC against logits computed once.
    Mixed,
}

/// Offered rates and limits of the serve workloads, recorded in each
/// workload's `why` in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    pub low_rps: f64,
    pub high_rps: f64,
    pub floor_rps: f64,
    pub cap_rps: f64,
    pub p99_limit_ms: f64,
}

pub const PLAN: Plan = Plan {
    low_rps: 500.0,
    high_rps: 1200.0,
    floor_rps: 1000.0,
    cap_rps: 8000.0,
    p99_limit_ms: 40.0,
};

impl Plan {
    /// The plan as `BENCHMARK.json` records it in the workload's `why`.
    pub fn describe(&self) -> String {
        format!(
            "open loop {}/{} rps, p99 limit {} ms, capacity bisection {}-{} rps",
            self.low_rps, self.high_rps, self.p99_limit_ms, self.floor_rps, self.cap_rps
        )
    }
}

/// Server counters between two snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub completed_ok: u64,
    pub completed_err: u64,
    pub batches: u64,
    pub rejected: u64,
    pub expired: u64,
    pub forward_passes: u64,
    pub frames_sent: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub retries: u64,
    pub respawns: u64,
    pub fallbacks: u64,
    pub heartbeat_misses: u64,
}

impl Counters {
    fn between(a: &ServerStats, b: &ServerStats) -> Self {
        let d = |x: u64, y: u64| y.saturating_sub(x);
        Self {
            completed_ok: d(a.completed_ok, b.completed_ok),
            completed_err: d(a.completed_err, b.completed_err),
            batches: d(a.batches, b.batches),
            rejected: d(a.rejected, b.rejected),
            expired: d(a.expired, b.expired),
            forward_passes: d(a.shard.forward_passes, b.shard.forward_passes),
            frames_sent: d(a.shard.frames_sent, b.shard.frames_sent),
            bytes_sent: d(a.shard.bytes_sent, b.shard.bytes_sent),
            bytes_received: d(a.shard.bytes_received, b.shard.bytes_received),
            retries: d(a.shard.retries, b.shard.retries),
            respawns: d(a.shard.respawns, b.shard.respawns),
            fallbacks: d(a.shard.fallbacks, b.shard.fallbacks),
            heartbeat_misses: d(a.shard.heartbeat_misses, b.shard.heartbeat_misses),
        }
    }

    fn add(&mut self, o: &Self) {
        self.completed_ok += o.completed_ok;
        self.completed_err += o.completed_err;
        self.batches += o.batches;
        self.rejected += o.rejected;
        self.expired += o.expired;
        self.forward_passes += o.forward_passes;
        self.frames_sent += o.frames_sent;
        self.bytes_sent += o.bytes_sent;
        self.bytes_received += o.bytes_received;
        self.retries += o.retries;
        self.respawns += o.respawns;
        self.fallbacks += o.fallbacks;
        self.heartbeat_misses += o.heartbeat_misses;
    }
}

/// A trained model behind a running server, with everything needed to
/// check its answers.
pub struct Served {
    handle: Handle,
    traffic: Traffic,
    oracle: Arc<Oracle>,
    graph: Graph,
    model: GnnModel,
    served: ServedModel,
    adj_nnz: usize,
    denser_fraction: f64,
}

/// A serving measurement in progress.
pub struct ServeRun {
    seeds: SplitMix64,
    probe_seconds: f64,
    next_request: u64,
    started: ServerStats,
    /// One independent capacity search per stretch of the run.
    searches: Vec<Bisection>,
    low: Vec<StepResult>,
    high: Vec<StepResult>,
    probes: Vec<StepResult>,
    /// Server counters over the fixed-rate windows.
    fixed: Counters,
}

/// What a finished serving measurement found.
#[derive(Debug)]
pub struct ServeResult {
    pub low: Vec<StepResult>,
    pub high: Vec<StepResult>,
    /// The search that found the highest rate: host stalls only ever
    /// lower a search's result.
    pub capacity: Capacity,
    /// Every search, in the order run.
    pub searches: Vec<Capacity>,
    pub probe_offered: u64,
    /// Probe requests that errored, were lost or mismatched; refusals at
    /// the door are how a probe above capacity fails, not a failure.
    pub probe_failed: u64,
    /// Probe requests answered wrongly or never.
    pub probe_wrong: u64,
    pub probe_conserved: bool,
    pub fixed: Counters,
    /// Server counters over the whole serving measurement.
    pub all: Counters,
}

impl Served {
    /// Trains the GCoD pipeline on the half-size cora replica, starts the
    /// server, computes the oracle and sends a few untimed requests so lazy
    /// set-up (the sharded first forward among it) is done.
    pub fn setup(mode: Mode, tracer: &Tracer) -> Result<Self, String> {
        let result = tracer
            .span("core.pipeline", None, None, |_| {
                Experiment::on_dataset("cora").and_then(|e| e.scale(0.5).train())
            })
            .map_err(|e| format!("Experiment::train: {e}"))?;
        let config = ModelConfig::for_kind(ModelKind::Gcn, &result.graph);
        let nnz = result.split.total_nnz();
        let fp32 = InferenceWorkload::build_with_adjacency_nnz(
            &result.graph,
            &config,
            Precision::Fp32,
            nnz,
        );
        let int8 = InferenceWorkload::build_with_adjacency_nnz(
            &result.graph,
            &config,
            Precision::Int8,
            nnz,
        );
        let served = ServedModel::new(MODEL, result.graph.clone(), result.model.clone())
            .with_gcod_split(fp32, int8, result.split.clone());
        let logits = result
            .model
            .forward(&result.graph)
            .map_err(|e| format!("oracle forward: {e}"))?;
        let platform = Server::new()
            .register(served.clone())
            .serve_one(&ServeRequest::predict_perf(MODEL))
            .map_err(|e| format!("oracle perf prediction: {e}"))?
            .as_perf()
            .map(|p| p.platform.clone())
            .ok_or("oracle perf prediction returned no platform")?;
        let server = Server::with_config(ServerConfig {
            queue_capacity: QUEUE_CAPACITY,
            ..ServerConfig::default()
        })
        .register(served.clone());
        let (server, classify_models) = match mode {
            Mode::Local => (server, vec![MODEL.to_string()]),
            Mode::Mixed => {
                let sharded = ShardedModel::launch(
                    SHARDED_MODEL,
                    &result.graph,
                    &result.model,
                    &ShardOptions::new(SHARDS),
                )
                .map_err(|e| format!("ShardedModel::launch: {e}"))?;
                (
                    server.register_sharded(sharded),
                    vec![MODEL.to_string(), SHARDED_MODEL.to_string()],
                )
            }
        };
        let this = Self {
            handle: server.spawn(),
            traffic: Traffic {
                classify_models,
                perf_model: MODEL.into(),
                nodes: result.graph.num_nodes(),
            },
            oracle: Arc::new(Oracle { logits, platform }),
            adj_nnz: result.graph.num_edges(),
            denser_fraction: 1.0 - result.split.sparser_fraction(),
            graph: result.graph,
            model: result.model,
            served,
        };
        this.warm_up()?;
        Ok(this)
    }

    fn warm_up(&self) -> Result<(), String> {
        for (i, arrival) in self.traffic.schedule(0, 1.0, 17).into_iter().enumerate() {
            let response = self
                .handle
                .submit(arrival.request, SubmitOptions::default().blocking())
                .and_then(|t| t.wait())
                .map_err(|e| format!("warm-up request {i}: {e}"))?;
            if !self.oracle.check(&arrival.expect, &response) {
                return Err(format!("warm-up request {i} does not match the oracle"));
            }
        }
        Ok(())
    }

    pub fn shutdown(self) {
        self.handle.shutdown();
    }

    /// Starts a measurement that will serve for about `seconds` in all,
    /// with one capacity search in each of `stretches` stretches.
    pub fn begin(&self, seed: u64, seconds: f64, stretches: usize) -> ServeRun {
        ServeRun {
            seeds: SplitMix64::new(seed),
            // Room for the floor, each halving and a few repeated probes.
            probe_seconds: seconds * CAPACITY_SHARE
                / (stretches as f64 * f64::from(BISECT_STEPS + 5)),
            next_request: 0,
            started: self.handle.stats(),
            searches: (0..stretches)
                .map(|_| Bisection::new(PLAN.floor_rps, PLAN.cap_rps, BISECT_STEPS))
                .collect(),
            low: Vec::new(),
            high: Vec::new(),
            probes: Vec::new(),
            fixed: Counters::default(),
        }
    }

    fn step(
        &self,
        run: &mut ServeRun,
        rate: f64,
        count: usize,
        tracer: &Arc<Tracer>,
    ) -> StepResult {
        let arrivals = self.traffic.schedule(run.seeds.next_u64(), rate, count);
        let base = run.next_request;
        run.next_request += count as u64;
        openloop::run_step(&self.handle, arrivals, rate, &self.oracle, tracer, base)
    }

    /// One window at the low rate and one at the high rate, in about
    /// `(LOW_SHARE + HIGH_SHARE) × seconds`.
    pub fn fixed_round(&self, run: &mut ServeRun, seconds: f64, tracer: &Arc<Tracer>) {
        for (rate, share) in [(PLAN.low_rps, LOW_SHARE), (PLAN.high_rps, HIGH_SHARE)] {
            let count = MIN_WINDOW_REQUESTS.max((rate * seconds * share) as usize);
            let before = self.handle.stats();
            let step = self.step(run, rate, count, tracer);
            run.fixed
                .add(&Counters::between(&before, &self.handle.stats()));
            if rate == PLAN.low_rps {
                run.low.push(step);
            } else {
                run.high.push(step);
            }
        }
    }

    /// Probes of the capacity search of stretch `stretch` for about
    /// `CAPACITY_SHARE × seconds` (at least one), or until that search ends
    /// when `finish` is set.
    pub fn capacity_round(
        &self,
        run: &mut ServeRun,
        stretch: usize,
        seconds: f64,
        finish: bool,
        tracer: &Arc<Tracer>,
    ) {
        let budget = Duration::from_secs_f64(seconds * CAPACITY_SHARE);
        let started = Instant::now();
        let mut probed = false;
        while let Some(rate) = run.searches[stretch].next_rate() {
            if !finish && probed && started.elapsed() >= budget {
                break;
            }
            probed = true;
            let count = MIN_PROBE_REQUESTS.max((rate * run.probe_seconds) as usize);
            let step = self.step(run, rate, count, tracer);
            let late = step.late_p99_ms() > LATE_BOUND_MS;
            let p99 = stats::quantile(&step.latency_ms, 0.99);
            let keep_up = step.achieved_rps / step.realised_rps;
            let pass =
                !late && step.failed() == 0 && p99 <= PLAN.p99_limit_ms && keep_up >= KEEP_UP;
            eprintln!(
                "probe {rate:.0} rps: pass {pass} p99 {p99:.1} ms, failed {}, keep-up {keep_up:.3}, late p99 {:.1} ms",
                step.failed(),
                step.late_p99_ms()
            );
            run.probes.push(step);
            run.searches[stretch].record(Probe {
                pass,
                pacer_late: late,
            });
        }
    }

    pub fn finish(&self, run: ServeRun) -> ServeResult {
        let searches: Vec<Capacity> = run.searches.iter().map(|s| s.result().clone()).collect();
        ServeResult {
            capacity: searches
                .iter()
                .max_by(|a, b| a.rps.total_cmp(&b.rps))
                .cloned()
                .unwrap_or_default(),
            searches,
            probe_offered: run.probes.iter().map(|p| p.offered).sum(),
            probe_failed: run
                .probes
                .iter()
                .map(|p| p.errored + p.mismatched + p.lost)
                .sum(),
            probe_wrong: run.probes.iter().map(|p| p.mismatched + p.lost).sum(),
            probe_conserved: run
                .probes
                .iter()
                .all(|p| openloop::check_conservation(p.offered, p.ok, p.failed()).is_ok()),
            all: Counters::between(&run.started, &self.handle.stats()),
            low: run.low,
            high: run.high,
            fixed: run.fixed,
        }
    }

    /// Direct per-layer probes for the traced run.
    pub fn probe_layers(
        &self,
        result: &ServeResult,
        tracer: &Tracer,
        m: &mut Metrics,
    ) -> Result<(), String> {
        let windows: Vec<Vec<usize>> = self
            .traffic
            .schedule(99, 1.0, PROBE_CALLS)
            .into_iter()
            .filter_map(|a| match a.expect {
                Expect::Classify(nodes) => Some(nodes),
                Expect::Perf => None,
            })
            .collect();

        let probe_server = Server::new().register(self.served.clone());
        let perf = ServeRequest::predict_perf(MODEL);
        for _ in 0..PROBE_CALLS {
            tracer
                .span("accel.predict", None, None, |_| {
                    probe_server.serve_one(&perf)
                })
                .map_err(|e| format!("serve_one predict_perf: {e}"))?;
        }
        for _ in 0..PROBE_CALLS / 5 {
            tracer.span("graph.normalize", None, None, |_| {
                normalize_symmetric(self.graph.adjacency(), SelfLoops::Add)
            });
        }
        for nodes in windows.iter().take(PROBE_CALLS / 5) {
            tracer
                .span("serve.service", None, None, |_| {
                    self.model.forward_rows(&self.graph, nodes)
                })
                .map_err(|e| format!("forward_rows: {e}"))?;
        }

        let sharded = tracer
            .span("shard.first_forward", None, None, |_| {
                let model = ShardedModel::launch(
                    SHARDED_MODEL,
                    &self.graph,
                    &self.model,
                    &ShardOptions::new(SHARDS),
                )?;
                model.forward_rows(&windows[0])?;
                Ok::<_, ServeError>(model)
            })
            .map_err(|e| format!("sharded probe launch: {e}"))?;
        for nodes in &windows {
            tracer
                .span("shard.gather", None, None, |_| sharded.forward_rows(nodes))
                .map_err(|e| format!("sharded probe gather: {e}"))?;
        }
        let halo_rows = sharded.stats().halo_rows;
        sharded
            .shutdown()
            .map_err(|e| format!("sharded probe shutdown: {e}"))?;

        let spans = tracer.spans();
        let totals = trace::total_ms_by_name(&spans);
        let med = |name: &str| totals.get(name).map_or(0.0, |v| median(v));
        let q = |name: &str, q: f64| totals.get(name).map_or(0.0, |v| stats::quantile(v, q));
        m.per_layer("core.pipeline_ms", med("core.pipeline"), "ms");
        m.per_layer("core.adj_nnz", self.adj_nnz as f64, "count");
        m.per_layer("core.denser_fraction", self.denser_fraction, "share");
        m.per_layer("graph.normalize_ms", med("graph.normalize"), "ms");
        m.per_layer("accel.predict_us", med("accel.predict") * 1e3, "us");
        m.per_layer("serve.service_ms", med("serve.service"), "ms");
        m.per_layer("serve.submit_us.p50", q("serve.submit", 0.5) * 1e3, "us");
        m.per_layer("serve.submit_us.p99", q("serve.submit", 0.99) * 1e3, "us");
        let queue: Vec<f64> = result
            .low
            .iter()
            .chain(&result.high)
            .flat_map(|s| s.queue_len.iter().copied())
            .collect();
        m.per_layer(
            "serve.queue_len.p99",
            stats::quantile(&queue, 0.99),
            "count",
        );
        m.per_layer("shard.gather_us", med("shard.gather") * 1e3, "us");
        m.per_layer("shard.first_forward_ms", med("shard.first_forward"), "ms");
        m.per_layer("shard.halo_rows", halo_rows as f64, "count");

        let fixed = &result.fixed;
        let requests: u64 = result
            .low
            .iter()
            .chain(&result.high)
            .map(|s| s.offered)
            .sum();
        let classify_ok: u64 = result
            .low
            .iter()
            .chain(&result.high)
            .map(|s| s.classify_ok)
            .sum();
        let completed = fixed.completed_ok + fixed.completed_err;
        m.per_layer(
            "serve.mean_batch",
            completed as f64 / fixed.batches.max(1) as f64,
            "count",
        );
        let stats = self.handle.stats();
        m.per_layer("serve.largest_batch", stats.largest_batch as f64, "count");
        m.per_layer(
            "serve.est_request_us",
            stats.est_request_ns as f64 / 1e3,
            "us",
        );
        // Each dispatcher batch runs at most one full-graph pass per local
        // model; a sharded model counts its own passes.
        m.per_layer(
            "serve.forwards_per_request",
            (fixed.batches + fixed.forward_passes) as f64 / classify_ok.max(1) as f64,
            "ratio",
        );
        m.per_layer("serve.rejected", fixed.rejected as f64, "count");
        m.per_layer("serve.expired", fixed.expired as f64, "count");
        m.per_layer("serve.completed_err", fixed.completed_err as f64, "count");
        let per_request = |v: u64| v as f64 / requests.max(1) as f64;
        m.per_layer(
            "shard.frames_sent",
            per_request(fixed.frames_sent),
            "1/request",
        );
        m.per_layer(
            "shard.bytes_sent",
            per_request(fixed.bytes_sent),
            "bytes/request",
        );
        m.per_layer(
            "shard.bytes_received",
            per_request(fixed.bytes_received),
            "bytes/request",
        );
        let all = &result.all;
        m.per_layer("shard.retries", all.retries as f64, "count");
        m.per_layer("shard.respawns", all.respawns as f64, "count");
        m.per_layer("shard.fallbacks", all.fallbacks as f64, "count");
        m.per_layer(
            "shard.heartbeat_misses",
            all.heartbeat_misses as f64,
            "count",
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_records_the_plan() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        for name in ["serve-local", "serve-mixed"] {
            let line = json
                .lines()
                .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
                .unwrap_or_else(|| panic!("no workload {name}"));
            assert!(line.contains(&PLAN.describe()), "{name}: {line}");
        }
    }
}

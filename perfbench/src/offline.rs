//! The offline phase: closed-loop fp32 and int8 full-graph inference and
//! `Trainer::fit` epochs on the full-size cora replica, polarized by
//! `Experiment::tune`, with a fixed-seed GCN. No server is involved.

use crate::metrics::Metrics;
use crate::stats::median;
use crate::trace::{self, Tracer};
use gcod::graph::CsrMatrix;
use gcod::nn::loss::masked_cross_entropy;
use gcod::nn::qkernels::{quant_kernel_for, quant_matmul};
use gcod::nn::Tensor;
use gcod::prelude::{
    Experiment, GnnModel, Graph, InferenceWorkload, ModelConfig, Precision, QuantWidth,
    QuantizedCsr, QuantizedModel, QuantizedTensor, TrainConfig, Trainer,
};
use std::time::{Duration, Instant};

/// Seed of the GCN's initial weights.
const MODEL_SEED: u64 = 7;
/// `Trainer::fit` epochs per timed call.
const EPOCHS_PER_FIT: usize = 2;
/// Share of nodes on which int8 and fp32 logits must pick the same class.
const ARGMAX_FLOOR: f64 = 0.9;
/// Iterations of each per-layer probe in a traced run.
const PROBE_REPS: usize = 5;

#[derive(Debug)]
pub struct Offline {
    graph: Graph,
    model: GnnModel,
    quant: QuantizedModel,
    fp32_oracle: Tensor,
    int8_reference: Tensor,
    tune_ms: f64,
    nnz_before: usize,
    nnz_after: usize,
    argmax_agreement: f64,
}

/// An offline measurement in progress.
#[derive(Debug)]
pub struct OfflineRun {
    result: OfflineResult,
    model: GnnModel,
    losses: Vec<f32>,
}

#[derive(Debug, Default)]
pub struct OfflineResult {
    fp32_fwd_ms: Vec<f64>,
    int8_fwd_ms: Vec<f64>,
    epoch_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl OfflineResult {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }

    pub fn fp32_fwd_per_s(&self) -> f64 {
        1e3 / median(&self.fp32_fwd_ms)
    }

    pub fn int8_fwd_per_s(&self) -> f64 {
        1e3 / median(&self.int8_fwd_ms)
    }

    pub fn train_epochs_per_s(&self) -> f64 {
        1e3 / median(&self.epoch_ms)
    }
}

fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn agreement(a: &Tensor, b: &Tensor) -> f64 {
    let (x, y) = (a.argmax_rows(), b.argmax_rows());
    let same = x.iter().zip(&y).filter(|(p, q)| p == q).count();
    same as f64 / x.len().max(1) as f64
}

impl Offline {
    pub fn setup(tracer: &Tracer) -> Result<Self, String> {
        let started = Instant::now();
        let run = tracer
            .span("core.tune", None, None, |_| {
                Experiment::on_dataset("cora").and_then(|e| e.tune())
            })
            .map_err(|e| format!("Experiment::tune on cora: {e}"))?;
        let tune_ms = started.elapsed().as_secs_f64() * 1e3;
        let graph = run
            .reordered
            .with_adjacency(run.adjacency.clone())
            .map_err(|e| format!("tuned graph: {e}"))?;
        let model = GnnModel::new(ModelConfig::gcn(&graph), MODEL_SEED)
            .map_err(|e| format!("fixed-seed GCN: {e}"))?;
        let quant = QuantizedModel::from_model(&model, QuantWidth::I8);
        let fp32_oracle = model
            .forward_cached(&graph)
            .map_err(|e| format!("forward_cached oracle: {e}"))?
            .logits;
        let int8_reference = quant
            .forward(&graph)
            .map_err(|e| format!("int8 reference: {e}"))?;
        let argmax_agreement = agreement(&int8_reference, &fp32_oracle);
        if argmax_agreement < ARGMAX_FLOOR {
            return Err(format!(
                "int8 argmax agreement {argmax_agreement:.4} below the floor {ARGMAX_FLOOR}"
            ));
        }
        Ok(Self {
            nnz_before: run.original.num_edges(),
            nnz_after: graph.num_edges(),
            graph,
            model,
            quant,
            fp32_oracle,
            int8_reference,
            tune_ms,
            argmax_agreement,
        })
    }

    /// Starts a measurement; training continues from the fixed-seed
    /// weights across rounds.
    pub fn begin(&self) -> OfflineRun {
        OfflineRun {
            result: OfflineResult::default(),
            model: self.model.clone(),
            losses: Vec::new(),
        }
    }

    /// One round of the three closed-loop phases, each for a third of
    /// `budget` (and at least one iteration).
    pub fn round(&self, run: &mut OfflineRun, budget: Duration, tracer: &Tracer) {
        let phase = budget / 3;
        let out = &mut run.result;

        for_budget(phase, || {
            let t = Instant::now();
            let logits = tracer.span("nn.forward", None, None, |_| {
                self.model.forward(&self.graph)
            });
            out.fp32_fwd_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            match logits {
                Ok(l) if bits_equal(&l, &self.fp32_oracle) => {}
                Ok(_) => out.fail("fp32 logits differ from forward_cached".into()),
                Err(e) => out.fail(format!("fp32 forward: {e}")),
            }
        });

        for_budget(phase, || {
            let t = Instant::now();
            let logits = tracer.span("nn.int8_forward", None, None, |_| {
                self.quant.forward(&self.graph)
            });
            out.int8_fwd_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            match logits {
                Ok(l) if bits_equal(&l, &self.int8_reference) => {}
                Ok(_) => out.fail("int8 logits not deterministic".into()),
                Err(e) => out.fail(format!("int8 forward: {e}")),
            }
        });

        let trainer = Trainer::new(TrainConfig {
            epochs: EPOCHS_PER_FIT,
            ..TrainConfig::default()
        });
        let (model, losses) = (&mut run.model, &mut run.losses);
        for_budget(phase, || {
            let t = Instant::now();
            let report = tracer.span("nn.fit", None, None, |_| trainer.fit(model, &self.graph));
            out.epoch_ms
                .push(t.elapsed().as_secs_f64() * 1e3 / EPOCHS_PER_FIT as f64);
            out.attempted += 1;
            match report {
                Ok(r) if r.final_loss.is_finite() => losses.push(r.final_loss),
                Ok(r) => out.fail(format!("training loss not finite: {}", r.final_loss)),
                Err(e) => out.fail(format!("Trainer::fit: {e}")),
            }
        });
    }

    /// Ends a measurement: the training loss must have fallen.
    pub fn finish(&self, run: OfflineRun) -> OfflineResult {
        let mut out = run.result;
        if let (Some(first), Some(last)) = (run.losses.first(), run.losses.last()) {
            if last >= first {
                out.fail(format!("training loss did not fall: {first} -> {last}"));
            }
        }
        out
    }

    /// Per-layer probes for the traced run: the fp32 and int8 layer loops
    /// re-run outside the model, stage by stage, and one training step
    /// split into `forward_cached` and `backward`. Each re-run must
    /// reproduce the model's own output bit for bit.
    pub fn probe_layers(&self, tracer: &Tracer, m: &mut Metrics) -> Result<(), String> {
        let rule = self.model.config().propagation();
        let kernel = self.model.kernel().build_with_workers(self.model.workers());
        let qkernel = quant_kernel_for(self.model.kernel(), self.model.workers());
        let workers = self.model.workers();
        let layers = self.model.layers();
        let features = Tensor::from_vec(
            self.graph.num_nodes(),
            self.graph.feature_dim(),
            self.graph.features().to_vec(),
        )
        .map_err(|e| e.to_string())?;

        let mut stage_macs = 0u64;
        let mut bytes_fp32 = 0u64;
        for rep in 0..PROBE_REPS {
            let h = tracer.span("nn.layer_loop", None, None, |root| {
                let p = tracer.span("nn.l0.propagation", root, None, |_| {
                    rule.matrix(&self.graph, &features)
                });
                let mut h = features.clone();
                for (i, layer) in layers.iter().enumerate() {
                    let agg = tracer
                        .span(&format!("nn.l{i}.spmm"), root, None, |_| {
                            kernel.spmm(&p, &h)
                        })
                        .map_err(|e| e.to_string())?;
                    let mut next = tracer
                        .span(&format!("nn.l{i}.gemm"), root, None, |_| {
                            agg.matmul_with(&layer.weight, workers)
                        })
                        .map_err(|e| e.to_string())?;
                    tracer
                        .span(&format!("nn.l{i}.epilogue"), root, None, |_| {
                            next.add_row_broadcast_in_place(&layer.bias)
                                .map(|()| layer.activation.apply_in_place(&mut next))
                        })
                        .map_err(|e| e.to_string())?;
                    if rep == 0 {
                        let (n, d_in, d_out) =
                            (h.rows() as u64, h.cols() as u64, next.cols() as u64);
                        stage_macs += p.nnz() as u64 * d_in + n * d_in * d_out;
                        bytes_fp32 += csr_bytes(&p, 4)
                            + 2 * 4 * n * d_in // spmm in + out
                            + 4 * (n * d_in + d_in * d_out + n * d_out) // gemm
                            + 2 * 4 * n * d_out; // epilogue read + write
                    }
                    h = next;
                }
                Ok::<Tensor, String>(h)
            })?;
            if !bits_equal(&h, &self.fp32_oracle) {
                return Err("fp32 layer-loop re-run differs from GnnModel::forward".into());
            }
        }

        let mut bytes_int8 = 0u64;
        for rep in 0..PROBE_REPS {
            let h = tracer.span("nn.qlayer_loop", None, None, |root| {
                let p = tracer.span("nn.qprop_build", root, None, |_| {
                    rule.matrix(&self.graph, &features)
                });
                let qp = tracer.span("nn.qprop_quantize", root, None, |_| {
                    QuantizedCsr::quantize(&p, self.quant.width())
                });
                let mut h = features.clone();
                for (i, layer) in self.quant.layers().iter().enumerate() {
                    let width = layer.weight.width();
                    let hq = tracer.span(&format!("nn.l{i}.quantize_x"), root, None, |_| {
                        QuantizedTensor::quantize(&h, width)
                    });
                    let agg = tracer
                        .span(&format!("nn.l{i}.qspmm"), root, None, |_| {
                            qkernel.spmm(&qp, &hq)
                        })
                        .map_err(|e| e.to_string())?;
                    let aq = tracer.span(&format!("nn.l{i}.quantize_agg"), root, None, |_| {
                        QuantizedTensor::quantize(&agg, width)
                    });
                    let mut next = tracer
                        .span(&format!("nn.l{i}.qgemm"), root, None, |_| {
                            quant_matmul(&aq, &layer.weight, workers)
                        })
                        .map_err(|e| e.to_string())?;
                    tracer
                        .span(&format!("nn.l{i}.qepilogue"), root, None, |_| {
                            next.add_row_broadcast_in_place(&layer.bias)
                                .map(|()| layer.activation.apply_in_place(&mut next))
                        })
                        .map_err(|e| e.to_string())?;
                    if rep == 0 {
                        let (n, d_in, d_out) =
                            (h.rows() as u64, h.cols() as u64, next.cols() as u64);
                        bytes_int8 += (4 + 1) * n * d_in // quantize x: read f32, write i8
                            + csr_bytes(&p, 1) + n * d_in + 4 * n * d_in // qspmm
                            + (4 + 1) * n * d_in // quantize agg
                            + n * d_in + d_in * d_out + 4 * n * d_out // qgemm
                            + 2 * 4 * n * d_out; // epilogue
                    }
                    h = next;
                }
                Ok::<Tensor, String>(h)
            })?;
            if !bits_equal(&h, &self.int8_reference) {
                return Err("int8 layer-loop re-run differs from QuantizedModel::forward".into());
            }
        }

        let model = self.model.clone();
        for _ in 0..PROBE_REPS {
            let cache = tracer
                .span("nn.forward_cached", None, None, |_| {
                    model.forward_cached(&self.graph)
                })
                .map_err(|e| e.to_string())?;
            let loss =
                masked_cross_entropy(&cache.logits, self.graph.labels(), self.graph.train_mask())
                    .map_err(|e| e.to_string())?;
            tracer
                .span("nn.backward", None, None, |_| {
                    model.backward(&cache, &loss.grad_logits)
                })
                .map_err(|e| e.to_string())?;
        }

        let spans = tracer.spans();
        let selfs = trace::self_ms_by_name(&spans);
        let stage = |name: &str| selfs.get(name).map_or(0.0, |v| median(v));
        let mut fp32_stages = stage("nn.l0.propagation");
        m.per_layer("nn.l0.propagation_ms", fp32_stages, "ms");
        for i in 0..layers.len() {
            if i > 0 {
                // The propagation matrix is built once and shared by every
                // layer, as in `GnnModel::forward`.
                m.per_layer(&format!("nn.l{i}.propagation_ms"), 0.0, "ms");
            }
            for s in ["spmm", "gemm", "epilogue"] {
                let v = stage(&format!("nn.l{i}.{s}"));
                fp32_stages += v;
                m.per_layer(&format!("nn.l{i}.{s}_ms"), v, "ms");
            }
            let q = stage(&format!("nn.l{i}.quantize_x"))
                + stage(&format!("nn.l{i}.quantize_agg"))
                + if i == 0 {
                    stage("nn.qprop_quantize")
                } else {
                    0.0
                };
            m.per_layer(&format!("nn.l{i}.quantize_ms"), q, "ms");
            m.per_layer(
                &format!("nn.l{i}.qspmm_ms"),
                stage(&format!("nn.l{i}.qspmm")),
                "ms",
            );
            m.per_layer(
                &format!("nn.l{i}.qgemm_ms"),
                stage(&format!("nn.l{i}.qgemm")),
                "ms",
            );
        }
        let forward_ms = stage("nn.forward");
        m.per_layer("nn.forward_ms", forward_ms, "ms");
        m.per_layer("nn.unaccounted_ms", forward_ms - fp32_stages, "ms");
        m.per_layer("nn.int8_forward_ms", stage("nn.int8_forward"), "ms");
        m.per_layer("nn.forward_cached_ms", stage("nn.forward_cached"), "ms");
        m.per_layer("nn.backward_ms", stage("nn.backward"), "ms");
        m.per_layer("nn.macs_executed", stage_macs as f64, "count");
        let model_macs =
            InferenceWorkload::build(&self.graph, self.model.config(), Precision::Fp32)
                .total_macs();
        m.per_layer("nn.macs_model", model_macs as f64, "count");
        m.per_layer("nn.bytes_moved.fp32", bytes_fp32 as f64, "bytes");
        m.per_layer("nn.bytes_moved.int8", bytes_int8 as f64, "bytes");
        m.per_layer("nn.argmax_agreement", self.argmax_agreement, "share");
        m.per_layer("core.tune_ms", self.tune_ms, "ms");
        m.per_layer("core.offline_nnz_before", self.nnz_before as f64, "count");
        m.per_layer("core.offline_nnz_after", self.nnz_after as f64, "count");
        Ok(())
    }
}

/// Bytes of a CSR operand: full-width indices and row pointers plus
/// `value_bytes` per stored value.
fn csr_bytes(p: &CsrMatrix, value_bytes: u64) -> u64 {
    p.nnz() as u64 * (4 + value_bytes) + (p.rows() as u64 + 1) * 8
}

/// Calls `f` until `budget` has elapsed, at least once.
fn for_budget(budget: Duration, mut f: impl FnMut()) {
    let started = Instant::now();
    loop {
        f();
        if started.elapsed() >= budget {
            break;
        }
    }
}

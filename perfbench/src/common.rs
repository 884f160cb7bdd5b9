//! Pieces every workload shares: the timed training phase, server
//! start-up, the open-loop rate ladder, the closed learn phase, the
//! answer oracles and the per-layer replays.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use generic_datasets::{generate_spatial, Dataset, SpatialSpec};
use generic_hdc::encoding::{encode_batch_parallel, GenericEncoder, GenericEncoderSpec};
use generic_hdc::runtime::{CheckpointStore, OnlineRuntime, RetryPolicy, RuntimeConfig};
use generic_hdc::{
    BinaryHv, DrainReport, HdcModel, HdcPipeline, IntHv, ModelRegistry, ModelSnapshot, NormMode,
    PredictOptions, QuantizedModel, ScoreBatch, ServeConfig, Server, TenantHandle,
};

use crate::gen;
use crate::load::{Phase, Tracing};
use crate::stats;
use crate::trace::{self, Span, SpanLog};

pub type R<T> = Result<T, String>;

pub trait OrFail<T> {
    fn or_fail(self, what: &str) -> R<T>;
}

impl<T, E: std::fmt::Display> OrFail<T> for Result<T, E> {
    fn or_fail(self, what: &str) -> R<T> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// ISOLET shape (Table 1): 64 features, 13 classes; served at D = 4096.
pub const DIM: usize = 4096;
pub const N_FEATURES: usize = 64;
pub const N_CLASSES: usize = 13;
/// Seed of every dataset: the data and the trained models are the same
/// in every run, so seeds vary the traffic, not the difficulty of the
/// task (ISOLET-shaped accuracy moves by ±7 points between data seeds).
pub const DATA_SEED: u64 = 0x15_01E7;
/// Threads of training and compression. On a shared 2-core host the
/// 2-thread paths ran slower and noisier than one thread.
pub const THREADS: usize = 1;
/// Set-ups per run; `setup_s` is their median. A set-up lasts about
/// 0.1 s (1 s on tenant-mix), short enough that five of them spread by a
/// fifth between runs.
pub const SETUP_REPS: usize = 9;
/// Epoch cap of every timed training phase.
pub const EPOCH_CAP: usize = 15;
/// Window of every closed loop.
pub const WINDOW: usize = 64;
/// Slices a timed phase is cut into before taking the median across
/// slices of its rate.
pub const CHUNKS: usize = 6;
/// Requests per latency window: `p50_us`, `p90_us` and the ladder's pass
/// test take each window's percentile, then the lower quartile across
/// windows ([`WINDOW_QUARTILE`]). A p90 of 200 requests has 20 samples
/// beyond it.
pub const LATENCY_WINDOW: usize = 200;
/// Quantile across windows of the windows' percentiles. On the shared
/// reference host, stalls of several milliseconds (most likely a vCPU
/// waking late from idle) hit from a tenth to over half of the windows,
/// varying from minute to minute; the lower quartile is the latency the
/// service gives while the host is not stalling it. A slower service
/// moves every window, so it moves the figure; the stalls show in the
/// window spread, p99, p999 and generator lateness, all printed.
pub const WINDOW_QUARTILE: f64 = 0.25;

/// The ISOLET-shaped generator of `generic-datasets` at a chosen size.
pub fn isolet(seed: u64, n_train: usize, n_test: usize) -> Dataset {
    generate_spatial(
        "ISOLET",
        SpatialSpec {
            n_features: N_FEATURES,
            n_classes: N_CLASSES,
            n_train,
            n_test,
            n_motifs: 4,
            motif_len: 5,
            placement_jitter: 2,
            noise: 0.8,
        },
        seed,
    )
}

/// Run-wide settings.
pub struct Ctx {
    pub seed: u64,
    /// The `--seconds` budget; every phase is sized from it.
    pub seconds: f64,
    pub trace: bool,
    pub origin: Instant,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub tmp: PathBuf,
}

impl Ctx {
    pub fn log(&self) -> SpanLog {
        SpanLog::new(self.trace, self.origin)
    }

    pub fn tracing(&self) -> Tracing {
        Tracing {
            on: self.trace,
            origin: self.origin,
        }
    }

    pub fn dir(&self, name: &str) -> R<PathBuf> {
        let dir = self.tmp.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).or_fail("create scratch dir")?;
        Ok(dir)
    }

    /// `fraction` of the run budget.
    pub fn span(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }
}

/// End-to-end figures of one run (`peak_rss_mib` is read in `main`).
#[derive(Debug, Default)]
pub struct E2e {
    pub setup_s: f64,
    pub qps: f64,
    pub max_qps: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub accuracy: f64,
    pub train_samples_per_s: f64,
    pub learn_samples_per_s: f64,
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Run {
    pub e2e: E2e,
    pub layers: BTreeMap<&'static str, f64>,
    pub phases: Vec<Phase>,
    pub learn_sent: u64,
    /// Correctness problems other than oracle mismatches.
    pub problems: Vec<String>,
    pub lines: Vec<String>,
    pub spans: Vec<Span>,
}

impl Run {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

// ---------------------------------------------------------------------------
// Timed training phase
// ---------------------------------------------------------------------------

pub struct Trained {
    pub encoder: GenericEncoder,
    pub models: Vec<HdcModel>,
    pub rows: usize,
    pub wall: Duration,
    /// Seconds of each step, in call order: encoder fit, then per set its
    /// encode, fit and every retrain epoch.
    pub steps: Vec<f64>,
    pub epochs: u64,
    pub updates: u64,
}

/// The public calls `HdcPipeline::train` makes — quantizer fit, encode,
/// fit, retrain to convergence or the epoch cap — for one encoder fitted
/// to `encoder_rows` and one model per labeled set.
pub fn train(
    ctx: &Ctx,
    encoder_rows: &[Vec<f64>],
    sets: &[(&[Vec<f64>], &[usize])],
) -> R<(Trained, Vec<Span>)> {
    let mut log = ctx.log();
    let root = log.id();
    let start = Instant::now();
    let mut steps = Vec::new();
    let mut mark = start;
    let mut step = || {
        let now = Instant::now();
        steps.push(now.duration_since(mark).as_secs_f64());
        mark = now;
    };
    let spec = GenericEncoderSpec::new(DIM, N_FEATURES).with_seed(gen::sub_seed(DATA_SEED, 5));
    let encoder = log
        .time("encoder_from_data", Some(root), 0, || {
            GenericEncoder::from_data(spec, encoder_rows)
        })
        .or_fail("fit encoder")?;
    step();
    let (mut epochs, mut updates, mut rows) = (0u64, 0u64, 0usize);
    let mut models = Vec::with_capacity(sets.len());
    for (features, labels) in sets {
        let encoded = log
            .time("encode_batch", Some(root), 0, || {
                encode_batch_parallel(&encoder, features, THREADS)
            })
            .or_fail("encode training set")?;
        step();
        let mut model = log
            .time("fit", Some(root), 0, || {
                HdcModel::fit(&encoded, labels, N_CLASSES)
            })
            .or_fail("fit")?;
        step();
        for _ in 0..EPOCH_CAP {
            let wrong = log
                .time("retrain_epoch", Some(root), 0, || {
                    model.retrain_epoch_parallel(&encoded, labels, THREADS)
                })
                .or_fail("retrain")?;
            step();
            epochs += 1;
            updates += wrong as u64;
            if wrong == 0 {
                break;
            }
        }
        rows += features.len();
        models.push(model);
    }
    let wall = start.elapsed();
    log.record(root, None, 0, "train", start, Instant::now());
    Ok((
        Trained {
            encoder,
            models,
            rows,
            wall,
            steps,
            epochs,
            updates,
        },
        log.into_spans(),
    ))
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Runtime settings shared by every workload: checkpointing on, drift
/// retraining on the writer.
pub fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        checkpoint_every: 1024,
        drift_threshold: 0.25,
        ..RuntimeConfig::default()
    }
}

pub fn start_server(
    pipeline: HdcPipeline,
    dir: &Path,
    shards: usize,
    registry: Option<Arc<ModelRegistry>>,
) -> R<Server> {
    let store =
        CheckpointStore::open(dir, 2, RetryPolicy::default()).or_fail("checkpoint store")?;
    let runtime = OnlineRuntime::new(pipeline, store, runtime_config()).or_fail("runtime")?;
    Server::start_with_registry(
        runtime,
        ServeConfig {
            shards,
            ..ServeConfig::default()
        },
        registry,
    )
    .or_fail("start server")
}

/// The server the closed learn phase pushes to: one shard over a copy
/// of the workload's shared pipeline, checkpointing into a scratch
/// directory of its own.
pub struct Learner {
    pub server: Server,
    dir: PathBuf,
}

impl Learner {
    pub fn start(ctx: &Ctx, name: &str, pipeline: HdcPipeline) -> R<Learner> {
        let dir = ctx.dir(name)?;
        let server = start_server(pipeline, &dir, 1, None)?;
        Ok(Learner { server, dir })
    }

    pub fn drain(self) -> R<DrainReport> {
        let report = self.server.drain().or_fail("drain the learn server");
        let _ = std::fs::remove_dir_all(&self.dir);
        report
    }
}

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// Last maximal score wins, the tie rule every scoring path shares.
pub fn argmax_last(scores: &[f64]) -> usize {
    let mut best = f64::NEG_INFINITY;
    let mut idx = 0;
    for (c, &s) in scores.iter().enumerate() {
        if s >= best {
            best = s;
            idx = c;
        }
    }
    idx
}

/// Replays shared-model answers through `HdcModel::scores_scalar` at the
/// answered `dims_used` on the pinned snapshot (`Answer::model` is its
/// version). `row_of(phase, k)` names the test row request `k` sent.
/// Verdicts are cached by (row, dims, version); encodings by row, since
/// learning never changes the encoder.
pub fn check_shared(
    phases: &mut [Phase],
    row_of: &dyn Fn(&str, usize) -> usize,
    rows: &[Vec<f64>],
    snapshots: &HashMap<u32, Arc<ModelSnapshot>>,
) -> R<()> {
    let mut encoded: HashMap<usize, IntHv> = HashMap::new();
    let mut verdicts: HashMap<(usize, u32, u32), usize> = HashMap::new();
    for phase in phases.iter_mut() {
        for a in &phase.answers {
            let row = row_of(&phase.name, a.k as usize);
            let key = (row, a.dims, a.model);
            let oracle = match verdicts.get(&key) {
                Some(&v) => v,
                None => {
                    let snap = snapshots
                        .get(&a.model)
                        .ok_or_else(|| format!("answer pinned unknown snapshot {}", a.model))?;
                    let pipeline = snap.pipeline();
                    let hv = match encoded.entry(row) {
                        Entry::Occupied(e) => e.into_mut(),
                        Entry::Vacant(e) => {
                            e.insert(pipeline.encode(&rows[row]).or_fail("oracle encode")?)
                        }
                    };
                    let dims = a.dims as usize;
                    if dims == 0 || dims > DIM {
                        return Err(format!("answer reports {dims} dims"));
                    }
                    let opts = PredictOptions::reduced(dims, NormMode::Updated);
                    let v = argmax_last(&pipeline.model().scores_scalar(hv, opts));
                    verdicts.insert(key, v);
                    v
                }
            };
            if oracle != a.label as usize {
                phase.mismatched += 1;
            }
        }
    }
    Ok(())
}

/// The scalar reference of one pinned tenant model: the heap model its
/// mapped bytes encode, and the support of a pruned one.
pub struct TenantOracle {
    model: QuantizedModel,
    support: Option<Vec<usize>>,
}

impl TenantOracle {
    pub fn from_handle(handle: &TenantHandle) -> R<Self> {
        let view = handle.view();
        let model = view.to_quantized().or_fail("read pinned tenant")?;
        let support = view.support().map(|mask| {
            (0..view.parent_dim())
                .filter(|&d| mask[d / 64] >> (d % 64) & 1 == 1)
                .collect()
        });
        Ok(TenantOracle { model, support })
    }

    /// The packed scalar oracle of the conformance `registry`/`compress`
    /// stages: compact the query through the support, score the heap
    /// model, last-wins argmax.
    pub fn predict(&self, query: &BinaryHv) -> R<usize> {
        let query = match &self.support {
            Some(support) => {
                let bits: Vec<bool> = support.iter().map(|&d| query.bit(d)).collect();
                BinaryHv::from_bits(&bits).or_fail("compact query")?
            }
            None => query.clone(),
        };
        if query.dim() != self.model.dim() {
            return Err("tenant query width disagrees with the pinned model".into());
        }
        Ok(argmax_last(&self.model.scores(&IntHv::from(query))))
    }
}

// ---------------------------------------------------------------------------
// Per-layer replays (traced runs)
// ---------------------------------------------------------------------------

/// Mean duration of the spans called `name`, in ns (0 when none).
pub fn mean_ns(spans: &[Span], name: &str) -> f64 {
    stats::mean(&trace::durations(spans, name))
}

/// Times `Quantizer::bins`, `GenericEncoder::encode_bins` and
/// `ScoreBatch::predict_into` (batch 1 and 16, at `dims`) over `rows`.
/// Returns the encodings for further replays.
pub fn replay_encode_score(
    log: &mut SpanLog,
    pipeline: &HdcPipeline,
    rows: &[&[f64]],
    dims: usize,
) -> R<Vec<IntHv>> {
    let encoder = pipeline.encoder();
    let mut engine = ScoreBatch::new();
    let mut preds = Vec::new();
    let opts = PredictOptions::reduced(dims, NormMode::Updated);
    let mut encoded = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let root = log.id();
        let start = Instant::now();
        let bins = log
            .time("bins", Some(root), i as u64, || {
                encoder.quantizer().bins(row)
            })
            .or_fail("bins")?;
        let hv = log
            .time("encode_bins", Some(root), i as u64, || {
                encoder.encode_bins(&bins)
            })
            .or_fail("encode_bins")?;
        let one = std::slice::from_ref(&hv);
        log.time("score_b1", Some(root), i as u64, || {
            engine.predict_into(pipeline.model(), one, opts, &mut preds)
        });
        log.record(root, None, i as u64, "replay", start, Instant::now());
        encoded.push(hv);
    }
    for chunk in encoded.chunks_exact(16) {
        log.time("score_b16", None, 0, || {
            engine.predict_into(pipeline.model(), chunk, opts, &mut preds)
        });
    }
    Ok(encoded)
}

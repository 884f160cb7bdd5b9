//! The three workloads. Each sets itself up nine times (`setup_s` is the
//! median), times its training phase, runs the shared phase plan of
//! [`crate::phases`] through its own [`Target`] (the closed learn parts
//! going to a learn server of its own), drains, and replays every answer
//! through a scalar oracle.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use generic_datasets::Dataset;
use generic_hdc::encoding::{encode_batch_parallel, Encoder};
use generic_hdc::net::{NetConfig, NetFrontend};
use generic_hdc::runtime::{CheckpointStore, OnlineRuntime, RetryPolicy, RuntimeConfig};
use generic_hdc::{
    kernels, saliency, BinaryHv, CompressedModel, HdcPipeline, ModelRegistry, ModelSnapshot,
    NormMode, PredictOptions, QuantizedModel, RegistryConfig, ScoreBatch, ServeAnswer, Server,
    ServerHandle, SubmitError, TenantHandle, Ticket,
};

use crate::common::*;
use crate::gen::{self, Rng};
use crate::load::{self, Answer, Phase, Tracing};
use crate::phases::*;
use crate::stats;
use crate::trace::SpanLog;

/// Requests of every warm-up (closed loop).
const WARMUP: usize = 2000;
/// Requests in the seeded pool of test rows (drawn with replacement)
/// every phase cycles through.
const POOL: usize = 8192;
/// Requests replayed by the traced per-layer replays.
const REPLAY_ROWS: usize = 256;
/// Seed of every learn stream. Like the data, the labeled streams are
/// the same in every run: the stream decides how often drift retraining
/// runs, so a seeded stream would change the writer's work, its memory
/// peak and `learn_samples_per_s` from seed to seed (one to eleven drift
/// retrains over ten seeds).
fn learn_seed() -> u64 {
    gen::sub_seed(DATA_SEED, 7)
}

fn shared_answer(k: usize, a: &ServeAnswer) -> Answer {
    Answer {
        k: k as u32,
        label: a.label as u32,
        dims: a.dims_used as u32,
        model: a.snapshot.version() as u32,
    }
}

/// Times `ServerHandle::submit` from an in-process closed loop.
fn submit_replay<'a>(
    run: &mut Run,
    handle: &ServerHandle,
    row: &(dyn Fn(usize) -> &'a [f64] + Sync),
    tr: Tracing,
) {
    let submit = |k: usize, log: &mut SpanLog, tag: u64| {
        let rid = load::request_id(tag, k);
        let x = row(k).to_vec();
        log.time("submit", Some(rid), rid, || handle.submit(x, None))
    };
    let mut p = load::closed_inproc("submit-replay", WARMUP, 16, &submit, &shared_answer, tr);
    run.spans.append(&mut p.spans);
    run.phases.push(p);
}

/// Sum of the replayed per-request layer times (ns): the base of
/// `serve.queue_wait_us` for the shared-model workloads.
fn shared_base_ns(run: &Run) -> f64 {
    let l = &run.layers;
    l["encoding.bins_ns"] + l["encoding.encode_bins_ns"] + l["model.score_ns_per_row.b1"]
}

// ---------------------------------------------------------------------------
// net-serve
// ---------------------------------------------------------------------------

struct NetStack {
    server: Server,
    frontend: NetFrontend,
    stream: TcpStream,
    dir: PathBuf,
    learner: Learner,
}

impl NetStack {
    fn stop(self) -> R<()> {
        self.frontend.shutdown();
        drop(self.stream);
        self.server.drain().or_fail("drain")?;
        let _ = std::fs::remove_dir_all(&self.dir);
        self.learner.drain()?;
        Ok(())
    }
}

/// GNET Infer frames on one loopback connection, cycling the pool.
struct NetTarget<'a> {
    stream: &'a TcpStream,
    next_id: u64,
    rows: &'a [Vec<f64>],
    pool: &'a [usize],
}

impl NetTarget<'_> {
    fn ids(&mut self, n: usize) -> u64 {
        let base = self.next_id;
        self.next_id += n as u64 + 1;
        base
    }
}

impl Target for NetTarget<'_> {
    fn closed(&mut self, name: &str, n: usize, tr: Tracing) -> R<Phase> {
        let base = self.ids(n);
        let (rows, pool) = (self.rows, self.pool);
        let row = |k: usize| rows[pool[k % pool.len()]].as_slice();
        load::closed_net(name, self.stream, base, n, WINDOW, &row, tr).or_fail(name)
    }

    fn open(&mut self, name: &str, rate: f64, dur: Duration, tr: Tracing) -> R<Phase> {
        let base = self.ids((rate * dur.as_secs_f64()) as usize + 1);
        let (rows, pool) = (self.rows, self.pool);
        let row = |k: usize| rows[pool[k % pool.len()]].as_slice();
        load::open_net(name, self.stream, base, rate, dur, &row, tr).or_fail(name)
    }
}

pub fn net_serve(ctx: &Ctx) -> R<Run> {
    let plan = Plan {
        ladder_base: 2000.0,
        limit_us: 2000.0,
        nominal: 4000.0,
    };
    let seed = gen::sub_seed(ctx.seed, 10);
    let mut run = Run::default();
    let mut setups = Vec::new();
    let mut trainings: Vec<Trained> = Vec::new();
    let mut stack: Option<NetStack> = None;
    let mut data: Option<Dataset> = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = stack.take() {
            old.stop()?;
        }
        let t0 = Instant::now();
        let d = isolet(gen::sub_seed(DATA_SEED, 10), 5200, 1040);
        let mut setup = t0.elapsed();
        let d = data.get_or_insert(d);
        if trainings.is_empty() {
            let sets = [(d.train.features.as_slice(), d.train.labels.as_slice())];
            let (t, spans) = train(ctx, &d.train.features, &sets)?;
            run.spans.extend(spans);
            trainings.push(t);
        }
        let mut log = ctx.log();
        let root = log.id();
        let t1 = Instant::now();
        let t = &trainings[0];
        let pipeline =
            HdcPipeline::from_parts(t.encoder.clone(), t.models[0].clone()).or_fail("pipeline")?;
        let learner = log.time("learn_server_start", Some(root), 0, || {
            Learner::start(ctx, &format!("net-serve-learn-{rep}"), pipeline.clone())
        })?;
        let dir = ctx.dir(&format!("net-serve-{rep}"))?;
        let server = log.time("server_start", Some(root), 0, || {
            start_server(pipeline, &dir, 1, None)
        })?;
        let frontend = log
            .time("frontend_bind", Some(root), 0, || {
                NetFrontend::bind("127.0.0.1:0", server.handle(), NetConfig::default())
            })
            .or_fail("bind")?;
        let stream = TcpStream::connect(frontend.local_addr()).or_fail("connect")?;
        stream.set_nodelay(true).or_fail("nodelay")?;
        // A server that stops answering ends the run instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .or_fail("read timeout")?;
        let rows = &d.test.features;
        let row = |k: usize| rows[k % rows.len()].as_slice();
        let w = log
            .time("warmup", Some(root), 0, || {
                load::closed_net("warmup", &stream, 1, WARMUP, 16, &row, ctx.tracing().off())
            })
            .or_fail("warm-up")?;
        if w.answered != WARMUP as u64 {
            return Err("warm-up requests went unanswered".into());
        }
        setup += t1.elapsed();
        log.record(root, None, 0, "setup", t1, Instant::now());
        setups.push(setup.as_secs_f64());
        run.spans.extend(log.into_spans());
        stack = Some(NetStack {
            server,
            frontend,
            stream,
            dir,
            learner,
        });
    }
    let data = data.expect("generated");
    let s = stack.expect("started");
    let rows = &data.test.features;
    let pool = gen::request_pool(seed, rows.len(), POOL);
    let row_of = |k: usize| pool[k % POOL];
    let handle = s.server.handle();
    let snapshot = handle.snapshots().load();
    let n_learn = (LEARN_SAMPLES_PER_S * ctx.seconds) as usize;
    let order = gen::request_pool(learn_seed(), data.train.len(), n_learn);
    let samples = order
        .iter()
        .map(|&i| (data.train.features[i].as_slice(), data.train.labels[i]))
        .collect();
    let mut learn = LearnStream::new(s.learner.server.handle(), samples);

    let mut target = NetTarget {
        stream: &s.stream,
        next_id: WARMUP as u64 + 2,
        rows,
        pool: &pool,
    };
    let sets = [(data.train.features.as_slice(), data.train.labels.as_slice())];
    let mut train_again = |run: &mut Run| -> R<Trained> {
        let (t, spans) = train(ctx, &data.train.features, &sets)?;
        run.spans.extend(spans);
        Ok(t)
    };
    let lat = serve_phases(
        ctx,
        &mut run,
        &mut target,
        &plan,
        &mut trainings,
        &mut train_again,
        &mut learn,
    )?;
    record_setup_and_training(&mut run, &setups, &trainings);
    let over: Vec<f64> = lat
        .iter()
        .flat_map(|&i| {
            let p = &run.phases[i];
            p.rtt_us.iter().zip(&p.server_us).map(|(r, s)| r - s)
        })
        .collect();
    let over = stats::sorted(&over);
    run.set(
        "net.rtt_over_server_us.p50",
        stats::percentile(&over, 0.5).unwrap_or(-1.0),
    );
    run.set(
        "net.rtt_over_server_us.p90",
        stats::percentile(&over, 0.9).unwrap_or(-1.0),
    );
    if handle.snapshots().load().version() != snapshot.version() {
        run.problems
            .push("the served snapshot changed without learn traffic".into());
    }

    if ctx.trace {
        let row = |k: usize| rows[row_of(k)].as_slice();
        submit_replay(&mut run, &handle, &row, ctx.tracing());
        let replay: Vec<&[f64]> = (0..REPLAY_ROWS).map(row).collect();
        let mut log = ctx.log();
        replay_encode_score(&mut log, snapshot.pipeline(), &replay, DIM)?;
        run.spans.extend(log.into_spans());
    }

    let net = s.frontend.shutdown();
    let socket_answered = WARMUP as u64
        + run
            .phases
            .iter()
            .filter(|p| p.name != "submit-replay")
            .map(|p| p.answered)
            .sum::<u64>();
    if net.answered != socket_answered {
        run.problems.push(format!(
            "the front-end wrote {} answers, the client read {socket_answered}",
            net.answered
        ));
    }
    drop(s.stream);
    let report = s.server.drain().or_fail("drain")?;
    let _ = std::fs::remove_dir_all(&s.dir);
    run.learn_sent = learn.len() as u64;
    let learned = s.learner.drain()?;
    record_learn(&mut run, &learn, &learned, &report, 0);

    // Every answer against the scalar oracle on the pinned snapshot (the
    // socket does not carry it; it never changed, as checked above).
    let version = snapshot.version() as u32;
    for a in run.phases.iter_mut().flat_map(|p| p.answers.iter_mut()) {
        a.model = version;
    }
    let snapshots = HashMap::from([(version, Arc::clone(&snapshot))]);
    check_shared(
        &mut run.phases,
        &|_: &str, k: usize| row_of(k),
        rows,
        &snapshots,
    )?;
    run.e2e.accuracy = accuracy(&run, &lat, &|_, k| data.test.labels[row_of(k)]);

    if ctx.trace {
        record_spans(&mut run);
        let base = shared_base_ns(&run);
        record_queue_wait(&mut run, base);
    }
    Ok(run)
}

// ---------------------------------------------------------------------------
// tenant-mix
// ---------------------------------------------------------------------------

const TENANTS: usize = 48;
const TENANT_ROWS: usize = 64;
/// Zipf exponent of tenant popularity: about a quarter of the gets miss
/// the byte budget and cold-load.
const ZIPF_S: f64 = 1.3;
/// Hot-tenant publishes per second during the latency phase.
const PUBLISH_RATE: f64 = 2.0;

/// One tenant's published image.
enum Image {
    Full(QuantizedModel),
    Pruned(CompressedModel),
}

/// `(tenant, test row)` of each of `n` requests of the phase `name`.
fn tenant_requests(seed: u64, ranked: &[usize], name: &str, n: usize) -> Vec<(usize, usize)> {
    let s = gen::sub_seed(seed, 0x7E4A_0000 + load::name_hash(name));
    let tenants = gen::zipf_draws(s, ranked, ZIPF_S, n);
    let mut rng = Rng::new(s);
    tenants
        .into_iter()
        .map(|t| (t, rng.below(TENANT_ROWS)))
        .collect()
}

/// In-process `submit_tenant` requests with Zipf-skewed tenants.
struct TenantTarget<'a> {
    handle: ServerHandle,
    registry: &'a ModelRegistry,
    names: &'a [String],
    data: &'a [Dataset],
    seed: u64,
    ranked: &'a [usize],
    /// The requests of every phase run so far, by phase name.
    reqs: HashMap<String, Vec<(usize, usize)>>,
    /// The first pinned model seen per (tenant, bit width).
    pinned: Mutex<HashMap<(usize, u32), TenantHandle>>,
    /// The hot tenant's republished generations alternate between these.
    hot: usize,
    hot_models: [QuantizedModel; 2],
    publish_errors: u64,
    /// Registry counters summed over the latency segments, whose get and
    /// publish order is fixed by the seed: (hits, cold loads, evictions).
    latency_registry: (u64, u64, u64),
}

impl TenantTarget<'_> {
    fn submit(
        &self,
        reqs: &[(usize, usize)],
        k: usize,
        log: &mut SpanLog,
        tag: u64,
    ) -> Result<Ticket, SubmitError> {
        let (t, r) = reqs[k];
        let rid = load::request_id(tag, k);
        let x = self.data[t].test.features[r].clone();
        log.time("submit", Some(rid), rid, || {
            self.handle.submit_tenant(&self.names[t], x, None)
        })
    }

    fn record(&self, reqs: &[(usize, usize)], k: usize, a: &ServeAnswer) -> Answer {
        let bw = a
            .tenant
            .as_ref()
            .map_or(0, |h| u32::from(h.view().bit_width()));
        if let Some(h) = &a.tenant {
            let mut pinned = self.pinned.lock().expect("pinned map lock");
            pinned.entry((reqs[k].0, bw)).or_insert_with(|| h.clone());
        }
        Answer {
            k: k as u32,
            label: a.label as u32,
            dims: a.dims_used as u32,
            model: bw,
        }
    }
}

impl Target for TenantTarget<'_> {
    fn closed(&mut self, name: &str, n: usize, tr: Tracing) -> R<Phase> {
        let reqs = tenant_requests(self.seed, self.ranked, name, n);
        let this = &*self;
        let submit = |k: usize, log: &mut SpanLog, tag: u64| this.submit(&reqs, k, log, tag);
        let record = |k: usize, a: &ServeAnswer| this.record(&reqs, k, a);
        let p = load::closed_inproc(name, n, WINDOW, &submit, &record, tr);
        self.reqs.insert(name.to_string(), reqs);
        Ok(p)
    }

    fn open(&mut self, name: &str, rate: f64, dur: Duration, tr: Tracing) -> R<Phase> {
        let n = ((rate * dur.as_secs_f64()) as usize).max(1);
        let reqs = tenant_requests(self.seed, self.ranked, name, n);
        // Only the latency segments publish beside their reads.
        let latency = name.starts_with("latency");
        let side_rate = if latency { PUBLISH_RATE } else { 0.0 };
        let before = self.registry.stats();
        let mut errors = 0u64;
        let p = {
            let this = &*self;
            let submit = |k: usize, log: &mut SpanLog, tag: u64| this.submit(&reqs, k, log, tag);
            let record = |k: usize, a: &ServeAnswer| this.record(&reqs, k, a);
            let mut publish = |j: usize, log: &mut SpanLog| {
                let model = &this.hot_models[j % 2];
                let hot = &this.names[this.hot];
                if log
                    .time("publish", None, 0, || this.registry.publish(hot, model))
                    .is_err()
                {
                    errors += 1;
                }
            };
            load::open_inproc(
                name,
                rate,
                dur,
                &submit,
                &record,
                side_rate,
                &mut publish,
                tr,
            )
        };
        self.publish_errors += errors;
        if latency {
            let after = self.registry.stats();
            let sum = &mut self.latency_registry;
            sum.0 += after.hits - before.hits;
            sum.1 += after.cold_loads - before.cold_loads;
            sum.2 += after.evictions - before.evictions;
        }
        self.reqs.insert(name.to_string(), reqs);
        Ok(p)
    }
}

/// Checks every tenant answer against the packed scalar oracle of the
/// conformance `registry`/`compress` stages, replayed on the model the
/// answer pinned. Verdicts are cached by (tenant, row, bit width).
fn check_tenants(run: &mut Run, target: &TenantTarget, encoder: &dyn Encoder) -> R<()> {
    let pinned = std::mem::take(&mut *target.pinned.lock().expect("pinned map lock"));
    let mut oracles: HashMap<(usize, u32), TenantOracle> = HashMap::new();
    for (key, h) in &pinned {
        oracles.insert(*key, TenantOracle::from_handle(h)?);
    }
    let mut queries: HashMap<(usize, usize), BinaryHv> = HashMap::new();
    let mut verdicts: HashMap<(usize, usize, u32), usize> = HashMap::new();
    for p in &mut run.phases {
        let reqs = &target.reqs[&p.name];
        for a in &p.answers {
            let (t, r) = reqs[a.k as usize];
            let key = (t, r, a.model);
            let oracle = match verdicts.get(&key) {
                Some(&v) => v,
                None => {
                    let o = oracles.get(&(t, a.model)).ok_or_else(|| {
                        format!("an answer for {} pinned no model", target.names[t])
                    })?;
                    let query = match queries.entry((t, r)) {
                        Entry::Occupied(e) => e.into_mut(),
                        Entry::Vacant(e) => {
                            let row = &target.data[t].test.features[r];
                            e.insert(encoder.encode(row).or_fail("oracle encode")?.to_binary())
                        }
                    };
                    let v = o.predict(query)?;
                    verdicts.insert(key, v);
                    v
                }
            };
            if oracle != a.label as usize {
                p.mismatched += 1;
            }
        }
    }
    Ok(())
}

pub fn tenant_mix(ctx: &Ctx) -> R<Run> {
    let plan = Plan {
        ladder_base: 2000.0,
        limit_us: 2000.0,
        nominal: 4000.0,
    };
    let seed = gen::sub_seed(ctx.seed, 20);
    let names: Vec<String> = (0..TENANTS).map(|t| format!("tenant{t:02}")).collect();
    // The popularity ranking is part of the fixed data: which tenants are
    // hot (and so the accuracy mix) is the same in every run.
    let ranked = gen::zipf_ranking(DATA_SEED, TENANTS, 2);
    let mut run = Run::default();
    let mut setups = Vec::new();
    let mut trainings: Vec<Trained> = Vec::new();
    let mut stack: Option<(Server, Arc<ModelRegistry>, PathBuf, Learner)> = None;
    let mut data: Option<Vec<Dataset>> = None;
    for rep in 0..SETUP_REPS {
        if let Some((server, registry, dir, learner)) = stack.take() {
            server.drain().or_fail("drain")?;
            drop(registry);
            let _ = std::fs::remove_dir_all(dir);
            learner.drain()?;
        }
        let t0 = Instant::now();
        let tenants: Vec<Dataset> = (0..TENANTS)
            .map(|t| isolet(gen::sub_seed(DATA_SEED, 100 + t as u64), 520, TENANT_ROWS))
            .collect();
        let mut setup = t0.elapsed();
        let tenants = data.get_or_insert(tenants);
        if trainings.is_empty() {
            let sets: Vec<(&[Vec<f64>], &[usize])> = tenants
                .iter()
                .map(|d| (d.train.features.as_slice(), d.train.labels.as_slice()))
                .collect();
            let (t, spans) = train(ctx, &tenants[0].train.features, &sets)?;
            run.spans.extend(spans);
            trainings.push(t);
        }
        let t = &trainings[0];
        let mut log = ctx.log();
        let root = log.id();
        let t1 = Instant::now();
        // Even tenants publish at full support (8-bit); odd ones are
        // pruned to a quarter of the dimensions and quantized to 4 bits.
        let mut images = Vec::with_capacity(TENANTS);
        let mut total = 0usize;
        for (i, (model, d)) in t.models.iter().zip(tenants.iter()).enumerate() {
            let image = if i % 2 == 0 {
                let q = QuantizedModel::from_model(model, 8).or_fail("quantize")?;
                let mut bytes = Vec::new();
                generic_hdc::io::write_packed(&q, &mut bytes).or_fail("size image")?;
                total += bytes.len();
                Image::Full(q)
            } else {
                let encoded = encode_batch_parallel(&t.encoder, &d.train.features, THREADS)
                    .or_fail("encode")?;
                let sal = saliency(model, &encoded, &d.train.labels).or_fail("saliency")?;
                let mut pruned = log
                    .time("prune", Some(root), 0, || {
                        generic_hdc::prune(model, &sal, DIM / 4)
                    })
                    .or_fail("prune")?;
                pruned
                    .recover(&encoded, &d.train.labels, 2, THREADS)
                    .or_fail("recover")?;
                let c = CompressedModel::from_pruned(&pruned, 4).or_fail("compress")?;
                total += c.image_bytes().or_fail("size image")?.len();
                Image::Pruned(c)
            };
            images.push(image);
        }
        let dir = ctx.dir(&format!("tenant-mix-{rep}"))?;
        let config = RegistryConfig {
            byte_budget: total / 4,
            dim: DIM,
            ..RegistryConfig::default()
        };
        let registry =
            Arc::new(ModelRegistry::open(dir.join("registry"), config).or_fail("open registry")?);
        for (name, image) in names.iter().zip(&images) {
            log.time("publish", Some(root), 0, || match image {
                Image::Full(q) => registry.publish(name, q),
                Image::Pruned(c) => registry.publish_compressed(name, c),
            })
            .or_fail("publish")?;
        }
        let pipeline =
            HdcPipeline::from_parts(t.encoder.clone(), t.models[0].clone()).or_fail("pipeline")?;
        let learner = log.time("learn_server_start", Some(root), 0, || {
            Learner::start(ctx, &format!("tenant-mix-learn-{rep}"), pipeline.clone())
        })?;
        let ckpt = dir.join("ckpt");
        let server = log.time("server_start", Some(root), 0, || {
            start_server(pipeline, &ckpt, 2, Some(Arc::clone(&registry)))
        })?;
        let handle = server.handle();
        let reqs = tenant_requests(seed, &ranked, "warmup", WARMUP);
        let submit = |k: usize, _: &mut SpanLog, _: u64| {
            let (t, r) = reqs[k];
            handle.submit_tenant(&names[t], tenants[t].test.features[r].clone(), None)
        };
        let w = log.time("warmup", Some(root), 0, || {
            load::closed_inproc(
                "warmup",
                WARMUP,
                16,
                &submit,
                &shared_answer,
                ctx.tracing().off(),
            )
        });
        if w.answered != WARMUP as u64 {
            return Err("warm-up requests went unanswered".into());
        }
        setup += t1.elapsed();
        log.record(root, None, 0, "setup", t1, Instant::now());
        setups.push(setup.as_secs_f64());
        run.spans.extend(log.into_spans());
        stack = Some((server, registry, dir, learner));
    }
    let data = data.expect("generated");
    let (server, registry, dir, learner) = stack.expect("started");
    let handle = server.handle();
    // The learn stream: tenant 0's training rows (the shared model's).
    let d0 = &data[0];
    let n_learn = (LEARN_SAMPLES_PER_S * ctx.seconds) as usize;
    let order = gen::request_pool(learn_seed(), d0.train.len(), n_learn);
    let samples = order
        .iter()
        .map(|&i| (d0.train.features[i].as_slice(), d0.train.labels[i]))
        .collect();
    let mut learn = LearnStream::new(learner.server.handle(), samples);

    // The hot tenant is the most popular one (full support, by the ranking's
    // parity). Its republished generations alternate between 4 and 8 bits,
    // so an answer's pinned bit width names the generation it saw.
    let hot = ranked[0];
    let hot_model = &trainings[0].models[hot];
    let mut target = TenantTarget {
        handle: handle.clone(),
        registry: &registry,
        names: &names,
        data: &data,
        seed,
        ranked: &ranked,
        reqs: HashMap::new(),
        pinned: Mutex::new(HashMap::new()),
        hot,
        hot_models: [
            QuantizedModel::from_model(hot_model, 4).or_fail("quantize")?,
            QuantizedModel::from_model(hot_model, 8).or_fail("quantize")?,
        ],
        publish_errors: 0,
        latency_registry: (0, 0, 0),
    };
    let sets: Vec<(&[Vec<f64>], &[usize])> = data
        .iter()
        .map(|d| (d.train.features.as_slice(), d.train.labels.as_slice()))
        .collect();
    let mut train_again = |run: &mut Run| -> R<Trained> {
        let (t, spans) = train(ctx, &data[0].train.features, &sets)?;
        run.spans.extend(spans);
        Ok(t)
    };
    let lat = serve_phases(
        ctx,
        &mut run,
        &mut target,
        &plan,
        &mut trainings,
        &mut train_again,
        &mut learn,
    )?;
    record_setup_and_training(&mut run, &setups, &trainings);
    if target.publish_errors > 0 {
        run.problems.push(format!(
            "{} hot-tenant publishes failed",
            target.publish_errors
        ));
    }
    let (hits, cold, evictions) = target.latency_registry;
    let gets = hits + cold;
    run.set("registry.hit_ratio", hits as f64 / gets.max(1) as f64);
    run.set("registry.evictions", evictions as f64);
    let resident = registry.resident_bytes() as f64 / f64::from(1u32 << 20);
    run.set("registry.resident_mib", resident);
    run.lines.push(format!(
        "registry over the latency segments: hit ratio {:.3} over {gets} gets, {} evictions, \
         {:.2} MiB resident",
        run.layers["registry.hit_ratio"],
        run.layers["registry.evictions"],
        run.layers["registry.resident_mib"]
    ));

    let snapshot = handle.snapshots().load();
    let encoder = snapshot.pipeline().encoder();
    if ctx.trace {
        let lat_reqs = &target.reqs["latency-1"];
        let mut log = ctx.log();
        // Registry gets, resident vs cold, replaying the latency sequence.
        let (mut hit, mut miss) = (Vec::new(), Vec::new());
        for &(t, _) in lat_reqs.iter().take(4000) {
            let cold = registry.stats().cold_loads;
            let start = Instant::now();
            let got = registry.get(&names[t]);
            let end = Instant::now();
            got.or_fail("registry get")?;
            let is_miss = registry.stats().cold_loads > cold;
            let name = if is_miss {
                "registry_get_miss"
            } else {
                "registry_get_hit"
            };
            let id = log.id();
            log.record(id, None, 0, name, start, end);
            let ns = end.duration_since(start).as_nanos() as f64;
            if is_miss {
                miss.push(ns);
            } else {
                hit.push(ns);
            }
        }
        run.set("registry.get_hit_ns", stats::mean(&hit));
        run.set("registry.get_miss_us", stats::mean(&miss) / 1e3);
        // Quantize, encode, binarize and packed scoring of the same requests.
        let (mut full, mut pruned, mut base) = (Vec::new(), Vec::new(), Vec::new());
        let mut scores = Vec::new();
        for (i, &(t, r)) in lat_reqs.iter().take(REPLAY_ROWS).enumerate() {
            let model = registry.get(&names[t]).or_fail("registry get")?;
            let view = model.view();
            let root = log.id();
            let req = i as u64;
            let start = Instant::now();
            let row = &data[t].test.features[r];
            let bins = log
                .time("bins", Some(root), req, || encoder.quantizer().bins(row))
                .or_fail("bins")?;
            let hv = log
                .time("encode_bins", Some(root), req, || {
                    encoder.encode_bins(&bins)
                })
                .or_fail("encode")?;
            let q: BinaryHv = log.time("to_binary", Some(root), req, || hv.to_binary());
            let t0 = Instant::now();
            view.scores_into_with(&q, kernels::active(), &mut scores)
                .or_fail("packed score")?;
            let t1 = Instant::now();
            let name = if view.is_pruned() {
                "pruned_score"
            } else {
                "packed_score"
            };
            let id = log.id();
            log.record(id, Some(root), req, name, t0, t1);
            log.record(root, None, req, "replay", start, t1);
            let ns = t1.duration_since(t0).as_nanos() as f64;
            if view.is_pruned() {
                pruned.push(ns);
            } else {
                full.push(ns);
            }
            base.push(t1.duration_since(start).as_nanos() as f64);
        }
        run.set("quant.packed_score_ns", stats::mean(&full));
        run.set("quant.pruned_score_ns", stats::mean(&pruned));
        run.set("serve.queue_wait_base_us", stats::mean(&base) / 1e3);
        let spans = log.into_spans();
        run.set("hv.to_binary_ns", mean_ns(&spans, "to_binary"));
        run.spans.extend(spans);
    }

    let report = server.drain().or_fail("drain")?;
    run.learn_sent = learn.len() as u64;
    let learned = learner.drain()?;
    record_learn(&mut run, &learn, &learned, &report, 0);

    check_tenants(&mut run, &target, encoder)?;
    let truth = |name: &str, k: usize| {
        let (t, r) = target.reqs[name][k];
        data[t].test.labels[r]
    };
    run.e2e.accuracy = accuracy(&run, &lat, &truth);
    drop(target);
    drop(registry);
    let _ = std::fs::remove_dir_all(&dir);

    if ctx.trace {
        let base = run.layers["serve.queue_wait_base_us"] * 1e3;
        record_spans(&mut run);
        record_queue_wait(&mut run, base);
    }
    Ok(run)
}

// ---------------------------------------------------------------------------
// online-learn
// ---------------------------------------------------------------------------

/// Rows `0..LEARN_POOL` of the test split feed inference; the rest feed
/// the learn streams.
const LEARN_POOL: usize = 1040;
/// Learn submits per second mixed into the latency segments' schedules.
const LEARN_MIX: f64 = 200.0;
/// Latency budget of every inference request of the latency segments.
const BUDGET: Duration = Duration::from_millis(2);

/// In-process `submit` requests; the latency segments carry a deadline
/// budget and mix learn submits into the schedule.
struct LearnTarget<'a> {
    handle: &'a ServerHandle,
    rows: &'a [Vec<f64>],
    labels: &'a [usize],
    pool: &'a [usize],
    /// Learn-source rows in the seeded order the mix submits them.
    mix: Vec<usize>,
    mix_next: usize,
    mix_accepted: u64,
    mix_refused: u64,
    /// Every snapshot an answer pinned, by version.
    snapshots: Mutex<HashMap<u32, Arc<ModelSnapshot>>>,
}

impl LearnTarget<'_> {
    fn submit(
        &self,
        k: usize,
        budget: Option<Duration>,
        log: &mut SpanLog,
        tag: u64,
    ) -> Result<Ticket, SubmitError> {
        let rid = load::request_id(tag, k);
        let x = self.rows[self.pool[k % POOL]].clone();
        log.time("submit", Some(rid), rid, || self.handle.submit(x, budget))
    }

    fn record(&self, k: usize, a: &ServeAnswer) -> Answer {
        let answer = shared_answer(k, a);
        let mut map = self.snapshots.lock().expect("snapshot map lock");
        map.entry(answer.model)
            .or_insert_with(|| Arc::clone(&a.snapshot));
        answer
    }
}

impl Target for LearnTarget<'_> {
    fn closed(&mut self, name: &str, n: usize, tr: Tracing) -> R<Phase> {
        let this = &*self;
        let submit = |k: usize, log: &mut SpanLog, tag: u64| this.submit(k, None, log, tag);
        let record = |k: usize, a: &ServeAnswer| this.record(k, a);
        Ok(load::closed_inproc(name, n, WINDOW, &submit, &record, tr))
    }

    fn open(&mut self, name: &str, rate: f64, dur: Duration, tr: Tracing) -> R<Phase> {
        // Only the latency segments carry budgets and learn while they
        // serve. Budgeted, a ladder step would fail whenever a host stall
        // of a few milliseconds made admission shed, so the ladder would
        // measure the host's stalls rather than the capacity; and the
        // writer's model evolves the same way in every run.
        let latency = name.starts_with("latency");
        let budget = latency.then_some(BUDGET);
        let (mut next, mut accepted, mut refused) = (self.mix_next, 0u64, 0u64);
        let p = {
            let this = &*self;
            let submit = |k: usize, log: &mut SpanLog, tag: u64| this.submit(k, budget, log, tag);
            let record = |k: usize, a: &ServeAnswer| this.record(k, a);
            let mut learn = |_: usize, log: &mut SpanLog| {
                let i = this.mix[next % this.mix.len()];
                next += 1;
                let x = this.rows[i].clone();
                let submitted = log.time("submit_learn", None, 0, || {
                    this.handle.submit_learn(x, this.labels[i])
                });
                match submitted {
                    Ok(()) => accepted += 1,
                    Err(_) => refused += 1,
                }
            };
            let mix = if latency { LEARN_MIX } else { 0.0 };
            load::open_inproc(name, rate, dur, &submit, &record, mix, &mut learn, tr)
        };
        self.mix_next = next;
        self.mix_accepted += accepted;
        self.mix_refused += refused;
        Ok(p)
    }
}

pub fn online_learn(ctx: &Ctx) -> R<Run> {
    let plan = Plan {
        ladder_base: 1000.0,
        limit_us: 2000.0,
        nominal: 4000.0,
    };
    let seed = gen::sub_seed(ctx.seed, 30);
    let mut run = Run::default();
    let mut setups = Vec::new();
    let mut trainings: Vec<Trained> = Vec::new();
    let mut stack: Option<(Server, PathBuf, Learner)> = None;
    let mut data: Option<Dataset> = None;
    for rep in 0..SETUP_REPS {
        if let Some((server, dir, learner)) = stack.take() {
            server.drain().or_fail("drain")?;
            let _ = std::fs::remove_dir_all(dir);
            learner.drain()?;
        }
        let t0 = Instant::now();
        let d = isolet(gen::sub_seed(DATA_SEED, 30), 5200, 3 * LEARN_POOL);
        let mut setup = t0.elapsed();
        let d = data.get_or_insert(d);
        if trainings.is_empty() {
            let sets = [(d.train.features.as_slice(), d.train.labels.as_slice())];
            let (t, spans) = train(ctx, &d.train.features, &sets)?;
            run.spans.extend(spans);
            trainings.push(t);
        }
        let mut log = ctx.log();
        let root = log.id();
        let t1 = Instant::now();
        let t = &trainings[0];
        let pipeline =
            HdcPipeline::from_parts(t.encoder.clone(), t.models[0].clone()).or_fail("pipeline")?;
        let learner = log.time("learn_server_start", Some(root), 0, || {
            Learner::start(ctx, &format!("online-learn-learn-{rep}"), pipeline.clone())
        })?;
        let dir = ctx.dir(&format!("online-learn-{rep}"))?;
        let server = log.time("server_start", Some(root), 0, || {
            start_server(pipeline, &dir, 1, None)
        })?;
        let handle = server.handle();
        let rows = &d.test.features;
        let submit =
            |k: usize, _: &mut SpanLog, _: u64| handle.submit(rows[k % LEARN_POOL].clone(), None);
        let w = log.time("warmup", Some(root), 0, || {
            load::closed_inproc(
                "warmup",
                WARMUP,
                16,
                &submit,
                &shared_answer,
                ctx.tracing().off(),
            )
        });
        if w.answered != WARMUP as u64 {
            return Err("warm-up requests went unanswered".into());
        }
        setup += t1.elapsed();
        log.record(root, None, 0, "setup", t1, Instant::now());
        setups.push(setup.as_secs_f64());
        run.spans.extend(log.into_spans());
        stack = Some((server, dir, learner));
    }
    let data = data.expect("generated");
    let (server, dir, learner) = stack.expect("started");
    let handle = server.handle();
    let rows = &data.test.features;
    let labels = &data.test.labels;
    let pool = gen::request_pool(seed, LEARN_POOL, POOL);
    let row_of = |k: usize| pool[k % POOL];

    // The learn streams: the open loops mix in uniform-prior samples; the
    // closed phase shifts its priors halfway onto the two classes the
    // trained model gets wrong most often, so drift retraining runs.
    let source: Vec<usize> = (LEARN_POOL..rows.len()).collect();
    let initial = handle.snapshots().load();
    let mut wrong = vec![(0usize, 0usize); N_CLASSES];
    for &i in &source {
        let predicted = initial.pipeline().predict(&rows[i]).or_fail("predict")?;
        wrong[labels[i]].1 += 1;
        if predicted != labels[i] {
            wrong[labels[i]].0 += 1;
        }
    }
    let error = |c: usize| wrong[c].0 as f64 / wrong[c].1.max(1) as f64;
    let mut by_error: Vec<usize> = (0..N_CLASSES).collect();
    by_error.sort_by(|&a, &b| error(b).total_cmp(&error(a)).then(a.cmp(&b)));
    let shifted = &by_error[..2];
    let n_learn = (LEARN_SAMPLES_PER_S * ctx.seconds) as usize;
    let classes = gen::label_shift_schedule(learn_seed(), N_CLASSES, shifted, n_learn);
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); N_CLASSES];
    for &i in &source {
        by_class[labels[i]].push(i);
    }
    let mut cursor = [0usize; N_CLASSES];
    let stream: Vec<usize> = classes
        .iter()
        .map(|&c| {
            let i = by_class[c][cursor[c] % by_class[c].len()];
            cursor[c] += 1;
            i
        })
        .collect();
    let overall = wrong.iter().map(|w| w.0).sum::<usize>() as f64 / source.len() as f64;
    run.lines.push(format!(
        "learn stream: {n_learn} samples; priors shift halfway onto classes {shifted:?} (error \
         {:.2}, {:.2}; {overall:.2} over all classes); drift threshold {}",
        error(shifted[0]),
        error(shifted[1]),
        runtime_config().drift_threshold
    ));

    let samples = stream
        .iter()
        .map(|&i| (rows[i].as_slice(), labels[i]))
        .collect();
    let mut learn = LearnStream::new(learner.server.handle(), samples);

    let mix = gen::request_pool(gen::sub_seed(learn_seed(), 8), source.len(), source.len());
    let mut target = LearnTarget {
        handle: &handle,
        rows,
        labels,
        pool: &pool,
        mix: mix.into_iter().map(|i| source[i]).collect(),
        mix_next: 0,
        mix_accepted: 0,
        mix_refused: 0,
        snapshots: Mutex::new(HashMap::new()),
    };
    let sets = [(data.train.features.as_slice(), data.train.labels.as_slice())];
    let mut train_again = |run: &mut Run| -> R<Trained> {
        let (t, spans) = train(ctx, &data.train.features, &sets)?;
        run.spans.extend(spans);
        Ok(t)
    };
    let lat = serve_phases(
        ctx,
        &mut run,
        &mut target,
        &plan,
        &mut trainings,
        &mut train_again,
        &mut learn,
    )?;
    record_setup_and_training(&mut run, &setups, &trainings);
    if target.mix_refused > 0 {
        run.lines.push(format!(
            "{} mixed learn submits were refused (queue full)",
            target.mix_refused
        ));
    }

    // The tiers the ladder served the latency segments at; the reduced
    // scoring replay uses the one below full that it used most.
    let mut tiers: HashMap<u32, usize> = HashMap::new();
    for a in lat.iter().flat_map(|&i| &run.phases[i].answers) {
        *tiers.entry(a.dims).or_default() += 1;
    }
    let top_dims = tiers
        .iter()
        .filter(|&(&d, _)| d as usize != DIM)
        .max_by_key(|&(d, n)| (*n, *d))
        .map_or(DIM, |(d, _)| *d as usize);
    let mut tier_list: Vec<(u32, usize)> = tiers.into_iter().collect();
    tier_list.sort_unstable();
    let degraded: usize = tier_list
        .iter()
        .filter(|(d, _)| *d as usize != DIM)
        .map(|(_, n)| n)
        .sum();
    let answered: usize = lat.iter().map(|&i| run.phases[i].answers.len()).sum();
    run.lines.push(format!(
        "latency tiers (dims, answers): {tier_list:?}; {degraded} of {answered} answers below \
         full dimensionality"
    ));

    if ctx.trace {
        let mut log = ctx.log();
        let replay: Vec<&[f64]> = (0..REPLAY_ROWS)
            .map(|k| rows[row_of(k)].as_slice())
            .collect();
        let encoded = replay_encode_score(&mut log, initial.pipeline(), &replay, DIM)?;
        let mut engine = ScoreBatch::new();
        let mut preds = Vec::new();
        let opts = PredictOptions::reduced(top_dims, NormMode::Updated);
        for hv in &encoded {
            let one = std::slice::from_ref(hv);
            log.time("score_reduced", None, 0, || {
                engine.predict_into(initial.pipeline().model(), one, opts, &mut preds)
            });
        }
        let spans = log.into_spans();
        run.set(
            "model.score_reduced_ns_per_row",
            mean_ns(&spans, "score_reduced"),
        );
        run.set("model.score_reduced_dims", top_dims as f64);
        run.spans.extend(spans);

        // A private runtime replays the closed learn stream through the
        // writer's calls: learn, snapshot publish every 64 applied samples
        // (the serve default), checkpoint at the configured cadence.
        let rdir = ctx.dir("online-learn-replay")?;
        let store = CheckpointStore::open(&rdir, 2, RetryPolicy::default()).or_fail("store")?;
        let config = RuntimeConfig {
            checkpoint_every: 0,
            ..runtime_config()
        };
        let mut rt =
            OnlineRuntime::new(initial.pipeline().clone(), store, config).or_fail("runtime")?;
        let mut log = ctx.log();
        let (mut since_publish, mut since_ckpt) = (0u64, 0u64);
        for &i in &stream {
            if log
                .time("learn", None, 0, || rt.learn(&rows[i], labels[i]))
                .is_ok()
            {
                since_publish += 1;
                since_ckpt += 1;
            }
            if since_publish >= 64 {
                log.time("snapshot_publish", None, 0, || rt.publish_snapshot());
                since_publish = 0;
            }
            if since_ckpt >= runtime_config().checkpoint_every {
                log.time("checkpoint", None, 0, || rt.checkpoint())
                    .or_fail("checkpoint")?;
                since_ckpt = 0;
            }
        }
        let spans = log.into_spans();
        run.set("runtime.learn_us", mean_ns(&spans, "learn") / 1e3);
        run.set("runtime.checkpoint_ms", mean_ns(&spans, "checkpoint") / 1e6);
        run.set(
            "runtime.snapshot_publish_us",
            mean_ns(&spans, "snapshot_publish") / 1e3,
        );
        run.spans.extend(spans);
        drop(rt);
        let _ = std::fs::remove_dir_all(&rdir);
        let row = |k: usize| rows[row_of(k)].as_slice();
        submit_replay(&mut run, &handle, &row, ctx.tracing());
    }

    let report = server.drain().or_fail("drain")?;
    let _ = std::fs::remove_dir_all(&dir);
    run.learn_sent = learn.len() as u64;
    let learned = learner.drain()?;
    record_learn(&mut run, &learn, &learned, &report, target.mix_accepted);

    let snapshots = std::mem::take(&mut *target.snapshots.lock().expect("snapshot map lock"));
    check_shared(
        &mut run.phases,
        &|_: &str, k: usize| row_of(k),
        rows,
        &snapshots,
    )?;
    run.e2e.accuracy = accuracy(&run, &lat, &|_, k| labels[row_of(k)]);

    if ctx.trace {
        record_spans(&mut run);
        let base = shared_base_ns(&run);
        record_queue_wait(&mut run, base);
    }
    Ok(run)
}

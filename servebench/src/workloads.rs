//! The four workloads: how each one builds its service, and the seeded
//! request stream its clients replay.
//!
//! A stream is a pure function of `(seed, index)`, so every run with the
//! same seed serves the same requests in the same order; a faster program
//! only gets further along it in the timed phase. Warm-up requests come
//! from an index range the timed phase never reaches.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex};

use xai::core::backend::{BackendChoice, ClusterBackend, ExecutionBackend};
use xai::core::taxonomy::SharedExplainer;
use xai::core::{
    workspace_registry, ExplainRequest, Json, ModelOracle, RunConfig, SampleBudget, XaiResult,
};
use xai::data::Dataset;
use xai::datavalue::{BanzhafConfig, BanzhafMethod, LooMethod, TmcConfig, TmcMethod};
use xai::models::{persisted_bytes, Gbdt, GbdtConfig, LogisticConfig, LogisticRegression, Persist};
use xai::serve::{ExplanationService, ServeRequest, ServiceConfig};
use xai::shapley::{KernelShapConfig, KernelShapMethod, PermutationShapleyMethod, TreeShapMethod};
use xai::surrogate::lime::LimeConfig;
use xai::surrogate::{LimeMethod, PdpMethod};
use xai::transport::{ClusterConfig, ClusterRunner};

use crate::stats::{mix, plan_seed, unit};
use crate::trace::{Recorder, TracedBackend, TracedExplainer, TracedModel};

/// First stream index used for warm-up requests; the timed phase never
/// gets this far.
const WARMUP_BASE: u64 = 1 << 40;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Attribution,
    HotCache,
    Cluster,
    Valuation,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "attribution" => Workload::Attribution,
            "hot_cache" => Workload::HotCache,
            "cluster" => Workload::Cluster,
            "valuation" => Workload::Valuation,
            _ => return None,
        })
    }
}

/// A registered model as the reference path sees it: the raw oracle and
/// the dataset it was registered with.
struct RefModel {
    oracle: Arc<dyn ModelOracle + Send + Sync>,
    data: Dataset,
    json: Json,
}

/// The untraced explainers and models behind a service, for computing
/// the expected bytes of a request with a direct `Explainer::explain`.
pub struct Reference {
    explainers: HashMap<String, SharedExplainer>,
    models: HashMap<String, RefModel>,
}

impl Reference {
    /// The canonical bytes a direct explain produces for `request`.
    pub fn expected(&self, request: &ServeRequest) -> XaiResult<String> {
        let (explainer, model) = self.lookup(request);
        let data = &model.data;
        let mut req = ExplainRequest::new(data).plan(request.plan);
        if let Some(x) = &request.instance {
            req = req.instance(x);
        }
        if let Some(j) = request.feature {
            req = req.feature(j);
        }
        Ok(explainer.explain(&*model.oracle, &req)?.to_json_string())
    }

    /// Times `build_descriptors` and the descriptor wire round trip for
    /// a cluster request: build ns, then (bytes, encode ns, parse ns) per
    /// descriptor.
    pub fn descriptor_timings(
        &self,
        request: &ServeRequest,
    ) -> XaiResult<(u64, Vec<DescriptorWire>)> {
        use std::time::Instant;
        use xai::core::shard::{build_descriptors, ShardDescriptor};
        let (explainer, model) = self.lookup(request);
        let shardable = explainer
            .as_shardable()
            .expect("cluster methods are shardable");
        let mut req = ExplainRequest::new(&model.data).plan(request.plan);
        if let Some(x) = &request.instance {
            req = req.instance(x);
        }
        let shards = request.plan.backend.shards().unwrap_or(1);
        let start = Instant::now();
        let descs = build_descriptors(shardable, &req, model.json.clone(), shards)?;
        let build_ns = start.elapsed().as_nanos() as u64;
        let mut wire = Vec::with_capacity(descs.len());
        for desc in &descs {
            let start = Instant::now();
            let text = std::hint::black_box(desc.to_json_string());
            let encode_ns = start.elapsed().as_nanos() as u64;
            let start = Instant::now();
            let parsed = std::hint::black_box(ShardDescriptor::from_json_str(&text)?);
            let parse_ns = start.elapsed().as_nanos() as u64;
            assert_eq!(
                parsed.to_json_string(),
                text,
                "descriptor wire form must round-trip"
            );
            wire.push((text.len(), encode_ns, parse_ns));
        }
        Ok((build_ns, wire))
    }

    fn lookup(&self, request: &ServeRequest) -> (&SharedExplainer, &RefModel) {
        let explainer = self
            .explainers
            .get(&request.method)
            .expect("generated methods are registered");
        let model = self
            .models
            .get(&request.model)
            .expect("generated models are registered");
        (explainer, model)
    }
}

/// One descriptor's wire size and encode/parse times in ns.
pub type DescriptorWire = (usize, u64, u64);

/// Loopback daemons spawned from this executable; killed and reaped on
/// drop. Each daemon also exits when its stdin closes, so none outlives
/// a benchmark process that was killed. Untraced runs use the program's
/// own daemon (`--listen`); traced runs use one that also times each
/// shard it executes (`--listen-timed`).
pub struct Daemons {
    children: Mutex<Vec<(Child, ChildStdin, BufReader<ChildStdout>)>>,
    timed: bool,
}

impl Daemons {
    fn spawn(n: usize, timed: bool) -> std::io::Result<(Daemons, Vec<String>)> {
        let exe = std::env::current_exe()?;
        let flag = if timed { "--listen-timed" } else { "--listen" };
        let mut daemons = Daemons {
            children: Mutex::default(),
            timed,
        };
        let children = daemons.children.get_mut().expect("daemon list");
        let mut addrs = Vec::new();
        for _ in 0..n {
            let mut child = Command::new(&exe)
                .args([flag, "127.0.0.1:0"])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()?;
            let stdin = child.stdin.take().expect("stdin was piped");
            let out = BufReader::new(child.stdout.take().expect("stdout was piped"));
            children.push((child, stdin, out));
            let out = &mut children.last_mut().expect("pushed above").2;
            let mut line = String::new();
            out.read_line(&mut line)?;
            let addr = line
                .trim()
                .strip_prefix("listening on ")
                .unwrap_or("")
                .to_string();
            if addr.is_empty() {
                return Err(std::io::Error::other(format!(
                    "daemon announced '{}'",
                    line.trim()
                )));
            }
            addrs.push(addr);
        }
        Ok((daemons, addrs))
    }

    /// Process ids, for reading the daemons' CPU time.
    pub fn pids(&self) -> Vec<String> {
        self.children
            .lock()
            .expect("daemon list")
            .iter()
            .map(|(c, _, _)| c.id().to_string())
            .collect()
    }

    /// Daemon-side execution times (ns) of the shards the daemons ran
    /// since the last call; empty unless the daemons are timed.
    pub fn take_exec_ns(&self) -> std::io::Result<Vec<u64>> {
        let mut all = Vec::new();
        if !self.timed {
            return Ok(all);
        }
        for (_, stdin, out) in self.children.lock().expect("daemon list").iter_mut() {
            writeln!(stdin, "dump")?;
            stdin.flush()?;
            let mut line = String::new();
            out.read_line(&mut line)?;
            for field in line.split_whitespace() {
                all.push(field.parse().map_err(std::io::Error::other)?);
            }
        }
        Ok(all)
    }
}

impl Drop for Daemons {
    fn drop(&mut self) {
        for (child, _, _) in self.children.get_mut().expect("daemon list") {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Per-workload sizing of the sampled methods.
struct Sizing {
    kernel_coalitions: usize,
    permutations: usize,
    lime_samples: usize,
}

/// Every method a workload may request, sized for the benchmark.
fn explainers(s: &Sizing) -> Vec<SharedExplainer> {
    vec![
        Arc::new(KernelShapMethod {
            config: KernelShapConfig {
                max_coalitions: s.kernel_coalitions,
                ..KernelShapConfig::default()
            },
        }),
        Arc::new(PermutationShapleyMethod {
            permutations: s.permutations,
        }),
        Arc::new(LimeMethod {
            config: LimeConfig {
                n_samples: s.lime_samples,
                ..LimeConfig::default()
            },
        }),
        Arc::new(TreeShapMethod),
        Arc::new(PdpMethod {
            points: 10,
            max_rows: 24,
            keep_ice: false,
        }),
        Arc::new(LooMethod),
        // No truncation: a walk then always runs its full length, so a
        // capped job costs the same on every table and seed instead of
        // depending on where the prefix utility happens to converge.
        Arc::new(TmcMethod {
            config: TmcConfig {
                permutations: 40,
                truncation_tolerance: 0.0,
                ..TmcConfig::default()
            },
        }),
        Arc::new(BanzhafMethod {
            config: BanzhafConfig {
                samples_per_point: 2,
                ..BanzhafConfig::default()
            },
        }),
    ]
}

const KERNEL_SHAP: &str = "Kernel SHAP";
const PERMUTATION: &str = "Permutation sampling Shapley";
const LIME: &str = "LIME";
const TREESHAP: &str = "TreeSHAP";
const PDP: &str = "Partial dependence / ICE";
const LOO: &str = "Leave-one-out";
const TMC: &str = "Data Shapley (TMC)";
const BANZHAF: &str = "Data Banzhaf";

/// Distinct requests in the `hot_cache` working set (4× the result cache).
const HOT_DISTINCT: usize = 512;
/// Zipf exponent of `hot_cache` popularity.
const HOT_SKEW: f64 = 1.0;
/// Training tables of the `valuation` workload.
const TABLES: u64 = 24;
/// Table `t` has `TABLE_ROWS_MIN + TABLE_ROWS_STEP * t` rows (60 to 175),
/// the same on every seed. LOO and TMC cost grows with the square of the
/// rows, so job times spread smoothly over about a decade. On a host
/// whose speed switches between a fast and a slow state, a latency
/// distribution of one narrow peak becomes two, and its median jumps
/// between them with the share of time spent slow; a smooth one moves its
/// median in step with throughput.
const TABLE_ROWS_MIN: usize = 60;
const TABLE_ROWS_STEP: usize = 5;
/// Utility-evaluation cap of each TMC / Banzhaf valuation job.
const VALUATION_EVALS: usize = 120;
/// `attribution` re-explains an instance this many requests after its
/// previous explain. With two clients, the earlier explain is still
/// running only if the other client finished 63 requests meanwhile (each
/// takes at least a third of a millisecond, a GBDT explain about 7 ms),
/// so the memo hits of the later explains do not depend on thread timing.
const REEXPLAIN_GAP: u64 = 64;

/// What the clients replay.
enum Stream {
    Attribution {
        instances: Vec<Vec<f64>>,
    },
    HotCache {
        distinct: Vec<ServeRequest>,
        cdf: Vec<f64>,
    },
    Cluster {
        instances: Vec<Vec<f64>>,
    },
    Valuation,
}

/// A ready-to-measure service plus the stream its clients replay.
pub struct Bench {
    pub service: ExplanationService,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Every `check_every`-th response (by seeded draw) is byte-checked;
    /// 1 checks them all.
    pub check_every: u64,
    pub runner: Option<Arc<ClusterRunner>>,
    pub daemons: Option<Daemons>,
    pub reference: Reference,
    /// Pre-rendered request JSON, indexed by [`Bench::distinct`].
    pub wire: Vec<String>,
    stream: Stream,
    seed: u64,
}

impl Bench {
    /// Builds the workload's service, registers its models (wrapped for
    /// tracing when `rec` is given) and runs the warm-up pass.
    pub fn setup(
        workload: Workload,
        seed: u64,
        rec: Option<&Arc<Recorder>>,
    ) -> std::io::Result<Bench> {
        let mut b = match workload {
            Workload::Attribution => attribution(seed, rec),
            Workload::HotCache => hot_cache(seed, rec),
            Workload::Cluster => cluster(seed, rec)?,
            Workload::Valuation => valuation(seed, rec),
        };
        b.warm_up();
        Ok(b)
    }

    /// The pre-rendered wire text to submit for stream index `i`, on
    /// workloads that submit JSON.
    pub fn distinct(&self, i: u64) -> Option<usize> {
        match &self.stream {
            Stream::HotCache { cdf, .. } => {
                let u = unit(self.seed ^ 0x407, i);
                Some(cdf.partition_point(|&c| c <= u).min(cdf.len() - 1))
            }
            _ => None,
        }
    }

    /// The request behind distinct id `u` on JSON workloads.
    pub fn distinct_request(&self, u: usize) -> &ServeRequest {
        match &self.stream {
            Stream::HotCache { distinct, .. } => &distinct[u],
            _ => unreachable!("only JSON workloads have distinct ids"),
        }
    }

    /// Request `i` of the stream.
    pub fn item(&self, i: u64) -> ServeRequest {
        let seed = self.seed;
        match &self.stream {
            Stream::Attribution { instances } => {
                // Each instance is explained three times, in three passes
                // `REEXPLAIN_GAP` requests apart: two coalition methods
                // and a third method or seed, so the coalition memo is
                // shared while no two requests are equal.
                let gap = REEXPLAIN_GAP;
                let (k, pass) = (i / (3 * gap) * gap + i % gap, i % (3 * gap) / gap);
                let pick = mix(seed, k);
                let row = &instances[(pick % instances.len() as u64) as usize];
                // Three instances in four go to the GBDT, so the median
                // request is a millisecond-scale tree explain rather than
                // a sub-millisecond logistic one, whose latency is mostly
                // thread wake-ups.
                let model = if pick >> 32 & 3 != 0 {
                    "fraud_gbdt"
                } else {
                    "fraud_logit"
                };
                let method = match (pass, k % 2) {
                    (0, _) | (2, 1) => KERNEL_SHAP,
                    (1, _) => PERMUTATION,
                    _ => LIME,
                };
                let plan = RunConfig::seeded(plan_seed(seed, i)).with_batched(true);
                ServeRequest::new(method, model)
                    .with_instance(row)
                    .with_plan(plan)
            }
            Stream::HotCache { distinct, .. } => {
                distinct[self.distinct(i).expect("hot_cache streams distinct ids")].clone()
            }
            Stream::Cluster { instances } => {
                // A seeded quarter of requests repeat one served 20-59
                // requests earlier: gone from the 8-entry result cache,
                // still in the shard cache.
                if i >= 64 && unit(seed ^ 0xC1, i) < 0.25 {
                    return self.item(i - 20 - mix(seed ^ 0xC2, i) % 40);
                }
                let pick = mix(seed, i);
                let row = &instances[(pick % instances.len() as u64) as usize];
                let model = if pick >> 32 & 3 == 0 {
                    "credit_gbdt"
                } else {
                    "credit_logit"
                };
                let method = [KERNEL_SHAP, PERMUTATION, LIME][(i % 3) as usize];
                let plan = RunConfig::seeded(plan_seed(seed, i))
                    .with_workers(2)
                    .with_backend(BackendChoice::cluster(2));
                ServeRequest::new(method, model)
                    .with_instance(row)
                    .with_plan(plan)
            }
            Stream::Valuation => {
                let table = format!("table{}", mix(seed, i) % TABLES);
                let plan = RunConfig::seeded(plan_seed(seed, i));
                let budget = SampleBudget::with_max_evals(VALUATION_EVALS);
                let (method, plan) = match i % 3 {
                    0 => (LOO, plan),
                    1 => (TMC, plan.with_budget(budget)),
                    _ => (BANZHAF, plan.with_budget(budget)),
                };
                ServeRequest::new(method, table).with_plan(plan)
            }
        }
    }

    /// Whether the response to stream index `i` is byte-checked.
    pub fn checked(&self, i: u64) -> bool {
        mix(self.seed ^ 0xCEC, i).is_multiple_of(self.check_every)
    }

    fn warm_up(&mut self) {
        if let Stream::HotCache { .. } = self.stream {
            // Every distinct request once, in a seeded order: the cache
            // ends full and the LRU order is seeded too.
            let mut order: Vec<usize> = (0..self.wire.len()).collect();
            order.sort_by_key(|&u| mix(self.seed ^ 0x3A, u as u64));
            for u in order {
                let _ = self.service.submit_json(&self.wire[u]);
            }
            return;
        }
        for j in 0..24 {
            let _ = self.service.submit(&self.item(WARMUP_BASE + j));
        }
    }
}

/// Accumulates a service, its reference twin and (when tracing) the
/// wrappers between them.
struct Assembly {
    service: ExplanationService,
    reference: Reference,
    rec: Option<Arc<Recorder>>,
}

impl Assembly {
    fn new(sizing: &Sizing, config: ServiceConfig, rec: Option<&Arc<Recorder>>) -> Assembly {
        let mut registry = workspace_registry();
        let mut reference = Reference {
            explainers: HashMap::new(),
            models: HashMap::new(),
        };
        for e in explainers(sizing) {
            reference
                .explainers
                .insert(e.card().name.to_string(), Arc::clone(&e));
            let served = match rec {
                Some(rec) => TracedExplainer::wrap(e, rec),
                None => e,
            };
            registry
                .register_explainer(served)
                .expect("benchmark methods attach to catalogued cards");
        }
        let service = ExplanationService::new(registry, config);
        Assembly {
            service,
            reference,
            rec: rec.cloned(),
        }
    }

    /// Registers `model` under `name` with `data` as its background (or
    /// training table), fingerprinted by its persisted bytes.
    fn model<M: ModelOracle + Persist + Send + Sync + 'static>(
        &mut self,
        name: &str,
        model: M,
        data: Dataset,
    ) {
        let bytes = persisted_bytes(&model);
        let json = model.save();
        let raw: Arc<dyn ModelOracle + Send + Sync> = Arc::new(model);
        let served = match &self.rec {
            Some(rec) => TracedModel::wrap(Arc::clone(&raw), rec),
            None => Arc::clone(&raw),
        };
        self.service
            .register_model(name, served, data.clone(), &bytes);
        self.reference.models.insert(
            name.to_string(),
            RefModel {
                oracle: raw,
                data,
                json,
            },
        );
    }

    fn finish(
        self,
        clients: usize,
        check_every: u64,
        wire: Vec<String>,
        stream: Stream,
        seed: u64,
    ) -> Bench {
        Bench {
            service: self.service,
            clients,
            check_every,
            runner: None,
            daemons: None,
            reference: self.reference,
            wire,
            stream,
            seed,
        }
    }
}

fn rows(data: &Dataset, range: std::ops::Range<usize>) -> Vec<Vec<f64>> {
    range.map(|i| data.row(i).to_vec()).collect()
}

fn gbdt(data: &Dataset, rounds: usize) -> Gbdt {
    Gbdt::fit(
        data.x(),
        data.y(),
        GbdtConfig {
            n_rounds: rounds,
            ..GbdtConfig::default()
        },
    )
}

fn logit(data: &Dataset) -> LogisticRegression {
    LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default())
}

/// Cold local attributions on a wide, imbalanced fraud-shaped table.
fn attribution(seed: u64, rec: Option<&Arc<Recorder>>) -> Bench {
    const WEIGHTS: [f64; 16] = [
        1.5, -1.2, 0.9, -0.7, 0.6, -0.5, 0.4, -0.3, 0.3, -0.2, 0.2, -0.1, 0.1, 0.05, -0.05, 0.0,
    ];
    let table = xai::data::synth::correlated_gaussian(3000, &WEIGHTS, 0.4, -2.5, mix(seed, 0xA7));
    let train = table.subset(&(0..2000).collect::<Vec<_>>());
    let background = table.subset(&(2000..2048).collect::<Vec<_>>());
    let sizing = Sizing {
        kernel_coalitions: 384,
        permutations: 24,
        lime_samples: 512,
    };
    let config = ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    };
    let mut b = Assembly::new(&sizing, config, rec);
    b.model("fraud_gbdt", gbdt(&train, 30), background.clone());
    b.model("fraud_logit", logit(&train), background);
    let stream = Stream::Attribution {
        instances: rows(&table, 2048..3000),
    };
    b.finish(2, 8, Vec::new(), stream, seed)
}

/// The front door: two clients submitting JSON over a skewed working set
/// four times the result cache.
fn hot_cache(seed: u64, rec: Option<&Arc<Recorder>>) -> Bench {
    let data = xai::data::synth::german_credit(600, mix(seed, 0x407));
    let train = data.subset(&(0..400).collect::<Vec<_>>());
    let background = data.subset(&(400..424).collect::<Vec<_>>());
    let sizing = Sizing {
        kernel_coalitions: 512,
        permutations: 12,
        lime_samples: 256,
    };
    let config = ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    };
    let mut b = Assembly::new(&sizing, config, rec);
    b.model("credit_gbdt", gbdt(&train, 30), background.clone());
    b.model("credit_logit", logit(&train), background);
    let instances = rows(&data, 424..(424 + HOT_DISTINCT / 4));
    let distinct: Vec<ServeRequest> = (0..HOT_DISTINCT)
        .map(|u| {
            let inst = &instances[u / 4];
            let plan = RunConfig::seeded(plan_seed(seed, u as u64));
            match u % 4 {
                0 => ServeRequest::new(TREESHAP, "credit_gbdt")
                    .with_instance(inst)
                    .with_plan(plan),
                1 => ServeRequest::new(KERNEL_SHAP, "credit_logit")
                    .with_instance(inst)
                    .with_plan(plan.with_batched(true)),
                2 => ServeRequest::new(LIME, "credit_logit")
                    .with_instance(inst)
                    .with_plan(plan),
                _ => {
                    let model = if u / 4 % 2 == 0 {
                        "credit_gbdt"
                    } else {
                        "credit_logit"
                    };
                    ServeRequest::new(PDP, model)
                        .with_feature(u / 4 % 9)
                        .with_plan(plan)
                }
            }
        })
        .collect();
    let wire = distinct.iter().map(ServeRequest::to_json_string).collect();
    // Zipf popularity over a seeded ranking of the distinct requests.
    let mut ranked: Vec<usize> = (0..HOT_DISTINCT).collect();
    ranked.sort_by_key(|&u| mix(seed ^ 0x2A, u as u64));
    let mut weight = vec![0.0; HOT_DISTINCT];
    for (rank, &u) in ranked.iter().enumerate() {
        weight[u] = 1.0 / ((rank + 1) as f64).powf(HOT_SKEW);
    }
    let total: f64 = weight.iter().sum();
    let cdf = weight
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    b.finish(2, 1, wire, Stream::HotCache { distinct, cdf }, seed)
}

/// Light attributions sharded over two loopback daemons, two clients.
fn cluster(seed: u64, rec: Option<&Arc<Recorder>>) -> std::io::Result<Bench> {
    let data = xai::data::synth::german_credit(2100, mix(seed, 0xC1));
    let train = data.subset(&(0..2000).collect::<Vec<_>>());
    let background = data.subset(&(2000..2048).collect::<Vec<_>>());
    let sizing = Sizing {
        kernel_coalitions: 512,
        permutations: 24,
        lime_samples: 512,
    };
    let config = ServiceConfig {
        workers: 2,
        cache_capacity: 8,
        ..ServiceConfig::default()
    };
    let mut b = Assembly::new(&sizing, config, rec);
    b.model("credit_gbdt", gbdt(&train, 20), background.clone());
    b.model("credit_logit", logit(&train), background);
    let (daemons, addrs) = Daemons::spawn(2, rec.is_some())?;
    let backend = ClusterBackend::from_config(ClusterConfig::new(addrs))
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let runner = Arc::clone(backend.runner());
    let backend: Arc<dyn ExecutionBackend> = Arc::new(backend);
    b.service.set_backend(match rec {
        Some(rec) => TracedBackend::wrap(backend, rec),
        None => backend,
    });
    let stream = Stream::Cluster {
        instances: rows(&data, 2048..2100),
    };
    let mut bench = b.finish(2, 4, Vec::new(), stream, seed);
    bench.runner = Some(runner);
    bench.daemons = Some(daemons);
    Ok(bench)
}

/// Offline data-debugging jobs: LOO, capped TMC Shapley and capped data
/// Banzhaf over small training tables.
fn valuation(seed: u64, rec: Option<&Arc<Recorder>>) -> Bench {
    const WEIGHTS: [f64; 6] = [1.2, -0.9, 0.6, -0.4, 0.3, 0.0];
    let sizing = Sizing {
        kernel_coalitions: 128,
        permutations: 8,
        lime_samples: 128,
    };
    let config = ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    };
    let mut b = Assembly::new(&sizing, config, rec);
    for t in 0..TABLES {
        let rows = TABLE_ROWS_MIN + TABLE_ROWS_STEP * t as usize;
        let table = xai::data::synth::linear_gaussian(rows, &WEIGHTS, -0.3, mix(seed ^ 0x7A, t));
        b.model(&format!("table{t}"), logit(&table), table);
    }
    b.finish(2, 8, Vec::new(), Stream::Valuation, seed)
}

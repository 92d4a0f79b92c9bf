//! `servebench`: the seeded end-to-end benchmark of `ExplanationService`.
//!
//! ```text
//! servebench --workload <attribution|hot_cache|cluster|valuation> --seed <n>
//!            --seconds <s> --trace <0|1> [--out-dir <dir>]
//! servebench --listen <addr:port>        # shard daemon mode (cluster workload)
//! servebench --listen-timed <addr:port>  # the same, timing each shard (traced runs)
//! ```
//!
//! With `--trace 0` it sets the workload up several times (reporting the
//! median set-up time), then drives the last service with closed-loop
//! clients for `--seconds`, byte-checks the responses against direct
//! `Explainer::explain` calls, and prints the end-to-end metrics. With
//! `--trace 1` it runs the same workload untraced and then traced (every
//! layer wrapped, see `trace.rs`), writes the spans to `--out-dir`, and
//! prints the per-layer metrics. The last stdout line is the JSON result.
//! See README.md for the workload → layer → metric map.

mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use xai::serve::{ServeRequest, ServeResponse, ServeStats};
use xai::transport::ClusterStats;

use stats::{cpu_time, median, peak_rss_mb, quantile, ratio};
use trace::{link_roots, Recorder, Span};
use workloads::{Bench, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Throughput, CPU per request and p50 latency are medians over windows
/// of this length, so a burst of interference from outside moves one
/// window, not the run's figure.
const WINDOW: Duration = Duration::from_secs(1);
/// p99 latency is the median over up to this many consecutive slices of
/// the run, cut by completion time ...
const LATENCY_SLICES: usize = 20;
/// ... of at least this many requests each, so every slice's p99 has at
/// least ten samples beyond it. (A window's p50 needs only 20 requests
/// for that; every workload completes far more per second.)
const LATENCY_SLICE_MIN: usize = 1000;

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    let out_dir =
        get("--out-dir").map_or_else(|_| PathBuf::from("target/servebench"), PathBuf::from);
    Ok(Args {
        name,
        workload,
        seed,
        seconds,
        trace,
        out_dir,
    })
}

fn main() {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, addr] = argv.as_slice() {
        if flag == "--listen" {
            // The parent holds our stdin; end of input means it is gone.
            std::thread::spawn(|| {
                let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
                std::process::exit(0);
            });
            std::process::exit(xai::transport::run_daemon(addr));
        }
        if flag == "--listen-timed" {
            std::process::exit(trace::run_timed_daemon(addr));
        }
    }
    if let [flag, name, seed] = argv.as_slice() {
        if flag == "--setup-only" {
            let workload = Workload::parse(name).expect("parent passes a known workload");
            let seed = seed.parse().expect("parent passes a numeric seed");
            match Bench::setup(workload, seed, None) {
                Ok(bench) => {
                    println!("{}", process_start.elapsed().as_secs_f64());
                    drop(bench);
                    std::process::exit(0);
                }
                Err(e) => {
                    eprintln!("servebench: setup: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        traced_run(&args)
    } else {
        untraced_run(&args, process_start)
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}

// ---------------------------------------------------------------------------
// Timed phase
// ---------------------------------------------------------------------------

/// One served request as its client saw it, kept small: a run holds
/// hundreds of thousands and their memory shows in `peak_rss_mb`. A
/// latency above `u32::MAX` ns (4.29 s) saturates.
struct Record {
    latency_ns: u32,
    /// Completion time since the start of the timed phase, in µs.
    end_us: u32,
    /// Distinct-request id on JSON workloads, [`NOT_DISTINCT`] elsewhere.
    distinct: u32,
    ok: bool,
    cached: bool,
    degraded: bool,
}

const NOT_DISTINCT: u32 = u32::MAX;
/// Records reserved per client up front, so the log never reallocates
/// during the timed phase (untouched capacity is not resident).
const RECORDS_RESERVED: usize = 1 << 21;

impl Record {
    fn new(start: Instant, end: Instant, phase_start: Instant, distinct: u32) -> Record {
        let clamp =
            |d: Duration, unit_ns: u128| (d.as_nanos() / unit_ns).min(u32::MAX as u128) as u32;
        Record {
            latency_ns: clamp(end - start, 1),
            end_us: clamp(end - phase_start, 1000),
            distinct,
            ok: false,
            cached: false,
            degraded: false,
        }
    }
}

/// Everything one closed-loop phase produced.
struct Phase {
    records: Vec<Record>,
    wall: Duration,
    cpu: Duration,
    /// (time since phase start, CPU time so far) at each window boundary,
    /// starting with (0, 0).
    marks: Vec<(Duration, Duration)>,
    /// Peak RSS of the process when the timed phase ended, MiB.
    peak_rss_mb: f64,
    /// Responses found not byte-equal to a direct explain.
    wrong: u64,
    /// Responses compared byte for byte.
    checked: u64,
    /// (request, payload) of the checked responses.
    samples: Vec<(ServeRequest, String)>,
    serve: (ServeStats, ServeStats),
    cluster: (ClusterStats, ClusterStats),
    /// Daemon-side execution time of each shard the timed daemons ran,
    /// ns (traced `cluster` runs only).
    remote_ns: Vec<u64>,
}

impl Phase {
    fn completed(&self) -> usize {
        self.records.iter().filter(|r| r.ok).count()
    }

    /// Requests that errored, were rejected, came back degraded or
    /// returned wrong bytes.
    fn failed(&self) -> u64 {
        self.records.iter().filter(|r| !r.ok || r.degraded).count() as u64 + self.wrong
    }

    /// Whether the phase holds enough requests for its p99 to have at
    /// least ten samples beyond it.
    fn enough_requests(&self) -> bool {
        self.records.len() >= LATENCY_SLICE_MIN
    }

    fn throughput(&self) -> f64 {
        self.completed() as f64 / self.wall.as_secs_f64()
    }

    /// Per latency slice: (samples, p50 ms, p99 ms) of `submit` latency.
    /// Only the p99s are reported; the p50s are printed for comparison
    /// with the per-window ones.
    fn latency_slices(&self) -> Vec<(usize, f64, f64)> {
        let mut by_end: Vec<(u32, u32)> = self
            .records
            .iter()
            .map(|r| (r.end_us, r.latency_ns))
            .collect();
        by_end.sort_unstable();
        let n = by_end.len();
        let k = (n / LATENCY_SLICE_MIN).clamp(1, LATENCY_SLICES);
        (0..k)
            .map(|j| {
                let slice = &by_end[j * n / k..(j + 1) * n / k];
                let mut ms: Vec<f64> = slice.iter().map(|&(_, ns)| f64::from(ns) / 1e6).collect();
                (ms.len(), quantile(&mut ms, 0.5), quantile(&mut ms, 0.99))
            })
            .collect()
    }

    /// Per window: (completed requests per second, CPU ms per completed
    /// request, p50 ms of the `submit` latency of the requests that ended
    /// in it).
    fn windows(&self) -> Vec<(f64, f64, f64)> {
        self.marks
            .windows(2)
            .map(|w| {
                let (t0, t1) = (w[0].0.as_micros() as u32, w[1].0.as_micros() as u32);
                let ended = || {
                    self.records
                        .iter()
                        .filter(move |r| r.end_us > t0 && r.end_us <= t1)
                };
                let done = ended().filter(|r| r.ok).count() as f64;
                let mut ms: Vec<f64> = ended().map(|r| f64::from(r.latency_ns) / 1e6).collect();
                let secs = (w[1].0 - w[0].0).as_secs_f64();
                (
                    done / secs,
                    ratio((w[1].1 - w[0].1).as_secs_f64() * 1e3, done),
                    median(&mut ms),
                )
            })
            .collect()
    }
}

fn cpu_total(pids: &[String]) -> Duration {
    let own = cpu_time("self").unwrap_or_default();
    own + pids.iter().filter_map(|p| cpu_time(p)).sum::<Duration>()
}

/// The canonical explanation bytes inside a `submit_json` envelope (its
/// last field).
fn envelope_payload(envelope: &str) -> &str {
    const KEY: &str = "\"explanation\":";
    match envelope.rfind(KEY) {
        Some(i) => &envelope[i + KEY.len()..envelope.len().saturating_sub(1)],
        None => "",
    }
}

struct ClientOut {
    records: Vec<Record>,
    samples: Vec<(u64, String)>,
    wrong: u64,
}

/// Closed loop: take the next stream index, submit, record, repeat until
/// the deadline.
fn client(
    bench: &Bench,
    next: &AtomicU64,
    phase_start: Instant,
    deadline: Instant,
    rec: Option<&Recorder>,
    first: &[OnceLock<String>],
) -> ClientOut {
    let mut out = ClientOut {
        records: Vec::with_capacity(RECORDS_RESERVED),
        samples: Vec::new(),
        wrong: 0,
    };
    while Instant::now() < deadline {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if let Some(u) = bench.distinct(i) {
            let text = bench.wire[u].as_str();
            let key = bench.distinct_request(u).plan.seed;
            let start = Instant::now();
            let result = match rec {
                Some(r) => r.span(
                    "serve.submit",
                    key,
                    || bench.service.submit_json(text),
                    Result::is_ok,
                ),
                None => bench.service.submit_json(text),
            };
            let mut record = Record::new(start, Instant::now(), phase_start, u as u32);
            (record.ok, record.cached) = match &result {
                Ok(envelope) => {
                    // Every repeat must equal the first response; the
                    // first is checked against a direct explain later.
                    let payload = envelope_payload(envelope);
                    if first[u].get_or_init(|| payload.to_string()) != payload {
                        out.wrong += 1;
                    }
                    (true, envelope.contains("\"cached\":true"))
                }
                Err(_) => (false, false),
            };
            out.records.push(record);
        } else {
            let request = bench.item(i);
            let key = request.plan.seed;
            let start = Instant::now();
            let result = match rec {
                Some(r) => r.span(
                    "serve.submit",
                    key,
                    || bench.service.submit(&request),
                    Result::is_ok,
                ),
                None => bench.service.submit(&request),
            };
            let mut record = Record::new(start, Instant::now(), phase_start, NOT_DISTINCT);
            if let Ok(response) = result {
                (record.ok, record.cached, record.degraded) =
                    (true, response.cached, response.degraded);
                if bench.checked(i) {
                    out.samples.push((i, response.payload));
                }
            }
            out.records.push(record);
        }
    }
    out
}

fn timed_phase(bench: &Bench, seconds: f64, rec: Option<&Recorder>) -> Result<Phase, String> {
    let pids = bench.daemons.as_ref().map(|d| d.pids()).unwrap_or_default();
    let remote_ns = || match &bench.daemons {
        Some(d) => d
            .take_exec_ns()
            .map_err(|e| format!("reading daemon times: {e}")),
        None => Ok(Vec::new()),
    };
    remote_ns()?; // set-up and warm-up shards are not part of the run
    let cluster_stats = || bench.runner.as_ref().map(|r| r.stats()).unwrap_or_default();
    let first: Vec<OnceLock<String>> = (0..bench.wire.len()).map(|_| OnceLock::new()).collect();
    let next = AtomicU64::new(0);
    let serve0 = bench.service.stats();
    let cluster0 = cluster_stats();
    let cpu0 = cpu_total(&pids);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut marks = vec![(Duration::ZERO, Duration::ZERO)];
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..bench.clients)
            .map(|_| s.spawn(|| client(bench, &next, start, deadline, rec, &first)))
            .collect();
        // Sample CPU time at every whole window while the clients run.
        let mut boundary = start + WINDOW;
        while boundary <= deadline {
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            marks.push((start.elapsed(), cpu_total(&pids).saturating_sub(cpu0)));
            boundary += WINDOW;
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let cpu = cpu_total(&pids).saturating_sub(cpu0);
    let peak_rss_mb = peak_rss_mb();
    let serve = (serve0, bench.service.stats());
    let cluster = (cluster0, cluster_stats());
    let remote_ns = remote_ns()?;

    let mut records = Vec::with_capacity(outs.iter().map(|o| o.records.len()).sum());
    let mut to_check: Vec<(ServeRequest, String)> = Vec::new();
    let mut wrong = 0;
    for out in outs {
        records.extend(out.records);
        wrong += out.wrong;
        to_check.extend(
            out.samples
                .into_iter()
                .map(|(i, payload)| (bench.item(i), payload)),
        );
    }
    let mut first_wrong = vec![false; first.len()];
    let distinct_checks: Vec<(usize, ServeRequest, String)> = first
        .into_iter()
        .enumerate()
        .filter_map(|(u, cell)| {
            cell.into_inner()
                .map(|p| (u, bench.distinct_request(u).clone(), p))
        })
        .collect();
    // Byte-check against direct explains, split over two threads.
    let all: Vec<(&ServeRequest, &str)> = to_check
        .iter()
        .map(|(r, p)| (r, p.as_str()))
        .chain(distinct_checks.iter().map(|(_, r, p)| (r, p.as_str())))
        .collect();
    let verdicts: Vec<bool> = std::thread::scope(|s| {
        let handles: Vec<_> = all
            .chunks(all.len().div_ceil(2).max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|(r, p)| bench.reference.expected(r).is_ok_and(|e| e == *p))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    drop(all);
    let (sample_verdicts, distinct_verdicts) = verdicts.split_at(to_check.len());
    wrong += sample_verdicts.iter().filter(|ok| !**ok).count() as u64;
    for ((u, _, _), ok) in distinct_checks.iter().zip(distinct_verdicts) {
        first_wrong[*u] = !ok;
    }
    // A wrong first response makes every response to that request wrong.
    let distinct = |r: &Record| r.ok && r.distinct != NOT_DISTINCT;
    wrong += records
        .iter()
        .filter(|r| distinct(r) && first_wrong[r.distinct as usize])
        .count() as u64;
    let checked = to_check.len() as u64 + records.iter().filter(|r| distinct(r)).count() as u64;
    let mut samples = to_check;
    samples.extend(distinct_checks.into_iter().map(|(_, r, p)| (r, p)));
    Ok(Phase {
        records,
        wall,
        cpu,
        marks,
        peak_rss_mb,
        wrong,
        checked,
        samples,
        serve,
        cluster,
        remote_ns,
    })
}

// ---------------------------------------------------------------------------
// Runs and metrics
// ---------------------------------------------------------------------------

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn report_phase(name: &str, label: &str, phase: &Phase) {
    let n = phase.records.len();
    let fewest = phase
        .latency_slices()
        .iter()
        .map(|w| w.0)
        .min()
        .unwrap_or(0);
    eprintln!(
        "servebench: {name} {label}: {n} requests in {:.2} s ({:.1}/s, {:.3} CPU ms each over the whole \
         phase), {} checked byte for byte, {} wrong, {} failed; the smallest latency slice holds \
         {fewest} samples, so its p99 has {} beyond it",
        phase.wall.as_secs_f64(),
        phase.throughput(),
        ratio(phase.cpu.as_secs_f64() * 1e3, phase.completed() as f64),
        phase.checked,
        phase.wrong,
        phase.failed(),
        fewest - (0.99 * fewest as f64).ceil() as usize
    );
    let windows: Vec<String> = phase
        .windows()
        .iter()
        .map(|(rps, cpu, p50)| format!("{rps:.0}/s@{cpu:.2}ms,p50={p50:.3}ms"))
        .collect();
    eprintln!("servebench: {name} {label} windows: {}", windows.join(" "));
    let slices: Vec<String> = phase
        .latency_slices()
        .iter()
        .map(|(n, p50, p99)| format!("{n}@{p50:.3}/{p99:.3}ms"))
        .collect();
    eprintln!(
        "servebench: {name} {label} latency slices (p50/p99): {}",
        slices.join(" ")
    );
    if !phase.enough_requests() {
        eprintln!(
            "servebench: {name} {label}: fewer than {LATENCY_SLICE_MIN} requests, so the \
             result is marked incorrect"
        );
    }
}

fn untraced_run(args: &Args, process_start: Instant) -> Result<String, String> {
    let bench = Bench::setup(args.workload, args.seed, None).map_err(|e| format!("setup: {e}"))?;
    let mut setups = vec![process_start.elapsed().as_secs_f64()];
    // The other set-ups run in fresh processes, so this one's memory (and
    // with it `peak_rss_mb`) holds exactly one set-up.
    for _ in 1..SETUP_REPS {
        setups.push(child_setup(args)?);
    }
    let phase = timed_phase(&bench, args.seconds, None)?;
    report_phase(&args.name, "untraced", &phase);
    let attempted = phase.records.len() as u64;
    let failed = phase.failed();
    let windows = phase.windows();
    let mut rps: Vec<f64> = windows.iter().map(|w| w.0).collect();
    let mut cpu_ms: Vec<f64> = windows.iter().map(|w| w.1).collect();
    let mut p50: Vec<f64> = windows.iter().map(|w| w.2).collect();
    let mut p99: Vec<f64> = phase.latency_slices().iter().map(|s| s.2).collect();
    let metrics = [
        metric("setup_s", median(&mut setups), "s"),
        metric("throughput_rps", median(&mut rps), "1/s"),
        metric("latency_p50_ms", median(&mut p50), "ms"),
        metric("latency_p99_ms", median(&mut p99), "ms"),
        metric(
            "success_ratio",
            ratio((attempted - failed.min(attempted)) as f64, attempted as f64),
            "ratio",
        ),
        metric("cpu_ms_per_req", median(&mut cpu_ms), "ms"),
        metric("peak_rss_mb", phase.peak_rss_mb, "MiB"),
    ];
    drop(bench);
    Ok(result_line(
        failed == 0 && phase.enough_requests(),
        attempted,
        failed,
        &metrics,
    ))
}

/// Runs one set-up in a child process (`--setup-only`) and returns its
/// set-up time, measured from the child's own start.
fn child_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--setup-only", &args.name, &args.seed.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(secs) if out.status.success() => Ok(secs),
        _ => Err(format!(
            "set-up child failed ({}): '{}'",
            out.status,
            text.trim()
        )),
    }
}

fn traced_run(args: &Args) -> Result<String, String> {
    let setup =
        |rec| Bench::setup(args.workload, args.seed, rec).map_err(|e| format!("setup: {e}"));
    let untraced = {
        let bench = setup(None)?;
        let phase = timed_phase(&bench, args.seconds, None)?;
        report_phase(&args.name, "untraced", &phase);
        phase
    };
    let rec = Recorder::new();
    let bench = setup(Some(&rec))?;
    rec.take_spans(); // set-up and warm-up spans are not part of the run
    let models0 = rec.models.snapshot();
    let phase = timed_phase(&bench, args.seconds, Some(&rec))?;
    let models = rec.models.snapshot().since(&models0);
    report_phase(&args.name, "traced", &phase);
    let mut spans = rec.take_spans();
    link_roots(&mut spans);
    let path = args
        .out_dir
        .join(format!("spans-{}-{}.jsonl", args.name, args.seed));
    trace::write_spans(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "servebench: {} spans written to {}",
        spans.len(),
        path.display()
    );

    let mut metrics = layer_metrics(&bench, &phase, &spans, &models);
    metrics.push(metric(
        "trace.overhead_ratio",
        ratio(phase.throughput(), untraced.throughput()),
        "ratio",
    ));
    let attempted = (untraced.records.len() + phase.records.len()) as u64;
    let failed = untraced.failed() + phase.failed();
    drop(bench);
    Ok(result_line(
        failed == 0 && untraced.enough_requests() && phase.enough_requests(),
        attempted,
        failed,
        &metrics,
    ))
}

/// Median (or quantile `q`) of `f` over the spans named `name`.
fn span_stat(spans: &[Span], name: &str, q: f64, f: impl Fn(&Span) -> u64) -> f64 {
    let mut v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| f(s) as f64)
        .collect();
    quantile(&mut v, q)
}

fn layer_metrics(
    bench: &Bench,
    phase: &Phase,
    spans: &[Span],
    models: &trace::ModelTotals,
) -> Vec<Metric> {
    let (s0, s1) = phase.serve;
    let (c0, c1) = phase.cluster;
    let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
    let mut m = Vec::new();

    // serve: hit path, miss overhead, queue wait, cache, admission.
    let mut hit_us: Vec<f64> = phase
        .records
        .iter()
        .filter(|r| r.cached)
        .map(|r| f64::from(r.latency_ns) / 1e3)
        .collect();
    let by_id: std::collections::HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let roots: Vec<(&Span, &Span)> = spans
        .iter()
        .filter(|s| s.name.starts_with("explainer.") || s.name == "backend.execute")
        .filter_map(|s| {
            by_id
                .get(&s.parent)
                .filter(|p| p.name == "serve.submit")
                .map(|p| (s, *p))
        })
        .collect();
    let mut overhead_us: Vec<f64> = roots
        .iter()
        .map(|(s, p)| p.duration_ns().saturating_sub(s.duration_ns()) as f64 / 1e3)
        .collect();
    let mut wait_ms: Vec<f64> = roots
        .iter()
        .map(|(s, p)| s.start_ns.saturating_sub(p.start_ns) as f64 / 1e6)
        .collect();
    let (parse_us, encode_us) = wire_timings(bench, phase);
    m.push(metric(
        "serve.hit_latency_us_p50",
        median(&mut hit_us),
        "us",
    ));
    m.push(metric(
        "serve.overhead_us_p50",
        median(&mut overhead_us),
        "us",
    ));
    m.push(metric("serve.request_parse_us_p50", parse_us, "us"));
    m.push(metric("serve.response_encode_us_p50", encode_us, "us"));
    m.push(metric(
        "serve.queue_wait_ms_p50",
        quantile(&mut wait_ms, 0.5),
        "ms",
    ));
    m.push(metric(
        "serve.queue_wait_ms_p99",
        quantile(&mut wait_ms, 0.99),
        "ms",
    ));
    let (hits, misses) = (
        d(s0.cache_hits, s1.cache_hits),
        d(s0.cache_misses, s1.cache_misses),
    );
    m.push(metric(
        "serve.cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    ));
    m.push(metric(
        "serve.cache_evictions",
        d(s0.cache_evictions, s1.cache_evictions),
        "count",
    ));
    m.push(metric(
        "serve.rejected",
        d(s0.rejected, s1.rejected),
        "count",
    ));

    // memo: the cross-request coalition memo.
    let (mh, mm) = (
        d(s0.memo_hits, s1.memo_hits),
        d(s0.memo_misses, s1.memo_misses),
    );
    m.push(metric("memo.lookups", mh + mm, "count"));
    m.push(metric("memo.hit_ratio", ratio(mh, mh + mm), "ratio"));
    m.push(metric(
        "memo.evictions",
        d(s0.memo_evictions, s1.memo_evictions),
        "count",
    ));

    // explainer: the method crates behind Explainer::explain.
    let explains: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name.starts_with("explainer."))
        .collect();
    let busy_ns: u64 = explains.iter().map(|s| s.duration_ns()).sum();
    m.push(metric("explainer.busy_ms", busy_ns as f64 / 1e6, "ms"));
    m.push(metric(
        "explainer.failed",
        explains.iter().filter(|s| !s.ok).count() as f64,
        "count",
    ));
    for method in [
        "kernel_shap",
        "permutation",
        "lime",
        "treeshap",
        "pdp",
        "loo",
        "tmc",
        "banzhaf",
    ] {
        let name = format!("explainer.{method}");
        let self_ms = span_stat(spans, &name, 0.5, Span::self_ns) / 1e6;
        m.push(metric(format!("{name}.self_ms_p50"), self_ms, "ms"));
    }

    // models: ModelOracle entry points.
    m.push(metric(
        "models.scalar_calls",
        models.scalar_calls as f64,
        "count",
    ));
    m.push(metric(
        "models.batch_calls",
        models.batch_calls as f64,
        "count",
    ));
    m.push(metric(
        "models.batch_rows",
        models.batch_rows as f64,
        "count",
    ));
    m.push(metric(
        "models.masked_calls",
        models.masked_calls as f64,
        "count",
    ));
    m.push(metric(
        "models.masked_rows",
        models.masked_rows as f64,
        "count",
    ));
    let model_ns = models.scalar_ns + models.batch_ns + models.masked_ns;
    m.push(metric("models.busy_ms", model_ns as f64 / 1e6, "ms"));
    m.push(metric(
        "models.batch_ns_per_row",
        ratio(models.batch_ns as f64, models.batch_rows as f64),
        "ns",
    ));
    m.push(metric(
        "models.masked_ns_per_row",
        ratio(models.masked_ns as f64, models.masked_rows as f64),
        "ns",
    ));

    // backend: ExecutionBackend::execute on the coordinator.
    m.push(metric(
        "backend.execute_ms_p50",
        span_stat(spans, "backend.execute", 0.5, Span::duration_ns) / 1e6,
        "ms",
    ));
    m.push(metric(
        "backend.execute_ms_p99",
        span_stat(spans, "backend.execute", 0.99, Span::duration_ns) / 1e6,
        "ms",
    ));
    let (sh, sm) = (
        d(c0.shard_cache_hits, c1.shard_cache_hits),
        d(c0.shard_cache_misses, c1.shard_cache_misses),
    );
    m.push(metric(
        "backend.shard_cache_hit_ratio",
        ratio(sh, sh + sm),
        "ratio",
    ));
    m.push(metric(
        "backend.degraded",
        d(s0.degraded, s1.degraded),
        "count",
    ));

    // shard: coordinator-side plan/merge spans plus direct descriptor timings.
    let desc = descriptor_timings(bench, phase);
    m.push(metric(
        "shard.draw_grid_us_p50",
        span_stat(spans, "shard.draw_grid", 0.5, Span::duration_ns) / 1e3,
        "us",
    ));
    m.push(metric(
        "shard.merge_us_p50",
        span_stat(spans, "shard.merge", 0.5, Span::duration_ns) / 1e3,
        "us",
    ));
    m.push(metric(
        "shard.build_descriptors_us_p50",
        desc.build_us,
        "us",
    ));
    m.push(metric("shard.descriptor_bytes_p50", desc.bytes, "bytes"));
    m.push(metric(
        "shard.descriptor_encode_us_p50",
        desc.encode_us,
        "us",
    ));
    m.push(metric("shard.descriptor_parse_us_p50", desc.parse_us, "us"));

    // transport: ClusterStats deltas and the daemons' own shard times.
    m.push(metric(
        "transport.attempts",
        d(c0.attempts, c1.attempts),
        "count",
    ));
    m.push(metric(
        "transport.retries",
        d(c0.retries, c1.retries),
        "count",
    ));
    m.push(metric("transport.hedges", d(c0.hedges, c1.hedges), "count"));
    m.push(metric(
        "transport.hedge_wins",
        d(c0.hedge_wins, c1.hedge_wins),
        "count",
    ));
    m.push(metric(
        "transport.failures",
        d(c0.transport_failures, c1.transport_failures),
        "count",
    ));
    let opened = d(c0.connections_opened, c1.connections_opened);
    let reused = d(c0.sessions_reused, c1.sessions_reused);
    m.push(metric("transport.connections_opened", opened, "count"));
    m.push(metric(
        "transport.session_reuse_ratio",
        ratio(reused, reused + opened),
        "ratio",
    ));
    let mut remote_ms: Vec<f64> = phase.remote_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    m.push(metric(
        "transport.remote_ms_p50",
        median(&mut remote_ms),
        "ms",
    ));
    m
}

/// p50 of `ServeRequest::from_json_str` over the workload's wire texts
/// and of `ServeResponse::to_json_string` over its checked responses, µs.
fn wire_timings(bench: &Bench, phase: &Phase) -> (f64, f64) {
    let texts: Vec<String> = if bench.wire.is_empty() {
        (0..1024).map(|i| bench.item(i).to_json_string()).collect()
    } else {
        bench.wire.clone()
    };
    let mut parse_us = Vec::new();
    for _ in 0..(2048 / texts.len()).max(1) {
        for text in &texts {
            let start = Instant::now();
            let parsed = std::hint::black_box(ServeRequest::from_json_str(text));
            parse_us.push(start.elapsed().as_nanos() as f64 / 1e3);
            assert!(parsed.is_ok(), "generated wire texts parse");
        }
    }
    let mut encode_us = Vec::new();
    for (request, payload) in phase.samples.iter().take(2048) {
        let response = ServeResponse {
            method: request.method.clone(),
            model: request.model.clone(),
            fingerprint: bench.service.model_fingerprint(&request.model).unwrap_or(0),
            cached: false,
            degraded: false,
            payload: payload.clone(),
        };
        let start = Instant::now();
        std::hint::black_box(response.to_json_string());
        encode_us.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    (median(&mut parse_us), median(&mut encode_us))
}

#[derive(Default)]
struct DescriptorTimings {
    build_us: f64,
    bytes: f64,
    encode_us: f64,
    parse_us: f64,
}

/// Descriptor build/encode/parse timings and sizes over the checked
/// cluster jobs (zeros on workloads without a cluster backend).
fn descriptor_timings(bench: &Bench, phase: &Phase) -> DescriptorTimings {
    if bench.runner.is_none() {
        return DescriptorTimings::default();
    }
    let (mut build, mut bytes, mut encode, mut parse) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (request, _) in phase.samples.iter().take(256) {
        let Ok((build_ns, wire)) = bench.reference.descriptor_timings(request) else {
            continue;
        };
        build.push(build_ns as f64 / 1e3);
        for (len, encode_ns, parse_ns) in wire {
            bytes.push(len as f64);
            encode.push(encode_ns as f64 / 1e3);
            parse.push(parse_ns as f64 / 1e3);
        }
    }
    DescriptorTimings {
        build_us: median(&mut build),
        bytes: median(&mut bytes),
        encode_us: median(&mut encode),
        parse_us: median(&mut parse),
    }
}

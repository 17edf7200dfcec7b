//! `perfbench` — wall-clock benchmark of the CloudTalk answer path.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload storm_unique --seed 1 --seconds 10 --trace 0
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml   # self-tests
//! ```
//!
//! Replays seeded tenant traffic against `cloudtalk::serving::ServingPlane`
//! and prints every metric by name and unit, then one JSON line: with
//! `--trace 0` the end-to-end metrics of `BENCHMARK.json`, measured with
//! tracing off and scaled to a reference host speed (see [`host`]); with
//! `--trace 1` the per-layer metrics, from a run that
//! records a span around every call into the program (written to
//! `perfbench/spans/<workload>.json`), adds the cache and telemetry A/B
//! arms, and times each layer's public functions directly.
//!
//! Every answer is checked against an untimed one-worker, cache-off,
//! telemetry-off replay of the same schedule; a mismatch, a ledger
//! conflict or a stale cache hit makes the run report `"correct": false`
//! and exit with status 1.

mod drive;
mod host;
mod spans;
mod stats;
mod workloads;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::Command;
use std::time::{Duration, Instant};

use cloudtalk::server::Backend;
use desim::SimDuration;

use drive::{Answered, Fingerprint, Key, Outcome, Plane, Tracer, Variant};
use stats::{fit_line, mean, median, percentile, Fnv};
use workloads::{Input, Workload};

/// The end-to-end metrics `BENCHMARK.json` gates, in its order, each
/// scaled to the reference host speed (see [`host`]). The run also prints
/// their wall-clock values (`*_wall`), `latency_p90_ms`, `latency_p99_ms`
/// (storms), `slo_miss_frac` and `failed_frac`, which are not gated: the
/// packet workload's p90 rests on a few dozen paced queries, and the two
/// fractions are 0 on some workloads, so none of them has a steady
/// median on every workload.
const END_TO_END: [&str; 3] = ["throughput_qps", "latency_p50_ms", "setup_s"];

/// The per-layer metrics of the traced run, in `BENCHMARK.json` order.
/// A layer a workload never reaches reports 0.
const PER_LAYER: [&str; 51] = [
    "lang.parse_us_p50",
    "lang.busy_frac",
    "serving.busy_frac",
    "serving.wave_us_p50",
    "serving.wave_us_p99",
    "serving.submit_ns_p50",
    "serving.queries_per_wave",
    "serving.batch_wait_ms_p50",
    "serving.service_ms_p50",
    "serving.refused",
    "serving.shed_waves",
    "serving.wave_fixed_us",
    "serving.wave_per_query_us",
    "serving.ledger_publishes",
    "serving.ledger_collisions",
    "serving.ledger_conflicts",
    "qcache.hit_ratio",
    "qcache.l1_hits",
    "qcache.l2_hits",
    "qcache.misses",
    "qcache.l2_entries_max",
    "qcache.stale_hits",
    "qcache.saved_us_per_query",
    "status.gather_us_p50",
    "status.refreshes",
    "status.bytes_per_query",
    "status.gather_rounds_mean",
    "heuristic.eval_us_p50",
    "heuristic.busy_frac",
    "exhaustive.search_us_p50",
    "exhaustive.search_us_p90",
    "exhaustive.prune_ratio",
    "exhaustive.enumerated_mean",
    "exhaustive.no_feasible",
    "exhaustive.busy_frac",
    "estimator.delta_reuse_ratio",
    "pktsearch.search_ms_p50",
    "pktsearch.memo_hit_ratio",
    "pktsearch.abort_ratio",
    "pktsearch.sims_mean",
    "pktsearch.busy_frac",
    "obs.cost_us_per_query",
    "obs.sampled_traces",
    "obs.windows",
    "obs.ring_dropped",
    "bench.gen_late_ms_max",
    "bench.trace_overhead_frac",
    "bench.nproc",
    "bench.workers",
    "bench.answered",
    "bench.wall_s",
];

/// `setup_s` is the median, over one batch per saturated replay, of the
/// mean set-up time of this many back-to-back builds: a single build of
/// the smaller planes takes well under a millisecond, too little to time
/// steadily on its own, and spreading the batches over the run keeps a
/// short burst of host load from deciding the figure.
const SETUP_BUILDS: usize = 16;

/// Mean set-up time of [`SETUP_BUILDS`] back-to-back plane builds, seconds.
fn setup_batch(input: &Input, variant: Variant) -> f64 {
    (0..SETUP_BUILDS)
        .map(|_| drive::build(input, variant).1)
        .sum::<f64>()
        / SETUP_BUILDS as f64
}

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported number.
#[derive(Clone, Debug)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Everything a run reports.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    #[cfg(test)]
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Checks a pass against the oracle and the plane's invariants,
    /// recording any problem; returns the answers that differ.
    fn check(
        &mut self,
        what: &str,
        o: &Outcome,
        oracle: &HashMap<Key, Fingerprint>,
        plane: &Plane,
    ) -> u64 {
        let mismatched = drive::mismatches(&o.answers, oracle);
        let unanswered = o.attempted - o.refused - o.bad_text - o.answers.len() as u64;
        if mismatched > 0 {
            self.problems.push(format!(
                "{what}: {mismatched} answers differ from the reference replay"
            ));
        }
        if unanswered > 0 {
            self.problems.push(format!(
                "{what}: {unanswered} accepted queries never answered"
            ));
        }
        let conflicts = plane.ledger_stats().conflicts;
        if conflicts > 0 {
            self.problems
                .push(format!("{what}: {conflicts} reservation-ledger conflicts"));
        }
        let stale = plane.cache_stats().stale_hits;
        if stale > 0 {
            self.problems
                .push(format!("{what}: {stale} stale cache hits"));
        }
        mismatched
    }

    /// [`Report::check`]s a measured pass and counts it into
    /// `attempted` and `failed` (refused, unparsable, errored, or
    /// different from the oracle's answer).
    fn absorb(
        &mut self,
        what: &str,
        o: &Outcome,
        oracle: &HashMap<Key, Fingerprint>,
        plane: &Plane,
    ) {
        let mismatched = self.check(what, o, oracle, plane);
        self.attempted += o.attempted;
        self.failed += o.refused + o.bad_text + o.errored() + mismatched;
    }
}

/// The oracle's answers for both schedules.
struct Oracle {
    replay: HashMap<Key, Fingerprint>,
    paced: HashMap<Key, Fingerprint>,
}

fn oracle(input: &Input) -> Oracle {
    Oracle {
        replay: drive::reference(input, &input.replay),
        paced: drive::reference(input, &input.paced),
    }
}

/// Run-size settings derived from `--seconds`.
struct Plan {
    /// Wall budget of the saturated replays.
    replay_budget: Duration,
    /// Fewest saturated replays per arm.
    min_reps: usize,
    /// Virtual (and wall) length of the paced schedule.
    paced_window: SimDuration,
    /// Wall budget of the A/B arms (traced run).
    arms_budget: Duration,
    /// Wall budget of the layer pass (traced run).
    layer_budget: Duration,
    /// Virtual length of one replay schedule.
    replay_window: SimDuration,
}

impl Plan {
    fn new(w: Workload, seconds: f64, trace: bool) -> Self {
        let (replay, paced) = if trace { (0.35, 0.3) } else { (0.4, 0.5) };
        Plan {
            replay_budget: Duration::from_secs_f64(seconds * replay),
            min_reps: 3,
            paced_window: SimDuration::from_secs_f64(seconds * paced),
            arms_budget: Duration::from_secs_f64(seconds * 0.25),
            layer_budget: Duration::from_secs_f64(seconds * 0.15),
            replay_window: w.replay_window(),
        }
    }
}

fn workers() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (nproc, nproc.min(2))
}

/// The `--trace 0` run: saturated replays, then the paced open loop.
fn measure(w: Workload, input: &Input, plan: &Plan, report: &mut Report) {
    let (_, workers) = workers();
    let variant = Variant::measured(w, workers);
    let oracle = oracle(input);
    let mut thr = Vec::new();
    let mut thr_ref = Vec::new();
    let mut setup_s = Vec::new();
    let mut digest = Fnv::new();
    let started = Instant::now();
    let mut reference_s = Vec::new();
    while thr.len() < plan.min_reps || started.elapsed() < plan.replay_budget {
        setup_s.push(setup_batch(input, variant));
        let before = host::reference_batch(workers);
        let (mut plane, _) = drive::build(input, variant);
        let o = drive::replay(&mut plane, &input.replay, None);
        let after = host::reference_batch(workers);
        reference_s.extend([before, after]);
        thr.push(o.throughput());
        // Each replay is scaled by the host speed measured around it: the
        // host's speed drifts within a run too.
        thr_ref.push(o.throughput() * (before + after) / 2.0 / host::NOMINAL_S);
        report.absorb("replay", &o, &oracle.replay, &plane);
        if thr.len() == 1 {
            drive::digest_answers(&mut digest, &o.answers);
        }
    }

    let (mut plane, _) = drive::build(input, variant);
    let p = drive::paced(&mut plane, &input.paced, w.slo_ms(), None);
    report.absorb("paced", &p.outcome, &oracle.paced, &plane);
    drive::digest_answers(&mut digest, &p.outcome.answers);
    drop(plane);

    let o = &p.outcome;
    let paced_failed = o.refused + o.bad_text;
    let slo_miss = (p.over_limit + paced_failed) as f64 / o.attempted.max(1) as f64;
    // Host time scales with the host's speed; the wait for a wave to
    // close is set by the schedule and does not. Where the paced loop had
    // idle time, latency is scaled by the speed measured in it.
    let speed = host::NOMINAL_S / median(&reference_s);
    let paced_speed = if p.reference_s.is_empty() {
        speed
    } else {
        host::NOMINAL_S / median(&p.reference_s)
    };
    let latency_ref: Vec<f64> = p
        .latency_ms
        .iter()
        .zip(&p.to_close_ms)
        .map(|(&l, &c)| c + (l - c).max(0.0) * paced_speed)
        .collect();
    report.put("throughput_qps", median(&thr_ref), "q/s");
    report.put("latency_p50_ms", percentile(&latency_ref, 50.0), "ms");
    report.put("setup_s", median(&setup_s) * speed, "s");
    report.put("throughput_qps_wall", median(&thr), "q/s");
    report.put("latency_p50_ms_wall", percentile(&p.latency_ms, 50.0), "ms");
    report.put("setup_s_wall", median(&setup_s), "s");
    report.put("host_reference_us", median(&reference_s) * 1e6, "us");
    report.put("host_speed", speed, "ratio");
    report.put("host_speed_paced", paced_speed, "ratio");
    report.put("latency_p90_ms", percentile(&p.latency_ms, 90.0), "ms");
    if w.is_storm() {
        report.put("latency_p99_ms", percentile(&p.latency_ms, 99.0), "ms");
    }
    report.put("slo_miss_frac", slo_miss, "ratio");
    report.put(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    report.notes.push(format!(
        "replays={} throughput_qps={:.1?} paced_answered={} paced_reference_batches={} \
         gen_late_ms[p50,max]=[{:.3},{:.3}] slo_ms={} setup_s={:.6?}",
        thr.len(),
        thr,
        o.answers.len(),
        p.reference_s.len(),
        percentile(&p.late_ms, 50.0),
        percentile(&p.late_ms, 100.0),
        w.slo_ms(),
        setup_s,
    ));
    report
        .notes
        .push(format!("answer_digest={:016x}", digest.finish()));
}

/// Search time the plane hid inside `run_until`, estimated from the
/// layer pass. Each searched answer (not replayed from the cache) costs
/// what the layer pass measured for the same query on its backend; a
/// wave's search time is its busiest worker's, since the wave returns
/// when that worker does.
/// Returns the per-wave critical search time, and its split over the
/// heuristic, exhaustive and packet-level backends, in seconds.
fn search_estimate(
    w: Workload,
    answers: &[Answered],
    layer: &drive::LayerTimes,
) -> (HashMap<u64, f64>, [f64; 3]) {
    // Per-query layer times, seconds; queries the layer pass did not
    // reach cost their backend's mean.
    let timed: [HashMap<Key, f64>; 3] = [
        layer
            .heuristic_us
            .iter()
            .map(|&(k, us)| (k, us / 1e6))
            .collect(),
        layer
            .exhaustive_us
            .iter()
            .map(|&(k, us)| (k, us / 1e6))
            .collect(),
        layer.pkt_ms.iter().map(|&(k, ms)| (k, ms / 1e3)).collect(),
    ];
    let fallback = timed
        .clone()
        .map(|t| mean(&t.into_values().collect::<Vec<_>>()));
    let mut per_worker: HashMap<(u64, usize), [f64; 3]> = HashMap::new();
    for a in answers {
        let backend = match &a.result {
            Ok(x) if x.provenance.cache_hit => continue,
            Ok(x) => match x.provenance.backend {
                Backend::Heuristic => 0,
                Backend::Exhaustive => 1,
                Backend::PacketLevel => 2,
            },
            // A failed search still searched, on the configured backend.
            Err(_) => match w {
                Workload::SearchExhaustive => 1,
                Workload::SearchPacket => 2,
                _ => 0,
            },
        };
        let cost = timed[backend]
            .get(&a.key)
            .copied()
            .unwrap_or(fallback[backend]);
        per_worker.entry((a.wave, a.worker)).or_default()[backend] += cost;
    }
    let mut busiest: HashMap<u64, [f64; 3]> = HashMap::new();
    for ((wave, _), t) in per_worker {
        let b = busiest.entry(wave).or_default();
        if t.iter().sum::<f64>() > b.iter().sum::<f64>() {
            *b = t;
        }
    }
    let mut split = [0.0; 3];
    for t in busiest.values() {
        for (s, x) in split.iter_mut().zip(t) {
            *s += x;
        }
    }
    let critical = busiest
        .into_iter()
        .map(|(w, t)| (w, t.iter().sum()))
        .collect();
    (critical, split)
}

/// The `--trace 1` run: interleaved untraced and traced replays, a traced
/// paced loop, the A/B arms, and the layer pass.
fn trace(w: Workload, input: &Input, plan: &Plan, report: &mut Report) {
    let (nproc, workers) = workers();
    let variant = Variant::measured(w, workers);
    let oracle = oracle(input);

    // Interleaved untraced/traced replays; the first traced replay's
    // tracer is kept for the per-layer numbers.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut kept: Option<(Tracer, Outcome, Plane)> = None;
    let started = Instant::now();
    let mut round = 0usize;
    while round < 2 || started.elapsed() < plan.replay_budget {
        let traced_first = round % 2 == 1;
        for with_trace in [traced_first, !traced_first] {
            let (mut plane, _) = drive::build(input, variant);
            if with_trace {
                let mut tr = Tracer::new();
                let o = drive::replay(&mut plane, &input.replay, Some(&mut tr));
                traced.push(o.throughput());
                report.absorb("traced replay", &o, &oracle.replay, &plane);
                if kept.is_none() {
                    kept = Some((tr, o, plane));
                }
            } else {
                let o = drive::replay(&mut plane, &input.replay, None);
                untraced.push(o.throughput());
                report.absorb("replay", &o, &oracle.replay, &plane);
            }
        }
        round += 1;
    }
    let (mut tr, o, plane) = kept.expect("at least one traced replay");
    // The replay's per-wave detail; the paced loop below adds its own.
    let waves = std::mem::take(&mut tr.waves);
    let l2_max = tr.l2_max;

    // Paced loop, traced, on a fresh plane.
    let (mut paced_plane, _) = drive::build(input, variant);
    let p = drive::paced(&mut paced_plane, &input.paced, w.slo_ms(), Some(&mut tr));
    report.absorb("traced paced", &p.outcome, &oracle.paced, &paced_plane);

    // A/B arms: the workload's configuration against cache off (storms)
    // and telemetry off (storm_repeat), rotating the order every round.
    let mut arms: Vec<(Variant, Vec<f64>)> = vec![(variant, Vec::new())];
    if w.is_storm() {
        arms.push((
            Variant {
                cache: false,
                ..variant
            },
            Vec::new(),
        ));
    }
    if variant.telemetry {
        arms.push((
            Variant {
                telemetry: false,
                ..variant
            },
            Vec::new(),
        ));
    }
    if arms.len() > 1 {
        let started = Instant::now();
        let mut round = 0usize;
        while round < 2 || started.elapsed() < plan.arms_budget {
            for i in 0..arms.len() {
                let arm = (i + round) % arms.len();
                let (mut plane, _) = drive::build(input, arms[arm].0);
                let ao = drive::replay(&mut plane, &input.replay, None);
                // The arms are checked, never counted as measured work.
                report.check("A/B arm", &ao, &oracle.replay, &plane);
                arms[arm]
                    .1
                    .push(ao.run_until_s * 1e6 / ao.answers.len().max(1) as f64);
            }
            round += 1;
        }
    }
    let arm_us = |pred: &dyn Fn(&Variant) -> bool| {
        arms.iter().find(|(v, _)| pred(v)).map(|(_, xs)| median(xs))
    };
    let base_us = arm_us(&|v| *v == variant).unwrap_or(0.0);
    let saved = arm_us(&|v| !v.cache).map_or(0.0, |off| off - base_us);
    let obs_cost = arm_us(&|v| !v.telemetry && variant.telemetry).map_or(0.0, |off| base_us - off);

    // Layer pass over the replay schedule, with the plane's reservations.
    let layer = drive::layer_pass(input, &o.answers, plan.layer_budget, &mut tr.spans);

    let spans = &tr.spans;
    let root_of_replay = spans.spans().iter().position(|s| s.name == "phase.replay");
    let in_replay = |name: &str| -> Vec<f64> {
        spans
            .spans()
            .iter()
            .filter(|s| s.name == name && s.parent == root_of_replay)
            .map(|s| s.dur_ns() as f64)
            .collect()
    };
    let parse_ns = in_replay("lang.parse");
    let resolve_ns = in_replay("lang.resolve");
    let submit_ns = in_replay("serving.submit");
    let lang_s = (parse_ns.iter().sum::<f64>() + resolve_ns.iter().sum::<f64>()) / 1e9;
    let submit_s = submit_ns.iter().sum::<f64>() / 1e9;
    let (critical, split) = search_estimate(w, &o.answers, &layer);
    let hidden_s: f64 = waves
        .iter()
        .map(|&(wave, _, us)| critical.get(&wave).map_or(0.0, |&c| c.min(us / 1e6)))
        .sum();
    let serving_s = (submit_s + o.run_until_s - hidden_s).max(0.0);
    // Where a wave returned sooner than its estimated search time, the
    // backends' share shrinks to what the wave could have hidden.
    let critical_s: f64 = critical.values().sum();
    let split = split.map(|s| s * (hidden_s / critical_s.max(f64::MIN_POSITIVE)).min(1.0));
    let wave_us: Vec<f64> = waves.iter().map(|p| p.2).collect();
    let members: Vec<f64> = waves.iter().map(|p| p.1).collect();
    let (fixed_us, per_query_us) = fit_line(&waves.iter().map(|p| (p.1, p.2)).collect::<Vec<_>>());

    let m = plane.metrics();
    let counter = |n: &str| m.counter_named(n).unwrap_or(0) as f64;
    let cs = plane.cache_stats();
    let ls = plane.ledger_stats();
    let ts = plane.telemetry_stats();
    let epochs = plane.shard_epochs();
    let refreshes = epochs.iter().copied().max().unwrap_or(0) as f64 - epochs.len() as f64;
    let status_bytes = 64.0
        * (counter("overhead.status_queries") + counter("overhead.retry_queries"))
        + 78.0 * (counter("overhead.status_responses") + counter("overhead.retry_responses"));
    let answered = o.answers.len().max(1) as f64;

    let ok: Vec<&cloudtalk::server::Answer> = o
        .answers
        .iter()
        .filter_map(|a| a.result.as_ref().ok())
        .collect();
    let searched = |b: Backend| {
        ok.iter()
            .filter(move |a| a.provenance.backend == b && !a.provenance.cache_hit)
    };
    let exh: Vec<_> = searched(Backend::Exhaustive)
        .map(|a| a.provenance.search)
        .collect();
    let pkt: Vec<_> = searched(Backend::PacketLevel)
        .map(|a| a.provenance.search)
        .collect();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let sum = |xs: &[cloudtalk::server::SearchStats],
               f: fn(&cloudtalk::server::SearchStats) -> u64| {
        xs.iter().map(|s| f(s) as f64).sum::<f64>()
    };

    report.put("lang.parse_us_p50", median(&parse_ns) / 1e3, "us");
    report.put("lang.busy_frac", lang_s / o.wall_s, "ratio");
    report.put("serving.busy_frac", serving_s / o.wall_s, "ratio");
    report.put("serving.wave_us_p50", percentile(&wave_us, 50.0), "us");
    report.put("serving.wave_us_p99", percentile(&wave_us, 99.0), "us");
    report.put("serving.submit_ns_p50", median(&submit_ns), "ns");
    report.put("serving.queries_per_wave", mean(&members), "count");
    report.put("serving.batch_wait_ms_p50", median(&p.batch_wait_ms), "ms");
    report.put("serving.service_ms_p50", median(&p.service_ms), "ms");
    report.put(
        "serving.refused",
        (o.refused + p.outcome.refused) as f64,
        "count",
    );
    report.put("serving.shed_waves", counter("serving.shed_waves"), "count");
    report.put("serving.wave_fixed_us", fixed_us, "us");
    report.put("serving.wave_per_query_us", per_query_us, "us");
    report.put("serving.ledger_publishes", ls.epoch as f64, "count");
    report.put("serving.ledger_collisions", ls.collisions as f64, "count");
    report.put("serving.ledger_conflicts", ls.conflicts as f64, "count");
    report.put("qcache.hit_ratio", cs.hit_rate(), "ratio");
    report.put("qcache.l1_hits", cs.l1_hits as f64, "count");
    report.put("qcache.l2_hits", cs.l2_hits as f64, "count");
    report.put("qcache.misses", cs.misses as f64, "count");
    report.put("qcache.l2_entries_max", l2_max as f64, "count");
    report.put("qcache.stale_hits", cs.stale_hits as f64, "count");
    report.put("qcache.saved_us_per_query", saved, "us");
    report.put("status.gather_us_p50", median(&layer.gather_us), "us");
    report.put("status.refreshes", refreshes, "count");
    report.put("status.bytes_per_query", status_bytes / answered, "B");
    report.put(
        "status.gather_rounds_mean",
        mean(
            &ok.iter()
                .map(|a| f64::from(a.provenance.gather_rounds))
                .collect::<Vec<_>>(),
        ),
        "count",
    );
    report.put(
        "heuristic.eval_us_p50",
        median(&drive::values(&layer.heuristic_us)),
        "us",
    );
    report.put("heuristic.busy_frac", split[0] / o.wall_s, "ratio");
    report.put(
        "exhaustive.search_us_p50",
        percentile(&drive::values(&layer.exhaustive_us), 50.0),
        "us",
    );
    report.put(
        "exhaustive.search_us_p90",
        percentile(&drive::values(&layer.exhaustive_us), 90.0),
        "us",
    );
    report.put(
        "exhaustive.prune_ratio",
        ratio(sum(&exh, |s| s.pruned), sum(&exh, |s| s.space)),
        "ratio",
    );
    report.put(
        "exhaustive.enumerated_mean",
        ratio(sum(&exh, |s| s.enumerated), exh.len() as f64),
        "count",
    );
    report.put("exhaustive.no_feasible", layer.no_feasible as f64, "count");
    report.put("exhaustive.busy_frac", split[1] / o.wall_s, "ratio");
    report.put(
        "estimator.delta_reuse_ratio",
        ratio(
            sum(&exh, |s| s.delta_components_reused),
            sum(&exh, |s| {
                s.delta_components_reused + s.delta_components_rerated
            }),
        ),
        "ratio",
    );
    report.put(
        "pktsearch.search_ms_p50",
        median(&drive::values(&layer.pkt_ms)),
        "ms",
    );
    report.put(
        "pktsearch.memo_hit_ratio",
        ratio(
            sum(&pkt, |s| s.memo_hits),
            sum(&pkt, |s| s.memo_hits + s.memo_misses),
        ),
        "ratio",
    );
    report.put(
        "pktsearch.abort_ratio",
        ratio(
            sum(&pkt, |s| s.aborted),
            sum(&pkt, |s| s.aborted + s.enumerated),
        ),
        "ratio",
    );
    report.put(
        "pktsearch.sims_mean",
        ratio(sum(&pkt, |s| s.aborted + s.enumerated), pkt.len() as f64),
        "count",
    );
    report.put("pktsearch.busy_frac", split[2] / o.wall_s, "ratio");
    report.put("obs.cost_us_per_query", obs_cost, "us");
    report.put("obs.sampled_traces", ts.sampled_traces as f64, "count");
    report.put("obs.windows", ts.windows as f64, "count");
    report.put("obs.ring_dropped", ts.ring_dropped as f64, "count");
    report.put("bench.gen_late_ms_max", percentile(&p.late_ms, 100.0), "ms");
    report.put(
        "bench.trace_overhead_frac",
        1.0 - median(&traced) / median(&untraced),
        "ratio",
    );
    report.put("bench.nproc", nproc as f64, "count");
    report.put("bench.workers", workers as f64, "count");
    report.put("bench.answered", o.answers.len() as f64, "count");
    report.put("bench.wall_s", o.wall_s, "s");
    report.notes.push(format!(
        "untraced_replays={} traced_replays={} arms={:?}",
        untraced.len(),
        traced.len(),
        arms.iter()
            .map(|(v, xs)| (v.cache, v.telemetry, xs.len()))
            .collect::<Vec<_>>()
    ));

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("spans");
    let path = dir.join(format!("{}.json", w.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.chrome_json())) {
        Ok(()) => report.notes.push(format!(
            "spans={} file={}",
            spans.spans().len(),
            path.display()
        )),
        Err(e) => report
            .problems
            .push(format!("writing {}: {e}", path.display())),
    }
}

/// Runs one workload and returns its report.
fn run(args: &Args, plan: &Plan) -> Report {
    let w = args.workload;
    let input = Input::new(w, args.seed, plan.replay_window, plan.paced_window);
    let mut report = Report::default();
    report.notes.push(format!(
        "workload={} seed={} input_digest={:016x} replay_queries={} paced_queries={} nproc={} workers={} \
         address_layout={}",
        w.name(),
        args.seed,
        input.digest(),
        input.replay.len(),
        input.paced.len(),
        workers().0,
        workers().1,
        if std::env::var_os(FIXED_LAYOUT_ENV).is_some() {
            "fixed"
        } else {
            "randomised"
        },
    ));
    if args.trace {
        trace(w, &input, plan, &mut report);
    } else {
        measure(w, &input, plan, &mut report);
    }
    report
}

/// The result line: the metrics `BENCHMARK.json` names for this mode.
fn json_line(report: &Report, names: &[&str]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.attempted,
        report.failed
    );
    for (i, name) in names.iter().enumerate() {
        let m = report
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Set in the environment of a run whose address-space layout is fixed.
const FIXED_LAYOUT_ENV: &str = "PERFBENCH_FIXED_LAYOUT";

/// Runs this benchmark again under `setarch -R` (address-space layout
/// randomisation off) and returns that run's exit code, or `None` when
/// the layout is already fixed or cannot be fixed, and the run goes ahead
/// in this process. With randomised layouts, the saturated throughput of
/// this allocation-heavy program moved by up to a third between otherwise
/// identical processes on a 2-vCPU host; with the layout fixed the spread
/// fell to a few percent.
fn rerun_with_fixed_layout(argv: &[String]) -> Option<i32> {
    if std::env::var_os(FIXED_LAYOUT_ENV).is_some() {
        return None;
    }
    let probe = Command::new("setarch").args(["-R", "true"]).status().ok()?;
    if !probe.success() {
        return None;
    }
    let exe = std::env::current_exe().ok()?;
    let status = Command::new("setarch")
        .arg("-R")
        .arg(exe)
        .args(argv)
        .env(FIXED_LAYOUT_ENV, "1")
        .status()
        .ok()?;
    Some(status.code().unwrap_or(1))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    if let Some(code) = rerun_with_fixed_layout(&argv) {
        std::process::exit(code);
    }
    let plan = Plan::new(args.workload, args.seconds, args.trace);
    let report = run(&args, &plan);
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!(
            "metric {} {} = {} {}",
            args.workload.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    for p in &report.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", json_line(&report, names));
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// About 20 replayed and 8 paced queries.
    fn tiny(w: Workload) -> Plan {
        Plan {
            replay_budget: Duration::ZERO,
            min_reps: 2,
            paced_window: SimDuration::from_secs_f64(8.0 / w.paced_qps()),
            arms_budget: Duration::ZERO,
            layer_budget: Duration::from_millis(20),
            replay_window: SimDuration::from_secs_f64(20.0 / w.replay_qps()),
        }
    }

    /// A tiny run of every workload, in both modes, emits every metric
    /// `BENCHMARK.json` names for that mode and passes the oracle.
    #[test]
    fn tiny_runs_emit_every_metric() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let args = Args {
                    workload: w,
                    seed: 11,
                    seconds: 1.0,
                    trace,
                };
                let report = run(&args, &tiny(w));
                assert!(
                    report.correct(),
                    "{w:?} trace={trace}: {:?}",
                    report.problems
                );
                assert!(report.attempted > 0, "{w:?}");
                let names: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
                for name in names {
                    let v = report
                        .get(name)
                        .unwrap_or_else(|| panic!("{w:?}: no {name}"));
                    assert!(v.is_finite(), "{w:?}: {name} = {v}");
                }
                if !trace {
                    for name in ["slo_miss_frac", "failed_frac"] {
                        assert!(report.get(name).is_some(), "{w:?}: no {name}");
                    }
                    assert_eq!(report.get("latency_p99_ms").is_some(), w.is_storm());
                    assert!(report.get("throughput_qps").unwrap() > 0.0);
                }
                let line = json_line(&report, names);
                assert!(line.starts_with("{\"correct\": true"), "{line}");
            }
        }
    }

    #[test]
    fn benchmark_json_names_what_the_run_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let names = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section ends")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("closing quote")].to_string())
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        assert_eq!(names("workloads"), Workload::ALL.map(Workload::name));
    }

    #[test]
    fn arguments_are_checked() {
        let a = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&a(
            "--workload search_packet --seed 4 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(ok.workload, Workload::SearchPacket);
        assert_eq!((ok.seed, ok.seconds, ok.trace), (4, 3.0, true));
        assert!(parse_args(&a("--workload nope")).is_err());
        assert!(parse_args(&a("--workload storm_unique --trace 2")).is_err());
        assert!(parse_args(&a("--workload storm_unique --seconds -1")).is_err());
        assert!(parse_args(&a("--seed 1")).is_err());
    }
}

//! `qps_storm` — open-loop storm against the multi-tenant serving plane.
//!
//! Seeded Poisson arrivals from a mix of tenants are replayed against
//! [`cloudtalk::serving::ServingPlane`]s of 1/2/4/8 workers at a sweep of
//! offered loads. Time is *virtual* (see the serving-plane module docs):
//! each query charges `service_time` (or `hit_service_time` when the
//! answer cache replays it) against its worker's clock, so the numbers
//! measure the plane's scheduling/batching behaviour, not the
//! container's core count. Reported per run: accepted/rejected split,
//! achieved queries/sec over the arrival window, cache hit rate, and
//! p50/p99/p999 latency from the plane's own `serving.latency_us`
//! histogram.
//!
//! The capacity summary finds, per worker count, the highest offered
//! load that holds the p99 SLO with zero rejections — the paper-style
//! "qps at fixed SLO" scaling claim (≥ 4x from 1 to 8 workers, asserted
//! here and pinned bit-identically by `tests/serving_determinism.rs`).
//!
//! `--similarity <0..1>` turns that fraction of tenants into *hot*
//! tenants drawing from four shared query shapes — the repeat-heavy
//! multi-tenant traffic the answer cache targets. The similarity sweep
//! runs every load with the cache on and off and asserts the cached
//! plane holds ≥ 2x the uncached capacity at the same worker count
//! (for similarity ≥ 0.8), with bit-identical answers and zero stale
//! hits.
//!
//! `--telemetry` runs the continuous-telemetry storm instead: a
//! telemetry-enabled plane collecting status through a live
//! [`cloudtalk::aggregate::AggregationPlane`] (so sampled traces stitch
//! collector → aggregator → worker lanes), deliberately overloaded so the
//! `--slo` list (default `p99=25ms`) breaches. It writes the flight
//! recorder's postmortem bundle (`BENCH_telemetry_trace.json`,
//! `BENCH_telemetry_metrics.txt`, `BENCH_telemetry_slo.txt`) and asserts
//! answers stay bit-identical with telemetry on, off, and across worker
//! counts. `--obs-overhead` interleaves telemetry-off/on runs of the same
//! storm and reports the wall-clock overhead of the telemetry plane.
//!
//! ```text
//! cargo run --release -p cloudtalk-bench --bin qps_storm             # full sweep
//! cargo run --release -p cloudtalk-bench --bin qps_storm -- --smoke  # CI gate
//! cargo run --release -p cloudtalk-bench --bin qps_storm -- --json   # + BENCH_qps.json
//! cargo run --release -p cloudtalk-bench --bin qps_storm -- --similarity 0.8
//! cargo run --release -p cloudtalk-bench --bin qps_storm -- --similarity 0.8 --smoke
//! cargo run --release -p cloudtalk-bench --bin qps_storm -- --cache off
//! cargo run --release -p cloudtalk-bench --bin qps_storm -- --telemetry --slo p99=25ms
//! cargo run --release -p cloudtalk-bench --bin qps_storm -- --telemetry --smoke
//! cargo run --release -p cloudtalk-bench --bin qps_storm -- --obs-overhead
//! # smaller/larger runs: CLOUDTALK_BENCH_SCALE=0.5
//! ```

use cloudtalk::aggregate::{AggregationPlane, FleetLayout, PlaneConfig};
use cloudtalk::server::Answer;
use cloudtalk::serving::{
    ServingConfig, ServingPlane, TelemetryConfig, TelemetryStats, TenantId,
};
use cloudtalk::status::TableStatusSource;
use cloudtalk::transport::TransportConfig;
use cloudtalk_bench::{flag_present, flag_value, row, scaled};
use cloudtalk_lang::builder::hdfs_write_query;
use cloudtalk_lang::problem::{Address, Problem};
use desim::rng::stream_rng;
use desim::{SimDuration, SimTime};
use estimator::HostState;
use rand::Rng;

const SEED: u64 = 2017;
const RACKS: u32 = 16;
const HOSTS_PER_RACK: u32 = 4;
const TENANTS: u32 = 32;
/// Offered-load sweep (queries/sec of virtual time).
const LOADS: [u64; 6] = [500, 1_000, 2_000, 4_000, 8_000, 16_000];
/// Similarity-mode sweep: higher top end — cache hits raise capacity
/// well past the uncached ceiling, and the capacity-ratio assertion
/// needs the sweep to bracket both.
const LOADS_SIM: [u64; 10] = [
    1_000, 2_000, 4_000, 6_000, 8_000, 12_000, 16_000, 24_000, 32_000, 48_000,
];
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Hot query shapes in similarity mode, one per shard (racks 0/4/8/12).
const HOT_SHAPES: u32 = 4;
/// The fixed latency SLO the capacity summary holds (ms, virtual).
const SLO_MS: f64 = 25.0;

/// 16 racks × 4 hosts with a deterministic spread of loads, so query
/// answers are data-driven rather than tie-breaks.
fn fleet() -> (FleetLayout, TableStatusSource) {
    let addrs: Vec<Address> = (1..=RACKS * HOSTS_PER_RACK).map(Address).collect();
    let layout = FleetLayout::uniform(&addrs, HOSTS_PER_RACK as usize);
    let mut src = TableStatusSource::new();
    for &a in &addrs {
        let load = f64::from(a.0 % 5) * 0.2;
        src.set(a, HostState::gbps_idle().with_up_load(load));
    }
    (layout, src)
}

struct Sub {
    tenant: TenantId,
    arrival: SimTime,
    problem: Problem,
}

/// One seeded open-loop schedule: exponential inter-arrival gaps at
/// `offered_qps`, tenants/racks/replica counts drawn per query. The
/// schedule depends only on `(seed, offered_qps, window, similarity)` —
/// never on the worker count or cache setting it is later replayed
/// against, so cached and uncached arms see byte-identical input.
///
/// `similarity` ∈ [0, 1]: that fraction of tenants is *hot* — hot
/// tenants draw from [`HOT_SHAPES`] shared query shapes (fixed source,
/// fixed replica count, one rack per shape), so distinct tenants keep
/// re-asking structurally identical queries. At 0.0 this degenerates to
/// the historical all-cold storm.
fn storm(seed: u64, offered_qps: u64, window: SimDuration, similarity: f64) -> Vec<Sub> {
    let mut rng = stream_rng(seed, offered_qps);
    let mean_us = 1e6 / offered_qps as f64;
    let hot_tenants = (similarity.clamp(0.0, 1.0) * f64::from(TENANTS)).round() as u32;
    let mut t = SimTime::ZERO;
    let mut subs = Vec::new();
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        let gap_us = (-mean_us * (1.0 - u).ln()).min(mean_us * 20.0);
        t += SimDuration::from_micros(gap_us.round() as u64);
        if t.saturating_since(SimTime::ZERO) >= window {
            return subs;
        }
        let tenant = TenantId(rng.gen_range(0..TENANTS));
        let problem = if tenant.0 < hot_tenants {
            // Hot: one of HOT_SHAPES shared shapes. Source and replica
            // count are shape properties, not tenant properties — the
            // resolved problems are exactly equal across tenants.
            let shape = rng.gen_range(0..HOT_SHAPES);
            let rack = shape * (RACKS / HOT_SHAPES);
            let base = rack * HOSTS_PER_RACK + 1;
            let nodes: Vec<Address> = (base..base + HOSTS_PER_RACK).map(Address).collect();
            hdfs_write_query(Address(5_000 + shape), &nodes, 2, 1e6)
        } else {
            // Cold: per-tenant source, random rack and replica count —
            // the historical storm mix.
            let rack = rng.gen_range(0..RACKS);
            let replicas = rng.gen_range(1..=2usize);
            let base = rack * HOSTS_PER_RACK + 1;
            let nodes: Vec<Address> = (base..base + HOSTS_PER_RACK).map(Address).collect();
            hdfs_write_query(Address(2_000 + tenant.0), &nodes, replicas, 1e6)
        }
        .resolve()
        .expect("storm query resolves");
        subs.push(Sub {
            tenant,
            arrival: t,
            problem,
        });
    }
}

struct StormRow {
    workers: usize,
    cache: bool,
    similarity: f64,
    offered_qps: u64,
    accepted: u64,
    rejected: u64,
    completed: u64,
    errors: u64,
    achieved_qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    waves: u64,
    shed_waves: u64,
    conflicts: u64,
    l1_hits: u64,
    l2_hits: u64,
    misses: u64,
    stale_hits: u64,
    admit_deferred: u64,
    hit_rate: f64,
}

type Fingerprint = (u32, u64, Result<Answer, String>);

/// Replays `subs` on a `workers`-wide plane, draining after every
/// submission (virtual time only moves in `run_until`). Returns the
/// stats row plus per-(tenant, seq) answer fingerprints for the
/// determinism cross-check.
fn run_storm(
    workers: usize,
    cache_on: bool,
    similarity: f64,
    subs: &[Sub],
    window: SimDuration,
    max_virtual_lag: SimDuration,
) -> (StormRow, Vec<Fingerprint>) {
    let (layout, src) = fleet();
    let mut cfg = ServingConfig {
        workers,
        racks_per_shard: 4,
        max_virtual_lag,
        seed: SEED,
        ..ServingConfig::default()
    };
    cfg.server.cache.enabled = cache_on;
    let mut plane = ServingPlane::new(cfg, layout, src);
    let mut fps: Vec<Fingerprint> = Vec::new();
    let mut rejected = 0u64;
    for s in subs {
        if plane.submit(s.tenant, s.problem.clone(), s.arrival).is_err() {
            rejected += 1;
        }
        for c in plane.run_until(s.arrival) {
            fps.push((c.tenant.0, c.seq, c.result.map_err(|e| e.to_string())));
        }
    }
    // Drain the backlog: every accepted query completes within the
    // *observed* lag plus a few waves of slack (`max_virtual_lag` can be
    // set astronomically high to disable admission, so it is useless as
    // a drain horizon).
    let end = SimTime::ZERO + window + plane.virtual_lag() + SimDuration::from_millis(50);
    for c in plane.run_until(end) {
        fps.push((c.tenant.0, c.seq, c.result.map_err(|e| e.to_string())));
    }
    fps.sort_by_key(|f| (f.0, f.1));

    let m = plane.metrics();
    let named = |n: &str| m.counter_named(n).unwrap_or(0);
    let lat = m
        .histograms()
        .find(|(n, _)| *n == "serving.latency_us")
        .map(|(_, h)| (h.p50() / 1e3, h.p99() / 1e3, h.p999() / 1e3))
        .unwrap_or((0.0, 0.0, 0.0));
    let completed = named("serving.completed");
    let cs = plane.cache_stats();
    let row = StormRow {
        workers,
        cache: cache_on,
        similarity,
        offered_qps: (subs.len() as f64 / (window.as_micros_f64() / 1e6)).round() as u64,
        accepted: named("serving.accepted"),
        rejected,
        completed,
        errors: named("serving.query_errors"),
        achieved_qps: completed as f64 / (window.as_micros_f64() / 1e6),
        p50_ms: lat.0,
        p99_ms: lat.1,
        p999_ms: lat.2,
        waves: named("serving.waves"),
        shed_waves: named("serving.shed_waves"),
        conflicts: plane.ledger_stats().conflicts,
        l1_hits: cs.l1_hits,
        l2_hits: cs.l2_hits,
        misses: cs.misses,
        stale_hits: cs.stale_hits,
        admit_deferred: cs.admit_deferred,
        hit_rate: cs.hit_rate(),
    };
    (row, fps)
}

/// A run "holds the SLO" when nothing was refused and the observed p99
/// stayed under the bound.
fn holds_slo(r: &StormRow) -> bool {
    r.rejected == 0 && r.errors == 0 && r.p99_ms <= SLO_MS
}

/// Every-row invariants: a conflict-free ledger and a clean stale-hit
/// audit (the cache soundness contract).
fn check_row(r: &StormRow) {
    assert_eq!(r.conflicts, 0, "ledger conflicts at {} workers", r.workers);
    assert_eq!(
        r.stale_hits, 0,
        "stale cache hit at {} workers (cache={})",
        r.workers, r.cache
    );
}

fn print_rows(rows: &[StormRow]) {
    let widths = [7usize, 5, 9, 9, 9, 9, 9, 8, 8, 8, 6, 5, 6, 8];
    let header = [
        "workers", "cache", "offered", "accepted", "rejected", "done", "qps", "p50ms", "p99ms",
        "p999ms", "waves", "shed", "hit%", "deferred",
    ];
    println!(
        "{}",
        row(&header.iter().map(|s| (*s).into()).collect::<Vec<_>>(), &widths)
    );
    for r in rows {
        println!(
            "{}",
            row(
                &[
                    r.workers.to_string(),
                    if r.cache { "on" } else { "off" }.to_string(),
                    r.offered_qps.to_string(),
                    r.accepted.to_string(),
                    r.rejected.to_string(),
                    r.completed.to_string(),
                    format!("{:.0}", r.achieved_qps),
                    format!("{:.2}", r.p50_ms),
                    format!("{:.2}", r.p99_ms),
                    format!("{:.2}", r.p999_ms),
                    r.waves.to_string(),
                    r.shed_waves.to_string(),
                    format!("{:.1}", r.hit_rate * 100.0),
                    r.admit_deferred.to_string(),
                ],
                &widths
            )
        );
    }
}

fn write_json(rows: &[StormRow], file: &str) {
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        s.push_str(&format!(
            "  {{\"workers\": {}, \"cache\": {}, \"similarity\": {:.2}, \"offered_qps\": {}, \
             \"accepted\": {}, \"rejected\": {}, \"completed\": {}, \"errors\": {}, \
             \"achieved_qps\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}, \
             \"waves\": {}, \"shed_waves\": {}, \"ledger_conflicts\": {}, \
             \"cache_hit_rate\": {:.4}, \"l1_hits\": {}, \"l2_hits\": {}, \"cache_misses\": {}, \
             \"stale_hits\": {}, \"admit_deferred\": {}, \"slo_ms\": {SLO_MS}, \"holds_slo\": {}}}{sep}\n",
            r.workers,
            r.cache,
            r.similarity,
            r.offered_qps,
            r.accepted,
            r.rejected,
            r.completed,
            r.errors,
            r.achieved_qps,
            r.p50_ms,
            r.p99_ms,
            r.p999_ms,
            r.waves,
            r.shed_waves,
            r.conflicts,
            r.hit_rate,
            r.l1_hits,
            r.l2_hits,
            r.misses,
            r.stale_hits,
            r.admit_deferred,
            holds_slo(r),
        ));
    }
    s.push_str("]\n");
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, s).expect("bench JSON is writable");
    println!("\nwrote {path}");
}

/// Smoke gate: a short storm must accept work, keep the ledger
/// conflict-free and stale-hit-free, and answer bit-identically at two
/// worker counts.
fn smoke(cache_on: bool) {
    let window = SimDuration::from_millis(50);
    let subs = storm(SEED, 2_000, window, 0.0);
    // Admission out of play so acceptance is worker-count independent
    // (lag-based backpressure is capacity-dependent by design).
    let huge_lag = SimDuration::from_secs_f64(1e6);
    let (r1, fp1) = run_storm(1, cache_on, 0.0, &subs, window, huge_lag);
    let (r4, fp4) = run_storm(4, cache_on, 0.0, &subs, window, huge_lag);
    for r in [&r1, &r4] {
        assert!(r.accepted > 0, "smoke storm must accept queries");
        check_row(r);
        assert_eq!(r.completed, r.accepted, "every accepted query completes");
    }
    assert_eq!(
        fp1, fp4,
        "answers must be bit-identical across worker counts"
    );
    print_rows(&[r1, r4]);
    println!(
        "\nSMOKE OK: {} queries, 0 ledger conflicts, 0 stale hits, \
         answers identical at 1 vs 4 workers",
        fp1.len()
    );
}

/// Similarity smoke gate: repeat-heavy traffic must *hit* (≥ 50% hit
/// rate), stay stale-free, and answer bit-identically with the cache
/// on, off, and across worker counts.
fn smoke_similarity(similarity: f64) {
    let window = SimDuration::from_millis(50);
    let subs = storm(SEED, 2_000, window, similarity);
    let huge_lag = SimDuration::from_secs_f64(1e6);
    let (on1, fp_on1) = run_storm(1, true, similarity, &subs, window, huge_lag);
    let (on4, fp_on4) = run_storm(4, true, similarity, &subs, window, huge_lag);
    let (off4, fp_off4) = run_storm(4, false, similarity, &subs, window, huge_lag);
    for r in [&on1, &on4, &off4] {
        assert!(r.accepted > 0, "smoke storm must accept queries");
        check_row(r);
        assert_eq!(r.completed, r.accepted, "every accepted query completes");
    }
    assert_eq!(
        fp_on1, fp_on4,
        "cached answers must be bit-identical across worker counts"
    );
    assert_eq!(
        fp_on4, fp_off4,
        "cached answers must be bit-identical to uncached answers"
    );
    for r in [&on1, &on4] {
        assert!(
            r.hit_rate >= 0.5,
            "similarity {similarity} storm must hit >= 50% (got {:.1}% at {} workers)",
            r.hit_rate * 100.0,
            r.workers
        );
    }
    assert_eq!(off4.misses + off4.l1_hits + off4.l2_hits, 0, "disabled cache consulted");
    print_rows(&[on1, on4, off4]);
    println!(
        "\nSMOKE OK: {} queries, cache on == cache off bit-identically, \
         0 stale hits, hit rate >= 50%",
        fp_on1.len()
    );
}

/// The similarity sweep: every (worker count, cache arm, load), then
/// the cached-vs-uncached capacity ratio at the fixed SLO.
fn similarity_sweep(similarity: f64, json: bool) {
    let window = SimDuration::from_millis(scaled(200, 40) as u64);
    println!(
        "qps_storm: {TENANTS} tenants ({:.0}% hot over {HOT_SHAPES} shapes), \
         {RACKS}x{HOSTS_PER_RACK} hosts, {} ms virtual window, SLO p99 <= {SLO_MS} ms\n",
        similarity * 100.0,
        window.as_millis_f64()
    );
    let mut rows: Vec<StormRow> = Vec::new();
    for &workers in &WORKER_COUNTS {
        for cache in [false, true] {
            for &load in &LOADS_SIM {
                let subs = storm(SEED, load, window, similarity);
                let (r, _) = run_storm(
                    workers,
                    cache,
                    similarity,
                    &subs,
                    window,
                    ServingConfig::default().max_virtual_lag,
                );
                check_row(&r);
                rows.push(r);
            }
        }
    }
    print_rows(&rows);

    // Equivalence cross-check at a load every arm sustains.
    let subs = storm(SEED, 2_000, window, similarity);
    let huge_lag = SimDuration::from_secs_f64(1e6);
    let (_, base) = run_storm(1, false, similarity, &subs, window, huge_lag);
    let (_, on8) = run_storm(8, true, similarity, &subs, window, huge_lag);
    assert_eq!(
        base, on8,
        "cached answers must be bit-identical to uncached at any worker count"
    );
    println!(
        "\ndeterminism: {} answers bit-identical, cache on (8 workers) vs off (1 worker)",
        base.len()
    );

    // Capacity at fixed SLO, cached vs uncached, per worker count.
    let capacity = |w: usize, cache: bool| {
        rows.iter()
            .filter(|r| r.workers == w && r.cache == cache && holds_slo(r))
            .map(|r| r.achieved_qps)
            .fold(0.0f64, f64::max)
    };
    println!("\ncapacity at p99 <= {SLO_MS} ms (zero rejections), cached vs uncached:");
    for &w in &WORKER_COUNTS {
        let off = capacity(w, false);
        let on = capacity(w, true);
        println!(
            "  {w} workers: off {off:>8.0} qps   on {on:>8.0} qps   ({:.2}x)",
            on / off
        );
        if similarity >= 0.8 {
            assert!(
                on >= 2.0 * off,
                "acceptance: cached capacity must be >= 2x uncached at {w} workers \
                 (got {on:.0} vs {off:.0} qps)"
            );
        }
    }
    if similarity >= 0.8 {
        println!("acceptance: >= 2x cached capacity at every worker count");
    }
    if json {
        write_json(&rows, "BENCH_qps_similarity.json");
    }
}

/// Replays `subs` against a telemetry-capable plane whose status source
/// is a live aggregation plane over the same fleet (in-process transport
/// for the serving-side "wire", real aggregator↔host ledger underneath) —
/// the topology where a stitched trace genuinely crosses collector,
/// aggregator and worker components. Admission is out of play so the
/// overload shows up as latency (and SLO breaches), not rejections, and
/// acceptance stays worker-count independent.
fn run_storm_telemetry(
    workers: usize,
    subs: &[Sub],
    window: SimDuration,
    telemetry: Option<TelemetryConfig>,
) -> (
    Vec<Fingerprint>,
    Option<(TelemetryStats, obs::PostmortemBundle)>,
    std::time::Duration,
) {
    let (layout, src) = fleet();
    let agg = AggregationPlane::new(
        layout.clone(),
        src,
        PlaneConfig {
            host_transport: TransportConfig::local(),
            seed: SEED,
            ..PlaneConfig::default()
        },
    );
    let mut cfg = ServingConfig {
        workers,
        racks_per_shard: 4,
        max_virtual_lag: SimDuration::from_secs_f64(1e6),
        seed: SEED,
        ..ServingConfig::default()
    };
    if let Some(tel) = telemetry {
        cfg.telemetry = tel;
    }
    let started = std::time::Instant::now();
    let mut plane = ServingPlane::new(cfg, layout, agg);
    let mut fps: Vec<Fingerprint> = Vec::new();
    for s in subs {
        let _ = plane.submit(s.tenant, s.problem.clone(), s.arrival);
        for c in plane.run_until(s.arrival) {
            fps.push((c.tenant.0, c.seq, c.result.map_err(|e| e.to_string())));
        }
    }
    let end = SimTime::ZERO + window + plane.virtual_lag() + SimDuration::from_millis(50);
    for c in plane.run_until(end) {
        fps.push((c.tenant.0, c.seq, c.result.map_err(|e| e.to_string())));
    }
    let elapsed = started.elapsed();
    fps.sort_by_key(|f| (f.0, f.1));
    let tel = plane.telemetry_dump().map(|b| (plane.telemetry_stats(), b));
    (fps, tel, elapsed)
}

/// Writes the postmortem bundle next to the other bench artifacts.
fn write_bundle(bundle: &obs::PostmortemBundle) {
    let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    for (file, body) in [
        ("BENCH_telemetry_trace.json", &bundle.chrome_json),
        ("BENCH_telemetry_metrics.txt", &bundle.metrics_text),
        ("BENCH_telemetry_slo.txt", &bundle.slo_text),
    ] {
        let path = format!("{root}/{file}");
        std::fs::write(&path, body).expect("bundle file is writable");
        println!("wrote {path}");
    }
}

/// The `--telemetry` storm: overload a 1-worker plane so the SLO list
/// breaches, dump the flight recorder, and pin the invariants — windows
/// and breaches recorded, ≥ 1 stitched cross-component trace, and
/// bit-identical answers with telemetry on, off, and at 4 workers.
fn telemetry_mode(smoke: bool, slos: Vec<obs::SloSpec>) {
    let window = SimDuration::from_millis(if smoke { 50 } else { scaled(200, 40) as u64 });
    let load = if smoke { 4_000 } else { 8_000 };
    let subs = storm(SEED, load, window, 0.0);
    let slo_desc: Vec<String> = slos
        .iter()
        .map(|s| format!("{}<={}", s.name, s.threshold))
        .collect();
    println!(
        "qps_storm --telemetry: {} queries at {load} q/s over {} ms, 1 worker \
         (deliberately overloaded), SLOs [{}]\n",
        subs.len(),
        window.as_millis_f64(),
        slo_desc.join(", ")
    );
    let tel = TelemetryConfig {
        window: SimDuration::from_millis(10),
        sample_every: 16,
        slos,
        ..TelemetryConfig::enabled()
    };

    let (fp_on1, on1, _) = run_storm_telemetry(1, &subs, window, Some(tel.clone()));
    let (fp_off1, off1, _) = run_storm_telemetry(1, &subs, window, None);
    let (fp_on4, on4, _) = run_storm_telemetry(4, &subs, window, Some(tel));
    let (stats, bundle) = on1.expect("telemetry on produces a bundle");
    let (stats4, _) = on4.expect("telemetry on produces a bundle");
    assert!(off1.is_none(), "telemetry off must not produce a bundle");
    assert_eq!(
        fp_on1, fp_off1,
        "telemetry on/off answers must be bit-identical"
    );
    assert_eq!(
        fp_on1, fp_on4,
        "answers must be bit-identical at 1 vs 4 workers with telemetry on"
    );
    assert!(stats.windows > 0, "no telemetry window finalised: {stats:?}");
    assert!(stats.sampled_traces > 0, "nothing sampled: {stats:?}");
    assert!(
        stats.breaches > 0,
        "an overloaded 1-worker storm must breach the SLO: {stats:?}"
    );
    assert_eq!(
        stats.sampled_traces, stats4.sampled_traces,
        "sampling is worker-count independent"
    );
    for lane in ["admission", "collector/shard", "aggregator", "worker"] {
        assert!(
            bundle.chrome_json.contains(lane),
            "stitched chrome trace missing the {lane} lane"
        );
    }
    assert!(
        bundle.slo_text.contains("BREACH"),
        "SLO timeline records no breach:\n{}",
        bundle.slo_text
    );

    println!(
        "telemetry: {} windows, {} SLO breaches, {} stitched traces \
         ({} at 4 workers), {} ring drops",
        stats.windows, stats.breaches, stats.sampled_traces, stats4.sampled_traces,
        stats.ring_dropped
    );
    println!(
        "determinism: {} answers bit-identical with telemetry on/off and at 1 vs 4 workers\n",
        fp_on1.len()
    );
    write_bundle(&bundle);
    println!(
        "\nTELEMETRY OK: bundle spans admission -> collector -> aggregator -> worker, \
         SLO timeline non-empty"
    );
}

/// The `--obs-overhead` measurement: interleaved telemetry-off/on runs of
/// the same storm (interleaving cancels thermal/cache drift), reporting
/// median wall time per arm and the on/off ratio.
fn obs_overhead() {
    let window = SimDuration::from_millis(scaled(2_000, 200) as u64);
    let subs = storm(SEED, 4_000, window, 0.0);
    let sample_every: u64 = flag_value("--sample-every")
        .map(|s| s.parse().expect("--sample-every takes an integer"))
        .unwrap_or(16);
    let tel = TelemetryConfig {
        window: SimDuration::from_millis(10),
        sample_every,
        slos: vec![obs::SloSpec::p99_latency_us(SLO_MS * 1e3)],
        ..TelemetryConfig::enabled()
    };
    let reps = scaled(12, 6);
    let mut off_ns: Vec<u128> = Vec::new();
    let mut on_ns: Vec<u128> = Vec::new();
    let mut ratios: Vec<f64> = Vec::new();
    // Warm-up pair, then interleaved measured pairs with alternating
    // order inside the pair (cancels allocator/cache position bias).
    // Both arms run identical deterministic work; container noise is
    // correlated *within* a back-to-back pair, so the per-pair on/off
    // ratio is the robust observation — the median ratio is reported.
    let _ = run_storm_telemetry(4, &subs, window, None);
    let _ = run_storm_telemetry(4, &subs, window, Some(tel.clone()));
    for i in 0..reps {
        let (off, on) = if i % 2 == 0 {
            let (_, _, off) = run_storm_telemetry(4, &subs, window, None);
            let (_, _, on) = run_storm_telemetry(4, &subs, window, Some(tel.clone()));
            (off, on)
        } else {
            let (_, _, on) = run_storm_telemetry(4, &subs, window, Some(tel.clone()));
            let (_, _, off) = run_storm_telemetry(4, &subs, window, None);
            (off, on)
        };
        off_ns.push(off.as_nanos());
        on_ns.push(on.as_nanos());
        ratios.push(on.as_nanos() as f64 / off.as_nanos() as f64);
    }
    ratios.sort_by(f64::total_cmp);
    let best = |v: &[u128]| *v.iter().min().expect("reps >= 1") as f64 / 1e6;
    let (off_ms, on_ms) = (best(&off_ns), best(&on_ns));
    println!(
        "obs-overhead: {} queries x {reps} interleaved pairs, 4 workers\n\
         telemetry off: {off_ms:>8.2} ms best-of-{reps}\n\
         telemetry on:  {on_ms:>8.2} ms best-of-{reps}\n\
         overhead:      {:>+8.2}% (median of per-pair ratios)",
        subs.len(),
        (ratios[ratios.len() / 2] - 1.0) * 100.0
    );
}

fn main() {
    let similarity: f64 = flag_value("--similarity")
        .map(|s| s.parse().expect("--similarity takes a float in [0, 1]"))
        .unwrap_or(0.0);
    let cache_on = !matches!(flag_value("--cache").as_deref(), Some("off"));
    if flag_present("--obs-overhead") {
        obs_overhead();
        return;
    }
    if flag_present("--telemetry") {
        let slos = flag_value("--slo")
            .map(|s| obs::SloSpec::parse_list(&s).expect("--slo takes e.g. p99=25ms,shed=1%"))
            .unwrap_or_else(|| vec![obs::SloSpec::p99_latency_us(SLO_MS * 1e3)]);
        telemetry_mode(flag_present("--smoke"), slos);
        return;
    }
    if flag_present("--smoke") {
        if similarity > 0.0 {
            smoke_similarity(similarity);
        } else {
            smoke(cache_on);
        }
        return;
    }
    let json = flag_present("--json");
    if similarity > 0.0 {
        similarity_sweep(similarity, json);
        return;
    }
    let window = SimDuration::from_millis(scaled(200, 40) as u64);
    println!(
        "qps_storm: {TENANTS} tenants, {RACKS}x{HOSTS_PER_RACK} hosts, \
         {} ms virtual window, SLO p99 <= {SLO_MS} ms, cache {}\n",
        window.as_millis_f64(),
        if cache_on { "on" } else { "off" }
    );

    let mut rows: Vec<StormRow> = Vec::new();
    for &workers in &WORKER_COUNTS {
        for &load in &LOADS {
            let subs = storm(SEED, load, window, 0.0);
            let (r, _) = run_storm(
                workers,
                cache_on,
                0.0,
                &subs,
                window,
                ServingConfig::default().max_virtual_lag,
            );
            check_row(&r);
            rows.push(r);
        }
    }
    print_rows(&rows);

    // Determinism cross-check at a load every worker count sustains.
    let subs = storm(SEED, 2_000, window, 0.0);
    let huge_lag = SimDuration::from_secs_f64(1e6);
    let (_, base) = run_storm(1, cache_on, 0.0, &subs, window, huge_lag);
    let (_, other) = run_storm(8, cache_on, 0.0, &subs, window, huge_lag);
    assert_eq!(base, other, "answers must be bit-identical at 1 vs 8 workers");
    println!("\ndeterminism: {} answers bit-identical at 1 vs 8 workers", base.len());

    // Capacity at fixed SLO: the paper-style scaling claim.
    println!("\ncapacity at p99 <= {SLO_MS} ms (zero rejections):");
    let capacity = |w: usize| {
        rows.iter()
            .filter(|r| r.workers == w && holds_slo(r))
            .map(|r| r.achieved_qps)
            .fold(0.0f64, f64::max)
    };
    let base_cap = capacity(WORKER_COUNTS[0]);
    for &w in &WORKER_COUNTS {
        let c = capacity(w);
        println!("  {w} workers: {c:>8.0} qps  ({:.2}x)", c / base_cap);
    }
    let top_cap = capacity(*WORKER_COUNTS.last().unwrap());
    assert!(
        top_cap >= 4.0 * base_cap,
        "serving plane must scale >= 4x from 1 to 8 workers at fixed SLO \
         (got {top_cap:.0} vs {base_cap:.0} qps)"
    );

    if json {
        write_json(&rows, "BENCH_qps.json");
    }
}

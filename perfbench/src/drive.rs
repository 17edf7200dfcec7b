//! Driving the serving plane on a wall clock.
//!
//! One thread generates the load and is also the plane's sequencer. It
//! renders nothing itself: every query arrives as text and goes through
//! `parse_query` → `resolve` → `ServingPlane::submit` → `run_until`,
//! the path a real front end takes.
//!
//! * [`replay`] is the saturated, closed drain: the whole schedule is
//!   submitted in virtual-time order with no sleeping, one `run_until`
//!   call per wave, and the next wave starts when the last returns.
//! * [`paced`] is the open loop: virtual time runs 1:1 with wall time,
//!   each query is submitted when due, `run_until(now)` runs at every
//!   wave close, and latency is timed from the due instant to the return
//!   of the call that delivers the answer.
//! * [`reference`] replays a schedule untimed on one worker with the
//!   answer cache and telemetry off: the oracle every answer is checked
//!   against.
//! * [`layer_pass`] feeds the workload's resolved problems straight to
//!   each layer's public functions, single-threaded, to attribute the
//!   cost the plane hides inside `run_until`.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use cloudtalk::aggregate::{AggregationPlane, FleetLayout, PlaneConfig};
use cloudtalk::exhaustive::{
    exhaustive_search_in, EvalStrategy, ExhaustiveResult, SearchOptions, SearchWorkspace,
};
use cloudtalk::heuristic::{evaluate_query_scored, HeuristicConfig};
use cloudtalk::pktsearch::{pkt_search, PktSearchOptions};
use cloudtalk::server::{Answer, CloudTalkServer, EvalMethod, ServerConfig};
use cloudtalk::serving::{CompletedQuery, ServingConfig, ServingPlane, TelemetryConfig, TenantId};
use cloudtalk::status::{StatusReport, StatusSource, TableStatusSource};
use cloudtalk::transport::TransportConfig;
use cloudtalk_lang::problem::{Address, Problem, Value};
use cloudtalk_lang::{parse_query, resolve, LangError, MapResolver};
use desim::{SimDuration, SimTime};
use estimator::{HostState, World};
use obs::{SloSpec, TraceReport};

use crate::host;
use crate::spans::Spans;
use crate::stats::Fnv;
use crate::workloads::{packet_mirror, Input, Query, Workload, TENANTS};

/// Admission lag bound used by every workload: high enough that the
/// plane never refuses on its *modelled* 450 µs service time, which would
/// measure that constant instead of the program. Queue-full refusals
/// still happen and are counted.
const LIFTED_LAG: SimDuration = SimDuration::from_secs(1_000_000);
/// Exhaustive limit: the daisy chain's raw space is 20³ = 8 000.
const EXHAUSTIVE_LIMIT: u64 = 10_000;
/// Packet-level limit: the raw space of 12 candidates is 12² = 144.
const PACKET_LIMIT: u64 = 144;

/// The status source a plane collects through: the storms sit behind a
/// rack aggregation plane, the searches poll the host table directly.
pub enum Source {
    /// Direct polls of the host table.
    Table(TableStatusSource),
    /// A rack aggregation plane over the host table.
    Aggregated(Box<AggregationPlane<TableStatusSource>>),
}

impl StatusSource for Source {
    fn poll(&mut self, addr: Address) -> Option<HostState> {
        match self {
            Source::Table(s) => s.poll(addr),
            Source::Aggregated(s) => s.poll(addr),
        }
    }

    fn poll_report(&mut self, addr: Address) -> Option<StatusReport> {
        match self {
            Source::Table(s) => s.poll_report(addr),
            Source::Aggregated(s) => s.poll_report(addr),
        }
    }

    fn advance_to(&mut self, now: SimTime) {
        match self {
            Source::Table(s) => s.advance_to(now),
            Source::Aggregated(s) => s.advance_to(now),
        }
    }

    fn take_sync_trace(&mut self) -> Option<TraceReport> {
        match self {
            Source::Table(s) => s.take_sync_trace(),
            Source::Aggregated(s) => s.take_sync_trace(),
        }
    }
}

/// The plane type every workload runs on.
pub type Plane = ServingPlane<Source>;

/// Plane settings that differ between the measured runs, the A/B arms
/// and the reference replay.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Variant {
    /// Worker threads.
    pub workers: usize,
    /// Answer cache on.
    pub cache: bool,
    /// Telemetry plane on.
    pub telemetry: bool,
}

impl Variant {
    /// The workload's own configuration on `workers` workers.
    pub fn measured(w: Workload, workers: usize) -> Self {
        Variant {
            workers,
            cache: true,
            telemetry: w == Workload::StormRepeat,
        }
    }

    /// The oracle: one worker, cache off, telemetry off.
    pub fn reference() -> Self {
        Variant {
            workers: 1,
            cache: false,
            telemetry: false,
        }
    }
}

/// The per-query server configuration of a workload.
fn server_config(w: Workload, cache: bool) -> ServerConfig {
    let mut cfg = ServerConfig::default();
    cfg.cache.enabled = cache;
    match w {
        Workload::StormUnique | Workload::StormRepeat => {}
        Workload::SearchExhaustive => {
            cfg.method = EvalMethod::Exhaustive {
                limit: EXHAUSTIVE_LIMIT,
            };
            cfg.eval_strategy = EvalStrategy::Delta;
        }
        Workload::SearchPacket => {
            cfg.method = EvalMethod::PacketLevel {
                limit: PACKET_LIMIT,
            };
            cfg.pkt.mirror = Some(packet_mirror());
        }
    }
    cfg
}

/// The host table of the input's fleet.
fn host_table(input: &Input) -> TableStatusSource {
    let mut table = TableStatusSource::new();
    for &(a, load) in input.racks.iter().flatten() {
        table.set(a, HostState::gbps_idle().with_up_load(load));
    }
    table
}

fn layout(input: &Input) -> FleetLayout {
    FleetLayout::grouped(
        input
            .racks
            .iter()
            .map(|r| r.iter().map(|h| h.0).collect())
            .collect(),
    )
}

/// The workload's status source over a fresh host table.
fn source(input: &Input, layout: &FleetLayout) -> Source {
    let table = host_table(input);
    if input.workload.is_storm() {
        Source::Aggregated(Box::new(AggregationPlane::new(
            layout.clone(),
            table,
            PlaneConfig {
                host_transport: TransportConfig::local(),
                seed: input.seed,
                ..PlaneConfig::default()
            },
        )))
    } else {
        Source::Table(table)
    }
}

/// Builds the program side of a run — status source, mirror topology
/// and `ServingPlane::new` — and returns it with its wall time, seconds.
pub fn build(input: &Input, v: Variant) -> (Plane, f64) {
    let t0 = Instant::now();
    let layout = layout(input);
    let source = source(input, &layout);
    let mut cfg = ServingConfig {
        server: server_config(input.workload, v.cache),
        workers: v.workers,
        racks_per_shard: input.racks_per_shard,
        max_virtual_lag: LIFTED_LAG,
        seed: input.seed,
        ..ServingConfig::default()
    };
    if v.telemetry {
        cfg.telemetry = TelemetryConfig {
            window: SimDuration::from_millis(10),
            sample_every: 16,
            slos: vec![SloSpec::p99_latency_us(25_000.0)],
            ..TelemetryConfig::enabled()
        };
    }
    let plane = ServingPlane::new(cfg, layout, source);
    (plane, t0.elapsed().as_secs_f64())
}

/// An answer as the oracle compares it: the full [`Answer`] minus its
/// span tree (the comparison already covers every other field), or the
/// error's text.
pub type Fingerprint = Result<Answer, String>;

/// A query's identity on the plane.
pub type Key = (u32, u64);

/// One answered query.
pub struct Answered {
    /// Its identity.
    pub key: Key,
    /// The wave that answered it.
    pub wave: u64,
    /// The worker that answered it.
    pub worker: usize,
    /// The answer.
    pub result: Fingerprint,
}

/// What one pass over a schedule produced.
#[derive(Default)]
pub struct Outcome {
    /// Queries submitted.
    pub attempted: u64,
    /// Submissions the plane refused.
    pub refused: u64,
    /// Queries whose text did not parse or resolve.
    pub bad_text: u64,
    /// Wall time of the whole pass, seconds.
    pub wall_s: f64,
    /// Wall time spent inside `run_until`, seconds.
    pub run_until_s: f64,
    /// Every answered query, sorted by key.
    pub answers: Vec<Answered>,
}

impl Outcome {
    /// Answers that are errors.
    pub fn errored(&self) -> u64 {
        self.answers.iter().filter(|a| a.result.is_err()).count() as u64
    }

    /// Answered queries per wall second.
    pub fn throughput(&self) -> f64 {
        self.answers.len() as f64 / self.wall_s
    }
}

/// Per-wave and per-call detail gathered by a traced pass.
pub struct Tracer {
    /// Spans around every call into the program.
    pub spans: Spans,
    /// `(wave, members, wall µs)` of every `run_until` call that
    /// answered queries. The saturated replay runs one wave per call.
    pub waves: Vec<(u64, f64, f64)>,
    /// Largest L2 occupancy seen after any wave.
    pub l2_max: usize,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            spans: Spans::new(),
            waves: Vec::new(),
            l2_max: 0,
        }
    }
}

/// Hands out per-tenant sequence numbers exactly as the plane does: one
/// per submission, accepted or not.
struct Seqs(Vec<u64>);

impl Seqs {
    fn new() -> Self {
        Seqs(vec![0; TENANTS as usize])
    }

    fn next(&mut self, tenant: u32) -> u64 {
        let s = &mut self.0[tenant as usize];
        *s += 1;
        *s - 1
    }
}

/// Parse and resolve, with a span around each when traced.
fn front_end(
    text: &str,
    tracer: &mut Option<&mut Tracer>,
    parent: Option<usize>,
    key: Key,
) -> Result<Problem, LangError> {
    match tracer {
        None => parse_query(text).and_then(|ast| resolve(&ast, &MapResolver::new())),
        Some(tr) => {
            let s = &mut tr.spans;
            let t0 = s.now_ns();
            let ast = parse_query(text);
            let t1 = s.now_ns();
            s.record("lang.parse", parent, t0, t1, Some(key));
            let problem = ast.and_then(|ast| resolve(&ast, &MapResolver::new()));
            let t2 = s.now_ns();
            s.record("lang.resolve", parent, t1, t2, Some(key));
            problem
        }
    }
}

/// Submits one query, with a span when traced. Returns false when the
/// plane refused it.
fn submit(
    plane: &mut Plane,
    q: &Query,
    problem: Problem,
    tracer: &mut Option<&mut Tracer>,
    parent: Option<usize>,
    key: Key,
) -> bool {
    let t0 = tracer.as_ref().map(|tr| tr.spans.now_ns());
    let accepted = plane.submit(TenantId(q.tenant), problem, q.due);
    if let (Some(tr), Some(t0)) = (tracer.as_mut(), t0) {
        let t1 = tr.spans.now_ns();
        tr.spans.record("serving.submit", parent, t0, t1, Some(key));
    }
    if let Ok(seq) = accepted {
        debug_assert_eq!(seq, key.1, "benchmark and plane agree on sequence numbers");
    }
    accepted.is_ok()
}

/// One `run_until` call, with a span (wave, member count) when traced.
fn run_until(
    plane: &mut Plane,
    until: SimTime,
    tracer: &mut Option<&mut Tracer>,
    parent: Option<usize>,
    run_until_s: &mut f64,
) -> Vec<CompletedQuery> {
    let t0 = Instant::now();
    let trace_t0 = tracer.as_ref().map(|tr| tr.spans.now_ns());
    let done = plane.run_until(until);
    *run_until_s += t0.elapsed().as_secs_f64();
    if let (Some(tr), Some(t0)) = (tracer.as_mut(), trace_t0) {
        let t1 = tr.spans.now_ns();
        let id = tr.spans.record("serving.run_until", parent, t0, t1, None);
        // The last wave this call processed.
        let wave = plane.processed_until().as_nanos() / plane.config().wave_quantum.as_nanos() - 1;
        tr.spans.set_arg(id, "wave", wave);
        tr.spans.set_arg(id, "members", done.len() as u64);
        if !done.is_empty() {
            tr.waves
                .push((wave, done.len() as f64, (t1 - t0) as f64 / 1e3));
        }
        tr.l2_max = tr.l2_max.max(plane.cache_stats().l2_entries);
    }
    done
}

/// Converts completions to answers, dropping their span trees.
fn answered(done: Vec<CompletedQuery>) -> impl Iterator<Item = Answered> {
    done.into_iter().map(|c| Answered {
        key: (c.tenant.0, c.seq),
        wave: c.wave,
        worker: c.worker,
        result: c
            .result
            .map(|mut a| {
                a.provenance.trace = TraceReport::default();
                a
            })
            .map_err(|e| e.to_string()),
    })
}

/// The saturated replay: submit the whole schedule in virtual-time order
/// without sleeping, one `run_until` per wave, then drain.
pub fn replay(plane: &mut Plane, schedule: &[Query], mut tracer: Option<&mut Tracer>) -> Outcome {
    let wave = plane.config().wave_quantum;
    let root = tracer
        .as_mut()
        .map(|tr| tr.spans.begin("phase.replay", None));
    let mut seqs = Seqs::new();
    let mut out = Outcome::default();
    let mut done: Vec<CompletedQuery> = Vec::with_capacity(schedule.len());
    let mut next_close = SimTime::ZERO + wave;
    let t0 = Instant::now();
    for q in schedule {
        while q.due >= next_close {
            done.extend(run_until(
                plane,
                next_close,
                &mut tracer,
                root,
                &mut out.run_until_s,
            ));
            next_close += wave;
        }
        let key = (q.tenant, seqs.next(q.tenant));
        out.attempted += 1;
        match front_end(&q.text, &mut tracer, root, key) {
            Ok(problem) => {
                if !submit(plane, q, problem, &mut tracer, root, key) {
                    out.refused += 1;
                }
            }
            Err(_) => out.bad_text += 1,
        }
    }
    while plane.pending_len() > 0 {
        done.extend(run_until(
            plane,
            next_close,
            &mut tracer,
            root,
            &mut out.run_until_s,
        ));
        next_close += wave;
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    if let (Some(tr), Some(root)) = (tracer, root) {
        tr.spans.end(root);
    }
    out.answers = answered(done).collect();
    out.answers.sort_by_key(|a| a.key);
    out
}

/// What the paced open loop measured besides its [`Outcome`].
#[derive(Default)]
pub struct Paced {
    /// The pass itself.
    pub outcome: Outcome,
    /// Due → answer returned, ms, per answered query.
    pub latency_ms: Vec<f64>,
    /// The part of each latency before its wave's close instant, ms: set
    /// by the schedule, not by the host.
    pub to_close_ms: Vec<f64>,
    /// Answered queries over the latency limit (errors included).
    pub over_limit: u64,
    /// Due → start of the delivering `run_until`, ms.
    pub batch_wait_ms: Vec<f64>,
    /// Duration of the delivering `run_until`, ms, per answered query.
    pub service_ms: Vec<f64>,
    /// How late the generator submitted each query, ms.
    pub late_ms: Vec<f64>,
    /// Host-speed reference batches timed while the plane was idle, s.
    pub reference_s: Vec<f64>,
}

/// Idle time (nothing pending, no query due) in which the paced loop
/// times a host-speed reference batch of a few ms: long enough that the
/// batch ends well before the next query is due, even on a host at half
/// speed.
const IDLE_REFERENCE_GAP: SimDuration = SimDuration::from_millis(40);

/// The paced open loop: virtual time is wall time since the start.
pub fn paced(
    plane: &mut Plane,
    schedule: &[Query],
    slo_ms: f64,
    mut tracer: Option<&mut Tracer>,
) -> Paced {
    let wave = plane.config().wave_quantum;
    let root = tracer
        .as_mut()
        .map(|tr| tr.spans.begin("phase.paced", None));
    let mut seqs = Seqs::new();
    let mut res = Paced::default();
    let mut due_of: HashMap<Key, SimTime> = HashMap::with_capacity(schedule.len());
    let mut done: Vec<Answered> = Vec::with_capacity(schedule.len());
    let mut next = 0usize;
    let mut next_close = SimTime::ZERO + wave;
    let mut referenced_before = None;
    let start = Instant::now();
    let virt = |at: Instant| {
        SimTime::ZERO + SimDuration::from_nanos(at.duration_since(start).as_nanos() as u64)
    };
    loop {
        while next < schedule.len() && schedule[next].due <= virt(Instant::now()) {
            let q = &schedule[next];
            let key = (q.tenant, seqs.next(q.tenant));
            res.outcome.attempted += 1;
            res.late_ms
                .push(virt(Instant::now()).saturating_since(q.due).as_millis_f64());
            match front_end(&q.text, &mut tracer, root, key) {
                Ok(problem) => {
                    if submit(plane, q, problem, &mut tracer, root, key) {
                        due_of.insert(key, q.due);
                    } else {
                        res.outcome.refused += 1;
                    }
                }
                Err(_) => res.outcome.bad_text += 1,
            }
            next += 1;
        }
        // Waves close no later than the next unsubmitted query is due:
        // closing a wave before every query due in it was submitted would
        // move a late query into a later wave and change its answer.
        let now = virt(Instant::now());
        let until = schedule.get(next).map_or(now, |q| now.min(q.due));
        if until >= next_close {
            let called = Instant::now();
            let batch = run_until(
                plane,
                until,
                &mut tracer,
                root,
                &mut res.outcome.run_until_s,
            );
            let returned = Instant::now();
            for c in &batch {
                let due = due_of[&(c.tenant.0, c.seq)];
                let due_at = start + Duration::from_nanos(due.as_nanos());
                let latency = returned.saturating_duration_since(due_at).as_secs_f64() * 1e3;
                let close = SimTime::ZERO + wave * (due.as_nanos() / wave.as_nanos() + 1);
                res.to_close_ms
                    .push(close.saturating_since(due).as_millis_f64());
                if latency > slo_ms || c.result.is_err() {
                    res.over_limit += 1;
                }
                res.latency_ms.push(latency);
                res.batch_wait_ms
                    .push(called.saturating_duration_since(due_at).as_secs_f64() * 1e3);
                res.service_ms
                    .push(returned.duration_since(called).as_secs_f64() * 1e3);
            }
            // Span trees are dropped as answers arrive, or a long paced
            // storm would hold every one of them.
            done.extend(answered(batch));
            let waves_done = until.as_nanos() / wave.as_nanos();
            next_close = SimTime::ZERO + wave * (waves_done + 1);
        }
        if next == schedule.len() && plane.pending_len() == 0 {
            break;
        }
        let next_due = schedule
            .get(next)
            .map_or(next_close, |q| q.due.min(next_close));
        // With nothing pending, the plane is idle until the next query is
        // due, whatever waves close before then: one reference batch per
        // such idle stretch.
        let idle = match schedule.get(next) {
            Some(q) if plane.pending_len() == 0 && referenced_before != Some(next) => {
                q.due.saturating_since(virt(Instant::now()))
            }
            _ => SimDuration::ZERO,
        };
        if idle > IDLE_REFERENCE_GAP {
            res.reference_s
                .push(host::reference_batch(plane.config().workers));
            referenced_before = Some(next);
        }
        let gap = next_due.saturating_since(virt(Instant::now()));
        if gap > SimDuration::from_micros(200) {
            std::thread::sleep(Duration::from_nanos(gap.as_nanos() - 100_000));
        } else {
            std::hint::spin_loop();
        }
    }
    res.outcome.wall_s = start.elapsed().as_secs_f64();
    if let (Some(tr), Some(root)) = (tracer, root) {
        tr.spans.end(root);
    }
    done.sort_by_key(|a| a.key);
    res.outcome.answers = done;
    res
}

/// The oracle's answers for `schedule`: an untimed replay on a fresh
/// one-worker plane with the cache and telemetry off.
pub fn reference(input: &Input, schedule: &[Query]) -> HashMap<Key, Fingerprint> {
    let (mut plane, _) = build(input, Variant::reference());
    replay(&mut plane, schedule, None)
        .answers
        .into_iter()
        .map(|a| (a.key, a.result))
        .collect()
}

/// Answers that differ from the oracle's, or that the oracle lacks.
pub fn mismatches(answers: &[Answered], oracle: &HashMap<Key, Fingerprint>) -> u64 {
    answers
        .iter()
        .filter(|a| oracle.get(&a.key) != Some(&a.result))
        .count() as u64
}

/// Folds the answers — bindings, or error text — into `h`, in key order.
pub fn digest_answers(h: &mut Fnv, answers: &[Answered]) {
    for a in answers {
        h.write_u64(u64::from(a.key.0));
        h.write_u64(a.key.1);
        match &a.result {
            Ok(a) => {
                for v in &a.binding {
                    match v {
                        Value::Addr(x) => h.write_u64(u64::from(x.0)),
                        Value::Disk => h.write(b"disk"),
                    }
                }
            }
            Err(e) => h.write(e.as_bytes()),
        }
    }
}

/// Single-threaded timings of each layer's public functions on the
/// workload's own inputs; search times are per query, in replay order.
#[derive(Default)]
pub struct LayerTimes {
    /// `CloudTalkServer::take_snapshot` over one shard, µs.
    pub gather_us: Vec<f64>,
    /// `evaluate_query_scored`, µs.
    pub heuristic_us: Vec<(Key, f64)>,
    /// `exhaustive_search_in`, µs (search_exhaustive only).
    pub exhaustive_us: Vec<(Key, f64)>,
    /// `pkt_search`, ms (search_packet only).
    pub pkt_ms: Vec<(Key, f64)>,
    /// Saturation probe (search_exhaustive only): tenants whose query
    /// `exhaustive_search_in` answers `no feasible binding` once all but
    /// two hosts of their pool are reserved, though the heuristic answers.
    pub no_feasible: u64,
}

/// The values of `(key, value)` pairs.
pub fn values(xs: &[(Key, f64)]) -> Vec<f64> {
    xs.iter().map(|x| x.1).collect()
}

/// Charges a reservation to every reserved mentioned address exactly as
/// `overlay_reserved` in `crates/core/src/server.rs` does: a full
/// capacity's worth of extra use on every dimension.
fn reserve(world: &mut World, addr: Address) {
    let mut s = world.get(addr);
    s.nic_up_used += s.nic_up_capacity;
    s.nic_down_used += s.nic_down_capacity;
    s.disk_read_used += s.disk_read_capacity;
    s.disk_write_used += s.disk_write_capacity;
    world.set(addr, s);
}

/// Replays the replay schedule's problems, in the plane's wave → tenant →
/// submission order, through each layer's public search function, against
/// the fleet's host states with the reservations the plane applied to
/// each query: bindings of earlier waves for the reservation hold, and
/// the tenant's own earlier answers in the same wave. `answers` are the
/// plane's answers to the same schedule. Stops each layer when `budget/4`
/// is spent (every layer gets at least one call).
pub fn layer_pass(
    input: &Input,
    answers: &[Answered],
    budget: Duration,
    spans: &mut Spans,
) -> LayerTimes {
    let root = spans.begin("phase.layer_pass", None);
    let mut out = LayerTimes::default();
    let w = input.workload;
    let layout = layout(input);
    let share = budget / 4;

    // Status: one shard's gather through the workload's own source.
    let mut src = source(input, &layout);
    src.advance_to(SimTime::ZERO);
    let shard: Vec<Address> = input.racks[..input.racks_per_shard]
        .iter()
        .flatten()
        .map(|h| h.0)
        .collect();
    let cfg = server_config(w, false);
    let mut server = CloudTalkServer::new(cfg.clone());
    let started = Instant::now();
    while out.gather_us.is_empty() || (started.elapsed() < share && out.gather_us.len() < 256) {
        let t0 = spans.now_ns();
        let snap = server.take_snapshot(&shard, &mut src);
        let t1 = spans.now_ns();
        std::hint::black_box(snap.interrogated());
        spans.record("layer.take_snapshot", Some(root), t0, t1, None);
        out.gather_us.push((t1 - t0) as f64 / 1e3);
    }

    // The plane's answers by key, and the schedule's problems in the
    // order the plane answered them.
    let by_key: HashMap<Key, &Answered> = answers.iter().map(|a| (a.key, a)).collect();
    let mut seqs = Seqs::new();
    let mut order: Vec<(u64, Key, Problem)> = Vec::new();
    for q in &input.replay {
        let key = (q.tenant, seqs.next(q.tenant));
        let parsed = parse_query(&q.text).and_then(|ast| resolve(&ast, &MapResolver::new()));
        if let (Some(a), Ok(problem)) = (by_key.get(&key), parsed) {
            order.push((a.wave, key, problem));
        }
    }
    order.sort_by_key(|o| (o.0, o.1));

    let mut base = World::new();
    for &(a, load) in input.racks.iter().flatten() {
        base.set(a, HostState::gbps_idle().with_up_load(load));
    }
    let wave_len = ServingConfig::default().wave_quantum;
    let hold = cfg.reservation_hold.unwrap_or(SimDuration::ZERO);
    let heur = HeuristicConfig::default();
    let exh_opts = SearchOptions::new(EXHAUSTIVE_LIMIT).eval(EvalStrategy::Delta);
    let mut ws = SearchWorkspace::new();
    let mut exh = ExhaustiveResult::default();
    let mirror = packet_mirror();
    let pkt_opts = PktSearchOptions::new(PACKET_LIMIT);
    // Published reservations (address → expiry), and this wave's
    // per-tenant overlays (tenant, address, expiry), published when the
    // wave closes.
    let mut published: HashMap<Address, SimTime> = HashMap::new();
    let mut overlays: Vec<(u32, Address, SimTime)> = Vec::new();
    let mut wave = None;
    let started = Instant::now();
    for (w_idx, key, problem) in &order {
        if wave != Some(*w_idx) {
            for (_, a, until) in overlays.drain(..) {
                let e = published.entry(a).or_insert(until);
                *e = (*e).max(until);
            }
            wave = Some(*w_idx);
        }
        let t_wave = SimTime::ZERO + wave_len * (w_idx + 1);
        let held: Vec<Address> = problem
            .mentioned_addresses()
            .into_iter()
            .filter(|a| {
                hold > SimDuration::ZERO
                    && (published.get(a).is_some_and(|&e| e > t_wave)
                        || overlays.iter().any(|&(t, x, _)| t == key.0 && x == *a))
            })
            .collect();
        let reserved_world;
        let world = if held.is_empty() {
            &base
        } else {
            let mut w = base.clone();
            for &a in &held {
                reserve(&mut w, a);
            }
            reserved_world = w;
            &reserved_world
        };
        let elapsed = started.elapsed();
        if out.heuristic_us.is_empty() || elapsed < share {
            let t0 = spans.now_ns();
            let r = evaluate_query_scored(problem, world, &heur);
            let t1 = spans.now_ns();
            std::hint::black_box(r.0.len());
            spans.record("layer.heuristic", Some(root), t0, t1, Some(*key));
            out.heuristic_us.push((*key, (t1 - t0) as f64 / 1e3));
        }
        if w == Workload::SearchExhaustive && (out.exhaustive_us.is_empty() || elapsed < share * 2)
        {
            let t0 = spans.now_ns();
            let ok = exhaustive_search_in(problem, world, &exh_opts, &mut ws, &mut exh).is_ok();
            let t1 = spans.now_ns();
            std::hint::black_box((ok, exh.evaluated));
            spans.record("layer.exhaustive", Some(root), t0, t1, Some(*key));
            out.exhaustive_us.push((*key, (t1 - t0) as f64 / 1e3));
        }
        if w == Workload::SearchPacket && (out.pkt_ms.is_empty() || elapsed < share * 2) {
            let t0 = spans.now_ns();
            let r = pkt_search(problem, &mirror, &pkt_opts).map(|r| r.evaluated);
            let t1 = spans.now_ns();
            std::hint::black_box(r.ok());
            spans.record("layer.pktsearch", Some(root), t0, t1, Some(*key));
            out.pkt_ms.push((*key, (t1 - t0) as f64 / 1e6));
        }
        if let Ok(a) = &by_key[key].result {
            for v in &a.binding {
                if let Value::Addr(x) = v {
                    overlays.push((key.0, *x, t_wave + hold));
                }
            }
        }
    }

    // Saturation probe: each tenant's first query with all but two hosts
    // of its pool reserved, as a burst of back-to-back answers leaves it.
    if w == Workload::SearchExhaustive {
        let mut probed = HashSet::new();
        for (_, key, problem) in &order {
            if !probed.insert(key.0) {
                continue;
            }
            let mut pool = problem.mentioned_addresses();
            pool.sort_unstable_by_key(|a| a.0);
            let mut world = base.clone();
            for &a in &pool[..pool.len().saturating_sub(2)] {
                reserve(&mut world, a);
            }
            let answered =
                evaluate_query_scored(problem, &world, &heur).0.len() == problem.vars.len();
            let searched = exhaustive_search_in(problem, &world, &exh_opts, &mut ws, &mut exh);
            if answered && searched.is_err() {
                out.no_feasible += 1;
            }
        }
    }
    spans.end(root);
    out
}

//! The simulator workloads: two meshes of four worlds each, and the
//! paper's sweep.

use crate::probe::{self, Probe, TimedProtocol, TimedWorld, KINDS};
use crate::stats::{medians, Outcome, Values};
use crate::sys::cpu_seconds;
use crate::{Budget, SetupSamples};
use realtor_core::{FailureDetectorConfig, ProtocolConfig, ProtocolKind};
use realtor_net::{CostModel, LinkQuality, Routing, TargetingStrategy, Topology};
use realtor_runner::grid::run_grid_timed;
use realtor_runner::{GridCell, RunOpts, SweepGrid};
use realtor_sim::world::{Ev, World};
use realtor_sim::{Scenario, SimResult};
use realtor_simcore::rng::indexed_child_seed;
use realtor_simcore::stats::LogHistogram;
use realtor_simcore::{Engine, SimDuration, SimTime};
use realtor_workload::{AttackAction, AttackEvent, AttackScenario};
use std::time::Instant;

/// Offered load of the large meshes, tasks per node per simulated second:
/// with 5 s mean tasks, 80 % of every node's capacity.
const LAMBDA_PER_NODE: f64 = 0.16;

/// Queue capacity of the large meshes, simulated seconds. Short queues
/// reach the HELP threshold within seconds, so the run measures a steady
/// flood regime instead of a mesh still filling up, whose flood count
/// varies widely from seed to seed.
const MESH_CAPACITY_SECS: f64 = 20.0;

/// Worlds per repetition of a mesh workload, each on its own seed derived
/// from the run's: their sum varies less between seeds than one world.
const MESH_WORLDS: u64 = 4;

/// Worker threads of the sweep: the benchmark targets a 2-core machine.
const SWEEP_JOBS: usize = 2;

/// The paper's horizon for Figures 5–8, simulated seconds.
const PAPER_HORIZON_SECS: u64 = 10_000;

fn mesh(side: usize, horizon_secs: u64, seed: u64) -> Scenario {
    let topology = Topology::mesh(side, side);
    let lambda = LAMBDA_PER_NODE * topology.node_count() as f64;
    Scenario::paper(ProtocolKind::Realtor, lambda, horizon_secs, seed)
        .with_topology(topology)
        .with_capacity(MESH_CAPACITY_SECS)
}

/// 16×16 mesh, REALTOR, ideal channel: each HELP flood is one event that
/// reaches 255 nodes. The mesh stays small enough to be cache-friendly;
/// `METRICS.md` says why it is not 32×32.
fn mesh256_flood(seed: u64) -> Scenario {
    mesh(16, 600, seed)
}

/// Partition waves of the lossy mesh: every `PARTITION_PERIOD_SECS` from
/// the first period on, the mesh splits into `PARTITION_PARTS` regions for
/// `PARTITION_SECS`, then heals.
const PARTITION_PERIOD_SECS: u64 = 30;
const PARTITION_SECS: u64 = 15;
const PARTITION_PARTS: usize = 4;

/// 20×20 mesh, REALTOR, 5 % link loss, partition waves and the failure
/// detector. Nodes stay up, so every arrival meets a live node and no task
/// is lost or destroyed, while the detector watches peers that a
/// partition cuts off and routing is recomputed at every cut and heal.
fn mesh400_lossy_partition(seed: u64) -> Scenario {
    let detector = FailureDetectorConfig {
        suspect_after: SimDuration::from_secs(4),
        confirm_after: SimDuration::from_secs(2),
        sweep_interval: SimDuration::from_secs(1),
    };
    let horizon = 240;
    let mut waves = Vec::new();
    for start in (PARTITION_PERIOD_SECS..horizon).step_by(PARTITION_PERIOD_SECS as usize) {
        waves.push(AttackEvent {
            at: SimTime::from_secs(start),
            action: AttackAction::Partition {
                parts: PARTITION_PARTS,
            },
        });
        waves.push(AttackEvent {
            at: SimTime::from_secs(start + PARTITION_SECS),
            action: AttackAction::Heal,
        });
    }
    mesh(20, horizon, seed)
        .with_protocol_config(ProtocolConfig::paper().with_failure_detector(detector))
        .with_channel(LinkQuality::lossy(0.05))
        .with_attack(AttackScenario::new(waves), TargetingStrategy::Random)
}

/// The Figures 5–8 grid: every protocol × λ 1..10 on the paper's mesh.
fn paper_grid(seed: u64) -> SweepGrid {
    let lambdas: Vec<f64> = (1..=10).map(f64::from).collect();
    SweepGrid::new(seed)
        .with_protocols(&ProtocolKind::ALL)
        .with_lambdas(&lambdas)
}

fn paper_cell(cell: &GridCell) -> Scenario {
    Scenario::paper(cell.protocol, cell.lambda, PAPER_HORIZON_SECS, cell.seed)
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Set-up (world construction and priming) of one world, in seconds.
fn set_up(scenario: &Scenario) -> (World, Engine<Ev>, f64) {
    let start = Instant::now();
    let mut world = World::new(scenario);
    let mut engine = Engine::new();
    world.prime(&mut engine);
    (world, engine, secs(start))
}

/// Run a primed world to its horizon and finish it.
fn run_to_end(mut world: World, mut engine: Engine<Ev>, scenario: &Scenario) -> SimResult {
    engine.run_until(&mut world, scenario.horizon());
    world.finish(&engine)
}

/// Per-layer figures of one decorated world.
struct TracedWorld {
    result: SimResult,
    probe: Probe,
    values: Values,
}

/// Run one world with every layer timed from outside. The net and
/// workload constructors are timed in separate calls, because `World`
/// calls them internally.
fn traced_world(scenario: &Scenario) -> TracedWorld {
    let mut v = Values::new();
    let mut time = |name: &str, start: Instant| {
        *v.entry(name.to_string()).or_insert(0.0) += secs(start);
    };
    let topo = &scenario.topology;
    let start = Instant::now();
    let routing = Routing::new(topo);
    time("net.routing_new_s", start);
    let (unicast, flood) = scenario.cost.charges();
    let start = Instant::now();
    std::hint::black_box(CostModel::new(topo, &routing, unicast, flood));
    time("net.cost_model_new_s", start);
    let start = Instant::now();
    let tasks = std::hint::black_box(scenario.workload.generate())
        .records
        .len();
    time("workload.generate_s", start);

    let peers: Vec<_> = topo.nodes().collect();
    let (kind, cfg, capacity) = (
        scenario.protocol,
        scenario.protocol_config,
        scenario.capacity_secs,
    );
    let start = Instant::now();
    let mut world = World::with_protocols(scenario, &mut |node| {
        Box::new(TimedProtocol(kind.build(node, cfg, &peers, capacity)))
    });
    time("sim.world_new_s", start);
    let mut engine = Engine::new();
    let start = Instant::now();
    world.prime(&mut engine);
    time("sim.prime_s", start);
    probe::reset();
    let start = Instant::now();
    engine.run_until(&mut TimedWorld(&mut world), scenario.horizon());
    let run_s = secs(start);
    let probe = probe::snapshot();
    let start = Instant::now();
    let result = world.finish(&engine);
    time("sim.finish_s", start);
    let handle_s: f64 = probe.kind_ns.iter().map(|&ns| ns as f64 / 1e9).sum();
    v.insert("simcore.engine.self_s".into(), run_s - handle_s);
    v.insert("trace.run_s".into(), run_s);
    v.insert("workload.tasks".into(), tasks as f64);
    TracedWorld {
        result,
        probe,
        values: v,
    }
}

/// Aggregate simulated statistics of one repetition: one world's result,
/// or the cell-by-cell sum of a sweep.
struct Totals {
    offered: u64,
    admitted: u64,
    messages: f64,
    failed: u64,
}

impl Totals {
    fn of(results: &[SimResult]) -> Totals {
        Totals {
            offered: results.iter().map(|r| r.offered).sum(),
            admitted: results.iter().map(SimResult::admitted).sum(),
            messages: results.iter().map(SimResult::total_messages).sum(),
            failed: results
                .iter()
                .map(|r| r.lost_to_attacks + r.tasks_destroyed)
                .sum(),
        }
    }
}

/// A simulator workload: a few worlds run one after another, or the
/// paper's sweep of 50 worlds on the pool.
enum Des {
    Worlds(Vec<Scenario>),
    Sweep(SweepGrid),
}

/// One timed repetition without decorators.
struct PlainRep {
    results: Vec<SimResult>,
    /// (wall, CPU) seconds of each timed part: every world of a mesh, or
    /// the whole sweep.
    parts: Vec<(f64, f64)>,
    wall_s: f64,
    /// Σ over worlds of `run_until` + `finish`: the part a decorated
    /// repetition times too, which gives the tracing overhead its base.
    loop_s: f64,
    /// Per-cell wall time of a sweep, nanoseconds.
    cells: LogHistogram,
}

impl Des {
    fn new(workload: &str, seed: u64) -> Option<Des> {
        let worlds = |scenario: fn(u64) -> Scenario| {
            let seeds = (0..MESH_WORLDS).map(|i| indexed_child_seed(seed, "perfbench-world", i));
            Des::Worlds(seeds.map(scenario).collect())
        };
        Some(match workload {
            "mesh256_flood" => worlds(mesh256_flood),
            "mesh400_lossy_partition" => worlds(mesh400_lossy_partition),
            "paper_sweep" => Des::Sweep(paper_grid(seed)),
            _ => return None,
        })
    }

    fn sweep_opts() -> RunOpts {
        RunOpts {
            jobs: SWEEP_JOBS,
            progress: false,
        }
    }

    /// One set-up pass: every world the workload builds, constructed and
    /// primed, then dropped untimed.
    fn set_up_only(&self) -> f64 {
        match self {
            Des::Worlds(worlds) => worlds.iter().map(|s| set_up(s).2).sum(),
            Des::Sweep(grid) => grid.cells().iter().map(|c| set_up(&paper_cell(c)).2).sum(),
        }
    }

    /// One repetition, set-up untimed.
    fn plain(&self) -> PlainRep {
        match self {
            Des::Worlds(worlds) => {
                let mut rep = PlainRep {
                    results: Vec::new(),
                    parts: Vec::new(),
                    wall_s: 0.0,
                    loop_s: 0.0,
                    cells: LogHistogram::new(),
                };
                for s in worlds {
                    let (world, engine, _) = set_up(s);
                    let cpu = cpu_seconds();
                    let start = Instant::now();
                    rep.results.push(run_to_end(world, engine, s));
                    rep.parts.push((secs(start), cpu_seconds() - cpu));
                }
                rep.wall_s = rep.parts.iter().map(|p| p.0).sum();
                rep.loop_s = rep.wall_s;
                rep
            }
            Des::Sweep(grid) => {
                let cpu = cpu_seconds();
                let start = Instant::now();
                let (cells_out, cells) = run_grid_timed(grid, &Des::sweep_opts(), |cell| {
                    let s = paper_cell(cell);
                    let (world, engine, _) = set_up(&s);
                    let start = Instant::now();
                    let result = run_to_end(world, engine, &s);
                    (result, secs(start))
                });
                let (results, loops): (Vec<SimResult>, Vec<f64>) = cells_out.into_iter().unzip();
                let wall_s = secs(start);
                PlainRep {
                    parts: vec![(wall_s, cpu_seconds() - cpu)],
                    wall_s,
                    loop_s: loops.iter().sum(),
                    results,
                    cells,
                }
            }
        }
    }

    /// One decorated repetition: per-world results, the merged probe, and
    /// the per-layer timings summed over worlds.
    fn traced(&self) -> (Vec<SimResult>, Probe, Values) {
        let worlds = match self {
            Des::Worlds(worlds) => worlds.iter().map(traced_world).collect(),
            Des::Sweep(grid) => {
                run_grid_timed(grid, &Des::sweep_opts(), |cell| {
                    traced_world(&paper_cell(cell))
                })
                .0
            }
        };
        let mut probe = Probe::default();
        let mut values = Values::new();
        let mut results = Vec::new();
        for w in worlds {
            probe.merge(&w.probe);
            for (k, x) in w.values {
                *values.entry(k).or_insert(0.0) += x;
            }
            results.push(w.result);
        }
        (results, probe, values)
    }
}

/// Every repetition of one seed must simulate exactly the same thing.
fn check_same(out: &mut Outcome, what: &str, first: &[SimResult], again: &[SimResult]) {
    out.check(first == again, || {
        format!("{what}: SimResult differs from the first repetition of the seed")
    });
}

/// Run a simulator workload; `None` when `workload` is not one.
pub fn run(workload: &str, seed: u64, budget: &Budget, trace: bool) -> Option<Outcome> {
    let des = Des::new(workload, seed)?;
    let mut out = Outcome::default();
    Some(if trace {
        run_traced(&des, budget, &mut out);
        out
    } else {
        run_plain(&des, budget, &mut out);
        out
    })
}

fn run_plain(des: &Des, budget: &Budget, out: &mut Outcome) {
    let mut reps: Vec<Values> = Vec::new();
    let mut setups = SetupSamples::default();
    let mut first: Option<Vec<SimResult>> = None;
    while reps.len() < crate::MIN_REPS || !budget.spent() {
        setups.keep_pace(budget, || des.set_up_only());
        let rep = des.plain();
        for r in &rep.results {
            r.validate();
        }
        let totals = Totals::of(&rep.results);
        out.attempted += totals.offered;
        out.failed += totals.failed;
        match &first {
            None => first = Some(rep.results),
            Some(f) => check_same(out, "repeat", f, &rep.results),
        }
        let walls: Vec<String> = rep.parts.iter().map(|p| format!("{:.3}", p.0)).collect();
        eprintln!(
            "perfbench: repetition {}: wall {} s",
            reps.len() + 1,
            walls.join(" + ")
        );
        let mut parts = Values::new();
        for (i, (wall, cpu)) in rep.parts.iter().enumerate() {
            parts.insert(format!("wall.{i}"), *wall);
            parts.insert(format!("cpu.{i}"), *cpu);
        }
        reps.push(parts);
    }
    // Each part's median over repetitions, summed: a burst of contention
    // on a shared host then spoils one sample of a part, not the run.
    let parts = medians(&reps);
    for (metric, prefix) in [("wall_s", "wall."), ("cpu_s", "cpu.")] {
        out.set(
            metric,
            parts
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(_, v)| v)
                .sum(),
        );
    }
    out.set("setup_s", setups.median(|| des.set_up_only()));
    let totals = Totals::of(first.as_deref().expect("at least one repetition"));
    out.set(
        "admission_probability",
        totals.admitted as f64 / totals.offered as f64,
    );
    out.set(
        "messages_per_admitted",
        totals.messages / totals.admitted as f64,
    );
    out.set("peak_rss_mb", crate::sys::peak_rss_mb());
}

fn run_traced(des: &Des, budget: &Budget, out: &mut Outcome) {
    let mut plain_loops = Vec::new();
    let mut traced_loops = Vec::new();
    let mut layer_reps: Vec<Values> = Vec::new();
    let mut reference: Option<(PlainRep, Probe)> = None;
    let mut probe_counts: Option<Probe> = None;
    while traced_loops.len() < crate::MIN_REPS || !budget.spent() {
        let plain = des.plain();
        plain_loops.push(plain.loop_s);
        let (results, probe, mut values) = des.traced();
        traced_loops.push(values["trace.run_s"] + values["sim.finish_s"]);
        check_same(out, "decorated run", &plain.results, &results);
        let engine_events: u64 = plain.results.iter().map(|r| r.events_processed).sum();
        // Each world's prime processes one boot event outside the timed loop.
        out.check(
            probe.events() + plain.results.len() as u64 == engine_events,
            || {
                format!(
                    "decorated handler saw {} events, engine processed {engine_events}",
                    probe.events()
                )
            },
        );
        match &probe_counts {
            None => probe_counts = Some(probe.counts()),
            Some(c) => out.check(*c == probe.counts(), || {
                "handler call counts differ between repetitions".into()
            }),
        }
        for r in &results {
            r.validate();
        }
        let totals = Totals::of(&results);
        out.attempted += totals.offered;
        out.failed += totals.failed;
        let events = probe.events() as f64;
        let self_s = values["simcore.engine.self_s"];
        values.insert("simcore.engine.ns_per_event".into(), self_s * 1e9 / events);
        for (k, kind) in KINDS.iter().enumerate() {
            let self_ns = probe.kind_ns[k] - probe.kind_proto_ns[k];
            values.insert(format!("sim.handle.{kind}.self_s"), self_ns as f64 / 1e9);
        }
        values.insert(
            "sim.flood_deliver.loop_share".into(),
            probe.kind_ns[1] as f64 / 1e9 / values["trace.run_s"],
        );
        values.insert(
            "core.on_message.ns_per_call".into(),
            probe.on_message_ns as f64 / probe.on_message.max(1) as f64,
        );
        layer_reps.push(values);
        if reference.is_none() {
            reference = Some((plain, probe));
        }
    }
    let (plain, probe) = reference.expect("at least one repetition");
    let mut layers = medians(&layer_reps);
    layers.remove("trace.run_s");
    out.values.extend(layers);
    let plain_loop = crate::stats::median(&mut plain_loops);
    out.set(
        "trace.overhead_ratio",
        crate::stats::median(&mut traced_loops) / plain_loop,
    );
    counts(out, &plain, &probe, plain_loop);
}

/// The per-layer counts and ratios, which repeat exactly for one seed.
fn counts(out: &mut Outcome, plain: &PlainRep, p: &Probe, plain_loop: f64) {
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let results = &plain.results;
    let sum = |f: fn(&SimResult) -> u64| results.iter().map(f).sum::<u64>();
    out.set("simcore.engine.events", p.events() as f64);
    out.set(
        "simcore.engine.queue_high_water",
        results
            .iter()
            .map(|r| r.queue_high_water)
            .max()
            .unwrap_or(0) as f64,
    );
    for (k, kind) in KINDS.iter().enumerate() {
        out.set(&format!("sim.handle.{kind}.calls"), p.kind_calls[k] as f64);
    }
    out.set(
        "sim.flood_deliver.recipients_per_event",
        ratio(p.flood_recipients, p.kind_calls[1]),
    );

    out.set("core.on_message.calls", p.on_message as f64);
    out.set(
        "core.on_message.react_ratio",
        ratio(p.on_message_reacted, p.on_message),
    );
    out.set("core.on_timer.calls", p.on_timer as f64);
    out.set("core.on_usage_change.calls", p.on_usage_change as f64);
    out.set("core.on_task_arrival.calls", p.on_task_arrival as f64);
    out.set("core.pick_candidate.calls", p.pick_candidate as f64);
    out.set(
        "core.pick_candidate.hit_ratio",
        ratio(p.pick_hits, p.pick_candidate),
    );
    out.set("core.actions.flood", p.actions_flood as f64);
    out.set("core.actions.unicast", p.actions_unicast as f64);
    out.set(
        "core.handler_calls_per_s",
        p.proto_calls as f64 / plain_loop,
    );

    out.set("net.messages.help", sum(|r| r.ledger.help_count) as f64);
    out.set("net.messages.pledge", sum(|r| r.ledger.pledge_count) as f64);
    out.set("net.messages.push", sum(|r| r.ledger.push_count) as f64);
    out.set(
        "net.messages.migration",
        sum(|r| r.ledger.migration_count) as f64,
    );
    let lost = sum(|r| r.ledger.lost_count);
    out.set("net.messages.lost", lost as f64);
    out.set(
        "net.messages.duplicated",
        sum(|r| r.ledger.duplicated_count) as f64,
    );
    out.set(
        "net.delivery_ratio",
        ratio(p.on_message, p.on_message + lost),
    );

    out.set("node.admitted_local", sum(|r| r.admitted_local) as f64);
    out.set(
        "node.admitted_migrated",
        sum(|r| r.admitted_migrated) as f64,
    );
    out.set("node.rejected", sum(|r| r.rejected) as f64);
    out.set(
        "node.migration_success_ratio",
        ratio(
            sum(|r| r.migration_successes),
            sum(|r| r.migration_attempts),
        ),
    );
    let (interrupted, recovered) = (sum(|r| r.tasks_interrupted), sum(|r| r.tasks_recovered));
    out.set("node.tasks_interrupted", interrupted as f64);
    out.set("node.tasks_recovered", recovered as f64);
    out.set("node.tasks_destroyed", sum(|r| r.tasks_destroyed) as f64);
    out.set("node.recovered_fraction", ratio(recovered, interrupted));
    out.set(
        "node.recovery_attempts_per_recovered",
        ratio(sum(|r| r.recovery_attempts), recovered),
    );

    if !plain.cells.is_empty() {
        let c = &plain.cells;
        out.set("runner.cells", c.count() as f64);
        out.set("runner.cell_s.p50", c.quantile(0.5) as f64 / 1e9);
        out.set("runner.cell_s.max", c.max() as f64 / 1e9);
        out.set(
            "runner.pool.busy_ratio",
            c.sum() as f64 / 1e9 / (SWEEP_JOBS as f64 * plain.wall_s),
        );
    }
}

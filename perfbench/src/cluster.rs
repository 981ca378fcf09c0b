//! The live workload: the threaded Agile cluster under a crash wave.
//!
//! Closed loop, two client threads (the benchmark targets a 2-core
//! machine): each client submits a task to a seeded host, waits for the
//! admission outcome, thinks for a seeded exponential delay on the
//! cluster's scaled clock, and repeats until the horizon. A submission a
//! crashed host loses is resubmitted to another seeded host, as a client
//! of a replicated service fails over. The offered load is 0.8 of the
//! cluster's capacity before the wave. 30 % of the hosts crash at 40 % of the
//! horizon; the supervisor restarts them, and the plan's restore at 70 %
//! is the point by which they are expected back.

use crate::stats::{medians, rank_quantile, samples_beyond, tail_quantile, Outcome, Values};
use crate::sys::cpu_seconds;
use crate::{Budget, SetupSamples};
use realtor_agile::fault::run_faults;
use realtor_agile::{Cluster, ClusterConfig, ClusterReport, FaultPlan, FaultStyle, SubmitOutcome};
use realtor_simcore::rng::indexed_child_seed;
use realtor_simcore::stats::LogHistogram;
use realtor_simcore::{SimDuration, SimRng, SimTime};
use realtor_workload::attack::AttackScenario;
use std::time::{Duration, Instant};

/// The paper's cluster size.
const HOSTS: usize = 20;
/// Client threads.
const CLIENTS: usize = 2;
/// Simulated horizon of one repetition, seconds.
const HORIZON_SECS: u64 = 600;
/// Simulated seconds per wall second: one repetition lasts 3 s.
const TIME_SCALE: f64 = 200.0;
/// Mean task size, simulated seconds (the paper's workload).
const MEAN_SIZE_SECS: f64 = 5.0;
/// Host queue capacity, simulated seconds. With Figure 9's 50 s queues
/// two clients at this load almost never push a host past the HELP
/// threshold, so discovery traffic is a few bursts whose count varies
/// widely between seeds; 20 s queues keep it a steady exchange.
const CAPACITY_SECS: f64 = 20.0;
/// Offered load as a fraction of the cluster's capacity.
const LOAD: f64 = 0.8;
/// How long a client waits for one admission outcome.
const SUBMIT_TIMEOUT: Duration = Duration::from_secs(2);
/// Wall-clock budget to re-home one interrupted task: room for a try at
/// every host at the supervisor's negotiation timeout and backoff cap.
const RECOVERY_DEADLINE: Duration = Duration::from_secs(1);
/// Submissions of one task before the client gives it up as failed. A
/// crashed host is back within milliseconds, and 30 % of the hosts are
/// down at once, so ten tries all lost is not expected.
const CLIENT_TRIES: u32 = 10;

fn config(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig {
        hosts: HOSTS,
        time_scale: TIME_SCALE,
        seed,
        ..Default::default()
    };
    cfg.host.capacity_secs = CAPACITY_SECS;
    // Work interrupted by the crash wave may try every host before it is
    // given up: with the default three tries, two runs in eight destroyed
    // a task that three hosts in a row had refused.
    cfg.supervisor.recovery.max_tries = HOSTS as u32;
    cfg.supervisor.recovery_deadline = RECOVERY_DEADLINE;
    cfg
}

/// What the clients saw in one repetition.
#[derive(Default)]
struct Clients {
    /// Wall-clock `submit_sync` latency of each admitted task, ns.
    admitted_ns: Vec<u64>,
    /// Tasks the clients offered, each counted once however often it was
    /// submitted.
    tasks: u64,
    /// Tasks whose every submission was `Lost`.
    lost: u64,
    /// Submissions repeated because the one before was `Lost`.
    resubmits: u64,
    /// Simulated instants of admitted submissions, for time-to-recovery.
    admitted_at: Vec<f64>,
}

fn client(cluster: &Cluster, seed: u64, id: u64, end: SimTime) -> Clients {
    let mut rng = SimRng::indexed_stream(seed, "perfbench-client", id);
    // Each client cycles think + submit; this think time offers LOAD of
    // the hosts' aggregate capacity.
    let think_mean = CLIENTS as f64 * MEAN_SIZE_SECS / (LOAD * HOSTS as f64);
    let clock = cluster.clock();
    let mut seen = Clients::default();
    while clock.now() < end {
        let at = clock.now().as_secs_f64();
        let size = rng.exp(MEAN_SIZE_SECS).clamp(0.5, 25.0);
        seen.tasks += 1;
        let begun = Instant::now();
        let mut outcome = SubmitOutcome::Lost;
        for try_no in 0..CLIENT_TRIES {
            seen.resubmits += u64::from(try_no > 0);
            outcome = cluster.submit_sync(rng.index(HOSTS), size, SUBMIT_TIMEOUT);
            if outcome != SubmitOutcome::Lost {
                break;
            }
        }
        let ns = begun.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        match outcome {
            SubmitOutcome::AdmittedLocal | SubmitOutcome::AdmittedMigrated => {
                seen.admitted_ns.push(ns);
                seen.admitted_at.push(at);
            }
            SubmitOutcome::Rejected => {}
            SubmitOutcome::Lost => seen.lost += 1,
        }
        let think = rng.exp(think_mean).max(0.01);
        clock.sleep_until(clock.now() + SimDuration::from_secs_f64(think));
    }
    seen
}

/// One repetition's measurements.
struct Rep {
    report: ClusterReport,
    clients: Clients,
    values: Values,
    /// The cluster went quiet before shutdown.
    quiet: bool,
    /// The Cluster API calls were timed.
    traced: bool,
}

/// Seconds after the crash until the cumulative admission rate is back
/// within 10 % of the pre-crash rate, in 10 s steps; the horizon's
/// remainder when it never is.
fn time_to_recovery(admitted_at: &[f64], kill_at: f64) -> f64 {
    const STEP: f64 = 10.0;
    let count =
        |from: f64, to: f64| admitted_at.iter().filter(|&&t| t >= from && t < to).count() as f64;
    let baseline = count(STEP, kill_at) / (kill_at - STEP);
    let mut boundary = kill_at + STEP;
    while boundary <= HORIZON_SECS as f64 {
        if count(kill_at, boundary) / (boundary - kill_at) >= 0.9 * baseline {
            return boundary - kill_at;
        }
        boundary += STEP;
    }
    HORIZON_SECS as f64 - kill_at
}

fn repetition(seed: u64, trace: bool) -> Rep {
    let kill_at = SimTime::from_secs(HORIZON_SECS * 2 / 5);
    let restore_at = SimTime::from_secs(HORIZON_SECS * 7 / 10);
    let attack = AttackScenario::strike_and_recover(kill_at, restore_at, HOSTS * 3 / 10);
    let plan = FaultPlan::from_attack(&attack, HOSTS, seed);
    let end = SimTime::from_secs(HORIZON_SECS);
    let mut values = Values::new();

    let cluster = Cluster::start(&config(seed));

    let cpu = cpu_seconds();
    let start = Instant::now();
    let clients = std::thread::scope(|s| {
        let faults = s.spawn(|| run_faults(&cluster, &plan, FaultStyle::Crash));
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|id| {
                let cluster = &cluster;
                s.spawn(move || client(cluster, seed, id, end))
            })
            .collect();
        faults.join().expect("fault thread");
        let mut all = Clients::default();
        for h in handles {
            let c = h.join().expect("client thread");
            all.admitted_ns.extend(c.admitted_ns);
            all.admitted_at.extend(c.admitted_at);
            all.tasks += c.tasks;
            all.lost += c.lost;
            all.resubmits += c.resubmits;
        }
        all
    });
    let quiesce = Instant::now();
    let quiet = cluster.quiesce(Duration::from_millis(10), Duration::from_secs(30));
    values.insert("agile.quiesce_s".into(), quiesce.elapsed().as_secs_f64());
    if trace {
        let mut snapshots: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(cluster.metrics_snapshot().to_prometheus_text());
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        values.insert(
            "agile.metrics_snapshot_ms".into(),
            crate::stats::median(&mut snapshots),
        );
    }
    let shutdown = Instant::now();
    let report = cluster.shutdown();
    values.insert("agile.shutdown_s".into(), shutdown.elapsed().as_secs_f64());
    values.insert("wall_s".into(), start.elapsed().as_secs_f64());
    values.insert("cpu_s".into(), cpu_seconds() - cpu);
    values.insert(
        "agile.time_to_recovery_s".into(),
        time_to_recovery(&clients.admitted_at, kill_at.as_secs_f64()),
    );
    Rep {
        report,
        clients,
        values,
        quiet,
        traced: trace,
    }
}

/// A set-up-only pass: start the cluster, then shut it down untimed.
fn set_up_only(seed: u64) -> f64 {
    let start = Instant::now();
    let cluster = Cluster::start(&config(seed));
    let s = start.elapsed().as_secs_f64();
    cluster.shutdown();
    s
}

/// Run the cluster workload.
pub fn run(seed: u64, budget: &Budget, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut setups = SetupSamples::default();
    while reps.len() < crate::MIN_REPS || !budget.spent() {
        setups.keep_pace(budget, || set_up_only(seed));
        // Each repetition gets its own seed, derived from the run's. A
        // traced run alternates plain and traced repetitions, which gives
        // the tracing overhead its base.
        let i = reps.len() as u64;
        let rep = repetition(
            indexed_child_seed(seed, "perfbench-cluster", i),
            trace && i % 2 == 1,
        );
        out.check(rep.quiet, || "cluster failed to quiesce".into());
        if let Err(e) = rep.report.validate() {
            out.check(false, || format!("cluster report: {e}"));
        }
        reps.push(rep);
    }
    let setup_s = setups.median(|| set_up_only(seed));

    let total = |f: fn(&ClusterReport) -> u64| reps.iter().map(|r| f(&r.report)).sum::<u64>();
    let admitted = total(ClusterReport::admitted);
    let clients = |f: fn(&Clients) -> u64| reps.iter().map(|r| f(&r.clients)).sum::<u64>();
    out.attempted = clients(|c| c.tasks);
    out.failed = clients(|c| c.lost) + total(|r| r.destroyed);
    let messages = total(|r| r.helps_sent) + total(|r| r.datagrams_sent);

    let mut latencies: Vec<u64> = reps
        .iter()
        .flat_map(|r| r.clients.admitted_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    out.check(samples_beyond(latencies.len(), 0.9) >= 10, || {
        format!(
            "only {} admitted samples: too few beyond p90",
            latencies.len()
        )
    });
    let ms = |ns: u64| ns as f64 / 1e6;
    let measured = medians(&reps.iter().map(|r| r.values.clone()).collect::<Vec<_>>());

    if !trace {
        for name in ["wall_s", "cpu_s"] {
            out.set(name, measured[name]);
        }
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", crate::sys::peak_rss_mb());
        // Per task, as the clients saw it: a task whose first submission a
        // crashed host lost counts once, with the outcome of its last try.
        let admitted_tasks = clients(|c| c.admitted_ns.len() as u64);
        out.set(
            "admission_probability",
            admitted_tasks as f64 / out.attempted as f64,
        );
        out.set("messages_per_admitted", messages as f64 / admitted as f64);
        return out;
    }

    for name in [
        "agile.quiesce_s",
        "agile.shutdown_s",
        "agile.metrics_snapshot_ms",
        "agile.time_to_recovery_s",
    ] {
        out.set(name, measured[name]);
    }
    let wall = |traced: bool| {
        let mut xs: Vec<f64> = reps
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.values["wall_s"])
            .collect();
        crate::stats::median(&mut xs)
    };
    out.set("trace.overhead_ratio", wall(true) / wall(false));
    out.set("agile.start_s", setup_s);
    if !latencies.is_empty() {
        out.set(
            "agile.client_latency.p50_ms",
            ms(rank_quantile(&latencies, 0.5)),
        );
        out.set(
            "agile.client_latency.p90_ms",
            ms(rank_quantile(&latencies, 0.9)),
        );
        if let Some(q) = tail_quantile(latencies.len()) {
            out.set("agile.client_latency.tail_q", q);
            out.set(
                "agile.client_latency.tail_ms",
                ms(rank_quantile(&latencies, q)),
            );
        }
    }
    out.set("agile.client_latency.samples", latencies.len() as f64);
    let mut host = LogHistogram::new();
    let mut recovery = LogHistogram::new();
    for r in &reps {
        host.merge(&r.report.admission_latency_ns);
        recovery.merge(&r.report.recovery_latency_ns);
    }
    out.set(
        "agile.host_admission_latency.p50_ms",
        ms(host.quantile(0.5)),
    );
    out.set("agile.recovery_latency.p50_ms", ms(recovery.quantile(0.5)));
    out.set(
        "agile.datagrams_per_admitted",
        total(|r| r.datagrams_sent) as f64 / admitted as f64,
    );
    out.set("agile.client_resubmits", clients(|c| c.resubmits) as f64);
    out.set("agile.shed_datagrams", total(|r| r.shed_datagrams) as f64);
    out.set("agile.shed_admissions", total(|r| r.shed_admissions) as f64);
    out.set(
        "agile.negotiation_retries",
        total(|r| r.negotiation_retries) as f64,
    );
    out.set("agile.recovery_tries", total(|r| r.recovery_tries) as f64);
    out.set("agile.restarts", total(|r| r.restarts) as f64);
    out.set(
        "agile.mailbox_high_water.max",
        reps.iter()
            .flat_map(|r| r.report.mailbox_high_water.iter().copied())
            .max()
            .unwrap_or(0) as f64,
    );
    let (interrupted, recovered) = (total(|r| r.interrupted), total(|r| r.recovered));
    out.set(
        "agile.recovered_fraction",
        if interrupted == 0 {
            0.0
        } else {
            recovered as f64 / interrupted as f64
        },
    );
    out
}

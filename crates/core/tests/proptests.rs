//! Property-based tests for the protocol building blocks, on the in-tree
//! `check` harness.

use realtor_core::community::SoftStateTable;
use realtor_core::config::{CandidatePolicy, ProtocolConfig};
use realtor_core::help::{HelpController, HelpDecision, HelpMode};
use realtor_core::pledge::{AvailabilityStore, Crossing, PledgePolicy};
use realtor_simcore::prelude::*;
use realtor_simcore::{prop_assert, prop_assert_eq, prop_assert_ne};
use std::collections::BTreeMap;

fn cfg() -> ProtocolConfig {
    ProtocolConfig::paper()
}

/// Algorithm H invariant: the HELP interval always stays within
/// `(0, Upper_limit]` no matter what sequence of arrivals, timeouts and
/// pledges occurs.
#[test]
fn help_interval_always_bounded() {
    forall(
        "help_interval_always_bounded",
        0xC04E01,
        256,
        |r| gen::vec(r, 1, 300, |r| gen::u8_in(r, 0, 4)),
        |ops| {
            let c = cfg();
            let mut h = HelpController::new(&c, HelpMode::Adaptive);
            let mut now = 0.0f64;
            let mut pending: Option<u64> = None;
            for &op in ops {
                now += 0.37;
                match op {
                    0 => {
                        if let HelpDecision::SendHelp { timer_gen, .. } =
                            h.on_task_arrival(SimTime::from_secs_f64(now), 0.95)
                        {
                            pending = Some(timer_gen);
                        }
                    }
                    1 => {
                        if let Some(g) = pending.take() {
                            h.on_timeout(g);
                        }
                    }
                    2 => h.on_pledge(true),
                    _ => h.on_pledge(false),
                }
                prop_assert!(!h.interval().is_zero(), "interval hit zero");
                prop_assert!(
                    h.interval() <= c.upper_limit,
                    "interval exceeded Upper_limit: {:?}",
                    h.interval()
                );
            }
            Ok(())
        },
    );
}

/// Algorithm H never sends two HELPs within one interval (adaptive mode),
/// regardless of arrival pattern.
#[test]
fn help_sends_respect_interval() {
    forall(
        "help_sends_respect_interval",
        0xC04E02,
        256,
        |r| gen::vec(r, 1, 200, |r| gen::f64_in(r, 0.0, 3.0)),
        |gaps| {
            let mut h = HelpController::new(&cfg(), HelpMode::Adaptive);
            let mut now = 0.0;
            let mut last_sent: Option<(f64, f64)> = None; // (time, interval_at_send)
            for &gap in gaps {
                now += gap;
                let interval_before = h.interval().as_secs_f64();
                if let HelpDecision::SendHelp { .. } =
                    h.on_task_arrival(SimTime::from_secs_f64(now), 0.99)
                {
                    if let Some((prev, int_at_prev)) = last_sent {
                        prop_assert!(
                            now - prev > int_at_prev - 1e-9,
                            "HELP at {now} too soon after {prev} (interval {int_at_prev})"
                        );
                    }
                    last_sent = Some((now, interval_before));
                }
            }
            Ok(())
        },
    );
}

/// Algorithm P: crossings strictly alternate busy/free.
#[test]
fn crossings_alternate() {
    forall(
        "crossings_alternate",
        0xC04E03,
        256,
        |r| gen::vec(r, 1, 500, |r| gen::f64_in(r, 0.0, 1.0)),
        |fracs| {
            let mut p = PledgePolicy::new(&cfg(), 0.0);
            let mut last: Option<Crossing> = None;
            for &f in fracs {
                if let Some(c) = p.observe(f) {
                    if let Some(prev) = last {
                        prop_assert_ne!(prev, c, "two consecutive identical crossings");
                    }
                    last = Some(c);
                }
            }
            Ok(())
        },
    );
}

/// The number of crossings equals the number of true sign changes of
/// (frac >= threshold) in the input sequence.
#[test]
fn crossing_count_matches_sign_changes() {
    forall(
        "crossing_count_matches_sign_changes",
        0xC04E04,
        256,
        |r| gen::vec(r, 1, 300, |r| gen::f64_in(r, 0.0, 1.0)),
        |fracs| {
            let c = cfg();
            let mut p = PledgePolicy::new(&c, 0.0);
            let mut crossings = 0usize;
            let mut side = false; // starts below
            let mut expected = 0usize;
            for &f in fracs {
                if p.observe(f).is_some() {
                    crossings += 1;
                }
                let s = f >= c.pledge_threshold;
                if s != side {
                    expected += 1;
                    side = s;
                }
            }
            prop_assert_eq!(crossings, expected);
            Ok(())
        },
    );
}

/// AvailabilityStore::pick never returns the excluded node, a node with
/// insufficient reported headroom, or a stale report.
#[test]
fn store_pick_is_sound() {
    forall(
        "store_pick_is_sound",
        0xC04E05,
        256,
        |r| {
            (
                gen::vec(r, 0, 60, |r| {
                    (
                        gen::usize_in(r, 0, 20),
                        gen::f64_in(r, 0.0, 100.0),
                        gen::u64_in(r, 0, 100),
                    )
                }),
                gen::f64_in(r, 0.0, 100.0),
                gen::usize_in(r, 0, 20),
                gen::u64_in(r, 1, 200),
            )
        },
        |(reports, need, exclude, ttl_secs)| {
            let (need, exclude, ttl_secs) = (*need, *exclude, *ttl_secs);
            let mut s = AvailabilityStore::new();
            for &(n, h, t) in reports {
                s.record(n, h, SimTime::from_secs(t));
            }
            let now = SimTime::from_secs(100);
            let ttl = Some(SimDuration::from_secs(ttl_secs));
            for policy in [
                CandidatePolicy::MostHeadroom,
                CandidatePolicy::Freshest,
                CandidatePolicy::FirstFit,
            ] {
                if let Some(n) = s.pick(now, need, ttl, exclude, policy) {
                    prop_assert_ne!(n, exclude);
                    let r = s.get(n).unwrap();
                    prop_assert!(r.headroom_secs >= need);
                    prop_assert!(now.since(r.at) <= SimDuration::from_secs(ttl_secs));
                }
            }
            Ok(())
        },
    );
}

/// MostHeadroom pick dominates all other eligible candidates.
#[test]
fn most_headroom_is_maximal() {
    forall(
        "most_headroom_is_maximal",
        0xC04E06,
        256,
        |r| {
            (
                gen::vec(r, 1, 40, |r| (gen::usize_in(r, 0, 20), gen::f64_in(r, 0.0, 100.0))),
                gen::f64_in(r, 0.0, 50.0),
            )
        },
        |(reports, need)| {
            let mut s = AvailabilityStore::new();
            let t = SimTime::from_secs(1);
            for &(n, h) in reports {
                s.record(n, h, t);
            }
            if let Some(best) = s.pick(t, *need, None, usize::MAX, CandidatePolicy::MostHeadroom) {
                let best_h = s.get(best).unwrap().headroom_secs;
                for &(n, _) in reports {
                    if let Some(r) = s.get(n) {
                        prop_assert!(r.headroom_secs <= best_h);
                    }
                }
            }
            Ok(())
        },
    );
}

/// One step of a soft-state history: `(op, id, clock step in ticks)`.
/// The clock moves before the op; a negative step models a wall clock
/// that went back. Ops: 0 refresh, 1 remove, 2 remove then refresh at the
/// same instant, 3 purge, 4 count, 5 is_live, 6 live listing.
type SoftOp = (u8, u8, i64);

const SOFT_TTL: u64 = 20;

fn soft_op(r: &mut SimRng) -> SoftOp {
    let step = match gen::u8_in(r, 0, 100) {
        0..=34 => 0,                                 // same instant
        35..=79 => gen::i64_in(r, 1, 8),             // within the TTL
        80..=91 => gen::i64_in(r, 21, 60),           // past the TTL
        _ => gen::i64_in(r, -30, 0),                 // clock steps back
    };
    (gen::u8_in(r, 0, 7), gen::u8_in(r, 0, 24), step)
}

/// The soft-state table agrees with a naive `BTreeMap` of refresh times
/// on every refresh/remove/purge/count/is_live/live, on any clock. The
/// debug-build cross-check inside `count` runs too; its panic is turned
/// into a failure so the case seed is still reported.
#[test]
fn soft_state_table_matches_naive_oracle() {
    forall(
        "soft_state_table_matches_naive_oracle",
        0x50F7_57A7E,
        512,
        |r| gen::vec(r, 1, 200, soft_op),
        |ops| {
            std::panic::catch_unwind(|| soft_state_history(ops)).unwrap_or_else(|panic| {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied());
                Err(format!("table panicked: {}", msg.unwrap_or("?")))
            })
        },
    );
}

fn soft_state_history(ops: &[SoftOp]) -> PropResult {
    let ttl = SimDuration::from_ticks(SOFT_TTL);
    let mut table = SoftStateTable::new(ttl);
    let mut oracle: BTreeMap<usize, u64> = BTreeMap::new();
    let live_at = |t: u64, now: u64| now.saturating_sub(t) <= SOFT_TTL;
    let mut now = 100u64;
    let mut latest = now;
    for &(op, id, step) in ops {
        now = now.saturating_add_signed(step);
        latest = latest.max(now);
        let (id, at) = (id as usize, SimTime::from_ticks(now));
        match op {
            0 | 2 => {
                if op == 2 {
                    table.remove(id);
                    oracle.remove(&id);
                }
                let joined = table.refresh(id, at);
                prop_assert_eq!(joined, oracle.insert(id, now).is_none());
            }
            1 => {
                table.remove(id);
                oracle.remove(&id);
            }
            3 => {
                let before = oracle.len();
                oracle.retain(|_, &mut t| live_at(t, now));
                prop_assert_eq!(table.purge_expired(at), before - oracle.len());
            }
            4 => {
                let want = oracle.values().filter(|&&t| live_at(t, now)).count();
                prop_assert_eq!(table.count(at) as usize, want, "count at {}", now);
            }
            5 => {
                let want = oracle.get(&id).is_some_and(|&t| live_at(t, now));
                prop_assert_eq!(table.is_live(id, at), want);
            }
            _ => {
                let want: Vec<usize> = oracle
                    .iter()
                    .filter(|&(_, &t)| live_at(t, now))
                    .map(|(&id, _)| id)
                    .collect();
                prop_assert_eq!(table.live(at).collect::<Vec<_>>(), want);
            }
        }
    }
    // Once every entry has expired the count is zero and a purge empties
    // the table, however the clock wandered before.
    let end = SimTime::from_ticks(latest + SOFT_TTL + 1);
    prop_assert_eq!(table.count(end), 0);
    prop_assert_eq!(table.live(end).count(), 0);
    prop_assert_eq!(table.purge_expired(end), oracle.len());
    prop_assert_eq!(table.count(SimTime::ZERO), 0, "purged entries are gone");
    Ok(())
}

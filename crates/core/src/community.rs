//! Community membership — the soft state at the heart of REALTOR.
//!
//! From the paper (Section 4): each host owns one community (the set of
//! nodes able to receive its migrating components) and is a member of
//! several others. *"The membership of a node in a community is valid only
//! for the interval between two consecutive refresh messages"* — HELP floods
//! act as the refresh. A member that has pledged keeps sending unsolicited
//! PLEDGE updates (threshold crossings) to the organizer until the
//! membership expires; an organizer that stops sending HELP lets its
//! community disband naturally.
//!
//! Both sides of that relation are the same structure, a
//! [`SoftStateTable`]: the communities a host is a *member* of (keyed by
//! organizer, refreshed by each HELP) and the community it *owns* (keyed
//! by member, refreshed by each PLEDGE).

use realtor_net::NodeId;
use realtor_simcore::{SimDuration, SimTime};
use std::cell::Cell;

/// Link sentinel: the end of the recency list.
const NIL: u32 = u32::MAX;
/// `prev` sentinel: the slot holds no entry.
const ABSENT: u32 = u32::MAX - 1;

/// One id-indexed slot: the entry's last refresh time and its links in the
/// recency list. 16 bytes, the size of the `Option<SimTime>` it replaces.
#[derive(Debug, Clone, Copy)]
struct Slot {
    at: SimTime,
    prev: u32,
    next: u32,
}

const EMPTY: Slot = Slot {
    at: SimTime::ZERO,
    prev: ABSENT,
    next: NIL,
};

impl Slot {
    fn is_present(&self) -> bool {
        self.prev != ABSENT
    }
}

/// A TTL-expiring set of peers keyed by node id: an entry is *live* at
/// `now` while `now` is at most `ttl` after its last refresh.
///
/// Entries stay in the table after they expire (a refresh of an expired
/// entry is not a new join) until [`SoftStateTable::purge_expired`] or
/// [`SoftStateTable::remove`] drops them.
///
/// Cost contract (N = entries): `refresh`, `remove` and `is_live` are O(1);
/// `count` is amortized O(1); `purge_expired` is O(expired); the listing
/// [`SoftStateTable::live`] walks the id slots in id order. The slots are
/// threaded into a recency list ordered by refresh time, and an expiry
/// cursor into that list separates the entries known to have expired by the
/// latest swept instant from the live ones. A count at a later instant
/// moves the cursor forward past the entries that expired in between, each
/// of which it passes at most once per refresh.
///
/// The list stays sorted on any clock. A refresh dated before the newest
/// entry (a wall clock that stepped back) is placed by walking back from
/// the newest end; a count dated before the swept instant falls back to
/// the exact full scan. Debug builds check every incremental count against
/// that scan.
#[derive(Debug, Clone)]
pub struct SoftStateTable {
    slots: Vec<Slot>,
    /// Ends of the recency list: least and most recently refreshed.
    oldest: u32,
    newest: u32,
    ttl: SimDuration,
    joins: u64,
    /// The expiry cursor, kept in cells so a count through `&self` can
    /// advance it: the first entry of the recency list still live at
    /// `swept_to` (NIL when none is), and how many entries it and the ones
    /// after it are.
    first_live: Cell<u32>,
    live: Cell<u32>,
    swept_to: Cell<SimTime>,
}

impl SoftStateTable {
    /// Create a table whose entries expire `ttl` after their last refresh.
    pub fn new(ttl: SimDuration) -> Self {
        SoftStateTable {
            slots: Vec::new(),
            oldest: NIL,
            newest: NIL,
            ttl,
            joins: 0,
            first_live: Cell::new(NIL),
            live: Cell::new(0),
            swept_to: Cell::new(SimTime::ZERO),
        }
    }

    fn expired(&self, at: SimTime, now: SimTime) -> bool {
        now.since(at) > self.ttl
    }

    /// Record a refresh of `id` at `now` (a HELP from an organizer, a
    /// PLEDGE from a member), adding the entry or extending an existing
    /// one. Returns `true` when this was a *new* entry (none existed,
    /// expired or not) rather than a refresh.
    pub fn refresh(&mut self, id: NodeId, now: SimTime) -> bool {
        assert!(id < ABSENT as usize, "node id {id} out of range");
        if id >= self.slots.len() {
            self.slots.resize(id + 1, EMPTY);
        }
        let new_entry = !self.slots[id].is_present();
        if new_entry {
            self.joins += 1;
        } else {
            self.unlink(id as u32);
        }
        self.link_sorted(id as u32, now);
        new_entry
    }

    /// Lifetime count of *new* entries (a refresh of an existing entry
    /// does not count; re-adding after remove/purge does). Survives TTL
    /// expiry of the entries themselves — used to observe that a restored
    /// node actually re-joined communities after amnesia.
    pub fn lifetime_joins(&self) -> u64 {
        self.joins
    }

    /// Drop `id` immediately (e.g. the peer was observed dead) rather than
    /// waiting for it to age out.
    pub fn remove(&mut self, id: NodeId) {
        if self.slots.get(id).is_some_and(Slot::is_present) {
            self.unlink(id as u32);
        }
    }

    /// Is `id` live at `now`?
    pub fn is_live(&self, id: NodeId, now: SimTime) -> bool {
        self.slots
            .get(id)
            .is_some_and(|s| s.is_present() && !self.expired(s.at, now))
    }

    /// Ids live at `now`, in id order. Expired entries are skipped (and can
    /// be dropped with [`SoftStateTable::purge_expired`]).
    pub fn live(&self, now: SimTime) -> impl Iterator<Item = NodeId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.is_present() && !self.expired(s.at, now))
            .map(|(id, _)| id)
    }

    /// Number of entries live at `now` — the `number of communities` field
    /// of a PLEDGE and the `number of current members` field of a HELP.
    pub fn count(&self, now: SimTime) -> u32 {
        if now < self.swept_to.get() {
            return self.scan_count(now);
        }
        self.swept_to.set(now);
        let mut cur = self.first_live.get();
        let mut live = self.live.get();
        while cur != NIL && self.expired(self.slots[cur as usize].at, now) {
            cur = self.slots[cur as usize].next;
            live -= 1;
        }
        self.first_live.set(cur);
        self.live.set(live);
        debug_assert_eq!(live, self.scan_count(now), "incremental count drifted");
        live
    }

    fn scan_count(&self, now: SimTime) -> u32 {
        self.live(now).count() as u32
    }

    /// Drop the entries expired at `now`; returns how many were removed.
    /// They are the oldest end of the recency list, so this costs
    /// O(removed).
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        let mut removed = 0;
        while self.oldest != NIL && self.expired(self.slots[self.oldest as usize].at, now) {
            self.unlink(self.oldest);
            removed += 1;
        }
        removed
    }

    /// Take the present entry `id` out of the recency list and free its
    /// slot, keeping the expiry cursor exact.
    fn unlink(&mut self, id: u32) {
        let Slot { at, prev, next } = self.slots[id as usize];
        if !self.expired(at, self.swept_to.get()) {
            self.live.set(self.live.get() - 1);
        }
        if self.first_live.get() == id {
            self.first_live.set(next);
        }
        match prev {
            NIL => self.oldest = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.newest = prev,
            n => self.slots[n as usize].prev = prev,
        }
        self.slots[id as usize] = EMPTY;
    }

    /// Insert the free slot `id` into the recency list at refresh time
    /// `at`: after every entry refreshed at or before `at`. On a monotone
    /// clock that is the newest end, found without walking.
    fn link_sorted(&mut self, id: u32, at: SimTime) {
        let mut prev = self.newest;
        while prev != NIL && self.slots[prev as usize].at > at {
            prev = self.slots[prev as usize].prev;
        }
        let next = match prev {
            NIL => std::mem::replace(&mut self.oldest, id),
            p => std::mem::replace(&mut self.slots[p as usize].next, id),
        };
        match next {
            NIL => self.newest = id,
            n => self.slots[n as usize].prev = id,
        }
        self.slots[id as usize] = Slot { at, prev, next };
        // The list is sorted and expiry is monotone in `at`, so a live
        // entry either lies after the cursor or becomes it (every entry
        // after it is refreshed later and is live too).
        if !self.expired(at, self.swept_to.get()) {
            self.live.set(self.live.get() + 1);
            if self.first_live.get() == next {
                self.first_live.set(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TTL: SimDuration = SimDuration::from_secs(100);

    fn live(t: &SoftStateTable, now: SimTime) -> Vec<NodeId> {
        t.live(now).collect()
    }

    #[test]
    fn entry_expires_after_ttl() {
        let mut m = SoftStateTable::new(TTL);
        m.refresh(7, SimTime::from_secs(0));
        assert!(m.is_live(7, SimTime::from_secs(100)));
        assert!(!m.is_live(7, SimTime::from_secs(101)));
        assert_eq!(m.count(SimTime::from_secs(50)), 1);
        assert_eq!(m.count(SimTime::from_secs(200)), 0);
    }

    #[test]
    fn refresh_extends_entry() {
        let mut m = SoftStateTable::new(TTL);
        m.refresh(7, SimTime::from_secs(0));
        m.refresh(7, SimTime::from_secs(90));
        assert!(m.is_live(7, SimTime::from_secs(150)));
        assert_eq!(m.count(SimTime::from_secs(150)), 1);
    }

    #[test]
    fn live_lists_only_live_entries_in_id_order() {
        let mut m = SoftStateTable::new(TTL);
        m.refresh(1, SimTime::from_secs(0));
        m.refresh(9, SimTime::from_secs(150));
        m.refresh(2, SimTime::from_secs(150));
        assert_eq!(live(&m, SimTime::from_secs(160)), vec![2, 9]);
        m.purge_expired(SimTime::from_secs(160));
        assert_eq!(m.count(SimTime::from_secs(160)), 2);
    }

    #[test]
    fn remove_is_immediate() {
        let mut m = SoftStateTable::new(TTL);
        m.refresh(1, SimTime::ZERO);
        m.remove(1);
        assert!(!m.is_live(1, SimTime::ZERO));
        assert_eq!(m.count(SimTime::ZERO), 0);
        m.remove(1);
        m.remove(40);
    }

    #[test]
    fn lifetime_joins_counts_distinct_joins_not_refreshes() {
        let mut m = SoftStateTable::new(TTL);
        assert_eq!(m.lifetime_joins(), 0);
        assert!(m.refresh(1, SimTime::ZERO), "first contact is a join");
        assert!(!m.refresh(1, SimTime::from_secs(5)), "refresh, not a new join");
        assert!(m.refresh(2, SimTime::ZERO));
        assert_eq!(m.lifetime_joins(), 2);
        m.remove(1);
        assert!(m.refresh(1, SimTime::from_secs(10)), "rejoin after leaving");
        assert_eq!(m.lifetime_joins(), 3);
    }

    #[test]
    fn expired_entry_is_refreshed_not_rejoined_until_purged() {
        let mut m = SoftStateTable::new(TTL);
        m.refresh(1, SimTime::ZERO);
        assert_eq!(m.count(SimTime::from_secs(200)), 0);
        assert!(!m.refresh(1, SimTime::from_secs(200)));
        assert_eq!(m.count(SimTime::from_secs(200)), 1);
        assert_eq!(m.purge_expired(SimTime::from_secs(400)), 1);
        assert!(m.refresh(1, SimTime::from_secs(400)));
    }

    #[test]
    fn purge_reports_how_many_expired() {
        let mut m = SoftStateTable::new(TTL);
        m.refresh(1, SimTime::from_secs(0));
        m.refresh(2, SimTime::from_secs(0));
        m.refresh(3, SimTime::from_secs(150));
        assert_eq!(m.purge_expired(SimTime::from_secs(160)), 2);
        assert_eq!(m.purge_expired(SimTime::from_secs(160)), 0);
        assert_eq!(live(&m, SimTime::from_secs(0)), vec![3]);
    }

    #[test]
    fn clock_stepping_back_keeps_counts_exact() {
        let mut m = SoftStateTable::new(TTL);
        m.refresh(1, SimTime::from_secs(50));
        m.refresh(2, SimTime::from_secs(300));
        assert_eq!(m.count(SimTime::from_secs(300)), 1);
        // A count dated before the swept instant sees entry 1 live again.
        assert_eq!(m.count(SimTime::from_secs(100)), 2);
        // A refresh dated before the newest entry is placed in time order.
        m.refresh(3, SimTime::from_secs(100));
        assert_eq!(m.count(SimTime::from_secs(300)), 1);
        assert_eq!(m.count(SimTime::from_secs(190)), 2);
        assert_eq!(m.purge_expired(SimTime::from_secs(300)), 2);
        assert_eq!(live(&m, SimTime::from_secs(300)), vec![2]);
    }
}

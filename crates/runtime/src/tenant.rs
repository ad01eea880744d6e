//! Request identity and tenant accounting: who submitted what, and what
//! each tenant is allowed to keep in flight.
//!
//! Every submission mints a [`RequestId`] (threaded through the job and its
//! journal spans, so one request's causal chain survives coalescing and
//! work-stealing) and belongs to a [`TenantId`] — the default tenant for
//! the plain `submit_*` APIs, an explicit one through `submit_for` /
//! `submit_load_for`. Per tenant the runtime tracks in-flight requests (the
//! [`TenantQuota`] admission gate), a latency histogram and the tenant's
//! exact share of the hardware counters.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gramc_telemetry::{HwCounters, LatencyHistogram};

/// Identity of one submitted request, unique per [`Runtime`](crate::Runtime)
/// lifetime (ids start at 1; 0 is reserved to mean "no request").
///
/// Coalesced riders each keep their own id — the id is what links a
/// rider's queue-wait span to the shared batch execution span in the
/// chrome trace (flow events keyed by the id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// Identity of a tenant (a workload sharing the runtime). Plain `submit_*`
/// calls run as [`TenantId::DEFAULT`]; `submit_for` / `submit_load_for`
/// name the tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The tenant of the plain (tenant-less) submission APIs.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Fair-admission quota applied per tenant
/// ([`Runtime::with_tenant_quota`](crate::Runtime::with_tenant_quota)):
/// while a tenant already has `max_in_flight` unretired requests, its
/// further submissions are rejected with
/// [`RuntimeError::QueueFull`](crate::RuntimeError::QueueFull) — so one
/// tenant's flood backs up on *itself* before it can starve the others.
/// Riders joining a coalesced batch count too (each is a request holding a
/// result slot), unlike the global queue bound, which only meters queue
/// entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Unretired requests one tenant may hold before rejection.
    pub max_in_flight: usize,
}

/// Live accounting state of one tenant. The in-flight gauge exists in
/// every build (it feeds the quota); the measurement side is
/// telemetry-only.
#[derive(Debug, Default)]
pub(crate) struct TenantEntry {
    /// Requests submitted and not yet answered (their slot unfilled).
    pub in_flight: AtomicU64,
    /// Requests ever admitted.
    pub requests: AtomicU64,
    /// Submissions rejected by the tenant quota.
    pub rejected: AtomicU64,
    /// Submit→complete latency of this tenant's requests.
    pub latency: LatencyHistogram,
    /// This tenant's exact share of the hardware counters (coalesced
    /// batches split proportionally to row counts, remainder-exact).
    pub hw: HwCounters,
}

impl TenantEntry {
    /// Tries to take one in-flight unit under `limit` (compare-loop, so
    /// concurrent submitters never overshoot). `None` admits always.
    pub fn try_acquire(&self, limit: Option<usize>) -> bool {
        match limit {
            None => {
                self.in_flight.fetch_add(1, Ordering::SeqCst);
                true
            }
            Some(limit) => self
                .in_flight
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                    (v < limit as u64).then_some(v + 1)
                })
                .is_ok(),
        }
    }

    /// Returns one in-flight unit (called exactly once per request, when
    /// its result slot is first filled — success, error and panic paths
    /// all end there).
    pub fn release(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The runtime's tenant directory: entries are created on first contact
/// and never removed (tenant counts are small; `BTreeMap` keeps snapshot
/// order deterministic).
#[derive(Debug, Default)]
pub(crate) struct TenantTable {
    entries: Mutex<BTreeMap<TenantId, Arc<TenantEntry>>>,
}

impl TenantTable {
    /// The entry of `tenant`, created on first use.
    pub fn entry(&self, tenant: TenantId) -> Arc<TenantEntry> {
        self.entries.lock().expect("tenant lock").entry(tenant).or_default().clone()
    }

    /// Every tenant's entry, in `TenantId` order.
    pub fn entries(&self) -> Vec<(TenantId, Arc<TenantEntry>)> {
        self.entries.lock().expect("tenant lock").iter().map(|(&t, e)| (t, e.clone())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_acquire_is_exact_at_the_bound() {
        let e = TenantEntry::default();
        assert!(e.try_acquire(Some(2)));
        assert!(e.try_acquire(Some(2)));
        assert!(!e.try_acquire(Some(2)), "third acquire exceeds the quota");
        e.release();
        assert!(e.try_acquire(Some(2)), "capacity frees on release");
        assert_eq!(e.in_flight.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn unlimited_acquire_always_admits() {
        let e = TenantEntry::default();
        for _ in 0..100 {
            assert!(e.try_acquire(None));
        }
        assert_eq!(e.in_flight.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn table_hands_out_one_entry_per_tenant() {
        let t = TenantTable::default();
        let a = t.entry(TenantId(3));
        let b = t.entry(TenantId(3));
        assert!(Arc::ptr_eq(&a, &b));
        t.entry(TenantId(1));
        let order: Vec<u32> = t.entries().iter().map(|(id, _)| id.0).collect();
        assert_eq!(order, [1, 3], "deterministic id order");
    }
}

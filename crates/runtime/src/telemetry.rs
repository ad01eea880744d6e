//! Serving telemetry for the sharded runtime (always compiled in):
//! latency histograms over the job lifecycle, a queue-depth gauge,
//! per-shard scheduler counters, per-job-kind hardware attribution and the
//! structured event journal.
//!
//! Everything here observes; nothing feeds back. Counters are relaxed
//! atomics, histograms are lock-free, and the journal ring is preallocated,
//! so the instrumented scheduler paths stay allocation-free and never
//! change a result.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use gramc_core::metrics::{AnalogCostModel, Cost};
use gramc_telemetry::json::Json;
use gramc_telemetry::{EventJournal, HistogramSnapshot, HwCounters, HwSnapshot, LatencyHistogram};

use crate::job::JobKind;
use crate::tenant::{TenantEntry, TenantId};

/// The job-kind name table: each kind's stable label plus its journal
/// span names (`job:<label>` for execution, `queued:<label>` for the
/// queue-wait stage), all static so recording never allocates.
macro_rules! kind_names {
    ($($label:literal),* $(,)?) => {
        /// Stable display/index order of the job kinds.
        pub(crate) const KIND_NAMES: [&str; 8] = [$($label),*];
        const KIND_SPAN_NAMES: [&str; 8] = [$(concat!("job:", $label)),*];
        const KIND_QUEUED_NAMES: [&str; 8] = [$(concat!("queued:", $label)),*];
    };
}

kind_names!(
    "mvm_many",
    "mvm_set",
    "mvm_batch",
    "solve_inv",
    "solve_inv_batch",
    "solve_pinv_batch",
    "load",
    "free",
);

/// Index of a job kind in [`KIND_NAMES`] / the per-kind aggregates.
pub(crate) fn kind_index(kind: &JobKind) -> usize {
    match kind {
        JobKind::MvmMany { .. } => 0,
        JobKind::Compute(c) => c.kind.label(),
        JobKind::Load { .. } => 6,
        JobKind::Free { .. } => 7,
    }
}

/// Journal lane (`tid`) offset of worker-execution spans. Lanes below the
/// base are shard lanes (queue-wait spans, instants, health events); lane
/// `WORKER_LANE_BASE + w` is worker `w`'s execution track — so a chrome
/// trace shows queueing per shard and occupancy per worker side by side.
pub(crate) const WORKER_LANE_BASE: u64 = 1000;

/// Journal span name of a job kind's execution stage.
pub(crate) fn kind_span_name(ix: usize) -> &'static str {
    KIND_SPAN_NAMES[ix]
}

/// Journal span name of a job kind's queue-wait stage (submit → dispatch).
pub(crate) fn kind_queued_name(ix: usize) -> &'static str {
    KIND_QUEUED_NAMES[ix]
}

/// Splits `total` into integer shares proportional to `weights`, summing
/// back to `total` **exactly** (this is what keeps per-tenant attribution
/// conservative). Largest-remainder assignment: each share gets its floor
/// `total·wᵢ/W`, then the remainder units go one each to the largest
/// fractional parts, ties broken by position — so the split is
/// deterministic in submission order. Zero total weight degenerates to
/// handing everything to the first share.
pub(crate) fn split_exact(total: u64, weights: &[u64]) -> Vec<u64> {
    let w_sum: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    if w_sum == 0 {
        let mut out = vec![0; weights.len()];
        if let Some(first) = out.first_mut() {
            *first = total;
        }
        return out;
    }
    let mut shares: Vec<u64> = Vec::with_capacity(weights.len());
    let mut fracs: Vec<(u128, usize)> = Vec::with_capacity(weights.len());
    let mut assigned: u64 = 0;
    for (i, &w) in weights.iter().enumerate() {
        let num = u128::from(total) * u128::from(w);
        let base = (num / w_sum) as u64;
        shares.push(base);
        assigned += base;
        fracs.push((num % w_sum, i));
    }
    fracs.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut rem = total - assigned;
    for &(_, i) in &fracs {
        if rem == 0 {
            break;
        }
        shares[i] += 1;
        rem -= 1;
    }
    shares
}

/// [`split_exact`] applied field-by-field over a hardware-counter delta:
/// one snapshot per weight, each field's shares summing to the delta's
/// field exactly.
pub(crate) fn split_hw(delta: &HwSnapshot, weights: &[u64]) -> Vec<HwSnapshot> {
    let mut out = vec![HwSnapshot::default(); weights.len()];
    let mut apply = |get: fn(&HwSnapshot) -> u64, set: fn(&mut HwSnapshot, u64)| {
        for (o, share) in out.iter_mut().zip(split_exact(get(delta), weights)) {
            set(o, share);
        }
    };
    apply(|s| s.dac_drives, |s, v| s.dac_drives = v);
    apply(|s| s.adc_conversions, |s, v| s.adc_conversions = v);
    apply(|s| s.settle_events, |s, v| s.settle_events = v);
    apply(|s| s.solve_settles, |s, v| s.solve_settles = v);
    apply(|s| s.write_pulses, |s, v| s.write_pulses = v);
    apply(|s| s.write_cycles, |s, v| s.write_cycles = v);
    apply(|s| s.read_cycles_mvm, |s, v| s.read_cycles_mvm = v);
    apply(|s| s.read_cycles_solve, |s, v| s.read_cycles_solve = v);
    apply(|s| s.snapshot_hits, |s, v| s.snapshot_hits = v);
    apply(|s| s.snapshot_misses, |s, v| s.snapshot_misses = v);
    out
}

/// Scheduler counters of one shard.
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    /// Jobs of this shard executed by a thief worker.
    pub steals: AtomicU64,
    /// Failed-check re-dispatches of this shard's jobs.
    pub retries: AtomicU64,
    /// Migration bounces (job re-enqueued toward its operator's new home).
    pub requeues: AtomicU64,
    /// Times this shard was quarantined.
    pub quarantines: AtomicU64,
    /// Wall-clock nanoseconds this shard's jobs spent executing (dispatch →
    /// complete, summed) — the numerator of per-shard utilization.
    pub busy_ns: AtomicU64,
}

/// Per-job-kind aggregate: dispatch count plus the hardware events the
/// kind's job bodies caused (snapshot-diffed under the shard lock).
#[derive(Debug, Default)]
pub(crate) struct KindAgg {
    pub jobs: AtomicU64,
    pub hw: HwCounters,
}

/// Live burn-rate state published by the [`SloMonitor`](crate::SloMonitor)
/// and read into the `slo` section of [`MetricsSnapshot`]. Burn rates are
/// stored ×1000 so the whole struct stays atomic.
#[derive(Debug, Default)]
pub(crate) struct SloState {
    /// Latency SLO alerts fired since the monitor started.
    pub latency_alerts: AtomicU64,
    /// Rejection SLO alerts fired since the monitor started.
    pub rejection_alerts: AtomicU64,
    /// Short-window latency burn rate ×1000.
    pub latency_burn_milli: AtomicU64,
    /// Short-window rejection burn rate ×1000.
    pub rejection_burn_milli: AtomicU64,
    /// 1 while the latency alert is raised and not yet re-armed.
    pub latency_alerting: AtomicU64,
    /// 1 while the rejection alert is raised and not yet re-armed.
    pub rejection_alerting: AtomicU64,
}

/// The runtime's telemetry sink (one per [`Runtime`](crate::Runtime)).
#[derive(Debug)]
pub(crate) struct RtTelemetry {
    pub submit_to_dispatch: LatencyHistogram,
    pub dispatch_to_complete: LatencyHistogram,
    pub submit_to_complete: LatencyHistogram,
    /// High-water mark of jobs enqueued at once.
    pub queue_depth_max: AtomicUsize,
    /// Submissions rejected by the admission bound
    /// ([`RuntimeError::QueueFull`](crate::RuntimeError::QueueFull)).
    pub rejected: AtomicU64,
    pub per_shard: Vec<ShardCounters>,
    pub per_kind: [KindAgg; KIND_NAMES.len()],
    pub journal: EventJournal,
    /// Journal `overwritten` at the previous [`MetricsSnapshot::capture`] —
    /// the baseline of the per-interval drop rate in the metrics stream.
    pub last_overwritten: AtomicU64,
    /// SLO monitor outputs (zeros until a monitor runs).
    pub slo: SloState,
}

/// Journal capacity: enough for the serving benches' full drains while
/// keeping the preallocated ring small (~160 KiB).
const JOURNAL_CAPACITY: usize = 4096;

impl RtTelemetry {
    pub fn new(shards: usize) -> Self {
        Self {
            submit_to_dispatch: LatencyHistogram::new(),
            dispatch_to_complete: LatencyHistogram::new(),
            submit_to_complete: LatencyHistogram::new(),
            queue_depth_max: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
            per_shard: (0..shards).map(|_| ShardCounters::default()).collect(),
            per_kind: std::array::from_fn(|_| KindAgg::default()),
            journal: EventJournal::new(JOURNAL_CAPACITY),
            last_overwritten: AtomicU64::new(0),
            slo: SloState::default(),
        }
    }

    /// Folds one executed job into its kind's aggregate.
    pub fn record_job(&self, kind_ix: usize, hw: &HwSnapshot) {
        let agg = &self.per_kind[kind_ix];
        agg.jobs.fetch_add(1, Ordering::Relaxed);
        agg.hw.add_snapshot(hw);
    }

    /// Sum of every kind's attributed hardware events — i.e. everything the
    /// job bodies did (direct `shard_group()` use is not included).
    pub fn kind_hw_total(&self) -> HwSnapshot {
        let mut total = HwSnapshot::default();
        for agg in &self.per_kind {
            total += &agg.hw.snapshot();
        }
        total
    }
}

/// Point-in-time copy of one shard's scheduler counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardMetrics {
    /// Jobs of this shard executed by a thief worker.
    pub steals: u64,
    /// Failed-check re-dispatches of this shard's jobs.
    pub retries: u64,
    /// Migration bounces of this shard's jobs.
    pub requeues: u64,
    /// Times this shard was quarantined.
    pub quarantines: u64,
    /// Nanoseconds this shard's jobs spent executing (dispatch→complete,
    /// summed). Divide by the serving window for utilization.
    pub busy_ns: u64,
}

/// Point-in-time copy of one job kind's aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindMetrics {
    /// Job kind name (stable, snake_case).
    pub kind: &'static str,
    /// Jobs of this kind executed.
    pub jobs: u64,
    /// Hardware events attributed to this kind's job bodies.
    pub hw: HwSnapshot,
}

impl KindMetrics {
    /// Modeled analog latency/energy of this kind's hardware events.
    pub fn analog_cost(&self, model: &AnalogCostModel) -> Cost {
        model.attribute(&self.hw)
    }
}

/// Point-in-time copy of one tenant's accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMetrics {
    /// The tenant.
    pub tenant: TenantId,
    /// Requests submitted and not yet answered.
    pub in_flight: u64,
    /// Requests ever admitted.
    pub requests: u64,
    /// Submissions rejected by the tenant quota.
    pub rejected: u64,
    /// Submit→complete latency of this tenant's requests.
    pub latency: HistogramSnapshot,
    /// This tenant's exact share of the hardware counters.
    pub hw: HwSnapshot,
}

impl TenantMetrics {
    /// Modeled analog latency/energy of this tenant's hardware share.
    pub fn analog_cost(&self, model: &AnalogCostModel) -> Cost {
        model.attribute(&self.hw)
    }
}

/// Point-in-time copy of the SLO monitor's outputs (all zeros until an
/// [`SloMonitor`](crate::SloMonitor) runs against the runtime).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloMetrics {
    /// Latency SLO alerts fired since the monitor started.
    pub latency_alerts: u64,
    /// Rejection SLO alerts fired since the monitor started.
    pub rejection_alerts: u64,
    /// Short-window latency burn rate (violation fraction / error budget).
    pub latency_burn: f64,
    /// Short-window rejection burn rate.
    pub rejection_burn: f64,
    /// Whether the latency alert is currently raised.
    pub latency_alerting: bool,
    /// Whether the rejection alert is currently raised.
    pub rejection_alerting: bool,
}

/// Version of the JSON layout emitted by [`MetricsSnapshot::to_json`].
/// Bump on any key rename/removal; additions alone do not require a bump
/// but get one anyway so downstream dashboards can pin exactly.
///
/// v3 added the `tenants` and `slo` sections and widened `journal` with
/// `capacity`, `dropped_since_last` and `drop_rate`.
pub const METRICS_SCHEMA_VERSION: u32 = 3;

/// A consistent cut of the runtime's serving metrics
/// ([`Runtime::metrics_snapshot`](crate::Runtime::metrics_snapshot)).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Submission → job execution start.
    pub submit_to_dispatch: HistogramSnapshot,
    /// Execution start → result slots filled.
    pub dispatch_to_complete: HistogramSnapshot,
    /// Submission → result slots filled (the serving latency).
    pub submit_to_complete: HistogramSnapshot,
    /// High-water mark of jobs enqueued at once.
    pub queue_depth_max: usize,
    /// Current queue depth (jobs submitted but not yet retired).
    pub queue_depth: usize,
    /// Submissions rejected by the admission bound.
    pub rejected: u64,
    /// Scheduler counters per shard.
    pub shards: Vec<ShardMetrics>,
    /// Per-job-kind dispatch counts and hardware attribution.
    pub kinds: Vec<KindMetrics>,
    /// Sum of every kind's hardware events.
    pub hw_total: HwSnapshot,
    /// Per-tenant accounting, in tenant-id order. Tenant hardware shares
    /// sum exactly to the per-kind totals (`hw_total`) of the jobs that
    /// carried attribution metadata.
    pub tenants: Vec<TenantMetrics>,
    /// SLO monitor outputs.
    pub slo: SloMetrics,
    /// Events currently held in the journal.
    pub journal_len: usize,
    /// The journal ring's capacity.
    pub journal_capacity: usize,
    /// Journal events evicted to make room since creation.
    pub journal_overwritten: u64,
    /// Journal events evicted since the previous snapshot — per-interval
    /// in the metrics stream, because each capture resets the baseline.
    pub journal_dropped_since_last: u64,
}

impl MetricsSnapshot {
    pub(crate) fn capture(
        t: &RtTelemetry,
        queue_depth: usize,
        tenants: &[(TenantId, Arc<TenantEntry>)],
    ) -> Self {
        let shards = t
            .per_shard
            .iter()
            .map(|s| ShardMetrics {
                steals: s.steals.load(Ordering::Relaxed),
                retries: s.retries.load(Ordering::Relaxed),
                requeues: s.requeues.load(Ordering::Relaxed),
                quarantines: s.quarantines.load(Ordering::Relaxed),
                busy_ns: s.busy_ns.load(Ordering::Relaxed),
            })
            .collect();
        let kinds = KIND_NAMES
            .iter()
            .zip(&t.per_kind)
            .map(|(&kind, agg)| KindMetrics {
                kind,
                jobs: agg.jobs.load(Ordering::Relaxed),
                hw: agg.hw.snapshot(),
            })
            .collect();
        let tenants = tenants
            .iter()
            .map(|(id, e)| TenantMetrics {
                tenant: *id,
                in_flight: e.in_flight.load(Ordering::SeqCst),
                requests: e.requests.load(Ordering::Relaxed),
                rejected: e.rejected.load(Ordering::Relaxed),
                latency: e.latency.snapshot(),
                hw: e.hw.snapshot(),
            })
            .collect();
        let s = &t.slo;
        let slo = SloMetrics {
            latency_alerts: s.latency_alerts.load(Ordering::Relaxed),
            rejection_alerts: s.rejection_alerts.load(Ordering::Relaxed),
            latency_burn: s.latency_burn_milli.load(Ordering::Relaxed) as f64 / 1e3,
            rejection_burn: s.rejection_burn_milli.load(Ordering::Relaxed) as f64 / 1e3,
            latency_alerting: s.latency_alerting.load(Ordering::Relaxed) != 0,
            rejection_alerting: s.rejection_alerting.load(Ordering::Relaxed) != 0,
        };
        let overwritten = t.journal.overwritten();
        let dropped =
            overwritten.saturating_sub(t.last_overwritten.swap(overwritten, Ordering::Relaxed));
        Self {
            submit_to_dispatch: t.submit_to_dispatch.snapshot(),
            dispatch_to_complete: t.dispatch_to_complete.snapshot(),
            submit_to_complete: t.submit_to_complete.snapshot(),
            queue_depth_max: t.queue_depth_max.load(Ordering::Relaxed),
            queue_depth,
            rejected: t.rejected.load(Ordering::Relaxed),
            shards,
            kinds,
            hw_total: t.kind_hw_total(),
            tenants,
            slo,
            journal_len: t.journal.len(),
            journal_capacity: t.journal.capacity(),
            journal_overwritten: overwritten,
            journal_dropped_since_last: dropped,
        }
    }

    /// Modeled analog latency/energy of everything the job bodies did.
    pub fn analog_cost(&self, model: &AnalogCostModel) -> Cost {
        model.attribute(&self.hw_total)
    }

    /// Serializes the snapshot as one compact JSON object through the
    /// workspace codec ([`gramc_telemetry::json`]). Hardware counters are
    /// priced through the default [`AnalogCostModel`]; histograms report
    /// count, mean and the p50/p90/p99/p999/max ladder in nanoseconds. The
    /// layout is versioned by the `"schema_version"` key
    /// ([`METRICS_SCHEMA_VERSION`]).
    pub fn to_json(&self) -> String {
        Json::from(self).to_string()
    }

    /// [`to_json`](Self::to_json) plus a newline — the record format of
    /// the live metrics JSONL stream
    /// ([`MetricsReporter`](crate::MetricsReporter)): the writer is
    /// compact, so every snapshot is one line.
    pub fn to_jsonl_line(&self) -> String {
        self.to_json() + "\n"
    }
}

/// [`MetricsSnapshot::to_json`] as a value, for documents that embed the
/// snapshot.
impl From<&MetricsSnapshot> for Json {
    fn from(snap: &MetricsSnapshot) -> Self {
        let model = AnalogCostModel::default();
        let cost = |hw: &HwSnapshot| Json::from(model.attribute(hw));
        let shards = snap.shards.iter().map(|s| {
            Json::obj([
                ("steals", s.steals),
                ("retries", s.retries),
                ("requeues", s.requeues),
                ("quarantines", s.quarantines),
                ("busy_ns", s.busy_ns),
            ])
        });
        let kinds = snap.kinds.iter().map(|k| {
            let members =
                [("jobs", Json::from(k.jobs)), ("hw", (&k.hw).into()), ("modeled", cost(&k.hw))];
            (k.kind, Json::obj(members))
        });
        let tenants = snap.tenants.iter().map(|t| {
            let members = [
                ("in_flight", Json::from(t.in_flight)),
                ("requests", t.requests.into()),
                ("rejected", t.rejected.into()),
                ("latency", (&t.latency).into()),
                ("hw", (&t.hw).into()),
                ("modeled", cost(&t.hw)),
            ];
            (t.tenant.to_string(), Json::obj(members))
        });
        let slo = &snap.slo;
        let slo = Json::obj([
            ("latency_alerts", Json::from(slo.latency_alerts)),
            ("rejection_alerts", slo.rejection_alerts.into()),
            ("latency_burn", slo.latency_burn.into()),
            ("rejection_burn", slo.rejection_burn.into()),
            ("latency_alerting", slo.latency_alerting.into()),
            ("rejection_alerting", slo.rejection_alerting.into()),
        ]);
        let drop_rate = snap.journal_dropped_since_last as f64 / snap.journal_len.max(1) as f64;
        let journal = Json::obj([
            ("len", Json::from(snap.journal_len)),
            ("capacity", snap.journal_capacity.into()),
            ("overwritten", snap.journal_overwritten.into()),
            ("dropped_since_last", snap.journal_dropped_since_last.into()),
            ("drop_rate", drop_rate.into()),
        ]);
        Json::obj([
            ("schema_version", Json::from(METRICS_SCHEMA_VERSION)),
            ("submit_to_dispatch", (&snap.submit_to_dispatch).into()),
            ("dispatch_to_complete", (&snap.dispatch_to_complete).into()),
            ("submit_to_complete", (&snap.submit_to_complete).into()),
            ("queue_depth", snap.queue_depth.into()),
            ("queue_depth_max", snap.queue_depth_max.into()),
            ("rejected", snap.rejected.into()),
            ("shards", Json::Arr(shards.collect())),
            ("kinds", Json::obj(kinds)),
            ("hw_total", (&snap.hw_total).into()),
            ("modeled_total", cost(&snap.hw_total)),
            ("tenants", Json::obj(tenants)),
            ("slo", slo),
            ("journal", journal),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_match_names() {
        use crate::job::Work;
        use crate::registry::OperatorHandle;
        let h = OperatorHandle(0);
        let compute = |w: Work| kind_index(&JobKind::Compute(w.into_compute(h, 0)));
        assert_eq!(kind_index(&JobKind::MvmMany { handle: h }), 0);
        assert_eq!(compute(Work::Mvm(Vec::new())), 1);
        assert_eq!(compute(Work::MvmBatch(Vec::new())), 2);
        let drive = std::sync::Arc::new(gramc_linalg::Matrix::zeros(0, 0));
        assert_eq!(compute(Work::MvmRows { drive, cols: 0..0 }), 2, "reported as mvm_batch");
        assert_eq!(compute(Work::SolveInv(Vec::new())), 3);
        assert_eq!(compute(Work::SolveInvBatch(Vec::new())), 4);
        assert_eq!(compute(Work::SolvePinvBatch(Vec::new())), 5);
        assert_eq!(kind_index(&JobKind::Free { handle: h }), 7);
        let names =
            "mvm_many mvm_set mvm_batch solve_inv solve_inv_batch solve_pinv_batch load free";
        assert_eq!(KIND_NAMES.join(" "), names);
        for (i, name) in KIND_NAMES.iter().enumerate() {
            assert_eq!(kind_span_name(i), format!("job:{name}"));
            assert_eq!(kind_queued_name(i), format!("queued:{name}"));
        }
    }

    #[test]
    fn snapshot_json_is_balanced_and_priced() {
        let t = RtTelemetry::new(2);
        t.submit_to_dispatch.record_ns(1_000);
        t.dispatch_to_complete.record_ns(2_000);
        t.submit_to_complete.record_ns(3_000);
        let hw = HwSnapshot { dac_drives: 8, adc_conversions: 8, ..Default::default() };
        t.record_job(2, &hw);
        let tenants = [(TenantId(7), Arc::new(TenantEntry::default()))];
        tenants[0].1.hw.add_dac_drives(5);
        let snap = MetricsSnapshot::capture(&t, 3, &tenants);
        assert_eq!(snap.kinds[2].jobs, 1);
        assert_eq!(snap.queue_depth, 3);
        assert_eq!(snap.hw_total.dac_drives, 8);
        assert_eq!(snap.tenants.len(), 1);
        assert_eq!(snap.tenants[0].hw.dac_drives, 5);
        assert!(snap.analog_cost(&AnalogCostModel::default()).energy > 0.0);
        let json = snap.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"submit_to_complete\""));
        assert!(json.contains("\"mvm_batch\""));
        assert!(json.contains("\"solve_pinv_batch\""));
        assert!(json.contains("\"energy_j\""));
        assert!(json.contains("\"tenant-7\""));
        assert!(json.contains("\"slo\""));
        assert!(json.contains("\"drop_rate\""));
    }

    #[test]
    fn jsonl_line_is_one_compact_line() {
        let t = RtTelemetry::new(1);
        t.submit_to_complete.record_ns(5_000);
        let line = MetricsSnapshot::capture(&t, 0, &[]).to_jsonl_line();
        assert!(line.ends_with('\n'));
        assert_eq!(line.trim_end().matches('\n').count(), 0);
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        let rec = gramc_telemetry::json::parse(&line).unwrap();
        assert_eq!(rec.num("schema_version"), Some(3.0));
    }

    #[test]
    fn split_exact_is_conservative_and_deterministic() {
        // 10 over equal thirds: remainder units go to the earliest shares.
        assert_eq!(split_exact(10, &[1, 1, 1]), [4, 3, 3]);
        // Proportional to weight, still summing exactly.
        assert_eq!(split_exact(10, &[3, 1]), [8, 2]);
        assert_eq!(split_exact(7, &[2, 3, 2]), [2, 3, 2]);
        // Degenerate weights: everything lands on the first share.
        assert_eq!(split_exact(5, &[0, 0]), [5, 0]);
        // Fuzz the conservation invariant across shapes.
        for total in [0u64, 1, 2, 17, 1_000_003] {
            for weights in [&[1u64][..], &[1, 1], &[5, 3, 9], &[1, 0, 2, 2]] {
                let shares = split_exact(total, weights);
                assert_eq!(shares.iter().sum::<u64>(), total, "{total} over {weights:?}");
            }
        }
    }

    #[test]
    fn split_hw_splits_every_field_exactly() {
        let delta = HwSnapshot {
            dac_drives: 11,
            adc_conversions: 7,
            settle_events: 3,
            read_cycles_mvm: 1_000_001,
            ..Default::default()
        };
        let shares = split_hw(&delta, &[1, 1, 2]);
        assert_eq!(shares.len(), 3);
        let mut sum = HwSnapshot::default();
        for s in &shares {
            sum += s;
        }
        assert_eq!(sum, delta, "field-wise split must be conservative");
        // The weight-2 share gets about half of each field.
        assert_eq!(shares[2].read_cycles_mvm, 500_001);
    }
}

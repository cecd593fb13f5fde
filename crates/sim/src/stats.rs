use std::borrow::Cow;

use rispp_model::SiId;

/// Default statistics bucket width: the paper plots SI executions per
/// 100 K cycles (Figures 2 and 8).
pub const DEFAULT_BUCKET_CYCLES: u64 = 100_000;

/// A point on an SI's latency timeline: from cycle `at` on, one execution
/// of the SI takes `latency` cycles (the step-down lines of Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyEvent {
    /// Cycle at which the latency changed.
    pub at: u64,
    /// New single-execution latency.
    pub latency: u32,
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Label of the executed system (e.g. `"HEF"`, `"Molen"`). Borrowed
    /// for the built-in backends (no per-run allocation); custom backends
    /// may use owned labels.
    pub system: Cow<'static, str>,
    /// Total execution time in cycles.
    pub total_cycles: u64,
    /// Executions per SI (indexed by [`SiId`]).
    pub si_executions: Vec<u64>,
    /// Executions that ran on accelerating hardware, per SI.
    pub hardware_executions: Vec<u64>,
    /// Width of the frequency buckets in cycles.
    pub bucket_cycles: u64,
    /// Executions per bucket, per SI (`[si][bucket]`); only filled when the
    /// run collects detail.
    pub execution_buckets: Vec<Vec<u32>>,
    /// Latency-change events per SI; only filled when the run collects
    /// detail.
    pub latency_timeline: Vec<Vec<LatencyEvent>>,
    /// Atom loads completed (RISPP) or accelerator loads (Molen).
    pub reconfigurations: u64,
    /// Cycles the reconfiguration port was busy.
    pub reconfiguration_cycles: u64,
    /// Faults injected by the fabric's fault model (CRC-aborted loads, SEU
    /// upsets, permanent tile failures). Zero in a fault-free run.
    pub faults_injected: u64,
    /// Loads re-enqueued by the recovery policy (abort retries and SEU
    /// scrub reloads).
    pub load_retries: u64,
    /// Containers taken out of service during the run.
    pub containers_quarantined: u64,
    /// Hot-spot re-plans that came back with no hardware at all (pure cISA
    /// degradation on the shrunken fabric).
    pub degraded_to_software: u64,
    /// Reconfiguration-port cycles wasted on loads that never became
    /// usable.
    pub fault_cycles_lost: u64,
    /// Foreign atoms this tenant's plans found already loaded by
    /// co-tenants (cross-app reuse on a shared multi-tenant fabric). Zero
    /// in every single-tenant run.
    pub atoms_shared: u64,
    /// Contested evictions attributed to this tenant (its loads evicted
    /// atoms owned by a co-tenant). Zero in every single-tenant run.
    pub evictions_contested: u64,
}

impl RunStats {
    /// Creates empty statistics for `si_count` SIs.
    #[must_use]
    pub fn new(
        system: impl Into<Cow<'static, str>>,
        si_count: usize,
        bucket_cycles: u64,
        detail: bool,
    ) -> Self {
        RunStats {
            system: system.into(),
            total_cycles: 0,
            si_executions: vec![0; si_count],
            hardware_executions: vec![0; si_count],
            bucket_cycles,
            execution_buckets: if detail {
                vec![Vec::new(); si_count]
            } else {
                Vec::new()
            },
            latency_timeline: if detail {
                vec![Vec::new(); si_count]
            } else {
                Vec::new()
            },
            reconfigurations: 0,
            reconfiguration_cycles: 0,
            faults_injected: 0,
            load_retries: 0,
            containers_quarantined: 0,
            degraded_to_software: 0,
            fault_cycles_lost: 0,
            atoms_shared: 0,
            evictions_contested: 0,
        }
    }

    /// Whether detailed (bucket/timeline) statistics are collected.
    #[must_use]
    pub fn has_detail(&self) -> bool {
        !self.execution_buckets.is_empty()
    }

    /// Total SI executions across all SIs.
    #[must_use]
    pub fn total_executions(&self) -> u64 {
        self.si_executions.iter().sum()
    }

    /// Fraction of executions that ran on accelerating hardware.
    #[must_use]
    pub fn hardware_fraction(&self) -> f64 {
        let total = self.total_executions();
        if total == 0 {
            return 0.0;
        }
        self.hardware_executions.iter().sum::<u64>() as f64 / total as f64
    }

    /// Records `count` executions of `si` at uniform spacing `per` cycles
    /// starting at `start` (one homogeneous burst segment).
    pub(crate) fn record_segment(
        &mut self,
        si: SiId,
        start: u64,
        count: u64,
        per: u64,
        latency: u32,
        hardware: bool,
    ) {
        let idx = si.index();
        self.si_executions[idx] += count;
        if hardware {
            self.hardware_executions[idx] += count;
        }
        if !self.has_detail() || count == 0 {
            return;
        }
        // Latency timeline: record only changes.
        let timeline = &mut self.latency_timeline[idx];
        if timeline.last().map(|e| e.latency) != Some(latency) {
            timeline.push(LatencyEvent { at: start, latency });
        }
        // Distribute the `count` executions (at start + k·per) over buckets.
        let b = self.bucket_cycles;
        let per = per.max(1);
        let executed_before = |x: u64| -> u64 {
            if x <= start {
                0
            } else {
                ((x - start).div_ceil(per)).min(count)
            }
        };
        let first_bucket = (start / b) as usize;
        let last_cycle = start + (count - 1) * per;
        let last_bucket = (last_cycle / b) as usize;
        let buckets = &mut self.execution_buckets[idx];
        if buckets.len() <= last_bucket {
            buckets.resize(last_bucket + 1, 0);
        }
        for (bucket, slot) in buckets
            .iter_mut()
            .enumerate()
            .take(last_bucket + 1)
            .skip(first_bucket)
        {
            let lo = executed_before(bucket as u64 * b);
            let hi = executed_before((bucket + 1) as u64 * b);
            *slot += (hi - lo) as u32;
        }
    }

    /// Executions of `si` in bucket `bucket` (0 when out of range or detail
    /// was not collected).
    #[must_use]
    pub fn executions_in_bucket(&self, si: SiId, bucket: usize) -> u32 {
        self.execution_buckets
            .get(si.index())
            .and_then(|v| v.get(bucket))
            .copied()
            .unwrap_or(0)
    }

    /// Executions of *all* SIs per bucket (the bar series of Figure 2).
    #[must_use]
    pub fn combined_buckets(&self) -> Vec<u32> {
        let len = self
            .execution_buckets
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0);
        let mut out = vec![0u32; len];
        for buckets in &self.execution_buckets {
            for (i, &c) in buckets.iter().enumerate() {
                out[i] += c;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_distributes_counts_over_buckets() {
        let mut s = RunStats::new("x", 1, 100, true);
        // 10 executions every 30 cycles from cycle 50: cycles 50..=320.
        s.record_segment(SiId(0), 50, 10, 30, 7, true);
        assert_eq!(s.si_executions[0], 10);
        assert_eq!(s.hardware_executions[0], 10);
        let buckets = &s.execution_buckets[0];
        // Executions at 50,80 | 110,140,170 | 200,230,260,290 | 320.
        assert_eq!(buckets, &vec![2, 3, 4, 1]);
        assert_eq!(buckets.iter().sum::<u32>(), 10);
    }

    #[test]
    fn bucket_sum_equals_count_for_many_shapes() {
        for (start, count, per) in [
            (0u64, 1u64, 1u64),
            (99, 7, 100),
            (12_345, 1_000, 37),
            (0, 5, 100_000),
        ] {
            let mut s = RunStats::new("x", 1, 100_000, true);
            s.record_segment(SiId(0), start, count, per, 10, false);
            assert_eq!(
                s.execution_buckets[0]
                    .iter()
                    .map(|&c| u64::from(c))
                    .sum::<u64>(),
                count,
                "start={start} count={count} per={per}"
            );
        }
    }

    #[test]
    fn latency_timeline_records_changes_only() {
        let mut s = RunStats::new("x", 1, 100, true);
        s.record_segment(SiId(0), 0, 5, 10, 100, false);
        s.record_segment(SiId(0), 50, 5, 10, 100, false);
        s.record_segment(SiId(0), 100, 5, 10, 40, true);
        let timeline: Vec<(u64, u32)> = s.latency_timeline[0]
            .iter()
            .map(|e| (e.at, e.latency))
            .collect();
        assert_eq!(timeline, vec![(0, 100), (100, 40)]);
    }

    #[test]
    fn no_detail_mode_skips_buckets() {
        let mut s = RunStats::new("x", 2, 100, false);
        s.record_segment(SiId(1), 0, 10, 10, 5, true);
        assert!(!s.has_detail());
        assert_eq!(s.si_executions[1], 10);
        assert_eq!(s.executions_in_bucket(SiId(1), 0), 0);
        assert!(s.combined_buckets().is_empty());
    }

    #[test]
    fn hardware_fraction() {
        let mut s = RunStats::new("x", 1, 100, false);
        s.record_segment(SiId(0), 0, 30, 10, 5, false);
        s.record_segment(SiId(0), 300, 70, 10, 5, true);
        assert!((s.hardware_fraction() - 0.7).abs() < 1e-9);
        assert_eq!(s.total_executions(), 100);
    }

    #[test]
    fn combined_buckets_sum_sis() {
        let mut s = RunStats::new("x", 2, 100, true);
        s.record_segment(SiId(0), 0, 4, 25, 5, true); // cycles 0,25,50,75
        s.record_segment(SiId(1), 50, 2, 100, 5, true); // cycles 50,150
        assert_eq!(s.combined_buckets(), vec![5, 1]);
    }
}

//! Automatic hot-spot detection from the raw SI execution stream.
//!
//! The paper's companion work [24] demonstrates light-weight hardware that
//! observes SI execution frequencies and detects when the application
//! migrates from one computational hot spot to another (ME → EE → LF in
//! the H.264 encoder) *without* explicit markers in the binary. This
//! module reproduces that mechanism: executions are counted per fixed
//! cycle window; when the dominant SI *signature* of the recent windows
//! changes and stays stable, a transition is reported.

use rispp_model::SiId;

/// A detected hot-spot transition, as
/// [`HotSpotDetector::transitions`] reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectedTransition {
    /// Cycle at which the new signature became stable.
    pub at: u64,
    /// The dominant SIs of the new phase, most frequent first.
    pub signature: Vec<SiId>,
}

/// Windowed hot-spot detector: the paper's Section 3.1 task-II
/// mechanism. No run attaches it; the tier-1 test
/// `hot_spot_detector_recovers_the_encoder_phases` reads its
/// [`transitions`](Self::transitions) over the H.264 trace.
///
/// # Examples
///
/// ```
/// use rispp_monitor::HotSpotDetector;
/// use rispp_model::SiId;
///
/// let mut det = HotSpotDetector::new(10_000, 2);
/// for i in 0..200u64 {
///     det.observe(SiId(0), i * 300);
/// }
/// for i in 200..400u64 {
///     det.observe(SiId(5), i * 300);
/// }
/// let transitions = det.transitions();
/// assert_eq!(transitions.len(), 2); // initial phase + the switch
/// assert_eq!(transitions[1].signature, vec![SiId(5)]);
/// ```
#[derive(Debug, Clone)]
pub struct HotSpotDetector {
    window_cycles: u64,
    stable_windows: u32,
    current_window: u64,
    counts: Vec<(SiId, u64)>,
    last_signature: Vec<SiId>,
    pending_signature: Vec<SiId>,
    pending_count: u32,
    pending_since: u64,
    transitions: Vec<DetectedTransition>,
}

impl HotSpotDetector {
    /// Creates a detector with the given window width (cycles) and the
    /// number of consecutive windows a new signature must persist before a
    /// transition is reported (debouncing).
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles` is zero or `stable_windows` is zero.
    #[must_use]
    pub fn new(window_cycles: u64, stable_windows: u32) -> Self {
        assert!(window_cycles > 0, "window must be positive");
        assert!(stable_windows > 0, "stability threshold must be positive");
        HotSpotDetector {
            window_cycles,
            stable_windows,
            current_window: 0,
            counts: Vec::new(),
            last_signature: Vec::new(),
            pending_signature: Vec::new(),
            pending_count: 0,
            pending_since: 0,
            transitions: Vec::new(),
        }
    }

    /// Records one SI execution at the given cycle.
    ///
    /// # Panics
    ///
    /// Panics if cycles move backwards across window boundaries.
    pub fn observe(&mut self, si: SiId, cycle: u64) {
        let window = cycle / self.window_cycles;
        assert!(window >= self.current_window, "cycles must be monotone");
        while window > self.current_window {
            self.close_window();
            self.current_window += 1;
        }
        match self.counts.iter_mut().find(|(id, _)| *id == si) {
            Some((_, c)) => *c += 1,
            None => self.counts.push((si, 1)),
        }
    }

    /// Flushes the current window and returns all transitions seen so far
    /// (what tier-1 `hot_spot_detector_recovers_the_encoder_phases`
    /// checks).
    #[must_use]
    pub fn transitions(&self) -> Vec<DetectedTransition> {
        let mut snapshot = self.clone();
        snapshot.close_window();
        snapshot.transitions
    }

    fn close_window(&mut self) {
        if self.counts.is_empty() {
            return;
        }
        // Signature: SIs contributing ≥ 20% of the window's executions,
        // most frequent first.
        let total: u64 = self.counts.iter().map(|&(_, c)| c).sum();
        let mut sorted = std::mem::take(&mut self.counts);
        sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let signature: Vec<SiId> = sorted
            .iter()
            .filter(|&&(_, c)| c * 5 >= total)
            .map(|&(id, _)| id)
            .collect();

        if signature == self.last_signature {
            self.pending_count = 0;
            return;
        }
        if signature == self.pending_signature {
            self.pending_count += 1;
        } else {
            self.pending_signature = signature;
            self.pending_count = 1;
            self.pending_since = self.current_window * self.window_cycles;
        }
        if self.pending_count >= self.stable_windows {
            self.last_signature = self.pending_signature.clone();
            self.transitions.push(DetectedTransition {
                at: self.pending_since,
                signature: self.last_signature.clone(),
            });
            self.pending_count = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(det: &mut HotSpotDetector, si: SiId, from: u64, to: u64, spacing: u64) {
        let mut t = from;
        while t < to {
            det.observe(si, t);
            t += spacing;
        }
    }

    #[test]
    fn detects_phase_change() {
        let mut det = HotSpotDetector::new(100_000, 2);
        feed(&mut det, SiId(0), 0, 1_000_000, 500);
        feed(&mut det, SiId(3), 1_000_000, 2_000_000, 500);
        let tr = det.transitions();
        assert_eq!(tr.len(), 2);
        assert_eq!(tr[0].signature, vec![SiId(0)]);
        assert_eq!(tr[1].signature, vec![SiId(3)]);
        assert!(tr[1].at >= 1_000_000);
    }

    #[test]
    fn mixed_signature_lists_dominant_sis() {
        let mut det = HotSpotDetector::new(100_000, 1);
        // Two SIs interleaved at similar rates.
        for i in 0..2_000u64 {
            det.observe(SiId(0), i * 400);
            det.observe(SiId(1), i * 400 + 200);
        }
        let tr = det.transitions();
        assert_eq!(tr.len(), 1);
        assert_eq!(tr[0].signature.len(), 2);
    }

    #[test]
    fn debouncing_suppresses_transient_blips() {
        let mut det = HotSpotDetector::new(100_000, 3);
        feed(&mut det, SiId(0), 0, 1_000_000, 500);
        // One noisy window of a different SI.
        feed(&mut det, SiId(7), 1_000_000, 1_100_000, 500);
        feed(&mut det, SiId(0), 1_100_000, 2_000_000, 500);
        let tr = det.transitions();
        assert_eq!(tr.len(), 1, "blip must not be reported: {tr:?}");
        assert_eq!(tr[0].signature, vec![SiId(0)]);
    }

    #[test]
    fn rare_sis_do_not_enter_the_signature() {
        let mut det = HotSpotDetector::new(100_000, 1);
        for i in 0..1_000u64 {
            det.observe(SiId(0), i * 800);
            if i % 50 == 0 {
                det.observe(SiId(8), i * 800 + 1);
            }
        }
        let tr = det.transitions();
        assert_eq!(tr[0].signature, vec![SiId(0)]);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_cycles_panic() {
        let mut det = HotSpotDetector::new(1_000, 1);
        det.observe(SiId(0), 5_000);
        det.observe(SiId(0), 100);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        let _ = HotSpotDetector::new(0, 1);
    }
}

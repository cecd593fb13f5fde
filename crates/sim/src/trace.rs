use std::fmt;
use std::sync::OnceLock;

pub use rispp_core::Burst;
use rispp_core::BurstIndex;
use rispp_model::SiId;
use rispp_monitor::HotSpotId;

/// One execution of a hot spot: prologue cycles of plain base-processor
/// code, then the SI bursts in program order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invocation {
    /// Which hot spot this is (hot spots repeat across frames).
    pub hot_spot: HotSpotId,
    /// Base-processor cycles before the first SI burst.
    pub prologue_cycles: u64,
    /// The SI executions of this invocation, in order.
    pub bursts: Vec<Burst>,
    /// Design-time estimates of SI executions for this hot spot, used to
    /// seed the run-time system on the *first* encounter (afterwards the
    /// online monitor takes over).
    pub hints: Vec<(SiId, u64)>,
}

impl Invocation {
    /// Total SI executions in this invocation.
    #[must_use]
    pub fn si_executions(&self) -> u64 {
        self.bursts.iter().map(|b| u64::from(b.count)).sum()
    }

    /// Measured executions per SI, as `(si, count)` pairs in SI order.
    #[must_use]
    pub fn execution_profile(&self) -> Vec<(SiId, u64)> {
        let mut map = std::collections::BTreeMap::new();
        for b in &self.bursts {
            *map.entry(b.si).or_insert(0u64) += u64::from(b.count);
        }
        map.into_iter().collect()
    }
}

/// A workload trace: the hot-spot invocations of an application run, e.g.
/// the ME → EE → LF migration of the H.264 encoder, repeated per frame.
///
/// Equality and `Debug` look at the invocations only; the block index is
/// derived from them.
#[derive(Clone, Default)]
pub struct Trace {
    invocations: Vec<Invocation>,
    /// Block index of the invocations' bursts, built on first use and
    /// shared by every replay of this trace.
    blocks: OnceLock<BurstIndex>,
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.invocations == other.invocations
    }
}

impl Eq for Trace {}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("invocations", &self.invocations)
            .finish()
    }
}

impl Trace {
    /// Creates a trace from explicit invocations.
    #[must_use]
    pub fn from_invocations(invocations: Vec<Invocation>) -> Self {
        Trace {
            invocations,
            blocks: OnceLock::new(),
        }
    }

    /// The hot-spot invocations in execution order.
    #[must_use]
    pub fn invocations(&self) -> &[Invocation] {
        &self.invocations
    }

    /// Number of invocations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.invocations.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.invocations.is_empty()
    }

    /// Appends an invocation (and drops the block index, which is rebuilt
    /// on next use).
    pub fn push(&mut self, invocation: Invocation) {
        self.blocks.take();
        self.invocations.push(invocation);
    }

    /// The [`BurstIndex`] of the invocations' bursts. Built on the first
    /// call and kept with the trace, so every job and request that replays
    /// this trace shares one build.
    pub(crate) fn block_index(&self) -> &BurstIndex {
        self.blocks.get_or_init(|| {
            BurstIndex::new(self.invocations.iter().map(|inv| inv.bursts.as_slice()))
        })
    }

    /// Total SI executions across the whole trace.
    #[must_use]
    pub fn total_si_executions(&self) -> u64 {
        self.invocations.iter().map(Invocation::si_executions).sum()
    }

    /// Keeps only the first `n` invocations (for truncated experiments).
    #[must_use]
    pub fn truncated(&self, n: usize) -> Trace {
        self.invocations.iter().take(n).cloned().collect()
    }

    /// Keeps only invocations of the given hot spot (e.g. Figure 2 studies
    /// the ME hot spot in isolation).
    #[must_use]
    pub fn filtered(&self, hot_spot: HotSpotId) -> Trace {
        self.invocations
            .iter()
            .filter(|inv| inv.hot_spot == hot_spot)
            .cloned()
            .collect()
    }
}

impl FromIterator<Invocation> for Trace {
    fn from_iter<I: IntoIterator<Item = Invocation>>(iter: I) -> Self {
        Trace::from_invocations(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::from_invocations(vec![
            Invocation {
                hot_spot: HotSpotId(0),
                prologue_cycles: 10,
                bursts: vec![
                    Burst {
                        si: SiId(0),
                        count: 5,
                        overhead: 2,
                    },
                    Burst {
                        si: SiId(1),
                        count: 7,
                        overhead: 2,
                    },
                    Burst {
                        si: SiId(0),
                        count: 3,
                        overhead: 2,
                    },
                ],
                hints: vec![(SiId(0), 8), (SiId(1), 7)],
            },
            Invocation {
                hot_spot: HotSpotId(1),
                prologue_cycles: 10,
                bursts: vec![Burst {
                    si: SiId(2),
                    count: 4,
                    overhead: 1,
                }],
                hints: vec![(SiId(2), 4)],
            },
        ])
    }

    #[test]
    fn execution_counts() {
        let t = sample();
        assert_eq!(t.total_si_executions(), 19);
        assert_eq!(t.invocations()[0].si_executions(), 15);
        assert_eq!(
            t.invocations()[0].execution_profile(),
            vec![(SiId(0), 8), (SiId(1), 7)]
        );
    }

    #[test]
    fn truncation_and_filtering() {
        let t = sample();
        assert_eq!(t.truncated(1).len(), 1);
        assert_eq!(t.filtered(HotSpotId(1)).len(), 1);
        assert_eq!(t.filtered(HotSpotId(9)).len(), 0);
        assert!(!t.is_empty());
        assert!(Trace::default().is_empty());
    }

    #[test]
    fn the_block_index_follows_the_invocations() {
        let mut t = sample();
        let before = t.clone();
        assert!(t.block_index().invocation(2).is_empty());
        let long = Invocation {
            bursts: vec![t.invocations()[0].bursts[0]; 40],
            ..t.invocations()[0].clone()
        };
        t.push(long);
        assert_eq!(
            t.block_index().invocation(2).len(),
            1,
            "push drops the stale index"
        );
        assert_ne!(t, before);
        assert_eq!(before, sample(), "equality ignores a built index");
        assert_eq!(format!("{before:?}"), format!("{:?}", sample()));
    }

    #[test]
    fn collect_from_iterator() {
        let t: Trace = sample().invocations().to_vec().into_iter().collect();
        assert_eq!(t.len(), 2);
    }
}

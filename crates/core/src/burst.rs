//! Bursts of SI executions, the block index, and the one stretch walk
//! that replays an event-free stretch a block at a time.
//!
//! Between two fabric events every SI runs at one fixed latency (the
//! fastest Molecule loaded right now only changes when an Atom load
//! completes, paper Section 3.1), so a stretch of bursts costs
//! Σ latency × executions + Σ count × overhead: a linear function of
//! per-SI counts. A [`BurstIndex`] stores those counts and the overhead
//! sum once per aligned block of [`BLOCK_BURSTS`] bursts of each
//! invocation, and a [`StretchWalker`] consumes a whole block from them
//! whenever its last execution starts before the next change of any of
//! its SIs' latencies. The same holds for every backend whose latencies
//! change only at known cycles: the arbiter's next fabric event, a Molen
//! accelerator's own readiness, or never (software), so all of them walk
//! their stretches through it.

use rispp_model::SiId;

use crate::types::BurstSegment;

/// A run of back-to-back executions of one SI, each followed by `overhead`
/// cycles of base-processor work (loop control, address generation, memory
/// traffic outside the SI itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// The Special Instruction executed.
    pub si: SiId,
    /// Number of executions.
    pub count: u32,
    /// Base-processor cycles between consecutive executions.
    pub overhead: u32,
}

/// Bursts per block of a [`BurstIndex`]. Blocks are aligned to the start
/// of their invocation; a trailing partial block has no entry.
pub const BLOCK_BURSTS: usize = 32;

/// `last` marker of a block the walker steps burst by burst: all of its
/// bursts are empty, or one of its sums does not fit the index.
const WALK: u8 = u8::MAX;

/// The block index of a sequence of invocations (a trace): for each full,
/// aligned block of [`BLOCK_BURSTS`] bursts of an invocation, the
/// executions of every SI the invocation uses, Σ count × overhead, and the
/// offset of the block's last non-empty burst.
///
/// Counts are stored per invocation-local SI, so an invocation that uses
/// two SIs of a large library pays for two counts per block, and an
/// invocation shorter than one block costs nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BurstIndex {
    /// The invocations that have blocks, ascending, each with where its
    /// entries start; a last entry closes the one before it.
    starts: Vec<Start>,
    /// Per indexed invocation: its distinct SIs, ascending.
    sis: Vec<SiId>,
    /// Per block: Σ count × overhead over its bursts.
    overhead: Vec<u64>,
    /// Per block: offset of its last non-empty burst, or [`WALK`].
    last: Vec<u8>,
    /// Per block, per SI of its invocation: executions in the block.
    counts: Vec<u32>,
}

/// Where one indexed invocation's entries start in each array of a
/// [`BurstIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Start {
    invocation: usize,
    sis: usize,
    blocks: usize,
    counts: usize,
}

/// One invocation's view of a [`BurstIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstBlocks<'a> {
    /// The distinct SIs of the invocation, ascending; column `j` of
    /// `counts` belongs to `sis[j]`.
    sis: &'a [SiId],
    overhead: &'a [u64],
    last: &'a [u8],
    counts: &'a [u32],
}

/// The sums of one indexed block that the walker may consume whole.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockSums<'a> {
    /// The SIs of the indexed invocation, ascending.
    pub(crate) sis: &'a [SiId],
    /// Σ count × overhead over the block's bursts.
    pub(crate) overhead: u64,
    /// Offset of the block's last non-empty burst.
    pub(crate) last: usize,
    /// Executions in the block per SI of `sis`.
    pub(crate) counts: &'a [u32],
}

impl BurstIndex {
    /// Indexes each invocation's bursts, in invocation order. Sums are
    /// computed in wide arithmetic; a block whose SI count exceeds `u32`
    /// or whose overhead sum exceeds `u64` is marked to be walked burst by
    /// burst, as is a block of empty bursts.
    #[must_use]
    pub fn new<'b>(invocations: impl IntoIterator<Item = &'b [Burst]>) -> Self {
        let mut index = BurstIndex::default();
        let (mut sis, mut sums) = (Vec::new(), Vec::new());
        for (invocation, bursts) in invocations.into_iter().enumerate() {
            if bursts.len() < BLOCK_BURSTS {
                continue;
            }
            index.starts.push(index.start(invocation));
            sis.clear();
            sis.extend(bursts.iter().map(|b| b.si));
            sis.sort_unstable();
            sis.dedup();
            index.sis.extend_from_slice(&sis);
            for block in bursts.chunks_exact(BLOCK_BURSTS) {
                sums.clear();
                sums.resize(sis.len(), 0u64);
                let mut overhead = 0u128;
                let mut last = None;
                for (offset, b) in block.iter().enumerate() {
                    if b.count == 0 {
                        continue;
                    }
                    let j = sis
                        .binary_search(&b.si)
                        .expect("every SI of the invocation is listed");
                    // At most BLOCK_BURSTS u32 counts: cannot overflow u64.
                    sums[j] += u64::from(b.count);
                    overhead += u128::from(b.count) * u128::from(b.overhead);
                    last = Some(offset);
                }
                let overhead = u64::try_from(overhead).ok();
                let fits = overhead.is_some() && sums.iter().all(|&s| u32::try_from(s).is_ok());
                index.overhead.push(overhead.unwrap_or(0));
                index.last.push(match last {
                    Some(offset) if fits => u8::try_from(offset).expect("block offsets fit u8"),
                    _ => WALK,
                });
                index
                    .counts
                    .extend(sums.iter().map(|&s| u32::try_from(s).unwrap_or(0)));
            }
        }
        if !index.starts.is_empty() {
            index.starts.push(index.start(usize::MAX));
        }
        // The index lives as long as its trace: drop the growth slack.
        index.starts.shrink_to_fit();
        index.sis.shrink_to_fit();
        index.overhead.shrink_to_fit();
        index.last.shrink_to_fit();
        index.counts.shrink_to_fit();
        index
    }

    /// Where entries appended next for `invocation` start.
    fn start(&self, invocation: usize) -> Start {
        Start {
            invocation,
            sis: self.sis.len(),
            blocks: self.last.len(),
            counts: self.counts.len(),
        }
    }

    /// The blocks of invocation `invocation` ([`BurstBlocks::EMPTY`] when
    /// it is shorter than one block or past the indexed invocations).
    #[must_use]
    pub fn invocation(&self, invocation: usize) -> BurstBlocks<'_> {
        let Some(closed) = self.starts.len().checked_sub(1) else {
            return BurstBlocks::EMPTY;
        };
        match self.starts[..closed].binary_search_by_key(&invocation, |s| s.invocation) {
            Ok(k) => {
                let (from, to) = (self.starts[k], self.starts[k + 1]);
                BurstBlocks {
                    sis: &self.sis[from.sis..to.sis],
                    overhead: &self.overhead[from.blocks..to.blocks],
                    last: &self.last[from.blocks..to.blocks],
                    counts: &self.counts[from.counts..to.counts],
                }
            }
            Err(_) => BurstBlocks::EMPTY,
        }
    }
}

impl<'a> BurstBlocks<'a> {
    /// No blocks: every burst is walked one by one.
    pub const EMPTY: BurstBlocks<'static> = BurstBlocks {
        sis: &[],
        overhead: &[],
        last: &[],
        counts: &[],
    };

    /// Number of indexed blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.last.len()
    }

    /// Whether no block is indexed (an invocation shorter than one block).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.last.is_empty()
    }

    /// The sums of block `k`, or `None` when it has no entry or must be
    /// walked burst by burst.
    pub(crate) fn block(&self, k: usize) -> Option<BlockSums<'a>> {
        let last = *self.last.get(k)?;
        if last == WALK {
            return None;
        }
        let n = self.sis.len();
        Some(BlockSums {
            sis: self.sis,
            overhead: self.overhead[k],
            last: usize::from(last),
            counts: &self.counts[k * n..(k + 1) * n],
        })
    }
}

/// The bursts of one invocation from a replay position on, with the
/// invocation's block index.
#[derive(Debug, Clone, Copy)]
pub struct BurstRun<'a> {
    pub(crate) bursts: &'a [Burst],
    pub(crate) from: usize,
    pub(crate) blocks: BurstBlocks<'a>,
}

impl<'a> BurstRun<'a> {
    /// The bursts `bursts[from..]` of one invocation. `blocks` is the
    /// invocation's view of a [`BurstIndex`] built from the same bursts,
    /// or [`BurstBlocks::EMPTY`] to replay without skipping blocks.
    ///
    /// # Panics
    ///
    /// Panics if `from` is past the end of `bursts`, or if `blocks`
    /// indexes a different number of blocks than `bursts` holds.
    #[must_use]
    pub fn new(bursts: &'a [Burst], from: usize, blocks: BurstBlocks<'a>) -> Self {
        assert!(from <= bursts.len(), "replay position past the bursts");
        assert!(
            blocks.is_empty() || blocks.len() == bursts.len() / BLOCK_BURSTS,
            "block index built from other bursts"
        );
        BurstRun {
            bursts,
            from,
            blocks,
        }
    }

    /// The bursts still to replay.
    #[must_use]
    pub fn remaining(&self) -> &'a [Burst] {
        &self.bursts[self.from..]
    }
}

/// Executions of one SI in a stretch of bursts consumed as totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiTotals {
    /// The Special Instruction.
    pub si: SiId,
    /// Executions of `si` in the stretch.
    pub executions: u64,
    /// Those of them that ran on accelerating hardware.
    pub hardware_executions: u64,
}

/// How far a totals-only batch got.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stretch {
    /// Bursts consumed from the run's position, empty ones included.
    pub consumed: usize,
    /// Cycle at which the last consumed non-empty burst ends; `None` when
    /// no non-empty burst was consumed.
    pub end: Option<u64>,
}

/// How one SI runs for the rest of a stretch: its latency, the variant
/// it runs on when it runs on accelerating hardware, and the cycle it
/// holds until.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiRate {
    /// Cycles per execution.
    pub latency: u32,
    /// Hardware variant index; `None` when the SI traps to software.
    pub variant: Option<usize>,
    /// The first cycle at which the rate may change (the arbiter's next
    /// fabric event, a Molen accelerator's readiness); `None` when it
    /// never does. An execution that starts at or after it is not the
    /// walk's to consume.
    pub until: Option<u64>,
}

/// One SI's state in a walk.
#[derive(Debug, Clone, Copy, Default)]
struct Walked {
    /// `None` until the SI's first burst (or block) of the walk.
    rate: Option<SiRate>,
    executions: u64,
    last: LastBurst,
}

impl Walked {
    /// The rate it ran at, when any of its executions ran.
    fn ran(&self) -> Option<SiRate> {
        self.rate.filter(|_| self.executions > 0)
    }
}

/// Where an SI's last burst of a walk sits.
#[derive(Debug, Clone, Copy, Default)]
enum LastBurst {
    /// None of its bursts ran.
    #[default]
    None,
    /// Stepped on its own: its first execution starts at `start`, and it
    /// ends at `end`.
    At { start: u64, end: u64 },
    /// Somewhere in the skipped block whose first burst is `first` and
    /// which started at cycle `start`; [`StretchWalker::last_burst`]
    /// recovers it with one scan of the block.
    InBlock { first: usize, start: u64 },
}

/// The one stretch walk every built-in backend replays through, with its
/// scratch (reused across calls, so the steady state allocates nothing).
///
/// [`walk`](Self::walk) lays the bursts of a [`BurstRun`] back to back
/// and consumes them up to the first non-empty burst whose last execution
/// would start at or after its SI's limit, the [`SiRate::until`] cycle at
/// which that SI's latency may change. Until then each SI runs at the one
/// [`SiRate`] the backend resolves for it on first use. Where the run
/// carries a [`BurstBlocks`] index, a whole block is consumed from its
/// sums when its last execution starts before the earliest limit of the
/// SIs it runs: the last starts of successive non-empty bursts never
/// decrease, so that one test covers every burst of the block. Without
/// an index (the segment path), every burst is stepped on its own.
///
/// The per-SI table lives across walks: a walk resets only the entries
/// the walk before it resolved, and [`report`](Self::report) and
/// [`resolved`](Self::resolved) visit only its own, so a walk costs what
/// it touches, not the library's size.
#[derive(Debug, Clone, Default)]
pub struct StretchWalker {
    /// Per SI, by index: its state in the last walk. An entry outside
    /// `resolved` is `Walked::default()`.
    sis: Vec<Walked>,
    /// The SIs the last walk resolved, ascending once it returns.
    resolved: Vec<SiId>,
    /// Start of the last consumed non-empty burst.
    last_start: Option<u64>,
    /// The first burst and the burst boundaries of the skipped block
    /// scanned last, so a block that holds the last burst of several SIs
    /// is scanned once.
    scanned: Option<(usize, [u64; BLOCK_BURSTS + 1])>,
}

impl StretchWalker {
    /// Walks `run` from cycle `start` up to the first non-empty burst
    /// whose last execution would start at or after its SI's limit.
    /// `rate` resolves an SI's rate, with that limit, on its first use in
    /// the walk; `segment` receives the one unsplit segment of each
    /// non-empty burst stepped on its own, in order. Returns how many
    /// bursts were consumed (empty ones included) and where the last
    /// consumed non-empty burst ends.
    pub fn walk(
        &mut self,
        run: BurstRun<'_>,
        start: u64,
        mut rate: impl FnMut(SiId) -> SiRate,
        mut segment: impl FnMut(BurstSegment),
    ) -> Stretch {
        for si in self.resolved.drain(..) {
            self.sis[si.index()] = Walked::default();
        }
        debug_assert!(
            self.sis.iter().all(|w| w.rate.is_none()),
            "an entry the last walk touched was not reset"
        );
        self.last_start = None;
        self.scanned = None;
        let BurstRun {
            bursts,
            from,
            blocks,
        } = run;
        let mut t = start;
        let mut i = from;
        while i < bursts.len() {
            let skipped = if i.is_multiple_of(BLOCK_BURSTS) {
                self.skip_block(bursts, blocks, i, t, &mut rate)
            } else {
                None
            };
            if let Some(end) = skipped {
                t = end;
                i += BLOCK_BURSTS;
                continue;
            }
            let Burst {
                si,
                count,
                overhead,
            } = bursts[i];
            if count == 0 {
                i += 1;
                continue;
            }
            let r = self.resolve(si, &mut rate);
            let per = u64::from(r.latency) + u64::from(overhead);
            // The burst is one segment iff its last execution starts
            // strictly before its SI's limit: `div_ceil(limit − t, per) ≥
            // count`, restated multiplicatively (in u128, so extreme
            // `count × per` products cannot wrap) to keep the division
            // off the per-burst path.
            if let Some(limit) = r.until {
                if limit <= t || u128::from(limit - t) <= (u128::from(count) - 1) * u128::from(per)
                {
                    break;
                }
            }
            let end = t + u64::from(count) * per;
            segment(match r.variant {
                Some(v) => BurstSegment::hardware(t, u64::from(count), r.latency, v),
                None => BurstSegment::software(t, u64::from(count), r.latency),
            });
            let w = &mut self.sis[si.index()];
            w.executions += u64::from(count);
            w.last = LastBurst::At { start: t, end };
            self.last_start = Some(t);
            t = end;
            i += 1;
        }
        self.resolved.sort_unstable();
        Stretch {
            consumed: i - from,
            end: self.last_start.map(|_| t),
        }
    }

    /// Consumes the indexed block whose first burst is `bursts[i]`, which
    /// starts at cycle `t`, from its sums, and returns where it ends, when
    /// its last execution starts before the earliest limit of the SIs it
    /// runs: then every burst of the block passes the per-burst test
    /// against its own SI's limit. The block's cycles are Σ latency ×
    /// executions per SI plus its Σ count × overhead, in u128 so no sum
    /// can wrap.
    fn skip_block(
        &mut self,
        bursts: &[Burst],
        blocks: BurstBlocks<'_>,
        i: usize,
        t: u64,
        rate: &mut impl FnMut(SiId) -> SiRate,
    ) -> Option<u64> {
        let block = blocks.block(i / BLOCK_BURSTS)?;
        let mut cycles = u128::from(block.overhead);
        let mut limit: Option<u64> = None;
        for (&si, &n) in block.sis.iter().zip(block.counts) {
            if n > 0 {
                let r = self.resolve(si, rate);
                cycles += u128::from(r.latency) * u128::from(n);
                limit = match (limit, r.until) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
        }
        let last = bursts[i + block.last];
        let per = u64::from(self.latency(last.si)) + u64::from(last.overhead);
        let end = u64::try_from(u128::from(t) + cycles).ok()?;
        // Its final execution starts `per` before its end.
        if limit.is_some_and(|limit| limit <= end - per) {
            return None;
        }
        for (&si, &n) in block.sis.iter().zip(block.counts) {
            if n > 0 {
                let w = &mut self.sis[si.index()];
                w.executions += u64::from(n);
                w.last = LastBurst::InBlock { first: i, start: t };
            }
        }
        self.last_start = Some(end - u64::from(last.count) * per);
        Some(end)
    }

    /// `si`'s rate, resolved through `rate` on its first use in the walk.
    /// Every stepped burst and every block's SIs come through here, so
    /// the resolved case stays inline and the first use is out of line.
    #[inline]
    fn resolve(&mut self, si: SiId, rate: &mut impl FnMut(SiId) -> SiRate) -> SiRate {
        match self.sis.get(si.index()).and_then(|w| w.rate) {
            Some(r) => r,
            None => self.first_use(si, rate),
        }
    }

    /// Resolves `si`'s rate and records `si` as resolved by this walk.
    #[cold]
    #[inline(never)]
    fn first_use(&mut self, si: SiId, rate: &mut impl FnMut(SiId) -> SiRate) -> SiRate {
        let k = si.index();
        if k >= self.sis.len() {
            self.sis.resize(k + 1, Walked::default());
        }
        let r = rate(si);
        self.sis[k].rate = Some(r);
        self.resolved.push(si);
        r
    }

    /// The latency of an SI already resolved in this walk.
    fn latency(&self, si: SiId) -> u32 {
        self.sis[si.index()]
            .rate
            .expect("resolved in this walk")
            .latency
    }

    /// The rate `si` ran at in the last walk, or `None` when none of its
    /// executions ran.
    pub(crate) fn ran(&self, si: SiId) -> Option<SiRate> {
        self.sis.get(si.index()).and_then(Walked::ran)
    }

    /// The SIs the last walk resolved a rate for, ascending: those it ran
    /// and those whose first burst it stopped at.
    /// [`last_burst`](Self::last_burst) tells them apart.
    #[must_use]
    pub fn resolved(&self) -> &[SiId] {
        &self.resolved
    }

    /// Hands the totals of every SI the last walk ran to `totals`, in SI
    /// order.
    pub fn report(&self, mut totals: impl FnMut(SiTotals)) {
        for &si in &self.resolved {
            let w = &self.sis[si.index()];
            if let Some(rate) = w.ran() {
                totals(SiTotals {
                    si,
                    executions: w.executions,
                    hardware_executions: rate.variant.map_or(0, |_| w.executions),
                });
            }
        }
    }

    /// Where the last walk's last consumed non-empty burst starts.
    pub(crate) fn last_start(&self) -> Option<u64> {
        self.last_start
    }

    /// Where `si`'s last burst of the last walk, over `run`, starts and
    /// ends, or `None` when none of its executions ran. A burst inside a
    /// skipped block is found by one scan of the block.
    pub fn last_burst(&mut self, run: BurstRun<'_>, si: SiId) -> Option<(u64, u64)> {
        let (first, start) = match self.sis.get(si.index())?.last {
            LastBurst::None => return None,
            LastBurst::At { start, end } => return Some((start, end)),
            LastBurst::InBlock { first, start } => (first, start),
        };
        let block = &run.bursts[first..first + BLOCK_BURSTS];
        let bounds = match self.scanned {
            Some((scanned, bounds)) if scanned == first => bounds,
            _ => {
                let mut bounds = [start; BLOCK_BURSTS + 1];
                for (k, b) in block.iter().enumerate() {
                    bounds[k + 1] = bounds[k];
                    if b.count > 0 {
                        bounds[k + 1] += u64::from(b.count)
                            * (u64::from(self.latency(b.si)) + u64::from(b.overhead));
                    }
                }
                self.scanned = Some((first, bounds));
                bounds
            }
        };
        let k = block
            .iter()
            .rposition(|b| b.count > 0 && b.si == si)
            .expect("the SI ran in its block");
        Some((bounds[k], bounds[k + 1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burst(si: u16, count: u32, overhead: u32) -> Burst {
        Burst {
            si: SiId(si),
            count,
            overhead,
        }
    }

    #[test]
    fn short_invocations_have_no_blocks() {
        let bursts = vec![burst(0, 5, 1); BLOCK_BURSTS - 1];
        let index = BurstIndex::new([bursts.as_slice(), &[]]);
        assert_eq!(index, BurstIndex::default(), "nothing stored");
        assert_eq!(index.invocation(0), BurstBlocks::EMPTY);
        assert_eq!(index.invocation(1), BurstBlocks::EMPTY);
    }

    #[test]
    fn blocks_hold_per_si_counts_overhead_and_last_burst() {
        let mut bursts: Vec<Burst> = (0..2 * BLOCK_BURSTS as u16 + 3)
            .map(|i| burst(if i % 3 == 0 { 7 } else { 2 }, 10, u32::from(i % 4)))
            .collect();
        bursts[BLOCK_BURSTS - 1].count = 0;
        let short = [burst(5, 1, 1)];
        let index = BurstIndex::new([&short[..], &bursts, &short, &bursts]);
        assert_eq!(index.invocation(0), BurstBlocks::EMPTY);
        assert_eq!(index.invocation(2), BurstBlocks::EMPTY);
        assert_eq!(index.invocation(1), index.invocation(3));
        assert_eq!(index.invocation(4), BurstBlocks::EMPTY);
        let blocks = index.invocation(1);
        assert_eq!(blocks.len(), 2);
        let first = blocks.block(0).unwrap();
        assert_eq!(first.sis, &[SiId(2), SiId(7)]);
        assert_eq!(first.last, BLOCK_BURSTS - 2);
        let (mut sevens, mut twos, mut overhead) = (0, 0, 0);
        for b in &bursts[..BLOCK_BURSTS] {
            if b.si == SiId(7) {
                sevens += b.count;
            } else {
                twos += b.count;
            }
            overhead += u64::from(b.count) * u64::from(b.overhead);
        }
        assert_eq!(first.counts, &[twos, sevens]);
        assert_eq!(first.overhead, overhead);
        assert_eq!(blocks.block(1).unwrap().last, BLOCK_BURSTS - 1);
        assert!(blocks.block(2).is_none());
    }

    #[test]
    fn empty_and_overflowing_blocks_are_walked() {
        let mut bursts = vec![burst(0, 0, 3); BLOCK_BURSTS];
        bursts.extend(vec![burst(0, u32::MAX, 1); BLOCK_BURSTS]);
        bursts.extend(vec![burst(1, 1, u32::MAX); BLOCK_BURSTS]);
        let index = BurstIndex::new([bursts.as_slice()]);
        let blocks = index.invocation(0);
        assert_eq!(blocks.len(), 3);
        assert!(blocks.block(0).is_none(), "all bursts empty");
        assert!(blocks.block(1).is_none(), "count sum exceeds u32");
        assert!(blocks.block(2).is_some(), "overhead sum fits u64");
    }

    #[test]
    #[should_panic(expected = "block index built from other bursts")]
    fn a_run_refuses_a_foreign_index() {
        let index = BurstIndex::new([vec![burst(0, 1, 1); 2 * BLOCK_BURSTS].as_slice()]);
        let _ = BurstRun::new(&[burst(0, 1, 1); BLOCK_BURSTS], 0, index.invocation(0));
    }
}

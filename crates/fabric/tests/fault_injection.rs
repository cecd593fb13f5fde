//! Behavioural tests of the seeded fault-injection layer: CRC aborts, SEU
//! corruption, permanent tile failures, quarantine, and the determinism
//! guarantees that make fault runs reproducible. Under all of them, what
//! the fabric keeps beside its containers (the Empty/Faulty count, the
//! present-types mask) must equal a recount, and every load must land
//! where the two-pass victim rule puts it.

use proptest::prelude::*;
use rispp_fabric::fault::PPM;
use rispp_fabric::{
    ContainerId, ContainerState, Fabric, FabricConfig, FabricError, FabricEvent,
    FabricJournalEntry, FaultModel, ReconfigPortConfig,
};
use rispp_model::{AtomTypeId, AtomTypeInfo, AtomUniverse, Molecule};

fn universe(n: usize) -> AtomUniverse {
    AtomUniverse::from_types((0..n).map(|i| AtomTypeInfo::new(format!("T{i}")))).unwrap()
}

fn per_atom() -> u64 {
    ReconfigPortConfig::prototype().load_cycles(60_488).unwrap()
}

/// Steps `f` to `now` and returns the events that occurred.
fn advance(f: &mut Fabric, now: u64) -> Vec<FabricEvent> {
    let mut events = Vec::new();
    f.advance_events_into(now, &mut events);
    events
}

#[test]
fn null_model_is_bit_identical_to_no_model() {
    let u = universe(3);
    let mut plain = Fabric::new(FabricConfig::prototype(2), &u);
    let mut nulled = Fabric::with_fault_model(
        FabricConfig::prototype(2),
        &u,
        FaultModel::uniform(0.0, 0xDEAD),
    );
    let script = [0u16, 1, 2, 0, 2, 1, 0];
    for (i, &a) in script.iter().enumerate() {
        plain.enqueue_load(0, AtomTypeId(a), 0);
        nulled.enqueue_load(0, AtomTypeId(a), 0);
        let now = (i as u64 + 1) * 40_000;
        assert_eq!(advance(&mut plain, now), advance(&mut nulled, now));
        assert_eq!(plain.available(), nulled.available());
        assert_eq!(plain.generation(), nulled.generation());
        assert_eq!(plain.in_flight(), nulled.in_flight());
        assert_eq!(plain.next_event_at(), nulled.next_event_at());
    }
    assert_eq!(
        advance(&mut plain, 10_000_000),
        advance(&mut nulled, 10_000_000)
    );
    assert_eq!(plain.stats(), nulled.stats());
}

#[test]
fn certain_crc_abort_rejects_every_load() {
    let model = FaultModel {
        seed: 1,
        crc_abort_ppm: PPM,
        ..FaultModel::default()
    };
    let mut f = Fabric::with_fault_model(FabricConfig::prototype(2), &universe(2), model);
    f.enqueue_load(0, AtomTypeId(0), 0);
    let events = advance(&mut f, 10_000_000);
    assert_eq!(
        events,
        vec![FabricEvent::LoadAborted {
            atom: AtomTypeId(0),
            container: ContainerId(0),
            at: per_atom(),
        }]
    );
    assert_eq!(f.containers()[0].state(), ContainerState::Empty);
    assert_eq!(f.available().total_atoms(), 0);
    assert_eq!(f.stats().loads_aborted, 1);
    assert_eq!(f.stats().loads_completed, 0);
    assert_eq!(f.stats().fault_cycles_lost, per_atom());
    assert!(f.is_idle(), "an aborted load must free the port");
}

#[test]
fn seu_corrupts_then_scrub_reload_recovers() {
    // Mean lifetime 1e9/1e6 = 1000 cycles: corruption lands shortly after
    // the load completes.
    let model = FaultModel {
        seed: 2,
        seu_per_gcycle: 1_000_000,
        ..FaultModel::default()
    };
    let mut f = Fabric::with_fault_model(FabricConfig::prototype(1), &universe(1), model);
    f.enqueue_load(0, AtomTypeId(0), 0);
    let events = advance(&mut f, 10_000_000);
    assert_eq!(events.len(), 2, "completion then corruption: {events:?}");
    assert!(matches!(events[0], FabricEvent::Completed(done) if done.atom == AtomTypeId(0)));
    let FabricEvent::AtomCorrupted {
        atom,
        container,
        at,
    } = events[1]
    else {
        panic!("expected corruption, got {:?}", events[1]);
    };
    assert_eq!(atom, AtomTypeId(0));
    assert_eq!(container, ContainerId(0));
    assert!(at > per_atom(), "corruption strictly after completion");
    assert_eq!(
        f.containers()[0].state(),
        ContainerState::Faulty {
            atom: AtomTypeId(0)
        }
    );
    assert_eq!(f.available().total_atoms(), 0);
    assert_eq!(f.stats().seu_corruptions, 1);

    // Scrub-and-reload: the faulty container is a load target again.
    f.enqueue_load(0, AtomTypeId(0), 0);
    let events = advance(&mut f, 20_000_000);
    assert!(
        matches!(events[0], FabricEvent::Completed(done) if done.container == ContainerId(0)),
        "reload must scrub the faulty container: {events:?}"
    );
    assert_eq!(f.stats().loads_completed, 2);
}

#[test]
fn scheduled_tile_failures_quarantine_containers() {
    let model = FaultModel {
        seed: 3,
        permanent_failure_ppm: PPM,
        permanent_failure_horizon: 50_000,
        ..FaultModel::default()
    };
    let mut f = Fabric::with_fault_model(FabricConfig::prototype(3), &universe(2), model);
    assert_eq!(f.usable_container_count(), 3);
    let events = advance(&mut f, 100_000);
    let failed = events
        .iter()
        .filter(|e| matches!(e, FabricEvent::ContainerFailed { .. }))
        .count();
    assert_eq!(
        failed, 3,
        "all tiles must fail inside the horizon: {events:?}"
    );
    assert_eq!(f.usable_container_count(), 0);
    assert_eq!(f.stats().permanent_failures, 3);
    assert_eq!(f.stats().containers_quarantined, 3);
    assert!(f
        .containers()
        .iter()
        .all(rispp_fabric::AtomContainer::is_quarantined));

    // Loads on a dead fabric are dropped, not wedged: forward progress.
    f.enqueue_load(0, AtomTypeId(0), 0);
    assert!(f.is_idle());
    assert_eq!(f.stats().loads_cancelled, 1);
    assert!(advance(&mut f, 200_000).is_empty());
}

#[test]
fn tile_failure_mid_load_aborts_the_transfer() {
    // The single tile dies inside [1, 10_000], long before the ~87K-cycle
    // load completes.
    let model = FaultModel {
        seed: 4,
        permanent_failure_ppm: PPM,
        permanent_failure_horizon: 10_000,
        ..FaultModel::default()
    };
    let mut f = Fabric::with_fault_model(FabricConfig::prototype(1), &universe(1), model);
    f.enqueue_load(0, AtomTypeId(0), 0);
    let events = advance(&mut f, 10_000_000);
    assert_eq!(events.len(), 2, "{events:?}");
    let FabricEvent::ContainerFailed { container, at } = events[0] else {
        panic!("expected failure first, got {:?}", events[0]);
    };
    assert_eq!(container, ContainerId(0));
    assert!(at <= 10_000);
    assert!(
        matches!(events[1], FabricEvent::LoadAborted { atom, at: abort_at, .. }
            if atom == AtomTypeId(0) && abort_at == at),
        "the streaming load dies with the tile: {events:?}"
    );
    assert_eq!(f.stats().loads_completed, 0);
    assert_eq!(f.stats().loads_aborted, 1);
    assert_eq!(f.stats().fault_cycles_lost, per_atom());
    assert!(f.is_idle(), "the port must be freed when its target dies");
}

#[test]
fn manual_quarantine_removes_loaded_atoms() {
    let mut f = Fabric::new(FabricConfig::prototype(2), &universe(2));
    f.enqueue_load(0, AtomTypeId(0), 0);
    advance(&mut f, 10_000_000);
    assert_eq!(f.available().counts(), &[1, 0]);
    let gen = f.generation();

    assert_eq!(
        f.quarantine(ContainerId(9)),
        Err(FabricError::UnknownContainer(ContainerId(9)))
    );
    f.quarantine(ContainerId(0)).unwrap();
    assert_eq!(f.available().counts(), &[0, 0]);
    assert!(
        f.generation() > gen,
        "removing an atom must invalidate caches"
    );
    assert_eq!(f.usable_container_count(), 1);
    assert_eq!(f.stats().containers_quarantined, 1);
    // Idempotent.
    f.quarantine(ContainerId(0)).unwrap();
    assert_eq!(f.stats().containers_quarantined, 1);
}

#[test]
fn backoff_delays_a_queued_load() {
    let mut f = Fabric::new(FabricConfig::prototype(2), &universe(1));
    f.enqueue_load(0, AtomTypeId(0), 5_000);
    assert!(advance(&mut f, 4_999).is_empty());
    assert_eq!(f.in_flight(), None, "backoff window still closed");
    assert_eq!(f.next_event_at(), Some(5_000));
    let events = advance(&mut f, 5_000 + per_atom());
    assert_eq!(
        events,
        vec![FabricEvent::Completed(rispp_fabric::LoadCompleted {
            atom: AtomTypeId(0),
            container: ContainerId(0),
            at: 5_000 + per_atom(),
        })]
    );
}

#[test]
fn loading_container_is_never_an_eviction_victim() {
    // Regression guard: a container in `Loading` state must never be
    // overwritten by a subsequent load (the serial port guarantees the
    // in-flight transfer completes before the next victim is picked).
    let mut f = Fabric::new(FabricConfig::prototype(2), &universe(3));
    f.enqueue_load(0, AtomTypeId(0), 0);
    f.enqueue_load(0, AtomTypeId(1), 0);
    f.enqueue_load(0, AtomTypeId(2), 0);
    advance(&mut f, per_atom() / 2);
    assert!(
        matches!(f.containers()[0].state(), ContainerState::Loading { atom, .. } if atom == AtomTypeId(0)),
        "first load must still be streaming"
    );
    let events = advance(&mut f, 10_000_000);
    assert_eq!(events.len(), 3, "every load must complete: {events:?}");
    assert_eq!(f.stats().loads_completed, 3);
    // The third load evicted a *Loaded* container (exactly one eviction);
    // at no point was a streaming transfer clobbered.
    assert_eq!(f.stats().evictions, 1);
    assert_eq!(f.available().total_atoms(), 2);
}

proptest! {
    /// Identical (seed, rates, load script) → identical event streams and
    /// statistics, step for step. This is the foundation of sweep
    /// determinism under fault injection.
    #[test]
    fn identical_seeds_produce_identical_runs(
        seed in 0u64..u64::MAX,
        rate_ppm in 0u32..200_000,
        loads in proptest::collection::vec(0u16..3, 1..25),
        step in 20_000u64..150_000,
    ) {
        let u = universe(3);
        let model = FaultModel::uniform_ppm(rate_ppm, seed);
        let mut a = Fabric::with_fault_model(FabricConfig::prototype(2), &u, model);
        let mut b = Fabric::with_fault_model(FabricConfig::prototype(2), &u, model);
        for (i, &atom) in loads.iter().enumerate() {
            a.enqueue_load(0, AtomTypeId(atom), 0);
            b.enqueue_load(0, AtomTypeId(atom), 0);
            let now = (i as u64 + 1) * step;
            prop_assert_eq!(advance(&mut a, now), advance(&mut b, now));
            prop_assert_eq!(a.available(), b.available());
            prop_assert_eq!(a.next_event_at(), b.next_event_at());
        }
        prop_assert_eq!(advance(&mut a, 50_000_000), advance(&mut b, 50_000_000));
        prop_assert_eq!(a.stats(), b.stats());
    }

    /// Under any fault mix the fabric's books stay balanced: every enqueued
    /// load is completed, aborted, or cancelled, and the available set
    /// always matches the per-container states.
    #[test]
    fn fault_accounting_is_conserved(
        seed in 0u64..u64::MAX,
        rate_ppm in 0u32..500_000,
        loads in proptest::collection::vec(0u16..3, 1..25),
    ) {
        let u = universe(3);
        let model = FaultModel::uniform_ppm(rate_ppm, seed);
        let mut f = Fabric::with_fault_model(FabricConfig::prototype(3), &u, model);
        for (i, &atom) in loads.iter().enumerate() {
            f.enqueue_load(0, AtomTypeId(atom), 0);
            advance(&mut f, (i as u64 + 1) * 60_000);
            let mut recount = [0u16; 3];
            for c in f.containers() {
                if let Some(a) = c.loaded_atom() {
                    recount[a.index()] += 1;
                }
            }
            prop_assert_eq!(f.available().counts(), &recount[..]);
        }
        advance(&mut f, 100_000_000);
        let s = f.stats();
        prop_assert!(f.is_idle());
        prop_assert_eq!(
            s.loads_enqueued,
            s.loads_completed + s.loads_aborted + s.loads_cancelled
        );
        prop_assert!(s.containers_quarantined <= 3);
    }
}

/// The containers as the journal tells them, with each one's own LRU
/// stamp (its last load completion) and every atom type's last use as the
/// test marked it: enough to choose a victim without asking the fabric.
struct Shadow {
    states: Vec<ContainerState>,
    stamps: Vec<u64>,
    type_used: Vec<u64>,
}

impl Shadow {
    fn effective_last_used(&self, i: usize) -> u64 {
        match self.states[i] {
            ContainerState::Loaded { atom } => self.stamps[i].max(self.type_used[atom.index()]),
            _ => self.stamps[i],
        }
    }

    /// The victim rule in two passes, as the fabric once ran it: the
    /// first Empty container, else the first Faulty one, else the least
    /// recently used Loaded container whose type is loaded more often
    /// than `protected` keeps, else the least recently used Loaded one
    /// (first minimum on ties).
    fn two_pass_victim(&self, protected: &Molecule) -> Option<ContainerId> {
        let first = |tier: fn(&ContainerState) -> bool| self.states.iter().position(tier);
        let pick = first(|s| *s == ContainerState::Empty)
            .or_else(|| first(|s| matches!(s, ContainerState::Faulty { .. })))
            .or_else(|| {
                let mut loaded = vec![0u16; protected.arity()];
                let atom = |i: usize| match self.states[i] {
                    ContainerState::Loaded { atom } => Some(atom.index()),
                    _ => None,
                };
                for a in (0..self.states.len()).filter_map(atom) {
                    loaded[a] += 1;
                }
                let candidates = (0..self.states.len()).filter(|&i| atom(i).is_some());
                candidates
                    .clone()
                    .filter(|&i| atom(i).is_some_and(|a| loaded[a] > protected.count(a)))
                    .min_by_key(|&i| self.effective_last_used(i))
                    .or_else(|| candidates.min_by_key(|&i| self.effective_last_used(i)))
            });
        pick.map(|i| ContainerId(u16::try_from(i).unwrap()))
    }

    /// Replays journal entries, checking each load's target against the
    /// two-pass choice on the state just before it.
    fn replay(&mut self, journal: &[FabricJournalEntry], protected: &Molecule) {
        for entry in journal {
            match *entry {
                FabricJournalEntry::LoadStarted {
                    container,
                    atom,
                    finish,
                    ..
                } => {
                    assert_eq!(
                        Some(container),
                        self.two_pass_victim(protected),
                        "victim of the load of {atom}"
                    );
                    self.states[container.index()] = ContainerState::Loading { atom, finish };
                }
                FabricJournalEntry::LoadFinished {
                    container,
                    atom,
                    at,
                } => {
                    self.states[container.index()] = ContainerState::Loaded { atom };
                    self.stamps[container.index()] = at;
                }
                FabricJournalEntry::LoadAborted { container, .. } => {
                    self.states[container.index()] = ContainerState::Empty;
                }
                FabricJournalEntry::AtomCorrupted {
                    container, atom, ..
                } => {
                    self.states[container.index()] = ContainerState::Faulty { atom };
                }
                FabricJournalEntry::ContainerQuarantined { container, .. } => {
                    self.states[container.index()] = ContainerState::Quarantined;
                }
            }
        }
    }
}

/// One step of the kept-state proptest.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Enqueue a load of type `.0`, not before `.1` cycles from now.
    Enqueue(u16, u64),
    /// Advance the clock by this many cycles.
    Advance(u64),
    /// Mark atom type `.0` as executed now.
    Mark(u16),
    /// Protect `.0` instances of every type.
    Protect(u16),
    /// Quarantine container `.0`.
    Quarantine(u16),
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..12, 0u16..80, 0u64..300_000).prop_map(|(kind, a, t)| match kind {
        0..=4 => Op::Enqueue(a, t % 3 * 20_000),
        5..=8 => Op::Advance(1 + t),
        9 => Op::Mark(a),
        10 => Op::Protect(a % 3),
        _ => Op::Quarantine(a),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random enqueues, advances, LRU marks, protected sets and
    /// quarantines on a fabric with CRC aborts, SEUs and tile failures:
    /// after every step the Empty/Faulty count, the present-types mask and
    /// the available set equal a recount of `containers()`, and every load
    /// the journal shows started where the two-pass rule, run on a shadow
    /// of the containers, puts it.
    #[test]
    fn kept_state_matches_a_recount_and_victims_the_two_pass_rule(
        seed in 0u64..u64::MAX,
        (crc, seu, fail) in (0u32..400_000, 0u32..4_000, 0u32..300_000),
        (containers, wide) in (1u16..7, 0u8..4),
        ops in proptest::collection::vec(op(), 1..60),
    ) {
        // A wide universe (70 types) has no present-types mask to keep.
        let arity = if wide == 0 { 70 } else { 4 };
        let model = FaultModel {
            seed,
            crc_abort_ppm: crc,
            seu_per_gcycle: seu,
            permanent_failure_ppm: fail,
            permanent_failure_horizon: 6_000_000,
        };
        let mut f = Fabric::with_fault_model(
            FabricConfig::prototype(containers),
            &universe(arity),
            model,
        );
        f.set_journal_enabled(true);
        let mut shadow = Shadow {
            states: vec![ContainerState::Empty; usize::from(containers)],
            stamps: vec![0; usize::from(containers)],
            type_used: vec![0; arity],
        };
        let mut protected = Molecule::zero(arity);
        let mut journal = Vec::new();
        let mut events = Vec::new();
        let mut now = 0;
        // Atom types drawn from the first three and, in the wide
        // universe, from past the 64th.
        let atom = |a: u16| {
            let t = usize::from(a % 3) + if arity > 64 && a % 2 == 1 { 65 } else { 0 };
            AtomTypeId(u16::try_from(t).unwrap())
        };
        for op in ops {
            match op {
                Op::Enqueue(a, delay) => f.enqueue_load(0, atom(a), now + delay),
                Op::Advance(dt) => {
                    now += dt;
                    f.advance_events_into(now, &mut events);
                }
                Op::Mark(a) => {
                    let t = atom(a);
                    f.mark_used(&Molecule::unit(arity, t.index()), now);
                    shadow.type_used[t.index()] = now;
                }
                Op::Protect(n) => {
                    protected = Molecule::from_counts((0..arity).map(|_| n));
                    f.set_protected(protected.clone());
                }
                Op::Quarantine(c) => {
                    f.quarantine(ContainerId(c % containers)).unwrap();
                }
            }
            journal.clear();
            f.drain_journal(&mut journal);
            shadow.replay(&journal, &protected);

            let states: Vec<ContainerState> = f.containers().iter().map(|c| c.state()).collect();
            prop_assert_eq!(&states, &shadow.states, "the shadow follows the journal");
            for (i, c) in f.containers().iter().enumerate() {
                if c.loaded_atom().is_some() {
                    prop_assert_eq!(f.effective_last_used(c), shadow.effective_last_used(i));
                }
            }
            let vacant = states
                .iter()
                .filter(|s| matches!(s, ContainerState::Empty | ContainerState::Faulty { .. }))
                .count();
            prop_assert_eq!(usize::from(f.vacant_count()), vacant, "Empty/Faulty count");
            let mut loaded = vec![0u16; arity];
            for a in f.containers().iter().filter_map(|c| c.loaded_atom()) {
                loaded[a.index()] += 1;
            }
            prop_assert_eq!(f.available().counts(), &loaded[..]);
            let present = if arity > 64 {
                u64::MAX
            } else {
                (0..arity).filter(|&t| loaded[t] > 0).map(|t| 1u64 << t).sum()
            };
            prop_assert_eq!(f.present_types(), present, "present-types mask");
        }
    }
}

use std::fmt;

use rispp_model::AtomTypeId;

/// Identifier of one Atom Container within a [`Fabric`](crate::Fabric).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContainerId(pub u16);

impl ContainerId {
    /// Zero-based index of this container.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for ContainerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AC{}", self.0)
    }
}

/// Occupancy state of an Atom Container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    /// No Atom configured (power-on state).
    Empty,
    /// A partial bitstream is currently streaming into this container;
    /// the Atom becomes usable at cycle `finish`.
    Loading {
        /// Atom type being configured.
        atom: AtomTypeId,
        /// Absolute cycle at which the reconfiguration completes.
        finish: u64,
    },
    /// An Atom is configured and usable.
    Loaded {
        /// Atom type held by the container.
        atom: AtomTypeId,
    },
    /// The configured Atom was corrupted by an SEU and is unusable until
    /// the container is scrubbed (reloaded).
    Faulty {
        /// Atom type whose configuration was corrupted.
        atom: AtomTypeId,
    },
    /// The container's tile failed permanently; it can never hold an Atom
    /// again and is excluded from placement and eviction.
    Quarantined,
}

/// One Atom Container: a small reconfigurable region holding one Atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomContainer {
    id: ContainerId,
    state: ContainerState,
    /// Cycle at which the held atom was last used by an SI execution;
    /// consulted by the eviction policy.
    last_used: u64,
}

impl AtomContainer {
    /// Creates an empty container.
    #[must_use]
    pub fn new(id: ContainerId) -> Self {
        AtomContainer {
            id,
            state: ContainerState::Empty,
            last_used: 0,
        }
    }

    /// This container's identifier.
    #[must_use]
    pub fn id(&self) -> ContainerId {
        self.id
    }

    /// Current occupancy state.
    #[must_use]
    pub fn state(&self) -> ContainerState {
        self.state
    }

    /// The usable atom, if the container is in the `Loaded` state.
    #[must_use]
    pub fn loaded_atom(&self) -> Option<AtomTypeId> {
        match self.state {
            ContainerState::Loaded { atom } => Some(atom),
            _ => None,
        }
    }

    /// Whether this container is permanently out of service.
    #[must_use]
    pub fn is_quarantined(&self) -> bool {
        matches!(self.state, ContainerState::Quarantined)
    }

    /// Cycle of the last recorded use (0 if never used).
    #[must_use]
    pub fn last_used(&self) -> u64 {
        self.last_used
    }

    pub(crate) fn begin_load(&mut self, atom: AtomTypeId, finish: u64) {
        self.state = ContainerState::Loading { atom, finish };
    }

    pub(crate) fn finish_load(&mut self) -> Option<AtomTypeId> {
        if let ContainerState::Loading { atom, .. } = self.state {
            self.state = ContainerState::Loaded { atom };
            Some(atom)
        } else {
            None
        }
    }

    pub(crate) fn mark_used(&mut self, now: u64) {
        self.last_used = now;
    }

    /// SEU hit: a loaded atom's configuration is corrupted in place.
    pub(crate) fn corrupt(&mut self) -> Option<AtomTypeId> {
        if let ContainerState::Loaded { atom } = self.state {
            self.state = ContainerState::Faulty { atom };
            Some(atom)
        } else {
            None
        }
    }

    /// CRC abort: a streaming load is rejected; the region is left blank.
    pub(crate) fn abort_load(&mut self) {
        if matches!(self.state, ContainerState::Loading { .. }) {
            self.state = ContainerState::Empty;
        }
    }

    /// Permanent tile failure: the container leaves service for good.
    pub(crate) fn quarantine(&mut self) {
        self.state = ContainerState::Quarantined;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut ac = AtomContainer::new(ContainerId(3));
        assert_eq!(ac.state(), ContainerState::Empty);
        assert_eq!(ac.loaded_atom(), None);
        ac.begin_load(AtomTypeId(1), 500);
        assert_eq!(ac.loaded_atom(), None);
        assert_eq!(ac.finish_load(), Some(AtomTypeId(1)));
        assert_eq!(ac.loaded_atom(), Some(AtomTypeId(1)));
        ac.mark_used(42);
        assert_eq!(ac.last_used(), 42);
    }

    #[test]
    fn finish_without_loading_is_none() {
        let mut ac = AtomContainer::new(ContainerId(0));
        assert_eq!(ac.finish_load(), None);
    }

    #[test]
    fn container_id_display() {
        assert_eq!(ContainerId(7).to_string(), "AC7");
        assert_eq!(ContainerId(7).index(), 7);
    }

    #[test]
    fn fault_lifecycle() {
        let mut ac = AtomContainer::new(ContainerId(0));
        ac.begin_load(AtomTypeId(2), 100);
        // A CRC abort blanks the region.
        ac.abort_load();
        assert_eq!(ac.state(), ContainerState::Empty);
        // Corruption only applies to loaded atoms.
        assert_eq!(ac.corrupt(), None);
        ac.begin_load(AtomTypeId(2), 200);
        ac.finish_load();
        assert_eq!(ac.corrupt(), Some(AtomTypeId(2)));
        assert_eq!(ac.loaded_atom(), None);
        assert_eq!(
            ac.state(),
            ContainerState::Faulty {
                atom: AtomTypeId(2)
            }
        );
        // Quarantine is terminal.
        ac.quarantine();
        assert!(ac.is_quarantined());
    }
}

use std::fmt;

use crate::{AtomTypeId, AtomUniverse, ModelError, Molecule};

/// Identifier of a Special Instruction within an [`SiLibrary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiId(pub u16);

impl SiId {
    /// The zero-based index of this SI.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for SiId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SI{}", self.0)
    }
}

impl From<u16> for SiId {
    fn from(v: u16) -> Self {
        SiId(v)
    }
}

/// One hardware implementation (Molecule) of a Special Instruction, together
/// with its single-execution latency in cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoleculeVariant {
    /// Per-atom-type instance counts.
    pub atoms: Molecule,
    /// Cycles required for a single execution of the SI with this Molecule.
    pub latency: u32,
}

impl MoleculeVariant {
    /// Creates a variant from an atom vector and latency.
    #[must_use]
    pub fn new(atoms: Molecule, latency: u32) -> Self {
        MoleculeVariant { atoms, latency }
    }

    /// Whether this Molecule can execute given the available atoms. The
    /// reference definition that `fastest_available.rs` and
    /// `best_variant_cache.rs` check the mask-based fast path against.
    #[must_use]
    pub fn is_available(&self, available: &Molecule) -> bool {
        self.atoms.is_subset(available)
    }
}

/// Widest universe whose variants carry an atom-type mask
/// ([`Molecule::nonzero_mask`]).
const MASK_TYPES: usize = 64;

/// A Special Instruction: its software (trap) fallback latency and all of
/// its Molecule implementations.
///
/// The slowest implementation of an SI uses no accelerating Atoms at all and
/// is activated by a synchronous exception (trap) executing the base
/// instruction set; it is modelled by [`SiDefinition::software_latency`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiDefinition {
    id: SiId,
    name: String,
    software_latency: u32,
    variants: Vec<MoleculeVariant>,
    /// `|atoms|` per variant, aligned with `variants`; filled by
    /// [`SiLibraryBuilder::build`] after the variant sort.
    variant_totals: Vec<u32>,
    /// Variant indices in ascending (latency, index) order; filled by
    /// [`SiLibraryBuilder::build`].
    by_latency: Vec<u16>,
    /// [`Molecule::nonzero_mask`] per variant, aligned with `variants`;
    /// empty when the universe has more than 64 atom types.
    masks: Vec<u64>,
    /// The nonzero components of the variants' supremum, ascending by
    /// type; filled by [`SiLibraryBuilder::build`].
    atom_types: Vec<(AtomTypeId, u16)>,
}

impl SiDefinition {
    /// This SI's identifier within its library.
    #[must_use]
    pub fn id(&self) -> SiId {
        self.id
    }

    /// Human-readable name, e.g. `"SATD"`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Cycles for one execution with the base instruction set (trap path).
    #[must_use]
    pub fn software_latency(&self) -> u32 {
        self.software_latency
    }

    /// All hardware Molecules of this SI, sorted by ascending total atoms
    /// (ties broken by ascending latency).
    #[must_use]
    pub fn variants(&self) -> &[MoleculeVariant] {
        &self.variants
    }

    /// `|atoms|` of every variant, aligned with
    /// [`variants`](Self::variants): precomputed at build time so hot
    /// selection loops get a constant-time candidate-size lower bound
    /// instead of a per-candidate reduction kernel.
    #[must_use]
    pub fn variant_atom_totals(&self) -> &[u32] {
        &self.variant_totals
    }

    /// Number of hardware Molecules.
    #[must_use]
    pub fn molecule_count(&self) -> usize {
        self.variants.len()
    }

    /// Number of distinct atom types used across all Molecules.
    #[must_use]
    pub fn atom_type_count(&self) -> usize {
        self.atom_types.len()
    }

    /// The atom types this SI's Molecules use, ascending, each with the
    /// most instances any one of them needs. Whether a variant fits
    /// `available` depends only on `min(available[t], most)` over these,
    /// so [`fastest_available_index`](Self::fastest_available_index) does
    /// too: the arbiter keys its per-SI memo on exactly those counts.
    #[must_use]
    pub fn atom_types(&self) -> &[(AtomTypeId, u16)] {
        &self.atom_types
    }

    /// [`Molecule::nonzero_mask`] of every variant, aligned with
    /// [`variants`](Self::variants): which atom types each one uses, for
    /// LRU marking from one word. Empty when the universe has more than
    /// 64 atom types.
    #[must_use]
    pub fn variant_masks(&self) -> &[u64] {
        &self.masks
    }

    /// Index of the fastest Molecule executable with the `available`
    /// atoms, i.e. the `getFastestAvailableMolecule` operation of the
    /// paper's pseudo code; among equally fast ones, the lowest index.
    ///
    /// Walks the variants in ascending (latency, index) order, so the
    /// first one that fits is the answer. A variant fits when its atom
    /// types lie inside `present` (one word, when the universe has at most
    /// 64 types) and its counts lie inside `available`
    /// ([`Molecule::is_subset`]). `present` must have bit `i` set for
    /// every type `i` that `available` holds; a caller that keeps that
    /// mask beside `available` (the fabric does) passes it in, and
    /// `u64::MAX` is always correct, just slower. Returns `None` when no
    /// hardware Molecule is available (the SI then traps to the base
    /// instruction set).
    #[must_use]
    pub fn fastest_available_index(&self, available: &Molecule, present: u64) -> Option<usize> {
        debug_assert!(
            available.arity() > MASK_TYPES || available.nonzero_mask() & !present == 0,
            "the present-types mask misses a type of the available atoms"
        );
        self.by_latency.iter().map(|&i| usize::from(i)).find(|&i| {
            self.masks.get(i).is_none_or(|&mask| mask & !present == 0)
                && self.variants[i].atoms.is_subset(available)
        })
    }

    /// The fastest Molecule executable with the `available` atoms (see
    /// [`fastest_available_index`](Self::fastest_available_index), here
    /// with the present-types mask taken from `available`).
    ///
    /// Returns `None` when no hardware Molecule is available (the SI then
    /// traps to the base instruction set).
    #[must_use]
    pub fn fastest_available(&self, available: &Molecule) -> Option<&MoleculeVariant> {
        let present = if available.arity() > MASK_TYPES {
            u64::MAX
        } else {
            available.nonzero_mask()
        };
        self.fastest_available_index(available, present)
            .map(|i| &self.variants[i])
    }

    /// Effective single-execution latency given the available atoms: the
    /// fastest available Molecule, or the software fallback. Never slower
    /// than software (a Molecule slower than the trap path is ignored).
    #[must_use]
    pub fn best_latency(&self, available: &Molecule) -> u32 {
        self.fastest_available(available)
            .map(|v| v.latency)
            .unwrap_or(self.software_latency)
            .min(self.software_latency)
    }

    /// The largest (fully parallel) Molecule: maximum total atoms, ties
    /// broken by lowest latency. A test hook: the H.264 library's unit test
    /// `bigger_molecules_of_balanced_chains_are_faster` reads it.
    ///
    /// # Panics
    ///
    /// Never panics: library validation guarantees at least one variant.
    #[must_use]
    pub fn largest_variant(&self) -> &MoleculeVariant {
        self.variants
            .iter()
            .max_by(|a, b| {
                a.atoms
                    .total_atoms()
                    .cmp(&b.atoms.total_atoms())
                    .then(b.latency.cmp(&a.latency))
            })
            .expect("validated SI has at least one variant")
    }

    /// The smallest Molecule: minimum total atoms, ties broken by lowest
    /// latency.
    ///
    /// O(1): [`SiLibraryBuilder::build`] orders every SI's variants by
    /// exactly this key, so the smallest variant is always variant 0 —
    /// the selector's phase 1 leans on the same invariant once per
    /// demanded SI per plan.
    #[must_use]
    pub fn smallest_variant(&self) -> &MoleculeVariant {
        &self.variants[0]
    }
}

/// A validated collection of Special Instructions over one [`AtomUniverse`].
///
/// # Examples
///
/// ```
/// use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiLibraryBuilder};
///
/// # fn main() -> Result<(), rispp_model::ModelError> {
/// let universe = AtomUniverse::from_types([AtomTypeInfo::new("SAV")])?;
/// let mut builder = SiLibraryBuilder::new(universe);
/// builder.special_instruction("SAD", 680)?
///     .molecule(Molecule::from_counts([1]), 20)?
///     .molecule(Molecule::from_counts([2]), 12)?;
/// let library = builder.build()?;
/// assert_eq!(library.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiLibrary {
    universe: AtomUniverse,
    sis: Vec<SiDefinition>,
}

impl SiLibrary {
    /// The Atom-type universe shared by all SIs.
    #[must_use]
    pub fn universe(&self) -> &AtomUniverse {
        &self.universe
    }

    /// Molecule arity (`n`, the number of atom types).
    #[must_use]
    pub fn arity(&self) -> usize {
        self.universe.arity()
    }

    /// Number of Special Instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sis.len()
    }

    /// Whether the library contains no SIs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sis.is_empty()
    }

    /// The SI with id `id`, or `None` when out of range.
    #[must_use]
    pub fn si(&self, id: SiId) -> Option<&SiDefinition> {
        self.sis.get(id.index())
    }

    /// Looks an SI up by name.
    #[must_use]
    pub fn by_name(&self, name: &str) -> Option<&SiDefinition> {
        self.sis.iter().find(|s| s.name == name)
    }

    /// Iterates over all SIs in id order.
    pub fn iter(&self) -> impl Iterator<Item = &SiDefinition> {
        self.sis.iter()
    }
}

/// Incremental builder for [`SiLibrary`] (C-BUILDER).
#[derive(Debug)]
pub struct SiLibraryBuilder {
    universe: AtomUniverse,
    sis: Vec<SiDefinition>,
}

impl SiLibraryBuilder {
    /// Starts a builder over the given atom universe.
    #[must_use]
    pub fn new(universe: AtomUniverse) -> Self {
        SiLibraryBuilder {
            universe,
            sis: Vec::new(),
        }
    }

    /// Begins a new Special Instruction with the given name and software
    /// (trap) latency, returning a scoped builder for its Molecules.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DuplicateName`] if the name is taken, or
    /// [`ModelError::ZeroLatency`] for a zero software latency.
    pub fn special_instruction(
        &mut self,
        name: impl Into<String>,
        software_latency: u32,
    ) -> Result<SiBuilder<'_>, ModelError> {
        let name = name.into();
        if self.sis.iter().any(|s| s.name == name) {
            return Err(ModelError::DuplicateName(name));
        }
        if software_latency == 0 {
            return Err(ModelError::ZeroLatency { name });
        }
        let id = SiId(u16::try_from(self.sis.len()).expect("too many SIs"));
        self.sis.push(SiDefinition {
            id,
            name,
            software_latency,
            variants: Vec::new(),
            variant_totals: Vec::new(),
            by_latency: Vec::new(),
            masks: Vec::new(),
            atom_types: Vec::new(),
        });
        Ok(SiBuilder {
            arity: self.universe.arity(),
            si: self.sis.last_mut().expect("just pushed"),
        })
    }

    /// Finalises the library.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSi`] when an SI has no Molecules or
    /// more than 65,536 of them.
    pub fn build(mut self) -> Result<SiLibrary, ModelError> {
        let masked = self.universe.arity() <= MASK_TYPES;
        for si in &mut self.sis {
            if si.variants.is_empty() {
                return Err(ModelError::InvalidSi {
                    si: si.name.clone(),
                    reason: "no hardware molecules defined".into(),
                });
            }
            let Ok(by_latency) = (0..si.variants.len())
                .map(u16::try_from)
                .collect::<Result<Vec<u16>, _>>()
            else {
                return Err(ModelError::InvalidSi {
                    si: si.name.clone(),
                    reason: "more than 65,536 hardware molecules".into(),
                });
            };
            si.variants.sort_by(|a, b| {
                a.atoms
                    .total_atoms()
                    .cmp(&b.atoms.total_atoms())
                    .then(a.latency.cmp(&b.latency))
            });
            si.variant_totals = si.variants.iter().map(|v| v.atoms.total_atoms()).collect();
            si.by_latency = by_latency;
            let variants = &si.variants;
            si.by_latency
                .sort_by_key(|&i| (variants[usize::from(i)].latency, i));
            si.masks = if masked {
                si.variants.iter().map(|v| v.atoms.nonzero_mask()).collect()
            } else {
                Vec::new()
            };
            let sup = Molecule::supremum(si.variants.iter().map(|v| &v.atoms))
                .expect("at least one variant");
            si.atom_types = (0u16..)
                .zip(sup.counts())
                .filter(|&(_, &most)| most > 0)
                .map(|(t, &most)| (AtomTypeId(t), most))
                .collect();
        }
        Ok(SiLibrary {
            universe: self.universe,
            sis: self.sis,
        })
    }
}

/// Scoped builder adding Molecules to one SI; returned by
/// [`SiLibraryBuilder::special_instruction`].
#[derive(Debug)]
pub struct SiBuilder<'a> {
    arity: usize,
    si: &'a mut SiDefinition,
}

impl SiBuilder<'_> {
    /// Adds a Molecule implementation with the given latency.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSi`] when the Molecule arity does not
    /// match the universe, the Molecule is empty, duplicates an existing
    /// variant's atom vector, or the latency is zero or not faster than the
    /// software path.
    pub fn molecule(&mut self, atoms: Molecule, latency: u32) -> Result<&mut Self, ModelError> {
        if atoms.arity() != self.arity {
            return Err(ModelError::InvalidSi {
                si: self.si.name.clone(),
                reason: format!(
                    "molecule arity {} does not match universe arity {}",
                    atoms.arity(),
                    self.arity
                ),
            });
        }
        if atoms.is_zero() {
            return Err(ModelError::InvalidSi {
                si: self.si.name.clone(),
                reason: "molecule must request at least one atom".into(),
            });
        }
        if latency == 0 {
            return Err(ModelError::ZeroLatency {
                name: self.si.name.clone(),
            });
        }
        if self.si.variants.iter().any(|v| v.atoms == atoms) {
            return Err(ModelError::InvalidSi {
                si: self.si.name.clone(),
                reason: format!("duplicate molecule {atoms}"),
            });
        }
        self.si.variants.push(MoleculeVariant::new(atoms, latency));
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AtomTypeInfo;

    fn two_type_library() -> SiLibrary {
        let universe =
            AtomUniverse::from_types([AtomTypeInfo::new("A1"), AtomTypeInfo::new("A2")]).unwrap();
        let mut b = SiLibraryBuilder::new(universe);
        {
            let mut si = b.special_instruction("DEMO", 1000).unwrap();
            si.molecule(Molecule::from_counts([1, 1]), 100)
                .unwrap()
                .molecule(Molecule::from_counts([2, 2]), 40)
                .unwrap()
                .molecule(Molecule::from_counts([1, 3]), 55)
                .unwrap()
                .molecule(Molecule::from_counts([3, 3]), 20)
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn fastest_available_picks_min_latency() {
        let lib = two_type_library();
        let si = lib.by_name("DEMO").unwrap();
        let avail = Molecule::from_counts([2, 2]);
        let fastest = si.fastest_available(&avail).unwrap();
        assert_eq!(fastest.latency, 40);
        // Nothing available -> software fallback.
        assert!(si.fastest_available(&Molecule::zero(2)).is_none());
        assert_eq!(si.best_latency(&Molecule::zero(2)), 1000);
    }

    #[test]
    fn paper_m4_molecule_is_not_faster_but_may_be_cheaper() {
        let lib = two_type_library();
        let si = lib.by_name("DEMO").unwrap();
        // m2 = (2,2) @40 is faster than m4 = (1,3) @55, but starting from
        // a = (0,3), m4 needs 1 additional atom while m2 needs 2.
        let a = Molecule::from_counts([0, 3]);
        let m2 = Molecule::from_counts([2, 2]);
        let m4 = Molecule::from_counts([1, 3]);
        assert!(a.residual(&m4).total_atoms() < a.residual(&m2).total_atoms());
        assert!(si.fastest_available(&a).is_none());
    }

    #[test]
    fn variants_sorted_by_size() {
        let lib = two_type_library();
        let si = lib.by_name("DEMO").unwrap();
        let sizes: Vec<u32> = si
            .variants()
            .iter()
            .map(|v| v.atoms.total_atoms())
            .collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted);
        assert_eq!(si.smallest_variant().atoms.total_atoms(), 2);
        assert_eq!(si.largest_variant().atoms.total_atoms(), 6);
    }

    #[test]
    fn smallest_variant_is_variant_zero() {
        // `build()` orders variants by (total atoms, latency); both the
        // O(1) `smallest_variant` and the selector's phase 1 depend on
        // variant 0 being the minimum under exactly that key.
        let lib = two_type_library();
        let si = lib.by_name("DEMO").unwrap();
        let by_scan = si
            .variants()
            .iter()
            .min_by_key(|v| (v.atoms.total_atoms(), v.latency))
            .unwrap();
        assert_eq!(si.smallest_variant(), by_scan);
        assert_eq!(si.smallest_variant(), &si.variants()[0]);
    }

    #[test]
    fn atom_type_count_uses_supremum() {
        let lib = two_type_library();
        assert_eq!(lib.by_name("DEMO").unwrap().atom_type_count(), 2);
    }

    #[test]
    fn builder_rejects_bad_molecules() {
        let universe = AtomUniverse::from_types([AtomTypeInfo::new("A1")]).unwrap();
        let mut b = SiLibraryBuilder::new(universe);
        let mut si = b.special_instruction("X", 100).unwrap();
        assert!(si.molecule(Molecule::zero(1), 10).is_err());
        assert!(si.molecule(Molecule::from_counts([1, 2]), 10).is_err());
        assert!(si.molecule(Molecule::from_counts([1]), 0).is_err());
        si.molecule(Molecule::from_counts([1]), 10).unwrap();
        let dup = si.molecule(Molecule::from_counts([1]), 20);
        assert!(dup.is_err());
    }

    #[test]
    fn builder_rejects_empty_si() {
        let universe = AtomUniverse::from_types([AtomTypeInfo::new("A1")]).unwrap();
        let mut b = SiLibraryBuilder::new(universe);
        b.special_instruction("EMPTY", 100).unwrap();
        assert!(b.build().is_err());
    }

    #[test]
    fn builder_rejects_duplicate_si_names() {
        let universe = AtomUniverse::from_types([AtomTypeInfo::new("A1")]).unwrap();
        let mut b = SiLibraryBuilder::new(universe);
        b.special_instruction("X", 100)
            .unwrap()
            .molecule(Molecule::from_counts([1]), 10)
            .unwrap();
        assert!(b.special_instruction("X", 100).is_err());
    }

    #[test]
    fn library_lookup() {
        let lib = two_type_library();
        assert_eq!(lib.len(), 1);
        assert!(!lib.is_empty());
        assert_eq!(lib.si(SiId(0)).unwrap().name(), "DEMO");
        assert!(lib.si(SiId(9)).is_none());
        assert!(lib.by_name("nope").is_none());
        assert_eq!(lib.arity(), 2);
    }

    #[test]
    fn best_latency_never_exceeds_software() {
        // A molecule slower than software must be ignored.
        let universe = AtomUniverse::from_types([AtomTypeInfo::new("A1")]).unwrap();
        let mut b = SiLibraryBuilder::new(universe);
        b.special_instruction("SLOWHW", 50)
            .unwrap()
            .molecule(Molecule::from_counts([1]), 80)
            .unwrap();
        let lib = b.build().unwrap();
        let si = lib.by_name("SLOWHW").unwrap();
        assert_eq!(si.best_latency(&Molecule::from_counts([1])), 50);
    }

    #[test]
    fn si_id_display() {
        assert_eq!(SiId(4).to_string(), "SI4");
        assert_eq!(SiId::from(2u16).index(), 2);
    }
}

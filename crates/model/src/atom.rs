use std::fmt;

use crate::ModelError;

/// Identifier of an Atom *type* within an [`AtomUniverse`].
///
/// An Atom is an elementary data path that can be re-loaded into an Atom
/// Container at run time; Molecules request *instances* of Atom types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AtomTypeId(pub u16);

impl AtomTypeId {
    /// The zero-based index of this atom type.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for AtomTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

impl From<u16> for AtomTypeId {
    fn from(v: u16) -> Self {
        AtomTypeId(v)
    }
}

/// Descriptive metadata of one Atom type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomTypeInfo {
    /// Human-readable name, e.g. `"PointFilter"`.
    pub name: String,
    /// Size of the partial bitstream implementing this atom, in bytes.
    ///
    /// Due to FPGA-specific constraints (four CLB rows on the xc2v3000
    /// prototype) real bitstream sizes cluster around ~60 KB; the default
    /// used by the benchmark library averages 60,488 bytes as in the paper.
    pub bitstream_bytes: u32,
    /// Synthesised area of one instance in slices (Table 3 reports an
    /// average atom size of 421 slices).
    pub slices: u32,
}

impl AtomTypeInfo {
    /// Creates an atom type with the paper's average bitstream size and
    /// slice count.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        AtomTypeInfo {
            name: name.into(),
            bitstream_bytes: 60_488,
            slices: 421,
        }
    }

    /// Sets the partial-bitstream size in bytes (builder style).
    #[must_use]
    pub fn with_bitstream_bytes(mut self, bytes: u32) -> Self {
        self.bitstream_bytes = bytes;
        self
    }

    /// Sets the per-instance slice count (builder style).
    #[must_use]
    pub fn with_slices(mut self, slices: u32) -> Self {
        self.slices = slices;
        self
    }
}

/// The universe of Atom types a library (and all its Molecules) is defined
/// over; fixes the arity `n` of the Molecule vector space `ℕⁿ`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AtomUniverse {
    types: Vec<AtomTypeInfo>,
}

impl AtomUniverse {
    /// Creates an empty universe.
    #[must_use]
    pub fn new() -> Self {
        AtomUniverse::default()
    }

    /// Creates a universe from a list of atom types.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DuplicateName`] if two types share a name.
    pub fn from_types<I: IntoIterator<Item = AtomTypeInfo>>(types: I) -> Result<Self, ModelError> {
        let mut u = AtomUniverse::new();
        for t in types {
            u.push(t)?;
        }
        Ok(u)
    }

    /// Adds an atom type, returning its new id.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DuplicateName`] if the name is already taken.
    pub fn push(&mut self, info: AtomTypeInfo) -> Result<AtomTypeId, ModelError> {
        if self.types.iter().any(|t| t.name == info.name) {
            return Err(ModelError::DuplicateName(info.name));
        }
        let id = AtomTypeId(u16::try_from(self.types.len()).expect("too many atom types"));
        self.types.push(info);
        Ok(id)
    }

    /// Number of atom types (the Molecule arity `n`).
    #[must_use]
    pub fn arity(&self) -> usize {
        self.types.len()
    }

    /// Whether the universe contains no types.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Metadata of atom type `id`, or `None` when out of range.
    #[must_use]
    pub fn info(&self, id: AtomTypeId) -> Option<&AtomTypeInfo> {
        self.types.get(id.index())
    }

    /// Iterates over `(id, info)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (AtomTypeId, &AtomTypeInfo)> {
        self.types
            .iter()
            .enumerate()
            .map(|(i, t)| (AtomTypeId(i as u16), t))
    }

    /// Average bitstream size over all types, in bytes (0 when empty). A
    /// test hook: tier-1 `library_is_the_paper_inventory` pins the H.264
    /// library's average against the paper's.
    #[must_use]
    pub fn average_bitstream_bytes(&self) -> u32 {
        if self.types.is_empty() {
            return 0;
        }
        let sum: u64 = self
            .types
            .iter()
            .map(|t| u64::from(t.bitstream_bytes))
            .sum();
        (sum / self.types.len() as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_assigns_sequential_ids() {
        let mut u = AtomUniverse::new();
        let a = u.push(AtomTypeInfo::new("SAV")).unwrap();
        let b = u.push(AtomTypeInfo::new("Transform")).unwrap();
        assert_eq!(a, AtomTypeId(0));
        assert_eq!(b, AtomTypeId(1));
        assert_eq!(u.arity(), 2);
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut u = AtomUniverse::new();
        u.push(AtomTypeInfo::new("SAV")).unwrap();
        let err = u.push(AtomTypeInfo::new("SAV")).unwrap_err();
        assert_eq!(err, ModelError::DuplicateName("SAV".into()));
    }

    #[test]
    fn default_bitstream_matches_paper_average() {
        let info = AtomTypeInfo::new("X");
        assert_eq!(info.bitstream_bytes, 60_488);
        assert_eq!(info.slices, 421);
    }

    #[test]
    fn average_bitstream_bytes() {
        let u = AtomUniverse::from_types([
            AtomTypeInfo::new("a").with_bitstream_bytes(50_000),
            AtomTypeInfo::new("b").with_bitstream_bytes(70_000),
        ])
        .unwrap();
        assert_eq!(u.average_bitstream_bytes(), 60_000);
        assert_eq!(AtomUniverse::new().average_bitstream_bytes(), 0);
    }

    #[test]
    fn atom_type_id_displays_compactly() {
        assert_eq!(AtomTypeId(3).to_string(), "A3");
        assert_eq!(AtomTypeId::from(7u16).index(), 7);
    }
}

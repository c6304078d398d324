//! Coordinate types for the rotated surface code.

use std::fmt;

/// Pauli type of a stabilizer (parity-check) ancilla.
///
/// `X` stabilizers detect `Z` errors on data qubits and vice versa. The
/// paper simulates one error species at a time ("X-type and Z-type errors
/// are corrected independently, so focusing on either one is sufficient",
/// Sec. 6.1); most of the workspace therefore runs on
/// [`StabilizerType::X`] detecting phase flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StabilizerType {
    /// X-type parity check (detects Z data errors).
    X,
    /// Z-type parity check (detects X data errors).
    Z,
}

impl StabilizerType {
    /// The opposite stabilizer type.
    #[must_use]
    pub fn other(self) -> Self {
        match self {
            StabilizerType::X => StabilizerType::Z,
            StabilizerType::Z => StabilizerType::X,
        }
    }

    /// Both stabilizer types, X first.
    #[must_use]
    pub fn both() -> [Self; 2] {
        [StabilizerType::X, StabilizerType::Z]
    }
}

impl fmt::Display for StabilizerType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StabilizerType::X => write!(f, "X"),
            StabilizerType::Z => write!(f, "Z"),
        }
    }
}

/// Location of a data qubit on the `d × d` grid, `row, col ∈ [0, d)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataQubit {
    /// Row on the data grid, `0 ≤ row < d`.
    pub row: u16,
    /// Column on the data grid, `0 ≤ col < d`.
    pub col: u16,
}

impl DataQubit {
    /// Creates a data-qubit coordinate.
    #[must_use]
    pub fn new(row: u16, col: u16) -> Self {
        Self { row, col }
    }

    /// Linear index of this qubit on a distance-`d` code (`row * d + col`).
    #[must_use]
    pub fn index(self, d: u16) -> usize {
        usize::from(self.row) * usize::from(d) + usize::from(self.col)
    }
}

impl fmt::Display for DataQubit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D({},{})", self.row, self.col)
    }
}

/// Location of a plaquette (candidate stabilizer) at the grid corners,
/// `r, c ∈ [0, d]`.
///
/// Plaquette `(r, c)` touches the up-to-four data qubits
/// `(r-1, c-1)`, `(r-1, c)`, `(r, c-1)`, `(r, c)` that fall inside the
/// data grid. Corner plaquettes (one data neighbor) are never stabilizers
/// in the rotated code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Plaquette {
    /// Plaquette row, `0 ≤ r ≤ d`.
    pub r: u16,
    /// Plaquette column, `0 ≤ c ≤ d`.
    pub c: u16,
}

impl Plaquette {
    /// Creates a plaquette coordinate.
    #[must_use]
    pub fn new(r: u16, c: u16) -> Self {
        Self { r, c }
    }

    /// Stabilizer type hosted at this plaquette under the checkerboard
    /// coloring used throughout this workspace: `X` iff `r + c` is even.
    #[must_use]
    pub fn stabilizer_type(self) -> StabilizerType {
        if (self.r + self.c).is_multiple_of(2) {
            StabilizerType::X
        } else {
            StabilizerType::Z
        }
    }

    /// The data qubits this plaquette touches on a distance-`d` code, in
    /// reading order. Between one (corner) and four (interior) entries.
    #[must_use]
    pub fn data_neighbors(self, d: u16) -> Vec<DataQubit> {
        let mut out = Vec::with_capacity(4);
        let candidates = [
            (self.r.checked_sub(1), self.c.checked_sub(1)),
            (self.r.checked_sub(1), Some(self.c)),
            (Some(self.r), self.c.checked_sub(1)),
            (Some(self.r), Some(self.c)),
        ];
        for (row, col) in candidates {
            if let (Some(row), Some(col)) = (row, col) {
                if row < d && col < d {
                    out.push(DataQubit::new(row, col));
                }
            }
        }
        out
    }
}

impl fmt::Display for Plaquette {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({},{})", self.stabilizer_type(), self.r, self.c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stabilizer_type_other_roundtrips() {
        assert_eq!(StabilizerType::X.other(), StabilizerType::Z);
        assert_eq!(StabilizerType::Z.other(), StabilizerType::X);
        assert_eq!(StabilizerType::X.other().other(), StabilizerType::X);
    }

    #[test]
    fn data_qubit_index_roundtrips() {
        let d = 7;
        for row in 0..d {
            for col in 0..d {
                let i = DataQubit::new(row, col).index(d);
                let dd = usize::from(d);
                assert_eq!((i / dd, i % dd), (usize::from(row), usize::from(col)));
            }
        }
    }

    #[test]
    fn checkerboard_coloring_alternates() {
        assert_eq!(Plaquette::new(0, 0).stabilizer_type(), StabilizerType::X);
        assert_eq!(Plaquette::new(0, 1).stabilizer_type(), StabilizerType::Z);
        assert_eq!(Plaquette::new(1, 0).stabilizer_type(), StabilizerType::Z);
        assert_eq!(Plaquette::new(1, 1).stabilizer_type(), StabilizerType::X);
    }

    #[test]
    fn corner_plaquette_has_one_data_neighbor() {
        assert_eq!(Plaquette::new(0, 0).data_neighbors(3).len(), 1);
        assert_eq!(Plaquette::new(3, 3).data_neighbors(3).len(), 1);
    }

    #[test]
    fn interior_plaquette_has_four_data_neighbors() {
        let n = Plaquette::new(1, 1).data_neighbors(3);
        assert_eq!(n.len(), 4);
        assert!(n.contains(&DataQubit::new(0, 0)));
        assert!(n.contains(&DataQubit::new(1, 1)));
    }

    #[test]
    fn edge_plaquette_has_two_data_neighbors() {
        let n = Plaquette::new(0, 1).data_neighbors(3);
        assert_eq!(n.len(), 2);
        assert!(n.contains(&DataQubit::new(0, 0)));
        assert!(n.contains(&DataQubit::new(0, 1)));
    }

    #[test]
    fn diagonal_neighbors_preserve_type() {
        let p = Plaquette::new(2, 2);
        for (r, c) in [(1, 1), (1, 3), (3, 1), (3, 3)] {
            assert_eq!(Plaquette::new(r, c).stabilizer_type(), p.stabilizer_type());
        }
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert_eq!(DataQubit::new(1, 2).to_string(), "D(1,2)");
        assert_eq!(Plaquette::new(1, 1).to_string(), "X(1,1)");
        assert_eq!(StabilizerType::Z.to_string(), "Z");
    }
}

//! ASCII rendering of the lattice for docs, examples and debugging.

use std::fmt;

use crate::code::SurfaceCode;
use crate::coords::{Plaquette, StabilizerType};

/// A lazily rendered ASCII picture of a [`SurfaceCode`].
///
/// Produced by [`SurfaceCode::render`]. The grid shows data qubits as
/// `D`, ancillas as `x`/`z`, and stabilizer-free corner plaquettes as
/// `.`.
#[derive(Debug, Clone)]
pub struct Render<'a> {
    code: &'a SurfaceCode,
}

impl SurfaceCode {
    /// Renders the bare lattice.
    #[must_use]
    pub fn render(&self) -> Render<'_> {
        Render { code: self }
    }
}

impl fmt::Display for Render<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.code.distance();
        // Interleave plaquette rows (r) and data rows.
        for r in 0..=d {
            // Plaquette row r.
            let mut line = String::new();
            for c in 0..=d {
                line.push(self.plaquette_char(Plaquette::new(r, c)));
                line.push(' ');
            }
            writeln!(f, "{}", line.trim_end())?;
            if r < d {
                writeln!(f, " {}", vec!["D"; usize::from(d)].join(" "))?;
            }
        }
        Ok(())
    }
}

impl Render<'_> {
    fn plaquette_char(&self, p: Plaquette) -> char {
        let hosts = |ty: StabilizerType| self.code.ancillas(ty).iter().any(|a| a.plaquette() == p);
        if hosts(StabilizerType::X) {
            'x'
        } else if hosts(StabilizerType::Z) {
            'z'
        } else {
            '.'
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_nonempty_and_has_expected_rows() {
        let code = SurfaceCode::new(3);
        let text = code.render().to_string();
        // d+1 plaquette rows + d data rows.
        assert_eq!(text.lines().count(), 7);
        assert!(text.contains('D'));
        assert!(text.contains('x'));
        assert!(text.contains('z'));
    }

    #[test]
    fn corners_are_empty() {
        let code = SurfaceCode::new(3);
        let text = code.render().to_string();
        assert!(text.starts_with('.'), "corner plaquettes hold no stabilizer");
    }
}

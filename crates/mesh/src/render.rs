//! ASCII rendering of meshes, regions and routes.
//!
//! Debugging fault-model code without seeing the grid is miserable; this
//! module renders a mesh as rows of glyphs with `y` increasing upward
//! (matching the paper's figures) through a small layering API:
//!
//! ```
//! use meshpath_mesh::{Coord, FaultSet, Mesh};
//! use meshpath_mesh::render::GridRender;
//!
//! let mesh = Mesh::square(4);
//! let faults = FaultSet::from_coords(mesh, [Coord::new(1, 2)]);
//! let art = GridRender::new(mesh)
//!     .layer('#', |c| faults.is_faulty(c))
//!     .mark('S', Coord::new(0, 0))
//!     .to_string();
//! assert_eq!(art.lines().count(), 4);
//! assert!(art.contains('#'));
//! ```

use std::fmt;

use crate::coord::Coord;
use crate::mesh::Mesh;

type Layer<'a> = (char, Box<dyn Fn(Coord) -> bool + 'a>);

/// A composable ASCII renderer: later layers win over earlier ones.
pub struct GridRender<'a> {
    mesh: Mesh,
    layers: Vec<Layer<'a>>,
}

impl<'a> GridRender<'a> {
    /// A renderer over `mesh` with `.` as the background glyph.
    pub fn new(mesh: Mesh) -> Self {
        GridRender { mesh, layers: Vec::new() }
    }

    /// Adds a predicate layer drawn with `glyph`.
    pub fn layer(mut self, glyph: char, pred: impl Fn(Coord) -> bool + 'a) -> Self {
        self.layers.push((glyph, Box::new(pred)));
        self
    }

    /// Adds a path layer: every coordinate in `path` is drawn with `glyph`.
    pub fn path(self, glyph: char, path: &'a [Coord]) -> Self {
        self.layer(glyph, move |c| path.contains(&c))
    }

    /// Marks a single coordinate (e.g. source/destination).
    pub fn mark(self, glyph: char, at: Coord) -> Self {
        self.layer(glyph, move |c| c == at)
    }

    fn glyph_at(&self, c: Coord) -> char {
        for (glyph, pred) in self.layers.iter().rev() {
            if pred(c) {
                return *glyph;
            }
        }
        '.'
    }
}

impl fmt::Display for GridRender<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (w, h) = (self.mesh.width() as i32, self.mesh.height() as i32);
        for y in (0..h).rev() {
            for x in 0..w {
                write!(f, "{}", self.glyph_at(Coord::new(x, y)))?;
            }
            if y > 0 {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSet;

    #[test]
    fn renders_rows_top_down() {
        let mesh = Mesh::new(3, 2);
        let art = GridRender::new(mesh).mark('X', Coord::new(0, 0)).to_string();
        // y=1 row first, then y=0 row containing the mark at x=0.
        assert_eq!(art, "...\nX..");
    }

    #[test]
    fn later_layers_win() {
        let mesh = Mesh::square(2);
        let faults = FaultSet::from_coords(mesh, [Coord::new(0, 0)]);
        let art = GridRender::new(mesh)
            .layer('#', |c| faults.is_faulty(c))
            .mark('S', Coord::new(0, 0))
            .to_string();
        assert!(art.ends_with("S."));
    }

    #[test]
    fn path_layer() {
        let mesh = Mesh::square(3);
        let path = [Coord::new(0, 0), Coord::new(1, 0), Coord::new(1, 1)];
        let art = GridRender::new(mesh).path('*', &path).to_string();
        assert_eq!(art, "...\n.*.\n**.");
    }
}

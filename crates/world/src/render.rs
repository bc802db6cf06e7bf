//! Plain-text rendering of the lot, obstacles and trajectories.
//!
//! The benchmark figure binaries and the examples use this to show
//! trajectories without any plotting dependency: one character per grid
//! cell, trajectory samples overlaid with per-mode glyphs.

use crate::episode::{ModeTag, Trace};
use crate::{Scenario, World};
use icoil_geom::Vec2;

/// Character canvas over the lot.
#[derive(Debug, Clone)]
pub struct AsciiCanvas {
    cols: usize,
    rows: usize,
    origin: Vec2,
    scale: f64,
    cells: Vec<char>,
}

impl AsciiCanvas {
    /// Creates a canvas covering the scenario's lot at roughly
    /// `cols` characters of width (height follows the aspect ratio,
    /// halved because terminal glyphs are tall).
    pub fn for_scenario(scenario: &Scenario, cols: usize) -> Self {
        let bounds = scenario.map.bounds();
        let scale = bounds.width() / cols as f64;
        let rows = (bounds.height() / scale / 2.0).ceil() as usize;
        let mut canvas = AsciiCanvas {
            cols,
            rows,
            origin: bounds.min,
            scale,
            cells: vec![' '; cols * rows],
        };
        // walls
        for c in 0..cols {
            canvas.cells[c] = '-';
            canvas.cells[(rows - 1) * cols + c] = '-';
        }
        for r in 0..rows {
            canvas.cells[r * cols] = '|';
            canvas.cells[r * cols + cols - 1] = '|';
        }
        // bay
        let bay = scenario.map.bay();
        canvas.fill_region(|p| bay.contains(p), '=', bay.aabb().min, bay.aabb().max);
        // obstacles at t = 0
        for o in &scenario.obstacles {
            let fp = o.footprint_at(0.0);
            let glyph = if o.is_dynamic() { 'D' } else { '#' };
            canvas.fill_region(|p| fp.contains(p), glyph, fp.aabb().min, fp.aabb().max);
        }
        canvas
    }

    fn fill_region<F: Fn(Vec2) -> bool>(&mut self, inside: F, glyph: char, lo: Vec2, hi: Vec2) {
        for r in 0..self.rows {
            for c in 0..self.cols {
                let p = self.cell_center(c, r);
                if p.x >= lo.x - self.scale
                    && p.x <= hi.x + self.scale
                    && p.y >= lo.y - self.scale
                    && p.y <= hi.y + self.scale
                    && inside(p)
                {
                    self.cells[r * self.cols + c] = glyph;
                }
            }
        }
    }

    fn cell_center(&self, col: usize, row: usize) -> Vec2 {
        // row 0 is the TOP of the lot (max y)
        let x = self.origin.x + (col as f64 + 0.5) * self.scale;
        let y = self.origin.y + ((self.rows - 1 - row) as f64 + 0.5) * self.scale * 2.0;
        Vec2::new(x, y)
    }

    /// Plots a single point with a glyph (ignored when off-canvas).
    pub fn plot(&mut self, p: Vec2, glyph: char) {
        let c = ((p.x - self.origin.x) / self.scale) as isize;
        let r = self.rows as isize - 1 - ((p.y - self.origin.y) / (self.scale * 2.0)) as isize;
        if c >= 0 && r >= 0 && (c as usize) < self.cols && (r as usize) < self.rows {
            self.cells[r as usize * self.cols + c as usize] = glyph;
        }
    }

    /// Overlays a trajectory: `o` for IL-mode frames, `*` for CO-mode,
    /// `.` for untagged; `S` start, `E` end.
    pub fn plot_trace(&mut self, trace: &Trace) {
        for f in trace {
            let glyph = match f.mode {
                Some(ModeTag::Il) => 'o',
                Some(ModeTag::Co) => '*',
                None => '.',
            };
            self.plot(f.pose.position(), glyph);
        }
        if let Some(first) = trace.first() {
            self.plot(first.pose.position(), 'S');
        }
        if let Some(last) = trace.last() {
            self.plot(last.pose.position(), 'E');
        }
    }

    /// Renders the canvas into a multi-line string.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity((self.cols + 1) * self.rows);
        for r in 0..self.rows {
            out.extend(self.cells[r * self.cols..(r + 1) * self.cols].iter());
            out.push('\n');
        }
        out
    }
}

/// One-call convenience: the scenario with a trajectory overlaid.
pub fn render_trace(world: &World, trace: &Trace, cols: usize) -> String {
    let mut canvas = AsciiCanvas::for_scenario(world.scenario(), cols);
    canvas.plot_trace(trace);
    canvas.to_text()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::episode::{run_episode, Decision, EpisodeConfig, Observation, Policy};
    use crate::{Difficulty, ScenarioConfig};
    use icoil_vehicle::Action;

    struct Drive;
    impl Policy for Drive {
        fn decide(&mut self, _obs: &Observation) -> Decision {
            Decision::plain(Action::forward(1.0, 0.1))
        }
    }

    #[test]
    fn canvas_contains_walls_bay_and_obstacles() {
        let scenario = ScenarioConfig::new(Difficulty::Normal, 1).build();
        let canvas = AsciiCanvas::for_scenario(&scenario, 60);
        let text = canvas.to_text();
        assert!(text.contains('#'), "static obstacles rendered");
        assert!(text.contains('D'), "dynamic obstacles rendered");
        assert!(text.contains('='), "bay rendered");
        assert!(text.contains('|') && text.contains('-'), "walls rendered");
        // every line has the same width
        let widths: Vec<usize> = text.lines().map(|l| l.chars().count()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn trace_overlay_shows_start_and_end() {
        let scenario = ScenarioConfig::new(Difficulty::Easy, 1).build();
        let mut world = World::new(scenario);
        let result = run_episode(
            &mut world,
            &mut Drive,
            &EpisodeConfig {
                max_time: 5.0,
                record_trace: true,
            },
        );
        let text = render_trace(&world, &result.trace, 60);
        assert!(text.contains('S'));
        assert!(text.contains('E'));
    }

    #[test]
    fn off_canvas_plot_is_ignored() {
        let scenario = ScenarioConfig::new(Difficulty::Easy, 1).build();
        let mut canvas = AsciiCanvas::for_scenario(&scenario, 40);
        let before = canvas.to_text();
        canvas.plot(Vec2::new(-100.0, -100.0), 'X');
        assert_eq!(before, canvas.to_text());
    }
}

//! Human-readable renderings of a compiled schedule.
//!
//! Scheduled routing is fully static, so one period frame tells the whole
//! story; these helpers draw it as ASCII Gantt charts for inspection,
//! debugging, and documentation.

use std::fmt::Write;

use sr_topology::{LinkId, Topology};

use crate::buckets::{compact, Buckets};
use crate::{Schedule, Segment};

impl Schedule {
    /// Renders one link's frame as an ASCII timeline of `width` cells:
    /// `.` idle, the carried message's id (mod 10) while busy, and `*`
    /// where `width` is too coarse to separate distinct messages (two or
    /// more different messages land on one cell) — previously the last
    /// writer silently won, hiding the collapse.
    ///
    /// Every segment paints at least one cell, so sub-cell segments stay
    /// visible at any width.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn render_link_timeline(&self, link: LinkId, width: usize) -> String {
        let on_link = |seg: &&Segment| self.assignment.links(seg.message).contains(&link);
        self.paint(self.segments.iter().filter(on_link), width)
    }

    /// One timeline row of `width` cells painted with `segments`, as
    /// [`Schedule::render_link_timeline`] describes.
    fn paint<'a>(&self, segments: impl Iterator<Item = &'a Segment>, width: usize) -> String {
        assert!(width > 0, "timeline needs at least one cell");
        let mut cells: Vec<Option<usize>> = vec![None; width];
        let mut shared = vec![false; width];
        let scale = self.period / width as f64;
        for seg in segments {
            let a = ((seg.start / scale).floor().max(0.0) as usize).min(width - 1);
            let b = ((seg.end / scale).ceil() as usize).clamp(a + 1, width.max(a + 1));
            let m = seg.message.index();
            for i in a..b.min(width) {
                match cells[i] {
                    Some(prev) if prev != m => shared[i] = true,
                    _ => cells[i] = Some(m),
                }
            }
        }
        cells
            .iter()
            .zip(&shared)
            .map(|(c, &s)| match (c, s) {
                (_, true) => '*',
                (Some(m), false) => char::from_digit((m % 10) as u32, 10).expect("digit in range"),
                (None, false) => '.',
            })
            .collect()
    }

    /// Renders every traffic-carrying link of `topo` as a timeline block,
    /// one row per link:
    ///
    /// ```text
    /// L3  (N0-N1)  000000....2222......
    /// L17 (N1-N3)  ......111111........
    /// ```
    ///
    /// Idle links are omitted; the header row labels the `[0, τ_in)` frame
    /// the timelines span.
    pub fn render_timelines(&self, topo: &dyn Topology, width: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} 0 µs{:>w$} = τ_in",
            "link",
            format!("{:.1} µs", self.period),
            w = width.saturating_sub(4)
        );
        // Each link's segments, gathered in one pass over the segments.
        let on_links = self.segments.iter().enumerate().flat_map(|(si, seg)| {
            let links = self.assignment.links(seg.message).iter();
            links.map(move |l| (l.index(), compact(si)))
        });
        let timelines = Buckets::group(topo.num_links(), on_links);
        for l in 0..topo.num_links() {
            let link = LinkId(l);
            let segments = timelines.items[timelines.range(l)].iter();
            let row = self.paint(segments.map(|&si| &self.segments[si as usize]), width);
            if row.chars().all(|c| c == '.') {
                continue;
            }
            let (a, b) = topo.link_endpoints(link);
            let _ = writeln!(out, "{:<16} {row}", format!("{link} ({a}-{b})"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileConfig};
    use sr_tfg::{generators, Timing};
    use sr_topology::GeneralizedHypercube;

    fn compiled() -> (GeneralizedHypercube, Schedule) {
        let topo = GeneralizedHypercube::binary(3).unwrap();
        let tfg = generators::chain(3, 500, 1280);
        let timing = Timing::new(64.0, 10.0);
        let alloc = sr_mapping::greedy(&tfg, &topo);
        let s = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            100.0,
            &CompileConfig::default(),
        )
        .expect("compiles");
        (topo, s)
    }

    #[test]
    fn busy_cells_match_busy_time() {
        let (topo, s) = compiled();
        let rows = s.busy_spans();
        for l in 0..sr_topology::Topology::num_links(&topo) {
            let link = LinkId(l);
            let row = s.render_link_timeline(link, 100);
            let busy_cells = row.chars().filter(|&c| c != '.').count();
            let busy = rows.get(&link).map_or(&[][..], Vec::as_slice);
            let busy_time: f64 = busy.iter().map(|(a, b)| b - a).sum();
            // 100 cells over a 100 µs frame: 1 cell ≈ 1 µs, ±2 for rounding.
            assert!(
                (busy_cells as f64 - busy_time).abs() <= 2.0,
                "{link}: {busy_cells} cells vs {busy_time} µs\n{row}"
            );
        }
    }

    #[test]
    fn timelines_skip_idle_links() {
        let (topo, s) = compiled();
        let text = s.render_timelines(&topo, 50);
        // Two network messages -> at most a handful of rows + header.
        let rows = text.lines().count();
        assert!((2..=6).contains(&rows), "{text}");
        assert!(text.contains("µs"));
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_width_panics() {
        let (_, s) = compiled();
        let _ = s.render_link_timeline(LinkId(0), 0);
    }

    #[test]
    fn header_labels_the_tau_in_frame() {
        let (topo, s) = compiled();
        let text = s.render_timelines(&topo, 50);
        let header = text.lines().next().unwrap();
        assert!(header.contains("τ_in"), "{header}");
        assert!(header.contains("µs"), "{header}");
    }

    /// Two messages forced over the single link of a 2-node machine: at
    /// widths too coarse to separate them the shared cell renders `*`
    /// instead of silently showing only the last-painted message, and every
    /// segment stays visible (≥ 1 cell) at any width.
    #[test]
    fn narrow_width_marks_collapsed_cells() {
        use sr_mapping::Allocation;
        use sr_topology::NodeId;
        let topo = GeneralizedHypercube::binary(1).unwrap();
        let mut b = sr_tfg::TfgBuilder::new();
        let t0 = b.task("t0", 500);
        let t1 = b.task("t1", 500);
        let t2 = b.task("t2", 500);
        b.message("a", t0, t1, 640).unwrap();
        b.message("b", t0, t2, 640).unwrap();
        let tfg = b.build().unwrap();
        let timing = Timing::new(64.0, 10.0);
        let alloc = Allocation::new(vec![NodeId(0), NodeId(1), NodeId(1)], &tfg, &topo).unwrap();
        let s = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            100.0,
            &CompileConfig::default(),
        )
        .expect("compiles");
        // Both messages traverse LinkId(0); one cell cannot separate them.
        let collapsed = s.render_link_timeline(LinkId(0), 1);
        assert_eq!(collapsed, "*");
        // At generous width both ids are visible and nothing is starred.
        let wide = s.render_link_timeline(LinkId(0), 100);
        assert!(wide.contains('0') && wide.contains('1'), "{wide}");
        // Output length always matches the requested width.
        for width in 1..8 {
            assert_eq!(
                s.render_link_timeline(LinkId(0), width).chars().count(),
                width
            );
        }
    }
}

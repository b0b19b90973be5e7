//! Self-contained HTML schedule reports for the `report` subcommand.
//!
//! One call to [`render_report`] turns a compiled schedule plus the OI
//! analyses of a wormhole run and a scheduled-routing replay of the *same*
//! workload into a single HTML document with five panels:
//!
//! 1. **Overview** — workload parameters and schedule statistics;
//! 2. **Gantt** — per-link occupancy over the `[0, τ_in)` frame, one SVG
//!    row per traffic-carrying link, one rect per scheduled segment;
//! 3. **Heatmap** — the allocation LP's message × interval transmission-time
//!    split, shaded by the fraction of each interval the message occupies;
//! 4. **OI** — the inter-output-interval histograms and a wormhole-vs-
//!    scheduled side-by-side table (the paper's §3 claim as a picture: the
//!    WR histogram spreads, the SR histogram is a single bar at `τ_in`);
//! 5. **Diagnosis** — the compiler's decision record: every `(seed, scale)`
//!    candidate the feedback search walked and the winning schedule's
//!    tightest capacity rows (the links that would give out first).
//!
//! Everything is inline — no external assets, scripts, or stylesheets — so
//! the file can be archived as a CI artifact and opened anywhere. The
//! document's tag skeleton is pinned by a golden test via [`structure`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sr::core::Segment;
use sr::obs::OiReport;
use sr::prelude::*;

/// Everything [`render_report`] needs about one compiled-and-measured
/// workload.
pub struct ReportInput<'a> {
    /// The platform the schedule was compiled for.
    pub topo: &'a dyn Topology,
    /// The task-flow graph.
    pub tfg: &'a TaskFlowGraph,
    /// The compiled scheduled-routing schedule.
    pub sched: &'a Schedule,
    /// The input period `τ_in`, µs.
    pub period: f64,
    /// OI analysis of the wormhole run.
    pub wr: &'a OiReport,
    /// OI analysis of the scheduled-routing replay.
    pub sr: &'a OiReport,
    /// Whether the wormhole run deadlocked (truncating its output series).
    pub wr_deadlocked: bool,
    /// The compile's decision record (candidate walk + bottlenecks).
    pub diag: &'a sr::core::Diagnosis,
    /// Human-readable workload spec line (topology/tfg/alloc/bandwidth).
    pub spec: String,
}

const WIDTH: usize = 940;
const ROW_H: usize = 16;
const LABEL_W: usize = 130;
const PALETTE: [&str; 10] = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948", "#b07aa1", "#ff9da7",
    "#9c755f", "#bab0ac",
];

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn color(message: usize) -> &'static str {
    PALETTE[message % PALETTE.len()]
}

/// Renders the complete self-contained HTML report.
pub fn render_report(inp: &ReportInput<'_>) -> String {
    let mut h = String::new();
    h.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    let _ = writeln!(h, "<title>srsched report — {}</title>", esc(&inp.spec));
    h.push_str(
        "<style>\nbody{font:14px/1.45 system-ui,sans-serif;margin:24px auto;max-width:1000px;\
         color:#222}\nh1{font-size:20px}\nh2{font-size:16px;border-bottom:1px solid #ddd;\
         padding-bottom:4px}\ntable{border-collapse:collapse}\ntd,th{border:1px solid #ddd;\
         padding:3px 10px;text-align:right}\nth{background:#f5f5f5}\ntd:first-child,\
         th:first-child{text-align:left}\nsvg{display:block;margin:8px 0}\n.ok{color:#2a7a2a}\
         \n.bad{color:#b22}\n</style>\n</head>\n<body>\n",
    );
    let _ = writeln!(h, "<h1>srsched schedule report</h1>");
    let _ = writeln!(h, "<p>{}</p>", esc(&inp.spec));

    overview_section(&mut h, inp);
    gantt_section(&mut h, inp);
    heatmap_section(&mut h, inp);
    oi_section(&mut h, inp);
    diagnosis_section(&mut h, inp);

    h.push_str("</body>\n</html>\n");
    h
}

/// The compiler's decision record: the `(seed, scale)` candidate walk and
/// the winner's tightest capacity rows, as rendered by
/// [`sr::core::Diagnosis::render_text`] (preformatted — the same text
/// `srsched explain` prints).
fn diagnosis_section(h: &mut String, inp: &ReportInput<'_>) {
    h.push_str(
        "<section id=\"diagnosis\">\n<h2>Compile diagnosis: candidate walk and bottlenecks</h2>\n",
    );
    let _ = writeln!(
        h,
        "<pre>{}</pre>",
        esc(&inp.diag.render_text(inp.topo, inp.tfg))
    );
    h.push_str("</section>\n");
}

fn overview_section(h: &mut String, inp: &ReportInput<'_>) {
    let s = inp.sched;
    h.push_str("<section id=\"overview\">\n<h2>Overview</h2>\n");
    h.push_str("<table>\n");
    let mut row = |k: &str, v: String| {
        let _ = writeln!(h, "<tr><td>{}</td><td>{}</td></tr>", esc(k), v);
    };
    row("topology", esc(&inp.topo.name()));
    row(
        "tasks / messages",
        format!("{} / {}", inp.tfg.num_tasks(), inp.tfg.num_messages()),
    );
    row("period τ_in", format!("{:.3} µs", inp.period));
    row("latency", format!("{:.3} µs", s.latency()));
    row(
        "peak utilization",
        format!(
            "{:.3} (baseline {:.3})",
            s.peak_utilization(),
            s.baseline_peak_utilization()
        ),
    );
    row("intervals", format!("{}", s.intervals().len()));
    row("segments", format!("{}", s.segments().len()));
    row("guard time", format!("{:.3} µs", s.guard_time()));
    h.push_str("</table>\n</section>\n");
}

fn gantt_section(h: &mut String, inp: &ReportInput<'_>) {
    let s = inp.sched;
    // One row per traffic-carrying link, its segments gathered in one pass.
    let mut rows: BTreeMap<LinkId, Vec<&Segment>> = BTreeMap::new();
    for seg in s.segments() {
        for &l in s.assignment().links(seg.message) {
            rows.entry(l).or_default().push(seg);
        }
    }
    h.push_str("<section id=\"gantt\">\n<h2>Link occupancy over the [0, τ_in) frame</h2>\n");
    let _ = writeln!(
        h,
        "<p>{} of {} links carry traffic; one rect per scheduled segment, colored by message.</p>",
        rows.len(),
        inp.topo.num_links()
    );
    let height = ROW_H * (rows.len() + 1) + 6;
    let _ = writeln!(h, "<svg class=\"gantt\" viewBox=\"0 0 {WIDTH} {height}\">");
    let plot_w = WIDTH - LABEL_W;
    let scale = plot_w as f64 / inp.period;
    for (r, (&link, segments)) in rows.iter().enumerate() {
        let y = r * ROW_H + 4;
        let (a, b) = inp.topo.link_endpoints(link);
        let _ = writeln!(
            h,
            "<text x=\"0\" y=\"{}\" font-size=\"11\">{link} ({a}-{b})</text>",
            y + ROW_H - 6
        );
        let _ = writeln!(
            h,
            "<rect x=\"{LABEL_W}\" y=\"{y}\" width=\"{plot_w}\" height=\"{}\" fill=\"#f4f4f4\"/>",
            ROW_H - 3
        );
        for seg in segments {
            let x = LABEL_W as f64 + seg.start * scale;
            let w = ((seg.end - seg.start) * scale).max(1.0);
            let _ = writeln!(
                h,
                "<rect x=\"{x:.1}\" y=\"{y}\" width=\"{w:.1}\" height=\"{}\" fill=\"{}\">\
                 <title>{}: [{:.2}, {:.2}] µs</title></rect>",
                ROW_H - 3,
                color(seg.message.index()),
                esc(inp.tfg.message(seg.message).name()),
                seg.start,
                seg.end,
            );
        }
    }
    // Frame axis: 0 and τ_in.
    let axis_y = rows.len() * ROW_H + 14;
    let _ = writeln!(
        h,
        "<text x=\"{LABEL_W}\" y=\"{axis_y}\" font-size=\"11\">0 µs</text>"
    );
    let _ = writeln!(
        h,
        "<text x=\"{WIDTH}\" y=\"{axis_y}\" font-size=\"11\" text-anchor=\"end\">{:.2} µs = τ_in</text>",
        inp.period
    );
    h.push_str("</svg>\n</section>\n");
}

fn heatmap_section(h: &mut String, inp: &ReportInput<'_>) {
    let s = inp.sched;
    let intervals = s.intervals();
    let alloc = s.allocation();
    let nm = alloc.num_messages();
    h.push_str("<section id=\"heatmap\">\n<h2>Interval utilization (allocation LP)</h2>\n");
    let _ = writeln!(
        h,
        "<p>Each cell shades the fraction of interval I<sub>k</sub> message M<sub>i</sub> \
         transmits for; columns are the {} frame intervals.</p>",
        intervals.len()
    );
    let height = ROW_H * (nm + 1) + 6;
    let _ = writeln!(
        h,
        "<svg class=\"heatmap\" viewBox=\"0 0 {WIDTH} {height}\">"
    );
    let plot_w = WIDTH - LABEL_W;
    let scale = plot_w as f64 / inp.period;
    for m in 0..nm {
        let y = m * ROW_H + 4;
        let id = sr::tfg::MessageId(m);
        let _ = writeln!(
            h,
            "<text x=\"0\" y=\"{}\" font-size=\"11\">{}</text>",
            y + ROW_H - 6,
            esc(inp.tfg.message(id).name())
        );
        for k in 0..intervals.len() {
            let (a, b) = intervals.bounds(k);
            let frac = if intervals.length(k) > 0.0 {
                (alloc.allocated(id, k) / intervals.length(k)).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let x = LABEL_W as f64 + a * scale;
            let w = ((b - a) * scale - 1.0).max(0.5);
            let _ = writeln!(
                h,
                "<rect x=\"{x:.1}\" y=\"{y}\" width=\"{w:.1}\" height=\"{}\" fill=\"{}\" \
                 fill-opacity=\"{frac:.3}\" stroke=\"#eee\" stroke-width=\"0.5\">\
                 <title>I{k}: {:.1}%</title></rect>",
                ROW_H - 3,
                color(m),
                frac * 100.0
            );
        }
    }
    let axis_y = nm * ROW_H + 14;
    let _ = writeln!(
        h,
        "<text x=\"{LABEL_W}\" y=\"{axis_y}\" font-size=\"11\">0 µs</text>"
    );
    let _ = writeln!(
        h,
        "<text x=\"{WIDTH}\" y=\"{axis_y}\" font-size=\"11\" text-anchor=\"end\">{:.2} µs = τ_in</text>",
        inp.period
    );
    h.push_str("</svg>\n</section>\n");
}

fn oi_section(h: &mut String, inp: &ReportInput<'_>) {
    h.push_str(
        "<section id=\"oi\">\n<h2>Output-interval distribution: wormhole vs scheduled</h2>\n",
    );
    // Side-by-side summary table.
    h.push_str("<table>\n<tr><th>metric</th><th>wormhole</th><th>scheduled</th></tr>\n");
    let fmt_opt = |r: &OiReport, f: &dyn Fn(&sr::obs::Summary) -> f64| -> String {
        r.interval_summary
            .as_ref()
            .map_or("–".into(), |s| format!("{:.3}", f(s)))
    };
    let mut row = |k: &str, wr: String, sr: String| {
        let _ = writeln!(h, "<tr><td>{}</td><td>{wr}</td><td>{sr}</td></tr>", esc(k));
    };
    row(
        "outputs measured",
        format!(
            "{}{}",
            inp.wr.outputs.len(),
            if inp.wr_deadlocked {
                " (deadlocked)"
            } else {
                ""
            }
        ),
        format!("{}", inp.sr.outputs.len()),
    );
    row(
        "min δ (µs)",
        format!("{:.3}", inp.wr.min_interval_us),
        format!("{:.3}", inp.sr.min_interval_us),
    );
    row(
        "p50 δ (µs)",
        fmt_opt(inp.wr, &|s| s.p50),
        fmt_opt(inp.sr, &|s| s.p50),
    );
    row(
        "p95 δ (µs)",
        fmt_opt(inp.wr, &|s| s.p95),
        fmt_opt(inp.sr, &|s| s.p95),
    );
    row(
        "max δ (µs)",
        fmt_opt(inp.wr, &|s| s.max),
        fmt_opt(inp.sr, &|s| s.max),
    );
    row(
        "max |δ − τ_in| (µs)",
        format!("{:.3}", inp.wr.max_deviation_us),
        format!("{:.3}", inp.sr.max_deviation_us),
    );
    row(
        "header stalls",
        format!("{}", inp.wr.stalls.len()),
        format!("{}", inp.sr.stalls.len()),
    );
    row(
        "cross-invocation stalls",
        format!("{}", inp.wr.cross_invocation_stalls()),
        format!("{}", inp.sr.cross_invocation_stalls()),
    );
    let verdict = |r: &OiReport| -> String {
        if r.is_consistent(1e-6) {
            "<span class=\"ok\">consistent</span>".into()
        } else {
            "<span class=\"bad\">output inconsistency</span>".into()
        }
    };
    row("verdict", verdict(inp.wr), verdict(inp.sr));
    h.push_str("</table>\n");

    histogram_svg(h, "wormhole", inp.wr, inp.period);
    histogram_svg(h, "scheduled", inp.sr, inp.period);

    // Worst blocking chains, if any (wormhole only by construction).
    let cross: Vec<_> = inp
        .wr
        .stalls
        .iter()
        .filter(|s| s.is_cross_invocation())
        .collect();
    if !cross.is_empty() {
        let _ = writeln!(
            h,
            "<p>Longest cross-invocation blocking chains (who stalled on whom):</p>\n<ul>"
        );
        let mut worst = cross.clone();
        worst.sort_by(|a, b| b.blocked_us.total_cmp(&a.blocked_us));
        for s in worst.iter().take(5) {
            let _ = writeln!(
                h,
                "<li>{} (invocation {}) blocked {:.2} µs on channel {} behind {} (invocation {})</li>",
                esc(inp.tfg.message(sr::tfg::MessageId(s.message as usize)).name()),
                s.invocation,
                s.blocked_us,
                s.channel,
                esc(inp
                    .tfg
                    .message(sr::tfg::MessageId(s.holder_message as usize))
                    .name()),
                s.holder_invocation
            );
        }
        h.push_str("</ul>\n");
    }
    h.push_str("</section>\n");
}

/// One inter-output-interval histogram as an inline SVG bar chart, with a
/// dashed marker at `τ_in`.
fn histogram_svg(h: &mut String, label: &str, r: &OiReport, period: f64) {
    const BINS: usize = 24;
    const HEIGHT: usize = 120;
    let _ = writeln!(
        h,
        "<h3>{} — δ histogram ({} intervals)</h3>",
        esc(label),
        r.intervals.len()
    );
    let lo = r
        .intervals
        .iter()
        .copied()
        .fold(period, f64::min)
        .min(period * 0.98);
    let hi = r
        .intervals
        .iter()
        .copied()
        .fold(period, f64::max)
        .max(period * 1.02);
    let span = (hi - lo).max(1e-9);
    let mut bins = [0usize; BINS];
    for &d in &r.intervals {
        let i = (((d - lo) / span) * BINS as f64) as usize;
        bins[i.min(BINS - 1)] += 1;
    }
    let peak = bins.iter().copied().max().unwrap_or(0).max(1);
    let _ = writeln!(
        h,
        "<svg class=\"histogram\" viewBox=\"0 0 {WIDTH} {}\">",
        HEIGHT + 20
    );
    let bar_w = (WIDTH - LABEL_W) as f64 / BINS as f64;
    for (i, &n) in bins.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let bh = HEIGHT as f64 * n as f64 / peak as f64;
        let x = LABEL_W as f64 + i as f64 * bar_w;
        let _ = writeln!(
            h,
            "<rect x=\"{x:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{bh:.1}\" fill=\"#4e79a7\">\
             <title>[{:.2}, {:.2}) µs: {n}</title></rect>",
            HEIGHT as f64 - bh,
            (bar_w - 1.0).max(0.5),
            lo + i as f64 * span / BINS as f64,
            lo + (i + 1) as f64 * span / BINS as f64
        );
    }
    // τ_in marker.
    let tx = LABEL_W as f64 + (period - lo) / span * (WIDTH - LABEL_W) as f64;
    let _ = writeln!(
        h,
        "<line x1=\"{tx:.1}\" y1=\"0\" x2=\"{tx:.1}\" y2=\"{HEIGHT}\" stroke=\"#e15759\" \
         stroke-dasharray=\"4 3\"/>"
    );
    let _ = writeln!(
        h,
        "<text x=\"{tx:.1}\" y=\"{}\" font-size=\"11\" text-anchor=\"middle\">τ_in = {:.2} µs</text>",
        HEIGHT + 14,
        period
    );
    let _ = writeln!(
        h,
        "<text x=\"0\" y=\"{}\" font-size=\"11\">peak bin = {peak}</text>",
        HEIGHT + 14
    );
    h.push_str("</svg>\n");
}

/// Extracts the tag skeleton of a rendered report: the document/section/
/// heading lines verbatim plus each `<svg class="…">` reduced to its class —
/// everything structural, nothing numeric. The golden structure test pins
/// this, so panel additions/removals are caught while timing values float.
pub fn structure(html: &str) -> String {
    let mut out = String::new();
    for line in html.lines() {
        let t = line.trim_start();
        if t.starts_with("<!DOCTYPE")
            || t.starts_with("<html")
            || t.starts_with("</html")
            || t.starts_with("<body")
            || t.starts_with("</body")
            || t.starts_with("<section")
            || t.starts_with("</section")
            || t.starts_with("<h1")
            || t.starts_with("<h2")
            || t.starts_with("</svg")
        {
            out.push_str(t);
            out.push('\n');
        } else if t.starts_with("<svg") {
            // Keep only the class; viewBox height varies with row count.
            let class = t
                .split("class=\"")
                .nth(1)
                .and_then(|r| r.split('"').next())
                .unwrap_or("?");
            let _ = writeln!(out, "<svg class=\"{class}\">");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_extracts_skeleton_only() {
        let html = "<!DOCTYPE html>\n<body>\n<section id=\"x\">\n<h2>T 12.5</h2>\n\
                    <svg class=\"gantt\" viewBox=\"0 0 940 77\">\n<rect x=\"1.5\"/>\n</svg>\n\
                    </section>\n</body>\n</html>\n";
        let s = structure(html);
        assert!(s.contains("<section id=\"x\">"));
        assert!(s.contains("<svg class=\"gantt\">"));
        assert!(!s.contains("viewBox"));
        assert!(!s.contains("rect"));
    }
}

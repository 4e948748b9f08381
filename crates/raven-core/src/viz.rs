//! Trajectory visualization — the reproduction's stand-in for the paper's
//! "graphic simulator that animates the robot movements in real time"
//! (§IV.A). We render to standalone SVG instead of a 3-D CAD view: the
//! evaluation needs trajectories, not meshes.
//!
//! All functions are pure string builders (no I/O); callers write the SVG
//! where they want it.

/// Size of the rendered canvas in pixels.
const W: f64 = 760.0;
const H: f64 = 480.0;
const MARGIN: f64 = 48.0;

/// A single series to plot.
#[derive(Debug, Clone)]
pub struct Series<'a> {
    /// Legend label.
    pub label: &'a str,
    /// Stroke color (any SVG color).
    pub color: &'a str,
    /// `(x, y)` samples.
    pub points: Vec<(f64, f64)>,
}

/// Renders one or more XY series as an SVG line chart with axes and legend.
///
/// Returns a complete standalone SVG document. Empty series are skipped; if
/// every series is empty an empty chart with axes is produced.
pub fn line_chart(title: &str, x_label: &str, y_label: &str, series: &[Series<'_>]) -> String {
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for s in series {
        for &(x, y) in &s.points {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
    }
    if !min_x.is_finite() {
        (min_x, max_x, min_y, max_y) = (0.0, 1.0, 0.0, 1.0);
    }
    if (max_x - min_x).abs() < 1e-12 {
        max_x = min_x + 1.0;
    }
    if (max_y - min_y).abs() < 1e-12 {
        max_y = min_y + 1.0;
    }
    let sx = |x: f64| MARGIN + (x - min_x) / (max_x - min_x) * (W - 2.0 * MARGIN);
    let sy = |y: f64| H - MARGIN - (y - min_y) / (max_y - min_y) * (H - 2.0 * MARGIN);

    let mut svg = String::new();
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{W}\" height=\"{H}\" \
         viewBox=\"0 0 {W} {H}\" font-family=\"sans-serif\">\n"
    ));
    svg.push_str(&format!("<rect width=\"{W}\" height=\"{H}\" fill=\"white\" stroke=\"none\"/>\n"));
    svg.push_str(&format!(
        "<text x=\"{}\" y=\"24\" font-size=\"15\" text-anchor=\"middle\">{}</text>\n",
        W / 2.0,
        escape(title)
    ));
    // Axes.
    svg.push_str(&format!(
        "<line x1=\"{m}\" y1=\"{b}\" x2=\"{r}\" y2=\"{b}\" stroke=\"#444\"/>\n\
         <line x1=\"{m}\" y1=\"{t}\" x2=\"{m}\" y2=\"{b}\" stroke=\"#444\"/>\n",
        m = MARGIN,
        b = H - MARGIN,
        r = W - MARGIN,
        t = MARGIN
    ));
    // Axis labels and min/max ticks.
    svg.push_str(&format!(
        "<text x=\"{}\" y=\"{}\" font-size=\"11\" text-anchor=\"middle\">{}</text>\n",
        W / 2.0,
        H - 10.0,
        escape(x_label)
    ));
    svg.push_str(&format!(
        "<text x=\"14\" y=\"{}\" font-size=\"11\" text-anchor=\"middle\" \
         transform=\"rotate(-90 14 {})\">{}</text>\n",
        H / 2.0,
        H / 2.0,
        escape(y_label)
    ));
    for (v, x, y, anchor) in [
        (min_x, sx(min_x), H - MARGIN + 16.0, "middle"),
        (max_x, sx(max_x), H - MARGIN + 16.0, "middle"),
        (min_y, MARGIN - 6.0, sy(min_y), "end"),
        (max_y, MARGIN - 6.0, sy(max_y), "end"),
    ] {
        svg.push_str(&format!(
            "<text x=\"{x:.1}\" y=\"{y:.1}\" font-size=\"10\" text-anchor=\"{anchor}\">{v:.4}</text>\n"
        ));
    }
    // Series.
    for (i, s) in series.iter().enumerate() {
        if s.points.is_empty() {
            continue;
        }
        let mut d = String::new();
        for (k, &(x, y)) in s.points.iter().enumerate() {
            d.push_str(if k == 0 { "M" } else { "L" });
            d.push_str(&format!("{:.2},{:.2} ", sx(x), sy(y)));
        }
        svg.push_str(&format!(
            "<path d=\"{d}\" fill=\"none\" stroke=\"{}\" stroke-width=\"1.4\"/>\n",
            s.color
        ));
        // Legend entry.
        let ly = MARGIN + 16.0 * i as f64;
        svg.push_str(&format!(
            "<line x1=\"{0}\" y1=\"{ly}\" x2=\"{1}\" y2=\"{ly}\" stroke=\"{2}\" stroke-width=\"2\"/>\n\
             <text x=\"{3}\" y=\"{4}\" font-size=\"11\">{5}</text>\n",
            W - MARGIN - 150.0,
            W - MARGIN - 126.0,
            s.color,
            W - MARGIN - 120.0,
            ly + 4.0,
            escape(s.label)
        ));
    }
    svg.push_str("</svg>\n");
    svg
}

/// Renders a probability grid (Fig. 9 style) as an SVG heatmap. `rows` are
/// labeled (value, per-duration probabilities); `cols` are duration labels.
pub fn heatmap(title: &str, cols: &[String], rows: &[(String, Vec<f64>)]) -> String {
    let cell_w = (W - 2.0 * MARGIN) / cols.len().max(1) as f64;
    let cell_h = (H - 2.0 * MARGIN - 20.0) / rows.len().max(1) as f64;
    let mut svg = String::new();
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{W}\" height=\"{H}\" \
         viewBox=\"0 0 {W} {H}\" font-family=\"sans-serif\">\n\
         <rect width=\"{W}\" height=\"{H}\" fill=\"white\"/>\n"
    ));
    svg.push_str(&format!(
        "<text x=\"{}\" y=\"24\" font-size=\"15\" text-anchor=\"middle\">{}</text>\n",
        W / 2.0,
        escape(title)
    ));
    for (j, col) in cols.iter().enumerate() {
        svg.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"10\" text-anchor=\"middle\">{}</text>\n",
            MARGIN + (j as f64 + 0.5) * cell_w,
            MARGIN + 12.0,
            escape(col)
        ));
    }
    for (i, (label, values)) in rows.iter().enumerate() {
        let y = MARGIN + 20.0 + i as f64 * cell_h;
        svg.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"10\" text-anchor=\"end\">{}</text>\n",
            MARGIN - 4.0,
            y + cell_h / 2.0 + 3.0,
            escape(label)
        ));
        for (j, &p) in values.iter().enumerate() {
            let x = MARGIN + j as f64 * cell_w;
            let heat = (p.clamp(0.0, 1.0) * 255.0) as u8;
            svg.push_str(&format!(
                "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{cell_w:.1}\" height=\"{cell_h:.1}\" \
                 fill=\"rgb({},{},{})\" stroke=\"#ddd\"/>\n\
                 <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"10\" text-anchor=\"middle\" \
                 fill=\"{}\">{p:.2}</text>\n",
                255 - heat / 2,
                255 - heat,
                255 - heat,
                x + cell_w / 2.0,
                y + cell_h / 2.0 + 3.0,
                if heat > 140 { "white" } else { "#333" },
            ));
        }
    }
    svg.push_str("</svg>\n");
    svg
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_series(label: &'static str) -> Series<'static> {
        Series {
            label,
            color: "#c33",
            points: (0..100).map(|k| (k as f64, (k as f64 * 0.1).sin())).collect(),
        }
    }

    #[test]
    fn line_chart_is_wellformed_svg() {
        let svg = line_chart("test", "x", "y", &[sine_series("sin")]);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("<path"));
        assert!(svg.contains("sin"));
        // Balanced text tags.
        assert_eq!(svg.matches("<text").count(), svg.matches("</text>").count());
    }

    #[test]
    fn empty_chart_does_not_panic() {
        let svg = line_chart("empty", "x", "y", &[]);
        assert!(svg.contains("<line")); // axes still drawn
        let svg = line_chart(
            "empty series",
            "x",
            "y",
            &[Series { label: "none", color: "#000", points: vec![] }],
        );
        assert!(svg.ends_with("</svg>\n"));
    }

    #[test]
    fn degenerate_ranges_handled() {
        let flat = Series { label: "flat", color: "#00c", points: vec![(1.0, 5.0), (2.0, 5.0)] };
        let svg = line_chart("flat", "x", "y", &[flat]);
        assert!(svg.contains("<path"));
        let single = Series { label: "dot", color: "#0c0", points: vec![(3.0, 3.0)] };
        let svg = line_chart("dot", "x", "y", &[single]);
        assert!(svg.contains("<path"));
    }

    #[test]
    fn heatmap_renders_all_cells() {
        let cols = vec!["2".to_string(), "64".to_string(), "512".to_string()];
        let rows = vec![
            ("2000".to_string(), vec![0.0, 0.5, 1.0]),
            ("32000".to_string(), vec![0.1, 0.9, 1.0]),
        ];
        let svg = heatmap("grid", &cols, &rows);
        assert_eq!(svg.matches("<rect").count(), 1 + 6); // background + cells
        assert!(svg.contains("0.50"));
    }

    #[test]
    fn titles_are_escaped() {
        let svg = line_chart("a < b & c", "x", "y", &[]);
        assert!(svg.contains("a &lt; b &amp; c"));
    }
}

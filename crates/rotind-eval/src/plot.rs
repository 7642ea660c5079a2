//! Dependency-free SVG line plots for the figure binaries.
//!
//! The paper's efficiency results are *figures* (log-scale series over
//! database size); this module renders the sweep tables as standalone
//! SVG files next to the CSVs, so `results/fig19.svg` is a directly
//! comparable artefact.

use std::fmt::Write as _;
use std::path::Path;

/// Canvas geometry (pixels).
const WIDTH: f64 = 680.0;
const HEIGHT: f64 = 440.0;
const MARGIN_L: f64 = 70.0;
const MARGIN_R: f64 = 160.0;
const MARGIN_T: f64 = 46.0;
const MARGIN_B: f64 = 52.0;

/// Series palette (colour-blind-safe-ish).
const PALETTE: [&str; 6] = [
    "#0072b2", "#d55e00", "#009e73", "#cc79a7", "#56b4e9", "#e69f00",
];

/// A simple multi-series line plot with optional log axes.
#[derive(Debug, Clone)]
pub struct LinePlot {
    /// Plot title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// Log-scale the x axis.
    pub log_x: bool,
    /// Log-scale the y axis.
    pub log_y: bool,
    /// Named series of `(x, y)` points.
    pub series: Vec<(String, Vec<(f64, f64)>)>,
}

fn axis_transform(value: f64, lo: f64, hi: f64, log: bool, out_lo: f64, out_hi: f64) -> f64 {
    let (v, lo, hi) = if log {
        (
            value.max(1e-12).log10(),
            lo.max(1e-12).log10(),
            hi.max(1e-12).log10(),
        )
    } else {
        (value, lo, hi)
    };
    let t = if (hi - lo).abs() < 1e-12 {
        0.5
    } else {
        (v - lo) / (hi - lo)
    };
    out_lo + t * (out_hi - out_lo)
}

/// "Nice" tick positions covering `[lo, hi]` (log axes tick at powers of
/// ten; linear axes at 5 even divisions).
fn ticks(lo: f64, hi: f64, log: bool) -> Vec<f64> {
    if log {
        let lo10 = lo.max(1e-12).log10().floor() as i32;
        let hi10 = hi.max(1e-12).log10().ceil() as i32;
        (lo10..=hi10).map(|e| 10f64.powi(e)).collect()
    } else {
        (0..=5).map(|i| lo + (hi - lo) * i as f64 / 5.0).collect()
    }
}

fn fmt_tick(v: f64) -> String {
    // rotind-lint: allow(float-eq) exact-zero sentinel
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

impl LinePlot {
    /// Render the plot as a standalone SVG document.
    ///
    /// Returns `None` when there is nothing to draw (no series or no
    /// finite points).
    pub fn to_svg(&self) -> Option<String> {
        let points: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|(_, pts)| pts.iter().copied())
            .filter(|(x, y)| x.is_finite() && y.is_finite())
            .collect();
        if points.is_empty() {
            return None;
        }
        let (mut x_lo, mut x_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y_lo, mut y_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(x, y) in &points {
            x_lo = x_lo.min(x);
            x_hi = x_hi.max(x);
            y_lo = y_lo.min(y);
            y_hi = y_hi.max(y);
        }
        if self.log_y {
            y_lo = y_lo.max(1e-9);
        }
        if self.log_x {
            x_lo = x_lo.max(1e-9);
        }

        let px = |x: f64| axis_transform(x, x_lo, x_hi, self.log_x, MARGIN_L, WIDTH - MARGIN_R);
        let py = |y: f64| axis_transform(y, y_lo, y_hi, self.log_y, HEIGHT - MARGIN_B, MARGIN_T);

        let mut svg = String::new();
        let _ = write!(
            svg,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">"#
        );
        svg.push_str(r#"<rect width="100%" height="100%" fill="white"/>"#);
        let _ = write!(
            svg,
            r#"<text x="{}" y="24" font-family="sans-serif" font-size="15" font-weight="bold">{}</text>"#,
            MARGIN_L,
            xml_escape(&self.title)
        );

        // Axes.
        let (x0, x1) = (MARGIN_L, WIDTH - MARGIN_R);
        let (y0, y1) = (HEIGHT - MARGIN_B, MARGIN_T);
        let _ = write!(
            svg,
            r#"<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/><line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>"#
        );
        for t in ticks(x_lo, x_hi, self.log_x) {
            if t < x_lo * 0.999 || t > x_hi * 1.001 {
                continue;
            }
            let x = px(t);
            let _ = write!(
                svg,
                r#"<line x1="{x}" y1="{y0}" x2="{x}" y2="{}" stroke="black"/><text x="{x}" y="{}" font-family="sans-serif" font-size="11" text-anchor="middle">{}</text>"#,
                y0 + 5.0,
                y0 + 18.0,
                fmt_tick(t)
            );
        }
        for t in ticks(y_lo, y_hi, self.log_y) {
            if t < y_lo * 0.999 || t > y_hi * 1.001 {
                continue;
            }
            let y = py(t);
            let _ = write!(
                svg,
                r##"<line x1="{}" y1="{y}" x2="{x0}" y2="{y}" stroke="black"/><line x1="{x0}" y1="{y}" x2="{x1}" y2="{y}" stroke="#dddddd"/><text x="{}" y="{}" font-family="sans-serif" font-size="11" text-anchor="end">{}</text>"##,
                x0 - 5.0,
                x0 - 8.0,
                y + 4.0,
                fmt_tick(t)
            );
        }
        // Axis labels.
        let _ = write!(
            svg,
            r#"<text x="{}" y="{}" font-family="sans-serif" font-size="12" text-anchor="middle">{}</text>"#,
            (x0 + x1) / 2.0,
            HEIGHT - 14.0,
            xml_escape(&self.x_label)
        );
        let _ = write!(
            svg,
            r#"<text x="16" y="{}" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 16 {})">{}</text>"#,
            (y0 + y1) / 2.0,
            (y0 + y1) / 2.0,
            xml_escape(&self.y_label)
        );

        // Series + legend.
        for (s, (name, pts)) in self.series.iter().enumerate() {
            let colour = PALETTE[s % PALETTE.len()];
            let path: Vec<String> = pts
                .iter()
                .filter(|(x, y)| x.is_finite() && y.is_finite())
                .map(|&(x, y)| format!("{:.1},{:.1}", px(x), py(y)))
                .collect();
            if path.len() > 1 {
                let _ = write!(
                    svg,
                    r#"<polyline points="{}" fill="none" stroke="{colour}" stroke-width="2"/>"#,
                    path.join(" ")
                );
            }
            for p in &path {
                let mut it = p.split(',');
                let (cx, cy) = (it.next().unwrap_or("0"), it.next().unwrap_or("0"));
                let _ = write!(
                    svg,
                    r#"<circle cx="{cx}" cy="{cy}" r="3" fill="{colour}"/>"#
                );
            }
            let ly = MARGIN_T + 16.0 * s as f64;
            let _ = write!(
                svg,
                r#"<rect x="{}" y="{}" width="12" height="12" fill="{colour}"/><text x="{}" y="{}" font-family="sans-serif" font-size="12">{}</text>"#,
                WIDTH - MARGIN_R + 12.0,
                ly - 10.0,
                WIDTH - MARGIN_R + 30.0,
                ly,
                xml_escape(name)
            );
        }
        svg.push_str("</svg>");
        Some(svg)
    }

    /// Write the SVG to `path` (creating parent directories); no-op when
    /// there is nothing to draw.
    pub fn write_svg(&self, path: impl AsRef<Path>) -> std::io::Result<bool> {
        match self.to_svg() {
            None => Ok(false),
            Some(svg) => {
                let path = path.as_ref();
                if let Some(parent) = path.parent() {
                    std::fs::create_dir_all(parent)?;
                }
                std::fs::write(path, svg)?;
                Ok(true)
            }
        }
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Interpret a sweep-style [`Table`](crate::report::Table) (first column = numeric x, every
/// other column = one series of numeric y values) as a line plot. Rows
/// with non-numeric cells are skipped, so summary rows coexist with the
/// data. Returns `None` when fewer than two data rows parse.
pub fn line_plot_from_table(
    table_csv: &str,
    title: &str,
    log_x: bool,
    log_y: bool,
) -> Option<LinePlot> {
    let mut lines = table_csv.lines();
    let headers: Vec<&str> = lines.next()?.split(',').collect();
    if headers.len() < 2 {
        return None;
    }
    let mut series: Vec<(String, Vec<(f64, f64)>)> = headers[1..]
        .iter()
        .map(|h| (h.to_string(), Vec::new()))
        .collect();
    for line in lines {
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != headers.len() {
            continue;
        }
        let Ok(x) = cells[0].trim().parse::<f64>() else {
            continue;
        };
        for (s, cell) in cells[1..].iter().enumerate() {
            // Cells like "0.0316" parse; "19.96% {1}" take the leading number.
            let token = cell.trim().split([' ', '%']).next().unwrap_or("");
            if let Ok(y) = token.parse::<f64>() {
                series[s].1.push((x, y));
            }
        }
    }
    series.retain(|(_, pts)| pts.len() >= 2);
    if series.is_empty() {
        return None;
    }
    Some(LinePlot {
        title: title.to_string(),
        x_label: headers[0].to_string(),
        y_label: "ratio".to_string(),
        log_x,
        log_y,
        series,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plot() -> LinePlot {
        LinePlot {
            title: "fig19".into(),
            x_label: "m".into(),
            y_label: "steps ratio".into(),
            log_x: true,
            log_y: true,
            series: vec![
                (
                    "wedge".into(),
                    vec![(32.0, 0.19), (1000.0, 0.02), (16000.0, 0.012)],
                ),
                (
                    "fft".into(),
                    vec![(32.0, 0.05), (1000.0, 0.034), (16000.0, 0.032)],
                ),
            ],
        }
    }

    #[test]
    fn svg_structure() {
        let svg = sample_plot().to_svg().expect("drawable");
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("wedge") && svg.contains("fft"));
        assert!(svg.contains("fig19"));
        // 6 data points → 6 circles.
        assert_eq!(svg.matches("<circle").count(), 6);
    }

    #[test]
    fn empty_plot_is_none() {
        let p = LinePlot {
            title: "x".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            log_x: false,
            log_y: false,
            series: vec![],
        };
        assert!(p.to_svg().is_none());
    }

    #[test]
    fn axis_transform_linear_and_log() {
        // Linear: midpoint maps to midpoint.
        let mid = axis_transform(5.0, 0.0, 10.0, false, 100.0, 200.0);
        assert!((mid - 150.0).abs() < 1e-9);
        // Log: 10 is midway between 1 and 100.
        let mid = axis_transform(10.0, 1.0, 100.0, true, 0.0, 2.0);
        assert!((mid - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ticks_log_and_linear() {
        assert_eq!(ticks(1.0, 1000.0, true), vec![1.0, 10.0, 100.0, 1000.0]);
        let lin = ticks(0.0, 10.0, false);
        assert_eq!(lin.len(), 6);
        assert_eq!(lin[0], 0.0);
        assert_eq!(lin[5], 10.0);
    }

    #[test]
    fn from_table_csv() {
        let csv = "m,fft,wedge\n32,0.05,0.19\n1000,0.034,0.02\nsummary,x,y\n16000,0.032,0.012\n";
        let plot = line_plot_from_table(csv, "fig", true, true).expect("parses");
        assert_eq!(plot.series.len(), 2);
        assert_eq!(plot.series[0].1.len(), 3, "summary row skipped");
        assert!(plot.to_svg().is_some());
    }

    #[test]
    fn from_table_rejects_unplottable() {
        assert!(line_plot_from_table("a\nx\n", "t", false, false).is_none());
        assert!(line_plot_from_table("a,b\nx,y\n", "t", false, false).is_none());
    }

    #[test]
    fn write_svg_roundtrip() {
        let dir = std::env::temp_dir().join("rotind-plot-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("fig.svg");
        assert!(sample_plot().write_svg(&path).unwrap());
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("<svg"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn xml_escaping() {
        let mut p = sample_plot();
        p.title = "a<b & c>".into();
        let svg = p.to_svg().unwrap();
        assert!(svg.contains("a&lt;b &amp; c&gt;"));
    }

    #[test]
    fn percent_cells_parse() {
        let csv = "m,err\n10,19.96% {1}\n20,10.00% {2}\n";
        let plot = line_plot_from_table(csv, "t", false, false).expect("parses");
        assert_eq!(plot.series[0].1, vec![(10.0, 19.96), (20.0, 10.0)]);
    }
}

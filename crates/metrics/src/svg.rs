//! Standalone SVG renderings of the paper's figure types: the
//! deviation-vs-effort scatter (Fig. 5 / Fig. 7), grouped box plots
//! (Fig. 4 / Fig. 6), and windowed success-rate bars (Fig. 8).
//!
//! Colors follow a validated categorical palette (fixed slot order, CVD
//! separation and lightness band checked); text uses ink tokens, never the
//! series hue; markers are ≥ 8 px; grid lines are recessive. Series beyond
//! the palette length are not assigned new hues — callers should fold them.
//! Every figure also exists as a printed table and a CSV export, which is
//! the table-view relief for the lower-contrast palette slots.

use crate::agg::BoxStats;
use crate::episode::ScatterPoint;
use std::fmt::Write as _;

/// Validated categorical palette (light mode), fixed slot order.
pub const SERIES_COLORS: [&str; 8] = [
    "#2a78d6", "#1baf7a", "#eda100", "#008300", "#4a3aa7", "#e34948", "#e87ba4", "#eb6834",
];
/// Chart surface color.
pub const SURFACE: &str = "#fcfcfb";
/// Primary ink for titles and values.
pub const INK_PRIMARY: &str = "#0b0b0b";
/// Secondary ink for axis labels and legends.
pub const INK_SECONDARY: &str = "#52514e";
/// Recessive grid-line color.
pub const GRID: &str = "#e7e6e3";

const W: f64 = 760.0;
const H: f64 = 440.0;
const ML: f64 = 64.0; // left margin
const MR: f64 = 24.0;
const MT: f64 = 54.0;
const MB: f64 = 56.0;

struct Frame {
    x_min: f64,
    x_max: f64,
    y_min: f64,
    y_max: f64,
}

impl Frame {
    fn x(&self, v: f64) -> f64 {
        ML + (v - self.x_min) / (self.x_max - self.x_min).max(1e-12) * (W - ML - MR)
    }
    fn y(&self, v: f64) -> f64 {
        H - MB - (v - self.y_min) / (self.y_max - self.y_min).max(1e-12) * (H - MT - MB)
    }
}

fn header(out: &mut String, title: &str) {
    let _ = write!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}" font-family="system-ui, sans-serif">"#
    );
    let _ = write!(
        out,
        r#"<rect width="{W}" height="{H}" fill="{SURFACE}"/><text x="{ML}" y="28" font-size="15" font-weight="600" fill="{INK_PRIMARY}">{}</text>"#,
        xml_escape(title)
    );
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// "Nice" rounded tick step for a span.
fn tick_step(span: f64) -> f64 {
    let raw = span / 5.0;
    let mag = 10f64.powf(raw.log10().floor());
    let norm = raw / mag;
    let step = if norm < 1.5 {
        1.0
    } else if norm < 3.0 {
        2.0
    } else if norm < 7.0 {
        5.0
    } else {
        10.0
    };
    step * mag
}

fn axes(out: &mut String, f: &Frame, x_label: &str, y_label: &str) {
    // Grid + ticks.
    let xs = tick_step(f.x_max - f.x_min);
    let mut v = (f.x_min / xs).ceil() * xs;
    while v <= f.x_max + 1e-9 {
        let x = f.x(v);
        let _ = write!(
            out,
            r#"<line x1="{x:.1}" y1="{MT}" x2="{x:.1}" y2="{:.1}" stroke="{GRID}" stroke-width="1"/><text x="{x:.1}" y="{:.1}" font-size="11" fill="{INK_SECONDARY}" text-anchor="middle">{}</text>"#,
            H - MB,
            H - MB + 16.0,
            fmt_tick(v)
        );
        v += xs;
    }
    let ys = tick_step(f.y_max - f.y_min);
    let mut v = (f.y_min / ys).ceil() * ys;
    while v <= f.y_max + 1e-9 {
        let y = f.y(v);
        let _ = write!(
            out,
            r#"<line x1="{ML}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="{GRID}" stroke-width="1"/><text x="{:.1}" y="{:.1}" font-size="11" fill="{INK_SECONDARY}" text-anchor="end">{}</text>"#,
            W - MR,
            ML - 8.0,
            y + 4.0,
            fmt_tick(v)
        );
        v += ys;
    }
    // Axis labels.
    let _ = write!(
        out,
        r#"<text x="{:.1}" y="{:.1}" font-size="12" fill="{INK_SECONDARY}" text-anchor="middle">{}</text>"#,
        (ML + W - MR) / 2.0,
        H - 12.0,
        xml_escape(x_label)
    );
    let _ = write!(
        out,
        r#"<text x="16" y="{:.1}" font-size="12" fill="{INK_SECONDARY}" text-anchor="middle" transform="rotate(-90 16 {:.1})">{}</text>"#,
        (MT + H - MB) / 2.0,
        (MT + H - MB) / 2.0,
        xml_escape(y_label)
    );
}

fn fmt_tick(v: f64) -> String {
    if v.abs() >= 100.0 || v.fract().abs() < 1e-9 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Renders a Fig. 5 / Fig. 7 style scatter: failed attempts as outlined
/// circles (slot 1), successful side collisions as filled triangles
/// (slot 6) — identity is carried by shape as well as hue.
pub fn scatter_svg(title: &str, points: &[ScatterPoint], x_label: &str, y_label: &str) -> String {
    let x_max = points
        .iter()
        .map(|p| p.effort)
        .fold(0.4f64, f64::max)
        .max(0.1)
        * 1.08;
    let y_max = points
        .iter()
        .map(|p| p.deviation_rmse)
        .fold(0.1f64, f64::max)
        * 1.1;
    let f = Frame {
        x_min: 0.0,
        x_max,
        y_min: 0.0,
        y_max,
    };
    let mut out = String::new();
    header(&mut out, title);
    axes(&mut out, &f, x_label, y_label);
    let blue = SERIES_COLORS[0];
    let red = SERIES_COLORS[5];
    for p in points {
        let (x, y) = (f.x(p.effort), f.y(p.deviation_rmse));
        if p.success {
            // 10px triangle, filled, with a 2px surface ring for overlaps.
            let _ = write!(
                out,
                r#"<path d="M{:.1} {:.1} L{:.1} {:.1} L{:.1} {:.1} Z" fill="{red}" stroke="{SURFACE}" stroke-width="1.5"/>"#,
                x,
                y - 5.0,
                x - 5.0,
                y + 4.0,
                x + 5.0,
                y + 4.0
            );
        } else {
            let _ = write!(
                out,
                r#"<circle cx="{x:.1}" cy="{y:.1}" r="4" fill="none" stroke="{blue}" stroke-width="2"/>"#
            );
        }
    }
    // Legend (two series → legend required).
    let lx = W - MR - 190.0;
    let _ = write!(
        out,
        r#"<circle cx="{lx:.1}" cy="44" r="4" fill="none" stroke="{blue}" stroke-width="2"/><text x="{:.1}" y="48" font-size="11" fill="{INK_SECONDARY}">no side collision</text>"#,
        lx + 10.0
    );
    let _ = write!(
        out,
        r#"<path d="M{:.1} 39 L{:.1} 48 L{:.1} 48 Z" fill="{red}"/><text x="{:.1}" y="48" font-size="11" fill="{INK_SECONDARY}">side collision</text>"#,
        lx + 115.0,
        lx + 110.0,
        lx + 120.0,
        lx + 125.0
    );
    out.push_str("</svg>");
    out
}

/// Renders grouped box plots (Fig. 4 / Fig. 6 style): one group per x
/// category (budget), one box per series (agent), series colored by fixed
/// palette slots with a legend and whiskers to min/max.
pub fn box_plot_svg(
    title: &str,
    categories: &[String],
    series: &[(String, Vec<BoxStats>)],
    x_label: &str,
    y_label: &str,
) -> String {
    let mut y_min = f64::INFINITY;
    let mut y_max = f64::NEG_INFINITY;
    for (_, boxes) in series {
        for b in boxes {
            y_min = y_min.min(b.min);
            y_max = y_max.max(b.max);
        }
    }
    if !y_min.is_finite() {
        y_min = 0.0;
        y_max = 1.0;
    }
    let pad = (y_max - y_min).max(1.0) * 0.08;
    let f = Frame {
        x_min: 0.0,
        x_max: categories.len() as f64,
        y_min: y_min - pad,
        y_max: y_max + pad,
    };
    let mut out = String::new();
    header(&mut out, title);
    // Only y grid for box plots; x positions are categorical.
    let ys = tick_step(f.y_max - f.y_min);
    let mut v = (f.y_min / ys).ceil() * ys;
    while v <= f.y_max + 1e-9 {
        let y = f.y(v);
        let _ = write!(
            out,
            r#"<line x1="{ML}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="{GRID}" stroke-width="1"/><text x="{:.1}" y="{:.1}" font-size="11" fill="{INK_SECONDARY}" text-anchor="end">{}</text>"#,
            W - MR,
            ML - 8.0,
            y + 4.0,
            fmt_tick(v)
        );
        v += ys;
    }
    let group_w = (W - ML - MR) / categories.len() as f64;
    let n = series.len().max(1) as f64;
    let box_w = (group_w * 0.7 / n).min(26.0);
    for (ci, cat) in categories.iter().enumerate() {
        let cx = ML + (ci as f64 + 0.5) * group_w;
        let _ = write!(
            out,
            r#"<text x="{cx:.1}" y="{:.1}" font-size="11" fill="{INK_SECONDARY}" text-anchor="middle">{}</text>"#,
            H - MB + 16.0,
            xml_escape(cat)
        );
        for (si, (_, boxes)) in series.iter().enumerate() {
            let Some(b) = boxes.get(ci) else { continue };
            let color = SERIES_COLORS[si % SERIES_COLORS.len()];
            let x = cx + (si as f64 - (n - 1.0) / 2.0) * (box_w + 2.0) - box_w / 2.0;
            let (yq1, yq3) = (f.y(b.q1), f.y(b.q3));
            let (ymin, ymax, ymed) = (f.y(b.min), f.y(b.max), f.y(b.median));
            let xm = x + box_w / 2.0;
            // Whiskers, box, median tick.
            let _ = write!(
                out,
                r#"<line x1="{xm:.1}" y1="{ymax:.1}" x2="{xm:.1}" y2="{yq3:.1}" stroke="{color}" stroke-width="2"/><line x1="{xm:.1}" y1="{yq1:.1}" x2="{xm:.1}" y2="{ymin:.1}" stroke="{color}" stroke-width="2"/><rect x="{x:.1}" y="{yq3:.1}" width="{box_w:.1}" height="{:.1}" rx="3" fill="{color}" fill-opacity="0.25" stroke="{color}" stroke-width="2"/><line x1="{x:.1}" y1="{ymed:.1}" x2="{:.1}" y2="{ymed:.1}" stroke="{color}" stroke-width="2"/>"#,
                (yq1 - yq3).max(1.0),
                x + box_w
            );
        }
    }
    legend(&mut out, series.iter().map(|(l, _)| l.as_str()));
    // Axis labels.
    let _ = write!(
        out,
        r#"<text x="{:.1}" y="{:.1}" font-size="12" fill="{INK_SECONDARY}" text-anchor="middle">{}</text>"#,
        (ML + W - MR) / 2.0,
        H - 12.0,
        xml_escape(x_label)
    );
    let _ = write!(
        out,
        r#"<text x="16" y="{:.1}" font-size="12" fill="{INK_SECONDARY}" text-anchor="middle" transform="rotate(-90 16 {:.1})">{}</text>"#,
        (MT + H - MB) / 2.0,
        (MT + H - MB) / 2.0,
        xml_escape(y_label)
    );
    out.push_str("</svg>");
    out
}

/// Renders the Fig. 8 style grouped bars: success rate per effort window,
/// one bar per series, 4px rounded data ends anchored to the baseline.
pub fn bar_chart_svg(
    title: &str,
    windows: &[String],
    series: &[(String, Vec<f64>)],
    y_label: &str,
) -> String {
    let f = Frame {
        x_min: 0.0,
        x_max: windows.len() as f64,
        y_min: 0.0,
        y_max: 1.0,
    };
    let mut out = String::new();
    header(&mut out, title);
    for pct in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let y = f.y(pct);
        let _ = write!(
            out,
            r#"<line x1="{ML}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="{GRID}" stroke-width="1"/><text x="{:.1}" y="{:.1}" font-size="11" fill="{INK_SECONDARY}" text-anchor="end">{:.0}%</text>"#,
            W - MR,
            ML - 8.0,
            y + 4.0,
            pct * 100.0
        );
    }
    let group_w = (W - ML - MR) / windows.len() as f64;
    let n = series.len().max(1) as f64;
    let bar_w = (group_w * 0.7 / n).min(22.0);
    let base = f.y(0.0);
    for (wi, label) in windows.iter().enumerate() {
        let cx = ML + (wi as f64 + 0.5) * group_w;
        let _ = write!(
            out,
            r#"<text x="{cx:.1}" y="{:.1}" font-size="11" fill="{INK_SECONDARY}" text-anchor="middle">{}</text>"#,
            H - MB + 16.0,
            xml_escape(label)
        );
        for (si, (_, rates)) in series.iter().enumerate() {
            let Some(&rate) = rates.get(wi) else { continue };
            let color = SERIES_COLORS[si % SERIES_COLORS.len()];
            let x = cx + (si as f64 - (n - 1.0) / 2.0) * (bar_w + 2.0) - bar_w / 2.0;
            let y = f.y(rate.clamp(0.0, 1.0));
            let h = (base - y).max(0.0);
            if h >= 1.0 {
                let _ = write!(
                    out,
                    r#"<path d="M{x:.1} {base:.1} L{x:.1} {:.1} Q{x:.1} {y:.1} {:.1} {y:.1} L{:.1} {y:.1} Q{:.1} {y:.1} {:.1} {:.1} L{:.1} {base:.1} Z" fill="{color}"/>"#,
                    y + 4.0,
                    x + 4.0,
                    x + bar_w - 4.0,
                    x + bar_w,
                    x + bar_w,
                    y + 4.0,
                    x + bar_w
                );
            } else {
                // Zero-height bars still get a visible baseline tick.
                let _ = write!(
                    out,
                    r#"<rect x="{x:.1}" y="{:.1}" width="{bar_w:.1}" height="2" fill="{color}"/>"#,
                    base - 2.0
                );
            }
        }
    }
    legend(&mut out, series.iter().map(|(l, _)| l.as_str()));
    let _ = write!(
        out,
        r#"<text x="{:.1}" y="{:.1}" font-size="12" fill="{INK_SECONDARY}" text-anchor="middle">attack effort window</text>"#,
        (ML + W - MR) / 2.0,
        H - 12.0
    );
    let _ = write!(
        out,
        r#"<text x="16" y="{:.1}" font-size="12" fill="{INK_SECONDARY}" text-anchor="middle" transform="rotate(-90 16 {:.1})">{}</text>"#,
        (MT + H - MB) / 2.0,
        (MT + H - MB) / 2.0,
        xml_escape(y_label)
    );
    out.push_str("</svg>");
    out
}

fn legend<'a>(out: &mut String, labels: impl Iterator<Item = &'a str>) {
    let mut x = ML;
    for (i, label) in labels.enumerate() {
        let color = SERIES_COLORS[i % SERIES_COLORS.len()];
        let _ = write!(
            out,
            r#"<rect x="{x:.1}" y="38" width="10" height="10" rx="3" fill="{color}"/><text x="{:.1}" y="47" font-size="11" fill="{INK_SECONDARY}">{}</text>"#,
            x + 14.0,
            xml_escape(label)
        );
        x += 22.0 + label.len() as f64 * 6.2;
    }
}

/// Writes SVG text to a file, creating parent directories.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_svg(path: impl AsRef<std::path::Path>, svg: &str) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, svg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balanced(svg: &str) {
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        // Crude well-formedness: every opened tag type closes or self-closes.
        assert_eq!(svg.matches("<svg").count(), svg.matches("</svg>").count());
    }

    #[test]
    fn scatter_renders_both_marker_kinds() {
        let points = vec![
            ScatterPoint {
                effort: 0.2,
                deviation_rmse: 0.05,
                success: false,
            },
            ScatterPoint {
                effort: 0.8,
                deviation_rmse: 0.4,
                success: true,
            },
        ];
        let svg = scatter_svg("Fig 5", &points, "attack effort", "deviation RMSE");
        balanced(&svg);
        assert!(svg.contains("<circle"), "failure marker present");
        assert!(svg.contains("<path"), "success marker present");
        assert!(svg.contains("side collision"));
        assert!(svg.contains(SERIES_COLORS[0]) && svg.contains(SERIES_COLORS[5]));
    }

    #[test]
    fn box_plot_renders_groups_and_legend() {
        let b = BoxStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let svg = box_plot_svg(
            "Fig 6",
            &["0.00".into(), "0.50".into()],
            &[("pi_ori".into(), vec![b, b]), ("pi_pnn".into(), vec![b, b])],
            "budget",
            "nominal reward",
        );
        balanced(&svg);
        assert!(svg.contains("pi_ori") && svg.contains("pi_pnn"));
        assert_eq!(
            svg.matches("<rect").count(),
            1 + 4 + 2,
            "surface + 4 boxes + 2 legend chips"
        );
    }

    #[test]
    fn bar_chart_handles_zero_and_full_rates() {
        let svg = bar_chart_svg(
            "Fig 8",
            &["0.0-0.2".into(), "0.8+".into()],
            &[("a".into(), vec![0.0, 1.0])],
            "success rate",
        );
        balanced(&svg);
        assert!(svg.contains("100%"));
        // Zero bar renders as a baseline tick (rect), full bar as a path.
        assert!(svg.contains("height=\"2\""));
    }

    #[test]
    fn escape_handles_special_chars() {
        assert_eq!(xml_escape("a<b&c"), "a&lt;b&amp;c");
    }

    #[test]
    fn file_round_trip() {
        let dir =
            std::env::temp_dir().join(format!("drive-metrics-svg-test-{}", std::process::id()));
        let path = dir.join("t.svg");
        write_svg(&path, "<svg></svg>").unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().contains("svg"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

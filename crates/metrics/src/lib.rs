#![warn(missing_docs)]

//! # drive-metrics — evaluation metrics and aggregation
//!
//! Turns raw [`drive_sim::record::EpisodeRecord`]s into exactly the
//! quantities the paper's figures plot: box statistics of nominal /
//! adversarial rewards (Fig. 4, Fig. 6), deviation-vs-effort scatter points
//! with success marking and dominance thresholds (Fig. 5, Fig. 7),
//! attack-effort windows with per-window success rates (Fig. 8), and the
//! §V-B attack-to-collision timing statistics.

pub mod agg;
pub mod episode;
pub mod export;
pub mod histo;
pub mod report;
pub mod svg;
pub mod windows;

/// Commonly used items re-exported in one place.
pub mod prelude {
    pub use crate::agg::{mean, quantile, BoxStats};
    pub use crate::episode::{
        dominance_threshold, scatter_points, time_to_collision_stats, CellSummary, ScatterPoint,
    };
    pub use crate::export::{Csv, CsvSink};
    pub use crate::histo::LatencyHistogram;
    pub use crate::report::{fmt_f, fmt_pct, Table};
    pub use crate::svg::{bar_chart_svg, box_plot_svg, scatter_svg, write_svg};
    pub use crate::windows::{effort_windows, fig8_windows, EffortWindow};
}

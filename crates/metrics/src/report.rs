//! Fixed-width text tables for the experiment harnesses' stdout reports.

/// A simple left-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    ///
    /// # Panics
    ///
    /// Panics if the row has more cells than there are headers.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert!(
            row.len() <= self.headers.len(),
            "row has {} cells but the table has {} columns",
            row.len(),
            self.headers.len()
        );
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let write_row = |f: &mut std::fmt::Formatter<'_>, cells: &[String]| -> std::fmt::Result {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<w$}")?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a float with fixed precision (convenience for table cells).
pub fn fmt_f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Formats a rate as a percentage.
pub fn fmt_pct(rate: f64) -> String {
    format!("{:.0}%", rate * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["budget", "reward"]);
        t.row(["0.25", "123.4"]);
        t.row(["1.00", "-5.0"]);
        let s = format!("{t}");
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("budget"));
        assert!(lines[1].starts_with("---"));
        assert_eq!(lines.len(), 4);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["1"]);
        assert_eq!(format!("{t}").lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "row has 3 cells")]
    fn overlong_row_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "2", "3"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_pct(0.5), "50%");
        assert!(Table::new(["x"]).is_empty());
    }
}

//! CSV export of experiment data (for plotting outside the terminal).
//!
//! Two writers with different durability trade-offs: [`Csv`] accumulates in
//! memory and writes atomically at the end (a killed run leaves the previous
//! complete file), while [`CsvSink`] appends and flushes one row at a time
//! (a killed run leaves every row completed so far — the progress-log shape
//! used by the crash-safe bench journal).

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// A minimal CSV builder with RFC-4180-style quoting.
#[derive(Debug, Clone, Default)]
pub struct Csv {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

fn escape(cell: &str) -> String {
    if cell.contains([',', '"', '\n']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

impl Csv {
    /// Creates a CSV with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Csv {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the headers.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row has {} cells, expected {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the CSV has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Serializes to CSV text.
    pub fn to_csv_string(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV to a file, creating parent directories.
    ///
    /// The write is atomic (a sibling temp file renamed into place,
    /// matching the checkpoint convention), so a run killed mid-write
    /// never leaves a truncated results file — readers see either the old
    /// complete CSV or the new one.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors. A failed write removes the temp file on a
    /// best-effort basis.
    pub fn write_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file_name = path.file_name().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("CSV path has no file name: {}", path.display()),
            )
        })?;
        let tmp = path.with_file_name(format!("{}.tmp", file_name.to_string_lossy()));
        if let Err(e) = std::fs::write(&tmp, self.to_csv_string()) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        std::fs::rename(&tmp, path)
    }
}

/// A line-buffered CSV writer that flushes after every row.
///
/// Unlike [`Csv`], rows hit the file immediately, so a process killed at an
/// arbitrary point leaves a valid partial CSV: the header plus every fully
/// written row. The newline is part of the same buffered write as the row,
/// so a torn final line can only occur if the OS itself crashes mid-write.
#[derive(Debug)]
pub struct CsvSink {
    file: std::fs::File,
    columns: usize,
}

impl CsvSink {
    fn write_line(file: &mut std::fs::File, cells: &[String]) -> std::io::Result<()> {
        let line = format!(
            "{}\n",
            cells
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        file.write_all(line.as_bytes())?;
        file.flush()
    }

    /// Creates (or truncates) `path`, writes the header line, and flushes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating parent directories or the file.
    pub fn create<S: Into<String>, I: IntoIterator<Item = S>>(
        path: impl AsRef<Path>,
        headers: I,
    ) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        let mut file = std::fs::File::create(path)?;
        Self::write_line(&mut file, &headers)?;
        Ok(CsvSink {
            file,
            columns: headers.len(),
        })
    }

    /// Appends one row and flushes it to the file immediately.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(
        &mut self,
        cells: I,
    ) -> std::io::Result<()> {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.columns,
            "row has {} cells, expected {}",
            row.len(),
            self.columns
        );
        Self::write_line(&mut self.file, &row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_rows() {
        let mut c = Csv::new(["a", "b"]);
        c.row(["1", "2"]).row(["x", "y"]);
        let s = c.to_csv_string();
        assert_eq!(s, "a,b\n1,2\nx,y\n");
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn quotes_special_cells() {
        let mut c = Csv::new(["label"]);
        c.row(["has,comma"]).row(["has\"quote"]);
        let s = c.to_csv_string();
        assert!(s.contains("\"has,comma\""));
        assert!(s.contains("\"has\"\"quote\""));
    }

    #[test]
    #[should_panic(expected = "expected 2")]
    fn wrong_arity_panics() {
        let mut c = Csv::new(["a", "b"]);
        c.row(["only-one"]);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("drive-metrics-csv-test");
        let path = dir.join("t.csv");
        let mut c = Csv::new(["v"]);
        c.row(["1"]);
        c.write_to(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "v\n1\n");
        // Atomic write: no temp file left behind, and overwriting an
        // existing CSV replaces it completely.
        assert!(!dir.join("t.csv.tmp").exists());
        let mut c2 = Csv::new(["v"]);
        c2.row(["2"]);
        c2.write_to(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "v\n2\n");
        assert!(!dir.join("t.csv.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_to_rejects_pathless_target() {
        let c = Csv::new(["v"]);
        assert!(c.write_to("/").is_err());
    }

    #[test]
    fn sink_flushes_each_row_and_create_truncates() {
        let dir = std::env::temp_dir().join("drive-metrics-sink-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("progress.csv");
        let mut sink = CsvSink::create(&path, ["step", "label"]).unwrap();
        sink.row(["1", "plain"]).unwrap();
        sink.row(["2", "has,comma"]).unwrap();
        // Rows are on disk while the sink is still open (flush-per-row),
        // exactly what a concurrent reader of a killed run would see.
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "step,label\n1,plain\n2,\"has,comma\"\n"
        );
        drop(sink);
        // A fresh `create` truncates back to just the header.
        let sink = CsvSink::create(&path, ["step", "label"]).unwrap();
        drop(sink);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "step,label\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "expected 2")]
    fn sink_wrong_arity_panics() {
        let dir = std::env::temp_dir().join("drive-metrics-sink-arity-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut sink = CsvSink::create(dir.join("p.csv"), ["a", "b"]).unwrap();
        let _ = sink.row(["only-one"]);
    }
}

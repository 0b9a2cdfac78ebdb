//! Per-process test directories.

use std::ffi::OsStr;
use std::ops::Deref;
use std::path::{Path, PathBuf};

/// `<temp>/<name>-<pid>`: a directory of one test in one process, so two
/// runs of a test binary at once never share it. It starts empty and is
/// removed when the test passes; a failed test leaves it for inspection.
/// Declared before the handles that use it, it is removed after them.
pub(crate) struct TestDir(PathBuf);

impl TestDir {
    pub(crate) fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TestDir(dir)
    }
}

impl Deref for TestDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TestDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<OsStr> for TestDir {
    fn as_ref(&self) -> &OsStr {
        self.0.as_os_str()
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

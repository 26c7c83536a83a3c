//! Helpers shared by the integration tests.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A probe file no other test shares, removed when dropped.
pub struct ProbeFile(PathBuf);

impl ProbeFile {
    /// Write `bytes` to a temp path unique to this call (process id plus a
    /// per-process counter) and publish it by write-then-rename, so a
    /// reader never sees a partly written file and parallel tests never
    /// truncate each other's input. `name` labels the file for debugging.
    pub fn write(name: &str, bytes: &[u8]) -> std::io::Result<ProbeFile> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let file = format!("feam-{}-{n}-{name}", std::process::id());
        let path = std::env::temp_dir().join(&file);
        let partial = std::env::temp_dir().join(format!("{file}.partial"));
        std::fs::write(&partial, bytes)?;
        std::fs::rename(&partial, &path)?;
        Ok(ProbeFile(path))
    }
}

impl Drop for ProbeFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

impl std::ops::Deref for ProbeFile {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for ProbeFile {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<OsStr> for ProbeFile {
    fn as_ref(&self) -> &OsStr {
        self.0.as_os_str()
    }
}

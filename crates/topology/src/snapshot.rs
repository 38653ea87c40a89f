//! Snapshot persistence: save/load an [`Internet`] as JSON.
//!
//! Experiments pin an exact topology by snapshotting it once and reloading
//! it across runs; the bench harness stores the snapshot digest next to
//! the results recorded in `EXPERIMENTS.md`.

use crate::Internet;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

/// Serialize `net` to `path` as JSON.
///
/// # Errors
///
/// Returns any I/O or serialization error.
pub fn save_snapshot<P: AsRef<Path>>(net: &Internet, path: P) -> std::io::Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    serde_json::to_writer(&mut w, net).map_err(std::io::Error::other)?;
    w.flush()
}

/// Load an [`Internet`] previously written by [`save_snapshot`].
///
/// # Errors
///
/// Returns any I/O or deserialization error.
pub fn load_snapshot<P: AsRef<Path>>(path: P) -> std::io::Result<Internet> {
    let file = File::open(path)?;
    let r = BufReader::new(file);
    serde_json::from_reader(r).map_err(std::io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InternetConfig, Scale};

    #[test]
    fn snapshot_roundtrip() {
        let net = InternetConfig::scaled(Scale::Tiny).generate(5);
        let dir = std::env::temp_dir().join(format!(
            "topology-snapshot-roundtrip-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.json");
        save_snapshot(&net, &path).unwrap();
        let back = load_snapshot(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(net.graph(), back.graph());
        assert_eq!(net.relationships(), back.relationships());
        assert_eq!(net.kinds(), back.kinds());
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load_snapshot("/nonexistent/definitely/missing.json").is_err());
    }
}

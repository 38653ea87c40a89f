//! Snapshot persistence: save/load an [`Internet`] as JSON.
//!
//! Experiments pin an exact topology by snapshotting it once and reloading
//! it across runs; the bench harness stores the snapshot digest next to
//! the results recorded in `EXPERIMENTS.md`.

use crate::{Internet, Validate};
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
/// Returns any I/O or deserialization error. The file is outside input
/// and its parts are read without [`Internet::from_parts`], so a topology
/// that fails its [`Validate`] audit is
/// [`std::io::ErrorKind::InvalidData`] naming the first failed invariant.
pub fn load_snapshot<P: AsRef<Path>>(path: P) -> std::io::Result<Internet> {
    let file = File::open(path)?;
    let r = BufReader::new(file);
    let net: Internet = serde_json::from_reader(r).map_err(std::io::Error::other)?;
    match net.audit().findings.first() {
        Some(f) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("snapshot fails its audit: {}: {}", f.invariant, f.detail),
        )),
        None => Ok(net),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InternetConfig, Scale};
    use serde_json::Value;

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
        assert!(net.relationships().eq(back.relationships()));
        assert_eq!(net.kinds(), back.kinds());
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load_snapshot("/nonexistent/definitely/missing.json").is_err());
    }

    /// The member `key` of a JSON object.
    fn field<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        let Value::Object(entries) = v else {
            panic!("not an object")
        };
        &mut entries.iter_mut().find(|(k, _)| k == key).expect(key).1
    }

    /// The array at `path` in a JSON object.
    fn array<'a>(v: &'a mut Value, path: &[&str]) -> &'a mut Vec<Value> {
        match path.iter().fold(v, |v, key| field(v, key)) {
            Value::Array(items) => items,
            _ => panic!("{path:?} is not an array"),
        }
    }

    /// Load a tiny snapshot whose JSON went through `edit`, and return
    /// the error's text.
    fn load_error(name: &str, edit: impl FnOnce(&mut Value)) -> String {
        let net = InternetConfig::scaled(Scale::Tiny).generate(7);
        let mut json = serde_json::to_value(&net).unwrap();
        edit(&mut json);
        let dir =
            std::env::temp_dir().join(format!("topology-snapshot-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.json");
        std::fs::write(&path, serde_json::to_string(&json).unwrap()).unwrap();
        let back = load_snapshot(&path);
        std::fs::remove_dir_all(&dir).ok();
        let Err(err) = back else {
            panic!("the {name} snapshot loaded");
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        err.to_string()
    }

    /// A snapshot file is outside input: a relationship list one short of
    /// or one past the edge count, and an adjacency id out of range, are
    /// errors naming the invariant, not a topology that panics later.
    #[test]
    fn load_rejects_a_snapshot_that_fails_its_audit() {
        let dropped = load_error("dropped-rel", |json| {
            array(json, &["rels"]).pop();
        });
        assert!(dropped.contains("rels.cover-edges"), "{dropped}");
        let extra = load_error("extra-rel", |json| {
            array(json, &["rels"]).push(Value::Str("Peer".into()));
        });
        assert!(extra.contains("rels.cover-edges"), "{extra}");
        let stray = load_error("stray-id", |json| {
            // The last id of the last list, so the list stays ascending.
            *array(json, &["graph", "neighbors"]).last_mut().unwrap() = Value::Int(999_999);
        });
        assert!(stray.contains("csr.ids-in-range"), "{stray}");
    }
}

//! Shared harness utilities for the table/figure reproduction binaries.
//!
//! Every `table*`/`fig*` binary follows the same shape: parse a scale and
//! seed from the command line, generate (or reuse) the topology, run the
//! experiment, and print the paper's reported numbers next to ours. The
//! helpers here keep that uniform.

#![warn(missing_docs)]

use brokerset::SourceMode;
use topology::{Internet, InternetConfig, Scale};

/// Parsed command line shared by all experiment binaries:
/// `<bin> [tiny|quarter|full] [seed] [--threads N] [--obs PATH]
/// [--record DIR]`.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Topology scale.
    pub scale: Scale,
    /// Generator seed.
    pub seed: u64,
    /// Worker threads for the parallel evaluators (`0` = all hardware
    /// threads). Results are identical at every setting.
    pub threads: usize,
    /// Where to dump a `netgraph::obs` metrics snapshot at the end of
    /// the run (`--obs PATH`).
    pub obs: Option<std::path::PathBuf>,
    /// Directory to save this run's [`ExperimentRecord`] under
    /// (`--record DIR`) for the golden-snapshot tests.
    pub record: Option<std::path::PathBuf>,
}

impl RunConfig {
    /// Parse from `std::env::args`. Defaults: quarter scale, seed 2014,
    /// all hardware threads. `--threads N` may appear anywhere. Malformed
    /// or unknown arguments print a usage message and exit with status 2
    /// — silently falling back to defaults would make a typo'd benchmark
    /// run measure the wrong thing.
    pub fn from_args() -> Self {
        let (rc, _) = Self::from_args_extended(ArgExtras::default(), "");
        rc
    }

    /// [`from_args`](RunConfig::from_args) for binaries that take extra
    /// arguments beyond the shared form: `extras` declares them, and
    /// `usage_extra` is appended to the usage line (e.g. `" [runs]"`).
    /// Unknown flags and surplus positionals are still hard errors.
    pub fn from_args_extended(extras: ArgExtras<'_>, usage_extra: &str) -> (Self, ParsedExtras) {
        match Self::parse_extended(std::env::args().skip(1), extras) {
            Ok(parsed) => parsed,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: <bin> [tiny|quarter|full] [seed] [--threads N] \
                     [--obs PATH] [--record DIR]{usage_extra}"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parse an argument list (without the program name). Every argument
    /// must be understood: unknown flags, malformed `--threads` values,
    /// non-integer seeds and surplus positionals are hard errors.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first bad argument.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        Self::parse_extended(args, ArgExtras::default()).map(|(rc, _)| rc)
    }

    /// [`parse`](RunConfig::parse) plus a declared set of binary-specific
    /// extra arguments. Anything not covered by the shared form or by
    /// `extras` is a hard error, so every binary stays typo-safe while
    /// still owning its extra knobs.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first bad argument.
    fn parse_extended<I: IntoIterator<Item = String>>(
        args: I,
        extras: ArgExtras<'_>,
    ) -> Result<(Self, ParsedExtras), String> {
        let mut rc = RunConfig {
            scale: Scale::Quarter,
            seed: 2014,
            threads: 0,
            obs: None,
            record: None,
        };
        let mut parsed = ParsedExtras {
            flags: Vec::new(),
            positionals: Vec::new(),
        };
        let mut positionals = 0usize;
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            if arg == "--threads" {
                let value = iter.next().ok_or("--threads expects a number")?;
                rc.threads = value
                    .parse()
                    .map_err(|_| format!("--threads expects a number, got '{value}'"))?;
            } else if arg == "--obs" {
                let value = iter.next().ok_or("--obs expects a file path")?;
                rc.obs = Some(std::path::PathBuf::from(value));
            } else if arg == "--record" {
                let value = iter.next().ok_or("--record expects a directory")?;
                rc.record = Some(std::path::PathBuf::from(value));
            } else if extras.value_flags.contains(&arg.as_str()) {
                let value = iter.next().ok_or(format!("{arg} expects a value"))?;
                parsed.flags.push((arg, value));
            } else if arg.starts_with('-') {
                return Err(format!("unknown flag '{arg}'"));
            } else {
                match positionals {
                    0 => {
                        rc.scale = match arg.as_str() {
                            "tiny" => Scale::Tiny,
                            "quarter" => Scale::Quarter,
                            "full" => Scale::Full,
                            other => {
                                return Err(format!(
                                    "unknown scale '{other}' (expected tiny|quarter|full)"
                                ))
                            }
                        }
                    }
                    1 => {
                        rc.seed = arg
                            .parse()
                            .map_err(|_| format!("seed must be an integer, got '{arg}'"))?
                    }
                    _ if positionals < 2 + extras.max_positionals => {
                        parsed.positionals.push(arg);
                    }
                    _ => return Err(format!("unexpected argument '{arg}'")),
                }
                positionals += 1;
            }
        }
        Ok((rc, parsed))
    }

    /// Generate the topology for this run.
    pub fn internet(&self) -> Internet {
        let cfg = InternetConfig::scaled(self.scale);
        eprintln!(
            "[harness] generating {:?}-scale topology ({} nodes), seed {}",
            self.scale,
            cfg.node_count(),
            self.seed
        );
        let t0 = std::time::Instant::now();
        let net = cfg.generate(self.seed);
        eprintln!("[harness] generated in {:?}", t0.elapsed());
        net
    }

    /// The paper's three broker budgets (0.19 %, 1.9 %, 6.8 % of nodes),
    /// scaled to this topology.
    pub fn budgets(&self, node_count: usize) -> [usize; 3] {
        [
            budget(node_count, 0.0019),
            budget(node_count, 0.019),
            budget(node_count, 0.068),
        ]
    }

    /// Dump a `netgraph::obs` snapshot to the `--obs` path, if one was
    /// given, and print its one-line [digest](netgraph::obs::Snapshot::digest)
    /// to stderr. A no-op without `--obs`.
    ///
    /// # Errors
    ///
    /// Propagates the snapshot write failure.
    pub fn dump_obs(&self, id: &str) -> std::io::Result<()> {
        let Some(path) = &self.obs else {
            return Ok(());
        };
        let snap = netgraph::obs::snapshot();
        std::fs::write(path, snap.to_json())?;
        eprintln!("[obs] {id}: {}", snap.digest());
        eprintln!("[obs] snapshot written to {}", path.display());
        Ok(())
    }

    /// Save `data` as an [`ExperimentRecord`] under the `--record`
    /// directory, if one was given. A no-op without `--record`.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialization errors from
    /// [`ExperimentRecord::save`].
    pub fn record(&self, id: &str, data: serde_json::Value) -> std::io::Result<()> {
        let Some(dir) = &self.record else {
            return Ok(());
        };
        let path = ExperimentRecord::new(id, self, data).save(dir)?;
        eprintln!("[record] {id}: results written to {}", path.display());
        Ok(())
    }

    /// Source sampling mode adapted to scale: exact for tiny *and*
    /// quarter topologies — the 64-lane `netgraph::msbfs` kernel makes an
    /// every-vertex-a-source sweep at 13k nodes cheaper than the old
    /// per-source loop's 1200-source sample — sampled at full scale
    /// (error shown by the evaluators).
    pub fn source_mode(&self) -> SourceMode {
        match self.scale {
            Scale::Tiny | Scale::Quarter => SourceMode::Exact,
            Scale::Full => SourceMode::Sampled {
                count: 1500,
                seed: self.seed ^ 0x5eed,
            },
        }
    }
}

/// Extra arguments a binary accepts beyond the shared
/// `[scale] [seed] [--threads N]` form (see
/// [`RunConfig::parse_extended`]). Default: none.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArgExtras<'a> {
    /// Flags that take exactly one value (e.g. `"--dot"`).
    pub value_flags: &'a [&'a str],
    /// How many surplus positionals (after scale and seed) are allowed.
    pub max_positionals: usize,
}

/// The extra arguments actually supplied, in command-line order.
#[derive(Debug, Clone, Default)]
pub struct ParsedExtras {
    /// `(flag, value)` pairs for each declared value flag seen.
    pub flags: Vec<(String, String)>,
    /// Surplus positionals beyond scale and seed.
    pub positionals: Vec<String>,
}

impl ParsedExtras {
    /// The value of the last occurrence of `flag`, if any.
    pub fn flag(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }
}

fn budget(n: usize, frac: f64) -> usize {
    ((n as f64 * frac).round() as usize).max(1)
}

/// Provenance record written next to an experiment's stdout: which
/// binary, scale and seed produced a result set, plus the measured
/// values as free-form JSON.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ExperimentRecord {
    /// Experiment id (e.g. "table1").
    pub id: String,
    /// Scale the run used.
    pub scale: String,
    /// Topology seed.
    pub seed: u64,
    /// Measured values.
    pub data: serde_json::Value,
}

impl ExperimentRecord {
    /// Assemble a record for this run configuration.
    pub fn new(id: &str, rc: &RunConfig, data: serde_json::Value) -> Self {
        ExperimentRecord {
            id: id.to_string(),
            scale: format!("{:?}", rc.scale),
            seed: rc.seed,
            data,
        }
    }

    /// Write the record to `results/<id>.<scale>.json` under `dir`,
    /// creating the directory if needed.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialization errors.
    pub fn save(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.{}.json", self.id, self.scale.to_lowercase()));
        let json = serde_json::to_string_pretty(self).map_err(std::io::Error::other)?;
        std::fs::write(&path, json)?;
        Ok(path)
    }
}

/// Print a two-column "paper vs measured" comparison row.
pub fn compare_row(label: &str, paper: &str, measured: &str) {
    println!("  {label:<44} paper: {paper:>12}   ours: {measured:>12}");
}

/// Print an experiment header.
pub fn header(id: &str, title: &str) {
    println!("==========================================================");
    println!("{id}: {title}");
    println!("==========================================================");
}

/// Format a fraction as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_scale_with_node_count() {
        let rc = RunConfig {
            scale: Scale::Full,
            seed: 1,
            threads: 0,
            obs: None,
            record: None,
        };
        let b = rc.budgets(52_079);
        assert_eq!(b, [99, 990, 3541]);
        // never zero
        assert_eq!(rc.budgets(10), [1, 1, 1]);
    }

    fn parse(args: &[&str]) -> Result<RunConfig, String> {
        RunConfig::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parse_defaults_and_full_form() {
        let rc = parse(&[]).expect("empty argv uses defaults");
        assert!(matches!(rc.scale, Scale::Quarter));
        assert_eq!((rc.seed, rc.threads), (2014, 0));

        let rc = parse(&["tiny", "7", "--threads", "4"]).expect("full form parses");
        assert!(matches!(rc.scale, Scale::Tiny));
        assert_eq!((rc.seed, rc.threads), (7, 4));

        // --threads may appear anywhere, including before positionals.
        let rc = parse(&["--threads", "2", "full"]).expect("flag before positional parses");
        assert!(matches!(rc.scale, Scale::Full));
        assert_eq!(rc.threads, 2);
    }

    #[test]
    fn parse_obs_and_record_flags() {
        let rc = parse(&["tiny", "7", "--obs", "snap.json", "--record", "out"])
            .expect("--obs/--record parse");
        assert_eq!(rc.obs.as_deref(), Some(std::path::Path::new("snap.json")));
        assert_eq!(rc.record.as_deref(), Some(std::path::Path::new("out")));
        let rc = parse(&[]).expect("empty argv uses defaults");
        assert!(rc.obs.is_none() && rc.record.is_none());
        assert!(parse(&["--obs"]).unwrap_err().contains("expects"));
        assert!(parse(&["--record"]).unwrap_err().contains("expects"));
    }

    #[test]
    fn parse_rejects_bad_arguments() {
        assert!(parse(&["medium"]).unwrap_err().contains("unknown scale"));
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse(&["--threads"]).unwrap_err().contains("expects"));
        assert!(parse(&["--threads", "many"]).unwrap_err().contains("many"));
        assert!(parse(&["tiny", "notanumber"]).unwrap_err().contains("seed"));
        assert!(parse(&["tiny", "1", "extra"])
            .unwrap_err()
            .contains("unexpected"));
    }

    #[test]
    fn parse_extended_accepts_declared_extras_only() {
        let extras = ArgExtras {
            value_flags: &["--dot"],
            max_positionals: 1,
        };
        let run =
            |argv: &[&str]| RunConfig::parse_extended(argv.iter().map(|s| s.to_string()), extras);

        let (rc, extra) =
            run(&["tiny", "7", "20", "--dot", "out.dot"]).expect("declared extras parse");
        assert!(matches!(rc.scale, Scale::Tiny));
        assert_eq!(extra.positionals, vec!["20".to_string()]);
        assert_eq!(extra.flag("--dot"), Some("out.dot"));
        assert_eq!(extra.flag("--missing"), None);

        // Declared extras do not weaken the strictness elsewhere.
        assert!(run(&["tiny", "7", "20", "21"])
            .unwrap_err()
            .contains("unexpected"));
        assert!(run(&["--dot"]).unwrap_err().contains("expects a value"));
        assert!(run(&["--runs", "5"]).unwrap_err().contains("unknown flag"));
    }

    #[test]
    fn source_mode_exact_through_quarter() {
        let mode = |scale| {
            RunConfig {
                scale,
                seed: 1,
                threads: 0,
                obs: None,
                record: None,
            }
            .source_mode()
        };
        assert_eq!(mode(Scale::Tiny), SourceMode::Exact);
        assert_eq!(mode(Scale::Quarter), SourceMode::Exact);
        assert!(matches!(mode(Scale::Full), SourceMode::Sampled { .. }));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5313), "53.13%");
        assert_eq!(pct(0.0), "0.00%");
    }

    #[test]
    fn experiment_record_roundtrip() {
        let rc = RunConfig {
            scale: Scale::Tiny,
            seed: 9,
            threads: 0,
            obs: None,
            record: None,
        };
        let rec = ExperimentRecord::new(
            "table1",
            &rc,
            serde_json::json!({"k": [25, 247], "sat": [0.51, 0.88]}),
        );
        let dir = std::env::temp_dir().join(format!("bench-record-test-{}", std::process::id()));
        let path = rec.save(&dir).expect("record saves to temp dir");
        let text = std::fs::read_to_string(&path).expect("saved record is readable");
        let back: ExperimentRecord = serde_json::from_str(&text).expect("saved record parses back");
        assert_eq!(back.id, "table1");
        assert_eq!(back.seed, 9);
        assert_eq!(back.data["k"][0], 25);
        std::fs::remove_dir_all(&dir).ok();
    }
}

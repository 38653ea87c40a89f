//! The snapshot JSON round trip is linear in the file's size: a quarter
//! topology saves and loads in seconds, even in a debug build.

use std::time::Instant;
use topology::{load_snapshot, save_snapshot, InternetConfig, Scale};

/// Wall-clock bound on saving and loading the quarter topology (a 3.4 MB
/// file). A parser that revalidates the rest of the document for every
/// string character needs over a minute for the load alone, even in a
/// release build.
const ROUND_TRIP_BOUND_S: f64 = 10.0;

#[test]
fn quarter_snapshot_round_trips_within_bound() {
    let net = InternetConfig::scaled(Scale::Quarter).generate(2014);
    let dir = std::env::temp_dir().join(format!("bench-snapshot-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("quarter.json");
    let start = Instant::now();
    save_snapshot(&net, &path).unwrap();
    let back = load_snapshot(&path).unwrap();
    let elapsed = start.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(net.graph(), back.graph());
    assert_eq!(net.relationships(), back.relationships());
    assert_eq!(net.names(), back.names());
    eprintln!("quarter snapshot round trip: {elapsed:.3} s");
    assert!(
        elapsed < ROUND_TRIP_BOUND_S,
        "quarter snapshot round trip took {elapsed:.1} s, bound {ROUND_TRIP_BOUND_S} s"
    );
}

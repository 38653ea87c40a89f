//! Determinism gate for the parallel executor: an all-sources msbfs
//! fan-out through [`netgraph::par`] must merge to bit-identical results
//! at every thread count (including the sequential delegate and auto),
//! because results files are diffed by CI and by readers.
//!
//! The guarantee comes from fixed-size chunking plus chunk-ordered
//! merges in [`netgraph::par`]; these tests pin it end to end.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const THREADS: [usize; 4] = [1, 2, 4, 7];

fn graph() -> netgraph::Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(2014);
    netgraph::barabasi_albert(600, 3, &mut rng)
}

/// All-sources msbfs fan-out through the executor — one 64-source lane
/// batch per chunk — returning merged per-level pair counts.
/// Integer-valued, so any scheduling divergence is exact.
fn msbfs_level_pairs(g: &netgraph::Graph, threads: usize) -> Vec<u64> {
    use netgraph::{msbfs, par, with_msbfs, FullView};

    let sources: Vec<netgraph::NodeId> = g.nodes().collect();
    let per_chunk = par::map_chunks(&sources, msbfs::LANES, threads, |batch| {
        let mut levels = Vec::new();
        with_msbfs(|arena| {
            arena.run(FullView::new(g), batch, u32::MAX, |wf| {
                let l = wf.level() as usize;
                if levels.len() <= l {
                    levels.resize(l + 1, 0u64);
                }
                levels[l] += wf.new_pairs();
            });
        });
        levels
    });
    let mut merged = Vec::new();
    for levels in per_chunk {
        if merged.len() < levels.len() {
            merged.resize(levels.len(), 0u64);
        }
        for (slot, v) in merged.iter_mut().zip(levels) {
            *slot += v;
        }
    }
    merged
}

#[test]
fn msbfs_batch_fanout_bit_identical() {
    // Drive the kernel directly through the deterministic executor the
    // way the library consumers do and require the merged per-level pair
    // counts to be bit-identical at every thread count.
    let g = graph();
    let want = msbfs_level_pairs(&g, 1);
    assert!(want.iter().sum::<u64>() > 0, "traversal reached something");
    for t in THREADS {
        assert_eq!(
            msbfs_level_pairs(&g, t),
            want,
            "msbfs fan-out diverged at threads={t}"
        );
    }
}

#[test]
fn auto_thread_count_matches_too() {
    // threads = 0 resolves to the machine's parallelism — whatever that
    // is, the answer must not move.
    let g = graph();
    assert_eq!(msbfs_level_pairs(&g, 0), msbfs_level_pairs(&g, 3));
}

//! Pins of what an `Internet` answers about its vertices and edges: the
//! names and the relationship sequence of the seed topologies, folded by
//! FNV-1a. A change to how names or relationships are stored must leave
//! both digests as they are.

use netgraph::fnv1a;
use topology::{Internet, InternetConfig, Scale};

/// FNV-1a over every name, joined by newlines.
fn names_digest(net: &Internet) -> u64 {
    fnv1a(net.names().join("\n").into_bytes())
}

/// FNV-1a over the relationships in order, each as `a` and `b` in
/// little-endian u32 and the relationship's discriminant as one byte.
fn relationships_digest(net: &Internet) -> u64 {
    fnv1a(net.relationships().flat_map(|(a, b, rel)| {
        a.0.to_le_bytes()
            .into_iter()
            .chain(b.0.to_le_bytes())
            .chain([rel as u8])
    }))
}

/// Generate `scale` at `seed` and compare its edge count and its
/// `[names, relationships]` digests.
fn check(scale: Scale, seed: u64, edges: usize, digests: [u64; 2]) {
    let net = InternetConfig::scaled(scale).generate(seed);
    assert_eq!(net.relationships().count(), edges);
    let got = [names_digest(&net), relationships_digest(&net)];
    assert_eq!(got, digests, "{scale:?} {seed}: [names, relationships]");
}

#[test]
fn tiny_and_quarter_digests_pinned() {
    check(
        Scale::Tiny,
        7,
        8_100,
        [0x9224_1eae_7e35_0095, 0xc75b_e8df_956b_8902],
    );
    check(
        Scale::Quarter,
        2014,
        100_653,
        [0x5399_c0dd_8ca1_e793, 0x6ae0_5488_1219_d283],
    );
}

#[test]
fn full_digests_pinned() {
    check(
        Scale::Full,
        2014,
        402_614,
        [0x4ae8_c498_ed0d_7741, 0x5526_008e_32e5_6b5f],
    );
}

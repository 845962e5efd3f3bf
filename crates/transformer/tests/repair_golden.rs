//! Golden outputs of guided repair ([`perturb_toward`]).
//!
//! Each row was recorded from the `HashMap`-profile scorer that scored every
//! proposal with `qgram_jaccard(s, &tokens.join(" "), 3)`. The packed-key
//! scorer must reproduce the same strings, the same similarity bits, and
//! leave the RNG at the same position (the `next` column is the first `u64`
//! drawn after the call), so synthesis outputs cannot drift.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use transformer::guided::{perturb_toward, TokenPool};

const ASCII: &str = "adaptive query processing in temporal middleware systems";
const NON_ASCII: &str = "Café Zürich — crème brûlée naïve 日本語 façade";
const SHORT: &str = "Zü";
const LONG: &str = "An efficient and scalable framework for adaptive query processing over distributed data streams with temporal middleware support, incremental view maintenance, cost-based join reordering, and approximate aggregation in the cloud";

fn pool() -> TokenPool {
    TokenPool::from_corpus([
        "adaptive query processing for data streams",
        "efficient join algorithms in parallel databases",
        "mining frequent patterns without candidate generation",
        "Café Crème Brûlée Zürich façade",
        "日本語 データベース 東京 naïve",
        "temporal middleware evaluation strategies",
    ])
}

/// Sources indexed by the first golden column.
const SOURCES: [&str; 5] = [ASCII, NON_ASCII, LONG, SHORT, ""];

/// `(source index, target, seed, output, similarity bits, next u64)`.
const GOLDEN: &[(usize, f64, u64, &str, u64, u64)] = &[
    (0, 0.05, 100, "query Zürich evaluation Zürich", 0x3faa41a41a41a41a, 0xc2a0dfaaca6a94b5),
    (0, 0.5, 101, "query processing in temporal temporal systems", 0x3fe0800000000000, 0xb6ad2eda34601d18),
    (0, 0.95, 102, "adaptive query processing in temporal middleware systems for", 0x3fedcb08d3dcb08d, 0x1ac059931e98a46a),
    (1, 0.05, 110, "Zürich algorithms query algorithms parallel databases databases", 0x3faa6449e59bb61a, 0xa383d10c1bb3958d),
    (1, 0.5, 111, "Café Zürich — Café brûlée naïve 日本語 processing", 0x3fdf7047dc11f704, 0x625c44c073f5b96c),
    (1, 0.95, 112, "Café Zürich — crème brûlée naïve 日本語 façade 東京", 0x3fedd1745d1745d1, 0x67c4f57e911884bd),
    (2, 0.05, 120, "An databases patterns データベース for Crème Café middleware Crème data middleware middleware candidate candidate databases Café join for candidate データベース patterns middleware データベース façade naïve", 0x3fb362418100ab1d, 0xd5827067ddfc3ccf),
    (2, 0.5, 121, "An efficient parallel scalable framework for adaptive query databases over data streams with middleware databases incremental view cost-based join reordering, and approximate adaptive in the cloud patterns efficient", 0x3fe0f29ec6055a17, 0xd08c9cb81b32138d),
    (2, 0.95, 122, "An efficient and scalable framework for adaptive query processing over distributed data streams with temporal middleware incremental view maintenance, cost-based join reordering, and approximate aggregation in the cloud", 0x3fee7307e4ef156d, 0x01cae0ec3fda4c51),
    (3, 0.05, 130, "Zürich", 0x0000000000000000, 0x57e94b87f8ee2222),
    (3, 0.5, 131, "Zü", 0x3ff0000000000000, 0x7a8e067e24a33bfd),
    (3, 0.95, 132, "Zü", 0x3ff0000000000000, 0xe43a6ede8ecd319d),
    (4, 0.05, 140, "query", 0x0000000000000000, 0x57df750ef985bb38),
    (4, 0.5, 141, "データベース", 0x0000000000000000, 0x3a9ff9381dee946c),
    (4, 0.95, 142, "Café", 0x0000000000000000, 0x1e425ecfe42ae957),
];

#[test]
fn perturb_toward_matches_recorded_outputs() {
    assert!(LONG.chars().count() >= 200);
    let pool = pool();
    for &(si, target, seed, want, sim_bits, next) in GOLDEN {
        let mut rng = StdRng::seed_from_u64(seed);
        let (out, sim) = perturb_toward(SOURCES[si], target, &pool, 0.03, 300, &mut rng);
        assert_eq!(out, want, "source {si} target {target}");
        assert_eq!(sim.to_bits(), sim_bits, "source {si} target {target}: {sim}");
        assert_eq!(rng.gen::<u64>(), next, "source {si} target {target}: RNG");
    }
}

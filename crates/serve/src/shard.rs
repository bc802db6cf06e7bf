//! Consistent-hash routing of sessions onto engine shards.
//!
//! Each shard is an independent engine thread owning its sessions' state
//! and IL micro-batch lane. Sessions are pinned to shards by consistent
//! hashing on the session id: a ring of `VNODES` virtual points per
//! shard, a session landing on the first point at or clockwise of its
//! own hash. The assignment is a pure function of `(session id, shard
//! count)` — stable across processes and restarts — and, unlike
//! `id % shards`, moves only ~`1/n` of sessions when the shard count
//! changes.
//!
//! Routing never affects trajectories: shards share no per-session
//! state, so *which* thread steps a session is invisible to the
//! deterministic computation. The router only has to be balanced and
//! stable.

/// Virtual ring points per shard. More points → tighter balance; 128
/// keeps the worst shard within ~2× the mean over random id sets (see
/// the proptests) at negligible ring-build cost.
const VNODES: usize = 128;

/// Set in every session id's hash input and clear in every ring point's
/// (`shard << 32 | vnode` with `vnode < VNODES`), so the two hash
/// domains are disjoint: splitmix64 is a bijection, so no id hashes
/// exactly onto a ring point. Without it id `v` in `1..VNODES` would hash
/// to shard 0's point `v` and land on shard 0 at every shard count.
const ID_DOMAIN: u64 = 1 << 31;

/// Consistent-hash ring mapping session ids to shard indices.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    /// Ring points sorted by hash: `(point_hash, shard_index)`.
    ring: Vec<(u64, usize)>,
    shards: usize,
}

impl ShardRouter {
    /// Builds a ring for `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics for a zero shard count.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        let mut ring = Vec::with_capacity(shards * VNODES);
        for shard in 0..shards {
            for vnode in 0..VNODES {
                // distinct, well-mixed point per (shard, vnode)
                let point = splitmix64((shard as u64) << 32 | vnode as u64);
                ring.push((point, shard));
            }
        }
        ring.sort_unstable();
        // duplicate point hashes would make the assignment depend on the
        // sort's tie order; with 64-bit splitmix points a collision is
        // ~impossible, but make the contract explicit
        ring.dedup_by_key(|&mut (point, _)| point);
        ShardRouter { ring, shards }
    }

    /// The shard count this ring was built for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard a session id routes to: the first ring point at or
    /// clockwise of the id's hash.
    pub fn route(&self, session: u64) -> usize {
        let h = splitmix64(splitmix64(session) | ID_DOMAIN);
        let idx = self.ring.partition_point(|&(point, _)| point < h);
        let (_, shard) = self.ring[idx % self.ring.len()];
        shard
    }
}

/// SplitMix64 finalizer — a cheap, well-distributed 64-bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let r = ShardRouter::new(1);
        for id in 0..1000u64 {
            assert_eq!(r.route(id), 0);
        }
    }

    #[test]
    fn routes_are_in_range_and_all_shards_used() {
        let r = ShardRouter::new(4);
        let mut seen = [false; 4];
        for id in 0..10_000u64 {
            let s = r.route(id);
            assert!(s < 4);
            seen[s] = true;
        }
        assert!(seen.iter().all(|&s| s), "all shards take traffic");
    }

    #[test]
    fn small_sequential_ids_spread_over_shards() {
        // a server hands out ids from 1; its first sessions must not all
        // share a shard, and no shard may take more than twice its share
        for shards in [2, 4] {
            let r = ShardRouter::new(shards);
            for ids in [1..9u64, 1..128] {
                let mut counts = vec![0usize; shards];
                for id in ids.clone() {
                    counts[r.route(id)] += 1;
                }
                let ideal = ids.clone().count() / shards;
                let busy = counts.iter().filter(|&&c| c > 0).count();
                assert!(busy > 1, "ids {ids:?} on {shards} shards: {counts:?}");
                assert!(
                    counts.iter().all(|&c| c <= 2 * ideal),
                    "ids {ids:?} on {shards} shards: {counts:?} (ideal {ideal})"
                );
            }
        }
    }

    #[test]
    fn routing_is_stable_across_ring_rebuilds() {
        let a = ShardRouter::new(8);
        let b = ShardRouter::new(8);
        for id in (0..50_000u64).step_by(7) {
            assert_eq!(a.route(id), b.route(id));
        }
    }

    #[test]
    fn growing_the_ring_moves_few_sessions() {
        // consistent hashing's point: 4 → 5 shards should remap roughly
        // 1/5 of ids, not 4/5 like `id % n` would
        let four = ShardRouter::new(4);
        let five = ShardRouter::new(5);
        let total = 20_000u64;
        let moved = (0..total)
            .filter(|&id| four.route(id) != five.route(id))
            .count();
        let frac = moved as f64 / total as f64;
        assert!(frac < 0.35, "moved fraction {frac}");
    }
}

//! Topology → runtime-shard placement.
//!
//! A *shard* is the scheduling domain the `romp` runtime carves a team
//! into: members of one shard share an injector and steal from each
//! other first, and only escalate across shards when every local queue
//! is dry.  On clustered parts like the T4240 a shard is one
//! cache-sharing cluster, so intra-shard stealing stays inside the
//! shared L2 and never pays a CoreNet fabric crossing.
//!
//! [`ShardLayout`] is the pure placement map: which member belongs to
//! which shard, and which shard an affinity key hashes to.  It is
//! computed once per team, either from a [`Topology`] (cluster-derived)
//! or from an explicit shard-count override.

use crate::topology::Topology;

/// Assignment of a team's members to runtime shards.
///
/// Shard ids are dense (`0..num_shards()`), every member belongs to
/// exactly one shard, and every shard has at least one member.
///
/// ```
/// use mca_platform::{ShardLayout, Topology};
///
/// // 12 workers on the T4240: SMT-major placement round-robins the
/// // three clusters, so the layout has three 4-member shards.
/// let layout = ShardLayout::from_topology(&Topology::t4240rdb(), 12);
/// assert_eq!(layout.num_shards(), 3);
/// assert_eq!(layout.members_of(0).len(), 4);
///
/// // An explicit override ignores the topology entirely.
/// let forced = ShardLayout::uniform(4, 8);
/// assert_eq!(forced.num_shards(), 4);
/// assert_eq!(forced.shard_of(5), 1); // round-robin: 5 % 4
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLayout {
    /// `assignment[member]` = dense shard id.
    assignment: Vec<usize>,
    /// `members[shard]` = member ids in that shard, ascending.
    members: Vec<Vec<usize>>,
}

impl ShardLayout {
    /// Everything in one shard — the unsharded (pre-topology) runtime
    /// shape, and the layout every 1-member team gets.
    pub fn single(num_members: usize) -> ShardLayout {
        ShardLayout::uniform(1, num_members)
    }

    /// `num_members` members dealt round-robin across `num_shards`
    /// shards (member *i* → shard *i* mod *S*).  The shard count is
    /// clamped to `[1, num_members]` so no shard is empty.
    pub fn uniform(num_shards: usize, num_members: usize) -> ShardLayout {
        let n = num_members.max(1);
        let s = num_shards.clamp(1, n);
        let assignment: Vec<usize> = (0..n).map(|i| i % s).collect();
        ShardLayout::from_assignment(assignment, s)
    }

    /// Derive the layout from a topology: member *i* goes to the shard
    /// of the cluster that [`Topology::place_workers`] pins it to.
    /// Cluster ids are renumbered densely over the clusters actually
    /// used, so a 2-worker team on the T4240 gets 2 one-member shards,
    /// not 3 clusters with one empty.
    pub fn from_topology(topo: &Topology, num_members: usize) -> ShardLayout {
        let n = num_members.max(1);
        let placement = topo.place_workers(n);
        // Dense renumbering: first-seen cluster -> shard 0, next -> 1, ...
        let mut cluster_to_shard: Vec<Option<usize>> = vec![None; topo.num_clusters()];
        let mut next = 0usize;
        let mut assignment = Vec::with_capacity(n);
        for &hw in &placement {
            let cluster = topo.cluster_of_hw_thread(hw);
            let shard = *cluster_to_shard[cluster].get_or_insert_with(|| {
                let s = next;
                next += 1;
                s
            });
            assignment.push(shard);
        }
        ShardLayout::from_assignment(assignment, next)
    }

    fn from_assignment(assignment: Vec<usize>, num_shards: usize) -> ShardLayout {
        let mut members = vec![Vec::new(); num_shards];
        for (member, &shard) in assignment.iter().enumerate() {
            members[shard].push(member);
        }
        debug_assert!(members.iter().all(|m| !m.is_empty()));
        ShardLayout {
            assignment,
            members,
        }
    }

    /// Number of shards (≥ 1).
    pub fn num_shards(&self) -> usize {
        self.members.len()
    }

    /// Number of members across all shards.
    pub fn num_members(&self) -> usize {
        self.assignment.len()
    }

    /// The shard `member` belongs to.
    ///
    /// # Panics
    /// If `member >= num_members()`.
    pub fn shard_of(&self, member: usize) -> usize {
        self.assignment[member]
    }

    /// Members of `shard`, ascending.
    ///
    /// # Panics
    /// If `shard >= num_shards()`.
    pub fn members_of(&self, shard: usize) -> &[usize] {
        &self.members[shard]
    }

    /// Home shard for an affinity key: a splitmix64 finalizer over the
    /// key, reduced mod the shard count.  Equal keys always land on the
    /// same shard; distinct keys spread uniformly.
    ///
    /// ```
    /// use mca_platform::ShardLayout;
    ///
    /// let layout = ShardLayout::uniform(4, 8);
    /// let home = layout.shard_for_key(0xFEED);
    /// assert_eq!(layout.shard_for_key(0xFEED), home); // stable
    /// assert!(home < layout.num_shards());
    /// ```
    pub fn shard_for_key(&self, key: u64) -> usize {
        (mix64(key) % self.members.len() as u64) as usize
    }
}

/// splitmix64 finalizer — cheap, stateless avalanche so sequential
/// affinity keys (client ids, connection ids) don't all pile onto the
/// low shards.  The one key mixer for affinity placement: the runtime's
/// shard selector and the cluster router's worker pick both reduce it
/// mod their slot count, so a key's placement is the same everywhere.
///
/// ```
/// use mca_platform::{mix64, ShardLayout};
///
/// let layout = ShardLayout::uniform(4, 8);
/// assert_eq!(layout.shard_for_key(7), (mix64(7) % 4) as usize);
/// ```
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_deals_round_robin() {
        let l = ShardLayout::uniform(3, 7);
        assert_eq!(l.num_shards(), 3);
        assert_eq!(l.num_members(), 7);
        assert_eq!(l.members_of(0), &[0, 3, 6]);
        assert_eq!(l.members_of(1), &[1, 4]);
        assert_eq!(l.members_of(2), &[2, 5]);
        for m in 0..7 {
            assert!(l.members_of(l.shard_of(m)).contains(&m));
        }
    }

    #[test]
    fn uniform_clamps_to_member_count() {
        let l = ShardLayout::uniform(8, 3);
        assert_eq!(l.num_shards(), 3);
        let l1 = ShardLayout::uniform(0, 3);
        assert_eq!(l1.num_shards(), 1);
        let solo = ShardLayout::single(0);
        assert_eq!(solo.num_shards(), 1);
        assert_eq!(solo.num_members(), 1);
    }

    #[test]
    fn t4240_full_board_is_three_shards() {
        let topo = Topology::t4240rdb();
        let l = ShardLayout::from_topology(&topo, 24);
        assert_eq!(l.num_shards(), 3);
        for s in 0..3 {
            assert_eq!(l.members_of(s).len(), 8, "SMT-major fill");
        }
    }

    #[test]
    fn small_teams_get_dense_shard_ids() {
        let topo = Topology::t4240rdb();
        // place_workers round-robins clusters, so 2 workers sit on 2
        // distinct clusters -> 2 dense shards, no empties.
        let l = ShardLayout::from_topology(&topo, 2);
        assert_eq!(l.num_shards(), 2);
        assert_eq!(l.members_of(0), &[0]);
        assert_eq!(l.members_of(1), &[1]);
    }

    #[test]
    fn p4080_single_core_clusters() {
        let topo = Topology::p4080ds();
        let l = ShardLayout::from_topology(&topo, 8);
        assert_eq!(l.num_shards(), 8, "one shard per single-core cluster");
        let host = Topology::host();
        let lh = ShardLayout::from_topology(&host, 4);
        assert_eq!(lh.num_shards(), 1, "host preset is one cluster");
    }

    #[test]
    fn key_hash_is_stable_and_in_range() {
        let l = ShardLayout::uniform(4, 16);
        let mut seen = [false; 4];
        for key in 0..256u64 {
            let s = l.shard_for_key(key);
            assert!(s < 4);
            assert_eq!(s, l.shard_for_key(key));
            seen[s] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "256 keys should touch all 4 shards"
        );
    }
}

//! Pins the partitioner's exact output on the paper's workload: every
//! cluster assignment, cost and level count `partition_ddg` produces at
//! MII for the 70 SPECfp95 loops on the 8 clustered Table 1 machines,
//! folded into one digest. Performance work on matching, timing or
//! refinement must leave it unchanged; a different tie-break or
//! traversal order anywhere in the pipeline moves it.

use gpsched_ddg::mii;
use gpsched_machine::table1_configs;
use gpsched_partition::{partition_ddg, PartitionOptions};
use gpsched_workloads::spec_suite;

/// FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[test]
fn specfp95_partitions_digest_is_pinned() {
    let machines: Vec<_> = table1_configs()
        .into_iter()
        .map(|(_, m)| m)
        .filter(|m| !m.is_unified())
        .collect();
    assert_eq!(machines.len(), 8);
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let mut units = 0usize;
    for program in spec_suite() {
        for ddg in &program.loops {
            for machine in &machines {
                let ii = mii::mii(ddg, machine);
                let r = partition_ddg(ddg, machine, ii, &PartitionOptions::default());
                for &c in r.partition.assignment() {
                    digest.word(c as u64);
                }
                let c = &r.cost;
                for x in [
                    c.comm_count as i64,
                    c.ii_bus,
                    c.ii_effective,
                    c.max_path,
                    c.exec_time,
                    c.cut_slack,
                    c.cut_size as i64,
                    r.levels as i64,
                ] {
                    digest.word(x as u64);
                }
                units += 1;
            }
        }
    }
    assert_eq!(units, 70 * 8);
    assert_eq!(
        digest.0, 6_241_489_692_572_256_977,
        "SPECfp95 partitions changed"
    );
}

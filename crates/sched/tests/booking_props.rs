//! Property tests for the scheduler's incremental booking totals.
//!
//! `PressureTable` keeps each cluster's `MaxLive` as it goes, and
//! `ClusterMrt` / `ChannelTable` keep running slot totals, so the
//! queries the placement loop and the figure of merit make cost O(1)
//! instead of a scan of II slots. These tests drive seeded random
//! booking sequences and, after every step, check each O(1) answer
//! against a scan of a reference row that the test keeps itself, one
//! cycle at a time, without any of the tables' bookkeeping.

use gpsched_machine::{topology_presets, MachineConfig, ResourceKind};
use gpsched_sched::lifetime::PressureTable;
use gpsched_sched::mrt::{slot, ChannelTable, ClusterMrt};

/// Deterministic xorshift64* — no dev-dependency on a RNG crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// Adds `sign` to every kernel slot the cycles `def..=last` fall on.
fn book_cycles(row: &mut [i64], ii: i64, def: i64, last: i64, sign: i64) {
    for t in def..=last {
        row[slot(t, ii)] += sign;
    }
}

/// A random lifetime length: shorter than, equal to, or several times
/// the II, or empty (`last < def`, which occupies nothing).
fn lifetime_len(rng: &mut Rng, ii: i64) -> i64 {
    match rng.below(4) {
        0 => 1 + rng.below(ii as usize) as i64,
        1 => ii,
        2 => ii * (2 + rng.below(4) as i64) + rng.below(ii as usize) as i64,
        _ => rng.below(3 * ii as usize) as i64 - 1,
    }
}

#[test]
fn max_live_headroom_and_fits_match_a_row_scan() {
    let mut rng = Rng(0x0BAD_5EED_1234_5678);
    for ii in [1i64, 2, 3, 5, 8, 13] {
        for nclusters in [1usize, 3] {
            let caps: Vec<i64> = (0..nclusters).map(|c| 3 + 4 * c as i64).collect();
            let mut table = PressureTable::new(caps.clone(), ii);
            let mut rows = vec![vec![0i64; ii as usize]; nclusters];
            let mut lives: Vec<(usize, i64, i64)> = Vec::new();
            let (mut overflowed, mut fitted) = (false, false);
            for step in 0..800 {
                // Grow for the first half, then drain: removals pick a
                // random live lifetime, so they come in any order.
                let grow = if step < 400 { 60 } else { 25 };
                if lives.is_empty() || rng.chance(grow) {
                    let c = rng.below(nclusters);
                    let def = rng.below(48) as i64 - 24;
                    let last = def + lifetime_len(&mut rng, ii) - 1;
                    table.add(c, def, last);
                    book_cycles(&mut rows[c], ii, def, last, 1);
                    lives.push((c, def, last));
                } else {
                    let (c, def, last) = lives.swap_remove(rng.below(lives.len()));
                    table.remove(c, def, last);
                    book_cycles(&mut rows[c], ii, def, last, -1);
                }
                for (c, row) in rows.iter().enumerate() {
                    let scan = row.iter().copied().max().expect("ii ≥ 1 slot");
                    let ctx = format!("ii={ii} clusters={nclusters} step={step} cluster={c}");
                    assert_eq!(table.max_live(c), scan, "max_live, {ctx}");
                    assert_eq!(table.headroom(c), caps[c] - scan, "headroom, {ctx}");
                    assert_eq!(table.fits(c), scan <= caps[c], "fits, {ctx}");
                    assert!(
                        table.live_counts(c).eq(row.iter().copied()),
                        "live counts, {ctx}"
                    );
                    overflowed |= scan > caps[c];
                    fitted |= scan > 0 && scan <= caps[c];
                }
                // Equality ignores how the table got here: the same
                // lifetimes added afresh, newest first, compare equal.
                if step % 97 == 0 {
                    let mut fresh = PressureTable::new(caps.clone(), ii);
                    for &(c, def, last) in lives.iter().rev() {
                        fresh.add(c, def, last);
                    }
                    assert_eq!(fresh, table, "ii={ii} step={step}");
                }
            }
            assert!(overflowed && fitted, "ii={ii}: both sides of `fits` seen");
            table.reset();
            for c in 0..nclusters {
                assert_eq!(table.max_live(c), 0);
                assert!(table.live_counts(c).all(|v| v == 0));
            }
            assert_eq!(table, PressureTable::new(caps, ii));
        }
    }
}

/// Machines with one and several channels, single- and multi-cycle hops.
fn machines() -> Vec<MachineConfig> {
    let mut ms = topology_presets();
    ms.push(MachineConfig::two_cluster(32, 2, 3));
    ms
}

#[test]
fn slot_totals_match_row_sums() {
    let mut rng = Rng(0x5EED_B00C_0F00_1234);
    for machine in machines() {
        let nch = machine.channel_count();
        for ii in [1i64, 2, 3, 7] {
            let iiu = ii as usize;
            let mut mrt = ClusterMrt::new(machine.cluster(0), ii);
            let mut fu_rows = vec![vec![0i64; iiu]; 3];
            let mut placed: Vec<(ResourceKind, i64)> = Vec::new();
            let mut net = ChannelTable::new(&machine, ii);
            let mut net_rows = vec![0i64; nch * iiu];
            let mut hops: Vec<(usize, i64, i64)> = Vec::new();
            let (mut fu_booked, mut hops_booked) = (0usize, 0usize);
            for step in 0..500 {
                let kind = ResourceKind::ALL[rng.below(3)];
                if !placed.is_empty() && rng.chance(40) {
                    let (k, t) = placed.swap_remove(rng.below(placed.len()));
                    mrt.remove(k, t);
                    fu_rows[k.index()][slot(t, ii)] -= 1;
                } else {
                    let t = rng.below(40) as i64 - 20;
                    if mrt.can_place(kind, t) {
                        mrt.place(kind, t);
                        fu_rows[kind.index()][slot(t, ii)] += 1;
                        placed.push((kind, t));
                        fu_booked += 1;
                    }
                }
                if nch > 0 {
                    if !hops.is_empty() && rng.chance(40) {
                        let (ch, t, occ) = hops.swap_remove(rng.below(hops.len()));
                        net.release(ch, t, occ);
                        for j in 0..occ {
                            net_rows[ch * iiu + slot(t + j, ii)] -= 1;
                        }
                    } else {
                        let ch = rng.below(nch);
                        let t = rng.below(40) as i64 - 20;
                        let occ = 1 + rng.below(3) as i64;
                        if net.can_reserve(ch, t, occ) {
                            net.reserve(ch, t, occ);
                            for j in 0..occ {
                                net_rows[ch * iiu + slot(t + j, ii)] += 1;
                            }
                            hops.push((ch, t, occ));
                            hops_booked += 1;
                        }
                    }
                }
                let ctx = format!("{} ii={ii} step={step}", machine.short_name());
                for k in ResourceKind::ALL {
                    let sum: i64 = fu_rows[k.index()].iter().sum();
                    assert_eq!(mrt.used_slots(k), sum, "{k} used, {ctx}");
                    assert_eq!(mrt.free_slots(k), mrt.capacity(k) - sum, "{k} free, {ctx}");
                }
                let sum: i64 = net_rows.iter().sum();
                assert_eq!(net.used_slots(), sum, "channel used, {ctx}");
                assert_eq!(
                    net.free_slots(),
                    net.capacity() - sum,
                    "channel free, {ctx}"
                );
            }
            assert!(fu_booked > 0, "{}: no unit booked", machine.short_name());
            assert!(
                nch == 0 || hops_booked > 0,
                "{}: no hop booked",
                machine.short_name()
            );
        }
    }
}

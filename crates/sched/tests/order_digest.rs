//! Pins the exact SMS node order: `sms_order` of every SPECfp95 loop and
//! of two loops per synthetic preset, at every II from the loop's MII on
//! the 2-cluster Table 1 machine to MII + 3, folded into one digest.
//! Performance work on the ordering must leave it unchanged; a different
//! tie-break, readiness rule or sweep order moves it.
//!
//! The scheduling pipeline computes the II-independent half of the order
//! once per loop and reuses it at every II of the ladder, so each order is
//! also checked against one `SmsPrecomp` reused across the four IIs.

use gpsched_ddg::timing::TimingWorkspace;
use gpsched_ddg::{mii, Ddg};
use gpsched_machine::MachineConfig;
use gpsched_sched::order::{sms_order, sms_order_precomputed, sms_precompute};
use gpsched_workloads::{preset, spec_suite, synth, PRESET_NAMES};

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
fn sms_order_digest_is_pinned() {
    let machine = MachineConfig::two_cluster(32, 1, 1);
    let mut loops: Vec<Ddg> = spec_suite().into_iter().flat_map(|p| p.loops).collect();
    assert_eq!(loops.len(), 70);
    for name in PRESET_NAMES {
        let profile = preset(name).expect("bundled preset");
        loops.extend(synth::corpus(name, &profile, 11, 2));
    }
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let mut orders = 0usize;
    let mut ws = TimingWorkspace::new();
    for ddg in &loops {
        let start = mii::mii(ddg, &machine);
        let pre = sms_precompute(ddg);
        for ii in start..=start + 3 {
            let order = sms_order(ddg, ii);
            let t = ws.analyze(ddg, ii, |_| 0).expect("ii >= MII");
            let reused = sms_order_precomputed(ddg, t, &pre);
            assert_eq!(order, reused, "{} at II {ii}", ddg.name());
            digest.word(ii as u64);
            digest.word(order.len() as u64);
            for op in order {
                digest.word(op.index() as u64);
            }
            orders += 1;
        }
    }
    assert_eq!(orders, (70 + 2 * PRESET_NAMES.len()) * 4);
    assert_eq!(digest.0, 17_480_294_540_128_167_981, "SMS order changed");
}

//! Persistent, append-only seed cache backing [`SweepCache`].
//!
//! `gpsched-serve` runs for days; the expensive part of every job is the
//! per-(loop, machine) preprocessing seed — MII plus the initial
//! partition. This module persists those seeds to a human-inspectable text
//! file so a restarted daemon starts warm instead of recomputing its whole
//! working set.
//!
//! # File format
//!
//! Line-oriented text. The first line is the header `gpsched-diskcache v1`;
//! every further line is one entry:
//!
//! ```text
//! <dhash> <mkey> <pkey> <start_ii> none <crc>
//! <dhash> <mkey> <pkey> <start_ii> part <levels> <nclusters> \
//!     <comm_count> <ii_bus> <ii_effective> <max_path> <exec_time> \
//!     <cut_slack> <cut_size> <nops> <a0> ... <aN-1> <crc>
//! ```
//!
//! (shown wrapped; real entries are one line). The three key fields (a
//! [`CacheKey`]: DDG hash, machine key, partitioner key) and the checksum
//! are 16-digit lowercase hex; everything else is decimal.
//! `<crc>` is FNV-1a over the entry's payload — every byte before the final
//! space — so a torn write, a flipped bit, or a hand-edit is detected.
//!
//! # Corruption tolerance
//!
//! Loading never fails on bad content and never panics: the valid prefix is
//! kept, and the file is truncated at the first malformed, checksum-failing,
//! or newline-less (torn) line with a warning on stderr. A file whose header
//! is wrong is discarded entirely (warned, then rewritten). This makes the
//! cache safe against the realistic failure mode — a daemon killed mid-append.
//!
//! [`SweepCache`]: crate::cache::SweepCache

use crate::cache::{fnv1a, CacheKey};
use gpsched_partition::{Partition, PartitionCost, PartitionResult};
use gpsched_sched::SchedSeed;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const HEADER: &str = "gpsched-diskcache v1";

/// Refuse to allocate assignment vectors beyond this when loading: no
/// parseable `.ddg` exceeds the engine's op cap, so a larger count is
/// corruption even if the checksum were somehow forged.
const MAX_LOAD_OPS: usize = 1_000_000;

/// An on-disk seed store: an in-memory index over an append-only file.
///
/// `get` is lock-cheap (one `Mutex`-guarded map probe); `append` writes and
/// flushes one line under a second lock, so concurrent sweep workers never
/// interleave partial lines.
pub struct DiskCache {
    path: PathBuf,
    entries: Mutex<HashMap<CacheKey, SchedSeed>>,
    file: Mutex<File>,
}

impl DiskCache {
    /// Opens (or creates) the store at `path` and loads every valid entry.
    ///
    /// Corrupt content is recovered from, not propagated: the file is
    /// truncated to its longest valid prefix (with an `eprintln` warning)
    /// and loading continues. Only real I/O errors — unreadable file,
    /// uncreatable parent — are returned.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<DiskCache> {
        let path = path.into();
        let mut entries = HashMap::new();
        let mut keep_bytes: Option<u64> = None; // Some(n) → truncate to n.

        match std::fs::read(&path) {
            Ok(bytes) => {
                let text = String::from_utf8_lossy(&bytes);
                let mut offset = 0usize;
                let mut lineno = 0usize;
                for line in text.split_inclusive('\n') {
                    lineno += 1;
                    let content = line.strip_suffix('\n').map(|c| c.trim_end_matches('\r'));
                    let valid = match content {
                        // A line without a trailing newline is a torn write.
                        None => false,
                        Some(c) if lineno == 1 => c == HEADER,
                        Some("") => true,
                        Some(c) => match parse_entry(c) {
                            Some((key, seed)) => {
                                entries.insert(key, seed);
                                true
                            }
                            None => false,
                        },
                    };
                    if !valid {
                        if lineno == 1 {
                            eprintln!(
                                "warning: seed cache {}: unrecognized header, discarding file",
                                path.display()
                            );
                            entries.clear();
                            keep_bytes = Some(0);
                        } else {
                            eprintln!(
                                "warning: seed cache {}: corrupt entry at line {lineno}, \
                                 truncating ({} entries kept)",
                                path.display(),
                                entries.len()
                            );
                            keep_bytes = Some(offset as u64);
                        }
                        break;
                    }
                    offset += line.len();
                }
                // `from_utf8_lossy` may change byte lengths; a replacement
                // character only ever appears in an invalid (dropped) line,
                // so offsets of kept lines are exact. Guard anyway.
                if let Some(n) = keep_bytes {
                    let keep = (n as usize).min(bytes.len()) as u64;
                    OpenOptions::new().write(true).open(&path)?.set_len(keep)?;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }

        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        if file.metadata()?.len() == 0 {
            writeln!(file, "{HEADER}")?;
            file.flush()?;
        }
        Ok(DiskCache {
            path,
            entries: Mutex::new(entries),
            file: Mutex::new(file),
        })
    }

    /// The file this store persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Looks up a seed loaded at open time or appended since.
    pub fn get(&self, key: CacheKey) -> Option<SchedSeed> {
        self.entries
            .lock()
            .expect("disk cache poisoned")
            .get(&key)
            .cloned()
    }

    /// Appends one entry and flushes it. A key already present is a no-op
    /// (the line would be redundant; first write wins on reload anyway —
    /// entries are pure functions of their key).
    pub fn append(&self, key: CacheKey, seed: &SchedSeed) -> std::io::Result<()> {
        {
            let mut map = self.entries.lock().expect("disk cache poisoned");
            if map.contains_key(&key) {
                return Ok(());
            }
            map.insert(key, seed.clone());
        }
        let payload = render_payload(key, seed);
        let crc = fnv1a(payload.as_bytes());
        let mut file = self.file.lock().expect("disk cache poisoned");
        writeln!(file, "{payload} {crc:016x}")?;
        file.flush()
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("disk cache poisoned").len()
    }

    /// `true` when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn render_payload(key: CacheKey, seed: &SchedSeed) -> String {
    let (d, m, p) = key;
    let mut s = format!("{d:016x} {m:016x} {p:016x} {}", seed.start_ii);
    match &seed.partition {
        None => s.push_str(" none"),
        Some(pr) => {
            let c = &pr.cost;
            s.push_str(&format!(
                " part {} {} {} {} {} {} {} {} {} {}",
                pr.levels,
                pr.partition.cluster_count(),
                c.comm_count,
                c.ii_bus,
                c.ii_effective,
                c.max_path,
                c.exec_time,
                c.cut_slack,
                c.cut_size,
                pr.partition.assignment().len(),
            ));
            for &a in pr.partition.assignment() {
                s.push_str(&format!(" {a}"));
            }
        }
    }
    s
}

/// Parses one entry line (without its newline). `None` means corrupt.
fn parse_entry(line: &str) -> Option<(CacheKey, SchedSeed)> {
    let (payload, crc_text) = line.rsplit_once(' ')?;
    if crc_text.len() != 16 {
        return None;
    }
    let crc = u64::from_str_radix(crc_text, 16).ok()?;
    if fnv1a(payload.as_bytes()) != crc {
        return None;
    }
    let mut t = payload.split(' ');
    let hex = |t: &mut std::str::Split<'_, char>| -> Option<u64> {
        let f = t.next()?;
        if f.len() != 16 {
            return None;
        }
        u64::from_str_radix(f, 16).ok()
    };
    let key = (hex(&mut t)?, hex(&mut t)?, hex(&mut t)?);
    let start_ii: i64 = t.next()?.parse().ok()?;
    let partition = match t.next()? {
        "none" => None,
        "part" => {
            let levels: usize = t.next()?.parse().ok()?;
            let nclusters: usize = t.next()?.parse().ok()?;
            if levels == 0 || nclusters == 0 {
                return None;
            }
            let cost = PartitionCost {
                comm_count: t.next()?.parse().ok()?,
                ii_bus: t.next()?.parse().ok()?,
                ii_effective: t.next()?.parse().ok()?,
                max_path: t.next()?.parse().ok()?,
                exec_time: t.next()?.parse().ok()?,
                cut_slack: t.next()?.parse().ok()?,
                cut_size: t.next()?.parse().ok()?,
            };
            let nops: usize = t.next()?.parse().ok()?;
            if nops > MAX_LOAD_OPS {
                return None;
            }
            let mut assignment = Vec::with_capacity(nops);
            for _ in 0..nops {
                let a: usize = t.next()?.parse().ok()?;
                // Validate here so `Partition::new` cannot panic on a
                // forged or hand-edited line.
                if a >= nclusters {
                    return None;
                }
                assignment.push(a);
            }
            Some(PartitionResult {
                partition: Partition::new(assignment, nclusters),
                cost,
                levels,
            })
        }
        _ => return None,
    };
    if t.next().is_some() {
        return None;
    }
    Some((
        key,
        SchedSeed {
            start_ii,
            partition,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gpsched-diskcache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join("cache.txt")
    }

    fn sample_seed(nops: usize) -> SchedSeed {
        SchedSeed {
            start_ii: 7,
            partition: Some(PartitionResult {
                partition: Partition::new((0..nops).map(|i| i % 2).collect(), 2),
                cost: PartitionCost {
                    comm_count: 3,
                    ii_bus: 2,
                    ii_effective: 7,
                    max_path: 19,
                    exec_time: 705,
                    cut_slack: -4,
                    cut_size: 5,
                },
                levels: 3,
            }),
        }
    }

    #[test]
    fn round_trips_across_reopen() {
        let path = tmp("roundtrip");
        let k1 = (1u64, 2u64, 3u64);
        let k2 = (4u64, 5u64, 6u64);
        let s1 = sample_seed(9);
        let s2 = SchedSeed {
            start_ii: 11,
            partition: None,
        };
        {
            let cache = DiskCache::open(&path).expect("open");
            assert!(cache.is_empty());
            cache.append(k1, &s1).expect("append");
            cache.append(k2, &s2).expect("append");
            assert_eq!(cache.len(), 2);
        }
        let reopened = DiskCache::open(&path).expect("reopen");
        assert_eq!(reopened.len(), 2);
        let r1 = reopened.get(k1).expect("k1");
        assert_eq!(r1.start_ii, 7);
        let p = r1.partition.expect("partitioned");
        assert_eq!(p.levels, 3);
        assert_eq!(p.cost.cut_slack, -4);
        assert_eq!(
            p.partition.assignment(),
            sample_seed(9).partition.unwrap().partition.assignment()
        );
        let r2 = reopened.get(k2).expect("k2");
        assert_eq!(r2.start_ii, 11);
        assert!(r2.partition.is_none());
    }

    #[test]
    fn torn_tail_is_truncated_and_survivors_load() {
        let path = tmp("torn");
        {
            let cache = DiskCache::open(&path).expect("open");
            cache.append((1, 1, 1), &sample_seed(4)).expect("append");
            cache
                .append(
                    (2, 2, 2),
                    &SchedSeed {
                        start_ii: 3,
                        partition: None,
                    },
                )
                .expect("append");
        }
        // Simulate a daemon killed mid-append: chop the last line in half.
        let text = std::fs::read_to_string(&path).expect("read");
        let torn = &text[..text.len() - 10];
        std::fs::write(&path, torn).expect("write torn");

        let reopened = DiskCache::open(&path).expect("reopen torn");
        assert_eq!(reopened.len(), 1, "torn entry dropped, first kept");
        assert!(reopened.get((1, 1, 1)).is_some());
        assert!(reopened.get((2, 2, 2)).is_none());
        // The file was physically truncated: a third reopen is clean and
        // appending works again.
        reopened
            .append((3, 3, 3), &sample_seed(2))
            .expect("append after recovery");
        let again = DiskCache::open(&path).expect("third open");
        assert_eq!(again.len(), 2);
    }

    #[test]
    fn flipped_bit_fails_checksum_and_is_dropped() {
        let path = tmp("bitflip");
        {
            let cache = DiskCache::open(&path).expect("open");
            cache.append((1, 1, 1), &sample_seed(4)).expect("append");
        }
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip a digit inside the entry line's start_ii field.
        let entry_start = HEADER.len() + 1;
        let pos = entry_start + 51; // inside the decimal fields
        bytes[pos] = if bytes[pos] == b'7' { b'8' } else { b'7' };
        std::fs::write(&path, &bytes).expect("write");
        let reopened = DiskCache::open(&path).expect("reopen");
        assert!(reopened.is_empty(), "checksum must catch the flip");
    }

    #[test]
    fn out_of_range_assignment_is_rejected_not_panicking() {
        let path = tmp("forged");
        {
            DiskCache::open(&path).expect("open");
        }
        // Forge an entry whose assignment exceeds nclusters, with a VALID
        // checksum — the loader must still reject it (else Partition::new
        // would panic).
        let payload = format!(
            "{:016x} {:016x} {:016x} 5 part 1 2 0 1 5 9 50 0 0 3 0 1 9",
            1u64, 2u64, 3u64
        );
        let crc = fnv1a(payload.as_bytes());
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        writeln!(f, "{payload} {crc:016x}").expect("write");
        drop(f);
        let reopened = DiskCache::open(&path).expect("reopen");
        assert!(reopened.is_empty());
    }

    #[test]
    fn wrong_header_discards_file() {
        let path = tmp("header");
        std::fs::write(&path, "some other format v9\ngarbage\n").expect("write");
        let cache = DiskCache::open(&path).expect("open");
        assert!(cache.is_empty());
        cache.append((1, 1, 1), &sample_seed(2)).expect("append");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.starts_with(HEADER), "file was rewritten fresh");
        assert_eq!(DiskCache::open(&path).expect("reopen").len(), 1);
    }

    #[test]
    fn duplicate_append_is_a_noop() {
        let path = tmp("dup");
        let cache = DiskCache::open(&path).expect("open");
        let seed = sample_seed(4);
        cache.append((9, 9, 9), &seed).expect("append");
        cache.append((9, 9, 9), &seed).expect("append dup");
        let lines = std::fs::read_to_string(&path).expect("read");
        assert_eq!(lines.lines().count(), 2, "header + one entry");
    }
}

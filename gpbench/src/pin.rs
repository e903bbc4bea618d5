//! Pinning the benchmark process to one CPU.
//!
//! A 1-worker sweep wakes the caller's thread once per finished unit, and
//! a daemon request hops across its acceptor, connection, executor and
//! client threads. Left to float over two vCPUs of a shared host, those
//! threads land on either vCPU, and the program's speed follows the load
//! other tenants put on both. Pinned, the program and the reference
//! kernel of [`crate::reference`] share one vCPU, so the kernel sees the
//! same slowdowns: on the 2-vCPU Xeon VM the benchmark was built on, the
//! correlation between per-job slowdowns of the paper sweep and of
//! kernels timed next to them was 0.0–0.3 unpinned and 0.6–0.8 pinned.
//! A 2-worker sweep, left unpinned, drifted by up to 1.3× even after
//! scaling by a kernel run on two threads, so every workload runs pinned;
//! its workers then take turns on the one CPU.
//!
//! Std has no affinity call, so this issues `sched_getaffinity` /
//! `sched_setaffinity` directly (x86-64 Linux); elsewhere it does nothing.

/// Restricts the calling thread, and every thread it spawns afterwards, to
/// the highest-numbered CPU it may run on (CPU 0 usually takes the most
/// device interrupts). Returns that CPU, or `None` when the platform has
/// no affinity call or the kernel refused it.
pub fn pin_to_one_cpu() -> Option<usize> {
    imp::pin_to_one_cpu()
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    const SYS_SCHED_SETAFFINITY: usize = 203;
    const SYS_SCHED_GETAFFINITY: usize = 204;
    /// Mask words: room for 1,024 CPUs.
    const WORDS: usize = 16;

    /// A three-argument Linux system call.
    ///
    /// # Safety
    /// `nr` must be a call whose pointer arguments are valid for it.
    unsafe fn syscall3(nr: usize, a: usize, b: usize, c: usize) -> isize {
        let ret: isize;
        // SAFETY: the caller guarantees the arguments suit call `nr`;
        // `syscall` clobbers only rcx and r11 besides rax.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") nr as isize => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    pub fn pin_to_one_cpu() -> Option<usize> {
        let bytes = WORDS * std::mem::size_of::<u64>();
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is `bytes` long and writable; pid 0 is this thread.
        let got = unsafe { syscall3(SYS_SCHED_GETAFFINITY, 0, bytes, mask.as_mut_ptr() as usize) };
        if got <= 0 {
            return None;
        }
        let cpu = (0..WORDS * 64)
            .rev()
            .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is `bytes` long and readable; pid 0 is this thread.
        let set = unsafe { syscall3(SYS_SCHED_SETAFFINITY, 0, bytes, one.as_ptr() as usize) };
        (set == 0).then_some(cpu)
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    pub fn pin_to_one_cpu() -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_one_allowed_cpu() {
        // Runs on a thread of its own so the test harness keeps its CPUs.
        std::thread::spawn(|| {
            let Some(cpu) = pin_to_one_cpu() else { return };
            let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
            let allowed = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .unwrap()
                .trim()
                .to_string();
            assert_eq!(allowed, cpu.to_string());
        })
        .join()
        .unwrap();
    }
}

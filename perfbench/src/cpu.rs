//! Which host CPUs the benchmark's main thread runs on.
//!
//! The vCPUs of the benchmark host do not run at one speed. For stretches
//! of ten seconds to minutes, one of them runs the same code up to 1.5×
//! slower than the other, and which one changes over time. A single busy
//! thread stays on the CPU it started on, so a whole run could measure the
//! slow one. The timed phase therefore moves the main thread to the next
//! CPU at every cycle ([`pin_nth`]): every op is repeated on every CPU,
//! and its fastest repeats come from whichever CPU was fast.
//!
//! Only Linux on x86-64 is supported; elsewhere, or with more than 64
//! CPUs, both functions leave the affinity as it is.

use std::sync::OnceLock;

/// The CPUs the process may run on when first asked, as a bit mask; 0 if
/// unknown.
fn initial() -> u64 {
    static MASK: OnceLock<u64> = OnceLock::new();
    *MASK.get_or_init(|| sys::get().unwrap_or(0))
}

/// Restricts the calling thread to the `k`-th (mod their count) of the
/// CPUs the process started with. Does nothing with fewer than two.
pub fn pin_nth(k: usize) {
    let all = initial();
    let n = all.count_ones() as usize;
    if n < 2 {
        return;
    }
    let mut m = all;
    for _ in 0..k % n {
        m &= m - 1;
    }
    sys::set(m & m.wrapping_neg());
}

/// Runs `f` with the calling thread, and every thread it spawns, allowed
/// on all the CPUs the process started with, then restores its affinity.
pub fn with_all<R>(f: impl FnOnce() -> R) -> R {
    let all = initial();
    match sys::get() {
        Some(prev) if all != 0 && prev != all => {
            sys::set(all);
            let r = f();
            sys::set(prev);
            r
        }
        _ => f(),
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    const SCHED_SETAFFINITY: i64 = 203;
    const SCHED_GETAFFINITY: i64 = 204;

    /// `sched_{set,get}affinity(0, 8, mask)` for the calling thread.
    fn call(nr: i64, mask: &mut u64) -> i64 {
        let ret: i64;
        // SAFETY: both calls read or write exactly the 8 bytes at `mask`,
        // a live `u64`, and no other memory; `syscall` clobbers only rcx
        // and r11 besides the return register.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") nr => ret,
                in("rdi") 0i64,
                in("rsi") 8usize,
                in("rdx") mask as *mut u64,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// The calling thread's CPU mask; `None` if the kernel's mask does
    /// not fit 64 bits.
    pub fn get() -> Option<u64> {
        let mut m = 0;
        (call(SCHED_GETAFFINITY, &mut m) > 0).then_some(m)
    }

    pub fn set(mut m: u64) {
        call(SCHED_SETAFFINITY, &mut m);
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    pub fn get() -> Option<u64> {
        None
    }

    pub fn set(_: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_cycles_through_the_starting_cpus() {
        let all = initial();
        if all.count_ones() < 2 {
            return;
        }
        let mut seen = 0;
        for k in 0..all.count_ones() as usize {
            pin_nth(k);
            let m = sys::get().expect("mask");
            assert_eq!(m.count_ones(), 1);
            assert_eq!(with_all(|| sys::get().expect("mask")), all);
            assert_eq!(sys::get(), Some(m), "with_all restores the mask");
            seen |= m;
        }
        assert_eq!(seen, all);
        sys::set(all);
    }
}

//! Processor-time clocks.
//!
//! The benchmark's end-to-end timings are processor time, not elapsed
//! time. On a shared virtual machine the host runs other guests on the
//! same cores, and the time it takes away from this one (steal time) is
//! counted by an elapsed-time clock but not by these. On a 2-core x86-64
//! guest with 20–37% steal, the elapsed time of one serve_mixed pass
//! varied ±15% between 8-s windows and its processor time ±4%.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux clock ids.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Processor seconds run by all of this process's threads, live and
/// ended, user and system.
pub fn process_s() -> f64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// Processor seconds run by the calling thread.
pub fn thread_s() -> f64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

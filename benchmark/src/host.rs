//! What the benchmark reads from the host: CPU clocks, peak memory, the
//! thread census, and the host block recorded next to every result.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::Value;

/// The one in-process clock every span and latency is taken on.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since [`epoch`].
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Words of a `cpu_set_t` (1024 CPUs, glibc's size).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process was allowed to run on when it started, cached so
/// that later pinning of the main thread does not change the answer.
pub fn cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask = [0u64; CPU_SET_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 means the calling thread.
        let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
        let listed: Vec<usize> = (0..CPU_SET_WORDS * 64)
            .filter(|cpu| rc == 0 && mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect();
        if listed.is_empty() {
            let n = std::thread::available_parallelism().map_or(1, |n| n.get());
            (0..n).collect()
        } else {
            listed
        }
    })
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

const SCHED_IDLE: i32 = 5;

/// Moves the calling thread to `SCHED_IDLE`: it then runs only when its
/// CPU has nothing else to do and is preempted the moment anything else
/// wakes. Returns whether the kernel agreed.
pub fn make_current_thread_idle_class() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a valid sched_param for the duration of the call;
    // pid 0 means the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// Restricts the calling thread — and every thread it spawns afterwards,
/// which inherit the mask — to `cpus`. Returns whether the kernel agreed.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; CPU_SET_WORDS];
    for cpu in cpus.iter().filter(|cpu| **cpu < CPU_SET_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed; pid 0
    // means the calling thread.
    unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) == 0 }
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ms(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec matching the x86-64 /
    // aarch64 Linux ABI (two 64-bit fields); the call writes only into it.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// User + system CPU time of the whole process so far, in ms. The same
/// quantity as utime+stime in `/proc/self/stat`, read from the scheduler's
/// exact runtime sum instead of 10 ms tick samples.
pub fn process_cpu_ms() -> f64 {
    cpu_clock_ms(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU time of the calling thread so far, in ms.
pub fn thread_cpu_ms() -> f64 {
    cpu_clock_ms(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs available to this process (`nproc`), as of process start.
pub fn nproc() -> usize {
    cpus().len()
}

/// Threads of this process by name (worker indices folded), with how many
/// of them were runnable (state `R`) at the instant of the census.
pub fn thread_census() -> Value {
    let mut by_name: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let Ok(stat) = std::fs::read_to_string(task.path().join("stat")) else {
                continue; // the thread exited between readdir and read
            };
            // "tid (comm) S ..." — comm may itself contain spaces.
            let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
                continue;
            };
            let comm = stat[open + 1..close].trim_end_matches(|c: char| c.is_ascii_digit());
            let runnable = stat[close + 1..].trim_start().starts_with('R');
            let entry = by_name
                .entry(comm.trim_end_matches('-').to_string())
                .or_default();
            entry.0 += 1;
            entry.1 += u64::from(runnable);
        }
    }
    Value::Obj(
        by_name
            .into_iter()
            .map(|(name, (count, runnable))| {
                (
                    name,
                    Value::obj(vec![
                        ("threads", Value::Num(count as f64)),
                        ("runnable_now", Value::Num(runnable as f64)),
                    ]),
                )
            })
            .collect(),
    )
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Host facts that do not need a subprocess; `selfcheck` adds rustc and
/// the commit.
pub fn host_block() -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpus_listed = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown".to_string(), |s| {
            s.trim_start_matches([' ', '\t', ':']).to_string()
        });
    Value::obj(vec![
        ("nproc", Value::Num(cpus_listed.max(1) as f64)),
        ("available_parallelism", Value::Num(nproc() as f64)),
        ("cpu_model", Value::str(model)),
        (
            "kernel",
            Value::str(read_trimmed("/proc/sys/kernel/osrelease")),
        ),
        (
            "network",
            Value::str("server-open traffic crosses the loopback interface, not a link"),
        ),
    ])
}

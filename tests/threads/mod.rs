//! Scheduler statistics of this process's threads, for the tests that
//! measure the whole process (each the only test of its binary).

use std::collections::HashMap;
use std::time::Duration;

/// One thread's `comm`, and the first and third fields of its
/// `/proc/self/task/<tid>/schedstat`: time on CPU to the nanosecond
/// (`/proc/self/stat` counts in 10 ms ticks, too coarse for a 100 ms
/// budget) and timeslices run, one more at every wake-up.
pub struct ThreadStat {
    pub name: String,
    pub cpu: Duration,
    pub wakes: u64,
}

/// Every live thread's statistics, by thread id. A thread that exits
/// between listing and reading drops out.
pub fn stats() -> HashMap<String, ThreadStat> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    tasks
        .filter_map(|task| {
            let path = task.expect("task entry").path();
            let name = std::fs::read_to_string(path.join("comm"))
                .ok()?
                .trim()
                .to_string();
            let stat = std::fs::read_to_string(path.join("schedstat")).ok()?;
            let mut fields = stat
                .split_whitespace()
                .map(|f| f.parse::<u64>().unwrap_or(0));
            let (cpu, _, wakes) = (fields.next()?, fields.next()?, fields.next()?);
            let tid = path.file_name()?.to_string_lossy().into_owned();
            Some((
                tid,
                ThreadStat {
                    name,
                    cpu: Duration::from_nanos(cpu),
                    wakes,
                },
            ))
        })
        .collect()
}

/// Live threads of this process.
pub fn count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

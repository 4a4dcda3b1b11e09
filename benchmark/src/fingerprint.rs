//! The machine a result came from, stamped on every run.

use std::path::Path;

/// `(key, value)` pairs: CPU model, CPUs this process may run on,
/// `available_parallelism`, build profile, whether obs is compiled in,
/// the git revision of the source and the filesystem of the scratch
/// directory.
pub fn collect(repo: &Path, scratch: &Path) -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, m)| m.trim().to_string());
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let nproc = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or(0, |list| cpu_count(list.trim()));
    let parallelism = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    vec![
        ("cpu", cpu),
        ("nproc", nproc.to_string()),
        ("available_parallelism", parallelism.to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("obs_compiled", crate::api::obs_compiled().to_string()),
        (
            "git_rev",
            git_rev(repo).unwrap_or_else(|| "unknown".to_string()),
        ),
        (
            "scratch_fs",
            filesystem(scratch).unwrap_or_else(|| "unknown".to_string()),
        ),
    ]
}

/// CPUs in a kernel CPU list such as `0-3,8,10-11`.
fn cpu_count(list: &str) -> usize {
    list.split(',')
        .filter_map(|part| match part.split_once('-') {
            Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
            None => part.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

/// The commit `repo/.git` points at, read from the repository's own
/// files only (a source tree without `.git` has no revision).
fn git_rev(repo: &Path) -> Option<String> {
    let git = repo.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, r) = l.split_once(' ')?;
        (r == name).then(|| rev.to_string())
    })
}

/// Filesystem type of the mount holding `path`.
fn filesystem(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/self/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at).then(|| (at.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    #[test]
    fn cpu_lists_count_ranges_and_singles() {
        assert_eq!(super::cpu_count("0-1"), 2);
        assert_eq!(super::cpu_count("0-3,8,10-11"), 7);
    }
}

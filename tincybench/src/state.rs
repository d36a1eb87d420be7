//! Cross-run check of the deterministic counts. The first run of a build
//! records them under `state/`; every later run of the same build (same
//! executable bytes) must reproduce them exactly.

use crate::layers::{Counts, Result};
use std::fs;
use std::path::{Path, PathBuf};

/// Where the benchmark keeps its records and span files.
pub fn state_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("state")
}

/// FNV-1a of this executable, so a rebuilt program starts a new record.
fn build_key() -> Result<u64> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bytes = fs::read(&exe).map_err(|e| format!("reading {}: {e}", exe.display()))?;
    Ok(bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    }))
}

fn render(counts: &Counts) -> String {
    counts.iter().map(|(k, v)| format!("{k}={v}\n")).collect()
}

/// Records `counts` under `name`, or compares them with the record.
pub fn check(name: &str, counts: &Counts) -> Result<()> {
    let dir = state_dir();
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{:016x}-{name}.counts", build_key()?));
    let now = render(counts);
    match fs::read_to_string(&path) {
        Ok(before) if before == now => Ok(()),
        Ok(before) => {
            let diff: Vec<String> = now
                .lines()
                .filter(|line| !before.lines().any(|b| b == *line))
                .map(str::to_owned)
                .collect();
            Err(format!(
                "deterministic counts differ from an earlier run of this build ({}): {}",
                path.display(),
                diff.join(", ")
            ))
        }
        Err(_) => {
            let tmp = path.with_extension("tmp");
            fs::write(&tmp, &now).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
            fs::rename(&tmp, &path).map_err(|e| format!("recording counts: {e}"))
        }
    }
}

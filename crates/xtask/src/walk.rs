//! Workspace file discovery: `crates/*/src/**/*.rs`, the root crate's
//! `src/**/*.rs`, and the integration suites in `tests/*.rs`. Paths are
//! returned repo-relative with forward slashes, sorted, so reports are
//! stable across machines.

use std::fs;
use std::path::{Path, PathBuf};

/// Collect every lintable source file under `root`.
pub fn lintable_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    let tests = root.join("tests");
    if tests.is_dir() {
        for entry in fs::read_dir(&tests)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    let mut rel: Vec<PathBuf> = files
        .into_iter()
        .map(|f| f.strip_prefix(root).map(Path::to_path_buf).unwrap_or(f))
        .collect();
    rel.sort();
    Ok(rel)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Repo-relative display form with forward slashes.
pub fn display_path(path: &Path) -> String {
    path.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

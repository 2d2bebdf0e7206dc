//! Build parity. This package cannot inherit the repository root's
//! `[profile.release]`, so its manifest mirrors it; at run time the two are
//! compared and any difference is printed, so a profile change in the
//! repository shows up in the benchmark's output instead of going unmeasured.

/// This package's own manifest, as compiled in.
const OWN_MANIFEST: &str = include_str!("../Cargo.toml");

/// The `key = value` lines of `[profile.release]` in a manifest, sorted,
/// with comments and blank lines dropped.
pub fn release_profile(manifest: &str) -> Vec<String> {
    let mut inside = false;
    let mut entries = Vec::new();
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line == "[profile.release]";
            continue;
        }
        if inside && !line.is_empty() {
            let compact: String = line.chars().filter(|c| !c.is_whitespace()).collect();
            entries.push(compact);
        }
    }
    entries.sort();
    entries
}

/// One status line comparing the repository root's release profile (read
/// from `root_manifest`) with the one this benchmark was built with.
pub fn parity_line(root_manifest: Option<&str>) -> String {
    let own = release_profile(OWN_MANIFEST);
    match root_manifest {
        None => "build-parity: MISMATCH root Cargo.toml unreadable".to_string(),
        Some(root) => {
            let root = release_profile(root);
            if root == own {
                format!("build-parity: ok [profile.release] {}", own.join(" "))
            } else {
                format!(
                    "build-parity: MISMATCH root [profile.release] {{{}}} vs benchmark {{{}}}",
                    root.join(" "),
                    own.join(" ")
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_compared_entry_by_entry() {
        let root = "[package]\nname = \"x\"\n[profile.release]\nlto = \"thin\" # why\n\n[profile.bench]\ndebug = false\n";
        assert_eq!(release_profile(root), vec!["lto=\"thin\"".to_string()]);
        assert!(parity_line(Some(root)).starts_with("build-parity: ok"));
        let changed = "[profile.release]\nlto = \"fat\"\ncodegen-units = 1\n";
        assert!(parity_line(Some(changed)).starts_with("build-parity: MISMATCH"));
        assert!(parity_line(None).starts_with("build-parity: MISMATCH"));
    }

    #[test]
    fn the_repository_profile_is_mirrored() {
        let root = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
            .expect("repository manifest");
        assert!(
            parity_line(Some(&root)).starts_with("build-parity: ok"),
            "{}",
            parity_line(Some(&root))
        );
    }
}

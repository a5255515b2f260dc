//! Everything a crate root re-exports is named by someone else.
//!
//! A public item stays only while a surface reaches it: the `ensemble`
//! CLI, a wire request, a `repro` target, an example, the `e2e`
//! package, a bench, or a test of a behaviour that is itself reached.
//! The part of that rule a test can hold is the cheap one: every name
//! in a `crates/*/src/lib.rs` `pub use` list must appear, as a whole
//! word, in some `.rs` file outside that crate's own `src/` (whose
//! `#[cfg(test)]` modules therefore do not count). A name nobody else
//! spells leaves the list — the item stays reachable through its
//! module — or goes altogether.

use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, build outputs and the offline
/// dependency stand-ins excluded.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if !(path.ends_with("target") || path.ends_with("stubs")) {
                rust_files(&path, out);
            }
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// The names a crate root re-exports: the items of every
/// `pub use module::{…};` and `pub use module::Name;`, an alias under
/// its new name.
fn reexports(lib: &str) -> Vec<String> {
    let mut names = Vec::new();
    for statement in lib.split("pub use ").skip(1) {
        let statement = statement.split(';').next().expect("split");
        let items = statement.split_once("::").map_or(statement, |(_, items)| items);
        for item in items.trim_matches(|c| c == '{' || c == '}').split(',') {
            let name = item.rsplit(" as ").next().expect("rsplit").trim();
            if !name.is_empty() {
                names.push(name.to_string());
            }
        }
    }
    names
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// True when `name` occurs in `text` as a whole identifier.
fn names_it(text: &str, name: &str) -> bool {
    text.match_indices(name).any(|(at, _)| {
        !text[..at].ends_with(is_ident) && !text[at + name.len()..].starts_with(is_ident)
    })
}

#[test]
fn every_crate_root_reexport_is_named_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(top), &mut files);
    }
    let sources: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path).expect("read source");
            (path, text)
        })
        .collect();

    let mut unreached = Vec::new();
    let mut checked = 0;
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        let own_src = entry.expect("dir entry").path().join("src");
        let Ok(lib) = fs::read_to_string(own_src.join("lib.rs")) else {
            continue;
        };
        for name in reexports(&lib) {
            checked += 1;
            let named = sources
                .iter()
                .any(|(path, text)| !path.starts_with(&own_src) && names_it(text, &name));
            if !named {
                let lib = own_src.strip_prefix(root).expect("under the root").join("lib.rs");
                unreached.push(format!("{}: {name}", lib.display()));
            }
        }
    }
    assert!(checked > 100, "the `pub use` lists were not found ({checked} names)");
    assert!(
        unreached.is_empty(),
        "re-exported, and named nowhere outside the crate's own src/ — drop the re-export \
         (or the item, if nothing inside the crate calls it either):\n  {}",
        unreached.join("\n  ")
    );
}

//! Ten rules about the workspace's shape that hold themselves.
//!
//! **Everything a crate root re-exports is named by someone else.**
//! A public item stays only while a surface reaches it: the `ensemble`
//! CLI, a wire request, a `repro` target, an example, the `e2e`
//! package, a bench, or a test of a behaviour that is itself reached.
//! The part of that rule a test can hold is the cheap one: every name
//! in a `crates/*/src/lib.rs` `pub use` list must appear, as a whole
//! word, in some `.rs` file outside that crate's own `src/` (whose
//! `#[cfg(test)]` modules therefore do not count) and outside the
//! facade's own `pub use` lists in `src/lib.rs` (a prelude entry is a
//! second re-export, not a use). A name nobody else spells leaves the
//! list — the item stays reachable through its module — or goes
//! altogether.
//!
//! **The workspace is hermetic.** Every dependency any manifest
//! declares is a path crate of this repository, and the committed root
//! `Cargo.lock` lists the workspace's own packages and nothing else —
//! so tier-1 builds with no registry, and a crates.io dependency cannot
//! come back unnoticed.
//!
//! **A library depends only on what it names.** Every `[dependencies]`
//! entry of a package with a `src/lib.rs` is named in its own `src/` or
//! `benches/` (not in a package nested there, like `e2e`).
//!
//! **Each pricing decision is made once.** What a placement costs is
//! derived in one place, and the DES, the closed-form predictor and the
//! scheduler's delta evaluator all call it. The decisions a second copy
//! would repeat — the Spread/Compact socket split, the data-locality
//! ablation's read pricing, the power cap's slowdown — each appear in
//! exactly one function of library code (`#[cfg(test)]` code excluded).
//!
//! **Each request counter is written once.** The service counts a
//! request's life — refused, admitted, started, settled — in one ledger,
//! so its global rows balance the way its tenant rows do. Every write
//! of a lifecycle counter or a tenant-row field in `crates/svc/src`
//! appears in exactly one library function. So does every write of a
//! counter a warm standby keeps of its record stream: both of its
//! sources feed one apply.
//!
//! **Each request kind is routed once, and there is one listener.** One
//! function of `crates/svc/src` decides whether a `metrics`, `attach` or
//! `replicate` request is answered inline, admitted or handed the
//! connection — for the primary and the standby, in process and on the
//! wire — and one function accepts TCP connections. The codec
//! (`protocol.rs`), which names every kind to encode and decode it, is
//! not routing.
//!
//! **No library crate reads the process environment at run time.** A
//! result is a function of its request: what a scan, a run or a reply
//! computes cannot change with a variable set in the shell that started
//! the process. Library code under `crates/*/src/` (`src/bin/` and the
//! facade excluded, `#[cfg(test)]` code too) names no `env::var`,
//! `env::var_os` or `env::vars`; a binary reads its flags and hands the
//! library values. Compile-time `env!` is not a read.
//!
//! **One closed-form ranking.** Product code (`crates/*/src`, `src/`)
//! implements `ScanVisitor` only in the scheduler's ranking module —
//! the `Ranker` the service's `score` and the placement advisor share —
//! and in `scheduler::cosched`, whose admission scan scores against
//! resident jobs. The DES-scored scan and the greedy heuristic that once
//! ranked beside it are named in no `.rs` file of the tree.
//!
//! **The record fold does no I/O.** Restart replay, compaction and the
//! warm standby fold the journal with one `svc::image::Image`, and the
//! score cache holds entries in its `Window`. Their source,
//! `crates/svc/src/image.rs`, names no file system, socket, thread or
//! clock, so whatever drives the fold — a file, a replication stream,
//! a simulated schedule — gets the same state from the same records.
//!
//! **The DTL stages through one medium.** `SyncStaging` takes no type
//! parameter, and the store layer it was once generic over is named in
//! no `.rs` file of the tree.

use std::collections::BTreeSet;

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

/// `source` with every `pub use …;` statement cut out.
fn without_reexports(source: &str) -> String {
    let mut kept = String::new();
    let mut rest = source;
    while let Some(at) = rest.find("pub use ") {
        kept.push_str(&rest[..at]);
        rest = rest[at..].split_once(';').map_or("", |(_, after)| after);
    }
    kept.push_str(rest);
    kept
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// True when `name` occurs in `text` as a whole identifier (or, for a
/// `name` that ends in punctuation, starts one).
fn names_it(text: &str, name: &str) -> bool {
    let whole = name.ends_with(is_ident);
    text.match_indices(name).any(|(at, _)| {
        let ident_after = text[at + name.len()..].starts_with(is_ident);
        !text[..at].ends_with(is_ident) && (!whole || !ident_after)
    })
}

/// Each `.rs` file of `crates/`, `src/`, `tests/` and `examples/` that
/// names one of `names` as a whole identifier, with the name.
fn named_in_the_tree(root: &Path, names: &[&str]) -> Vec<String> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(top), &mut files);
    }
    let mut named = Vec::new();
    for path in files {
        let text = fs::read_to_string(&path).expect("read source");
        for name in names.iter().filter(|name| names_it(&text, name)) {
            named.push(format!("{}: {name}", path.display()));
        }
    }
    named
}

#[test]
fn every_crate_root_reexport_is_named_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(top), &mut files);
    }
    let facade = root.join("src").join("lib.rs");
    let sources: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|path| {
            let mut text = fs::read_to_string(&path).expect("read source");
            if path == facade {
                text = without_reexports(&text);
            }
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
        "re-exported, and named nowhere outside the crate's own src/ and the facade's \
         `pub use` lists — drop the re-export (or the item, if nothing inside the crate calls \
         it either):\n  {}",
        unreached.join("\n  ")
    );
}

/// The `name` of every `name = …` / `name.key = …` line under a
/// `[section]` header `wanted` accepts, with the text right of the name.
fn entries(manifest: &str, wanted: impl Fn(&str) -> bool) -> Vec<(String, String)> {
    let mut inside = false;
    let mut found = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            inside = wanted(header.trim_matches(|c| c == '[' || c == ']'));
        } else if inside && !line.is_empty() && !line.starts_with('#') {
            let name_len = line.find(|c: char| !(is_ident(c) || c == '-')).unwrap_or(line.len());
            found.push((line[..name_len].to_string(), line[name_len..].to_string()));
        }
    }
    found
}

#[test]
fn workspace_is_hermetic() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        manifests.push(entry.expect("dir entry").path().join("Cargo.toml"));
    }
    let read = |path: &PathBuf| fs::read_to_string(path).expect("read manifest");
    let is_path = |rest: &str| rest.contains("path =");
    let shared: BTreeSet<String> =
        entries(&read(&manifests[0]), |section| section == "workspace.dependencies")
            .into_iter()
            .map(|(name, rest)| {
                assert!(is_path(&rest), "[workspace.dependencies] {name} is not a path crate");
                name
            })
            .collect();

    let mut packages = BTreeSet::new();
    for path in &manifests {
        let manifest = read(path);
        for (name, rest) in entries(&manifest, |section| section.ends_with("dependencies")) {
            let inherited = rest.trim() == ".workspace = true" && shared.contains(&name);
            assert!(
                inherited || is_path(&rest),
                "{}: `{name}{rest}` is not a path crate of this workspace",
                path.display()
            );
        }
        let named = entries(&manifest, |section| section == "package")
            .into_iter()
            .find(|(key, _)| key == "name")
            .unwrap_or_else(|| panic!("{} names no package", path.display()));
        packages.insert(named.1.trim_matches(|c| " =\"".contains(c)).to_string());
    }
    assert!(packages.len() > 10 && packages.contains("json"), "{packages:?}");

    let lock = fs::read_to_string(root.join("Cargo.lock")).expect("a committed Cargo.lock");
    let foreign: Vec<&str> = lock
        .lines()
        .filter(|line| line.starts_with("source =") || line.starts_with("checksum ="))
        .collect();
    assert!(foreign.is_empty(), "Cargo.lock names a registry: {foreign:?}");
    let locked: BTreeSet<String> = entries(&lock, |section| section == "package")
        .into_iter()
        .filter(|(key, _)| key == "name")
        .map(|(_, rest)| rest.trim_matches(|c| " =\"".contains(c)).to_string())
        .collect();
    assert_eq!(locked, packages, "Cargo.lock lists exactly the workspace's packages");
}

/// The name of the function whose body holds byte `at` of `code`: the
/// one the nearest `fn` keyword before it declares.
fn enclosing_fn(code: &str, at: usize) -> String {
    code[..at]
        .rmatch_indices("fn ")
        .find(|(i, _)| !code[..*i].ends_with(is_ident))
        .map(|(i, _)| code[i + 3..].chars().take_while(|&c| is_ident(c)).collect())
        .unwrap_or_default()
}

/// Library code of every `.rs` file under `dirs`: everything above a
/// file's first `#[cfg(test)]`, comments dropped.
fn library_code(root: &Path, dirs: &[PathBuf]) -> Vec<(PathBuf, String)> {
    let mut files = Vec::new();
    for dir in dirs {
        rust_files(dir, &mut files);
    }
    files
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path).expect("read source");
            let code = text.split("#[cfg(test)]").next().expect("split");
            let code: Vec<&str> =
                code.lines().map(|line| line.split("//").next().expect("split")).collect();
            (path.strip_prefix(root).expect("under the root").to_path_buf(), code.join("\n"))
        })
        .collect()
}

/// Which text around an occurrence of a mark makes it count.
type Counts = fn(&str, &str) -> bool;

/// Every mark that `counts` in other than exactly one function of
/// `library`, with the functions it counts in.
fn made_in_more_than_one_place(
    library: &[(PathBuf, String)],
    marks: &[(&str, Counts)],
) -> Vec<String> {
    let mut repeated = Vec::new();
    for &(mark, counts) in marks {
        let mut places = BTreeSet::new();
        for (path, code) in library {
            for (at, _) in code.match_indices(mark) {
                if counts(&code[..at], &code[at + mark.len()..]) {
                    places.insert(format!("{}: fn {}", path.display(), enclosing_fn(code, at)));
                }
            }
        }
        if places.len() != 1 {
            repeated.push(format!("`{mark}` in {} functions: {places:?}", places.len()));
        }
    }
    repeated
}

#[test]
fn each_pricing_decision_is_made_in_one_library_function() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.join("src")];
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        dirs.push(entry.expect("dir entry").path().join("src"));
    }
    let arm: Counts = |_, after| after.trim_start().starts_with("=>");
    // A field read: not a method of that name, not an assignment to it.
    let read: Counts = |_, after| {
        let rest = after.trim_start();
        !after.starts_with(is_ident)
            && !rest.starts_with('(')
            && (!rest.starts_with('=') || rest.starts_with("=="))
    };
    let call: Counts = |before, _| !before.trim_end().ends_with("fn");
    let repeated = made_in_more_than_one_place(
        &library_code(root, &dirs),
        &[
            ("BindPolicy::Spread", arm),
            ("BindPolicy::Compact", arm),
            (".force_remote_reads", read),
            ("cap_slowdown(", call),
        ],
    );
    assert!(
        repeated.is_empty(),
        "a pricing decision made in other than exactly one library function — call the \
         one that makes it:\n  {}",
        repeated.join("\n  ")
    );
}

#[test]
fn each_request_counter_is_written_in_one_library_function() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // A write: an assignment or an atomic add to the field.
    let write: Counts = |_, after| {
        let rest = after.trim_start();
        !after.starts_with(is_ident)
            && (rest.starts_with("+=")
                || rest.starts_with("-=")
                || (rest.starts_with('=') && !rest.starts_with("=="))
                || rest.starts_with(".fetch_"))
    };
    let fields = [
        // The global lifecycle counters of `SvcStats`.
        ".submitted",
        ".accepted",
        ".rejected",
        ".completed",
        ".deadline_expired",
        ".errored",
        // The tenant row's, and the ones both share.
        ".admitted",
        ".shed",
        ".expired",
        ".in_queue",
        ".executed",
        ".cancelled",
        ".in_flight",
        // What a standby counts of its stream, beside its image.
        ".resets",
        ".corrupt",
        ".beats",
        ".primary_appended",
        ".primary_degraded",
    ];
    let marks: Vec<(&str, Counts)> = fields.iter().map(|&field| (field, write)).collect();
    let repeated =
        made_in_more_than_one_place(&library_code(root, &[root.join("crates/svc/src")]), &marks);
    assert!(
        repeated.is_empty(),
        "a request or standby counter written in other than exactly one library function — \
         step the service's ledger or the standby's `apply_event` instead:\n  {}",
        repeated.join("\n  ")
    );
}

#[test]
fn each_request_kind_is_routed_in_one_library_function() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let library: Vec<(PathBuf, String)> = library_code(root, &[root.join("crates/svc/src")])
        .into_iter()
        .filter(|(path, _)| !path.ends_with("protocol.rs"))
        .collect();
    // A pattern, not a value being built: a match arm, or the pattern of
    // a `matches!` or a `let`.
    let pattern: Counts = |before, after| {
        let line_before = before.rsplit('\n').next().expect("rsplit");
        let line_after = after.split('\n').next().expect("split");
        !after.starts_with(is_ident)
            && (line_after.contains("=>")
                || line_before.contains("matches!(")
                || line_before.contains("let "))
    };
    let call: Counts = |_, _| true;
    let repeated = made_in_more_than_one_place(
        &library,
        &[
            ("RequestBody::Metrics", pattern),
            ("RequestBody::Attach", pattern),
            ("RequestBody::Replicate", pattern),
            (".accept()", call),
        ],
    );
    assert!(
        repeated.is_empty(),
        "a request kind routed, or a connection accepted, in other than exactly one library \
         function — mount on the server's router and listener instead:\n  {}",
        repeated.join("\n  ")
    );
}

#[test]
fn the_record_fold_and_its_window_name_no_io() {
    // Sans-IO code is handed its records, or the time, instead of
    // fetching them; the record fold holds no time at all.
    let sans_io: [(&str, &[&str]); 2] =
        [("crates/svc/src/image.rs", &["Instant"]), ("crates/svc/src/cosched.rs", &[])];
    let io =
        ["std::fs", "std::net", "std::thread", "SystemTime", "Instant::now", "elapsed(", "sleep("];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (file, also) in sans_io {
        let source = fs::read_to_string(root.join(file)).expect("read a sans-IO file");
        let named: Vec<&str> =
            io.iter().chain(also).copied().filter(|name| source.contains(name)).collect();
        assert!(named.is_empty(), "{file} names {named:?} — feed it its inputs instead");
    }
}

#[test]
fn no_library_crate_reads_the_process_environment_at_run_time() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = Vec::new();
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        dirs.push(entry.expect("dir entry").path().join("src"));
    }
    let reads = ["env::var", "env::var_os", "env::vars"];
    let mut found = Vec::new();
    for (path, code) in library_code(root, &dirs) {
        if path.components().any(|c| c.as_os_str() == "bin") {
            continue;
        }
        for read in reads.iter().filter(|read| names_it(&code, read)) {
            found.push(format!("{}: {read}", path.display()));
        }
    }
    assert!(
        found.is_empty(),
        "library code reads the process environment — take the value as a parameter and \
         let a binary read it:\n  {}",
        found.join("\n  ")
    );
}

#[test]
fn the_service_asks_the_host_its_parallelism_only_where_it_starts() {
    // A scan handed a width of zero asks the host on every request (on
    // Linux, a read of the cgroup quota files); the service resolves its
    // widths once, when it starts, and hands every scan a number.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let library = library_code(root, &[root.join("crates/svc/src")]);
    let mut places = BTreeSet::new();
    for (path, code) in &library {
        for (at, _) in code.match_indices("available_parallelism") {
            places.insert(format!("{}: fn {}", path.display(), enclosing_fn(code, at)));
        }
    }
    let start = BTreeSet::from([String::from("crates/svc/src/service.rs: fn try_start")]);
    assert_eq!(places, start, "svc names `available_parallelism` outside `Service::try_start`");
}

#[test]
fn one_closed_form_ranking_implements_the_scan_visitor() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.join("src")];
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        dirs.push(entry.expect("dir entry").path().join("src"));
    }
    let mut places = BTreeSet::new();
    for (path, code) in library_code(root, &dirs) {
        for (at, _) in code.match_indices("ScanVisitor for ") {
            let line = code[..at].rsplit('\n').next().expect("rsplit");
            if line.trim_start().starts_with("impl") {
                places.insert(path.display().to_string());
            }
        }
    }
    let allowed = BTreeSet::from([
        String::from("crates/scheduler/src/cosched.rs"),
        String::from("crates/scheduler/src/rank.rs"),
    ]);
    assert_eq!(places, allowed, "a `ScanVisitor` outside the ranking and the co-scheduler");

    // Spelled in pieces, so this file does not name them either.
    let gone = [
        concat!("exhaustive", "_search"),
        concat!("greedy", "_search"),
        concat!("Search", "Config"),
        concat!("EXHAUSTIVE", "_COMPONENT_LIMIT"),
    ];
    let named = named_in_the_tree(root, &gone);
    assert!(named.is_empty(), "a deleted ranking path is named again:\n  {}", named.join("\n  "));
}

#[test]
fn the_scheduler_reads_no_clock() {
    // A placement's rank is a function of its request, and so is how
    // many threads a scan ranks it on: no product code of the scheduler
    // asks the time or waits on it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut named = Vec::new();
    for (path, code) in library_code(root, &[root.join("crates/scheduler/src")]) {
        let names = ["Instant", "SystemTime"].into_iter().filter(|name| names_it(&code, name));
        let calls = ["elapsed(", "sleep("].into_iter().filter(|call| code.contains(call));
        named.extend(names.chain(calls).map(|name| format!("{}: {name}", path.display())));
    }
    assert!(named.is_empty(), "the scheduler reads a clock:\n  {}", named.join("\n  "));
}

#[test]
fn every_library_dependency_is_named_in_its_source() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut packages = vec![root.to_path_buf()];
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        packages.push(entry.expect("dir entry").path());
    }
    let mut unnamed = Vec::new();
    for package in packages.iter().filter(|p| p.join("src").join("lib.rs").exists()) {
        let manifest = fs::read_to_string(package.join("Cargo.toml")).expect("read manifest");
        let mut files = Vec::new();
        for dir in ["src", "benches"].map(|dir| package.join(dir)).iter().filter(|d| d.is_dir()) {
            rust_files(dir, &mut files);
        }
        // A directory with its own manifest holds another package's source.
        let own = |f: &&PathBuf| {
            f.ancestors()
                .skip(1)
                .take_while(|d| d != package)
                .all(|d| !d.join("Cargo.toml").exists())
        };
        let sources: Vec<String> =
            files.iter().filter(own).map(|f| fs::read_to_string(f).unwrap()).collect();
        for (name, _) in entries(&manifest, |section| section == "dependencies") {
            if !sources.iter().any(|text| names_it(text, &name.replace('-', "_"))) {
                unnamed.push(format!("{}: {name}", package.display()));
            }
        }
    }
    assert!(
        unnamed.is_empty(),
        "a library package depends on a crate its src/ and benches/ never name — drop the \
         dependency:\n  {}",
        unnamed.join("\n  ")
    );
}

#[test]
fn the_staging_area_has_one_medium() {
    // Spelled in pieces, so this file does not name them either.
    let gone = [
        concat!("Chunk", "Store"),
        concat!("Memory", "Store"),
        concat!("File", "Store"),
        concat!("Pfs", "Staging"),
        concat!("InMemory", "Staging"),
        concat!("Fault", "Handle"),
        concat!("burst", "_buffer"),
        concat!("p", "fs"),
        concat!("Sync", "Staging<"),
    ];
    let named = named_in_the_tree(Path::new(env!("CARGO_MANIFEST_DIR")), &gone);
    assert!(named.is_empty(), "the staging store layer is named again:\n  {}", named.join("\n  "));
}

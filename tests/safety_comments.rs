//! Every `unsafe` in the runtime's own crates states its contract: an
//! `unsafe` block or `unsafe impl` has a `// SAFETY:` comment directly
//! above it, and an `unsafe fn` (or `unsafe trait`) has a `# Safety`
//! section in its docs. Clippy's `undocumented_unsafe_blocks` lint covers
//! blocks in CI; this test holds the whole rule in the tier-1 suite, for
//! the `src` of `lhws-core`, `lhws-deque` and `lhws-net`.

use std::fs;
use std::path::{Path, PathBuf};

const CRATES: [&str; 3] = ["crates/core/src", "crates/deque/src", "crates/net/src"];

/// The code part of a line: empty for a comment line, cut at a trailing
/// `//` comment otherwise.
fn code(line: &str) -> &str {
    let t = line.trim_start();
    if t.starts_with("//") || t.starts_with("/*") || t.starts_with('*') {
        return "";
    }
    t.split(" //").next().unwrap_or(t)
}

/// What follows each `unsafe` keyword on a code line (`"{"`, `"impl"`,
/// `"fn"`, ...): the next token after the keyword, if the keyword is a
/// whole word. An `unsafe fn(...)` pointer type declares nothing and is
/// skipped.
fn unsafe_uses(code: &str) -> Vec<&str> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut uses = Vec::new();
    for (at, _) in code.match_indices("unsafe") {
        let before = code[..at].chars().next_back();
        let rest = &code[at + "unsafe".len()..];
        if before.is_some_and(is_ident) || rest.chars().next().is_some_and(is_ident) {
            continue;
        }
        let rest = rest.trim_start();
        if rest.starts_with("fn(") {
            continue;
        }
        let end = rest
            .find(|c: char| !is_ident(c))
            .map_or(rest.len(), |e| e.max(1));
        uses.push(&rest[..end]);
    }
    uses
}

/// The comment and attribute lines directly above line `i`, nearest
/// first.
fn preamble<'a>(lines: &'a [&'a str], i: usize) -> impl Iterator<Item = &'a str> {
    lines[..i]
        .iter()
        .rev()
        .map(|l| l.trim_start())
        .take_while(|l| l.starts_with("//") || l.starts_with("#["))
}

/// `file:line: what is missing` for every undocumented `unsafe` in `src`.
fn check_source(file: &str, src: &str) -> Vec<String> {
    let lines: Vec<&str> = src.lines().collect();
    let mut missing = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        for next in unsafe_uses(code(line)) {
            let (needs, ok) = match next {
                "fn" | "trait" | "extern" => (
                    "a `# Safety` doc",
                    preamble(&lines, i).any(|l| l.starts_with("/// # Safety")),
                ),
                _ => (
                    "a `// SAFETY:` comment",
                    preamble(&lines, i).any(|l| l.starts_with("// SAFETY:")),
                ),
            };
            if !ok {
                missing.push(format!("{file}:{}: `unsafe {next}` needs {needs}", i + 1));
            }
        }
    }
    missing
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_unsafe_in_core_deque_and_net_states_its_contract() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in CRATES {
        rust_files(&root.join(dir), &mut files);
    }
    let mut missing = Vec::new();
    let mut uses = 0;
    for path in &files {
        let src = fs::read_to_string(path).unwrap();
        uses += src
            .lines()
            .map(|l| unsafe_uses(code(l)).len())
            .sum::<usize>();
        let name = path.strip_prefix(root).unwrap().display().to_string();
        missing.extend(check_source(&name, &src));
    }
    assert!(uses > 50, "the walk found only {uses} uses of `unsafe`");
    assert!(missing.is_empty(), "{}", missing.join("\n"));
}

#[test]
fn the_rule_flags_what_it_should() {
    let ok = "\
// SAFETY: the pointer is live.
let x = unsafe { *p };
// SAFETY: the contract is
// two lines long.
#[allow(unused)]
unsafe impl Send for T {}
/// Reads it.
///
/// # Safety
/// `p` is live.
#[inline]
pub(crate) unsafe fn read(p: *const u8) -> u8 {
// unsafe { in a comment }
struct VTable { poll: unsafe fn(NonNull<Header>) -> Poll<()> }
#![warn(clippy::undocumented_unsafe_blocks)]
";
    assert_eq!(check_source("ok.rs", ok), Vec::<String>::new());

    let bad = "\
let x = unsafe { *p };
// Not a contract.
unsafe impl Send for T {}
/// Reads it.
unsafe fn read(p: *const u8) -> u8 {
// SAFETY: a block comment is not a doc.
unsafe trait Marker {}
";
    assert_eq!(
        check_source("bad.rs", bad),
        [
            "bad.rs:1: `unsafe {` needs a `// SAFETY:` comment",
            "bad.rs:3: `unsafe impl` needs a `// SAFETY:` comment",
            "bad.rs:5: `unsafe fn` needs a `# Safety` doc",
            "bad.rs:7: `unsafe trait` needs a `# Safety` doc",
        ]
    );
}

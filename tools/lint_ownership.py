#!/usr/bin/env python3
"""Partition-ownership and concurrency-discipline linter for CONCORD.

Enforces the rules documented in docs/CONCURRENCY.md:

  raw-sync        No raw standard-library synchronization primitive
                  (std::mutex, std::recursive_mutex, std::shared_mutex,
                  std::condition_variable, std::lock_guard,
                  std::scoped_lock, std::shared_lock, std::unique_lock)
                  outside src/common/sync.h. The capability-annotated
                  wrappers there are the only sanctioned spellings —
                  they are what makes clang's -Wthread-safety analysis
                  see every acquisition.

  submit-wait     No submit-and-wait from executor context: a task body
                  handed to PartitionEngine::Post/Run/RunEach (or a
                  dispatch helper that forwards to them, e.g.
                  ExecutorPool::Submit) must not itself call
                  Post/Run/Submit/Drain or block on a future's
                  .get()/.wait() — an executor waiting on its own
                  mailbox deadlocks.

  partition-in    Partition-resident helpers follow the `FooIn`
                  naming convention; every call site of such a helper
                  must sit inside an executor task body (a lambda
                  passed to Post/Run/Submit/wavefront) or inside
                  another *In helper. Calling one from choreography
                  code would touch executor-owned state off-partition.

  safety-comment  Every NO_THREAD_SAFETY_ANALYSIS opt-out must carry a
                  `SAFETY:` comment (same line or within the three
                  preceding lines) explaining why the analysis is
                  wrong there.

A finding can be waived with `lint:allow(<rule>)` in a comment on the
same line — waivers are for the rare constructs the wrappers cannot
express (e.g. the std::unique_lock vector in Repository's
stripe bulk-hold) and should link to a SAFETY/rationale comment.

When python-clang and build/compile_commands.json are available, the
raw-sync check runs over the clang AST (catching typedef'd spellings);
otherwise the regex engine below runs — the rule set is identical, so
CI never silently skips a rule just because libclang is missing.

Usage:
  tools/lint_ownership.py [--root REPO] [files...]   # lint src/ (or files)
  tools/lint_ownership.py --self-test                # run fixture suite
"""

import argparse
import os
import re
import sys

RAW_SYNC_RE = re.compile(
    r"\bstd::(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|scoped_lock|shared_lock|unique_lock)\b"
)
# Dispatch functions whose lambda arguments run ON an executor.
DISPATCH_RE = re.compile(r"\b(?:Post|Run|RunEach|Submit|wavefront)\s*\(")
# Calls that submit to (or wait on) an executor — fatal inside a task.
SUBMIT_WAIT_RE = re.compile(
    r"(?:\.|->)(?:Post|Run|Submit|Drain)\s*\(|(?:\.|->)(?:get|wait)\s*\(\s*\)"
)
PARTITION_IN_CALL_RE = re.compile(r"\b([A-Z]\w*In)\s*\(")
NO_TSA_RE = re.compile(r"\bNO_THREAD_SAFETY_ANALYSIS\b")
ALLOW_RE = re.compile(r"lint:allow\(([a-z-]+)\)")

SYNC_HEADER = os.path.join("src", "common", "sync.h")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving offsets
    and newlines so line numbers stay valid."""
    out = []
    i, n = 0, len(text)
    state = None  # None | 'line' | 'block' | '"' | "'"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c in "\"'":
                state = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append("\n")
            else:
                out.append(" ")
            i += 1
            continue
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
            continue
        else:  # inside a string/char literal
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == state:
                state = None
            out.append(c if c == "\n" else (c if c == state else " "))
            i += 1
            continue
        i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def waived(raw_lines, line_no, rule):
    line = raw_lines[line_no - 1] if line_no - 1 < len(raw_lines) else ""
    m = ALLOW_RE.search(line)
    return m is not None and m.group(1) == rule


def executor_lambda_spans(code):
    """Offset ranges of lambda bodies passed (directly) to a dispatch
    function. Nested dispatch *calls* inside those ranges are exactly
    the submit-and-wait rule's target."""
    spans = []
    for m in DISPATCH_RE.finditer(code):
        # Walk the argument list of the dispatch call; collect every
        # top-level lambda body `[...](...) { ... }` inside it.
        depth = 1
        i = m.end()
        while i < len(code) and depth > 0:
            c = code[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif c == "[" and depth >= 1:
                # Potential lambda introducer: find its body brace.
                j = code.find("]", i)
                if j == -1:
                    break
                k = j + 1
                while k < len(code) and code[k] in " \t\n":
                    k += 1
                if k < len(code) and code[k] == "(":
                    pdepth = 1
                    k += 1
                    while k < len(code) and pdepth > 0:
                        if code[k] == "(":
                            pdepth += 1
                        elif code[k] == ")":
                            pdepth -= 1
                        k += 1
                    while k < len(code) and code[k] in " \t\n":
                        k += 1
                    # Skip a trailing-return-type `-> T`
                    if code.startswith("->", k):
                        brace = code.find("{", k)
                        k = brace if brace != -1 else k
                while k < len(code) and code[k] not in "{,)":
                    k += 1
                if k < len(code) and code[k] == "{":
                    bdepth = 1
                    body_start = k + 1
                    k += 1
                    while k < len(code) and bdepth > 0:
                        if code[k] == "{":
                            bdepth += 1
                        elif code[k] == "}":
                            bdepth -= 1
                        k += 1
                    spans.append((body_start, k - 1))
                    i = k
                    continue
                i = j + 1
                continue
            i += 1
    return spans


def in_spans(offset, spans):
    return any(a <= offset < b for a, b in spans)


def function_body_spans_named_in(code):
    """Offset ranges of the bodies of *In function definitions (a
    partition-resident helper may call another), plus the offsets of
    the definition sites themselves (not call sites)."""
    spans = []
    def_offsets = set()
    for m in re.finditer(r"\b\w+In\s*\(", code):
        # Heuristic: a definition has `{` after its parameter list and
        # is introduced at statement level (preceded by `::` qualified
        # name or a return type on the same declaration).
        i = m.end() - 1
        depth = 1
        i += 1
        while i < len(code) and depth > 0:
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
            i += 1
        j = i
        while j < len(code) and code[j] in " \t\n":
            j += 1
        if code.startswith("const", j):
            j += 5
            while j < len(code) and code[j] in " \t\n":
                j += 1
        if j < len(code) and code[j] == "{":
            bdepth = 1
            body_start = j + 1
            j += 1
            while j < len(code) and bdepth > 0:
                if code[j] == "{":
                    bdepth += 1
                elif code[j] == "}":
                    bdepth -= 1
                j += 1
            spans.append((body_start, j - 1))
            def_offsets.add(m.start())
    return spans, def_offsets


def check_file(path, text, findings):
    raw_lines = text.split("\n")
    code = strip_comments_and_strings(text)
    rel = path.replace("\\", "/")

    # --- raw-sync ---------------------------------------------------
    if not rel.endswith(SYNC_HEADER.replace(os.sep, "/")):
        for m in RAW_SYNC_RE.finditer(code):
            ln = line_of(code, m.start())
            if waived(raw_lines, ln, "raw-sync"):
                continue
            findings.append(Finding(
                rel, ln, "raw-sync",
                f"raw {m.group(0)} — use the capability-annotated wrappers "
                f"in common/sync.h (Mutex/MutexLock/CondVar/...)"))

    # --- submit-wait ------------------------------------------------
    spans = executor_lambda_spans(code)
    for m in SUBMIT_WAIT_RE.finditer(code):
        if not in_spans(m.start(), spans):
            continue
        ln = line_of(code, m.start())
        if waived(raw_lines, ln, "submit-wait"):
            continue
        findings.append(Finding(
            rel, ln, "submit-wait",
            "executor task body submits to / waits on an executor "
            "(Post/Run/Submit/Drain/.get()) — an executor blocking on "
            "its own mailbox deadlocks; route this through the "
            "dispatching choreography thread"))

    # --- partition-in -----------------------------------------------
    if rel.endswith(".cc"):
        in_fn_spans, def_offsets = function_body_spans_named_in(code)
        for m in PARTITION_IN_CALL_RE.finditer(code):
            # Skip definitions: qualified (`T C::FooIn(...)`) or inline
            # (the parameter list is followed by a body brace).
            before = code[max(0, m.start() - 2):m.start()]
            if before.endswith("::") or m.start() in def_offsets:
                continue
            if in_spans(m.start(), spans) or in_spans(m.start(), in_fn_spans):
                continue
            ln = line_of(code, m.start())
            if waived(raw_lines, ln, "partition-in"):
                continue
            findings.append(Finding(
                rel, ln, "partition-in",
                f"partition-resident helper {m.group(1)}() called outside "
                f"an executor task body — executor-owned state must only "
                f"be touched on its owning partition"))

    # --- safety-comment ---------------------------------------------
    if rel.endswith(SYNC_HEADER.replace(os.sep, "/")):
        return  # the macro's definition site is not an opt-out
    for m in NO_TSA_RE.finditer(code):
        ln = line_of(code, m.start())
        window = raw_lines[max(0, ln - 4):ln]
        if not any("SAFETY:" in line for line in window):
            findings.append(Finding(
                rel, ln, "safety-comment",
                "NO_THREAD_SAFETY_ANALYSIS without a SAFETY: comment — "
                "every opt-out must say why the analysis is wrong here"))


def try_clang_raw_sync(root, paths, findings):
    """AST-backed raw-sync check (catches aliased spellings). Returns
    True when it ran; the caller then skips nothing — the regex checks
    still run, this only ADDS precision."""
    try:
        from clang import cindex  # noqa: F401
    except ImportError:
        return False
    cc_path = os.path.join(root, "build", "compile_commands.json")
    if not os.path.exists(cc_path):
        return False
    try:
        index = cindex.Index.create()
        db = cindex.CompilationDatabase.fromDirectory(
            os.path.join(root, "build"))
    except cindex.LibclangError:
        return False
    raw_types = {
        "std::mutex", "std::recursive_mutex", "std::shared_mutex",
        "std::timed_mutex", "std::condition_variable",
        "std::condition_variable_any",
    }
    for path in paths:
        if not path.endswith(".cc"):
            continue
        cmds = db.getCompileCommands(path)
        if not cmds:
            continue
        args = [a for a in list(cmds[0].arguments)[1:-1] if a != "-c"]
        try:
            tu = index.parse(path, args=args)
        except cindex.TranslationUnitLoadError:
            continue
        for node in tu.cursor.walk_preorder():
            if node.kind != cindex.CursorKind.FIELD_DECL:
                continue
            if node.location.file is None:
                continue
            f = os.path.abspath(node.location.file.name)
            if not f.startswith(os.path.abspath(os.path.join(root, "src"))):
                continue
            if f.endswith(os.path.join("common", "sync.h")):
                continue
            if node.type.get_canonical().spelling in raw_types:
                findings.append(Finding(
                    os.path.relpath(f, root), node.location.line, "raw-sync",
                    f"member '{node.spelling}' has raw type "
                    f"{node.type.get_canonical().spelling} — use the "
                    f"annotated wrappers in common/sync.h"))
    return True


def lint_paths(root, paths):
    findings = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        check_file(os.path.relpath(path, root), text, findings)
    if try_clang_raw_sync(root, paths, findings):
        print("note: libclang AST pass ran in addition to the regex engine")
    # De-duplicate (AST + regex may find the same member).
    seen, unique = set(), []
    for f in findings:
        key = (f.path, f.line, f.rule)
        if key in seen:
            continue
        seen.add(key)
        unique.append(f)
    return unique


def default_paths(root):
    paths = []
    for dirpath, _, filenames in os.walk(os.path.join(root, "src")):
        for name in filenames:
            if name.endswith((".h", ".cc")):
                paths.append(os.path.join(dirpath, name))
    return sorted(paths)


def self_test(root):
    """The linter must find every seeded violation in testdata/bad and
    nothing in testdata/good — proving CI would catch a regression in
    the linter itself, not only in the tree."""
    testdata = os.path.join(root, "tools", "testdata")
    good = sorted(
        os.path.join(testdata, "good", f)
        for f in os.listdir(os.path.join(testdata, "good")))
    bad_dir = os.path.join(testdata, "bad")
    failures = []

    good_findings = lint_paths(root, good)
    for f in good_findings:
        failures.append(f"good fixture flagged: {f}")

    # Each bad fixture declares its expected rules in `// expect:` lines.
    for name in sorted(os.listdir(bad_dir)):
        path = os.path.join(bad_dir, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        expected = re.findall(r"//\s*expect:\s*([a-z-]+)", text)
        if not expected:
            failures.append(f"{name}: bad fixture declares no // expect: rule")
            continue
        found_rules = {f.rule for f in lint_paths(root, [path])}
        for rule in expected:
            if rule not in found_rules:
                failures.append(
                    f"{name}: seeded {rule} violation NOT detected")

    if failures:
        print("lint_ownership --self-test FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"lint_ownership --self-test OK "
          f"({len(good)} good, {len(os.listdir(bad_dir))} bad fixtures)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the linter against the seeded fixtures")
    parser.add_argument("files", nargs="*",
                        help="files to lint (default: all of src/)")
    args = parser.parse_args()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    if args.self_test:
        return self_test(root)

    paths = [os.path.abspath(f) for f in args.files] or default_paths(root)
    findings = lint_paths(root, paths)
    for f in findings:
        print(f)
    if findings:
        print(f"\n{len(findings)} ownership/concurrency finding(s). See "
              f"docs/CONCURRENCY.md for the rules and lint:allow(<rule>) "
              f"waivers.")
        return 1
    print(f"lint_ownership: {len(paths)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

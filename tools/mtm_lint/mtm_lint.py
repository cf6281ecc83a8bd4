#!/usr/bin/env python3
"""mtm_lint: project-specific static checks for the MTM simulator.

Enforces conventions the compiler cannot (or that clang-tidy has no check
for):

  raw-unit-param   public headers must not declare function parameters of
                   raw integer type named *_ns / *_bytes — use SimNanos /
                   Bytes from src/common/types.h instead.
  raw-unit-field   same rule for struct/class fields declared in headers.
  strong-leak      headers must not spell strong_internal:: outside the
                   strong-type definition sites (src/common/types.h,
                   src/common/strong_types.h, src/obs/metric_id.h); the
                   CRTP base is an implementation detail. Deriving a new
                   strong type (`public strong_internal::...`) and std::hash
                   specializations via strong_internal::StrongHash are the
                   two sanctioned uses and stay allowed everywhere.
  assert-use       use MTM_CHECK (src/common/logging.h), never <cassert>'s
                   assert(): MTM_CHECK stays on in release builds and
                   streams context.
  naked-new        no naked `new` — use std::make_unique / containers.
                   Allowlisted sites (private ctors, arena-style nodes) are
                   listed in ALLOW_NAKED_NEW with a justification.
  pragma-once      every header uses `#pragma once` (not #ifndef guards).
  include-order    within a file, angle-bracket includes come before quoted
                   project includes; the only quoted include allowed ahead
                   of them is a .cc file's own header on the first line.
  flag-style       command-line flag names are kebab-case ([a-z0-9-]).
  endl-use         no std::endl — it forces a flush on every use; write
                   '\\n' and let the stream decide when to flush.
  unknown-suppression
                   every `// mtm-analyze: allow(<target>)` suppression names
                   a check or pass that mtm_analyze can actually emit;
                   anything else is a typo that silently suppresses nothing.
  suppression-sync VALID_SUPPRESSION_TARGETS below must match KnownChecks()
                   in tools/mtm_analyze/passes.cc; this check parses that
                   file and fails when the two lists drift.

Usage:
  tools/mtm_lint/mtm_lint.py [--root DIR] [--json PATH]

Exit status is 0 when no findings, 1 otherwise; --json writes a
machine-readable report either way.
"""

import argparse
import json
import re
import sys
from pathlib import Path

# (file, substring) pairs exempt from the naked-new check, with reasons:
#   trace.cc — ctor is private, make_unique cannot reach it; the raw
#              pointer is wrapped in a unique_ptr on the same line.
ALLOW_NAKED_NEW = {
    ("src/workloads/trace.cc", "new TraceReplayWorkload("),
}

# Legacy flag spellings kept for script compatibility.
ALLOW_FLAG_NAMES = {"fault_spec", "metrics_out", "trace_out"}

# Headers that define the strong-type machinery itself.
STRONG_TYPE_HOMES = {
    "src/common/strong_types.h",
    "src/common/types.h",
    "src/obs/metric_id.h",
}

RAW_INT_TYPES = r"(?:u8|u16|u32|u64|i8|i16|i32|i64|int|long|unsigned|size_t|std::size_t)"
RAW_UNIT_PARAM = re.compile(
    r"[(,]\s*(?:const\s+)?" + RAW_INT_TYPES + r"\s+(\w*_(?:ns|bytes))\b"
)
RAW_UNIT_FIELD = re.compile(
    r"^\s*(?:const\s+|static\s+|constexpr\s+|mutable\s+)*"
    + RAW_INT_TYPES
    + r"\s+(\w*_(?:ns|bytes)_?)\s*[;={]"
)
STRONG_LEAK = re.compile(r"strong_internal::")
STRONG_LEAK_ALLOWED = re.compile(
    r"public\s+(?:\w+::)*strong_internal::|strong_internal::StrongHash"
)
ASSERT_CALL = re.compile(r"(?<![_\w])assert\s*\(")
NAKED_NEW = re.compile(r"(?<![_\w.])new\s+[A-Za-z_:][\w:]*\s*[({\[]")
FLAG_GET = re.compile(r"flags\.Get(?:String|U64|Bool|Double)\s*\(\s*\"([^\"]+)\"")
ENDL_USE = re.compile(r"\bendl\b")
INCLUDE = re.compile(r'^\s*#\s*include\s+([<"])([^>"]+)[>"]')
GUARD = re.compile(r"^\s*#\s*ifndef\s+\w+_H_?\b")
SUPPRESSION = re.compile(r"mtm-analyze:\s*allow\(([^)]*)\)")

# Valid targets for `// mtm-analyze: allow(<target>)` suppressions: every
# check name mtm_analyze can emit plus the pass names. Must match
# KnownChecks() in tools/mtm_analyze/passes.cc — the suppression-sync check
# parses that file and fails when the two lists drift.
VALID_SUPPRESSION_TARGETS = {
    "unused-include", "transitive-include", "include-cycle", "dead-system-include",
    "layering",
    "unordered-iteration", "wall-clock", "raw-random",
    "raw-error-return", "unchecked-result-unwrap",
    "include-graph", "determinism", "error-discipline", "suppression",
}


def strip_comments(text):
    """Remove // and /* */ comments and string literals, preserving newlines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            nl = text.count("\n", i, n if j < 0 else j)
            out.append("\n" * nl)
            i = n if j < 0 else j + 2
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(c + " " * max(0, j - i - 1) + c)
            i = min(j + 1, n)
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Linter:
    def __init__(self, root):
        self.root = Path(root)
        self.findings = []

    def report(self, check, path, line, message):
        self.findings.append(
            {"check": check, "file": str(path), "line": line, "message": message}
        )

    def lint_file(self, path):
        rel = path.relative_to(self.root).as_posix()
        raw = path.read_text()
        raw_lines = raw.splitlines()
        # Comment/string-stripped view for code checks; raw view for checks
        # that need literal contents (includes, flag names).
        lines = strip_comments(raw).splitlines()
        is_header = path.suffix == ".h"

        if is_header:
            if "#pragma once" not in raw:
                self.report("pragma-once", rel, 1, "header is missing '#pragma once'")
            for i, line in enumerate(lines, 1):
                if GUARD.match(line):
                    self.report(
                        "pragma-once", rel, i,
                        "use '#pragma once' instead of #ifndef include guards",
                    )
            for i, line in enumerate(lines, 1):
                m = RAW_UNIT_PARAM.search(line)
                if m:
                    unit = "SimNanos" if m.group(1).endswith("_ns") else "Bytes"
                    self.report(
                        "raw-unit-param", rel, i,
                        f"parameter '{m.group(1)}' has a raw integer type; use {unit}",
                    )
                m = RAW_UNIT_FIELD.match(line)
                if m:
                    unit = "SimNanos" if m.group(1).rstrip("_").endswith("_ns") else "Bytes"
                    self.report(
                        "raw-unit-field", rel, i,
                        f"field '{m.group(1)}' has a raw integer type; use {unit}",
                    )
            if rel not in STRONG_TYPE_HOMES:
                for i, line in enumerate(lines, 1):
                    if STRONG_LEAK.search(line) and not STRONG_LEAK_ALLOWED.search(line):
                        self.report(
                            "strong-leak", rel, i,
                            "strong_internal:: is an implementation namespace; public "
                            "signatures must use the concrete strong types",
                        )

        for i, line in enumerate(lines, 1):
            if ASSERT_CALL.search(line):
                self.report(
                    "assert-use", rel, i,
                    "use MTM_CHECK (stays on in release, streams context) instead of assert()",
                )
            if ENDL_USE.search(line):
                self.report(
                    "endl-use", rel, i,
                    "std::endl flushes the stream on every use; write '\\n' instead",
                )
            m = NAKED_NEW.search(line)
            if m and not any(
                rel == f and allow in raw for f, allow in ALLOW_NAKED_NEW
            ):
                self.report(
                    "naked-new", rel, i,
                    "naked 'new'; use std::make_unique or add an allowlist entry with a reason",
                )
        for i, line in enumerate(raw_lines, 1):
            m = FLAG_GET.search(line)
            if m and m.group(1) not in ALLOW_FLAG_NAMES:
                if not re.fullmatch(r"[a-z][a-z0-9-]*", m.group(1)):
                    self.report(
                        "flag-style", rel, i,
                        f"flag '--{m.group(1)}' is not kebab-case",
                    )
            m = SUPPRESSION.search(line)
            if m:
                target = m.group(1).strip()
                # Placeholders like allow(<check>) in docs/tool sources and
                # string-literal fragments are not real suppressions.
                if re.fullmatch(r"[a-z][a-z-]*", target):
                    if target not in VALID_SUPPRESSION_TARGETS:
                        self.report(
                            "unknown-suppression", rel, i,
                            f"suppression target '{target}' is not a check or pass "
                            "mtm_analyze can emit; it silently suppresses nothing",
                        )

        self.lint_include_order(rel, path, raw_lines)

    def lint_include_order(self, rel, path, lines):
        includes = []
        for i, line in enumerate(lines, 1):
            m = INCLUDE.match(line)
            if m:
                includes.append((i, m.group(1) == "<", m.group(2)))
        if not includes:
            return
        start = 0
        if path.suffix != ".h" and not includes[0][1]:
            own = path.with_suffix(".h").name
            if includes[0][2].endswith("/" + own) or includes[0][2] == own:
                start = 1  # a .cc file's own header comes first
        seen_quoted = False
        for line_no, is_angle, name in includes[start:]:
            if not is_angle:
                seen_quoted = True
            elif seen_quoted:
                self.report(
                    "include-order", rel, line_no,
                    f"system include <{name}> after project includes; "
                    "order is: own header, <system>, \"project\"",
                )
                return  # one finding per file is enough to fix ordering

    def check_suppression_sync(self):
        passes = self.root / "tools" / "mtm_analyze" / "passes.cc"
        if not passes.exists():
            return
        rel = "tools/mtm_analyze/passes.cc"
        m = re.search(r"KnownChecks\(\)\s*\{(.*?)return kChecks;", passes.read_text(), re.S)
        if not m:
            self.report(
                "suppression-sync", rel, 1,
                "cannot locate the KnownChecks() literal; update mtm_lint's parser",
            )
            return
        found = set(re.findall(r'"([^"]+)"', m.group(1)))
        if found != VALID_SUPPRESSION_TARGETS:
            drift = ", ".join(sorted(found ^ VALID_SUPPRESSION_TARGETS))
            self.report(
                "suppression-sync", rel, 1,
                f"KnownChecks() and mtm_lint's VALID_SUPPRESSION_TARGETS drifted: {drift}",
            )

    def run(self, subdirs):
        files = []
        for sub in subdirs:
            files += sorted((self.root / sub).rglob("*.h"))
            files += sorted((self.root / sub).rglob("*.cc"))
            files += sorted((self.root / sub).rglob("*.cpp"))
        # mtm_analyze's testdata fixtures deliberately violate the rules the
        # analyzer (and this linter) enforce; they are inputs, not code.
        files = [f for f in files if f.name != "mtm_lint.py" and "testdata" not in f.parts]
        for f in files:
            self.lint_file(f)
        self.check_suppression_sync()
        return files


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[2]))
    parser.add_argument("--json", help="write a machine-readable findings report")
    parser.add_argument(
        "--subdirs", nargs="*", default=["src", "tools", "tests", "bench", "examples"]
    )
    args = parser.parse_args()

    linter = Linter(args.root)
    files = linter.run(args.subdirs)

    for f in linter.findings:
        print(f"{f['file']}:{f['line']}: [{f['check']}] {f['message']}")
    summary = {
        "files_checked": len(files),
        "findings": linter.findings,
        "ok": not linter.findings,
    }
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2) + "\n")
    print(f"mtm_lint: {len(files)} files checked, {len(linter.findings)} finding(s)")
    return 0 if not linter.findings else 1


if __name__ == "__main__":
    sys.exit(main())

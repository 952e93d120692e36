#!/usr/bin/env python3
"""manifest_check: keep a machine-readable manifest, the source tree, the
runtime-observed behaviour and a generated docs table in agreement.

One schema per machine-checked paper contract:

  locks  docs/lock_hierarchy.json -- the DataManager lock discipline.
         Source: every ``ca::sync::mutex`` in src/ is declared with
         ``CA_LOCK_CLASS("<name>")`` plus ``CA_LEAF`` (nothing may be
         acquired under it) or ``CA_ACQUIRED_BEFORE(<member>, ...)``;
         classes, leaf flags and edges are diffed against the manifest.
         Runtime: the acquisition-order graph dumped by
         tests/lockdep/lockdep_graph_test.cpp (CA_LOCKDEP_DUMP).  An
         undeclared edge, an unwaived lock held across a blocking call, a
         declared edge never observed, and a declared class the workload
         never *acquired* (registration alone is no ordering evidence)
         are all findings.

  prov   docs/pointer_provenance.json -- the SIII-C pin rule: a raw
         ``Region::data()`` pointer is valid only while its object is
         pinned.  Source: every bare extraction in src/ (receiver bound to
         a ``Region*``/``Region&`` or a region query, or a chained
         ``getprimary(...)->data()``) must sit in a sanctioned file, at the
         sanctioned per-file line count.  Runtime: the span-acquire sites
         dumped by tests/ptrprov/ptrprov_route_test.cpp (CA_PTRPROV_DUMP);
         sites under src/ must be declared accessors and every declared
         accessor must be observed.  Sites outside src/ are scaffolding.

Every run diffs manifest <-> source in both directions and checks that the
schema's table in docs/CONCURRENCY.md is exactly what the manifest renders.
``--dump FILE`` adds the manifest <-> runtime diff; ``--write-docs``
rewrites the table instead of checking it.  ``--self-test`` plants drift
in every check and fails unless each one goes red.

Usage: tools/manifest_check.py {locks,prov} [--dump FILE] [--write-docs]
       tools/manifest_check.py --self-test
Exit status: 0 clean, 1 findings, 2 usage/setup error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
DOC = "docs/CONCURRENCY.md"


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments(text: str, keep_strings: bool = False) -> str:
    """Blank out // and /* */ comments and, unless ``keep_strings``, the
    contents of string/char literals.  Line count is preserved, so finding
    line numbers stay accurate."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            if keep_strings:
                out.append(text[i:j])
            else:
                out.append(c + " " * (j - i - 2) + (c if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def source_files(root: Path, skip: tuple[str, ...]) -> Iterator[tuple[str, str]]:
    """(repo-relative path, text) of every .cpp/.hpp under src/, minus the
    directories in ``skip`` (the analyzer subsystems themselves)."""
    for path in sorted((root / "src").rglob("*")):
        rel = path.relative_to(root).as_posix()
        if path.suffix in (".cpp", ".hpp") and not rel.startswith(skip):
            yield rel, path.read_text()


def line_of(code: str, pos: int) -> int:
    return code.count("\n", 0, pos) + 1


def diff_both_ways(declared, found, undeclared: Callable, stale: Callable
                   ) -> list[Finding]:
    """The two-direction diff every check shares: ``undeclared(key)``
    reports a key found but missing from the manifest, ``stale(key)`` a key
    the manifest declares but the other side lacks."""
    declared, found = set(declared), set(found)
    return ([undeclared(k) for k in sorted(found - declared)] +
            [stale(k) for k in sorted(declared - found)])


# --- locks schema --------------------------------------------------------------

LOCKS_MANIFEST = "docs/lock_hierarchy.json"

MUTEX_DECL = re.compile(
    r"sync::mutex\s+(?P<member>\w+)\s*"
    r"(?P<annotations>(?:CA_LEAF\s*|CA_ACQUIRED_BEFORE\s*\([^)]*\)\s*)*)"
    r"\{\s*CA_LOCK_CLASS\(\"(?P<cls>[^\"]+)\"\)",
    re.MULTILINE,
)

# A sync::mutex declaration with NO CA_LOCK_CLASS initializer: unnamed
# mutexes are invisible to the ordering graph, so production code may not
# declare them.  (basic_lock members and using-aliases do not match.)
UNNAMED_DECL = re.compile(
    r"sync::mutex\s+\w+\s*(?:CA_LEAF\s*)?(?:;|\{\s*\})")

ACQUIRED_BEFORE = re.compile(r"CA_ACQUIRED_BEFORE\s*\(([^)]*)\)")


@dataclass
class Annotation:
    """One annotated mutex declaration parsed from a header."""
    path: str
    line: int
    member: str
    cls: str
    leaf: bool
    before_members: list[str]                                 # raw tokens
    before_classes: list[str] = field(default_factory=list)  # resolved


def parse_annotations(root: Path) -> tuple[list[Annotation], list[Finding]]:
    annotations: list[Annotation] = []
    findings: list[Finding] = []
    # The shims and the subsystem itself are not clients.
    for rel, text in source_files(root, ("src/race/", "src/lockdep/")):
        code = strip_comments(text, keep_strings=True)
        per_file = []
        for m in MUTEX_DECL.finditer(code):
            raw = m.group("annotations")
            before = [t.strip() for ab in ACQUIRED_BEFORE.finditer(raw)
                      for t in ab.group(1).split(",") if t.strip()]
            per_file.append(Annotation(rel, line_of(code, m.start()),
                                       m.group("member"), m.group("cls"),
                                       "CA_LEAF" in raw, before))
        member_to_class = {a.member: a.cls for a in per_file}
        for a in per_file:
            for member in a.before_members:
                if member in member_to_class:
                    a.before_classes.append(member_to_class[member])
                else:
                    findings.append(Finding(
                        a.path, a.line, "annotation-parse",
                        f"CA_ACQUIRED_BEFORE({member}) on `{a.cls}` names a "
                        "member with no CA_LOCK_CLASS in this file"))
        for m in UNNAMED_DECL.finditer(code):
            findings.append(Finding(
                rel, line_of(code, m.start()), "unnamed-mutex",
                "production sync::mutex without CA_LOCK_CLASS: unnamed "
                "locks are invisible to the ordering graph"))
        annotations += per_file
    return annotations, findings


def locks_source(manifest: dict, root: Path) -> tuple[list[Finding], str]:
    annotations, findings = parse_annotations(root)
    declared = {c["name"]: c for c in manifest["classes"]}
    annotated = {a.cls: a for a in annotations}

    findings += diff_both_ways(
        declared, annotated,
        lambda name: Finding(
            annotated[name].path, annotated[name].line, "undeclared-class",
            f"lock class `{name}` is annotated in source but missing from "
            f"{LOCKS_MANIFEST}"),
        lambda name: Finding(
            LOCKS_MANIFEST, 1, "stale-manifest",
            f"lock class `{name}` is declared in the manifest but no "
            "CA_LOCK_CLASS annotation defines it in src/"))

    for name in sorted(set(declared) & set(annotated)):
        c, a = declared[name], annotated[name]
        leaf = c.get("leaf", False)
        manifest_out = {e["to"] for e in manifest["edges"]
                        if e["from"] == name}
        if c.get("header") and c["header"] != a.path:
            findings.append(Finding(
                a.path, a.line, "manifest-mismatch",
                f"`{name}` declared in {a.path} but the manifest says "
                f"{c['header']}"))
        if leaf and not a.leaf:
            findings.append(Finding(
                a.path, a.line, "leaf-mismatch",
                f"manifest marks `{name}` a leaf but the declaration lacks "
                "CA_LEAF"))
        if a.leaf and not leaf:
            findings.append(Finding(
                a.path, a.line, "leaf-mismatch",
                f"`{name}` is annotated CA_LEAF but the manifest does not "
                "mark it a leaf"))
        if leaf and manifest_out:
            findings.append(Finding(
                LOCKS_MANIFEST, 1, "manifest-inconsistent",
                f"`{name}` is marked leaf yet has outgoing manifest edges: "
                f"{sorted(manifest_out)}"))
        findings += diff_both_ways(
            manifest_out, a.before_classes,
            lambda dst: Finding(
                a.path, a.line, "undeclared-edge",
                f"CA_ACQUIRED_BEFORE declares `{name}` -> `{dst}` but the "
                "manifest does not list that edge"),
            lambda dst: Finding(
                a.path, a.line, "unannotated-edge",
                f"manifest edge `{name}` -> `{dst}` has no matching "
                "CA_ACQUIRED_BEFORE annotation"))
    return findings, f"{len(annotations)} annotated lock classes"


def locks_runtime(manifest: dict, dump: dict, dump_rel: str) -> list[Finding]:
    declared = {c["name"]: c for c in manifest["classes"]}
    observed = {c["name"]: c for c in dump.get("classes", [])}
    # Registration alone (the CA_LOCK_CLASS static running) proves nothing
    # about coverage: only classes the workload actually *locked* carry
    # ordering evidence.  Dumps predating the counter have no "acquires"
    # key; treat those classes as acquired so old dumps stay comparable.
    acquired = {name for name, c in observed.items()
                if c.get("acquires", 1) > 0}
    edges = {(e["from"], e["to"]): e for e in dump.get("edges", [])}

    findings = diff_both_ways(
        {(e["from"], e["to"]) for e in manifest["edges"]}, edges,
        lambda k: Finding(
            dump_rel, 1, "undeclared-runtime-edge",
            f"runtime observed `{k[0]}` -> `{k[1]}` (acquired at "
            f"{edges[k].get('site', '?')}) but {LOCKS_MANIFEST} does not "
            "declare that ordering"),
        lambda k: Finding(
            LOCKS_MANIFEST, 1, "unobserved-edge",
            f"manifest declares `{k[0]}` -> `{k[1]}` but the sanctioned "
            "workload never exercised it (stale manifest?)"))
    for b in dump.get("blocking", []):
        if not declared.get(b["class"], {}).get("waive_blocking", False):
            findings.append(Finding(
                dump_rel, 1, "held-across-blocking",
                f"`{b['class']}` was held across {b['op']} at "
                f"{b.get('site', '?')} and is not waived in "
                f"{LOCKS_MANIFEST}"))
    for name in sorted(set(declared) - acquired):
        why = ("registered at runtime but was never acquired -- the graph "
               "workload does not lock it, so its declared ordering is "
               "untested" if name in observed else
               "never registered at runtime -- the graph workload does not "
               "cover its subsystem")
        findings.append(Finding(LOCKS_MANIFEST, 1, "unexercised-class",
                                f"manifest class `{name}` {why}"))
    # Runtime classes that look like production locks must be declared (the
    # suites register `test::` classes; `<unnamed>` is the shared anonymous
    # class).
    for name in sorted(set(observed) - set(declared)):
        if not name.startswith("test::") and name != "<unnamed>":
            findings.append(Finding(
                dump_rel, 1, "unknown-runtime-class",
                f"runtime registered lock class `{name}` that the manifest "
                "does not declare"))
    return findings


def locks_table(manifest: dict) -> list[str]:
    lines = ["| Mutex | Declared in | Guards | Never held across |",
             "|---|---|---|---|"]
    for c in manifest["classes"]:
        order = "leaf" if c.get("leaf", False) else "interior"
        lines.append(f"| `{c['name']}` ({order}) | `{c['header']}` "
                     f"| {c['guards']} | {c['never_held_across']} |")
    lines.append("")
    if manifest["edges"]:
        lines += ["Sanctioned acquisition order (A may be held while "
                  "acquiring B):", ""]
        lines += [f"* `{e['from']}` → `{e['to']}`" for e in manifest["edges"]]
    else:
        lines.append("The hierarchy is **flat**: every class is a leaf, the "
                     "sanctioned acquisition-order graph has **zero edges**, "
                     "and no lock is ever held across a blocking operation "
                     "(`Transfer::join()`, latch/cv waits, thread joins).")
    return lines


# --- prov schema ---------------------------------------------------------------

PROV_MANIFEST = "docs/pointer_provenance.json"

# Identifiers bound to a Region (declarations, parameters, and results of
# the region-returning data-manager queries).
REGION_DECL = re.compile(
    r"\bRegion\s*[*&]\s*(?:const\s+)?(?P<name>\w+)\b")
REGION_FROM_QUERY = re.compile(
    r"\b(?P<name>\w+)\s*=\s*[\w.>-]*"
    r"(?:allocate|getprimary|getlinked|region_on|primary)\s*\(")

# A dereference of a tracked identifier, or a chained query->data() call.
DATA_CALL = re.compile(r"\b(?P<recv>\w+)\s*(?:->|\.)\s*data\s*\(\s*\)")
CHAINED_DATA = re.compile(
    r"\b(?:getprimary|getlinked|region_on|primary)\s*\([^()]*\)\s*"
    r"(?:->|\.)\s*data\s*\(\s*\)")


def region_data_sites(raw: str) -> list[int]:
    """Line numbers (1-based) of bare Region::data() extractions in one
    translation unit.  Two passes: collect every identifier bound to a
    Region, then flag each `ident->data()` / `ident.data()` on one of them
    plus chained `getprimary(...)->data()`-style calls.  Comments and
    string literals never count."""
    code = strip_comments(raw)
    tracked = {m.group("name") for m in REGION_DECL.finditer(code)}
    tracked |= {m.group("name") for m in REGION_FROM_QUERY.finditer(code)}
    lines = {line_of(code, m.start()) for m in DATA_CALL.finditer(code)
             if m.group("recv") in tracked}
    lines |= {line_of(code, m.start()) for m in CHAINED_DATA.finditer(code)}
    return sorted(lines)


def prov_source(manifest: dict, root: Path) -> tuple[list[Finding], str]:
    # src/ only: tests and benches stage hazards on purpose.
    sites = {rel: lines for rel, text in source_files(root, ("src/ptrprov/",))
             if (lines := region_data_sites(text))}
    declared = {e["file"]: e for e in manifest["raw_data_sites"]}

    findings = diff_both_ways(
        declared, sites,
        lambda rel: Finding(
            rel, sites[rel][0], "undeclared-site",
            f"bare Region::data() extraction(s) at line(s) "
            f"{', '.join(map(str, sites[rel]))} in a file not sanctioned in "
            f"{PROV_MANIFEST}"),
        lambda rel: Finding(
            PROV_MANIFEST, 1, "stale-manifest",
            f"`{rel}` is sanctioned for bare Region::data() but no such "
            "site exists there any more"))
    for rel in sorted(set(declared) & set(sites)):
        count, lines = declared[rel].get("count"), sites[rel]
        if count is not None and count != len(lines):
            findings.append(Finding(
                rel, lines[0], "count-drift",
                f"{len(lines)} bare Region::data() site(s) found but "
                f"{PROV_MANIFEST} sanctions {count} -- a raw extraction was "
                "added or removed without updating the manifest"))
    total = sum(len(v) for v in sites.values())
    return findings, (f"{total} sanctioned bare extraction line(s) across "
                      f"{len(sites)} file(s)")


def prov_runtime(manifest: dict, dump: dict, dump_rel: str) -> list[Finding]:
    observed: dict[tuple[str, str], int] = {}
    for s in dump.get("sites", []):
        # Runtime sites are absolute `path:line`; normalize to the
        # repo-relative file by the `src/` suffix.
        path = s.get("site", "").rsplit(":", 1)[0]
        idx = path.rfind("src/")
        if idx != -1:
            key = (s.get("kind", "?"), path[idx:])
            observed[key] = observed.get(key, 0) + s.get("count", 1)
    return diff_both_ways(
        {(a["kind"], a["site"]) for a in manifest["accessors"]}, observed,
        lambda k: Finding(
            dump_rel, 1, "undeclared-site",
            f"runtime observed {observed[k]} `{k[0]}` event(s) from "
            f"`{k[1]}` but {PROV_MANIFEST} does not declare that accessor"),
        lambda k: Finding(
            PROV_MANIFEST, 1, "unexercised-site",
            f"manifest accessor `{k[1]}` ({k[0]}) was never observed by "
            "the sanctioned workload (dead route or stale manifest)"))


def prov_table(manifest: dict) -> list[str]:
    lines = ["Sanctioned bare `Region::data()` extraction sites "
             "(`count` = distinct source lines; `tools/ca_lint.py` rule "
             "`region-data-route` and `tools/manifest_check.py prov` "
             "enforce the set):", "",
             "| File | Sites | Why a bare pointer is sound here |",
             "|---|---|---|"]
    lines += [f"| `{s['file']}` | {s['count']} | {s['why']} |"
              for s in manifest["raw_data_sites"]]
    lines += ["", "Sanctioned accessors (every `dm::PinnedSpan` acquisition "
              "the shipped code performs is recorded at one of these sites; "
              "the route tests diff the observed ledger against this list):",
              "", "| Accessor site | Kind | Role |", "|---|---|---|"]
    lines += [f"| `{a['site']}` | {a['kind']} | {a['why']} |"
              for a in manifest["accessors"]]
    return lines


# --- shared run ----------------------------------------------------------------

class Schema(NamedTuple):
    manifest: str   # repo-relative manifest path
    keys: tuple[str, ...]  # manifest lists (absent means empty)
    table: str      # marker prefix of the generated table in DOC
    source: Callable[[dict, Path], tuple[list[Finding], str]]
    runtime: Callable[[dict, dict, str], list[Finding]]
    render: Callable[[dict], list[str]]


SCHEMAS = {
    "locks": Schema(LOCKS_MANIFEST, ("classes", "edges"), "lock",
                    locks_source, locks_runtime, locks_table),
    "prov": Schema(PROV_MANIFEST, ("raw_data_sites", "accessors"), "prov",
                   prov_source, prov_runtime, prov_table),
}


def load_manifest(root: Path, schema: Schema) -> dict:
    manifest = json.loads((root / schema.manifest).read_text())
    for key in schema.keys:
        manifest.setdefault(key, [])
    return manifest


def markers(name: str) -> tuple[str, str]:
    """The comment lines that bracket the schema's generated table in DOC."""
    schema = SCHEMAS[name]
    return (f"<!-- {schema.table}-table:begin (generated by "
            f"tools/manifest_check.py {name} from {schema.manifest}; edit "
            "the JSON, not this table) -->",
            f"<!-- {schema.table}-table:end -->")


def check_docs(root: Path, name: str, manifest: dict,
               write: bool = False) -> list[Finding]:
    """Splice the rendered table between the schema's markers in DOC;
    report drift, or rewrite the doc when ``write`` is set."""
    schema = SCHEMAS[name]
    begin_marker, end_marker = markers(name)
    doc_path = root / DOC
    doc = doc_path.read_text()
    begin, end = doc.find(begin_marker), doc.find(end_marker)
    if begin == -1 or end < begin:
        return [Finding(DOC, 1, "docs-markers",
                        f"`{begin_marker}` ... `{end_marker}` not found")]
    table = "\n".join([begin_marker, "", *schema.render(manifest), "",
                       end_marker])
    updated = doc[:begin] + table + doc[end + len(end_marker):]
    if updated == doc:
        return []
    if write:
        doc_path.write_text(updated)
        return []
    old, new = doc.splitlines(), updated.splitlines()
    line = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
                min(len(old), len(new))) + 1
    return [Finding(DOC, line, "docs-drift",
                    f"the {schema.table} table is out of sync with "
                    f"{schema.manifest}; run tools/manifest_check.py {name} "
                    "--write-docs")]


def run(name: str, dump: Path | None, write_docs: bool) -> int:
    schema = SCHEMAS[name]
    manifest = load_manifest(ROOT, schema)
    findings, summary = schema.source(manifest, ROOT)
    findings += check_docs(ROOT, name, manifest, write=write_docs)
    checked = "source+docs" + (" rewritten" if write_docs else "")
    if dump is not None:
        if not dump.exists():
            print(f"manifest_check {name}: dump {dump} not found",
                  file=sys.stderr)
            return 2
        findings += schema.runtime(manifest, json.loads(dump.read_text()),
                                   dump.as_posix())
        checked += "+runtime"
    for f in findings:
        print(f)
    if findings:
        print(f"manifest_check {name}: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"manifest_check {name}: clean ({checked}; {summary})")
    return 0


# --- self-test -----------------------------------------------------------------

LOCKS_HEADER = """\
#include "util/thread_annotations.hpp"
class Pool {
  // a sync::mutex mention in a comment is fine
  sync::mutex mu_ CA_LEAF{CA_LOCK_CLASS("test::Pool::mu_")};
  sync::mutex outer_ CA_ACQUIRED_BEFORE(mu_){CA_LOCK_CLASS("test::Pool::outer_")};
};
"""

LOCKS_UNNAMED = """\
class Rogue {
  sync::mutex mu_;
};
"""

LOCKS_FIXTURE = {
    "classes": [
        {"name": "test::Pool::mu_", "header": "src/util/pool.hpp",
         "leaf": True, "waive_blocking": False,
         "guards": "`tasks_`", "never_held_across": "joins"},
        {"name": "test::Pool::outer_", "header": "src/util/pool.hpp",
         "leaf": False, "waive_blocking": False,
         "guards": "`mu_` holders", "never_held_across": "joins"},
    ],
    "edges": [{"from": "test::Pool::outer_", "to": "test::Pool::mu_"}],
}

LOCKS_DUMP_CLEAN = {
    "classes": [{"name": "test::Pool::mu_", "acquires": 12},
                {"name": "test::Pool::outer_", "acquires": 3}],
    "edges": [{"from": "test::Pool::outer_", "to": "test::Pool::mu_",
               "site": "pool.cpp:10"}],
    "blocking": [],
}

# Registered (the CA_LOCK_CLASS static ran) but never locked: the edge is
# still observed -- from an earlier, unsanctioned schedule say -- yet the
# sanctioned workload holds zero acquisitions of outer_.
LOCKS_DUMP_UNACQUIRED = {
    "classes": [{"name": "test::Pool::mu_", "acquires": 12},
                {"name": "test::Pool::outer_", "acquires": 0}],
    "edges": [{"from": "test::Pool::outer_", "to": "test::Pool::mu_",
               "site": "pool.cpp:10"}],
    "blocking": [],
}

LOCKS_DUMP_ROGUE = {
    "classes": [{"name": "test::Pool::mu_"}, {"name": "test::Pool::outer_"}],
    "edges": [
        {"from": "test::Pool::outer_", "to": "test::Pool::mu_",
         "site": "pool.cpp:10"},
        {"from": "test::Pool::mu_", "to": "test::Pool::outer_",
         "site": "pool.cpp:99"},
    ],
    "blocking": [{"class": "test::Pool::mu_", "op": "mem::Transfer::join",
                  "site": "pool.cpp:50"}],
}

PROV_CLEAN = """\
#include "dm/object.hpp"
// a dst.data() mention in a comment must not count
void feed(Region& dst, Region& src) {
  const char* msg = "src.data() in a string must not count";
  engine.copy(dst.data(), src.data());
}
"""

PROV_ROGUE = """\
#include "dm/object.hpp"
float* sneak(dm::DataManager& dm, dm::Object& o) {
  auto* primary = dm.getprimary(o);
  use(dm.getprimary(o)->data());
  return reinterpret_cast<float*>(primary->data());
}
"""

PROV_FIXTURE = {
    "raw_data_sites": [
        # `count` sanctions unique site LINES (the two extractions in the
        # clean fixture share line 5).
        {"file": "src/mem/feed.cpp", "count": 1, "why": "copy-engine feed"},
    ],
    "accessors": [
        {"site": "src/core/cached_array.hpp", "kind": "acquire",
         "why": "bracket"},
    ],
}

PROV_DUMP_CLEAN = {
    "sites": [
        {"kind": "acquire", "site": "/x/src/core/cached_array.hpp:126",
         "count": 4},
        {"kind": "acquire", "site": "/x/tests/route_test.cpp:33",
         "count": 1},
    ],
}

PROV_DUMP_ROGUE = {
    "sites": [
        {"kind": "acquire", "site": "/x/src/policy/rogue_policy.cpp:77",
         "count": 1},
    ],
}


def rules(findings: list[Finding]) -> set[str]:
    return {f.rule for f in findings}


def write(root: Path, rel: str, text: str) -> None:
    (root / rel).parent.mkdir(parents=True, exist_ok=True)
    (root / rel).write_text(text)


def selftest_locks_source(root: Path) -> Iterator[str]:
    write(root, "src/util/pool.hpp", LOCKS_HEADER)
    annotations, _ = parse_annotations(root)
    classes = {a.cls: a for a in annotations}
    if sorted(classes) != ["test::Pool::mu_", "test::Pool::outer_"]:
        yield f"expected 2 annotated classes, got {sorted(classes)}"
    elif classes["test::Pool::outer_"].before_classes != ["test::Pool::mu_"]:
        yield "CA_ACQUIRED_BEFORE member did not resolve to its class name"
    clean, _ = locks_source(LOCKS_FIXTURE, root)
    if clean:
        yield f"clean fixture produced findings: {clean[0]}"
    # Drift: a class annotated in source but dropped from the manifest.
    found = rules(locks_source({"classes": LOCKS_FIXTURE["classes"][:1],
                                "edges": []}, root)[0])
    if "undeclared-class" not in found:
        yield f"dropped manifest class not detected, rules={sorted(found)}"
    # Drift: an edge annotated via CA_ACQUIRED_BEFORE but not declared.
    found = rules(locks_source({"classes": LOCKS_FIXTURE["classes"],
                                "edges": []}, root)[0])
    if "undeclared-edge" not in found:
        yield f"undeclared annotation edge not detected, rules={sorted(found)}"
    write(root, "src/util/rogue.hpp", LOCKS_UNNAMED)
    if "unnamed-mutex" not in rules(locks_source(LOCKS_FIXTURE, root)[0]):
        yield "unnamed production mutex not detected"


def selftest_locks_runtime(root: Path) -> Iterator[str]:
    clean = locks_runtime(LOCKS_FIXTURE, LOCKS_DUMP_CLEAN, "dump.json")
    if clean:
        yield f"clean graph diff not empty: {clean[0]}"
    found = rules(locks_runtime(LOCKS_FIXTURE, LOCKS_DUMP_ROGUE, "dump.json"))
    for rule in ("undeclared-runtime-edge", "held-across-blocking"):
        if rule not in found:
            yield f"{rule} not flagged, rules={sorted(found)}"
    # A class that registered but was never locked must count as
    # unexercised even though it appears in the dump's class list.
    unacq = locks_runtime(LOCKS_FIXTURE, LOCKS_DUMP_UNACQUIRED, "dump.json")
    if not any(f.rule == "unexercised-class" and "never acquired" in f.message
               for f in unacq):
        yield ("registered-but-never-acquired class not flagged: "
               f"{[str(f) for f in unacq]}")


def selftest_prov_source(root: Path) -> Iterator[str]:
    write(root, "src/mem/feed.cpp", PROV_CLEAN)
    if region_data_sites(PROV_CLEAN) != [5]:
        yield (f"source scan found {region_data_sites(PROV_CLEAN)}, want [5] "
               "(comment/string sites must not count; line 5 holds two)")
    if region_data_sites(PROV_ROGUE) != [4, 5]:
        yield (f"source scan found {region_data_sites(PROV_ROGUE)}, want "
               "[4, 5] (a chained and a query-bound extraction)")
    clean, _ = prov_source(PROV_FIXTURE, root)
    if clean:
        yield f"clean source diff not empty: {clean[0]}"
    # Drift: one extra extraction line in a sanctioned file.
    write(root, "src/mem/feed.cpp",
          PROV_CLEAN + "\nvoid g(Region* r) { r->data(); }\n")
    found = rules(prov_source(PROV_FIXTURE, root)[0])
    if "count-drift" not in found:
        yield f"added extraction not detected, rules={sorted(found)}"
    # Drift: a bare extraction in an unsanctioned file.
    write(root, "src/mem/feed.cpp", PROV_CLEAN)
    write(root, "src/policy/rogue.cpp", PROV_ROGUE)
    found = rules(prov_source(PROV_FIXTURE, root)[0])
    if "undeclared-site" not in found:
        yield f"unsanctioned extraction not detected, rules={sorted(found)}"
    # Drift: the sanctioned file loses its extraction (stale entry).
    (root / "src/policy/rogue.cpp").unlink()
    write(root, "src/mem/feed.cpp", "// nothing left\n")
    found = rules(prov_source(PROV_FIXTURE, root)[0])
    if "stale-manifest" not in found:
        yield f"stale manifest entry not detected, rules={sorted(found)}"


def selftest_prov_runtime(root: Path) -> Iterator[str]:
    clean = prov_runtime(PROV_FIXTURE, PROV_DUMP_CLEAN, "dump.json")
    if clean:
        yield f"clean runtime diff not empty: {clean[0]}"
    found = rules(prov_runtime(PROV_FIXTURE, PROV_DUMP_ROGUE, "dump.json"))
    for rule in ("undeclared-site", "unexercised-site"):
        if rule not in found:
            yield f"{rule} not flagged, rules={sorted(found)}"


def selftest_docs(root: Path) -> Iterator[str]:
    fixtures = {"locks": LOCKS_FIXTURE, "prov": PROV_FIXTURE}
    write(root, DOC, "# no generated tables\n")
    if "docs-markers" not in rules(check_docs(root, "locks", LOCKS_FIXTURE)):
        yield "a doc without the table markers was not flagged"
    write(root, DOC, "".join(f"{begin}\n{end}\ntail\n"
                             for begin, end in map(markers, fixtures)))
    for name, manifest in fixtures.items():
        check_docs(root, name, manifest, write=True)
    text = (root / DOC).read_text()
    for name, manifest in fixtures.items():
        if check_docs(root, name, manifest):
            yield f"{name}: a freshly written table reported as drift"
        # Drift: a hand-edited row of the generated table.
        row = next(r for r in SCHEMAS[name].render(manifest)
                   if r.startswith("| `"))
        write(root, DOC, text.replace(row, row.replace("|", "| edited", 1)))
        if "docs-drift" not in rules(check_docs(root, name, manifest)):
            yield f"{name}: a hand-edited table row was not flagged"
        write(root, DOC, text)


SELF_TESTS = (selftest_locks_source, selftest_locks_runtime,
              selftest_prov_source, selftest_prov_runtime, selftest_docs)


def self_test() -> int:
    """Every case must stay green on its clean fixture and go red on each
    planted drift."""
    import tempfile

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in SELF_TESTS:
            root = Path(tmp) / case.__name__
            root.mkdir()
            failures += [f"{case.__name__}: {msg}" for msg in case(root)]
    for f in failures:
        print(f"manifest_check --self-test: {f}", file=sys.stderr)
    if failures:
        return 1
    print(f"manifest_check --self-test: ok ({len(SELF_TESTS)} cases)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("schema", nargs="?", choices=sorted(SCHEMAS),
                        help="which manifest to check")
    parser.add_argument("--dump", type=Path,
                        help="runtime dump (CA_LOCKDEP_DUMP / CA_PTRPROV_DUMP "
                             "output) to diff against the manifest as well")
    parser.add_argument("--write-docs", action="store_true",
                        help="rewrite the generated table in " + DOC +
                             " instead of checking it")
    parser.add_argument("--self-test", action="store_true",
                        help="run the checker's own drift tests and exit")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.schema is None:
        parser.error("a schema (locks or prov) or --self-test is required")
    return run(args.schema, args.dump, args.write_docs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

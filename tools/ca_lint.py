#!/usr/bin/env python3
"""ca_lint: repository-rule linter for the data-management core.

Eight rules that clang-tidy cannot express, enforced over src/:

  byte-copy-route
      Raw ``memcpy``/``memmove`` and raw ``std::thread`` are confined to
      src/mem, src/util and src/race.  Everything else moves bytes through
      ``util::copy_bytes``/``util::move_bytes`` (src/util/bytes.hpp), which
      are instrumented for the race detector, and spawns threads through
      the ``ca::sync`` lifecycle shims (src/race/sync.hpp), which keep the
      schedule explorer's task set deterministic.

  wall-clock
      No wall-clock source (std::chrono clocks, time(), gettimeofday,
      clock_gettime) anywhere in src/: all time is simulated seconds from
      ``sim::Clock`` so every result is host-independent and every bench is
      bit-for-bit deterministic.  Benches and tests may measure wall time;
      the model must not.

  dm-audit
      Every public mutating DataManager method (src/dm/data_manager.cpp)
      ends its success path with ``CA_AUDIT(*this)`` so Debug/CA_AUDIT
      builds verify the cross-structure invariants at every mutation
      boundary.

  kernel-scratch-route
      The fast compute-kernel sources (src/dnn/ops_real.cpp,
      src/dnn/gemm.cpp) run on ThreadPool workers and copy rows into
      per-thread scratch buffers; those bulk copies must go through
      ``util::copy_bytes`` -- not ``std::copy``/``std::copy_n``/``memcpy``
      -- so the race detector sees every scratch handoff and TSan/CA_RACE
      coverage of the kernel tier stays meaningful.

  intrusive-links
      The binned free lists thread intrusive ``bin_next``/``bin_prev``
      links through allocator nodes; every write to those links must stay
      inside src/mem/freelist_allocator.cpp (the list owner), where
      check_invariants() and ca::audit can vouch for them.  Other src/
      code reads the allocator through its public views only -- a stray
      link write elsewhere would bypass the bin bitmap and the membership
      invariants.

  simd-intrinsics-route
      x86 vector intrinsics (``_mm*``, ``__m128/__m256/__m512`` vector
      types, ``__builtin_ia32_*``) are confined to src/simd, the one
      subsystem compiled per-ISA and guarded by runtime CPUID dispatch.
      An intrinsic anywhere else either breaks the CA_NATIVE=OFF baseline
      build or executes unguarded on hosts without the ISA; everything
      outside reaches vector width through the dispatched providers
      (simd::gemm_tile, simd::copy_bytes).  ``__builtin_ia32_pause`` is
      exempt: it lowers to ``pause`` on every x86 and is the sanctioned
      spin-loop hint (util/completion_latch.hpp).

  comm-route
      Wire-byte movement inside src/comm (the allreduce gather/sum/scatter
      and any future collective) is confined to ``util::copy_bytes``: raw
      ``memcpy``/``memmove``, ``std::copy*`` and the NT-store
      ``simd::copy_bytes`` path are all forbidden there.  The comm engine's
      reductions run on pool threads against pinned gradient buckets; only
      the instrumented funnel gives the race detector (and TSan) the full
      access pattern, and the NT path's fence semantics are owned by the
      copy engine, not the comm layer.

  region-data-route
      Bare ``Region::data()`` extractions are confined to the files
      sanctioned by docs/pointer_provenance.json (the manager's own
      machinery and the PinnedSpan accessor).  Everywhere
      else reaches bytes through ``dm::PinnedSpan`` so the ``ca::ptrprov``
      analyzer can prove the pointer never outlives its pin (paper SIII-C
      pin discipline).  ``tools/manifest_check.py prov`` audits the
      sanctioned files themselves (per-line counts, runtime diff); this
      rule guards the perimeter.

A finding can be waived on its own line with a trailing
``// ca_lint: allow(<rule>)`` comment; use sparingly and say why nearby.

Usage: tools/ca_lint.py [--self-test]
Exit status: 0 clean, 1 findings, 2 usage/setup error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from manifest_check import (PROV_MANIFEST, ROOT, Finding, region_data_sites,
                            source_files, strip_comments)

# Directories (relative to the repo root) where rule `byte-copy-route`
# permits the raw primitives: the sanctioned implementations themselves.
BYTE_COPY_ALLOWED_DIRS = ("src/mem/", "src/util/", "src/race/", "src/simd/")

BYTE_COPY_TOKENS = re.compile(r"\b(?:std::)?(memcpy|memmove)\s*\(|\bstd::thread\b")

WALL_CLOCK_TOKENS = re.compile(
    r"std::chrono|steady_clock|system_clock|high_resolution_clock"
    r"|\bgettimeofday\s*\(|\bclock_gettime\s*\(|\bstd::time\s*\(|\btime\s*\(\s*(?:NULL|nullptr)\s*\)"
)

# Public DataManager methods that mutate manager state.  Query/introspection
# methods (device_stats, owns_region, ...) are exempt by omission; keep this
# list in sync with the "mutating" half of dm/data_manager.hpp.
DM_MUTATORS = (
    "create_object",
    "destroy_object",
    "setprimary",
    "unpin",
    "allocate",
    "free",
    "copyto",
    "copyto_async",
    "wait_ready",
    "retire_transfers",
    "drain_transfers",
    "link",
    "unlink",
    "evictfrom",
    "defragment",
)

WAIVER = re.compile(r"//\s*ca_lint:\s*allow\(([a-z-]+)\)")

# Rule `kernel-scratch-route`: the fast-kernel translation units, and the
# bulk-copy primitives they must not reach for (util::copy_bytes only).
KERNEL_SCRATCH_FILES = ("src/dnn/ops_real.cpp", "src/dnn/gemm.cpp")

KERNEL_SCRATCH_TOKENS = re.compile(
    r"\bstd::copy(?:_n|_backward)?\s*\(|\b(?:std::)?(?:memcpy|memmove)\s*\(")

# Rule `intrusive-links`: the only translation unit allowed to write the
# intrusive per-bin list links.
INTRUSIVE_LINK_ALLOWED = ("src/mem/freelist_allocator.cpp",)

INTRUSIVE_LINK_TOKENS = re.compile(r"(?:\.|->)bin_(?:next|prev)\s*=(?!=)")

# Rule `simd-intrinsics-route`: the one directory compiled per-ISA behind
# runtime dispatch, and the intrinsic spellings confined to it.  The
# negative lookahead exempts __builtin_ia32_pause (the portable spin hint).
SIMD_INTRINSICS_ALLOWED_DIRS = ("src/simd/",)

SIMD_INTRINSICS_TOKENS = re.compile(
    r"\b_mm\d{0,3}_\w+\s*\(|\b__m(?:64|128|256|512)[di]?\b"
    r"|\b__builtin_ia32_(?!pause\b)\w+")


# Rule `comm-route`: the comm subsystem's one sanctioned byte funnel is
# util::copy_bytes; every raw or alternate copy primitive is forbidden
# there (memcpy/memmove are also caught by byte-copy-route -- this rule
# additionally closes the std::copy* and simd::copy_bytes routes).
COMM_ROUTE_DIRS = ("src/comm/",)

COMM_ROUTE_TOKENS = re.compile(
    r"\bsimd::copy_bytes\s*\(|\bstd::copy(?:_n|_backward)?\s*\("
    r"|\b(?:std::)?(?:memcpy|memmove)\s*\(")


def waived_lines(text: str, rule: str) -> set[int]:
    lines = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = WAIVER.search(line)
        if m and m.group(1) == rule:
            lines.add(lineno)
    return lines


def scan_tokens(rel: str, text: str, rule: str, pattern: re.Pattern,
                message: str) -> list[Finding]:
    waived = waived_lines(text, rule)
    findings = []
    for lineno, line in enumerate(strip_comments(text).splitlines(), start=1):
        m = pattern.search(line)
        if m and lineno not in waived:
            token = m.group(0).rstrip("(").strip()
            findings.append(Finding(rel, lineno, rule, f"{message} (found `{token}`)"))
    return findings


def check_byte_copy_route(root: Path) -> list[Finding]:
    findings = []
    for rel, text in source_files(root, BYTE_COPY_ALLOWED_DIRS):
        findings += scan_tokens(
            rel, text, "byte-copy-route", BYTE_COPY_TOKENS,
            "raw byte copies / threads live in src/mem, src/util, src/race only; "
            "use util::copy_bytes/move_bytes or the ca::sync lifecycle shims")
    return findings


def check_wall_clock(root: Path) -> list[Finding]:
    findings = []
    for rel, text in source_files(root, ()):
        findings += scan_tokens(
            rel, text, "wall-clock", WALL_CLOCK_TOKENS,
            "wall-clock reads are forbidden in src/; all time is simulated "
            "seconds from sim::Clock")
    return findings


def method_body(code: str, name: str) -> tuple[int, str] | None:
    """Locate `DataManager::name(...) ... { body }` in comment-stripped
    code; returns (line of the definition, body text) or None."""
    pattern = re.compile(r"DataManager::" + re.escape(name) + r"\s*\(")
    for m in pattern.finditer(code):
        open_brace = code.find("{", m.end())
        semi = code.find(";", m.end())
        if open_brace == -1 or (semi != -1 and semi < open_brace):
            continue  # a declaration or a mention, not a definition
        depth = 0
        for i in range(open_brace, len(code)):
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
                if depth == 0:
                    line = code.count("\n", 0, m.start()) + 1
                    return line, code[open_brace:i + 1]
    return None


def check_dm_audit(root: Path) -> list[Finding]:
    rel = "src/dm/data_manager.cpp"
    path = root / rel
    if not path.exists():
        return [Finding(rel, 1, "dm-audit", "file not found")]
    text = path.read_text()
    code = strip_comments(text)
    waived = waived_lines(text, "dm-audit")
    findings = []
    for name in DM_MUTATORS:
        located = method_body(code, name)
        if located is None:
            findings.append(Finding(rel, 1, "dm-audit",
                                    f"mutating method `{name}` not found "
                                    "(update DM_MUTATORS in tools/ca_lint.py)"))
            continue
        line, body = located
        if "CA_AUDIT(" not in body and line not in waived:
            findings.append(Finding(
                rel, line, "dm-audit",
                f"public mutating method `{name}` must end with CA_AUDIT(*this)"))
    return findings


def check_kernel_scratch_route(root: Path) -> list[Finding]:
    findings = []
    for rel in KERNEL_SCRATCH_FILES:
        path = root / rel
        if not path.exists():
            continue  # the kernel tier may not exist yet in partial trees
        findings += scan_tokens(
            rel, path.read_text(), "kernel-scratch-route",
            KERNEL_SCRATCH_TOKENS,
            "kernel scratch copies must route through util::copy_bytes so "
            "the race detector sees the per-thread scratch handoff")
    return findings


def check_intrusive_links(root: Path) -> list[Finding]:
    findings = []
    for rel, text in source_files(root, INTRUSIVE_LINK_ALLOWED):
        findings += scan_tokens(
            rel, text, "intrusive-links", INTRUSIVE_LINK_TOKENS,
            "bin_next/bin_prev writes are confined to "
            "src/mem/freelist_allocator.cpp; use the allocator's public "
            "surface")
    return findings


def check_simd_intrinsics_route(root: Path) -> list[Finding]:
    findings = []
    for rel, text in source_files(root, SIMD_INTRINSICS_ALLOWED_DIRS):
        findings += scan_tokens(
            rel, text, "simd-intrinsics-route", SIMD_INTRINSICS_TOKENS,
            "x86 intrinsics are confined to src/simd (per-ISA TUs behind "
            "runtime dispatch); use simd::gemm_tile / simd::copy_bytes")
    return findings


def check_comm_route(root: Path) -> list[Finding]:
    findings = []
    for rel, text in source_files(root, ()):
        if not rel.startswith(COMM_ROUTE_DIRS):
            continue
        findings += scan_tokens(
            rel, text, "comm-route", COMM_ROUTE_TOKENS,
            "wire-byte movement in src/comm must route through "
            "util::copy_bytes (the race-instrumented funnel); raw "
            "copies and the NT simd path hide the reduction's "
            "gather/sum/scatter accesses from the detector")
    return findings


def check_region_data_route(root: Path) -> list[Finding]:
    import json
    manifest_path = root / PROV_MANIFEST
    if not manifest_path.exists():
        return [Finding(PROV_MANIFEST, 1, "region-data-route",
                        "manifest not found")]
    manifest = json.loads(manifest_path.read_text())
    # The sanctioned files are audited by `manifest_check.py prov`, the
    # analyzer by its own suite.
    skip = tuple(s["file"] for s in manifest.get("raw_data_sites", []))
    findings = []
    for rel, text in source_files(root, skip + ("src/ptrprov/",)):
        waived = waived_lines(text, "region-data-route")
        for lineno in sorted(set(region_data_sites(text)) - waived):
            findings.append(Finding(
                rel, lineno, "region-data-route",
                "bare Region::data() outside the files sanctioned by "
                "docs/pointer_provenance.json; access bytes through "
                "dm::PinnedSpan (DataManager::access) so ca::ptrprov can "
                "track the pointer's provenance"))
    return findings


# --- self-test ---------------------------------------------------------------

SELF_TEST_BAD = """\
void im2col(float* col, const float* x, unsigned n) {
  std::copy(x, x + n, col);
  std::copy_n(x, n, col);
  memcpy(col, x, n * sizeof(float));
}
"""

SELF_TEST_GOOD = """\
#include "util/bytes.hpp"
void im2col(float* col, const float* x, unsigned n) {
  util::copy_bytes(col, x, n * sizeof(float), "ops::im2col");
  // a std::copy mention in a comment is fine
  std::copy(x, x + n, col);  // ca_lint: allow(kernel-scratch-route)
}
"""

SELF_TEST_LINKS_BAD = """\
void poke(Node* n, Node& m) {
  n->bin_next = 0;
  m.bin_prev = 1;
}
"""

SELF_TEST_LINKS_GOOD = """\
bool same(const Node& a, const Node& b) {
  // a bin_next mention in a comment is fine, and comparisons are reads:
  if (a.bin_next == b.bin_next) return true;
  return false;
}
void waived(Node* n) {
  n->bin_next = 0;  // ca_lint: allow(intrusive-links)
}
"""

SELF_TEST_SIMD_BAD = """\
#include <immintrin.h>
void hot(float* c, const float* a, const float* b) {
  __m256 va = _mm256_loadu_ps(a);
  __m256 vb = _mm256_loadu_ps(b);
  _mm256_storeu_ps(c, _mm256_fmadd_ps(va, vb, _mm256_setzero_ps()));
  __builtin_ia32_sfence();
}
"""

SELF_TEST_SIMD_GOOD = """\
#include "simd/copy.hpp"
void cool(float* c, const float* a, unsigned n) {
  // an _mm256_stream_si256( mention in a comment is fine, as is __m512i
  const char* kDoc = "_mm_sfence( in a string is fine too";
  ca::simd::copy_bytes(c, a, n);
  for (;;) __builtin_ia32_pause();  // the sanctioned spin hint
}
void waived(float* p) {
  _mm_prefetch(p, 1);  // ca_lint: allow(simd-intrinsics-route)
}
"""

# Rules must scan comment/string-stripped code: every token below sits in a
# comment or a string literal and none may produce a finding...
SELF_TEST_STRIPPED_CLEAN = """\
// Routing note: never call memcpy(dst, src, n) here; use util::copy_bytes.
/* std::chrono::steady_clock would break determinism -- see sim::Clock.
   So would memmove(a, b, n) outside src/mem.  And std::thread. */
const char* kDoc =
    "policy may not memcpy( regions; std::chrono is banned in src/";
const char kOneChar = '"';  // an unmatched quote inside a char literal
inline int simulated_now() { return 0; }
"""

# ...while the same tokens in live code must all be flagged.
SELF_TEST_STRIPPED_BAD = """\
#include <chrono>
void tick(void* dst, const void* src, unsigned n) {
  memcpy(dst, src, n);
  auto t0 = std::chrono::steady_clock::now();
  (void)t0;
}
"""


SELF_TEST_PROV_BAD = """\
void rogue(Region* r, DataManager& dm, Object& obj) {
  std::byte* p = r->data();
  std::byte* q = dm.getprimary(obj)->data();
  use(p, q);
}
"""

SELF_TEST_PROV_GOOD = """\
void fine(Region* r, std::vector<std::byte>& buf) {
  // a r->data() mention in a comment is fine
  const char* kDoc = "and getprimary(o)->data() in a string is fine too";
  use(buf.data());  // not a Region receiver: untracked identifier
  std::byte* p = r->data();  // ca_lint: allow(region-data-route)
  use(p, kDoc);
}
"""

SELF_TEST_PROV_MANIFEST = """\
{"version": 1,
 "raw_data_sites": [{"file": "src/dm/pinned_span.hpp", "count": 1}],
 "accessors": []}
"""

SELF_TEST_COMM_BAD = """\
void reduce(std::byte* dst, const std::byte* src, unsigned n) {
  simd::copy_bytes(dst, src, n);
  std::copy_n(src, n, dst);
  memcpy(dst, src, n);
}
"""

SELF_TEST_COMM_GOOD = """\
#include "util/bytes.hpp"
void reduce(std::byte* dst, const std::byte* src, unsigned n) {
  // a memcpy( or simd::copy_bytes( mention in a comment is fine
  const char* kDoc = "and std::copy( in a string is fine too";
  util::copy_bytes(dst, src, n, "comm::reduce");
  memcpy(dst, src, n);  // ca_lint: allow(comm-route)
  use(kDoc);
}
"""


def self_test() -> int:
    """Negative-test the rules against in-memory fixtures: the bad snippet
    must trip `kernel-scratch-route`; the waived/commented one must not."""
    import tempfile

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        kernel = root / "src" / "dnn"
        kernel.mkdir(parents=True)
        (root / "src" / "dm").mkdir(parents=True)

        (kernel / "ops_real.cpp").write_text(SELF_TEST_BAD)
        (kernel / "gemm.cpp").write_text(SELF_TEST_GOOD)
        findings = check_kernel_scratch_route(root)
        bad = [f for f in findings if f.path.endswith("ops_real.cpp")]
        good = [f for f in findings if f.path.endswith("gemm.cpp")]
        if len(bad) != 3:
            failures.append(
                f"kernel-scratch-route: expected 3 findings in the bad "
                f"fixture, got {len(bad)}")
        if good:
            failures.append(
                f"kernel-scratch-route: waiver/comment fixture produced "
                f"{len(good)} finding(s)")

        mem = root / "src" / "mem"
        mem.mkdir(parents=True)
        (root / "src" / "dm" / "poker.cpp").write_text(SELF_TEST_LINKS_BAD)
        (mem / "freelist_allocator.cpp").write_text(SELF_TEST_LINKS_BAD)
        (root / "src" / "dm" / "reader.cpp").write_text(SELF_TEST_LINKS_GOOD)
        link_findings = check_intrusive_links(root)
        link_bad = [f for f in link_findings
                    if f.path.endswith("poker.cpp")]
        link_other = [f for f in link_findings
                      if not f.path.endswith("poker.cpp")]
        if len(link_bad) != 2:
            failures.append(
                f"intrusive-links: expected 2 findings in the bad fixture, "
                f"got {len(link_bad)}")
        if link_other:
            failures.append(
                f"intrusive-links: owner/waiver/read fixtures produced "
                f"{len(link_other)} finding(s)")

        # Comment/string stripping: memcpy and std::chrono inside comments
        # and string literals are not findings; the same tokens in live
        # code are.  (byte-copy-route and wall-clock both scan src/policy.)
        policy = root / "src" / "policy"
        policy.mkdir(parents=True)
        (policy / "notes.cpp").write_text(SELF_TEST_STRIPPED_CLEAN)
        (policy / "ticker.cpp").write_text(SELF_TEST_STRIPPED_BAD)
        stripped = check_byte_copy_route(root) + check_wall_clock(root)
        clean_hits = [f for f in stripped
                      if f.path.endswith("notes.cpp")]
        bad_hits = {(f.rule, f.line) for f in stripped
                    if f.path.endswith("ticker.cpp")}
        if clean_hits:
            failures.append(
                "stripping: tokens in comments/strings produced "
                f"{len(clean_hits)} finding(s): {clean_hits[0]}")
        if bad_hits != {("byte-copy-route", 3), ("wall-clock", 4)}:
            failures.append(
                f"stripping: live-code fixture expected byte-copy-route@3 "
                f"and wall-clock@4, got {sorted(bad_hits)}")

        # simd-intrinsics-route: live intrinsics outside src/simd are
        # flagged (one per line); the same spellings in comments/strings,
        # the pause hint, a waived line, and anything under src/simd are
        # not.
        simd_dir = root / "src" / "simd"
        simd_dir.mkdir(parents=True)
        (root / "src" / "dnn" / "vector_hot.cpp").write_text(SELF_TEST_SIMD_BAD)
        (root / "src" / "dnn" / "vector_cool.cpp").write_text(
            SELF_TEST_SIMD_GOOD)
        (simd_dir / "native.cpp").write_text(SELF_TEST_SIMD_BAD)
        simd_findings = check_simd_intrinsics_route(root)
        simd_bad = [f for f in simd_findings
                    if f.path.endswith("vector_hot.cpp")]
        simd_other = [f for f in simd_findings
                      if not f.path.endswith("vector_hot.cpp")]
        if len(simd_bad) != 4:
            failures.append(
                f"simd-intrinsics-route: expected 4 findings in the bad "
                f"fixture, got {len(simd_bad)}")
        if simd_other:
            failures.append(
                f"simd-intrinsics-route: comment/string/pause/waiver/owner "
                f"fixtures produced {len(simd_other)} finding(s): "
                f"{simd_other[0]}")

        # region-data-route: bare extractions outside the manifest's files
        # are flagged (one per line); extractions in comments/strings, on
        # non-Region receivers, on waived lines, or inside a sanctioned
        # file are not.
        (root / "docs").mkdir()
        (root / "docs" / "pointer_provenance.json").write_text(
            SELF_TEST_PROV_MANIFEST)
        (root / "src" / "policy" / "rogue.cpp").write_text(SELF_TEST_PROV_BAD)
        (root / "src" / "policy" / "fine.cpp").write_text(SELF_TEST_PROV_GOOD)
        (root / "src" / "dm" / "pinned_span.hpp").write_text(
            SELF_TEST_PROV_BAD)
        prov_findings = check_region_data_route(root)
        prov_bad = [f for f in prov_findings
                    if f.path.endswith("rogue.cpp")]
        prov_other = [f for f in prov_findings
                      if not f.path.endswith("rogue.cpp")]
        if len(prov_bad) != 2:
            failures.append(
                f"region-data-route: expected 2 findings in the bad "
                f"fixture, got {len(prov_bad)}")
        if prov_other:
            failures.append(
                f"region-data-route: comment/string/waiver/sanctioned "
                f"fixtures produced {len(prov_other)} finding(s): "
                f"{prov_other[0]}")

        # comm-route: live copy primitives inside src/comm are flagged (one
        # per line); the util::copy_bytes funnel, comment/string mentions,
        # and waived lines are not.
        comm_dir = root / "src" / "comm"
        comm_dir.mkdir(parents=True)
        (comm_dir / "bad_engine.cpp").write_text(SELF_TEST_COMM_BAD)
        (comm_dir / "good_engine.cpp").write_text(SELF_TEST_COMM_GOOD)
        comm_findings = check_comm_route(root)
        comm_bad = [f for f in comm_findings
                    if f.path.endswith("bad_engine.cpp")]
        comm_other = [f for f in comm_findings
                      if not f.path.endswith("bad_engine.cpp")]
        if len(comm_bad) != 3:
            failures.append(
                f"comm-route: expected 3 findings in the bad fixture, got "
                f"{len(comm_bad)}")
        if comm_other:
            failures.append(
                f"comm-route: funnel/comment/string/waiver fixtures "
                f"produced {len(comm_other)} finding(s): {comm_other[0]}")

    for f in failures:
        print(f"ca_lint --self-test: {f}", file=sys.stderr)
    if failures:
        return 1
    print("ca_lint --self-test: ok")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="run the linter's own negative tests and exit")
    if parser.parse_args(argv).self_test:
        return self_test()

    findings = (check_byte_copy_route(ROOT) + check_wall_clock(ROOT) +
                check_dm_audit(ROOT) + check_kernel_scratch_route(ROOT) +
                check_intrusive_links(ROOT) +
                check_simd_intrinsics_route(ROOT) +
                check_comm_route(ROOT) +
                check_region_data_route(ROOT))
    for finding in findings:
        print(finding)
    if findings:
        print(f"ca_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("ca_lint: clean (byte-copy-route, wall-clock, dm-audit, "
          "kernel-scratch-route, intrusive-links, simd-intrinsics-route, "
          "comm-route, region-data-route)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""dap_lint self-test: seeded violations, suppressions, lexer edges.

Each case seeds a scratch file and asserts the exact rule set the
linter reports. Coverage contract:

  * every rule has at least one violating case and one case where a
    `// lint: allow(<rule>): <reason>` suppression silences it;
  * legacy `// dap-lint: allow(...)` markers (and their old rule
    aliases) still suppress;
  * tokenizer edges: banned calls inside raw strings and inside
    line-spliced comments are NOT flagged; macro bodies ARE scanned;
    a suppression marker inside a string literal does NOT suppress;
  * the layering fixtures include a doctored back edge (wire -> dap),
    both as an #include and as a dap_wire -> dap_dap library link, and
    the layering table itself is checked to be acyclic.
"""

import pathlib
import tempfile

from . import layering
from .engine import format_finding, run_lint

CASES = [
    # ---------------------------------------------------- legacy rules
    ("src/crypto/bad_ct.cc",
     '#include "crypto/bad_ct.h"\n'
     "bool f(dap::common::ByteView a, dap::common::ByteView b) {\n"
     "  return common::equal(a, b);\n"
     "}\n",
     {"constant-time"}),
    ("src/sim/bad_rng.cc",
     '#include "sim/bad_rng.h"\n'
     "int f() { return rand(); }\n",
     {"determinism"}),
    ("src/dap/bad_clock.cc",
     '#include "dap/bad_clock.h"\n'
     "#include <chrono>\n"
     "auto f() { return std::chrono::system_clock::now(); }\n",
     {"determinism"}),
    ("src/wire/bad_include.cc",
     '#include "wire/bad_include.h"\n'
     "#include <assert.h>\n"
     "void f(int x) { assert(x > 0); }\n",
     {"include-hygiene"}),
    ("src/tesla/suppressed.cc",  # legacy marker + legacy rule alias
     '#include "tesla/suppressed.h"\n'
     "bool f(dap::common::ByteView a, dap::common::ByteView b) {\n"
     "  return common::equal(a, b);"
     "  // dap-lint: allow(variable-time)\n"
     "}\n",
     set()),
    ("src/game/bad_static.cc",
     '#include "game/bad_static.h"\n'
     "int f() {\n"
     "  static int call_count = 0;\n"
     "  return ++call_count;\n"
     "}\n",
     {"global-state"}),
    ("src/sim/ok_static.cc",
     '#include "sim/ok_static.h"\n'
     "int helper(int);\n"
     "int f() {\n"
     "  static const int k = 7;\n"
     "  static thread_local int scratch = 0;\n"
     "  static int instance;  // dap-lint: allow(global-state)\n"
     "  return helper(k + scratch + instance);\n"
     "}\n",
     set()),
    ("src/game/clean.cc",
     '#include "game/clean.h"\n'
     "int f() { return 1; }\n",
     set()),
    ("src/fleet/bad_metric.cc",
     '#include "fleet/bad_metric.h"\n'
     '#include "obs/registry.h"\n'
     "auto f(dap::obs::Registry& reg) {\n"
     '  return reg.counter("announcesSent");\n'
     "}\n",
     {"metric-name"}),
    ("src/fleet/ok_metric.cc",
     '#include "fleet/ok_metric.h"\n'
     '#include "obs/registry.h"\n'
     "auto f(dap::obs::Registry& reg, const std::string& prefix) {\n"
     '  auto a = reg.counter("fleet.announces_sent");\n'
     '  auto b = reg.histogram("fleet.hop_latency_us");\n'
     '  auto c = reg.counter(prefix + ".resync_attempts");\n'
     '  auto d = reg.gauge("Legacy");  // lint: allow(metric-name): legacy\n'
     "  return a.slot + b.slot + c.slot + d.slot;\n"
     "}\n",
     set()),
    # ----------------------------------------------------- secret-taint
    ("src/dap/bad_secret.cc",
     '#include "dap/bad_secret.h"\n'
     "bool f(const wire::MacAnnounce& p, dap::common::ByteView expected) {\n"
     "  return p.mac == expected;\n"
     "}\n",
     {"secret-taint"}),
    ("src/crypto/bad_taint.cc",  # taint flows through an assignment
     '#include "crypto/bad_taint.h"\n'
     "bool g(const Chain& c, dap::common::ByteView other) {\n"
     "  const auto derived = c.mac_key(3);\n"
     "  return derived == other;\n"
     "}\n",
     {"secret-taint"}),
    ("src/crypto/ok_taint.cc",
     '#include "crypto/ok_taint.h"\n'
     "bool g(const Chain& c, dap::common::ByteView other) {\n"
     "  const auto derived = c.mac_key(3);\n"
     "  // lint: allow(secret-taint): known-answer test vector is public\n"
     "  return derived == other;\n"
     "}\n",
     set()),
    ("src/dap/ok_sentinel.cc",  # iterator/null checks are not content
     '#include "dap/ok_sentinel.h"\n'
     "bool h(const std::map<int, Key>& keys_by_interval) {\n"
     "  auto it = keys_by_interval.find(3);\n"
     "  return it != keys_by_interval.end();\n"
     "}\n",
     set()),
    # ------------------------------------- determinism: unordered iter
    ("src/sim/bad_unordered.cc",
     '#include "sim/bad_unordered.h"\n'
     "#include <unordered_map>\n"
     "int f(const std::unordered_map<int, int>& totals) {\n"
     "  int sum = 0;\n"
     "  for (const auto& [k, v] : totals) sum += v;\n"
     "  return sum;\n"
     "}\n",
     {"determinism"}),
    ("src/sim/ok_unordered.cc",
     '#include "sim/ok_unordered.h"\n'
     "#include <unordered_set>\n"
     "int f(const std::unordered_set<int>& seen) {\n"
     "  int n = 0;\n"
     "  // lint: allow(determinism): order-insensitive count\n"
     "  for (int v : seen) n += v ? 1 : 0;\n"
     "  return n;\n"
     "}\n",
     set()),
    # --------------------------------------------------------- layering
    ("src/wire/bad_layer.cc",  # doctored back edge: wire -> dap
     '#include "wire/bad_layer.h"\n'
     '#include "dap/dap.h"\n'
     "int f() { return 1; }\n",
     {"layering"}),
    ("src/wire/ok_layer.cc",
     '#include "wire/ok_layer.h"\n'
     '#include "dap/dap.h"  // lint: allow(layering): doc example only\n'
     "int f() { return 1; }\n",
     set()),
    ("src/wire/CMakeLists.txt",  # doctored link edge: dap_wire -> dap_dap
     "add_library(dap_wire frame.cc)\n"
     "target_link_libraries(dap_wire\n"
     "  PUBLIC dap_common dap_dap  # dap_sim in a comment is ignored\n"
     "  PRIVATE dap_warnings)\n",
     {"layering"}),
    ("src/dap/CMakeLists.txt",
     "add_library(dap_dap dap.cc)\n"
     "# target_link_libraries(dap_dap PUBLIC dap_fleet) stays a comment\n"
     "target_link_libraries(dap_dap PUBLIC dap_common dap_obs dap_crypto\n"
     "  dap_wire dap_sim dap_tesla PRIVATE dap_warnings)\n",
     set()),
    # ----------------------------------------------- contracts-coverage
    ("src/dap/bad_contract.cc",
     '#include "dap/bad_contract.h"\n'
     "namespace dap {\n"
     "int receive_frame(int x) {\n"
     "  return x + 1;\n"
     "}\n"
     "}  // namespace dap\n",
     {"contracts-coverage"}),
    ("src/dap/ok_contract.cc",
     '#include "dap/ok_contract.h"\n'
     '#include "common/contracts.h"\n'
     "namespace dap {\n"
     "int receive_frame(int x) {\n"
     '  DAP_REQUIRE(x >= 0, "receive_frame: negative budget");\n'
     "  return x + 1;\n"
     "}\n"
     "int decode_status() { return 0; }  "
     "// lint: allow(contracts-coverage): pure accessor, no input\n"
     "}  // namespace dap\n",
     set()),
    # --------------------------------------------------- guarded-fields
    ("src/common/bad_guard.cc",
     '#include "common/bad_guard.h"\n'
     '#include "common/sync.h"\n'
     "namespace dap::common {\n"
     "class Counter {\n"
     " public:\n"
     "  void bump();\n"
     " private:\n"
     "  Mutex mu_;\n"
     "  long count_ = 0;\n"
     "};\n"
     "}  // namespace dap::common\n",
     {"guarded-fields"}),
    ("src/common/ok_guard.cc",
     '#include "common/ok_guard.h"\n'
     '#include "common/sync.h"\n'
     "#include <atomic>\n"
     "namespace dap::common {\n"
     "class Counter {\n"
     " public:\n"
     "  void bump();\n"
     " private:\n"
     "  Mutex mu_;\n"
     "  long count_ DAP_GUARDED_BY(mu_) = 0;\n"
     "  std::atomic<long> peeks_{0};\n"
     "  static constexpr long kStep = 1;\n"
     "  long scratch_ = 0;  // lint: allow(guarded-fields): ctor-only\n"
     "};\n"
     "}  // namespace dap::common\n",
     set()),
    # ------------------------------------------------- tokenizer edges
    ("src/sim/ok_rawstring.cc",  # banned names inside a raw string
     '#include "sim/ok_rawstring.h"\n'
     "const char* f() {\n"
     '  return R"(rand() seeds system_clock -- prose, not code)";\n'
     "}\n",
     set()),
    ("src/crypto/ok_splice.cc",  # line-spliced comment swallows "code"
     '#include "crypto/ok_splice.h"\n'
     "// the next physical line is still this comment \\\n"
     "memcmp(a, b, n);\n"
     "int f() { return 1; }\n",
     set()),
    ("src/crypto/bad_macro.cc",  # macro bodies are scanned
     '#include "crypto/bad_macro.h"\n'
     "#define DAP_BAD_EQ(a, b, n) memcmp((a), (b), (n))\n"
     "int f() { return 1; }\n",
     {"constant-time"}),
    ("src/wire/bad_strmarker.cc",  # marker inside a string: no effect
     '#include "wire/bad_strmarker.h"\n'
     "const char* kDoc =\n"
     '    "// lint: allow(constant-time): inside a string literal";\n'
     "bool f(const int& x, const int& y) { return memcmp(&x, &y, 1); }\n",
     {"constant-time"}),
]


def self_test() -> int:
    failures = 0

    cyclic = layering.verify_acyclic()
    if cyclic:
        print(f"self-test FAIL: layering table has a cycle through "
              f"{cyclic}")
        failures += 1

    with tempfile.TemporaryDirectory() as tmp:
        tmp_root = pathlib.Path(tmp)
        for rel, content, _ in CASES:
            target = tmp_root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(content)
            # The own-header-first rule only fires when the header exists.
            if rel.endswith(".cc"):
                header = tmp_root / (rel[:-3] + ".h")
                header.write_text("#pragma once\n")
        for rel, _, expected_rules in CASES:
            findings = run_lint([tmp_root / rel], root=tmp_root)
            got_rules = {f.rule for f in findings}
            if got_rules != expected_rules:
                print(f"self-test FAIL {rel}: expected rules "
                      f"{sorted(expected_rules)}, got {sorted(got_rules)}")
                for finding in findings:
                    print("   ", format_finding(finding))
                failures += 1

    if failures:
        print(f"self-test: {failures} case(s) failed")
        return 1
    print(f"self-test: all {len(CASES)} cases passed "
          "(seeded violations flagged, suppressions honoured, "
          "lexer edges clean, layering table acyclic)")
    return 0

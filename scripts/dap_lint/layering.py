"""The module-layering DAG the `layering` rule enforces.

Modules are the direct children of src/ (src/<module>/...). An edge
A -> B means "A may include headers from B" and "library dap_A may link
dap_B". The graph below is the *intended* architecture (also drawn in
DESIGN.md); the rule fails on any project include, and on any
`target_link_libraries(dap_A ... dap_B ...)` in a CMakeLists.txt, that
is not a forward edge of this DAG. That is exactly what makes an
accidental upward dependency (e.g. wire/ reaching into dap/) a lint
failure instead of a slow-motion architecture drift.

Layer order (low to high):

    common                      foundation: bytes, rng, codec, parallel
    obs, wire                   telemetry; packet formats  (common only)
    crypto, game                primitives + instrumentation; game theory
                                and finite-population dynamics
    crypto_batch                multi-lane SHA-256 kernels (above crypto:
                                src/crypto/sha256_batch*, a virtual node
                                so the scalar primitives can never grow a
                                dependency on the batch backend)
    sim                         clocks, channels, event queue, medium
    tesla                       the TESLA++ and multi-level uTESLA
                                baselines, plus the chain authenticator,
                                reservoir buffers and time sync DAP
                                shares with them (uses crypto, sim, wire)
    dap                         the paper's protocol (extends tesla)
    fleet                       fleet sim
    strategy                    adaptive attacker and defender,
                                cooperative verification, MABS baseline
                                (may use game + fleet + tesla; game can
                                never depend back on strategy)
    analysis                    experiments (may also drive fleet and
                                strategy scenarios)
"""

import re
from typing import Dict, List, Tuple

# module -> modules it may include (itself is always allowed).
ALLOWED: Dict[str, Tuple[str, ...]] = {
    "common": (),
    "obs": ("common",),
    "wire": ("common",),
    "crypto": ("common", "obs"),
    "crypto_batch": ("common", "obs", "crypto"),
    "game": ("common", "obs"),
    "sim": ("common", "obs", "wire"),
    "tesla": ("common", "obs", "wire", "crypto", "crypto_batch", "sim"),
    "dap": ("common", "obs", "wire", "crypto", "crypto_batch", "sim",
            "tesla"),
    "fleet": ("common", "obs", "wire", "crypto", "crypto_batch", "sim",
              "tesla", "dap"),
    "strategy": ("common", "obs", "wire", "crypto", "crypto_batch", "sim",
                 "game", "tesla", "dap", "fleet"),
    "analysis": ("common", "obs", "crypto", "crypto_batch", "sim", "game",
                 "tesla", "dap", "fleet", "strategy"),
}

MODULES = frozenset(ALLOWED)


def module_of(rel: str) -> str:
    """Module name for a path like src/<module>/file.h, else ''. The
    sha256_batch translation units under src/crypto/ belong to the
    virtual crypto_batch node."""
    parts = rel.split("/")
    if len(parts) >= 3 and parts[0] == "src" and parts[1] in MODULES:
        if parts[1] == "crypto" and parts[-1].startswith("sha256_batch"):
            return "crypto_batch"
        return parts[1]
    return ""


def include_target_module(path: str) -> str:
    """Module a project include points into ('' when not a module
    header — system headers and test helpers are out of scope)."""
    if path.startswith("crypto/sha256_batch"):
        return "crypto_batch"
    head = path.split("/", 1)[0]
    return head if head in MODULES and "/" in path else ""


_CMAKE_COMMENT_RE = re.compile(r"#[^\n]*")
_LINK_CALL_RE = re.compile(r"target_link_libraries\s*\(\s*dap_(\w+)([^)]*)\)")
_LINK_TARGET_RE = re.compile(r"\bdap_(\w+)")


def link_edges(text: str) -> List[Tuple[int, str, str]]:
    """(line, from_module, to_module) for every dap_<module> library a
    CMakeLists.txt links into a dap_<module> library. Targets that are
    not modules (dap_warnings) are not DAG nodes and are skipped; the
    library dap_crypto is the crypto node."""
    text = _CMAKE_COMMENT_RE.sub("", text)  # keeps the newlines
    edges = []
    for call in _LINK_CALL_RE.finditer(text):
        source = call.group(1)
        if source not in MODULES:
            continue
        for dep in _LINK_TARGET_RE.finditer(call.group(2)):
            if dep.group(1) in MODULES:
                line = text.count("\n", 0, call.start(2) + dep.start()) + 1
                edges.append((line, source, dep.group(1)))
    return edges


def check_edge(from_module: str, to_module: str) -> bool:
    """True when from_module may include to_module."""
    if from_module == to_module:
        return True
    return to_module in ALLOWED.get(from_module, ())


def verify_acyclic() -> List[str]:
    """Sanity check on the table itself: returns the modules on a cycle
    (empty = the graph is a DAG). Run by the self-test."""
    state: Dict[str, int] = {}  # 0 visiting, 1 done
    cyclic: List[str] = []

    def visit(mod: str) -> bool:
        if state.get(mod) == 1:
            return True
        if state.get(mod) == 0:
            return False
        state[mod] = 0
        for dep in ALLOWED.get(mod, ()):
            if not visit(dep):
                cyclic.append(mod)
        state[mod] = 1
        return True

    for mod in sorted(ALLOWED):
        visit(mod)
    return sorted(set(cyclic))

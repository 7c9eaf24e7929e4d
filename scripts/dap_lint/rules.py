"""All dap_lint rules.

Each rule is a callable `rule(src: SourceFile, root) -> Iterable[Finding]`;
the engine filters findings through the suppression table afterwards, so
rules report unconditionally. CMakeLists.txt files are not C++: the engine
runs only `link_layering` on them, the layering rule over library links.
Legacy rules (constant-time, determinism, include-hygiene, global-state,
metric-name) keep their names, scoped directories, and message shapes;
the token stream just makes them immune to comments/strings. New rules:
secret-taint, layering, contracts-coverage, guarded-fields, and the
unordered-iteration arm of determinism.
"""

import re
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from . import layering
from .engine import Finding, SourceFile, is_under
from .tokenizer import Token

CONSTANT_TIME_DIRS = ("src/crypto", "src/tesla", "src/dap", "src/wire",
                      "src/fleet")
DETERMINISM_EXEMPT_DIRS = ("src/obs",)
GLOBAL_STATE_EXEMPT_DIRS = ("src/obs",)
UNORDERED_ITER_DIRS = ("src/sim", "src/fleet", "src/dap", "src/tesla")
CONTRACTS_DIRS = ("src/wire", "src/tesla", "src/dap", "src/fleet")

DEPRECATED_C_HEADERS = {
    "assert.h": "cassert",
    "ctype.h": "cctype",
    "errno.h": "cerrno",
    "inttypes.h": "cinttypes",
    "limits.h": "climits",
    "math.h": "cmath",
    "signal.h": "csignal",
    "stdarg.h": "cstdarg",
    "stddef.h": "cstddef",
    "stdint.h": "cstdint",
    "stdio.h": "cstdio",
    "stdlib.h": "cstdlib",
    "string.h": "cstring",
    "time.h": "ctime",
}

METRIC_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")
METRIC_METHODS = {"counter", "gauge", "histogram", "rate"}

DETERMINISM_BANNED_IDENTS = {
    "random_device": "std::random_device",
    "drand48": "drand48",
    "gettimeofday": "gettimeofday",
    "system_clock": "system_clock",
    "high_resolution_clock": "high_resolution_clock",
    "steady_clock": "steady_clock",
}

UNORDERED_CONTAINERS = {"unordered_map", "unordered_set",
                        "unordered_multimap", "unordered_multiset"}


def _next(tokens: Sequence[Token], i: int) -> str:
    return tokens[i + 1].text if i + 1 < len(tokens) else ""


def _prev(tokens: Sequence[Token], i: int) -> str:
    return tokens[i - 1].text if i > 0 else ""


# ---------------------------------------------------------------- rules


def rule_constant_time(src: SourceFile, root) -> Iterable[Finding]:
    if not is_under(src.rel, CONSTANT_TIME_DIRS):
        return
    streams = [src.tokens]
    streams.extend(d.body for d in src.directives if d.body)
    for tokens in streams:
        for i, tok in enumerate(tokens):
            if tok.kind != "ident" or _next(tokens, i) != "(":
                continue
            name = None
            if tok.text == "memcmp":
                name = "memcmp"
            elif tok.text == "equal" and _prev(tokens, i) == "::" and i >= 2:
                qualifier = tokens[i - 2].text
                if qualifier in ("std", "common"):
                    name = f"{qualifier}::equal"
            if name:
                yield Finding(
                    src.rel, tok.line, "constant-time",
                    f"{name} on potential MAC/key material — use "
                    "common::constant_time_equal (or annotate "
                    "'// lint: allow(constant-time): <reason>')")


def rule_determinism(src: SourceFile, root) -> Iterable[Finding]:
    if not src.rel.startswith("src/") \
            or is_under(src.rel, DETERMINISM_EXEMPT_DIRS):
        return
    streams = [src.tokens]
    streams.extend(d.body for d in src.directives if d.body)
    for tokens in streams:
        for i, tok in enumerate(tokens):
            if tok.kind != "ident":
                continue
            name = None
            if tok.text in DETERMINISM_BANNED_IDENTS:
                name = DETERMINISM_BANNED_IDENTS[tok.text]
            elif tok.text == "rand" and _next(tokens, i) == "(" \
                    and _prev(tokens, i) not in (".", "->"):
                name = "rand()"
            elif tok.text == "srand" and _next(tokens, i) == "(":
                name = "srand()"
            if name:
                yield Finding(
                    src.rel, tok.line, "determinism",
                    f"{name} breaks seeded reproducibility — use "
                    "common::Rng / sim::SimTime (or annotate "
                    "'// lint: allow(determinism): <reason>')")
    yield from _unordered_iteration(src)


def _unordered_declared_names(tokens: Sequence[Token]) -> Set[str]:
    """Names declared in this file with an unordered_* container type.
    Header-declared members are invisible to other files — the rule is
    per-translation-unit by design (cheap, no false cross-file taint)."""
    names: Set[str] = set()
    i = 0
    n = len(tokens)
    while i < n:
        if tokens[i].kind == "ident" and tokens[i].text in UNORDERED_CONTAINERS:
            j = i + 1
            if j < n and tokens[j].text == "<":
                angle = 0
                while j < n:
                    if tokens[j].text == "<":
                        angle += 1
                    elif tokens[j].text == ">":
                        angle -= 1
                        if angle == 0:
                            j += 1
                            break
                    elif tokens[j].text == ">>":
                        angle -= 2
                        if angle <= 0:
                            j += 1
                            break
                    elif tokens[j].text == ";":
                        break  # malformed / not a template use
                    j += 1
            # Nested inside an outer template argument list
            # (vector<unordered_set<...>> x): the outer container is the
            # one being declared, not this one — skip.
            if j < n and tokens[j].text in (">", ">>", ","):
                i = j
                continue
            while j < n and tokens[j].text in ("&", "&&", "*", "const"):
                j += 1  # reference/pointer declarators
            if j < n and tokens[j].kind == "ident":
                names.add(tokens[j].text)
            i = j
            continue
        i += 1
    return names


def _unordered_iteration(src: SourceFile) -> Iterable[Finding]:
    if not is_under(src.rel, UNORDERED_ITER_DIRS):
        return
    unordered = _unordered_declared_names(src.tokens)
    if not unordered:
        return
    tokens = src.tokens
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.text != "for" or _next(tokens, i) != "(":
            continue
        # Range-for: find a ':' at paren depth 1 before the matching ')'.
        depth = 0
        colon = close = -1
        for j in range(i + 1, n):
            text = tokens[j].text
            if text == "(":
                depth += 1
            elif text == ")":
                depth -= 1
                if depth == 0:
                    close = j
                    break
            elif text == ":" and depth == 1 and colon < 0:
                colon = j
        if colon < 0 or close < 0:
            continue
        range_expr = tokens[colon + 1:close]
        if not range_expr or range_expr[-1].kind != "ident":
            continue  # a call or a complex expression: out of scope
        name = range_expr[-1].text
        if name in unordered:
            yield Finding(
                src.rel, range_expr[-1].line, "determinism",
                f"range-for over unordered container '{name}' — iteration "
                "order is hash-seeded and must never feed simulation "
                "output or telemetry; use a sorted vector / std::map, or "
                "annotate membership-only traversal "
                "'// lint: allow(determinism): <reason>'")


def rule_include_hygiene(src: SourceFile, root) -> Iterable[Finding]:
    in_src = src.rel.startswith("src/")
    first_project_include: Optional[Tuple[int, str]] = None
    for d in src.directives:
        if d.kind != "include" or d.include_path is None:
            continue
        header = d.include_path
        if header.startswith("../") or "/../" in header:
            yield Finding(src.rel, d.line, "include-hygiene",
                          "relative '../' include")
        if header in DEPRECATED_C_HEADERS:
            yield Finding(
                src.rel, d.line, "include-hygiene",
                f"deprecated C header <{header}> — use "
                f"<{DEPRECATED_C_HEADERS[header]}>")
        if not d.include_angled and first_project_include is None:
            first_project_include = (d.line, header)

    if in_src:
        streams = [src.tokens]
        streams.extend(d.body for d in src.directives if d.body)
        for tokens in streams:
            for i, tok in enumerate(tokens):
                if tok.kind == "ident" and tok.text == "assert" \
                        and _next(tokens, i) == "(" \
                        and _prev(tokens, i) not in (".", "->"):
                    yield Finding(
                        src.rel, tok.line, "include-hygiene",
                        "bare assert() — use DAP_REQUIRE / DAP_ENSURE / "
                        "DAP_INVARIANT from common/contracts.h")

    # A module .cc must include its own header first (catches headers
    # that silently depend on their .cc's earlier includes).
    if in_src and src.rel.endswith(".cc"):
        own_header = src.rel[len("src/"):-3] + ".h"
        if (root / "src" / own_header).exists():
            if first_project_include is None:
                yield Finding(
                    src.rel, 1, "include-hygiene",
                    f'missing include of own header "{own_header}"')
            elif first_project_include[1] != own_header:
                yield Finding(
                    src.rel, first_project_include[0], "include-hygiene",
                    f'first project include must be own header '
                    f'"{own_header}" (found "{first_project_include[1]}")')


_STATIC_EXEMPT = {"const", "constexpr", "thread_local", "consteval",
                  "constinit"}


def rule_global_state(src: SourceFile, root) -> Iterable[Finding]:
    if not src.rel.startswith("src/") \
            or is_under(src.rel, GLOBAL_STATE_EXEMPT_DIRS):
        return
    tokens = src.tokens
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.kind != "ident" or tok.text != "static":
            continue
        if _next(tokens, i) in _STATIC_EXEMPT:
            continue
        # Variable vs function: what comes first after the declarator —
        # an initializer / statement end (variable) or a parameter list
        # (function)? Template argument lists are skipped so types like
        # static std::map<K, std::function<void(int)>> decide correctly.
        angle = 0
        verdict = None
        for j in range(i + 1, n):
            text = tokens[j].text
            if angle > 0:
                if text == "<":
                    angle += 1
                elif text == ">":
                    angle -= 1
                elif text == ">>":
                    angle -= 2
                elif text in (";", "{", "}"):
                    angle = 0  # lost sync: treat as closed
                continue
            if text == "<" and j > 0 and (tokens[j - 1].kind == "ident"
                                          or tokens[j - 1].text == ">"):
                angle = 1
                continue
            if text in ("=", "{", ";"):
                verdict = "variable"
                break
            if text == "(":
                verdict = "function"
                break
        if verdict == "variable":
            yield Finding(
                src.rel, tok.line, "global-state",
                "mutable static variable is shared state under the "
                "parallel engine — use a thread_local, pass state "
                "explicitly, or annotate a deliberate singleton "
                "'// lint: allow(global-state): <reason>'")


def rule_metric_name(src: SourceFile, root) -> Iterable[Finding]:
    if not src.rel.startswith("src/"):
        return
    tokens = src.tokens
    for i, tok in enumerate(tokens):
        if tok.kind != "ident" or tok.text not in METRIC_METHODS:
            continue
        if _prev(tokens, i) != "." or _next(tokens, i) != "(":
            continue
        if i + 2 >= len(tokens) or tokens[i + 2].kind != "string":
            continue  # runtime-built name (prefix + ".x"): out of scope
        literal = tokens[i + 2].text
        name = literal[literal.find('"') + 1:literal.rfind('"')]
        if not METRIC_NAME_RE.match(name):
            yield Finding(
                src.rel, tokens[i + 2].line, "metric-name",
                f'instrument name "{name}" must be dot-namespaced '
                'lowercase ("subsystem.metric", [a-z0-9_.]) so the '
                "snapshot/trend tooling can group it (or annotate "
                "'// lint: allow(metric-name): <reason>')")


# Secret-taint: identifier segments that mark key/MAC material, and
# segments that mark derived *metadata* about it (lengths, counters,
# verification verdicts) which is public by construction.
_SECRET_SEGMENTS = {"key", "keys", "mac", "macs", "hmac", "secret",
                    "secrets", "prf", "digest"}
_PUBLIC_SEGMENTS = {"size", "sizes", "len", "length", "count", "counts",
                    "bits", "bytes", "index", "idx", "offset", "id",
                    "ids", "interval", "intervals", "delay", "rate",
                    "limit", "budget", "name", "kind", "domain",
                    "schedule", "empty", "pruned", "accepted",
                    "rejected", "verified", "verify", "check", "valid",
                    "ok", "misses", "hits", "calls", "derivations",
                    "depth", "slot", "public", "image", "commitment"}

_CAMEL_RE = re.compile(r"[A-Z]?[a-z0-9]+|[A-Z]+(?![a-z])")


def _segments(name: str) -> List[str]:
    segs: List[str] = []
    for part in name.strip("_").split("_"):
        segs.extend(m.group(0).lower() for m in _CAMEL_RE.finditer(part))
    return segs


def _secretish(name: str) -> bool:
    segs = _segments(name)
    return bool(_SECRET_SEGMENTS.intersection(segs)) \
        and not _PUBLIC_SEGMENTS.intersection(segs)


def _comparison_operand(tokens: Sequence[Token], i: int,
                        direction: int) -> Optional[Token]:
    """Resolves the identifier naming the operand next to tokens[i]
    (`==`/`!=`), walking left (direction=-1) or right (+1). For member
    chains the *last* component names the value (`packet.mac` -> mac);
    for calls the callee names it (`mac.size()` -> size)."""
    n = len(tokens)
    j = i + direction
    if direction < 0:
        if j >= 0 and tokens[j].text == ")":
            depth = 0
            while j >= 0:
                if tokens[j].text == ")":
                    depth += 1
                elif tokens[j].text == "(":
                    depth -= 1
                    if depth == 0:
                        j -= 1
                        break
                j -= 1
        if j >= 0 and tokens[j].kind == "ident":
            return tokens[j]
        return None
    while j < n and tokens[j].text in ("(", "!", "*", "&", "-", "+"):
        j += 1
    if j >= n or tokens[j].kind != "ident":
        return None
    while j + 2 < n and tokens[j + 1].text in (".", "->", "::") \
            and tokens[j + 2].kind == "ident":
        j += 2
    return tokens[j]


def rule_secret_taint(src: SourceFile, root) -> Iterable[Finding]:
    if not is_under(src.rel, CONSTANT_TIME_DIRS):
        return
    tokens = src.tokens
    n = len(tokens)

    # Taint pass: `x = <expr containing secretish identifier>` marks x.
    tainted: Set[str] = set()
    for i, tok in enumerate(tokens):
        if tok.text != "=" or tok.kind != "punct":
            continue
        if i == 0 or tokens[i - 1].kind != "ident":
            continue
        target = tokens[i - 1].text
        for j in range(i + 1, n):
            text = tokens[j].text
            if text in (";", "{"):
                break
            if tokens[j].kind == "ident" and _secretish(text):
                tainted.add(target)
                break

    for i, tok in enumerate(tokens):
        if tok.text not in ("==", "!="):
            continue
        left = _comparison_operand(tokens, i, -1)
        right = _comparison_operand(tokens, i, +1)
        # Pointer null checks are identity comparisons, not content, and
        # iterator sentinel checks (`it != map.end()`) compare positions.
        sentinels = {"nullptr", "end", "begin", "cend", "cbegin"}
        if (left and left.text in sentinels) \
                or (right and right.text in sentinels):
            continue
        for operand in (left, right):
            if operand is None:
                continue
            if _secretish(operand.text) or operand.text in tainted:
                yield Finding(
                    src.rel, tok.line, "secret-taint",
                    f"variable-time comparison touches secret-derived "
                    f"value '{operand.text}' — MAC/key material must go "
                    "through common::constant_time_equal (or annotate "
                    "'// lint: allow(secret-taint): <reason>')")
                break


def rule_layering(src: SourceFile, root) -> Iterable[Finding]:
    mod = layering.module_of(src.rel)
    if not mod:
        return
    allowed = ", ".join(layering.ALLOWED[mod]) or "(nothing)"
    for d in src.directives:
        if d.kind != "include" or d.include_path is None:
            continue
        target = layering.include_target_module(d.include_path)
        if target and not layering.check_edge(mod, target):
            yield Finding(
                src.rel, d.line, "layering",
                f'include of "{d.include_path}" breaks the module-layering '
                f"DAG: '{mod}' may depend only on [{allowed}] — see the "
                "layer diagram in DESIGN.md (or annotate a deliberate "
                "exception '// lint: allow(layering): <reason>')")


def link_layering(rel: str, text: str) -> Iterable[Finding]:
    """The layering rule over a CMakeLists.txt: every dap_<module> link
    of a dap_<module> library must be an edge of the DAG."""
    for line, mod, target in layering.link_edges(text):
        if not layering.check_edge(mod, target):
            allowed = ", ".join(layering.ALLOWED[mod]) or "(nothing)"
            yield Finding(
                rel, line, "layering",
                f"dap_{mod} links dap_{target}, which breaks the "
                f"module-layering DAG: '{mod}' may depend only on "
                f"[{allowed}] — see the layer diagram in DESIGN.md")


def rule_contracts_coverage(src: SourceFile, root) -> Iterable[Finding]:
    if not src.rel.endswith(".cc") or not is_under(src.rel, CONTRACTS_DIRS):
        return
    tokens = src.tokens
    for scope in src.scopes:
        if scope.kind != "function":
            continue
        if not (scope.name.startswith("receive")
                or scope.name.startswith("decode")):
            continue
        # Definitions only — skip lambdas/local helpers nested in other
        # functions.
        chain = src.scope_chain(scope.open_i)[1:]
        if any(s.kind == "function" for s in chain):
            continue
        body = tokens[scope.open_i + 1:scope.close_i]
        if any(t.kind == "ident" and t.text == "DAP_REQUIRE" for t in body):
            continue
        # Anchor the finding on the function name, not the brace.
        line = tokens[scope.open_i].line
        for j in range(scope.open_i - 1, -1, -1):
            if tokens[j].kind == "ident" and tokens[j].text == scope.name:
                line = tokens[j].line
                break
            if tokens[j].text in (";", "}", "{"):
                break
        yield Finding(
            src.rel, line, "contracts-coverage",
            f"public entrypoint '{scope.name}' handles adversarial input "
            "but declares no DAP_REQUIRE contract — assert caller/config "
            "preconditions at entry (common/contracts.h; adversarial "
            "bytes themselves must stay rejection-handled, never "
            "asserted). Annotate thin forwarding shims "
            "'// lint: allow(contracts-coverage): <reason>'")


_MEMBER_SKIP_KEYWORDS = {"using", "typedef", "friend", "static",
                         "template", "operator"}
_TYPE_KEYWORDS = {"class", "struct", "union", "enum"}
_CAPABILITY_TYPES = {"Mutex", "CondVar"}


def _class_member_statements(src: SourceFile, scope) -> List[List[Token]]:
    """Data-member candidate statements directly inside a class scope:
    methods, nested types, and access specifiers are dropped; brace
    initializers stay attached to their member."""
    tokens = src.tokens
    out: List[List[Token]] = []
    stmt: List[Token] = []
    depth = 0
    i = scope.open_i + 1
    while i < scope.close_i:
        tok = tokens[i]
        text = tok.text
        if text == "{":
            depth += 1
            if depth == 1:
                stmt.append(tok)
        elif text == "}":
            depth -= 1
            if depth == 0:
                if any(t.text in _TYPE_KEYWORDS for t in stmt):
                    stmt = []  # nested type definition
                elif _has_toplevel_paren(stmt):
                    stmt = []  # method / constructor body
                # else: brace initializer — keep until ';'
        elif depth == 0:
            if text == ";":
                if stmt:
                    out.append(stmt)
                stmt = []
            elif text == ":" and len(stmt) == 1 \
                    and stmt[0].text in ("public", "private", "protected"):
                stmt = []  # access specifier
            else:
                stmt.append(tok)
        i += 1
    return out


def _has_toplevel_paren(stmt: Sequence[Token]) -> bool:
    """True when the statement has a '(' outside template angles — a
    function declarator. Parens nested in template args (e.g.
    std::function<void(int)> cb) describe the member's type instead."""
    angle = 0
    for i, tok in enumerate(stmt):
        text = tok.text
        if angle > 0:
            if text == "<":
                angle += 1
            elif text == ">":
                angle -= 1
            elif text == ">>":
                angle -= 2
            continue
        if text == "<" and i > 0 and (stmt[i - 1].kind == "ident"
                                      or stmt[i - 1].text == ">"):
            angle = 1
        elif text == "(":
            return True
    return False


def rule_guarded_fields(src: SourceFile, root) -> Iterable[Finding]:
    if not any(d.kind == "include" and d.include_path == "common/sync.h"
               for d in src.directives):
        return
    for scope in src.class_scopes():
        members = [s for s in _class_member_statements(src, scope)
                   if not _MEMBER_SKIP_KEYWORDS.intersection(
                       t.text for t in s)
                   and not _has_toplevel_paren(s)]
        owns_mutex = any(
            any(t.kind == "ident" and t.text == "Mutex" for t in s)
            for s in members)
        if not owns_mutex:
            continue
        cls = scope.name
        for stmt in members:
            texts = [t.text for t in stmt]
            if _CAPABILITY_TYPES.intersection(texts):
                continue  # the capability members themselves
            if "atomic" in texts:
                continue  # lock-free by design
            if "const" in texts[:2] or "constexpr" in texts:
                continue  # immutable
            if "DAP_GUARDED_BY" in texts or "DAP_PT_GUARDED_BY" in texts:
                continue
            # Member name: last identifier before any initializer.
            name_tok = None
            for tok in stmt:
                if tok.text in ("=", "{"):
                    break
                if tok.kind == "ident":
                    name_tok = tok
            if name_tok is None:
                continue
            yield Finding(
                src.rel, name_tok.line, "guarded-fields",
                f"field '{name_tok.text}' in mutex-owning class '{cls}' "
                "has no DAP_GUARDED_BY(...) annotation — every mutable "
                "field of a class that declares a dap::common::Mutex "
                "must name its guard (common/sync.h), or justify the "
                "exception '// lint: allow(guarded-fields): <reason>'")


RULES = (
    rule_constant_time,
    rule_determinism,
    rule_include_hygiene,
    rule_global_state,
    rule_metric_name,
    rule_secret_taint,
    rule_layering,
    rule_contracts_coverage,
    rule_guarded_fields,
)

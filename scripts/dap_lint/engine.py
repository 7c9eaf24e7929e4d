"""dap_lint engine: file model, scope tracking, suppressions, plumbing.

A `SourceFile` bundles everything a rule needs: the token stream,
comments, preprocessor directives, a lightweight scope tree (namespace /
class / function / block nesting derived from brace structure), and the
per-line suppression table.

Suppressions come only from real comments — a marker inside a string
literal does not count. Two syntaxes are accepted:

    // lint: allow(<rule>): <reason>     (preferred: reason required by
                                          convention, not by the parser)
    // dap-lint: allow(<rule>)           (legacy)

plus the legacy rule aliases `variable-time` -> constant-time and
`nondeterminism` -> determinism. A suppression covers every line the
comment touches and the line immediately after it, so both trailing
markers and standalone marker lines above the flagged statement work.
"""

import pathlib
import re
from typing import Dict, List, NamedTuple, Optional, Sequence, Set

from .tokenizer import LexResult, Token, tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

SOURCE_SUFFIXES = {".cc", ".h"}
CMAKE_FILE = "CMakeLists.txt"

_ALLOW_RE = re.compile(r"(?:dap-)?lint:\s*allow\(([A-Za-z0-9_-]+)\)")

_RULE_ALIASES = {
    "variable-time": "constant-time",
    "nondeterminism": "determinism",
}


class Finding(NamedTuple):
    rel: str
    line: int
    rule: str
    message: str


def format_finding(finding: Finding) -> str:
    return f"{finding.rel}:{finding.line}: [{finding.rule}] " \
           f"{finding.message}"


class Scope(NamedTuple):
    kind: str   # 'file' | 'namespace' | 'class' | 'enum' | 'function'
                # | 'block' | 'init'
    name: str
    open_i: int   # token index of '{' (-1 for the file scope)
    close_i: int  # token index of matching '}' (len(tokens) if missing)
    parent: int   # index into the scope list (-1 for the file scope)


_CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch"}
_BLOCK_STARTERS = {"else", "do", "try"}


def _classify_brace(stmt: List[Token]) -> (str, str):
    """Classifies the scope a `{` opens from the statement tokens that
    precede it (everything since the last top-level `;` / `{` / `}`)."""
    texts = [t.text for t in stmt]
    if not texts:
        return "block", ""
    if texts[0] in _BLOCK_STARTERS or texts[0] in _CONTROL_KEYWORDS:
        return "block", ""
    if "namespace" in texts:
        name = texts[-1] if stmt[-1].kind == "ident" else "<anon>"
        return "namespace", name
    if "enum" in texts:
        return "enum", _name_after(stmt, {"enum", "class", "struct"})
    if "class" in texts or "struct" in texts or "union" in texts:
        return "class", _name_after(stmt, {"class", "struct", "union"})
    last = texts[-1]
    if last in {"=", ",", "(", "return"}:
        return "init", ""  # `= {...}`, `f({...})`, `return {...}`
    if ")" in texts:
        # A parameter list precedes the brace: a function body (possibly
        # with trailing const/noexcept/override/-> Type) — unless the
        # parens belong to a control statement.
        before = _token_before_matching_paren(stmt)
        if before in _CONTROL_KEYWORDS:
            return "block", ""
        return "function", before or "<lambda>"
    if last == "]":
        return "function", "<lambda>"  # capture-only lambda `[&] {`
    if stmt[-1].kind in {"ident", "number", "string"}:
        return "init", ""  # aggregate init `Foo x{...}`
    return "block", ""


def _name_after(stmt: List[Token], keywords: Set[str]) -> str:
    seen_keyword = False
    for tok in stmt:
        if seen_keyword and tok.kind == "ident" and tok.text not in keywords:
            return tok.text
        if tok.text in keywords:
            seen_keyword = True
    return "<anon>"


def _token_before_matching_paren(stmt: List[Token]) -> str:
    """Finds the last top-level `)` in `stmt`, matches it back to its
    `(`, and returns the text of the token before that `(`."""
    depth = 0
    for i in range(len(stmt) - 1, -1, -1):
        text = stmt[i].text
        if text == ")":
            depth += 1
        elif text == "(":
            depth -= 1
            if depth == 0:
                return stmt[i - 1].text if i > 0 else ""
    return ""


def build_scopes(tokens: Sequence[Token]) -> (List[Scope], List[int]):
    """Returns (scopes, scope_of) where scope_of[i] is the index of the
    innermost scope containing token i. scopes[0] is the file scope."""
    scopes: List[Scope] = [Scope("file", "", -1, len(tokens), -1)]
    scope_of: List[int] = [0] * len(tokens)
    stack: List[int] = [0]
    stmt: List[Token] = []
    paren_depth = 0
    # Scopes are append-only; close_i is patched on pop.
    mutable_close: Dict[int, int] = {}

    for i, tok in enumerate(tokens):
        scope_of[i] = stack[-1]
        text = tok.text
        if tok.kind != "punct":
            stmt.append(tok)
            continue
        if text == "(":
            paren_depth += 1
            stmt.append(tok)
        elif text == ")":
            paren_depth = max(0, paren_depth - 1)
            stmt.append(tok)
        elif text == ";" and paren_depth == 0:
            stmt = []
        elif text == "{" and paren_depth == 0:
            kind, name = _classify_brace(stmt)
            scopes.append(Scope(kind, name, i, len(tokens), stack[-1]))
            stack.append(len(scopes) - 1)
            scope_of[i] = stack[-1]
            stmt = []
        elif text == "{":
            # Brace inside parens (lambda argument, compound literal):
            # still a scope, classified from a best-effort tail slice.
            kind, name = _classify_brace(stmt[-8:])
            scopes.append(Scope(kind, name, i, len(tokens), stack[-1]))
            stack.append(len(scopes) - 1)
            scope_of[i] = stack[-1]
            stmt = []
        elif text == "}":
            if len(stack) > 1:
                mutable_close[stack[-1]] = i
                stack.pop()
            stmt = []
        else:
            stmt.append(tok)

    if mutable_close:
        scopes = [s._replace(close_i=mutable_close.get(idx, s.close_i))
                  for idx, s in enumerate(scopes)]
    return scopes, scope_of


class SourceFile:
    """Everything the rules need about one translation unit."""

    def __init__(self, rel: str, text: str):
        self.rel = rel
        self.text = text
        lex: LexResult = tokenize(text)
        self.tokens = lex.tokens
        self.comments = lex.comments
        self.directives = lex.directives
        self.scopes, self.scope_of = build_scopes(self.tokens)
        self.suppressions: Dict[int, Set[str]] = {}
        for comment in lex.comments:
            for match in _ALLOW_RE.finditer(comment.text):
                rule = _RULE_ALIASES.get(match.group(1), match.group(1))
                # Cover the comment's own lines plus the next line, so a
                # standalone marker line shields the statement below it.
                for line in range(comment.line, comment.end_line + 2):
                    self.suppressions.setdefault(line, set()).add(rule)

    def suppressed(self, line: int, rule: str) -> bool:
        return rule in self.suppressions.get(line, ())

    def scope_chain(self, token_index: int) -> List[Scope]:
        """Innermost-first chain of scopes enclosing a token."""
        chain = []
        idx = self.scope_of[token_index]
        while idx >= 0:
            chain.append(self.scopes[idx])
            idx = self.scopes[idx].parent
        return chain

    def enclosing_kind(self, token_index: int, kinds: Set[str]) -> bool:
        return any(s.kind in kinds for s in self.scope_chain(token_index))

    def class_scopes(self) -> List[Scope]:
        return [s for s in self.scopes if s.kind == "class"]


def is_under(rel: str, prefixes) -> bool:
    return any(rel == p or rel.startswith(p + "/") for p in prefixes)


def _lintable(path) -> bool:
    return path.suffix in SOURCE_SUFFIXES or path.name == CMAKE_FILE


def collect_files(paths):
    for path in paths:
        if path.is_dir():
            for child in sorted(path.rglob("*")):
                if _lintable(child) and child.is_file():
                    yield child
        elif _lintable(path):
            yield path


def run_lint(paths, root=None) -> List[Finding]:
    """Lints files/directories; returns findings sorted by location.
    `root` anchors relative paths (defaults to the repo root)."""
    # Late import: rules import engine helpers.
    from .rules import RULES, link_layering

    root = root or ROOT
    findings: List[Finding] = []
    for path in collect_files(paths):
        try:
            rel = str(path.resolve().relative_to(root)).replace("\\", "/")
        except ValueError:
            rel = str(path)
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError as err:
            findings.append(Finding(rel, 0, "io", f"unreadable file: {err}"))
            continue
        if path.name == CMAKE_FILE:
            findings.extend(link_layering(rel, text))
            continue
        src = SourceFile(rel, text)
        for rule in RULES:
            for finding in rule(src, root):
                if not src.suppressed(finding.line, finding.rule):
                    findings.append(finding)
    findings.sort(key=lambda f: (f.rel, f.line, f.rule))
    return findings

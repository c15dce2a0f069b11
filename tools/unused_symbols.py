#!/usr/bin/env python3
"""Lists functions declared under src/ that nothing calls.

A unit is one header plus the .cc of the same name beside it. A public
function declared in src/a/b.h is called when its name appears, outside
comments and string literals, in some other file under src/, bench/, tools/,
examples/ or perfbench/, or in its own unit on a line that neither declares
nor defines it. Tests do not count as callers: code that only tests call is
reported too, unless the allowlist keeps it with a reason.

The scan is plain text. It matches names, not overloads, so a dead function
that shares its name with a live one elsewhere goes unreported; a function it
does report has no caller outside its unit under any spelling.

Usage:
  tools/unused_symbols.py             print every unused symbol
  tools/unused_symbols.py --check     exit 1 on an unused symbol the allowlist
                                      does not name, or an allowlist line that
                                      no longer names an unused symbol

Allowlist (tools/unused_symbols.allow): one `Symbol  reason` per line, where
Symbol is `Name` for a free function or `Class::Name` for a member; `#`
starts a comment.
"""

import argparse
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
USER_DIRS = ("src", "bench", "tools", "examples", "perfbench")
SOURCE_EXTS = (".h", ".cc", ".cpp")
ALLOWLIST = os.path.join(ROOT, "tools", "unused_symbols.allow")

# Words that can precede `name(` in a statement without declaring `name`.
NOT_A_TYPE = {
    "return", "else", "case", "delete", "new", "throw", "goto", "sizeof",
    "co_return", "co_await", "co_yield", "using", "typedef", "operator",
}
NOT_A_NAME = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "static_assert", "void", "bool", "int", "char", "double",
    "float", "long", "short", "unsigned", "signed", "auto", "noexcept",
    "defined", "operator", "alignas", "explicit", "requires",
}

COMMENT_OR_STRING = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'', re.S)
IDENT = re.compile(r"[A-Za-z_]\w*")
# A declaration: a return type, then the name, then `(`.
DECL = re.compile(r"^\s*([\w:<>,\s\*&]*[\w>\*&])[\s\*&]+([A-Za-z_]\w*)\s*\(")
# An out-of-class definition: a return type at column 0, then `Class::name(`.
DEF = re.compile(r"^([\w:<>,\s\*&]*[\w>\*&])[\s\*&]+(?:\w+::)+([A-Za-z_]\w*)\s*\(")
ACCESS = re.compile(r"^\s*(public|private|protected)\s*:")
SCOPE = re.compile(r"\b(class|struct|namespace)\s+([A-Za-z_]\w*)[^;{()]*\{")


def strip(text):
    """Blanks comments and literals, keeping newlines so lines still count."""
    return COMMENT_OR_STRING.sub(
        lambda m: "\n" * m.group(0).count("\n") or " ", text)


def program_files():
    for top in USER_DIRS:
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.relpath(os.path.join(dirpath, name), ROOT)


def declared_name(pattern, line):
    """The name `line` declares or defines by `pattern`, or None."""
    m = pattern.match(line)
    if m and m.group(1).split()[0] not in NOT_A_TYPE \
            and m.group(2) not in NOT_A_NAME:
        return m.group(2)
    return None


def called_in_unit(name, texts):
    """Whether `name` appears in one of `texts` off its own declarations."""
    for text in texts:
        for line in text.split("\n"):
            if re.search(rf"\b{name}\b", line) \
                    and declared_name(DECL, line) != name \
                    and declared_name(DEF, line) != name:
                return True
    return False


def declarations(text):
    """Yields (qualified name, name) for each function a header declares.

    Scopes are tracked by brace depth, so a member is qualified with its
    class; namespaces are not part of the name. Private and protected members
    are skipped: only their own unit can call them. Bodies of inline functions
    are skipped, so calls made inside them are not taken for declarations.
    """
    scopes = []  # [kind, name, depth at which the body opened, public?]
    depth = 0
    body_depth = None  # depth of the function body being skipped
    for line in text.split("\n"):
        if line.lstrip().startswith("#"):
            continue
        if body_depth is None:
            access = ACCESS.match(line)
            if access and scopes:
                scopes[-1][3] = access.group(1) == "public"
            name = declared_name(DECL, line)
            classes = [n for kind, n, _, _ in scopes if kind != "namespace"]
            if name and all(public for _, _, _, public in scopes) \
                    and classes[-1:] != [name]:
                yield "::".join(classes + [name]), name
            scope = SCOPE.search(line)
            if scope:
                scopes.append([scope.group(1), scope.group(2), depth + 1,
                               scope.group(1) != "class"])
        for ch in line:
            if ch == "{":
                depth += 1
                if body_depth is None and (not scopes or scopes[-1][2] != depth):
                    body_depth = depth
            elif ch == "}":
                if body_depth == depth:
                    body_depth = None
                if scopes and scopes[-1][2] == depth:
                    scopes.pop()
                depth -= 1


def unused_symbols():
    files = list(program_files())
    idents = {}
    texts = {}
    for path in files:
        with open(os.path.join(ROOT, path), encoding="utf-8") as f:
            texts[path] = strip(f.read())
        idents[path] = set(IDENT.findall(texts[path]))
    unused = {}
    for header in files:
        if not (header.startswith("src" + os.sep) and header.endswith(".h")):
            continue
        unit = {header, header[: -len(".h")] + ".cc"}
        unit_texts = [texts[p] for p in unit if p in texts]
        for qualified, name in declarations(texts[header]):
            if not any(name in idents[p] for p in files if p not in unit) \
                    and not called_in_unit(name, unit_texts):
                unused.setdefault(qualified, header)
    return unused


def read_allowlist():
    allowed = {}
    with open(ALLOWLIST, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            symbol, _, reason = line.partition(" ")
            if not reason.strip():
                sys.exit(f"{ALLOWLIST}:{lineno}: {symbol} has no reason")
            allowed[symbol] = reason.strip()
    return allowed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="fail on symbols the allowlist does not name")
    args = parser.parse_args()
    unused = unused_symbols()
    if not args.check:
        for symbol, header in sorted(unused.items(), key=lambda kv: (kv[1], kv[0])):
            print(f"{header}: {symbol}")
        return 0
    allowed = read_allowlist()
    new = sorted(s for s in unused if s not in allowed)
    stale = sorted(s for s in allowed if s not in unused)
    for symbol in new:
        print(f"{unused[symbol]}: {symbol} has no caller outside its unit; "
              f"delete it, or keep it in {os.path.relpath(ALLOWLIST, ROOT)} "
              f"with a reason")
    for symbol in stale:
        print(f"{os.path.relpath(ALLOWLIST, ROOT)}: {symbol} is no longer "
              f"unused (or no longer declared); drop its line")
    if new or stale:
        return 1
    print(f"unused_symbols: {len(unused)} unused symbols, all allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main())

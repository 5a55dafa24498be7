"""Per-file source model: tokens plus reconstructed function scopes.

Brace tracking classifies every `{` as namespace / type / function /
plain block, so rules can ask "which function owns this token" and walk
cross-line statements instead of single lines.
"""

import os

from .tokenizer import tokenize

SOURCE_EXTENSIONS = (".cc", ".h", ".cpp", ".hpp")

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "do", "else",
                    "return"}
TYPE_KEYWORDS = {"class", "struct", "enum", "union"}


def norm(path):
    return path.replace(os.sep, "/")


def stem(path):
    base = os.path.basename(norm(path))
    for ext in SOURCE_EXTENSIONS:
        if base.endswith(ext):
            return base[: -len(ext)]
    return base


class Function:
    __slots__ = ("name", "qualifier", "type_scope", "sig_start", "body_start",
                 "body_end")

    def __init__(self, name, qualifier, type_scope, sig_start, body_start):
        self.name = name
        self.qualifier = qualifier      # Foo in `Foo::bar(...)`, or None
        self.type_scope = type_scope    # enclosing class/struct name, or None
        self.sig_start = sig_start      # token index of signature start
        self.body_start = body_start    # token index of the opening `{`
        self.body_end = None            # token index of the closing `}`

    @property
    def owner(self):
        """The class a method belongs to, from either the out-of-line
        qualifier (`Foo::bar`) or the enclosing type (inline `bar`)."""
        return self.qualifier or self.type_scope

    def is_structor(self):
        """Constructor or destructor: runs before the object is shared (or
        after it stopped being), so lock discipline does not apply."""
        owner = self.owner
        return owner is not None and self.name in (owner, "~" + owner)


class FileModel:
    """One parsed source file: tokens, escape hatches, and the function
    index (token_function[i] is the innermost Function covering token i, or
    None; token_type[i] is the innermost class/struct name)."""

    def __init__(self, path, text):
        self.path = path
        self.tokens, self.allows = tokenize(text)
        self.functions = []
        self.token_function = [None] * len(self.tokens)
        self.token_type = [None] * len(self.tokens)
        self._build_scopes()

    def segment_start(self, index):
        """Token index where the declaration segment owning tokens[index]
        begins (just past the previous `;`, `{` or `}`)."""
        i = index - 1
        while i >= 0 and self.tokens[i].text not in (";", "{", "}"):
            i -= 1
        return i + 1

    def _classify_brace(self, index, scope_stack):
        toks = self.tokens
        seg = toks[self.segment_start(index):index]
        texts = [t.text for t in seg]
        if "namespace" in texts:
            return ("ns", None)
        first_paren = texts.index("(") if "(" in texts else -1
        for kw in TYPE_KEYWORDS:
            if kw in texts:
                kw_at = texts.index(kw)
                if first_paren == -1 or kw_at < first_paren:
                    name = None
                    for t in seg[kw_at + 1:]:
                        if t.kind == "ident" and t.text != "final":
                            name = t.text
                            break
                    return ("type", name)
        in_function = any(kind == "func" for kind, _ in scope_stack)
        if first_paren > 0:
            before = texts[:first_paren]
            if any(t in CONTROL_KEYWORDS for t in before):
                return ("block", None)
            if "[" in before:  # lambda introducer
                return ("block", None) if in_function else ("func", "<lambda>")
            name_tok = seg[first_paren - 1]
            if name_tok.kind != "ident":
                return ("block", None)
            if in_function:
                # Nested braces with parens inside a function body are
                # blocks/lambdas, not new functions.
                return ("block", None)
            name = name_tok.text
            tilde_at = first_paren - 2
            if tilde_at >= 0 and texts[tilde_at] == "~":
                # Destructor: `~Foo() {` or `Foo::~Foo() {`.  Folding the
                # `~` into the name lets Function.is_structor() recognize
                # it, so lock discipline skips sole-owner teardown.
                name = "~" + name
                first_paren -= 1  # the qualifier check below looks past ~
            qualifier = None
            if first_paren >= 3 and texts[first_paren - 2] == "::":
                q = seg[first_paren - 3]
                if q.kind == "ident":
                    qualifier = q.text
            return ("func", (name, qualifier))
        if in_function:
            return ("block", None)
        if any(kind == "type" for kind, _ in scope_stack):
            return ("type", None)
        return ("block", None)

    def _build_scopes(self):
        toks = self.tokens
        scope_stack = []  # (kind, payload); payload: Function | type name
        for i, tok in enumerate(toks):
            current_func = None
            current_type = None
            for kind, payload in reversed(scope_stack):
                if current_func is None and kind == "func":
                    current_func = payload
                if current_type is None and kind == "type":
                    current_type = payload
            self.token_function[i] = current_func
            self.token_type[i] = current_type
            if tok.text == "{":
                kind, payload = self._classify_brace(i, scope_stack)
                if kind == "func":
                    name, qualifier = (payload if isinstance(payload, tuple)
                                       else (payload, None))
                    func = Function(name, qualifier, current_type,
                                    self.segment_start(i), i)
                    self.functions.append(func)
                    scope_stack.append(("func", func))
                else:
                    scope_stack.append((kind, payload))
            elif tok.text == "}":
                if scope_stack:
                    kind, payload = scope_stack.pop()
                    if kind == "func":
                        payload.body_end = i
        # Unterminated scopes (truncated file): close at EOF.
        for kind, payload in scope_stack:
            if kind == "func" and payload.body_end is None:
                payload.body_end = len(toks)


def statement_ranges(tokens, func):
    """Yields (start, end) token ranges approximating statements in a
    function body (split on top-level-ish `;`)."""
    start = func.body_start + 1
    i = start
    while i < func.body_end:
        if tokens[i].text in (";", "{", "}"):
            if i > start:
                yield (start, i)
            start = i + 1
        i += 1
    if start < func.body_end:
        yield (start, func.body_end)

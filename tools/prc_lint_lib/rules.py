"""Token-local lint rules: each inspects one FileModel independently.

Cross-file rules (the interprocedural and concurrency passes) live in
interproc.py and run on function summaries instead, so they stay valid
when per-file results are served from the summary cache.  The raw-data
taint rule (no-raw-to-sink) is computed alongside the summaries.
"""

import os

from .findings import Finding
from .model import norm

RAW_RANDOM_IDENTS = {"random_device", "mt19937", "mt19937_64",
                     "default_random_engine"}


def is_codec_path(path):
    return "codec" in os.path.basename(norm(path))


def check_raw_random(model):
    if norm(model.path).endswith("common/rng.h"):
        return []
    findings = []
    toks = model.tokens
    for i, tok in enumerate(toks):
        if tok.kind != "ident":
            continue
        hit = False
        if tok.text in RAW_RANDOM_IDENTS:
            hit = i >= 2 and toks[i - 1].text == "::" and \
                toks[i - 2].text == "std"
        elif tok.text in ("rand", "srand"):
            prev = toks[i - 1].text if i else ""
            hit = i + 1 < len(toks) and toks[i + 1].text == "(" and \
                prev not in (".", "->", "::")
        if hit:
            findings.append(Finding(
                "no-raw-random", model.path, tok.line,
                "use prc::Rng (src/common/rng.h); raw std randomness breaks "
                "reproducibility",
                function=getattr(model.token_function[i], "name", None)))
    return findings


def check_bare_assert(model):
    if norm(model.path).endswith("common/check.h"):
        return []
    findings = []
    toks = model.tokens
    for i, tok in enumerate(toks):
        if tok.kind == "ident" and tok.text == "assert" \
                and i + 1 < len(toks) and toks[i + 1].text == "(":
            findings.append(Finding(
                "no-bare-assert", model.path, tok.line,
                "use PRC_CHECK/PRC_DCHECK so the invariant survives NDEBUG "
                "and raises prc::ContractViolation",
                function=getattr(model.token_function[i], "name", None)))
    return findings


BUDGET_WORDS = ("epsilon", "price", "budget", "revenue", "spend", "alpha",
                "delta")
OPERAND_STOP = {";", ",", "(", "{", "}", "&&", "||", "!", "=", "<", ">",
                "<=", ">=", "==", "!=", "+", "-", "*", "/", "%", "<<", ">>",
                "?", ":", "return"}
# Operand chains containing these are not float comparisons: iterator
# sentinels, and compile-time size/trait queries (static_asserts on unit
# layout compare sizeof results by design).
ITERATOR_IDENTS = {"end", "begin", "cend", "cbegin", "nullptr", "npos",
                   "sizeof", "alignof"}


def _operand_idents(tokens, index, direction):
    """Identifiers forming the operand chain next to a comparison operator
    (walking over `.`/`->`/`::`/calls/subscripts until an operator)."""
    idents = []
    depth = 0
    i = index + direction
    while 0 <= i < len(tokens):
        t = tokens[i]
        if direction < 0:
            if t.text in (")", "]"):
                depth += 1
            elif t.text in ("(", "["):
                if depth == 0:
                    break
                depth -= 1
        else:
            if t.text in ("(", "["):
                depth += 1
            elif t.text in (")", "]"):
                if depth == 0:
                    break
                depth -= 1
        if depth == 0 and t.text in OPERAND_STOP and \
                t.text not in ("(", ")", "[", "]"):
            break
        if t.kind == "ident":
            idents.append(t.text)
        i += direction
    return idents


def check_float_eq_budget(model):
    findings = []
    toks = model.tokens
    for i, tok in enumerate(toks):
        if tok.text not in ("==", "!=") or tok.kind != "punct":
            continue
        left = _operand_idents(toks, i, -1)
        right = _operand_idents(toks, i, +1)
        if any(name in ITERATOR_IDENTS for name in left + right):
            continue
        joined = " ".join(left + right).lower()
        if any(word in joined for word in BUDGET_WORDS):
            findings.append(Finding(
                "no-float-eq-budget", model.path, tok.line,
                f"exact {tok.text} on budget-like value; compare against a "
                "tolerance or add `// lint:allow float-eq` with a "
                "justification",
                function=getattr(model.token_function[i], "name", None)))
    return findings


BOUNDS_GUARD_IDENTS = {"PRC_CHECK", "PRC_DCHECK", "PRC_CHECK_PROB",
                       "PRC_CHECK_FINITE", "CodecError", "size",
                       "kHeaderSize"}


def check_byte_access(model):
    if not is_codec_path(model.path):
        return []
    findings = []
    toks = model.tokens
    for i, tok in enumerate(toks):
        if tok.text != "[" or tok.kind != "punct":
            continue
        prev = toks[i - 1] if i else None
        if prev is None or not (prev.kind == "ident"
                                or prev.text in (")", "]")):
            continue  # lambda introducers, attributes
        func = model.token_function[i]
        if func is None:
            continue
        guarded = any(
            t.kind == "ident" and (t.text in BOUNDS_GUARD_IDENTS
                                   or t.text == "256")
            or (t.kind == "number" and t.text == "256")
            for t in toks[func.body_start:i])
        if not guarded:
            findings.append(Finding(
                "checked-byte-access", model.path, tok.line,
                "raw subscript in codec path without a bounds guard in the "
                "enclosing function; add PRC_DCHECK(offset + n <= "
                "buf.size()) or validate the frame first",
                function=func.name))
    return findings


def check_telemetry_lookup_in_loop(model):
    findings = []
    toks = model.tokens
    for func in model.functions:
        depth = 0
        loop_depths = []
        pending_loop = False   # saw for/while(...), waiting for its `{`
        paren_depth = 0
        in_loop_header = 0
        for i in range(func.body_start + 1, func.body_end):
            t = toks[i]
            if t.kind == "ident" and t.text in ("for", "while") \
                    and i + 1 < len(toks) and toks[i + 1].text == "(":
                pending_loop = True
                in_loop_header = paren_depth + 1
            elif t.text == "(":
                paren_depth += 1
            elif t.text == ")":
                paren_depth -= 1
                if in_loop_header and paren_depth < in_loop_header:
                    in_loop_header = 0
            elif t.text == "{":
                if pending_loop:
                    loop_depths.append(depth)
                    pending_loop = False
                depth += 1
            elif t.text == "}":
                depth -= 1
                while loop_depths and depth <= loop_depths[-1]:
                    loop_depths.pop()
            if t.kind == "ident" and t.text == "telemetry" \
                    and (loop_depths or pending_loop or in_loop_header) \
                    and i + 3 < len(toks) \
                    and toks[i + 1].text == "::" \
                    and toks[i + 2].text in ("counter", "histogram", "gauge") \
                    and toks[i + 3].text == "(":
                seg_start = model.segment_start(i)
                if any(s.text == "static"
                       for s in toks[seg_start:i]):
                    continue
                findings.append(Finding(
                    "no-telemetry-lookup-in-loop", model.path, t.line,
                    "name-keyed telemetry lookup inside a loop re-hashes the "
                    "name and locks the registry every iteration; hoist it "
                    "into a `static telemetry::Counter& ... = "
                    "telemetry::counter(...)` (registry references are "
                    "process-lifetime stable) or add `// lint:allow "
                    "telemetry-lookup` with a justification",
                    function=func.name))
    return findings


UNIT_WORDS = ("epsilon", "delta", "alpha")
UNIT_SKIP_QUALIFIERS = {"const", "*", "&", "&&"}


def unit_rule_applies(path):
    p = norm(path)
    return "src/dp/" in p or "src/pricing/" in p \
        or "unit_suffix" in os.path.basename(p)


def check_unit_suffix_consistency(model):
    """In the DP and pricing layers, epsilon/delta/alpha-named parameters
    and fields must carry the phantom unit types, not bare double."""
    if not unit_rule_applies(model.path):
        return []
    findings = []
    toks = model.tokens
    for i, tok in enumerate(toks):
        if tok.kind != "ident" or tok.text != "double":
            continue
        j = i + 1
        while j < len(toks) and toks[j].text in UNIT_SKIP_QUALIFIERS:
            j += 1
        if j >= len(toks) or toks[j].kind != "ident":
            continue
        name = toks[j].text.lower()
        if not any(word in name for word in UNIT_WORDS):
            continue
        after = toks[j + 1].text if j + 1 < len(toks) else ""
        in_function = model.token_function[i] is not None
        is_param = after in (",", ")") and not in_function
        is_field = after in (";", "=") and not in_function \
            and model.token_type[i] is not None
        if not (is_param or is_field):
            continue
        kind = "parameter" if is_param else "field"
        findings.append(Finding(
            "unit-suffix-consistency", model.path, tok.line,
            f"{kind} `double {toks[j].text}` names a privacy quantity; use "
            "the unit types from common/units.h (Epsilon, EffectiveEpsilon, "
            "Delta, Alpha, Probability) so unit mix-ups fail to compile, or "
            "add `// lint:allow unit-suffix` with a justification"))
    return findings


TOKEN_RULES = (check_raw_random, check_bare_assert, check_float_eq_budget,
               check_byte_access, check_telemetry_lookup_in_loop,
               check_unit_suffix_consistency)

"""Per-function summaries: the unit of whole-program analysis.

A summary captures everything the interprocedural rules need to know
about one function WITHOUT re-reading its tokens: calls made (the call
graph edges), lock acquisition events and PRC_REQUIRES capabilities,
blocking calls, atomic read-modify-writes and branch conditions, WAL
crash points, and a symbolic taint dataflow.

The taint pass runs the same function-local propagation the old
`no-raw-to-sink` rule used, but where the old rule could only say
"tainted or not", the summary keeps SYMBOLIC dependencies: a local fed
from `helper()` depends on `call:helper`, a sink fed from a parameter
depends on `param:x`.  The interprocedural pass later resolves those
symbols against every other function's summary at fixed point — which is
exactly what catches the two-call laundering chain
(`helper() { return raw.get(); }` -> `telemetry::gauge(helper())`) that
a per-function view must miss.

Summaries are plain dicts of plain values, so the content-hash cache can
serialize them as JSON and a warm run never re-tokenizes an unchanged
file.
"""

from .findings import Finding
from .model import statement_ranges, stem

#: Calls whose result is a pre-noise estimate (the RAW taint sources).
RAW_SAMPLE_IDENTS = {"sampled_estimate", "rank_counting_estimate",
                     "basic_counting_estimate", "quantile_estimate"}

SINK_IDENTS = {"to_json", "to_csv", "write_csv", "serialize",
               "export_telemetry", "write_row", "append_row",
               # Privacy-budget audit timeline (market/audit_log.h): events
               # are exported as JSONL, so a raw estimate reaching
               # append_event leaks exactly like a telemetry record would.
               # The ledger's fold is its single append point, so every
               # Ledger entry point that feeds the fold a parameter is a
               # sink for that parameter by the interprocedural pass.
               "append_event"}

LOCK_ACQUIRE_IDENTS = {"lock_guard", "scoped_lock", "unique_lock",
                       "shared_lock"}

#: Calls that can block the caller for an unbounded time (disk, sockets,
#: pool fan-out, cv waits).  Reaching one of these while holding a mutex
#: that GUARDS data (PRC_GUARDED_BY) serializes every reader of that data
#: behind the slow operation — the blocking-under-lock rule's subject.
BLOCKING_CALL_IDENTS = {
    # Raw file I/O and the WAL's durable-write helpers.
    "fsync", "fdatasync", "write", "pwrite", "write_fully", "fsync_or_die",
    "flush",
    # The WAL public surface: append_* fsync in kMediaDurable mode, and
    # compact rewrites the whole log.  Holding any OTHER hot mutex across
    # them queues every concurrent sale behind one disk flush.
    "append_intent", "append_commit", "append_checkpoint", "compact",
    # Socket operations (metrics_http's exposition endpoint).
    "accept", "recv", "send", "connect",
    # Pool submission: a parallel region under a lock means every worker
    # the region fans out to is effectively inside the critical section.
    "parallel_for", "parallel_for_each", "parallel_reduce", "submit",
}

#: condition_variable wait entry points, matched as member calls on a
#: receiver whose name contains "cv" (wake_cv_, done_cv_, cv).  The wait's
#: OWN mutex (the lock variable passed as first argument) is exempt — that
#: is how cv waits work — but holding any second guard-mutex across a wait
#: is a classic lost-throughput/deadlock shape.
CV_WAIT_IDENTS = {"wait", "wait_for", "wait_until"}

#: Non-CAS read-modify-write operators.  `counter_++` on another module's
#: relaxed atomic moves contended-update logic outside the owning class,
#: where the memory-ordering contract that makes it safe is invisible.
RMW_OPS = {"++", "--", "+=", "-=", "*=", "/=", "|=", "&=", "^="}

#: Call results never recorded as taint dependencies: ubiquitous accessor
#: names whose cross-class collisions would drown the analysis in noise.
#: (`.get()` on a Raw local is special-cased to RAW separately.)
ACCESSOR_STOPLIST = {
    "value", "get", "size", "count", "length", "empty", "c_str", "data",
    "begin", "end", "cbegin", "cend", "front", "back", "at", "find",
    "insert", "erase", "push_back", "emplace_back", "reserve", "resize",
    "clear", "append", "substr", "str", "first", "second", "to_string",
    "min", "max", "abs", "clamp", "move", "swap", "isfinite", "isnan",
    "increment", "add", "set", "record", "observe", "string", "vector",
    "what", "name",
}

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
    "throw", "new", "delete", "decltype", "noexcept", "typeid", "do",
    "else", "case", "default", "break", "continue", "operator",
}

#: The raw "RAW" dependency: a pre-noise estimate reached this value
#: directly (no symbol resolution needed).
RAW = "RAW"

#: The calls that append a WAL intent, and those that resolve one (a commit
#: record, or recovery charging it as an orphan) — read by the
#: wal-intent-commit-pairing rule.
WAL_INTENT_CALLS = {"append_intent"}
WAL_COMMIT_CALLS = {"append_commit", "absorb_orphaned"}


def _looks_like_macro(name):
    return name.isupper()


class FunctionSummary:
    __slots__ = ("name", "qualifier", "type_scope", "path", "line",
                 "params", "calls", "requires", "crash_points",
                 "sink_flows", "arg_flows",
                 "returns_direct_raw", "return_dep_calls",
                 "return_dep_params", "raw_sink_findings",
                 "lock_events", "blocking_calls", "rmw_uses", "branch_uses")

    def __init__(self, **kw):
        for slot in self.__slots__:
            setattr(self, slot, kw.get(slot))

    @property
    def owner(self):
        return self.qualifier or self.type_scope

    def to_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


def _parse_params(toks, func):
    """Parameter names from the signature segment (last ident of each
    comma-separated chunk inside the first paren group)."""
    i = func.sig_start
    while i < func.body_start and toks[i].text != "(":
        i += 1
    if i >= func.body_start:
        return []
    params = []
    depth = 0
    chunk = []
    for j in range(i, func.body_start):
        t = toks[j]
        if t.text == "(":
            depth += 1
            continue
        if t.text == ")":
            depth -= 1
            if depth == 0:
                if chunk:
                    params.append(chunk)
                break
            continue
        if t.text == "," and depth == 1:
            params.append(chunk)
            chunk = []
        elif depth >= 1:
            chunk.append(t)
    names = []
    for chunk in params:
        idents = [t.text for t in chunk if t.kind == "ident"]
        # `= default_value` trailers: the name precedes the first `=`.
        for k, t in enumerate(chunk):
            if t.text == "=":
                idents = [x.text for x in chunk[:k] if x.kind == "ident"]
                break
        if idents and idents[-1] not in ("void", "const"):
            names.append(idents[-1])
    return names


def _expr_sources(toks, start, end, raw_vars, tainted, params):
    """Symbolic source set of an expression range: RAW for direct pre-noise
    sources, call:<name> for unresolved call results, param:<name> for
    function parameters (resolved later against the caller's arguments)."""
    sources = set()
    for j in range(start, end):
        t = toks[j]
        if t.kind != "ident":
            continue
        nxt = toks[j + 1].text if j + 1 < len(toks) else ""
        prev = toks[j - 1].text if j > 0 else ""
        if t.text in RAW_SAMPLE_IDENTS and nxt in ("(", ".", ";", ")", ","):
            sources.add(RAW)
            continue
        if t.text.startswith(("raw_", "exact_")):
            sources.add(RAW)
            continue
        # Raw sensor readings: `node->value`, `record.value`,
        # `Record::value`, and the `values()` accessors of sample sets.
        if (t.text == "value" and (prev == "->" or (
                prev in (".", "::") and j >= 2
                and toks[j - 2].text in ("record", "Record")))) \
                or (t.text == "values" and nxt == "("):
            sources.add(RAW)
            continue
        if t.text == "get" and nxt == "(" and j >= 2 \
                and toks[j - 1].text == "." \
                and toks[j - 2].text in raw_vars:
            sources.add(RAW)
            continue
        if t.text in tainted:
            sources.update(tainted[t.text])
            continue
        if nxt == "(" and t.text not in ACCESSOR_STOPLIST \
                and t.text not in CPP_KEYWORDS \
                and not _looks_like_macro(t.text) \
                and prev != "~":
            sources.add("call:" + t.text)
            continue
        if t.text in params and prev not in (".", "->"):
            sources.add("param:" + t.text)
    return sources


def _is_sink_statement(toks, start, end):
    for j in range(start, end):
        t = toks[j]
        if t.kind != "ident":
            continue
        if t.text in SINK_IDENTS:
            return True
        if t.text == "telemetry" and j + 1 < end and toks[j + 1].text == "::":
            return True
        if t.text == "record" and j >= 2 and toks[j - 1].text in (".", "->") \
                and "ledger" in toks[j - 2].text:
            return True
    return False


def _assignment_split(toks, start, end):
    """(lhs_name, rhs_start) for an assignment or direct-init statement,
    or (None, None)."""
    eq_at = None
    depth = 0
    for j in range(start, end):
        t = toks[j].text
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
        elif depth == 0 and t in ("=", "+=", "-=", "*=", "/="):
            eq_at = j
            break
    if eq_at is not None:
        if toks[eq_at - 1].kind == "ident":
            return toks[eq_at - 1].text, eq_at + 1, toks[eq_at].text
        return None, None, None
    if end - start >= 3 and toks[end - 1].text == ")" \
            and toks[start].kind == "ident":
        # Direct-init declaration: `double x(expr)` — a TYPE ident must
        # precede the name, so bare call statements `helper(args)` are not
        # mistaken for declarations of a variable named `helper`.
        for j in range(start, end):
            if toks[j].text == "(":
                if j - 1 > start and toks[j - 1].kind == "ident" \
                        and toks[j - 2].kind == "ident":
                    return toks[j - 1].text, j + 1, None
                break
    return None, None, None


def _raw_var_declaration(toks, start, end):
    """Variable name declared as units::Raw<...> in this statement."""
    texts = [toks[j].text for j in range(start, end)]
    if "Raw" not in texts:
        return None
    raw_at = start + texts.index("Raw")
    depth = 0
    for j in range(raw_at + 1, end):
        t = toks[j]
        if t.text == "<":
            depth += 1
        elif t.text == ">":
            depth -= 1
            if depth == 0:
                if j + 1 < end and toks[j + 1].kind == "ident":
                    return toks[j + 1].text
                break
    return None


def _call_argument_range(toks, call_index, end):
    """(args_start, args_end) token range for the call at call_index."""
    if call_index + 1 >= end or toks[call_index + 1].text != "(":
        return None
    depth = 0
    for j in range(call_index + 1, end):
        if toks[j].text == "(":
            depth += 1
        elif toks[j].text == ")":
            depth -= 1
            if depth == 0:
                return (call_index + 2, j)
    return (call_index + 2, end)


#: Helper names never treated as a mutex operand of a lock constructor
#: (`std::unique_lock lk(m, std::defer_lock)` and friends).
_LOCK_TAG_IDENTS = {"std", "defer_lock", "adopt_lock", "try_to_lock",
                    "mutex", "shared_mutex", "recursive_mutex"}


def _brace_close_map(toks, func):
    """{open_brace_index: close_brace_index} for every block inside the
    function body (the body braces themselves included)."""
    pairs = {}
    stack = []
    for i in range(func.body_start, func.body_end + 1):
        t = toks[i].text
        if t == "{":
            stack.append(i)
        elif t == "}" and stack:
            pairs[stack.pop()] = i
    return pairs


def _innermost_scope_end(brace_pairs, func, index):
    """Token index of the `}` closing the innermost block containing
    `index` — the point where an RAII lock taken at `index` releases."""
    best = func.body_end
    for open_at, close_at in brace_pairs.items():
        if open_at < index <= close_at and close_at < best:
            best = close_at
    return best


def _qualify_mutex(name, owner, path):
    """Member-style mutex names (trailing underscore) are qualified by the
    owning class so `Ledger::mutex_` and `BaseStation::mutex_` stay
    distinct nodes in the global lock graph; free/namespace-scope names
    (pool_mutex, g_sink_mutex) are already unique and stay bare."""
    if name.endswith("_"):
        return f"{owner or stem(path)}::{name}"
    return name


def _lock_event(toks, i, func, owner, path, brace_pairs):
    """Parses the RAII lock construction starting at the LOCK_ACQUIRE_IDENTS
    token `i` into a lock event, or None when no mutex operand is visible
    (deferred locks, bare declarations).

    A multi-mutex `std::scoped_lock lock(a, b)` is ONE event: the standard
    acquires its operands deadlock-free, so no ordering edge may be drawn
    between them."""
    # Find the constructor's paren, skipping any template argument list.
    j = i + 1
    limit = min(func.body_end, i + 40)
    if j < limit and toks[j].text == "<":
        depth = 0
        while j < limit:
            if toks[j].text == "<":
                depth += 1
            elif toks[j].text == ">":
                depth -= 1
                if depth == 0:
                    j += 1
                    break
            j += 1
    var = None
    while j < limit and toks[j].text not in ("(", ";", "{", "}"):
        if toks[j].kind == "ident":
            var = toks[j].text
        j += 1
    if j >= limit or toks[j].text != "(":
        return None  # deferred/bare declaration: nothing acquired here
    # Comma-split the argument list; the mutex of each chunk is its last
    # ident (`mutex_`, `other.mutex_`, `pool_mutex()` all end on it).
    depth = 0
    chunks = [[]]
    k = j
    while k <= func.body_end:
        t = toks[k]
        if t.text == "(":
            depth += 1
            if depth == 1:
                k += 1
                continue
        elif t.text == ")":
            depth -= 1
            if depth == 0:
                break
        elif t.text == "," and depth == 1:
            chunks.append([])
            k += 1
            continue
        if depth >= 1:
            chunks[-1].append(t)
        k += 1
    mutexes = []
    for chunk in chunks:
        idents = [t.text for t in chunk if t.kind == "ident"]
        if not idents or idents[-1] in _LOCK_TAG_IDENTS:
            continue
        mutexes.append(_qualify_mutex(idents[-1], owner, path))
    if not mutexes:
        return None
    return {"mutexes": sorted(set(mutexes)), "var": var,
            "line": toks[i].line, "order": i,
            "scope_end": _innermost_scope_end(brace_pairs, func, i)}


def _condition_uses(toks, i, func):
    """Own-member idents (trailing underscore, not behind `.`/`->` of
    another object) read inside the `if`/`while` condition starting after
    token `i`."""
    if i + 1 > func.body_end or toks[i + 1].text != "(":
        return []
    uses = []
    depth = 0
    for j in range(i + 1, func.body_end):
        t = toks[j]
        if t.text == "(":
            depth += 1
        elif t.text == ")":
            depth -= 1
            if depth == 0:
                break
        elif t.kind == "ident" and t.text.endswith("_"):
            prev = toks[j - 1].text if j > 0 else ""
            prev2 = toks[j - 2].text if j > 1 else ""
            if prev in (".", "->") and prev2 != "this":
                continue
            uses.append({"name": t.text, "line": t.line})
    return uses


def summarize_function(model, func):
    """Builds the FunctionSummary for one function, plus any function-local
    no-raw-to-sink findings (direct RAW reaching a sink)."""
    toks = model.tokens
    params = _parse_params(toks, func)
    param_set = set(params)

    sig = toks[func.sig_start:func.body_start]
    requires = []
    for k, t in enumerate(sig):
        if t.kind == "ident" and t.text in ("PRC_REQUIRES", "PRC_ACQUIRE"):
            for u in sig[k + 1:k + 6]:
                if u.kind == "ident":
                    requires.append(u.text)
                    break

    owner = func.qualifier or func.type_scope
    brace_pairs = _brace_close_map(toks, func)
    calls = []
    crash_points = []
    lock_events = []
    blocking_calls = []
    rmw_uses = []
    branch_uses = []
    for i in range(func.body_start + 1, func.body_end):
        t = toks[i]
        if t.kind != "ident":
            continue
        nxt = toks[i + 1].text if i + 1 < len(toks) else ""
        prev = toks[i - 1].text if i > 0 else ""
        prev2 = toks[i - 2].text if i > 1 else ""
        if t.text == "PRC_CRASH_POINT" and nxt == "(" \
                and i + 2 < len(toks) and toks[i + 2].kind == "string":
            crash_points.append(toks[i + 2].text.strip('"'))
            continue
        if t.text in ("if", "while") and nxt == "(":
            branch_uses.extend(_condition_uses(toks, i, func))
            continue
        if nxt == "(" and t.text not in CPP_KEYWORDS \
                and not _looks_like_macro(t.text) and prev != "~" \
                and not (prev == ">"
                         or (i > 0 and toks[i - 1].kind == "ident"
                             and prev not in CPP_KEYWORDS)):
            # `Type name(args)` / `Tmpl<...> name(args)` is a declarator,
            # not a call — recording `name` would wire the variable into
            # the call graph (a lock_guard named `serialize` must not
            # resolve to some class's serialize() method).
            member = prev in (".", "->")
            recv = prev2 if member and i > 1 and \
                toks[i - 2].kind == "ident" else None
            calls.append({"name": t.text, "line": t.line, "order": i,
                          "member": member, "recv": recv})
            if t.text in BLOCKING_CALL_IDENTS:
                blocking_calls.append({"name": t.text, "line": t.line,
                                       "order": i, "cv_arg": None})
            elif t.text in CV_WAIT_IDENTS and member and recv \
                    and "cv" in recv:
                # The wait's own lock variable (first argument) is exempt
                # from the held set when the blocking rule judges this
                # site; any OTHER mutex held across the wait is a finding.
                cv_arg = None
                for u in toks[i + 2:i + 5]:
                    if u.kind == "ident":
                        cv_arg = u.text
                        break
                blocking_calls.append({"name": f"{recv}.{t.text}",
                                       "line": t.line, "order": i,
                                       "cv_arg": cv_arg or ""})
        if t.text in LOCK_ACQUIRE_IDENTS:
            event = _lock_event(toks, i, func, owner, model.path,
                                brace_pairs)
            if event:
                lock_events.append(event)
        elif nxt == "." and i + 2 < len(toks) \
                and toks[i + 2].text == "lock":
            if t.text.endswith("_") or "mutex" in t.text:
                lock_events.append({
                    "mutexes": [_qualify_mutex(t.text, owner, model.path)],
                    "var": t.text, "line": t.line, "order": i,
                    # .lock()/.unlock() pairs are not scope-bound; assume
                    # held to the end of the function (conservative).
                    "scope_end": func.body_end})
        if t.text.endswith("_") and nxt != "(":
            if prev in (".", "->") and prev2 != "this":
                continue  # member of some other object
            if nxt in RMW_OPS or prev in ("++", "--"):
                rmw_uses.append({"name": t.text, "line": t.line})

    # --- symbolic taint dataflow --------------------------------------
    raw_vars = set()
    tainted = {}        # local name -> set of source symbols
    sink_flows = []     # unresolved flows into sinks
    arg_flows = []      # tainted data passed as call arguments
    returns_direct_raw = False
    return_dep_calls = set()
    return_dep_params = set()
    raw_sink_findings = []

    for start, end in statement_ranges(toks, func):
        raw_var = _raw_var_declaration(toks, start, end)
        if raw_var:
            raw_vars.add(raw_var)

        if _is_sink_statement(toks, start, end):
            sources = _expr_sources(toks, start, end, raw_vars, tainted,
                                    param_set)
            if RAW in sources:
                raw_sink_findings.append(Finding(
                    "no-raw-to-sink", model.path, toks[start].line,
                    "a pre-noise (raw) estimate flows into an export "
                    "sink; only RELEASED (perturbed) values, counts and "
                    "prices may leave the process.  Perturb first, or "
                    "add `// lint:allow raw-sink` with a justification",
                    function=func.name))
            elif sources:
                sink_flows.append({"line": toks[start].line,
                                   "deps": sorted(sources)})
            continue

        if toks[start].text == "return":
            sources = _expr_sources(toks, start + 1, end, raw_vars, tainted,
                                    param_set)
            if RAW in sources:
                returns_direct_raw = True
            for dep in sources:
                if dep.startswith("call:"):
                    return_dep_calls.add(dep[5:])
                elif dep.startswith("param:"):
                    return_dep_params.add(dep[6:])
            continue

        # Tainted data handed to another function: the callee may sink it.
        for k in range(start, end):
            t = toks[k]
            if t.kind != "ident" or t.text in CPP_KEYWORDS \
                    or t.text in ACCESSOR_STOPLIST \
                    or _looks_like_macro(t.text):
                continue
            arg_range = _call_argument_range(toks, k, end)
            if arg_range is None:
                continue
            sources = _expr_sources(toks, arg_range[0], arg_range[1],
                                    raw_vars, tainted, param_set)
            if sources:
                arg_flows.append({"callee": t.text, "line": t.line,
                                  "deps": sorted(sources)})

        lhs, rhs_start, op = _assignment_split(toks, start, end)
        if lhs and rhs_start is not None:
            sources = _expr_sources(toks, rhs_start, end, raw_vars, tainted,
                                    param_set)
            if sources:
                tainted[lhs] = sources
            elif lhs in tainted and op == "=":
                del tainted[lhs]  # overwritten with clean data

    summary = FunctionSummary(
        name=func.name, qualifier=func.qualifier, type_scope=func.type_scope,
        path=model.path, line=toks[func.sig_start].line
        if func.sig_start < len(toks) else 0,
        params=params, calls=calls, requires=requires,
        crash_points=crash_points, sink_flows=sink_flows,
        arg_flows=arg_flows, returns_direct_raw=returns_direct_raw,
        return_dep_calls=sorted(return_dep_calls),
        return_dep_params=sorted(return_dep_params),
        raw_sink_findings=None,
        lock_events=lock_events, blocking_calls=blocking_calls,
        rmw_uses=rmw_uses, branch_uses=branch_uses)
    return summary, raw_sink_findings


def collect_guarded_fields(model):
    """{field_name: mutex_name} from PRC_GUARDED_BY annotations in one
    file (declared in headers, enforced across the matching .h/.cc pair)."""
    fields = {}
    toks = model.tokens
    for i, tok in enumerate(toks):
        if tok.kind != "ident" or tok.text != "PRC_GUARDED_BY":
            continue
        if i + 2 >= len(toks) or toks[i + 1].text != "(":
            continue
        mutex = toks[i + 2].text
        if toks[i - 1].kind != "ident":
            continue
        fields[toks[i - 1].text] = mutex
    return fields


#: Annotation macros whose arguments NAME a mutex: a mutex referenced by
#: any of these is documented — some field's guard, a capability the API
#: declares.  Used by the atomic-discipline coverage check.
_GUARD_REF_MACROS = {"PRC_GUARDED_BY", "PRC_PT_GUARDED_BY", "PRC_REQUIRES",
                     "PRC_ACQUIRE", "PRC_RELEASE", "PRC_EXCLUDES"}

#: std:: concurrency primitive type names whose field declarations the
#: adoption gate inventories.  condition_variable is deliberately absent:
#: a cv pairs with an (already inventoried) mutex and guards nothing.
_PRIMITIVE_KINDS = {"mutex": "mutex", "shared_mutex": "mutex",
                    "recursive_mutex": "mutex", "timed_mutex": "mutex",
                    "atomic": "atomic", "atomic_flag": "atomic"}


def collect_concurrency(model):
    """Concurrency-primitive inventory for one file: every std::mutex /
    std::atomic FIELD declaration (class or namespace scope — locals and
    parameters are skipped) plus the set of mutex names referenced by any
    thread-safety annotation.

    {"decls": [{"kind", "name", "owner", "line"}], "guards": [names]}"""
    toks = model.tokens
    decls = []
    guards = set()
    spans = [(f.sig_start, f.body_end) for f in model.functions
             if f.body_end is not None]

    def in_function(index):
        return any(a <= index <= b for a, b in spans)

    for i, tok in enumerate(toks):
        if tok.kind != "ident":
            continue
        if tok.text in _GUARD_REF_MACROS:
            if i + 2 < len(toks) and toks[i + 1].text == "(":
                for u in toks[i + 2:i + 8]:
                    if u.text == ")":
                        break
                    if u.kind == "ident":
                        guards.add(u.text)
            continue
        kind = _PRIMITIVE_KINDS.get(tok.text)
        if kind is None:
            continue
        prev = toks[i - 1].text if i > 0 else ""
        prev2 = toks[i - 2].text if i > 1 else ""
        if not (prev == "::" and prev2 == "std"):
            continue
        if in_function(i):
            continue  # local variable or parameter, not a shared field
        # Find the declared name: skip the template argument list, then
        # take the next ident; require a declarator tail (`;`, `{`, `=`)
        # so function declarations/returns are not mistaken for fields.
        j = i + 1
        if j < len(toks) and toks[j].text == "<":
            depth = 0
            while j < len(toks):
                if toks[j].text == "<":
                    depth += 1
                elif toks[j].text == ">":
                    depth -= 1
                    if depth == 0:
                        j += 1
                        break
                j += 1
        while j < len(toks) and toks[j].text in ("&", "*", "const"):
            j += 1
        if j >= len(toks) or toks[j].kind != "ident":
            continue
        name = toks[j].text
        tail = toks[j + 1].text if j + 1 < len(toks) else ""
        if tail not in (";", "{", "="):
            continue
        decls.append({"kind": kind, "name": name,
                      "owner": model.token_type[i], "line": toks[j].line})
    return {"decls": decls, "guards": sorted(guards)}


def summarize_file(model):
    """(summaries, guarded_fields, concurrency, local_findings) for one
    FileModel."""
    summaries = []
    findings = []
    for func in model.functions:
        summary, raw_findings = summarize_function(model, func)
        summaries.append(summary)
        findings.extend(raw_findings)
    return (summaries, collect_guarded_fields(model),
            collect_concurrency(model), findings)

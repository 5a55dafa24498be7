"""Whole-program rules: fixed-point propagation over function summaries.

Call edges are resolved by NAME (C++ overload/virtual resolution is out of
reach for a tokenizer), which over-approximates the real call graph — a
deliberate choice for a privacy linter: over-taint produces a reviewable
finding with an escape hatch, under-taint silently leaks a pre-noise
estimate.

Rules:
  interproc-raw-taint       Raw-derived values must not reach an export
                            sink through ANY call chain (raw-returning
                            helpers, param-sinking helpers).
  budget-barrier-dominance  Every path from market/tool code to
                            LaplaceMechanism::perturb must cross
                            DataBroker::mint_answer_with_intent, the sole
                            function allowed to flush a WAL intent before
                            the noise draw (Theorem 4.2's ledger
                            conservation depends on that dominance).
  wal-intent-commit-pairing A function appending a WAL intent must have a
                            commit/absorb_orphaned reachable from itself
                            or a transitive caller, else recovery charges
                            every sale as an orphan.
  lock-order                Global lock-acquisition graph (which mutex is
                            taken while which is held, through any call
                            chain); every cycle is a potential deadlock.
                            The acyclic graph's topological order is the
                            canonical lock order (build/lock_order.txt).
  blocking-under-lock       Blocking operations (disk, sockets, pool
                            fan-out, cv waits) must not be reachable while
                            a PRC_GUARDED_BY mutex is held, unless the
                            hold is load-bearing (`lint:allow blocking`).
  atomic-discipline         Every std::mutex/std::atomic field carries a
                            documented annotation or an allow-list hatch;
                            relaxed atomics may not feed control flow or
                            non-CAS RMW outside their owning module.
"""

import os

from .findings import Finding
from .model import norm, stem
from .summaries import (ACCESSOR_STOPLIST, BLOCKING_CALL_IDENTS,
                        RAW_SAMPLE_IDENTS, WAL_COMMIT_CALLS,
                        WAL_INTENT_CALLS)

MINT_MEMBER_NAMES = ("answer", "try_answer", "perturb")
MINT_BARRIER_FUNCTION = "mint_answer_with_intent"


def _name_is_raw_source(name):
    return name in RAW_SAMPLE_IDENTS or name.startswith(("raw_", "exact_"))


def _call_edges(summaries):
    """{caller_name: set(callee_names)} and the reverse map."""
    out = {}
    rev = {}
    for s in summaries:
        callees = out.setdefault(s.name, set())
        for c in s.calls:
            callees.add(c["name"])
            rev.setdefault(c["name"], set()).add(s.name)
    return out, rev


def _closure(seed, edges):
    """Transitive closure of `seed` names over the name graph `edges`."""
    seen = set(seed)
    frontier = list(seed)
    while frontier:
        name = frontier.pop()
        for nxt in edges.get(name, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# interproc-raw-taint
# ---------------------------------------------------------------------------

def _raw_returning_names(summaries):
    """Fixed point: functions whose return value derives from a pre-noise
    estimate (directly, or through a raw-returning callee)."""
    raw = {s.name for s in summaries if s.returns_direct_raw}
    changed = True
    while changed:
        changed = False
        for s in summaries:
            if s.name in raw:
                continue
            for callee in s.return_dep_calls:
                if callee in raw or _name_is_raw_source(callee):
                    raw.add(s.name)
                    changed = True
                    break
    return raw


def _param_sinking_names(summaries):
    """Fixed point: functions that forward a parameter into an export sink
    (directly, or by passing it to another param-sinking function)."""
    sinking = set()
    for s in summaries:
        for flow in s.sink_flows:
            if any(d.startswith("param:") for d in flow["deps"]):
                sinking.add(s.name)
                break
    changed = True
    while changed:
        changed = False
        for s in summaries:
            if s.name in sinking:
                continue
            for flow in s.arg_flows:
                if flow["callee"] in sinking \
                        and any(d.startswith("param:")
                                for d in flow["deps"]):
                    sinking.add(s.name)
                    changed = True
                    break
    return sinking


def check_interproc_raw_taint(summaries):
    raw_names = _raw_returning_names(summaries)
    sinking = _param_sinking_names(summaries)

    def raw_deps(deps):
        hits = []
        for dep in deps:
            if dep == "RAW":
                hits.append("a raw estimate")
            elif dep.startswith("call:"):
                callee = dep[5:]
                if callee in raw_names or _name_is_raw_source(callee):
                    hits.append(f"`{callee}()` (returns a raw estimate)")
        return hits

    findings = []
    for s in summaries:
        for flow in s.sink_flows:
            hits = raw_deps(flow["deps"])
            if hits:
                findings.append(Finding(
                    "interproc-raw-taint", s.path, flow["line"],
                    f"value derived from {', '.join(hits)} reaches an "
                    "export sink through a call chain; only RELEASED "
                    "(perturbed) values may leave the process.  Perturb "
                    "first, or add `// lint:allow interproc-taint` with a "
                    "justification", function=s.name))
        for flow in s.arg_flows:
            if flow["callee"] not in sinking:
                continue
            hits = raw_deps(flow["deps"])
            if hits:
                findings.append(Finding(
                    "interproc-raw-taint", s.path, flow["line"],
                    f"value derived from {', '.join(hits)} is passed to "
                    f"`{flow['callee']}()`, which forwards its parameter "
                    "into an export sink; only RELEASED (perturbed) values "
                    "may leave the process.  Perturb first, or add "
                    "`// lint:allow interproc-taint` with a justification",
                    function=s.name))
    return findings


# ---------------------------------------------------------------------------
# budget-barrier-dominance
# ---------------------------------------------------------------------------

def _dominance_scope(path):
    p = norm(path)
    base = os.path.basename(p)
    if "lint_fixtures" in p:
        return "mint" in base or "barrier" in base
    return "src/market/" in p or "mint" in base or "tools/" in p


def _mint_reaching_names(summaries, blessed):
    """Names that transitively reach a `.answer()`/`.perturb()` mint call
    WITHOUT crossing mint_answer_with_intent.  Calls to the barrier are
    not followed: the barrier is the legal gateway, so a function whose
    only path to perturb runs through it does not 'reach' a mint.  A call
    whose line carries `lint:allow barrier|mint` is likewise not followed
    — one hatch at the true mint site blesses the whole chain above it,
    instead of demanding a hatch at every transitive caller."""
    reach = set()
    for s in summaries:
        if s.name == MINT_BARRIER_FUNCTION:
            continue
        if any(c["member"] and c["name"] in MINT_MEMBER_NAMES
               and not blessed(s.path, c["line"]) for c in s.calls):
            reach.add(s.name)
    changed = True
    while changed:
        changed = False
        for s in summaries:
            if s.name in reach or s.name == MINT_BARRIER_FUNCTION:
                continue
            for c in s.calls:
                if c["name"] == MINT_BARRIER_FUNCTION \
                        or blessed(s.path, c["line"]):
                    continue
                if c["name"] in reach:
                    reach.add(s.name)
                    changed = True
                    break
    return reach


def check_budget_barrier_dominance(summaries, allows_by_path):
    def blessed(path, line):
        allows = allows_by_path.get(path)
        if not allows:
            return False
        return line in allows.get("barrier", ()) \
            or line in allows.get("mint", ())

    reach = _mint_reaching_names(summaries, blessed)
    findings = []
    for s in summaries:
        if not _dominance_scope(s.path):
            continue
        if s.name == MINT_BARRIER_FUNCTION \
                or s.name in MINT_MEMBER_NAMES:
            continue
        seen = set()
        for c in s.calls:
            if c["name"] == MINT_BARRIER_FUNCTION or c["name"] in seen:
                continue
            direct_mint = c["member"] and c["name"] in MINT_MEMBER_NAMES
            if not direct_mint and c["name"] not in reach:
                continue
            seen.add(c["name"])
            how = ("mints privacy budget directly" if direct_mint
                   else "reaches `LaplaceMechanism::perturb` through its "
                        "call chain")
            findings.append(Finding(
                "budget-barrier-dominance", s.path, c["line"],
                f"`{c['name']}(...)` {how} without crossing "
                f"`{MINT_BARRIER_FUNCTION}`; every noise draw must be "
                "dominated by the WAL intent barrier or a crash can mint "
                "epsilon the ledger never saw (under-count).  Route the "
                "call through the broker, or add `// lint:allow barrier` "
                "with a justification", function=s.name))
    return findings


# ---------------------------------------------------------------------------
# wal-intent-commit-pairing
# ---------------------------------------------------------------------------

def _wal_scope(path):
    p = norm(path)
    base = os.path.basename(p)
    if "lint_fixtures" in p:
        return "wal" in base or "intent" in base
    # Tests construct orphaned logs on purpose (crash/recovery coverage).
    return "tests/" not in p


def check_wal_intent_commit_pairing(summaries):
    _, rev_edges = _call_edges(summaries)
    commit_reach = {s.name for s in summaries
                    if any(c["name"] in WAL_COMMIT_CALLS for c in s.calls)}
    changed = True
    while changed:
        changed = False
        for s in summaries:
            if s.name in commit_reach:
                continue
            if any(c["name"] in commit_reach for c in s.calls):
                commit_reach.add(s.name)
                changed = True
    findings = []
    for s in summaries:
        if not _wal_scope(s.path):
            continue
        if s.name.startswith("append_"):
            continue  # the WAL implementation itself
        intent_calls = [c for c in s.calls if c["name"] in WAL_INTENT_CALLS]
        if not intent_calls:
            continue
        # The commit may live in this function, below it, or in any
        # transitive caller (the broker commits AFTER the barrier returns).
        region = _closure({s.name}, rev_edges)
        if any(name in commit_reach for name in region):
            continue
        findings.append(Finding(
            "wal-intent-commit-pairing", s.path, intent_calls[0]["line"],
            "appends a WAL intent, but no `append_commit` or "
            "`absorb_orphaned` is reachable from this function or any "
            "caller; recovery would charge every sale here as an orphan "
            "(permanent epsilon over-count).  Pair the intent with a "
            "commit, or add `// lint:allow wal-pairing` with a "
            "justification", function=s.name))
    return findings


# ---------------------------------------------------------------------------
# lock-order (whole-program lock-acquisition graph)
# ---------------------------------------------------------------------------

def _qualified_requires(summary):
    """PRC_REQUIRES mutexes of a summary, qualified like lock events."""
    out = []
    owner = summary.owner or stem(summary.path)
    for r in summary.requires:
        out.append(f"{owner}::{r}" if r.endswith("_") else r)
    return out


def _held_at(events, req, order):
    """Qualified mutexes held at token `order`: everything PRC_REQUIRES
    plus every RAII event acquired earlier whose scope is still open."""
    held = set(req)
    for e in events:
        if e["order"] < order <= e["scope_end"]:
            held.update(e["mutexes"])
    return held


def _call_resolver(summaries):
    """resolve(caller, name) -> candidate callee summaries, narrowing the
    name-merged call graph before lock edges are drawn from it.  A bare
    name prefers candidates in the caller's own class, then the caller's
    own file, and only then falls back to the global merge — so
    `entries_.size()` inside PlanCache::insert resolves to PlanCache's
    own `size()` (a self-edge, which call edges drop) instead of wiring
    PlanCache::mutex_ to every OTHER class whose `size()` locks.
    Ubiquitous accessor names are never followed at all: almost every
    occurrence is a container/value accessor, and one collision with a
    locking method threads fictional edges across the whole graph."""
    by_name = {}
    for s in summaries:
        by_name.setdefault(s.name, []).append(s)

    def resolve(caller, name):
        if name in ACCESSOR_STOPLIST:
            return ()
        cands = by_name.get(name)
        if not cands:
            return ()
        owner = caller.owner
        if owner:
            same_class = [c for c in cands if c.owner == owner]
            if same_class:
                return same_class
        caller_stem = stem(caller.path)
        same_stem = [c for c in cands if stem(c.path) == caller_stem]
        if same_stem:
            return same_stem
        return cands

    return resolve


def _acquisition_closure(summaries, resolve):
    """summary-id -> qualified mutexes the function may ACQUIRE itself or
    through any callee.  PRC_REQUIRES mutexes are excluded: a REQUIRES
    callee holds its mutex, the acquisition (and the ordering edge)
    belongs to whichever caller actually locked it."""
    acq = {}
    for s in summaries:
        acc = acq.setdefault(id(s), set())
        for e in (s.lock_events or ()):
            acc.update(e["mutexes"])
    changed = True
    while changed:
        changed = False
        for s in summaries:
            acc = acq[id(s)]
            before = len(acc)
            for c in s.calls:
                for t in resolve(s, c["name"]):
                    acc.update(acq[id(t)])
            if len(acc) != before:
                changed = True
    return acq


def build_lock_graph(summaries):
    """(edges, nodes): edges maps (held, acquired) qualified-name pairs to
    the first (path, line, function) witness; nodes maps every mutex seen
    in a lock event to its first witness location.

    A multi-mutex scoped_lock event contributes no internal edges (the
    standard acquires its operands deadlock-free), and a callee acquiring
    the SAME mutex the caller holds is not drawn as a self-edge — name
    merging across classes makes that too noisy; overlapping re-acquisition
    inside ONE function is still reported (a genuine self-deadlock)."""
    resolve = _call_resolver(summaries)
    acq_closure = _acquisition_closure(summaries, resolve)
    edges = {}
    nodes = {}
    for s in sorted(summaries, key=lambda x: (x.path, x.line)):
        events = sorted(s.lock_events or (), key=lambda e: e["order"])
        if not events and not s.requires:
            continue
        req = _qualified_requires(s)
        for e in events:
            for m in e["mutexes"]:
                nodes.setdefault(m, (s.path, e["line"]))
            held = _held_at(events, req, e["order"])
            for h in sorted(held):
                for m in e["mutexes"]:
                    edges.setdefault((h, m), (s.path, e["line"], s.name))
        for c in s.calls:
            held = _held_at(events, req, c["order"])
            if not held:
                continue
            acquired = set()
            for t in resolve(s, c["name"]):
                acquired.update(acq_closure[id(t)])
            for m in sorted(acquired):
                for h in sorted(held):
                    if h == m:
                        continue
                    edges.setdefault((h, m), (s.path, c["line"], s.name))
    return edges, nodes


def _strongly_connected(nodes, adj):
    """Iterative Tarjan; returns the list of SCCs, each sorted, in a
    deterministic order."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]
    for root in sorted(nodes):
        if root in index:
            continue
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(sorted(adj.get(root, ()))))]
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(adj.get(nxt, ())))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(sorted(scc))
    return sccs


def lock_graph_cycles(edges):
    """Deterministic list of cycles in the lock graph: self-loops as
    1-element lists, larger SCCs as sorted node lists."""
    adj = {}
    node_set = set()
    for (h, m) in edges:
        adj.setdefault(h, set()).add(m)
        node_set.add(h)
        node_set.add(m)
    cycles = [[h] for (h, m) in sorted(edges) if h == m]
    for scc in _strongly_connected(node_set, adj):
        if len(scc) > 1:
            cycles.append(scc)
    return cycles


def check_lock_order(summaries):
    edges, _ = build_lock_graph(summaries)
    adj = {}
    for (h, m) in edges:
        adj.setdefault(h, set()).add(m)
    findings = []
    for (h, m), (path, line, fn) in sorted(edges.items()):
        if h != m:
            continue
        findings.append(Finding(
            "lock-order", path, line,
            f"`{fn}` acquires `{m}` while a still-open scope already holds "
            "it — std::mutex self-deadlocks on re-acquisition.  Take both "
            "instances in one std::scoped_lock (deadlock-free) or narrow "
            "the first scope, or add `// lint:allow lockorder` with a "
            "justification", function=fn))
    for scc in lock_graph_cycles(edges):
        if len(scc) < 2:
            continue  # self-loops reported above
        internal = sorted((h, m) for h in scc
                          for m in adj.get(h, ()) if m in scc and h != m)
        detail = ", ".join(
            f"{h} -> {m} ({norm(edges[(h, m)][0])}:{edges[(h, m)][1]})"
            for h, m in internal)
        path, line, fn = min(edges[e] for e in internal)
        findings.append(Finding(
            "lock-order", path, line,
            "lock-order cycle (potential deadlock) between "
            f"{{{', '.join(scc)}}}: {detail}.  Pick one global order "
            "(see build/lock_order.txt) and restructure the later "
            "acquisition, or add `// lint:allow lockorder` with a "
            "justification", function=fn))
    return findings


def lock_order_report(summaries):
    """(report_text, cycles) — the deterministic build/lock_order.txt
    artifact.  Nodes and edges are restricted to those witnessed from
    src/ (fixtures and tests would pollute the canonical order)."""
    edges, nodes = build_lock_graph(summaries)

    def in_src(path):
        p = norm(path)
        return p.startswith("src/") or "/src/" in p

    src_edges = {e: w for e, w in edges.items() if in_src(w[0])}
    src_nodes = {n for e in src_edges for n in e}
    src_nodes.update(n for n, (path, _) in nodes.items() if in_src(path))
    cycles = lock_graph_cycles(src_edges)

    # Kahn's algorithm with a sorted frontier: a deterministic topological
    # order that is also stable under unrelated-node insertion.
    indegree = {n: 0 for n in src_nodes}
    adj = {}
    for (h, m) in src_edges:
        if h == m:
            continue
        adj.setdefault(h, set()).add(m)
        indegree[m] += 1
    order = []
    frontier = sorted(n for n, d in indegree.items() if d == 0)
    while frontier:
        n = frontier.pop(0)
        order.append(n)
        for m in sorted(adj.get(n, ())):
            indegree[m] -= 1
            if indegree[m] == 0:
                # Keep the frontier sorted (small graphs; clarity wins).
                frontier.append(m)
                frontier.sort()
    stuck = sorted(n for n in src_nodes if n not in order)

    lines = [
        "# Canonical lock-acquisition order (generated by prc_lint).",
        "# A thread holding a mutex may only acquire mutexes listed BELOW",
        "# it.  Derived from the whole-program lock graph; regenerate via",
        "#   ./tools/prc_lint --no-clang-tidy --lock-order-out build/lock_order.txt",
        "",
        "order:",
    ]
    for i, n in enumerate(order, 1):
        lines.append(f"  {i}. {n}")
    for n in stuck:
        lines.append(f"  !  {n}  (cycle member — no valid position)")
    lines.append("")
    lines.append("edges (held -> acquired, first witness):")
    for (h, m), (path, line, fn) in sorted(src_edges.items()):
        lines.append(f"  {h} -> {m}  ({norm(path)}:{line} in {fn})")
    if not src_edges:
        lines.append("  (none)")
    lines.append("")
    if cycles:
        lines.append("cycles:")
        for c in cycles:
            lines.append("  " + " <-> ".join(c))
    else:
        lines.append("cycles: none")
    return "\n".join(lines) + "\n", cycles


# ---------------------------------------------------------------------------
# blocking-under-lock
# ---------------------------------------------------------------------------

def _blocking_reach(summaries, blessed):
    """name -> witness chain string for functions from which an UNBLESSED
    blocking operation is reachable.  A `lint:allow blocking` on a site
    cuts the chain there: one hatch at the true blocking site blesses
    every transitive caller (mirrors budget-barrier-dominance).  cv waits
    are judged only at their own hold site — whether a wait is safe
    depends on which lock IT uses, which callers cannot see."""
    reach = {}
    for s in summaries:
        for b in (s.blocking_calls or ()):
            if b.get("cv_arg") is not None:
                continue
            if blessed(s.path, b["line"]):
                continue
            reach.setdefault(s.name, b["name"])
    changed = True
    while changed:
        changed = False
        for s in summaries:
            if s.name in reach:
                continue
            for c in s.calls:
                if c["name"] in BLOCKING_CALL_IDENTS:
                    continue  # direct sites recorded above
                if c["name"] not in reach or blessed(s.path, c["line"]):
                    continue
                reach[s.name] = f"{c['name']} -> {reach[c['name']]}"
                changed = True
                break
    return reach


def check_blocking_under_lock(summaries, fields_by_stem, allows_by_path):
    def blessed(path, line):
        allows = allows_by_path.get(path)
        return bool(allows) and line in allows.get("blocking", ())

    reach = _blocking_reach(summaries, blessed)
    findings = []
    for s in summaries:
        fields = fields_by_stem.get(stem(s.path), {})
        guard_mutexes = set(fields.values())
        if not guard_mutexes:
            continue
        events = sorted(s.lock_events or (), key=lambda e: e["order"])
        req = [r for r in s.requires if r in guard_mutexes]
        if not events and not req:
            continue

        def held_guards(order):
            """bare guard-mutex name -> lock variable, for every guard
            mutex held at `order`.  Only mutexes that GUARD annotated
            fields count: a pure serialization mutex protects no reader
            from queueing behind the blocking call."""
            held = {r: None for r in req}
            for e in events:
                if e["order"] < order <= e["scope_end"]:
                    for m in e["mutexes"]:
                        bare = m.rsplit("::", 1)[-1]
                        if bare in guard_mutexes:
                            held[bare] = e.get("var")
            return held

        for b in (s.blocking_calls or ()):
            held = held_guards(b["order"])
            cv_arg = b.get("cv_arg")
            if cv_arg:
                # The wait releases ITS lock while sleeping; only other
                # mutexes held across the wait are findings.
                held = {m: v for m, v in held.items() if v != cv_arg}
            if not held:
                continue
            mutexes = ", ".join(sorted(held))
            findings.append(Finding(
                "blocking-under-lock", s.path, b["line"],
                f"`{b['name']}(...)` can block (disk/socket/pool/cv) while "
                f"`{mutexes}` — a PRC_GUARDED_BY mutex — is held; every "
                "reader of the guarded data queues behind the slow "
                "operation.  Stage outside the lock and commit under it "
                "(QuoteCache-style), or add `// lint:allow blocking` with "
                "a justification if the hold is load-bearing",
                function=s.name))
        seen = set()
        for c in s.calls:
            if c["name"] in BLOCKING_CALL_IDENTS or c["name"] not in reach \
                    or c["name"] in seen:
                continue
            held = held_guards(c["order"])
            if not held:
                continue
            seen.add(c["name"])
            mutexes = ", ".join(sorted(held))
            findings.append(Finding(
                "blocking-under-lock", s.path, c["line"],
                f"`{c['name']}(...)` transitively reaches blocking "
                f"`{reach[c['name']]}` while `{mutexes}` — a "
                "PRC_GUARDED_BY mutex — is held; every reader of the "
                "guarded data queues behind the slow operation.  Stage "
                "outside the lock and commit under it, or add "
                "`// lint:allow blocking` with a justification if the "
                "hold is load-bearing", function=s.name))
    return findings


# ---------------------------------------------------------------------------
# atomic-discipline
# ---------------------------------------------------------------------------

def _atomic_scope(path):
    p = norm(path)
    base = os.path.basename(p)
    if "lint_fixtures" in p:
        return "atomic" in base
    return p.startswith("src/") or "/src/" in p


def check_atomic_discipline(summaries, concurrency_by_path, fields_by_stem):
    decls_by_stem = {}
    guards_by_stem = {}
    for path, conc in concurrency_by_path.items():
        st = stem(path)
        decls_by_stem.setdefault(st, []).extend(
            dict(d, path=path) for d in conc.get("decls", ()))
        guards_by_stem.setdefault(st, set()).update(conc.get("guards", ()))

    findings = []
    # (a) Coverage: every concurrency primitive is documented.  A mutex
    # must be named by some annotation (it guards a field, or an API
    # declares it via REQUIRES/ACQUIRE/EXCLUDES); an atomic must either
    # be PRC_GUARDED_BY a mutex (belt-and-braces fields) or carry an
    # allow-list hatch spelling out its ordering contract.
    for st in sorted(decls_by_stem):
        guards = guards_by_stem.get(st, set())
        fields = fields_by_stem.get(st, {})
        for d in sorted(decls_by_stem[st],
                        key=lambda d: (norm(d["path"]), d["line"])):
            if not _atomic_scope(d["path"]):
                continue
            where = f"{d['owner']}::{d['name']}" if d["owner"] else d["name"]
            if d["kind"] == "mutex":
                if d["name"] in guards:
                    continue
                findings.append(Finding(
                    "atomic-discipline", d["path"], d["line"],
                    f"mutex `{where}` is referenced by no thread-safety "
                    "annotation: nothing documents what it protects.  Add "
                    "PRC_GUARDED_BY(...) to the fields it guards (or "
                    "PRC_REQUIRES/PRC_EXCLUDES on the API that uses it), "
                    "or add `// lint:allow atomic` naming its role",
                    function=None))
            else:
                if d["name"] in fields:
                    continue
                findings.append(Finding(
                    "atomic-discipline", d["path"], d["line"],
                    f"atomic field `{where}` has no documented ordering "
                    "contract.  Annotate it PRC_GUARDED_BY(...) if a mutex "
                    "already serializes its writers, or add "
                    "`// lint:allow atomic` stating the memory-order "
                    "discipline it relies on", function=None))

    # (b) Relaxed atomics may not feed control flow or non-CAS RMW outside
    # their owning module: the ordering contract that makes the access
    # safe lives with the declaring class, and cross-module uses silently
    # turn monitoring state into synchronization.
    atomic_index = {}
    for st, decls in decls_by_stem.items():
        for d in decls:
            if d["kind"] == "atomic":
                atomic_index.setdefault(d["name"], []).append(d)

    def owning_decl(s, name):
        """The atomic declaration a member-style use in summary `s` refers
        to, matched by owner class (namespace-scope atomics are exempt:
        name matching across free functions is too weak to trust)."""
        for d in atomic_index.get(name, ()):
            if d["owner"] is not None and s.owner == d["owner"]:
                return d
        return None

    for s in summaries:
        if not _atomic_scope(s.path):
            continue
        s_stem = stem(s.path)
        for r in (s.rmw_uses or ()):
            d = owning_decl(s, r["name"])
            if d is None or stem(d["path"]) == s_stem:
                continue
            findings.append(Finding(
                "atomic-discipline", s.path, r["line"],
                f"non-CAS read-modify-write on atomic `{d['owner']}::"
                f"{r['name']}` outside its owning module "
                f"({norm(d['path'])}); use the owner's API (or an "
                "explicit fetch_add with a documented order), or add "
                "`// lint:allow atomic` with a justification",
                function=s.name))
        for b in (s.branch_uses or ()):
            d = owning_decl(s, b["name"])
            if d is None or stem(d["path"]) == s_stem:
                continue
            findings.append(Finding(
                "atomic-discipline", s.path, b["line"],
                f"control-flow decision on relaxed atomic `{d['owner']}::"
                f"{b['name']}` outside its owning module "
                f"({norm(d['path'])}); a relaxed load carries no "
                "happens-before edge, so branching on it elsewhere turns "
                "monitoring state into unsynchronized logic.  Route the "
                "decision through the owner's API, or add "
                "`// lint:allow atomic` with a justification",
                function=s.name))
    return findings


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_interproc(summaries, guarded_fields_by_path, allows_by_path=None,
                  concurrency_by_path=None):
    """All whole-program findings for one analysis universe."""
    fields_by_stem = {}
    for path, fields in guarded_fields_by_path.items():
        fields_by_stem.setdefault(stem(path), {}).update(fields)
    findings = []
    findings.extend(check_interproc_raw_taint(summaries))
    findings.extend(check_budget_barrier_dominance(summaries,
                                                   allows_by_path or {}))
    findings.extend(check_wal_intent_commit_pairing(summaries))
    findings.extend(check_lock_order(summaries))
    findings.extend(check_blocking_under_lock(summaries, fields_by_stem,
                                              allows_by_path or {}))
    findings.extend(check_atomic_discipline(summaries,
                                            concurrency_by_path or {},
                                            fields_by_stem))
    return findings

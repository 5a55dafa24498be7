"""Finding record plus the rule registry (rule name -> escape-hatch tag).

Rules emit findings unconditionally; the ENGINE applies `lint:allow <tag>`
suppression centrally.  That split is what makes the suppression-staleness
audit possible: an allow that never matches an emitted finding is itself
an error (`stale-suppression`), so escape hatches cannot outlive the code
they excused.
"""

RULES = {
    # rule name                      allow tags that silence it
    "no-raw-random":                 (),
    "no-bare-assert":                (),
    "no-float-eq-budget":            ("float-eq",),
    "checked-byte-access":           ("index",),
    "no-telemetry-lookup-in-loop":   ("telemetry-lookup",),
    "no-raw-to-sink":                ("raw-sink",),
    "unit-suffix-consistency":       ("unit-suffix",),
    # Interprocedural (whole-program) rules.
    "interproc-raw-taint":           ("raw-sink", "interproc-taint"),
    "budget-barrier-dominance":      ("barrier", "mint"),
    "wal-intent-commit-pairing":     ("wal-pairing",),
    # Concurrency-soundness rules (whole-program).
    "lock-order":                    ("lockorder",),
    "blocking-under-lock":           ("blocking",),
    "atomic-discipline":             ("atomic",),
    # Meta rule: emitted by the engine itself, not suppressible.
    "stale-suppression":             (),
}

#: Tags a `lint:allow` may legally carry (anything else is flagged as an
#: unknown suppression by the staleness audit).
KNOWN_TAGS = frozenset(tag for tags in RULES.values() for tag in tags)

RULE_NAMES = tuple(RULES)


class Finding:
    __slots__ = ("rule", "path", "lineno", "message", "function",
                 "suppressed")

    def __init__(self, rule, path, lineno, message, function=None):
        self.rule = rule
        self.path = path
        self.lineno = lineno
        self.message = message
        self.function = function  # enclosing function name when known
        self.suppressed = False   # set by the engine's allow filter

    def __str__(self):
        return f"{self.path}:{self.lineno}: [{self.rule}] {self.message}"

    def to_dict(self):
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.lineno,
            "message": self.message,
            "function": self.function,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(data["rule"], data["path"], data["line"], data["message"],
                   data.get("function"))

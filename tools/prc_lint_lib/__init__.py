"""prc_lint_lib: the project linter as an importable package.

`tools/prc_lint` is a thin CLI over this package and
`tools/test_lint_cache.py` imports it directly, so there is exactly one
tokenizer/scope engine in the repo.  Each rule names a guarantee no
other checker gives: locking is proven by clang's thread-safety
analysis and the unit/Raw<T> boundaries by tests/compile_fail, so no rule
re-checks them.
"""

from .engine import (DEFAULT_SCAN_DIRS, REPO_ROOT, analyze_paths,
                     iter_source_files, main, self_test)
from .findings import Finding, RULES, RULE_NAMES
from .model import FileModel, SOURCE_EXTENSIONS, norm, stem

__all__ = [
    "DEFAULT_SCAN_DIRS", "REPO_ROOT", "analyze_paths", "iter_source_files",
    "main", "self_test", "Finding", "RULES", "RULE_NAMES", "FileModel",
    "SOURCE_EXTENSIONS", "norm", "stem",
]

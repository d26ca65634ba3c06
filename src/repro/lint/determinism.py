"""Determinism linter: an ``ast`` pass over the reproduction's sources.

Every result-affecting code path in ``src/repro`` must be a pure
function of (seed, tag): the paper's numbers are reproduced bit-for-bit
only if no ambient randomness or wall-clock reads leak into them.  The
rules below codify that contract (plus two classic Python determinism
hazards — mutable default arguments and bare ``except:`` — that make
behaviour depend on call history or swallow the typed error taxonomy):

========  ==================  ========================================
rule id   slug                flags
========  ==================  ========================================
D101      ambient-rng         calls through the *module-level* RNG
                              state of ``random`` or ``numpy.random``
                              (``random.random()``, ``np.random.rand``)
                              — seeded ``default_rng`` / ``Generator``
                              / ``Philox`` construction is allowed.
D102      wall-clock          ``time.time()`` / ``time.time_ns()`` /
                              ``datetime.now()`` / ``utcnow()`` /
                              ``today()`` outside the benchmarking
                              modules (``perf.py``,
                              ``experiments/bench.py``,
                              ``experiments/perf_gate.py``).
                              ``time.perf_counter()`` is allowed: it
                              measures *how long* results took, never
                              what they are.
D103      mutable-default     mutable default argument values
                              (``def f(x=[])``).
D104      bare-except         ``except:`` with no exception type.
D105      env-read            direct ``os.environ`` / ``os.getenv``
                              reads outside the run-configuration
                              module (``repro/config.py``) and
                              entry-point modules (``__main__.py``).
========  ==================  ========================================
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding, Rule, RuleCatalog

DETERMINISM_RULES = RuleCatalog()
DETERMINISM_RULES.register(Rule(
    "D100", "parse-error", "error",
    "module failed to parse"))
DETERMINISM_RULES.register(Rule(
    "D101", "ambient-rng", "error",
    "ambient (module-level) RNG state used"))
DETERMINISM_RULES.register(Rule(
    "D102", "wall-clock", "error",
    "wall-clock read in a result-affecting module"))
DETERMINISM_RULES.register(Rule(
    "D103", "mutable-default", "error",
    "mutable default argument"))
DETERMINISM_RULES.register(Rule(
    "D104", "bare-except", "error",
    "bare except: swallows the typed error taxonomy"))
DETERMINISM_RULES.register(Rule(
    "D105", "env-read", "error",
    "os.environ read outside a config/entry-point module"))

#: ``numpy.random`` attributes that construct *seeded* generators (the
#: deterministic API) rather than touching the legacy global state.
SEEDED_NUMPY_ATTRS = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "Philox", "PCG64", "PCG64DXSM", "MT19937", "SFC64",
})

#: stdlib ``random`` attributes allowed (explicitly seeded instances).
SEEDED_STDLIB_ATTRS = frozenset({"Random"})

#: Wall-clock call chains flagged by D102, resolved through aliases.
WALL_CLOCK_CHAINS = (
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "localtime"),
    ("time", "ctime"),
    ("datetime", "datetime", "now"),
    ("datetime", "datetime", "utcnow"),
    ("datetime", "datetime", "today"),
    ("datetime", "date", "today"),
)

#: Module suffixes where wall-clock reads are legitimate: benchmarking
#: and performance bookkeeping never feed result bytes.
WALL_CLOCK_ALLOWED = (
    "repro/perf.py",
    "repro/experiments/bench.py",
    "repro/experiments/perf_gate.py",
)

#: The run-configuration module and entry-point modules may read the
#: environment directly; everything else asks :mod:`repro.config`.
ENV_READ_ALLOWED_NAMES = ("repro/config.py", "__main__.py")


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("list", "dict", "set", "bytearray") \
            and not node.args and not node.keywords
    return False


class _ImportTracker:
    """Resolves local names back to the modules they alias."""

    def __init__(self) -> None:
        #: local alias -> dotted module path, e.g. ``np`` -> ``numpy``,
        #: ``npr`` -> ``numpy.random``.
        self.modules: Dict[str, str] = {}
        #: local name -> (module path, original name) for
        #: ``from M import n [as alias]``.
        self.names: Dict[str, Tuple[str, str]] = {}

    def visit_import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.modules[alias.asname or alias.name.split(".")[0]] = \
                alias.name if alias.asname else alias.name.split(".")[0]

    def visit_import_from(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports never alias stdlib/numpy
        for alias in node.names:
            self.names[alias.asname or alias.name] = \
                (node.module, alias.name)

    def resolve_chain(self, node: ast.AST) -> Optional[Tuple[str, ...]]:
        """Dotted chain of an attribute/name expression, de-aliased.

        ``np.random.rand`` with ``import numpy as np`` resolves to
        ``("numpy", "random", "rand")``; ``randint`` after
        ``from numpy.random import randint`` resolves to
        ``("numpy", "random", "randint")``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.reverse()
        head = node.id
        if head in self.modules:
            return tuple(self.modules[head].split(".")) + tuple(parts)
        if head in self.names:
            module, original = self.names[head]
            return tuple(module.split(".")) + (original,) + tuple(parts)
        return None


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, path: str, module_tail: str) -> None:
        self.path = path
        self.module_tail = module_tail
        self.imports = _ImportTracker()
        self.findings: List[Finding] = []

    # -- helpers --------------------------------------------------------

    def _report(self, rule_id: str, message: str, node: ast.AST) -> None:
        line = getattr(node, "lineno", 0)
        self.findings.append(DETERMINISM_RULES.finding(
            rule_id, message, f"{self.path}:{line}"))

    def _wall_clock_allowed(self) -> bool:
        return self.module_tail.endswith(WALL_CLOCK_ALLOWED)

    def _env_read_allowed(self) -> bool:
        return self.module_tail.endswith(ENV_READ_ALLOWED_NAMES)

    # -- imports --------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        self.imports.visit_import(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.imports.visit_import_from(node)
        if node.module in ("random", "numpy.random") and not node.level:
            allowed = SEEDED_STDLIB_ATTRS if node.module == "random" \
                else SEEDED_NUMPY_ATTRS
            for alias in node.names:
                if alias.name not in allowed and alias.name != "*":
                    self._report(
                        "D101",
                        f"'from {node.module} import {alias.name}' "
                        f"binds ambient RNG state", node)
        self.generic_visit(node)

    # -- calls ----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        chain = self.imports.resolve_chain(node.func)
        if chain:
            self._check_rng(chain, node)
            self._check_wall_clock(chain, node)
            self._check_env(chain, node)
        self.generic_visit(node)

    def _check_rng(self, chain: Tuple[str, ...], node: ast.Call) -> None:
        if chain[0] == "random" and len(chain) == 2:
            if chain[1] not in SEEDED_STDLIB_ATTRS:
                self._report(
                    "D101",
                    f"random.{chain[1]}() draws from the module-level "
                    f"RNG; thread a seeded random.Random instead", node)
        elif chain[:2] == ("numpy", "random") and len(chain) == 3:
            if chain[2] not in SEEDED_NUMPY_ATTRS:
                self._report(
                    "D101",
                    f"np.random.{chain[2]}() uses numpy's global RNG "
                    f"state; thread a seeded np.random.Generator "
                    f"instead", node)

    def _check_wall_clock(self, chain: Tuple[str, ...],
                          node: ast.Call) -> None:
        if chain in WALL_CLOCK_CHAINS and not self._wall_clock_allowed():
            self._report(
                "D102",
                f"{'.'.join(chain)}() read in a result-affecting "
                f"module (allowed only in bench/perf modules)", node)

    def _check_env(self, chain: Tuple[str, ...], node: ast.Call) -> None:
        if chain == ("os", "getenv") and not self._env_read_allowed():
            self._report(
                "D105",
                "os.getenv() outside a config/entry-point module; "
                "read configuration through repro.config", node)

    # -- non-call environment access ------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = self.imports.resolve_chain(node)
        if chain == ("os", "environ") and not self._env_read_allowed():
            self._report(
                "D105",
                "os.environ access outside a config/entry-point "
                "module; read configuration through repro.config", node)
        self.generic_visit(node)

    # -- function definitions -------------------------------------------

    def _check_defaults(self, node: ast.AST, args: ast.arguments) -> None:
        for default in list(args.defaults) + \
                [d for d in args.kw_defaults if d is not None]:
            if _is_mutable_literal(default):
                self._report(
                    "D103",
                    "mutable default argument value is shared across "
                    "calls; default to None and construct inside", node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node, node.args)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node, node.args)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node, node.args)
        self.generic_visit(node)

    # -- exception handlers ---------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                "D104",
                "bare 'except:' catches SystemExit/KeyboardInterrupt "
                "and hides the typed error taxonomy; catch a class",
                node)
        self.generic_visit(node)


def _module_tail(path: Path) -> str:
    """Posix-style path used for allowlist suffix matching."""
    return path.as_posix()


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one python source string."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [DETERMINISM_RULES.finding(
            "D100", f"unparseable module: {error.msg}",
            f"{path}:{error.lineno or 0}")]
    visitor = _DeterminismVisitor(path, _module_tail(Path(path)))
    visitor.visit(tree)
    return sorted(visitor.findings,
                  key=lambda finding: finding.location)


def lint_file(path: Path) -> List[Finding]:
    """Lint one python file."""
    return lint_source(path.read_text(encoding="utf-8"), str(path))


def iter_python_files(root: Path) -> Iterable[Path]:
    """Python files under a tree, deterministic order."""
    if root.is_file():
        yield root
        return
    yield from sorted(root.rglob("*.py"))


def lint_tree(roots: Sequence[Path]) -> List[Finding]:
    """Lint every python file under the given roots."""
    findings: List[Finding] = []
    for root in roots:
        for path in iter_python_files(root):
            findings.extend(lint_file(path))
    return findings

"""Run configuration: the one module that reads the environment.

Every knob the package honours is an environment variable listed in
:data:`KNOBS`; nothing else in ``src/repro`` touches ``os.environ``
(the determinism linter's D105 rule enforces it).  All knobs share one
set of parse rules:

- a knob that is unset, empty or whitespace-only is *unset* and takes
  its default;
- flags (``HBMSIM_BATCH``, ``HBMSIM_CELLS_MMAP``, ``HBMSIM_NO_CACHE``)
  accept ``1/true/yes/on`` and ``0/false/no/off``, case-insensitive
  and stripped; ``HBMSIM_LINT`` is an enum with the same matching;
- numbers (``HBMSIM_SCALE``, ``HBMSIM_CELLS_CHUNK``) must be positive:
  a value that parses but is NaN, infinite, zero or negative raises
  :class:`ValueError`, because it would otherwise surface later as an
  opaque numpy shape error;
- paths (``HBMSIM_CACHE_DIR``, ``XDG_CACHE_HOME``) are ``~``-expanded;
  ``HBMSIM_FAULTS`` is handed to :mod:`repro.faults.plan` verbatim.

An unrecognized flag, enum or number warns once per distinct
``(knob, value)`` (:class:`RuntimeWarning`) and falls back as the
knob's :data:`KNOBS` entry says, so a typo never silently selects a
different engine, population or gate without a trace.

Reads are not cached: :func:`batch_enabled` sits on every batching
decision and stays one ``os.environ.get`` plus a dict lookup, and
tests change the environment between calls.
"""

from __future__ import annotations

import enum
import math
import os
import warnings
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Set, Tuple, TypeVar

T = TypeVar("T")
N = TypeVar("N", int, float)

BATCH = "HBMSIM_BATCH"
SCALE = "HBMSIM_SCALE"
CELLS_CHUNK = "HBMSIM_CELLS_CHUNK"
CELLS_MMAP = "HBMSIM_CELLS_MMAP"
LINT = "HBMSIM_LINT"
FAULTS = "HBMSIM_FAULTS"
CACHE_DIR = "HBMSIM_CACHE_DIR"
NO_CACHE = "HBMSIM_NO_CACHE"
XDG_CACHE_HOME = "XDG_CACHE_HOME"

#: Default chunk bound, in population elements.  65536 elements keep a
#: chunk's ~15 float64 intermediate arrays inside a few MiB while still
#: amortizing numpy kernel launch cost; every population up to 21 full
#: combos of 3072 rows (the Table 2 fig05/fig07 shape) streams in a
#: handful of chunks, and the scale-0.25 bench populations fit in one
#: chunk (the historical all-at-once code path, byte-for-byte).
DEFAULT_CHUNK_ELEMS = 65536

_FLAG_VALUES = "one of 0/false/no/off or 1/true/yes/on"

#: Every environment variable the package reads, mapped to the tail of
#: the warning an unrecognized value raises (``None``: the knob takes
#: any non-blank value).
KNOBS: Dict[str, Optional[str]] = {
    BATCH: f"expected {_FLAG_VALUES} — batching stays enabled",
    SCALE: "expected a positive number — running at the default "
           "scale 1.0",
    CELLS_CHUNK: "expected a positive integer — keeping the default "
                 f"chunk of {DEFAULT_CHUNK_ELEMS} elements",
    CELLS_MMAP: f"expected {_FLAG_VALUES} — mmap spill stays disabled",
    LINT: "expected one of off/warn/strict/online (or 0/1/no/none) — "
          "falling back to warn",
    NO_CACHE: f"expected {_FLAG_VALUES} — the calibration cache stays "
              "enabled",
    FAULTS: None,
    CACHE_DIR: None,
    XDG_CACHE_HOME: None,
}

_FLAGS: Mapping[str, bool] = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}

#: ``(knob, raw value)`` pairs already warned about.
_WARNED: Set[Tuple[str, str]] = set()


def _warn_once(name: str, raw: str, problem: str = "unrecognized") -> None:
    if (name, raw) in _WARNED:
        return
    _WARNED.add((name, raw))
    # Four frames up: _warn_once <- parse rule <- getter <- its caller.
    warnings.warn(f"{problem} {name}={raw!r}; {KNOBS[name]}",
                  RuntimeWarning, stacklevel=4)


def _raw(name: str) -> Optional[str]:
    """The knob's value, or ``None`` when unset or blank."""
    raw = os.environ.get(name)
    return raw if raw is not None and raw.strip() else None


def _choice(name: str, choices: Mapping[str, T], default: T,
            fallback: Optional[T] = None) -> T:
    """Enum rule: match the stripped, lower-cased value in ``choices``;
    blank is ``default``, anything else warns and is ``fallback``
    (``default`` when not given)."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if value in choices:
        return choices[value]
    if not value:
        return default
    _warn_once(name, raw)
    return default if fallback is None else fallback


def _positive(name: str, convert: Callable[[str], N], default: N,
              positive: str, problem: str = "unrecognized") -> N:
    """Positive-number rule: blank is ``default``, unparsable warns and
    is ``default``, NaN/inf/non-positive raise ``ValueError``
    (``positive`` names what the knob must be)."""
    raw = _raw(name)
    if raw is None:
        return default
    try:
        number = convert(raw)
    except ValueError:
        _warn_once(name, raw, problem)
        return default
    value = float(number)
    if math.isnan(value):
        raise ValueError(
            f"{name} must be a positive number, got NaN ({raw!r})")
    if math.isinf(value):
        raise ValueError(f"{name} must be finite, got {raw!r}")
    if value <= 0:
        raise ValueError(f"{name} must be {positive}, got {raw!r}")
    return number


def batch_enabled() -> bool:
    """Whether batched execution is enabled (default on; ``off`` forces
    the scalar engine everywhere)."""
    return _choice(BATCH, _FLAGS, True)


def default_scale() -> float:
    """Experiment scale (default 1.0: the paper's Table 2 populations
    over the real Table 1 geometry).  The statistics the experiments
    report are population means/extremes and are stable under
    stratified subsampling, so benchmark runs use a fraction."""
    return _positive(SCALE, float, 1.0, "positive", "unparsable")


def cells_chunk_elems() -> int:
    """Bound on the population elements one evaluation chunk holds."""
    return _positive(CELLS_CHUNK, int, DEFAULT_CHUNK_ELEMS,
                     "a positive element count")


def cells_mmap_enabled() -> bool:
    """Whether persistent cell arrays spill to memory-mapped temp files
    (default off: anonymous memory)."""
    return _choice(CELLS_MMAP, _FLAGS, False)


def cache_enabled() -> bool:
    """Whether the calibration cache is active (``HBMSIM_NO_CACHE``
    turns off its reads *and* writes)."""
    return not _choice(NO_CACHE, _FLAGS, False)


def path(name: str) -> Optional[Path]:
    """A path knob, ``~``-expanded, or ``None`` when unset or blank."""
    raw = _raw(name)
    return None if raw is None else Path(raw).expanduser()


def fault_spec() -> Optional[str]:
    """The raw ``HBMSIM_FAULTS`` plan spec, or ``None`` (no chaos)."""
    return _raw(FAULTS)


class LintMode(enum.Enum):
    """Pre-execution / online verification mode of the interpreter.

    - ``strict`` raises :class:`~repro.errors.LintError` on any finding
      (campaigns abort before burning hours on a malformed routine);
    - ``warn`` prints findings to stderr and executes anyway;
    - ``online`` checks commands *as they execute*: the scalar
      interpreter feeds every command it issues into the streaming
      :class:`~repro.lint.stream.TimingChecker`, so fault-plan-mutated
      streams are checked too.  Engines that do not dispatch per
      command (the compiled :class:`~repro.bender.compile.PlanExecutor`)
      fall back to the static ``warn``-style verification;
    - ``off`` (the default) leaves the hot path untouched.

    An unrecognized value falls back to ``warn``: a misspelled opt-in
    must surface findings rather than silently disable the gate.
    """

    OFF = "off"
    WARN = "warn"
    STRICT = "strict"
    ONLINE = "online"


_LINT_MODES: Mapping[str, LintMode] = {
    **dict.fromkeys(("0", "off", "no", "none"), LintMode.OFF),
    **dict.fromkeys(("1", "warn", "warning"), LintMode.WARN),
    "strict": LintMode.STRICT,
    "online": LintMode.ONLINE,
}


def lint_mode() -> LintMode:
    """The interpreter's lint gate mode (default off)."""
    return _choice(LINT, _LINT_MODES, LintMode.OFF, LintMode.WARN)

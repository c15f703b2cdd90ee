"""kcov-style coverage over the verifier's code.

The paper instruments only the eBPF source with kcov and uses branch
coverage both as the fuzzer's feedback signal and as the evaluation
metric (Figure 6 / Table 3).  Our "kernel source" is the Python
verifier, so we trace *it*: a tracing hook, enabled only while the
verifier runs, records line-to-line edges within the modules under
``repro/verifier``.  Unique ``(code object, prev line, line)`` edges
are the branch-coverage analogue.

Two tracers record the same edges:

- ``ctrace`` — a C trace callback (:mod:`_bvf_ctrace`, compiled on
  demand from ``_native/ctrace.c`` via :func:`PyEval_SetTrace`), which
  replaces the interpreter-level per-line dispatch with a C call and a
  hash-set insert;
- ``settrace`` — the classic :func:`sys.settrace` hook, used when the
  extension cannot be built or imported (no C compiler, no
  ``Python.h``): a build problem slows a campaign down but never
  breaks it.

:class:`VerifierCoverage` uses ``ctrace`` whenever it loads and
``settrace`` otherwise; the two produce bit-identical edge keys, so
the choice changes speed, never the measured coverage.

On CPython 3.11 a tracer's cost is per call and per frame: once one is
installed, *every* Python call in the process pays the trace dispatch,
including the many out-of-scope calls into ``tnum``/``state``/``insn``
helpers.  ``ctrace`` therefore keeps its per-call path O(1) by caching
each code object's classification in the code object itself (a
``co_extra`` slot, tagged with a scope generation), and the verifier's
per-instruction paths avoid Python-level helper calls where a table
index or an inlined expression does the same (the call budget in
``tests/fuzz/test_corpus_coverage.py`` keeps them from creeping back).

Edge keys are **stable across processes**: they are composed from a
CRC32 of the code object's file/qualname/first-line identity plus the
line pair, never from :func:`hash` (whose string hashing is salted per
process).  That is what makes :meth:`snapshot_edges` sound for the
sharded parallel campaigns in :mod:`repro.fuzz.parallel`: a union of
edge sets collected in different worker processes counts each distinct
verifier edge exactly once.

The tracer is deliberately scoped: helper implementations, maps, and
the interpreter are not traced, mirroring the paper's setup where only
the eBPF subsystem is instrumented so all tools compete on the same
measurement range.  Within ``repro/verifier`` the scope is narrowed
further to the *decision* modules (:data:`_SCOPE_BASENAMES` — the
instruction walker, ALU/memory checks, branch reasoning, and call
checking), where control flow corresponds to verifier verdicts.  The
data-structure modules (``tnum``/``state``/``stack``/``env``) are
arithmetic and book-keeping plumbing whose edges carry no feedback
signal — and keeping them out of scope is also what makes the pruning
index, tnum memoization, and copy-on-write clone machinery they host
*coverage-transparent*: a cache hit or miss can never change which
edges a program contributes.
"""

from __future__ import annotations

import os
import sys
import zlib
from contextlib import contextmanager
from typing import Iterable

import repro.verifier as _verifier_pkg

__all__ = ["VerifierCoverage", "CoverageReentryError"]

_VERIFIER_DIR = os.path.dirname(os.path.abspath(_verifier_pkg.__file__))


def _preload_verifier_modules() -> None:
    """Import every ``repro.verifier`` submodule eagerly.

    A submodule imported lazily during a traced verifier run would
    contribute its module-body lines as coverage edges — but only in
    the first collection window of whichever process happens to import
    it first.  That would make edge sets depend on process history
    (a forked shard worker inherits its parent's warm import state and
    never records them), breaking the worker-count invariance of
    parallel campaign merges.  Importing everything up front keeps
    edge sets a pure function of what the verifier executes.
    """
    import importlib
    import pkgutil

    for module in pkgutil.iter_modules(_verifier_pkg.__path__):
        importlib.import_module(f"{_verifier_pkg.__name__}.{module.name}")


_preload_verifier_modules()

#: Bits reserved for each line number inside an edge key.  Verifier
#: modules are a few thousand lines; 15 bits (32767) is ample.
_LINE_BITS = 15
_LINE_MASK = (1 << _LINE_BITS) - 1


#: Decision modules inside ``repro/verifier`` that contribute edges.
_SCOPE_BASENAMES = frozenset(
    {"core.py", "checks.py", "branches.py", "calls.py"}
)


def _in_scope(filename: str) -> bool:
    return (
        filename.startswith(_VERIFIER_DIR)
        and os.path.basename(filename) in _SCOPE_BASENAMES
    )


def _stable_code_id(code) -> int:
    """A per-process-independent 32-bit identity for a code object.

    ``hash(code)`` mixes in salted string hashes (PYTHONHASHSEED), so
    edge sets built in different worker processes would not compare or
    union correctly.  CRC32 over the stable identity triple does.
    """
    qualname = getattr(code, "co_qualname", code.co_name)
    key = f"{os.path.basename(code.co_filename)}:{qualname}:{code.co_firstlineno}"
    return zlib.crc32(key.encode())


class CoverageReentryError(RuntimeError):
    """Raised when a :meth:`VerifierCoverage.collect` window is nested.

    The tracer is process-wide, so this covers a second window on the
    same instance and a window opened on another instance while one is
    active.  A nested window would clobber the active window's edge set
    and silently corrupt ``last_new`` (the corpus feedback signal), so
    re-entry is rejected loudly instead.
    """


#: Cached ``_bvf_ctrace`` module, or ``False`` after a failed attempt
#: (so a missing compiler is probed exactly once per process).
_CTRACE_MODULE: object = None


def _load_ctrace():
    """Import the C tracer, compiling it on first use if possible.

    Returns the module or ``None``.  Failures (no compiler, no
    ``Python.h``, exotic platform) are cached and silent: the
    ``sys.settrace`` tracer is always available as the fallback, so a
    build problem must never break a campaign, only slow it down.

    The built file's name carries a digest of ``ctrace.c``, so a source
    change always means a rebuild, whatever the two files' mtimes say
    (a copied tree, or two checkouts of different revisions).  Builds
    of other digests are deleted.
    """
    global _CTRACE_MODULE
    if _CTRACE_MODULE is not None:
        return _CTRACE_MODULE or None

    import hashlib
    import importlib.util
    import shutil
    import subprocess
    import sysconfig

    native_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "_native")
    source = os.path.join(native_dir, "ctrace.c")
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"

    try:
        with open(source, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()[:16]
        target = os.path.join(native_dir, f"_bvf_ctrace-{digest}{suffix}")
        if not os.path.exists(target):
            compiler = shutil.which("cc") or shutil.which("gcc")
            include = sysconfig.get_path("include")
            if compiler is None or include is None:
                raise OSError("no C compiler or Python headers")
            # Build under a private name and rename into place, so a
            # concurrent process never imports a half-written file.
            scratch = f"{target}.{os.getpid()}.tmp"
            subprocess.run(
                [compiler, "-O2", "-shared", "-fPIC", f"-I{include}",
                 source, "-o", scratch],
                check=True, capture_output=True, timeout=120,
            )
            os.replace(scratch, target)
            for name in os.listdir(native_dir):
                stale = os.path.join(native_dir, name)
                if (name.startswith("_bvf_ctrace") and name.endswith(suffix)
                        and stale != target):
                    try:
                        os.remove(stale)
                    except OSError:
                        pass
        spec = importlib.util.spec_from_file_location("_bvf_ctrace", target)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except Exception:
        _CTRACE_MODULE = False
        return None
    _CTRACE_MODULE = module
    return module


class _CtraceBackend:
    """Line-edge tracing via the :mod:`_bvf_ctrace` C extension.

    The extension keeps the hot path — one trace callback per line —
    entirely in C: scope classification is cached per code object, the
    edge key is assembled from a per-frame shadow stack, and edges land
    in a C hash set that is only materialised as Python ints when the
    window closes.
    """

    name = "ctrace"

    def __init__(self, module) -> None:
        self._module = module
        self._window: set[int] | None = None
        self._saved_trace = None

    def start(self, window: set[int]) -> None:
        saved = sys.gettrace()
        try:
            self._module.start(_VERIFIER_DIR, _SCOPE_BASENAMES)
        except RuntimeError as exc:  # "ctrace already active"
            raise CoverageReentryError(
                "another coverage collection window is already active "
                "in this process"
            ) from exc
        self._window = window
        self._saved_trace = saved

    def stop(self) -> None:
        window, self._window = self._window, None
        window |= self._module.stop()
        # PyEval_SetTrace(NULL) cleared whatever tracer was installed
        # before the window (a debugger, pytest-cov); put it back.
        sys.settrace(self._saved_trace)
        self._saved_trace = None


class _SettraceBackend:
    """Line-edge tracing via :func:`sys.settrace`."""

    name = "settrace"

    def __init__(self) -> None:
        self._scope_cache: dict[str, bool] = {}
        self._code_ids: dict[object, int] = {}
        self._window: set[int] | None = None
        self._saved_trace = None

    def start(self, window: set[int]) -> None:
        saved = sys.gettrace()
        if isinstance(getattr(saved, "__self__", None), _SettraceBackend):
            raise CoverageReentryError(
                "another coverage collection window is already active "
                "in this process"
            )
        self._window = window
        self._saved_trace = saved
        sys.settrace(self._global_trace)

    def stop(self) -> None:
        sys.settrace(self._saved_trace)
        self._saved_trace = None
        self._window = None

    def _global_trace(self, frame, event, arg):
        if event != "call":
            return None
        code = frame.f_code
        filename = code.co_filename
        in_scope = self._scope_cache.get(filename)
        if in_scope is None:
            in_scope = _in_scope(filename)
            self._scope_cache[filename] = in_scope
        if not in_scope:
            return None
        code_id = self._code_ids.get(code)
        if code_id is None:
            code_id = _stable_code_id(code)
            self._code_ids[code] = code_id
        shifted = code_id << (2 * _LINE_BITS)
        prev = [frame.f_lineno]
        window = self._window
        window_add = window.add

        def local_trace(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                window_add(
                    shifted
                    | ((prev[0] & _LINE_MASK) << _LINE_BITS)
                    | (line & _LINE_MASK)
                )
                prev[0] = line
            return local_trace

        return local_trace


class VerifierCoverage:
    """Accumulates edge coverage of the verifier across many runs."""

    def __init__(self) -> None:
        #: all unique edges ever observed
        self.edges: set[int] = set()
        #: edges observed during the current collection window
        self._window: set[int] = set()
        #: edges the most recent window newly contributed
        self.last_new = 0
        module = _load_ctrace()
        self._backend = (
            _CtraceBackend(module) if module is not None else _SettraceBackend()
        )
        self._collecting = False

    @property
    def backend_name(self) -> str:
        return self._backend.name

    # --- collection API ----------------------------------------------------------

    @contextmanager
    def collect(self):
        """Trace verifier execution inside the ``with`` block.

        Yields the per-window edge set; new edges are merged into the
        cumulative set on exit.  Nesting ``collect()`` raises
        :class:`CoverageReentryError` — a silent nested window would
        clobber the outer window and miscount ``last_new``.
        """
        if self._collecting:
            raise CoverageReentryError(
                "VerifierCoverage.collect() is not re-entrant: a "
                "collection window is already active on this instance"
            )
        window = set()
        self._backend.start(window)
        self._window = window
        self._collecting = True
        try:
            yield self._window
        finally:
            self._backend.stop()
            self.last_new = len(self._window - self.edges)
            self.edges |= self._window
            self._collecting = False

    def replay(self, window: Iterable[int]) -> None:
        """Apply a previously recorded collection window without tracing.

        The frame-level verdict cache records the edge window of the
        first (miss) verification of a program and replays it on every
        hit, so ``last_new`` — the corpus feedback signal — and the
        cumulative edge set evolve exactly as they would have had the
        verifier actually run.  Semantically equivalent to a
        :meth:`collect` block that traced the recorded edges.
        """
        if self._collecting:
            raise CoverageReentryError(
                "VerifierCoverage.replay() inside an active collection "
                "window would corrupt the window's last_new accounting"
            )
        window = set(window)
        self.last_new = len(window - self.edges)
        self.edges |= window

    # --- accumulation API --------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def snapshot_edges(self) -> frozenset[int]:
        """An immutable, picklable copy of the cumulative edge set.

        Edge keys are stable across processes, so snapshots taken in
        campaign shard workers can be unioned in the parent.
        """
        return frozenset(self.edges)

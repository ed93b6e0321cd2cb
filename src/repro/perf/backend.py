"""Numeric backend selection: numpy for matrices that want it, flat lists otherwise.

The kernel compiles scoring problems into flat numeric arrays; whether
those arrays are numpy ``ndarray``s or plain ``list``s is decided here,
once, at compile time, by **one size rule**: a candidate set of fewer
than :data:`~repro.perf.columns.VECTOR_MIN` rows compiles on the
flat-list backend, a longer one on numpy when it is importable.  numpy
is therefore imported by the first matrix that wants it — a worker
serving a four-program world never loads it.  The
``REPRO_KERNEL_BACKEND`` environment variable forces a backend for
every size (used by the property tests and benchmark E10 to exercise
both paths on the same machine).

The environment is consulted **once per process**: the first default
resolution caches the variable's value, so hot-path callers
(`compile`, the relevance combiners, batch scoring) never pay an
``os.environ`` read per request.  Tests that flip
``REPRO_KERNEL_BACKEND`` mid-process must call :func:`reset_backend`
to drop the cached choice.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import ScoringError
from repro.perf.columns import VECTOR_MIN

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "backend_name",
    "numpy_or_none",
    "reset_backend",
    "resolve_backend",
]

#: Environment override: "numpy" or "python".
BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: The recognised backend names.
BACKENDS = ("numpy", "python")

_NUMPY_CACHE: list = []  # [module | None], filled on first use

_ENV_CACHE: list = []  # [name | None], the validated environment override


def numpy_or_none():
    """The numpy module, or None when it is not importable."""
    if not _NUMPY_CACHE:
        try:
            import numpy  # noqa: PLC0415 - optional dependency probe
        except ImportError:  # pragma: no cover - depends on the environment
            numpy = None
        _NUMPY_CACHE.append(numpy)
    return _NUMPY_CACHE[0]


def reset_backend() -> None:
    """Drop the cached default so the next resolution re-reads the
    environment (test hook; never needed in production processes)."""
    _ENV_CACHE.clear()


def _validated(choice: Optional[str]) -> Optional[str]:
    if choice is not None and choice not in BACKENDS:
        raise ScoringError(
            f"unknown kernel backend {choice!r}; choose from {list(BACKENDS)}"
        )
    return choice


def _env_choice() -> Optional[str]:
    """The backend ``REPRO_KERNEL_BACKEND`` forces, or None (read once)."""
    if not _ENV_CACHE:
        # Cache only a recognised value: a bad one keeps raising on
        # every call instead of poisoning the process.
        _ENV_CACHE.append(_validated(os.environ.get(BACKEND_ENV)))
    return _ENV_CACHE[0]


def resolve_backend(preferred: Optional[str] = None, rows: Optional[int] = None):
    """The numpy module to compile against, or None for the flat lists.

    ``preferred`` (or the ``REPRO_KERNEL_BACKEND`` environment
    variable) may name a backend explicitly; asking for numpy when it
    is not importable is an error rather than a silent downgrade.
    With neither, ``rows`` — the length of the candidate set about to
    be compiled — decides: under ``VECTOR_MIN`` the flat lists, else
    numpy when importable (also the answer when ``rows`` is not given).
    """
    choice = _validated(preferred) if preferred is not None else _env_choice()
    if choice == "python" or (choice is None and rows is not None and rows < VECTOR_MIN):
        return None
    module = numpy_or_none()
    if module is None and choice == "numpy":
        raise ScoringError("kernel backend 'numpy' requested but numpy is not importable")
    return module


def backend_name(preferred: Optional[str] = None, rows: Optional[int] = None) -> str:
    """The name of the backend :func:`resolve_backend` would pick.

    Without ``rows`` that is the backend of a set of ``VECTOR_MIN`` rows
    or more — not a statement about what a small-world process runs.
    """
    return "numpy" if resolve_backend(preferred, rows) is not None else "python"

"""Persistent on-disk store of autotuning decisions.

A :class:`TuneCache` maps step signatures (op / shape / dtype / batch /
placements, as built by the compiler) to the kernel variant the tuner
measured fastest, so identical steps -- across layers, models, and
processes -- are tuned exactly once.  Records persist as JSON under
``~/.cache/repro-tune/`` (or any explicit path) and self-invalidate:

* the file carries a format ``version``; a mismatch discards it;
* the file carries a :func:`runtime_fingerprint` (numpy version, BLAS
  build, CPU architecture, Python version); timings measured under a
  different runtime are meaningless here, so a mismatch discards it;
* each record stores the candidate set it chose from; offering a
  different set (variants added or removed) re-tunes that signature.

Thread-safe: all mutation happens under one reentrant lock.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import tempfile
import threading
from typing import Any, Dict, Iterable, Optional

import numpy as np

#: Bump when the on-disk record shape changes.
CACHE_VERSION = 1

#: Default cache file, under the XDG cache directory.
_CACHE_DIR = "repro-tune"
_CACHE_FILE = "cache.json"


def default_cache_path() -> pathlib.Path:
    """``$XDG_CACHE_HOME/repro-tune/cache.json`` (or ``~/.cache``)."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = pathlib.Path(base) if base else pathlib.Path.home() / ".cache"
    return root / _CACHE_DIR / _CACHE_FILE


def _blas_signature() -> str:
    """A short identifier of the BLAS numpy was built against."""
    try:
        config = np.show_config(mode="dicts")   # numpy >= 1.25
        blas = config.get("Build Dependencies", {}).get("blas", {})
        name = blas.get("name", "unknown")
        version = blas.get("version", "")
        return f"{name}-{version}" if version else str(name)
    except (TypeError, AttributeError):
        # Older numpy: no dict mode; fall back to the build-info keys.
        info = getattr(np, "__config__", None)
        for attr in ("blas_ilp64_opt_info", "blas_opt_info",
                     "blas_info"):
            section = getattr(info, attr, None)
            if section:
                libs = section.get("libraries")
                if libs:
                    return "+".join(str(lib) for lib in libs)
        return "unknown"


def runtime_fingerprint() -> Dict[str, str]:
    """Identity of the runtime the timings were measured under.

    Any field changing means stored timings no longer predict this
    machine's kernel ranking, so the cache discards itself.
    """
    return {
        "numpy": np.__version__,
        "blas": _blas_signature(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
    }


class TuneCache:
    """Thread-safe, optionally persistent store of tuning records.

    Args:
        path: JSON file backing the cache.  ``None`` keeps the cache
            in memory only (``save()`` is then a no-op) -- perfbench
            and the tests use this so timing runs never leak state
            between each other.

    A stored file whose version or runtime fingerprint mismatches the
    current process is discarded on load (counted in ``invalidated``).
    """

    def __init__(self, path: Optional[os.PathLike] = None) -> None:
        self.path = pathlib.Path(path) if path is not None else None
        self.fingerprint = runtime_fingerprint()
        self._records: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.invalidated = 0
        if self.path is not None:
            self._load()

    def _load(self) -> None:
        assert self.path is not None
        try:
            raw = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return
        if not isinstance(raw, dict):
            return
        with self._lock:
            if (raw.get("version") != CACHE_VERSION
                    or raw.get("fingerprint") != self.fingerprint):
                self.invalidated += 1
                return
            records = raw.get("records")
            if isinstance(records, dict):
                self._records = {
                    str(sig): dict(rec) for sig, rec in records.items()
                    if isinstance(rec, dict) and "variant" in rec
                }

    def save(self) -> None:
        """Atomically persist the records (no-op for memory caches)."""
        if self.path is None:
            return
        with self._lock:
            payload = {
                "version": CACHE_VERSION,
                "fingerprint": self.fingerprint,
                "records": self._records,
            }
            self.path.parent.mkdir(parents=True, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                "w", dir=str(self.path.parent), suffix=".tmp",
                delete=False)
            try:
                with handle:
                    json.dump(payload, handle, indent=2, sort_keys=True)
                    handle.write("\n")
                os.replace(handle.name, self.path)
            except BaseException:
                os.unlink(handle.name)
                raise

    def get(self, signature: str,
            candidates: Iterable[str]) -> Optional[str]:
        """The stored winning variant, or None when re-tuning is due.

        A record only hits when it chose among exactly the candidate
        set being offered now -- added or removed variants must
        re-tune.
        """
        offered = sorted(candidates)
        with self._lock:
            record = self._records.get(signature)
            if (record is None
                    or record.get("candidates") != offered
                    or record.get("variant") not in offered):
                self.misses += 1
                return None
            self.hits += 1
            return str(record["variant"])

    def put(self, signature: str, variant: str,
            candidates: Iterable[str],
            timings_ms: Optional[Dict[str, float]] = None) -> None:
        """Record a tuning decision for ``signature``."""
        record: Dict[str, Any] = {
            "variant": variant,
            "candidates": sorted(candidates),
        }
        if timings_ms:
            record["ms"] = {name: float(ms)
                            for name, ms in sorted(timings_ms.items())}
        with self._lock:
            self._records[signature] = record

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def records(self) -> Dict[str, Dict[str, Any]]:
        """A snapshot copy of all records (for inspection/tests)."""
        with self._lock:
            return {sig: dict(rec)
                    for sig, rec in self._records.items()}

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"records": len(self._records), "hits": self.hits,
                    "misses": self.misses,
                    "invalidated": self.invalidated}

"""Keyed on-disk cache for experiment summaries.

Every cacheable experiment is described by a plain config dict (protocol
or strategy, D, p_n, timer settings, seed, trial count, …).  The cache
key is the SHA-256 of the canonical JSON of that config plus a *code
version salt*, so editing the simulators (and bumping the package
version / schema) invalidates stale entries instead of serving them.

Entries are JSON files under ``.repro_cache/<kind>/<key>.json`` (or
``$REPRO_CACHE_DIR``); payloads are the summary dataclasses' field
dicts, which round-trip floats exactly (``json`` uses shortest-repr
serialisation), so a cache hit reproduces the original summary
byte-for-byte.  ``hits``/``misses`` counters make cache behaviour
observable from the CLI; ``--no-cache`` simply passes ``cache=None``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, NamedTuple, Optional, Union

__all__ = ["CACHE_ENV_VAR", "DEFAULT_CACHE_DIR", "CacheStats", "ResultCache"]

#: Default cache root, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Environment variable overriding the default cache root.
CACHE_ENV_VAR = "REPRO_CACHE_DIR"

#: Bump to invalidate every existing entry on a cache-format change.
CACHE_SCHEMA_VERSION = 1


def _code_salt() -> str:
    try:
        from .. import __version__

        return f"{__version__}:{CACHE_SCHEMA_VERSION}"
    except Exception:  # pragma: no cover - import-order edge
        return str(CACHE_SCHEMA_VERSION)


def _root_from_environment() -> Union[str, Path]:
    """Resolve the cache root, validating any ``$REPRO_CACHE_DIR`` override.

    An override must be an absolute path: a relative one would silently
    scatter caches across working directories, and an empty one would
    mean "the current directory", which is never what the operator
    intended.  (This is the one sanctioned ``os.environ`` read outside
    the CLI — see REP105 in docs/static-analysis.md.)
    """
    override = os.environ.get(CACHE_ENV_VAR)
    if override is None:
        return DEFAULT_CACHE_DIR
    if not override.strip():
        raise ValueError(
            f"{CACHE_ENV_VAR} is set but empty; unset it or point it at "
            "an absolute directory path"
        )
    path = Path(override)
    if not path.is_absolute():
        raise ValueError(
            f"{CACHE_ENV_VAR} must be an absolute path, got {override!r}; "
            "a relative override would scatter caches across working "
            "directories"
        )
    return path


def _jsonify(value: Any) -> Any:
    """Fallback serialiser for config values (dataclasses, bytes, sets)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            **dataclasses.asdict(value),
        }
    if isinstance(value, bytes):
        return {"__bytes_sha256__": hashlib.sha256(value).hexdigest(),
                "__len__": len(value)}
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"unserialisable config value of type {type(value).__name__}")


class CacheStats(NamedTuple):
    hits: int
    misses: int


class ResultCache:
    """Content-addressed store of experiment summaries.

    Parameters
    ----------
    root:
        Cache directory; defaults to ``$REPRO_CACHE_DIR`` or
        ``.repro_cache`` under the current working directory.
    """

    def __init__(self, root: Union[str, Path, None] = None):
        if root is None:
            root = _root_from_environment()
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    # -- keys -------------------------------------------------------------

    def key(self, kind: str, config: Dict[str, Any]) -> str:
        """Stable content hash of ``(kind, code salt, config)``."""
        canonical = json.dumps(
            {"kind": kind, "salt": _code_salt(), "config": config},
            sort_keys=True,
            separators=(",", ":"),
            default=_jsonify,
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _path(self, kind: str, config: Dict[str, Any]) -> Path:
        return self.root / kind / f"{self.key(kind, config)}.json"

    # -- access -----------------------------------------------------------

    def get(self, kind: str, config: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Return the cached payload, or ``None`` on a miss.

        A corrupt entry (truncated write, wrong format) counts as a miss
        and is removed rather than raised.
        """
        path = self._path(kind, config)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return payload

    def put(self, kind: str, config: Dict[str, Any], payload: Dict[str, Any]) -> Path:
        """Persist a payload; atomic via write-to-temp-then-rename."""
        path = self._path(kind, config)
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.with_suffix(f".tmp.{os.getpid()}")
        temp.write_text(json.dumps(payload, sort_keys=True))
        temp.replace(path)
        return path

    @property
    def stats(self) -> CacheStats:
        return CacheStats(self.hits, self.misses)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache(root={str(self.root)!r}, "
            f"hits={self.hits}, misses={self.misses})"
        )

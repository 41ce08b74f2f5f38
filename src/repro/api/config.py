"""Per-session engine configuration.

An :class:`EngineConfig` is the engine's whole configuration — the
LRU bound, the persistent-store binding, the executor backend and its
worker count and the default per-request deadline — collected into
one immutable value that a :class:`repro.api.Session` owns.  Two
sessions in one process can therefore run disjoint cache stacks and
different backends.

The environment holds no engine setting of its own: the store binding
follows ``REPRO_CACHE_DIR`` by itself, the CLI builds its
configuration from its flags, and a bare
:class:`~repro.service.server.SolveServer` serves from
``Session(EngineConfig())``.  ``REPRO_SHARDS`` is not an engine
setting: it names the fleet the CLI assembles (:func:`parse_shards` →
:meth:`~repro.api.ShardedClient.from_specs`).

The store binding has three states:

* :data:`FOLLOW_ENV` (default) — re-resolve the ``REPRO_CACHE_DIR``
  environment variable on every access, the historical behaviour that
  keeps tests and subprocesses predictable;
* a path — pin the persistent tier to that directory;
* ``None`` — no persistent tier, regardless of the environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple, Union

from ..engine.cache import DEFAULT_CACHE_SIZE
from ..engine.executors import BACKENDS

__all__ = [
    "FOLLOW_ENV",
    "EngineConfig",
    "STORE_ENV_VAR",
    "SHARDS_ENV_VAR",
    "ShardSpec",
    "enforceable_backend",
    "parse_shard_entry",
    "parse_shards",
]


def enforceable_backend(
    backend: str, deadline: Optional[float]
) -> str:
    """The backend that will actually enforce ``deadline``.

    The one place the deadline/backend rule lives — used both by
    :class:`EngineConfig` validation at construction and by
    :class:`~repro.api.session.Session` per-call overrides: no
    deadline leaves the backend alone; ``auto`` promotes to the async
    backend (the only one that can enforce a per-solve bound);
    explicit ``serial``/``process`` with a deadline is an error.
    """
    if deadline is None:
        return backend
    if backend == "auto":
        return "async"
    if backend in ("serial", "process"):
        raise ValueError(
            f"deadline= cannot be enforced by the {backend!r} backend; "
            "use backend='async' (or 'auto', which selects it when a "
            "deadline is set)"
        )
    return backend

#: Environment variable that binds the persistent store tier.
STORE_ENV_VAR = "REPRO_CACHE_DIR"

#: Environment variable naming the shard fleet (comma-separated
#: ``host:port`` / ``local`` entries, optional ``*weight`` suffix).
SHARDS_ENV_VAR = "REPRO_SHARDS"


@dataclass(frozen=True)
class ShardSpec:
    """One shard endpoint: a serve socket, or an in-process session.

    ``host is None`` means a local shard (its own
    :class:`~repro.api.session.Session`); otherwise ``host:port`` of a
    ``repro serve`` process.  ``weight`` scales the shard's share of
    the consistent-hash ring (capacity-proportional routing).
    """

    host: Optional[str] = None
    port: Optional[int] = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if (self.host is None) != (self.port is None):
            raise ValueError(
                "ShardSpec needs both host and port, or neither (local)"
            )
        if self.port is not None and not 0 < self.port < 65536:
            raise ValueError(
                f"shard port must be in 1..65535, got {self.port}"
            )
        if not self.weight > 0:
            raise ValueError(
                f"shard weight must be > 0, got {self.weight}"
            )

    @property
    def is_local(self) -> bool:
        return self.host is None

    def __str__(self) -> str:
        base = "local" if self.is_local else f"{self.host}:{self.port}"
        return base if self.weight == 1.0 else f"{base}*{self.weight:g}"


def parse_shard_entry(
    text: str, *, source: str = SHARDS_ENV_VAR
) -> ShardSpec:
    """One shard entry — ``host:port``, ``local``, optional ``*weight``.

    Errors name ``source`` (the env var or flag the entry came from)
    and show the accepted grammar, same actionable style as the other
    ``REPRO_*`` parsers.
    """
    entry = text.strip()
    grammar = (
        f"{source} entries are 'host:port' or 'local', each with an "
        "optional '*weight' suffix — e.g. "
        "'10.0.0.1:8753,10.0.0.2:8753*2,local'"
    )
    if not entry:
        raise ValueError(f"{source} contains an empty shard entry; {grammar}")
    weight = 1.0
    if "*" in entry:
        entry, _, raw_weight = entry.rpartition("*")
        try:
            weight = float(raw_weight)
        except ValueError as exc:
            raise ValueError(
                f"{source}: shard weight {raw_weight!r} in {text.strip()!r} "
                f"is not a number; {grammar}"
            ) from exc
        if not weight > 0:
            raise ValueError(
                f"{source}: shard weight must be > 0, got {weight} in "
                f"{text.strip()!r}"
            )
    if entry == "local":
        return ShardSpec(weight=weight)
    host, sep, raw_port = entry.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"{source}: shard entry {text.strip()!r} is neither 'local' "
            f"nor 'host:port'; {grammar}"
        )
    try:
        port = int(raw_port)
    except ValueError as exc:
        raise ValueError(
            f"{source}: shard port {raw_port!r} in {text.strip()!r} is "
            f"not an integer; {grammar}"
        ) from exc
    if not 0 < port < 65536:
        raise ValueError(
            f"{source}: shard port must be in 1..65535, got {port} in "
            f"{text.strip()!r}"
        )
    return ShardSpec(host=host, port=port, weight=weight)


def parse_shards(
    text: str, *, source: str = SHARDS_ENV_VAR
) -> Tuple[ShardSpec, ...]:
    """A comma-separated shard list → validated :class:`ShardSpec`s."""
    entries = [part for part in text.split(",") if part.strip()]
    if not entries:
        raise ValueError(
            f"{source}={text!r} names no shards; list them comma-"
            "separated as 'host:port' or 'local' (optional '*weight'), "
            "or unset it"
        )
    return tuple(parse_shard_entry(entry, source=source) for entry in entries)


class _FollowEnv:
    """Sentinel: resolve the store from ``REPRO_CACHE_DIR`` per access."""

    _instance: Optional["_FollowEnv"] = None

    def __new__(cls) -> "_FollowEnv":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "FOLLOW_ENV"

    def __reduce__(self):  # pickle back to the singleton
        return (_FollowEnv, ())


FOLLOW_ENV = _FollowEnv()

StorePath = Union[None, str, os.PathLike, _FollowEnv]


@dataclass(frozen=True)
class EngineConfig:
    """One session's engine settings (immutable; ``replaced`` to vary).

    ``backend`` is the default executor knob (``auto|serial|process|
    async``); ``workers`` feeds the process/async backends; ``deadline``
    (seconds) is the default per-solve time bound — it requires a
    backend that can enforce it, so combining it with an explicit
    ``serial``/``process`` backend is rejected (under ``auto`` the
    session picks the async backend instead).
    """

    cache_size: int = DEFAULT_CACHE_SIZE
    store_path: StorePath = FOLLOW_ENV
    backend: str = "auto"
    workers: Optional[int] = None
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.cache_size < 1:
            raise ValueError(
                f"cache_size must be >= 1, got {self.cache_size}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose one of "
                f"{', '.join(BACKENDS)}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.deadline is not None:
            if self.deadline <= 0:
                raise ValueError(
                    f"deadline must be > 0 seconds, got {self.deadline}"
                )
            enforceable_backend(self.backend, self.deadline)

    def replace(self, **overrides: Any) -> "EngineConfig":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **overrides)

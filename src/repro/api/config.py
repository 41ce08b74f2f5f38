"""Per-session engine configuration.

An :class:`EngineConfig` is the engine's whole configuration — the
LRU bound, the persistent-store binding, the executor backend and its
worker count, the default per-request deadline and default objective —
collected into one immutable value that a :class:`repro.api.Session` owns.  Two
sessions in one process can therefore run disjoint cache stacks and
different backends.  :meth:`EngineConfig.from_env` is the
configuration the process environment asks for; a bare
:class:`~repro.service.server.SolveServer` serves from
``Session(EngineConfig.from_env())``.

The store binding has three states:

* :data:`FOLLOW_ENV` (default) — re-resolve the ``REPRO_CACHE_DIR``
  environment variable on every access, the historical behaviour that
  keeps tests and subprocesses predictable;
* a path — pin the persistent tier to that directory;
* ``None`` — no persistent tier, regardless of the environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional, Tuple, Union

from ..engine.cache import DEFAULT_CACHE_SIZE
from ..engine.executors import BACKENDS

__all__ = [
    "FOLLOW_ENV",
    "EngineConfig",
    "STORE_ENV_VAR",
    "SHARDS_ENV_VAR",
    "REPAIR_ENV_VAR",
    "ShardSpec",
    "enforceable_backend",
    "parse_bool_env",
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

#: Environment variable enabling the near-miss repair cache tier.
REPAIR_ENV_VAR = "REPRO_REPAIR"

_BOOL_TRUE = frozenset({"1", "true", "yes", "on"})
_BOOL_FALSE = frozenset({"0", "false", "no", "off"})


def parse_bool_env(var: str, raw: str) -> bool:
    """Parse a boolean ``REPRO_*`` variable with an actionable error.

    Accepts the usual spellings case-insensitively; anything else
    raises a :class:`ValueError` naming the variable instead of
    surfacing a bare parse traceback.
    """
    value = raw.strip().lower()
    if value in _BOOL_TRUE:
        return True
    if value in _BOOL_FALSE:
        return False
    raise ValueError(
        f"environment variable {var}={raw!r} is not a valid boolean; "
        "use 1/true/yes/on or 0/false/no/off, or unset it"
    )


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
    session picks the async backend instead).  ``objective`` is the
    default objective of ``solve``/``solve_many`` calls that do not
    name one.
    """

    cache_size: int = DEFAULT_CACHE_SIZE
    store_path: StorePath = FOLLOW_ENV
    backend: str = "auto"
    workers: Optional[int] = None
    chunksize: Optional[int] = None
    deadline: Optional[float] = None
    objective: str = "minbusy"
    #: Enable the near-miss repair tier between the LRU and the store
    #: (:class:`repro.engine.repair.RepairTier`).  Only takes effect
    #: when a persistent store is bound; default off.
    repair: bool = False
    #: Shard fleet for sharded clients/servers; entries may be given
    #: as ``ShardSpec`` objects or ``"host:port"``/``"local"`` strings
    #: (normalized here).  Empty = unsharded.
    shards: Tuple[ShardSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        normalized = tuple(
            parse_shard_entry(s, source="shards")
            if isinstance(s, str)
            else s
            for s in self.shards
        )
        for spec in normalized:
            if not isinstance(spec, ShardSpec):
                raise ValueError(
                    f"shards entries must be ShardSpec or str, got "
                    f"{type(spec).__name__}"
                )
        object.__setattr__(self, "shards", normalized)
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

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> "EngineConfig":
        """The configuration the process environment asks for.

        Reads ``REPRO_BACKEND``, ``REPRO_WORKERS``, ``REPRO_DEADLINE``,
        ``REPRO_CACHE_SIZE`` and ``REPRO_SHARDS`` when present; the
        store binding stays :data:`FOLLOW_ENV` so later
        ``REPRO_CACHE_DIR`` changes keep taking effect.
        """
        env = os.environ if environ is None else environ

        def parse(var: str, cast):
            raw = env[var]
            try:
                return cast(raw)
            except ValueError as exc:
                raise ValueError(
                    f"environment variable {var}={raw!r} is not a "
                    f"valid {cast.__name__}; fix or unset it"
                ) from exc

        kwargs: dict = {}
        if env.get("REPRO_BACKEND"):
            kwargs["backend"] = env["REPRO_BACKEND"]
        if env.get("REPRO_WORKERS"):
            kwargs["workers"] = parse("REPRO_WORKERS", int)
        if env.get("REPRO_DEADLINE"):
            kwargs["deadline"] = parse("REPRO_DEADLINE", float)
        if env.get("REPRO_CACHE_SIZE"):
            kwargs["cache_size"] = parse("REPRO_CACHE_SIZE", int)
        if env.get(REPAIR_ENV_VAR):
            kwargs["repair"] = parse_bool_env(
                REPAIR_ENV_VAR, env[REPAIR_ENV_VAR]
            )
        if env.get(SHARDS_ENV_VAR):
            kwargs["shards"] = parse_shards(env[SHARDS_ENV_VAR])
        return cls(**kwargs)

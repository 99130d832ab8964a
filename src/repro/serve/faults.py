"""Deterministic fault injection for the serving engine.

The serving stack through PR 6 assumes the hardware never fails; this
module gives the engine something to recover from, without giving up
the repo's reproducibility discipline.  A :class:`FaultInjector` draws
every fault event from its own seeded RNG streams — entirely separate
from the workload's arrival streams — so a faulty run is bit-replayable
from the pair ``(workload seed, fault seed)`` alone.

Three fault species are modelled, matching what TPU pods and GPU
clusters actually see (§3.1 scales):

* **transient call failures** — a planned level executes but its result
  is corrupt (an ECC hiccup, a flaky interconnect read): the level's
  charges stay on the ledger as wasted work and the level must re-run;
* **unit crashes** — an MTBF/MTTR renewal process: the unit dies at an
  exponentially distributed time, killing whatever level was in flight,
  and stays down for an exponentially distributed repair interval
  during which nothing launches or resumes;
* **stragglers** — a per-level slowdown: with probability
  ``straggle_rate`` a level costs ``straggle_factor``x its model time
  (the extra is charged as ``cpu`` time — the machine really spent it,
  and the level still completes, so it is useful work, not waste).

The crash process draws from a *separate* substream of the injector's
seed than the per-level draws, so the crash timeline is a property of
the seed alone — it does not shift when a different workload executes a
different number of levels.

:class:`RetryPolicy` (none / fixed / exponential backoff with a cap and
a per-request retry budget) and :class:`Degrader` (graceful degradation
onto a cheaper variant — fewer rows, or a quantized preset via
:mod:`repro.core.quantize`) live here too.  Injectors and retry
policies follow the same name-registry idiom as the batchers,
admissions and schedulers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.machine import TCUMachine
from ..core.quantize import QuantizedTCUMachine

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "NoFaultInjector",
    "SeededFaultInjector",
    "register_fault_injector",
    "get_fault_injector",
    "available_fault_injectors",
    "RetryPolicy",
    "NoRetry",
    "FixedRetry",
    "ExponentialRetry",
    "register_retry_policy",
    "get_retry_policy",
    "available_retry_policies",
    "Degrader",
]


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One injected fault, as the engine recorded it.

    ``kind`` is ``"transient"`` or ``"crash"``; ``level`` is the plan
    level that was lost; ``attempt`` is the 1-based attempt number that
    failed; ``clock`` is the engine time the failure surfaced (the
    failed level's boundary).
    """

    kind: str
    batch: int
    level: int
    attempt: int
    clock: float


# ----------------------------------------------------------------------
# fault injectors
# ----------------------------------------------------------------------
class FaultInjector:
    """Base class: decide, per executed level, what goes wrong.

    The engine consults the injector at exactly three points, all
    deterministic given the event order:

    * :meth:`draw_level` — once per level *before*
      execution: returns ``(straggle_factor, transient_failure)``;
    * :meth:`next_crash` / :meth:`take_crash` — the crash renewal
      process, peeked against level boundaries and idle launch times and
      consumed window by window (a crash can never occur while the unit
      is already down: the next failure is drawn from the repair time).

    ``active`` is False for injectors that can never produce an event;
    the engine then takes the exact zero-fault code path, so an inert
    injector is bit-identical to no injector at all.
    """

    name = "abstract"

    @property
    def active(self) -> bool:
        return True

    def reseed(self, seed: int) -> None:
        """Replace the injector's seed (used by the engine's top-level
        ``seed`` splitting); takes effect at the next :meth:`begin_run`."""

    def begin_run(self) -> None:
        """Re-arm every RNG stream from the stored seed.  Called by the
        engine at the start of each serve, so consecutive serves with
        one injector replay identical fault timelines."""

    def draw_level(self) -> tuple[float, bool]:
        """Fault draws for the next executed level: ``(factor, fail)``."""
        return 1.0, False

    def next_crash(self) -> float:
        """Absolute model time of the next unit crash (``inf`` = never).
        Peeking never consumes the draw."""
        return math.inf

    def take_crash(self) -> tuple[float, float]:
        """Consume the pending crash: returns ``(crash_time, up_time)``
        and advances the renewal process past the repair interval."""
        raise RuntimeError(f"injector {self.name!r} has no crash process")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class NoFaultInjector(FaultInjector):
    """The do-nothing injector: never fails, never consumes randomness.

    ``active`` is False, so an engine configured with it takes the
    zero-fault code path bit-identically to no injector at all — the
    parity gate ``bench_faults.py`` pins.
    """

    name = "none"

    @property
    def active(self) -> bool:
        return False


# levels per refill of the per-level stream (two uniforms each)
_LEVEL_BLOCK = 256


class SeededFaultInjector(FaultInjector):
    """All three fault species, drawn from seeded independent streams.

    Parameters
    ----------
    fail_rate:
        Per-level probability of a transient call failure, in
        ``[0, 1)`` (1 would re-run a level forever).
    mtbf, mttr:
        Mean time between unit crashes and mean time to repair, in
        model-time units.  ``mtbf=None`` (default) disables crashes;
        when set, ``mttr`` must be set too, and both must be positive.
    straggle_rate, straggle_factor:
        Per-level probability of a straggler and its cost multiplier
        (``factor >= 1``; the extra ``(factor-1) * level_time`` is
        charged as cpu time).
    seed:
        The fault seed.  :meth:`begin_run` splits it into two
        independent substreams (per-level draws vs the crash renewal
        process) via :class:`numpy.random.SeedSequence`, so the crash
        timeline does not depend on how many levels a workload executes.

    Each level takes the next two uniforms of the per-level stream
    (straggle, then fail).  They are read from a block of that stream
    drawn :data:`_LEVEL_BLOCK` levels at a time, which yields the
    uniforms per-level ``random(2)`` draws would; :meth:`begin_run`
    drops the block with the stream.
    """

    name = "seeded"

    def __init__(
        self,
        *,
        fail_rate: float = 0.0,
        mtbf: float | None = None,
        mttr: float | None = None,
        straggle_rate: float = 0.0,
        straggle_factor: float = 2.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= fail_rate < 1.0:
            raise ValueError(f"fail_rate must be in [0, 1), got {fail_rate}")
        if (mtbf is None) != (mttr is None):
            raise ValueError("mtbf and mttr must be set together (or both None)")
        if mtbf is not None and mtbf <= 0:
            raise ValueError(f"mtbf must be > 0, got {mtbf}")
        if mttr is not None and mttr <= 0:
            raise ValueError(f"mttr must be > 0, got {mttr}")
        if not 0.0 <= straggle_rate <= 1.0:
            raise ValueError(f"straggle_rate must be in [0, 1], got {straggle_rate}")
        if straggle_factor < 1.0:
            raise ValueError(f"straggle_factor must be >= 1, got {straggle_factor}")
        self.fail_rate = float(fail_rate)
        self.mtbf = None if mtbf is None else float(mtbf)
        self.mttr = None if mttr is None else float(mttr)
        self.straggle_rate = float(straggle_rate)
        self.straggle_factor = float(straggle_factor)
        self.seed = int(seed)
        self.begin_run()

    @property
    def active(self) -> bool:
        return (
            self.fail_rate > 0.0
            or self.mtbf is not None
            or self.straggle_rate > 0.0
        )

    def reseed(self, seed: int) -> None:
        self.seed = int(seed)

    def begin_run(self) -> None:
        level_ss, crash_ss = np.random.SeedSequence(self.seed).spawn(2)
        self._level_rng = np.random.default_rng(level_ss)
        self._crash_rng = np.random.default_rng(crash_ss)
        self._level_draws: list[float] = []
        self._level_pos = 0
        if self.mtbf is None:
            self._next_crash = math.inf
        else:
            self._next_crash = float(self._crash_rng.exponential(self.mtbf))

    def draw_level(self) -> tuple[float, bool]:
        # k levels' draws of random(2) each are one random(2k): read
        # them from a block of the same stream, refilled when spent
        pos = self._level_pos
        draws = self._level_draws
        if pos == len(draws):
            draws = self._level_draws = self._level_rng.random(2 * _LEVEL_BLOCK).tolist()
            pos = 0
        self._level_pos = pos + 2
        factor = self.straggle_factor if draws[pos] < self.straggle_rate else 1.0
        return factor, draws[pos + 1] < self.fail_rate

    def next_crash(self) -> float:
        return self._next_crash

    def take_crash(self) -> tuple[float, float]:
        crash = self._next_crash
        if not math.isfinite(crash):
            raise RuntimeError("no pending crash to take")
        up = crash + float(self._crash_rng.exponential(self.mttr))
        self._next_crash = up + float(self._crash_rng.exponential(self.mtbf))
        return crash, up

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(fail_rate={self.fail_rate}, mtbf={self.mtbf}, "
            f"mttr={self.mttr}, straggle_rate={self.straggle_rate}, seed={self.seed})"
        )


_INJECTORS: dict[str, FaultInjector] = {}


def register_fault_injector(injector: FaultInjector) -> FaultInjector:
    """Add an injector instance to the name registry (last write wins)."""
    _INJECTORS[injector.name] = injector
    return injector


for _inj in (NoFaultInjector(), SeededFaultInjector()):
    register_fault_injector(_inj)


def available_fault_injectors() -> tuple[str, ...]:
    """Registered injector names, in registration order."""
    return tuple(_INJECTORS)


def get_fault_injector(injector: str | FaultInjector) -> FaultInjector:
    """Resolve an injector by name (or pass an instance through)."""
    if isinstance(injector, FaultInjector):
        return injector
    try:
        return _INJECTORS[injector]
    except KeyError:
        raise ValueError(
            f"unknown fault injector {injector!r}; available: "
            f"{available_fault_injectors()}"
        ) from None


# ----------------------------------------------------------------------
# retry policies
# ----------------------------------------------------------------------
class RetryPolicy:
    """Base class: how many attempts a batch gets, and the backoff
    between them.

    ``max_attempts`` is the per-request retry budget (attempt 1 is the
    initial try); :meth:`delay` returns the backoff before the given
    1-based attempt (called with ``attempt >= 2``).  Policies are
    stateless configuration, shared freely across engines.
    """

    name = "abstract"
    max_attempts: int = 1

    def delay(self, attempt: int) -> float:
        """Model-time backoff before ``attempt`` (2 = first retry)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class NoRetry(RetryPolicy):
    """One attempt only: any failure abandons the batch."""

    name = "no-retry"
    max_attempts = 1

    def delay(self, attempt: int) -> float:
        raise RuntimeError("no-retry never schedules a retry")


class FixedRetry(RetryPolicy):
    """A constant backoff between attempts."""

    name = "fixed"

    def __init__(self, delay: float = 0.0, *, max_attempts: int = 3) -> None:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self._delay = float(delay)
        self.max_attempts = int(max_attempts)

    def delay(self, attempt: int) -> float:
        return self._delay


class ExponentialRetry(RetryPolicy):
    """Exponential backoff: ``base * factor**(attempt-2)``, capped.

    The first retry (attempt 2) waits ``base``; each further retry
    multiplies by ``factor`` up to ``cap``.
    """

    name = "exponential"

    def __init__(
        self,
        base: float = 0.0,
        *,
        factor: float = 2.0,
        cap: float = math.inf,
        max_attempts: int = 4,
    ) -> None:
        if base < 0:
            raise ValueError(f"base must be >= 0, got {base}")
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        if cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.base = float(base)
        self.factor = float(factor)
        self.cap = float(cap)
        self.max_attempts = int(max_attempts)

    def delay(self, attempt: int) -> float:
        return min(self.cap, self.base * self.factor ** max(attempt - 2, 0))


_RETRIES: dict[str, RetryPolicy] = {}


def register_retry_policy(policy: RetryPolicy) -> RetryPolicy:
    """Add a retry policy instance to the name registry (last write wins)."""
    _RETRIES[policy.name] = policy
    return policy


for _pol in (NoRetry(), FixedRetry(), ExponentialRetry()):
    register_retry_policy(_pol)


def available_retry_policies() -> tuple[str, ...]:
    """Registered retry-policy names, in registration order."""
    return tuple(_RETRIES)


def get_retry_policy(policy: str | RetryPolicy) -> RetryPolicy:
    """Resolve a retry policy by name (or pass an instance through)."""
    if isinstance(policy, RetryPolicy):
        return policy
    try:
        return _RETRIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown retry policy {policy!r}; available: "
            f"{available_retry_policies()}"
        ) from None


# ----------------------------------------------------------------------
# graceful degradation
# ----------------------------------------------------------------------
class Degrader:
    """Re-plan a repeatedly failing batch onto a cheaper variant.

    Degradation fires after ``after_attempts`` failed attempts, or (with
    ``on_deadline_pressure``) as soon as a failure plus the pending
    backoff would blow a request's deadline — the engine then rebuilds
    the batch's plan on the degraded variant and restarts it (a re-plan
    can never checkpoint-resume: the old plan's levels no longer apply).

    Modes
    -----
    ``rows``
        Serve ``max(min_rows, floor(rows * rows_factor))`` rows per
        request — the classic quality knob: less work per request,
        answers for a subset (top-k truncation, lower resolution).
    ``quantize``
        Re-plan onto a :class:`~repro.core.quantize.QuantizedTCUMachine`
        twin of the engine's machine with ``ell`` scaled by
        ``ell_factor`` — the degraded service loads ``precision``-packed
        weights (int8 words are a quarter of fp32), so every call pays a
        proportionally smaller invocation latency.  The twin shares the
        primary machine's ledger, so the engine clock and all
        conservation checks span both.
    """

    def __init__(
        self,
        *,
        after_attempts: int = 2,
        mode: str = "rows",
        rows_factor: float = 0.5,
        min_rows: int = 1,
        precision: str = "int8",
        ell_factor: float = 0.25,
        on_deadline_pressure: bool = True,
    ) -> None:
        if after_attempts < 1:
            raise ValueError(f"after_attempts must be >= 1, got {after_attempts}")
        if mode not in ("rows", "quantize"):
            raise ValueError(f"unknown degrade mode {mode!r}; choose 'rows' or 'quantize'")
        if not 0.0 < rows_factor < 1.0:
            raise ValueError(f"rows_factor must be in (0, 1), got {rows_factor}")
        if min_rows < 1:
            raise ValueError(f"min_rows must be >= 1, got {min_rows}")
        if not 0.0 < ell_factor <= 1.0:
            raise ValueError(f"ell_factor must be in (0, 1], got {ell_factor}")
        self.after_attempts = int(after_attempts)
        self.mode = mode
        self.rows_factor = float(rows_factor)
        self.min_rows = int(min_rows)
        self.precision = precision
        self.ell_factor = float(ell_factor)
        self.on_deadline_pressure = bool(on_deadline_pressure)

    def wants(self, failed_attempts: int, deadline_pressure: bool) -> bool:
        """Should a batch with this failure history degrade now?"""
        if failed_attempts >= self.after_attempts:
            return True
        return self.on_deadline_pressure and deadline_pressure

    def degraded_rows(self, rows: list[int]) -> list[int]:
        return [max(self.min_rows, int(r * self.rows_factor)) for r in rows]

    def quantized_twin(self, machine: TCUMachine) -> QuantizedTCUMachine:
        """The cheaper serving variant: a quantized machine sharing
        ``machine``'s ledger (one clock, one conservation check), with
        the invocation latency scaled by ``ell_factor``."""
        return QuantizedTCUMachine(
            machine.m,
            machine.ell * self.ell_factor,
            precision=self.precision,
            kappa=machine.kappa,
            max_rows=machine.max_rows,
            complex_cost_factor=machine.complex_cost_factor,
            backend=machine.backend,
            execute=machine.execute,
            check_overflow=machine.check_overflow,
            ledger=machine.ledger,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Degrader(after_attempts={self.after_attempts}, mode={self.mode!r})"
        )

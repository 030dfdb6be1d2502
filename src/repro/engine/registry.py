"""The pluggable scheme registry: one dispatch point for all callers.

Every probability-computation scheme — the paper's Shannon-expansion
family, the naive per-world baseline, the MCDB-style Monte Carlo
comparator, and anything a downstream workload plugs in — registers
itself here with a *capability set*.  The platform facade
(:meth:`repro.core.platform.ENFrame.run`), the CLI, the distributed
compiler, and the benchmark harness all dispatch through
:func:`run_scheme` instead of hard-coding ``if scheme == ...`` chains,
so a new scheme is one :func:`register_scheme` call away from every
entry point.

Capabilities drive dispatch-time normalisation:

* ``epsilon`` — the scheme consumes an error budget; for schemes
  without it, ``epsilon`` is forced to ``0.0`` (exact/statistical
  schemes ignore budgets rather than erroring on them);
* ``statistical`` — bounds hold with a confidence level, not with
  certainty (Monte Carlo);
* ``distributed`` — the scheme can run under the job-based distributed
  compiler (``workers=`` is honoured, and with it ``execution`` and
  ``listen``; otherwise they are ignored);
* ``exact`` — bounds collapse to the exact probability;
* ``timeout`` — the scheme honours a wall-clock budget;
* ``bulk`` — the scheme evaluates through the vectorized bulk engine;
* ``kernel`` — the scheme's evaluator honours ``kernel=`` tier
  selection (:mod:`repro.engine.kernels`: native cone sweeps for the
  masked engine, the native world block — 64 worlds per word — for the
  bulk engine); for schemes without it, ``kernel`` is dropped;
* ``evidence`` — the scheme conditions its answers on an evidence list
  (:func:`normalise_evidence`); for schemes without it, ``evidence``
  is dropped so conditioned and unconditioned requests cannot fragment
  the service layer's artifact cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from ..compile.result import CompilationResult
from ..network.nodes import EventNetwork
from ..worlds.variables import VariablePool

CAP_EPSILON = "epsilon"
CAP_STATISTICAL = "statistical"
CAP_DISTRIBUTED = "distributed"
CAP_EXACT = "exact"
CAP_TIMEOUT = "timeout"
CAP_BULK = "bulk"
CAP_KERNEL = "kernel"
CAP_EVIDENCE = "evidence"

CAPABILITIES = frozenset(
    {
        CAP_EPSILON,
        CAP_STATISTICAL,
        CAP_DISTRIBUTED,
        CAP_EXACT,
        CAP_TIMEOUT,
        CAP_BULK,
        CAP_KERNEL,
        CAP_EVIDENCE,
    }
)


class ImpossibleEvidenceError(ZeroDivisionError):
    """Conditioning on evidence whose probability is zero.

    ``P(t | C)`` is undefined when ``P(C) = 0``; the service answers 422.
    A ``ZeroDivisionError``, so callers that caught that still do.
    """


def normalise_evidence(evidence) -> Tuple[tuple, ...]:
    """Canonicalise an evidence list into sorted, deduplicated tuples.

    Each entry becomes ``("var", index, value)`` (the Bernoulli variable
    ``index`` is observed with truth ``value``) or ``("event", name)``
    (the Boolean network node bound to ``name`` is observed true).
    Accepted input forms per entry:

    * ``index`` (an ``int``) — shorthand for the variable being true;
    * ``(index, value)`` — a variable with an explicit truth value;
    * ``"name"`` (a ``str``) — a named network event;
    * ``{"var": index, "value": value}`` / ``{"event": name}`` — the
      JSON object form the service layer accepts;
    * ``("var", index, value)`` / ``("event", name)`` — the canonical
      forms themselves (lists too, so decoded JSON round-trips).

    Variable entries sort before event entries, variables by index and
    events by name, so equal evidence sets always canonicalise to the
    same tuple (the service layer hashes it into cache keys).
    Conflicting assignments to one variable raise ``ValueError``;
    ``None`` means no evidence.
    """
    if evidence is None:
        return ()
    if isinstance(evidence, (str, int, dict)):
        raise ValueError(
            f"evidence must be a list of entries, got {evidence!r}; "
            "wrap a single entry in a list"
        )
    assignments: Dict[int, bool] = {}
    events = set()
    for entry in evidence:
        kind, payload = _canonical_evidence_entry(entry)
        if kind == "var":
            index, value = payload
            previous = assignments.get(index)
            if previous is not None and previous != value:
                raise ValueError(
                    f"conflicting evidence for variable {index}: "
                    f"asserted both {previous} and {value}"
                )
            assignments[index] = value
        else:
            events.add(payload)
    return tuple(
        [("var", index, assignments[index]) for index in sorted(assignments)]
        + [("event", name) for name in sorted(events)]
    )


def _canonical_evidence_entry(entry) -> Tuple[str, object]:
    """One evidence entry → ``("var", (index, value))`` or ``("event", name)``."""
    if isinstance(entry, bool):
        raise ValueError(
            f"bad evidence entry {entry!r}: a bare bool names no variable"
        )
    if isinstance(entry, int):
        if entry < 0:
            raise ValueError(f"bad evidence entry {entry!r}: negative index")
        return ("var", (int(entry), True))
    if isinstance(entry, str):
        return ("event", entry)
    if isinstance(entry, dict):
        if "event" in entry:
            name = entry["event"]
            if not isinstance(name, str):
                raise ValueError(f"bad evidence entry {entry!r}")
            return ("event", name)
        if "var" in entry:
            index = entry["var"]
            value = entry.get("value", True)
            if isinstance(index, bool) or not isinstance(index, int) or index < 0:
                raise ValueError(f"bad evidence entry {entry!r}")
            if not isinstance(value, bool):
                raise ValueError(f"bad evidence entry {entry!r}")
            return ("var", (int(index), value))
        raise ValueError(f"bad evidence entry {entry!r}")
    if isinstance(entry, (tuple, list)):
        items = list(entry)
        if len(items) == 3 and items[0] == "var":
            return _canonical_evidence_entry({"var": items[1], "value": items[2]})
        if len(items) == 2 and items[0] == "event":
            return _canonical_evidence_entry({"event": items[1]})
        if (
            len(items) == 2
            and isinstance(items[0], int)
            and not isinstance(items[0], bool)
            and isinstance(items[1], bool)
        ):
            return ("var", (int(items[0]), items[1]))
        raise ValueError(f"bad evidence entry {entry!r}")
    raise ValueError(f"bad evidence entry {entry!r}")


@dataclass
class SchemeOptions:
    """Normalised run options handed to every scheme runner.

    ``order`` names a variable-ordering strategy for the Shannon
    schemes (``"frequency"``, ``"dynamic"`` — the cone-aware dynamic
    order — ``"index"``, or an explicit index sequence; see
    :func:`repro.compile.ordering.make_order`).

    ``execution`` selects how a ``distributed``-capable scheme runs its
    workers (``"simulate"`` or ``"process"``; see
    :mod:`repro.compile.distributed`); ``job_size`` is the distributed
    fork depth.  ``listen`` (``"host:port"``) makes a process run
    wait for remote ``repro cluster --connect`` workers instead of
    spawning them locally.

    ``kernel`` names the evaluator tier for ``kernel``-capable schemes
    (one of :data:`repro.engine.kernels.KERNEL_NAMES`); ``None`` defers
    to the process default (``REPRO_KERNEL`` or ``auto``).

    ``evidence`` is the canonical evidence tuple of
    :func:`normalise_evidence` for ``evidence``-capable schemes
    (``exact-cond`` / ``lazy-cond``): the conditioning constraint the
    returned bounds are renormalised against.  Empty for every other
    scheme.

    This dataclass is the *public* typed options object: build one and
    pass it to :func:`run_scheme` (or ``ENFrame.run``) as ``options=``
    instead of spelling the keywords out — it is re-normalised through
    :func:`normalise_options` either way, so the two spellings cannot
    diverge.
    """

    epsilon: float = 0.0
    order: "str | Sequence[int]" = "frequency"
    workers: Optional[int] = None
    job_size: int = 3
    execution: str = "simulate"
    timeout: Optional[float] = None
    samples: int = 1000
    seed: int = 0
    confidence: float = 0.95
    kernel: Optional[str] = None
    listen: Optional[str] = None
    evidence: Tuple[tuple, ...] = ()


Runner = Callable[
    [EventNetwork, VariablePool, Optional[Sequence[str]], SchemeOptions],
    CompilationResult,
]


@dataclass(frozen=True)
class SchemeSpec:
    """One registered scheme: a name, a runner, and its capabilities."""

    name: str
    runner: Runner
    capabilities: FrozenSet[str]
    description: str = ""

    def has(self, capability: str) -> bool:
        return capability in self.capabilities


_REGISTRY: Dict[str, SchemeSpec] = {}
_builtins_loaded = False


def _ensure_builtins() -> None:
    global _builtins_loaded
    if not _builtins_loaded:
        # Guard against re-entrancy during the import, but reset on
        # failure so the root-cause import error resurfaces on retry
        # instead of a misleading near-empty registry.
        _builtins_loaded = True
        try:
            from . import schemes

            schemes.register_builtins()
        except BaseException:
            _builtins_loaded = False
            raise


def register_scheme(
    name: str,
    runner: Optional[Runner] = None,
    *,
    capabilities: Iterable[str] = (),
    description: str = "",
    replace: bool = False,
):
    """Register a scheme (usable directly or as a decorator).

    ``capabilities`` must be drawn from :data:`CAPABILITIES`.  Duplicate
    names raise unless ``replace=True`` — re-registration is explicit,
    not accidental.
    """
    caps = frozenset(capabilities)
    unknown = caps - CAPABILITIES
    if unknown:
        raise ValueError(f"unknown capabilities {sorted(unknown)!r}")

    def _register(func: Runner) -> Runner:
        if not replace and name in _REGISTRY:
            raise ValueError(f"scheme {name!r} is already registered")
        _REGISTRY[name] = SchemeSpec(
            name=name,
            runner=func,
            capabilities=caps,
            description=description or (func.__doc__ or "").strip().split("\n")[0],
        )
        return func

    if runner is not None:
        return _register(runner)
    return _register


def unregister_scheme(name: str) -> None:
    # Load the built-ins first: unregistering e.g. "naive" before any
    # lookup must actually remove it, not pop from an empty registry
    # that the next lookup silently repopulates.
    _ensure_builtins()
    _REGISTRY.pop(name, None)


def reset_registry() -> None:
    """Restore the registry to its built-ins-only state.

    Drops every plugin and re-registers the built-ins, recovering any
    built-in removed with :func:`unregister_scheme` — without this, a
    dropped built-in would be lost for the rest of the process because
    the lazy-load flag stays set.
    """
    global _builtins_loaded
    _REGISTRY.clear()
    _builtins_loaded = False
    _ensure_builtins()


def get_scheme(name: str) -> SchemeSpec:
    """Look up a scheme; raises ``ValueError`` for unknown names."""
    _ensure_builtins()
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValueError(
            f"unknown scheme {name!r}; expected one of {available_schemes()}"
        )
    return spec


def available_schemes(capability: Optional[str] = None) -> Tuple[str, ...]:
    """Registered scheme names (optionally filtered by capability).

    An unknown ``capability`` raises ``ValueError`` (matching
    :func:`register_scheme`) instead of silently matching nothing.
    """
    if capability is not None and capability not in CAPABILITIES:
        raise ValueError(
            f"unknown capability {capability!r}; "
            f"expected one of {sorted(CAPABILITIES)}"
        )
    _ensure_builtins()
    names = (
        name
        for name, spec in _REGISTRY.items()
        if capability is None or spec.has(capability)
    )
    return tuple(sorted(names))


def has_capability(name: str, capability: str) -> bool:
    return get_scheme(name).has(capability)


def scheme_capabilities(name: str) -> FrozenSet[str]:
    return get_scheme(name).capabilities


def normalise_options(
    name: str,
    *,
    epsilon: float = 0.0,
    order: "str | Sequence[int]" = "frequency",
    ordering: "str | Sequence[int] | None" = None,
    workers: Optional[int] = None,
    job_size: int = 3,
    execution: str = "simulate",
    timeout: Optional[float] = None,
    samples: int = 1000,
    seed: int = 0,
    confidence: float = 0.95,
    kernel: Optional[str] = None,
    listen: Optional[str] = None,
    evidence=None,
) -> SchemeOptions:
    """Normalise run options against the named scheme's capabilities.

    This is the canonicalisation half of :func:`run_scheme`, exposed so
    callers that *key* on options — the service layer's artifact cache
    hashes the normalised form, so e.g. ``exact`` requests with
    different ``epsilon`` or ``seed`` values share one cache entry —
    see exactly what the runner will see.

    Options irrelevant to the chosen scheme are normalised away rather
    than rejected: ``epsilon`` is zeroed for schemes without the
    ``epsilon`` capability; ``samples``/``seed``/``confidence`` revert
    to their defaults for schemes without the ``statistical``
    capability; ``workers`` is dropped for schemes that are not
    ``distributed``-capable — and with it ``execution``, which reverts
    to ``"simulate"``, as does ``listen`` to ``None`` unless the run is
    ``execution="process"`` — and ``timeout`` is dropped for schemes
    without the ``timeout`` capability (matching the historical facade
    behaviour where e.g. ``naive`` ignored ``workers``), *except* for
    distributed runs, where it bounds the whole run in process mode (a
    wedged worker must not hang the caller).  ``ordering`` is an
    explicit alias for ``order`` (it wins when both are given) so
    callers can name the variable-ordering strategy without shadowing
    more generic ``order`` keywords of their own.  ``kernel`` (an
    evaluator tier name) is validated against
    :data:`repro.engine.kernels.KERNEL_NAMES` and dropped for schemes
    without the ``kernel`` capability.  ``evidence`` is canonicalised
    through :func:`normalise_evidence` (malformed entries raise) and
    dropped to ``()`` for schemes without the ``evidence`` capability.

    Values are checked for type and range whether or not the scheme
    uses them (``ValueError``; a bool is never a number here):
    ``workers`` (unless ``None``), ``job_size`` and ``samples`` are
    ints >= 1, ``timeout`` is ``None`` or finite and > 0,
    ``0.5 < confidence < 1``, and ``epsilon`` is finite and >= 0
    (whether an epsilon scheme accepts 0 is its own business:
    ``lazy-cond`` falls back to exact, ``hybrid`` raises).
    """
    spec = get_scheme(name)
    for option, value, valid, rule in (
        ("workers", workers, workers is None or _count(workers),
         "None or an int >= 1"),
        ("job_size", job_size, _count(job_size), "an int >= 1"),
        ("samples", samples, _count(samples), "an int >= 1"),
        ("timeout", timeout,
         timeout is None or _number(timeout) and 0.0 < timeout < math.inf,
         "None or a finite number > 0"),
        ("confidence", confidence,
         _number(confidence) and 0.5 < confidence < 1.0,
         "a number in (0.5, 1)"),
        ("epsilon", epsilon,
         _number(epsilon) and 0.0 <= epsilon < math.inf,
         "a finite number >= 0"),
    ):
        if not valid:
            raise ValueError(f"{option} must be {rule}, got {value!r}")
    canonical_evidence = normalise_evidence(evidence)
    if kernel is not None:
        from .kernels import KERNEL_NAMES

        if kernel not in KERNEL_NAMES:
            raise ValueError(
                f"unknown kernel {kernel!r}; expected one of {KERNEL_NAMES}"
            )
    statistical = spec.has(CAP_STATISTICAL)
    distributed = spec.has(CAP_DISTRIBUTED) and workers is not None
    normalised_execution = execution if distributed else "simulate"
    return SchemeOptions(
        epsilon=float(epsilon) if spec.has(CAP_EPSILON) else 0.0,
        order=order if ordering is None else ordering,
        workers=workers if spec.has(CAP_DISTRIBUTED) else None,
        job_size=job_size,
        execution=normalised_execution,
        timeout=timeout if spec.has(CAP_TIMEOUT) or distributed else None,
        samples=samples if statistical else 1000,
        seed=seed if statistical else 0,
        confidence=float(confidence) if statistical else 0.95,
        kernel=kernel if spec.has(CAP_KERNEL) else None,
        listen=listen if normalised_execution == "process" else None,
        evidence=canonical_evidence if spec.has(CAP_EVIDENCE) else (),
    )


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def run_scheme(
    name: str,
    network: EventNetwork,
    pool: VariablePool,
    targets: Optional[Sequence[str]] = None,
    options: Optional[SchemeOptions] = None,
    **kwargs,
) -> CompilationResult:
    """Dispatch one probability computation through the registry.

    Options come in either spelling — a :class:`SchemeOptions` instance
    via ``options=``, or the keyword options of
    :func:`normalise_options` (which documents how options irrelevant
    to the chosen scheme are normalised away rather than rejected) —
    but not both at once.  Both spellings pass through
    :func:`normalise_options` before reaching the scheme's registered
    runner, so an instance built for one scheme is re-normalised for
    the scheme actually named here.
    """
    spec = get_scheme(name)
    if options is not None:
        if kwargs:
            raise TypeError(
                "pass either a SchemeOptions instance via options= or "
                f"keyword options, not both (got {sorted(kwargs)!r})"
            )
        if not isinstance(options, SchemeOptions):
            raise TypeError(
                f"options must be a SchemeOptions, got {type(options).__name__}"
            )
        kwargs = {
            field.name: getattr(options, field.name)
            for field in fields(SchemeOptions)
        }
    return spec.runner(network, pool, targets, normalise_options(name, **kwargs))

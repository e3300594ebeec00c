"""String-keyed component registries for the declarative experiment API.

Every pluggable piece of an experiment — optimizer, problem, scheduling
policy, step schedule, delay model — registers itself under a short name so that
specs can refer to components as *data* (``"asgd"``, ``"ssp:4"``,
``{"name": "cds", "intensity": 0.6}``) instead of Python objects.

Registration happens at class-definition sites via decorators::

    @register_optimizer("asgd")
    class ASGDRule(UpdateRule): ...

    @register_policy("ssp")
    class SSP(SchedulingPolicy): ...

Every optimizer, synchronous or asynchronous, is registered as its
``UpdateRule`` (a synchronous one mixes in ``BulkSynchronous``) and
constructed from the spec's ``params``; see
:func:`repro.optim.base.build_optimizer`. Every other component spec is
resolved through :meth:`Registry.create`, which accepts three spellings:

- ``"name"`` — zero-argument construction,
- ``"name:value"`` — the token mini-language; the value binds to
  the factory's first parameter (coerced to int/float when possible),
- ``{"name": ..., **params}`` — full keyword construction.

``Registry.create`` can also inject context-dependent defaults (e.g. the
cluster's ``num_workers`` and ``seed`` for delay models) into parameters
the factory accepts but the spec did not provide.

This module deliberately imports nothing from the rest of the library so
that any module may import the decorators without cycles.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Mapping

from repro.errors import ApiError

__all__ = [
    "Registry",
    "OPTIMIZERS",
    "PROBLEMS",
    "POLICIES",
    "STEPS",
    "DELAY_MODELS",
    "FAULT_PLANS",
    "COMPRESSORS",
    "register_optimizer",
    "register_problem",
    "register_policy",
    "register_step",
    "register_delay_model",
    "register_fault_plan",
    "register_compressor",
]


def _coerce_token(text: str) -> Any:
    """Parse a mini-language argument: int if possible, else float, else str."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


class Registry:
    """A named mapping from string keys to component factories."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: dict[str, Callable[..., Any]] = {}
        #: alias -> canonical name
        self._aliases: dict[str, str] = {}

    # -- registration -----------------------------------------------------------------
    def register(
        self, name: str, *, aliases: tuple[str, ...] = ()
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator registering a class or factory function under ``name``."""

        def deco(factory: Callable[..., Any]) -> Callable[..., Any]:
            for key in (name, *aliases):
                if key in self._factories or key in self._aliases:
                    raise ApiError(
                        f"{self.kind} {key!r} is already registered"
                    )
            self._factories[name] = factory
            for alias in aliases:
                self._aliases[alias] = name
            return factory

        return deco

    # -- lookup ------------------------------------------------------------------------
    def names(self) -> list[str]:
        return sorted(self._factories)

    def canonical(self, name: str) -> str:
        """Resolve an alias to its registered name (unknown names pass
        through for the caller's own error handling)."""
        return self._aliases.get(name, name)

    def __contains__(self, name: str) -> bool:
        return name in self._factories or name in self._aliases

    def get(self, name: str) -> Callable[..., Any]:
        """Resolve a registered factory, with a helpful error on miss."""
        key = self._aliases.get(name, name)
        try:
            return self._factories[key]
        except KeyError:
            raise ApiError(
                f"unknown {self.kind} {name!r}; available: {self.names()}"
            ) from None

    # -- construction ------------------------------------------------------------------
    def create(
        self,
        spec: Any,
        *,
        defaults: Mapping[str, Any] | None = None,
        expect: type | tuple[type, ...] | None = None,
    ) -> Any:
        """Build a component from a spec (string, token, dict, or instance).

        ``defaults`` supplies context values (by parameter name) injected
        only when the factory accepts them and the spec left them unset.
        An already-built instance of ``expect`` passes through unchanged.
        """
        if expect is not None and isinstance(spec, expect):
            return spec
        if isinstance(spec, str):
            name, _, arg = spec.partition(":")
            params: dict[str, Any] = {}
            factory = self.get(name)
            if arg:
                params[self._first_param(factory, name)] = _coerce_token(arg)
        elif isinstance(spec, Mapping):
            params = dict(spec)
            name = params.pop("name", None)
            if not isinstance(name, str):
                raise ApiError(
                    f"{self.kind} spec {dict(spec)!r} needs a 'name' key"
                )
            factory = self.get(name)
        else:
            raise ApiError(
                f"cannot interpret {spec!r} as a {self.kind} spec "
                "(expected a name, 'name:arg' token, or dict with 'name')"
            )
        if defaults:
            accepted = self._parameters(factory)
            for key, value in defaults.items():
                if key in accepted and key not in params:
                    params[key] = value
        try:
            return factory(**params)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ApiError(
                f"bad parameters for {self.kind} {name!r}: {exc}"
            ) from exc

    # -- signature helpers -------------------------------------------------------------
    @staticmethod
    def _parameters(factory: Callable[..., Any]) -> list[str]:
        sig = inspect.signature(factory)
        return [
            p.name for p in sig.parameters.values()
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        ]

    def _first_param(self, factory: Callable[..., Any], name: str) -> str:
        params = self._parameters(factory)
        if not params:
            raise ApiError(
                f"{self.kind} {name!r} takes no parameters; "
                f"drop the ':' argument"
            )
        return params[0]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Registry({self.kind!r}, {self.names()})"


OPTIMIZERS = Registry("optimizer")
PROBLEMS = Registry("problem")
#: Scheduling policies (the classic barriers ASP/BSP/SSP/...) addressed
#: by a spec's ``policy`` field.
POLICIES = Registry("policy")
STEPS = Registry("step schedule")
DELAY_MODELS = Registry("delay model")
FAULT_PLANS = Registry("fault plan")
COMPRESSORS = Registry("compressor")

register_optimizer = OPTIMIZERS.register
register_problem = PROBLEMS.register
register_policy = POLICIES.register
register_step = STEPS.register
register_delay_model = DELAY_MODELS.register
register_fault_plan = FAULT_PLANS.register
register_compressor = COMPRESSORS.register

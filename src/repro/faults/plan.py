"""Deterministic, seed-derived fault injection.

A :class:`FaultPlan` names *sites* in the codebase (``"engine.flush"``,
``"io.atomic_write"``, ``"worker.trial"``, ...) and attaches an *action*
to each: raise, delay, corrupt the payload, or kill the process.  Code
under test calls :func:`fault_site` at those points; with no plan armed
the hook is a global-read + ``None``-check and returns immediately, so
production paths pay nothing measurable.

Determinism is the whole point — a chaos run must be *replayable*:

* every fire/skip decision is a pure function of ``(plan seed, site,
  key-or-visit-index)`` through SHA-256, never of wall clock, PID, or
  Python hash randomization;
* per-site visit counters are process-local, so a single-threaded
  driver observes the identical fault sequence on every run;
* callers that need cross-process determinism (the autotune worker,
  whose pool processes each hold their own counters) pass an explicit
  ``key`` — the decision then depends only on the key, and bounded
  retries are expressed as keys like ``"3:0"`` (trial 3, attempt 0)
  that simply stop matching on the retry.

Plans cross process boundaries through the ``REPRO_FAULT_PLAN``
environment variable (inline JSON, or a path to a JSON file), which
``multiprocessing`` workers inherit under fork *and* spawn:
:func:`arm` exports it by default, and this module re-arms from the
environment on import.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: environment variable carrying the armed plan (inline JSON or a path)
PLAN_ENV_VAR = "REPRO_FAULT_PLAN"

#: process exit code used by the ``kill`` action, distinctive on purpose
#: so a chaos harness can tell an injected death from a genuine crash
KILL_EXIT_CODE = 23

_ACTIONS = ("raise", "delay", "corrupt", "kill")


class FaultInjected(RuntimeError):
    """Raised by the ``raise`` action (and never by anything else)."""


def _hash_unit(seed: int, site: str, token: str) -> float:
    """A uniform [0, 1) draw, pure in (seed, site, token)."""
    digest = hashlib.sha256(
        f"{seed}|{site}|{token}".encode()).digest()
    return int.from_bytes(digest[:7], "big") / float(1 << 56)


@dataclass(frozen=True)
class FaultRule:
    """One site's behaviour inside a :class:`FaultPlan`.

    ``probability`` gates each visit through the seed-derived hash;
    ``after`` skips the first N visits; ``max_hits`` caps how many times
    the rule fires (both counted per process).  ``keys`` restricts the
    rule to visits carrying a matching explicit key — the cross-process
    deterministic mode.
    """

    site: str
    action: str = "raise"            #: raise | delay | corrupt | kill
    probability: float = 1.0
    latency_ms: float = 0.0          #: sleep for the ``delay`` action
    after: int = 0                   #: skip the first N visits
    max_hits: Optional[int] = None   #: stop firing after N hits
    keys: Optional[Tuple[str, ...]] = None  #: explicit key matches only
    message: str = ""                #: extra text for raised faults

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r} "
                             f"(choose from {_ACTIONS})")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.latency_ms < 0:
            raise ValueError("latency_ms must be >= 0")

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"site": self.site, "action": self.action,
                               "probability": self.probability}
        if self.latency_ms:
            out["latency_ms"] = self.latency_ms
        if self.after:
            out["after"] = self.after
        if self.max_hits is not None:
            out["max_hits"] = self.max_hits
        if self.keys is not None:
            out["keys"] = list(self.keys)
        if self.message:
            out["message"] = self.message
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultRule":
        keys = payload.get("keys")
        return cls(
            site=str(payload["site"]),
            action=str(payload.get("action", "raise")),
            probability=float(payload.get("probability", 1.0)),
            latency_ms=float(payload.get("latency_ms", 0.0)),
            after=int(payload.get("after", 0)),
            max_hits=(None if payload.get("max_hits") is None
                      else int(payload["max_hits"])),
            keys=None if keys is None else tuple(str(k) for k in keys),
            message=str(payload.get("message", "")),
        )


@dataclass
class _SiteState:
    visits: int = 0
    hits: int = 0


class FaultPlan:
    """A seed plus the rules for every instrumented site."""

    def __init__(self, rules: Iterable[FaultRule], seed: int = 0) -> None:
        self.seed = int(seed)
        self.rules: List[FaultRule] = list(rules)
        self._by_site: Dict[str, List[FaultRule]] = {}
        for rule in self.rules:
            self._by_site.setdefault(rule.site, []).append(rule)
        self._state: Dict[int, _SiteState] = {}
        self._lock = threading.Lock()

    # -- construction ---------------------------------------------------
    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        rules = [FaultRule.from_dict(entry)
                 for entry in payload.get("rules", [])]
        return cls(rules, seed=int(payload.get("seed", 0)))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed,
                "rules": [rule.to_dict() for rule in self.rules]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    # -- bookkeeping ----------------------------------------------------
    def sites(self) -> List[str]:
        return sorted(self._by_site)

    def counters(self) -> Dict[str, Dict[str, int]]:
        """Per-rule visit/hit counts (for chaos-report accounting)."""
        with self._lock:
            return {f"{rule.site}#{index}": {
                        "visits": self._state.get(index, _SiteState()).visits,
                        "hits": self._state.get(index, _SiteState()).hits}
                    for index, rule in enumerate(self.rules)}

    # -- the decision ---------------------------------------------------
    def _decide(self, rule: FaultRule, index: int,
                key: Optional[str]) -> bool:
        """One visit through ``rule``; True → the rule fires.

        Holds the lock only for counter updates; the hash draw is pure.
        """
        with self._lock:
            state = self._state.setdefault(index, _SiteState())
            state.visits += 1
            visit = state.visits
            if rule.max_hits is not None and state.hits >= rule.max_hits:
                return False
        if visit <= rule.after:
            return False
        if rule.keys is not None:
            if key is None or key not in rule.keys:
                return False
        token = key if key is not None else f"visit{visit}"
        if rule.probability < 1.0:
            if _hash_unit(self.seed, rule.site, token) >= rule.probability:
                return False
        with self._lock:
            state = self._state[index]
            if rule.max_hits is not None and state.hits >= rule.max_hits:
                return False
            state.hits += 1
        return True

    def visit(self, site: str, payload: Any = None,
              key: Optional[str] = None) -> Any:
        """Apply every matching rule for one pass through ``site``."""
        rules = self._by_site.get(site)
        if not rules:
            return payload
        for index, rule in enumerate(self.rules):
            if rule.site != site or not self._decide(rule, index, key):
                continue
            _count_injection(site, rule.action)
            if rule.action == "delay":
                time.sleep(rule.latency_ms / 1e3)
            elif rule.action == "corrupt":
                payload = self._corrupt(rule, payload, key)
            elif rule.action == "kill":
                # simulate kill -9: no atexit, no finally blocks, no
                # flushing — exactly what a chaos harness needs to prove
                # crash-safety of the writers upstream
                os._exit(KILL_EXIT_CODE)
            else:
                raise FaultInjected(
                    f"injected fault at {site!r}"
                    + (f" (key={key})" if key is not None else "")
                    + (f": {rule.message}" if rule.message else ""))
        return payload

    def _corrupt(self, rule: FaultRule, payload: Any,
                 key: Optional[str]) -> Any:
        """Deterministically flip bytes in a bytes-like payload."""
        if payload is None:
            raise FaultInjected(
                f"corrupt action at {rule.site!r} got no payload")
        data = bytearray(payload)
        if not data:
            return bytes(data)
        token = key if key is not None else "corrupt"
        # flip 8 deterministic positions (fewer for tiny payloads)
        for flip in range(min(8, len(data))):
            unit = _hash_unit(self.seed, rule.site, f"{token}|{flip}")
            position = int(unit * len(data))
            data[position] ^= 0xFF
        return bytes(data)


# ---------------------------------------------------------------------------
# The armed-plan singleton and the fault_site hook
# ---------------------------------------------------------------------------
_PLAN: Optional[FaultPlan] = None
_counter = None  # lazy: telemetry import kept out of the hot no-op path


def _count_injection(site: str, action: str) -> None:
    global _counter
    if _counter is None:
        from ..telemetry import get_registry
        _counter = get_registry().counter(
            "fault_injections_total", "Faults fired by the armed plan",
            labels=("site", "action"))
    _counter.inc(site=site, action=action)


def fault_site(site: str, payload: Any = None,
               key: Optional[str] = None) -> Any:
    """The injection hook.  Compiles down to a no-op when disarmed.

    Returns ``payload`` (possibly corrupted by a ``corrupt`` rule);
    ``raise`` rules raise :class:`FaultInjected`, ``delay`` rules sleep,
    ``kill`` rules terminate the process with :data:`KILL_EXIT_CODE`.
    """
    plan = _PLAN
    if plan is None:
        return payload
    return plan.visit(site, payload, key=key)


def is_armed() -> bool:
    return _PLAN is not None


def arm(plan: FaultPlan, export_env: bool = True) -> FaultPlan:
    """Arm ``plan`` process-wide; ``export_env`` ships it to children."""
    global _PLAN
    _PLAN = plan
    if export_env:
        os.environ[PLAN_ENV_VAR] = plan.to_json()
    return plan


@contextlib.contextmanager
def armed(plan: FaultPlan, export_env: bool = True):
    """Scoped arming (tests); restores the previous plan and env var."""
    global _PLAN
    previous_plan = _PLAN
    previous_env = os.environ.get(PLAN_ENV_VAR)
    try:
        yield arm(plan, export_env=export_env)
    finally:
        _PLAN = previous_plan
        if previous_env is None:
            os.environ.pop(PLAN_ENV_VAR, None)
        else:
            os.environ[PLAN_ENV_VAR] = previous_env


def plan_from_env() -> Optional[FaultPlan]:
    """Parse :data:`PLAN_ENV_VAR` (inline JSON, or a path to JSON)."""
    raw = os.environ.get(PLAN_ENV_VAR, "").strip()
    if not raw:
        return None
    if raw.startswith("{"):
        return FaultPlan.from_json(raw)
    return FaultPlan.load(raw)


def arm_from_env() -> Optional[FaultPlan]:
    """Arm the environment's plan, if any (workers inherit plans here)."""
    plan = plan_from_env()
    if plan is not None:
        global _PLAN
        _PLAN = plan
    return plan


# a spawned/forked worker re-imports this module with the parent's
# environment: the plan follows the process tree with no plumbing
arm_from_env()


__all__ = [
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "KILL_EXIT_CODE",
    "PLAN_ENV_VAR",
    "arm",
    "arm_from_env",
    "armed",
    "fault_site",
    "is_armed",
    "plan_from_env",
]

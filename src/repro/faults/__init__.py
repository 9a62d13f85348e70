"""``repro.faults`` — deterministic, seed-derived fault injection.

The chaos substrate the robustness guarantees are *proved* with: a
:class:`FaultPlan` arms named sites (raise / delay / corrupt / kill)
whose fire decisions are pure functions of the plan seed, and
:func:`fault_site` hooks compiled down to a no-op when nothing is armed.
Plans propagate to subprocess workers through ``REPRO_FAULT_PLAN``.

Instrumented sites (see docs/ROBUSTNESS.md for the full table):

========================  ==================================================
``engine.flush``          entry of every engine lookup call
``engine.forward``        before the answer-table forward at engine load
``onboard.apply``         inside an onboard, before the WAL append
``io.atomic_write``       payload bytes of every atomic artifact write
``journal.append``        every fsync'd JSONL line (journal + WAL)
``worker.trial``          trial execution body (keys ``"<trial>:<attempt>"``)
``scheduler.batch``       scheduler batch dispatch
========================  ==================================================
"""

from .plan import (
    KILL_EXIT_CODE,
    PLAN_ENV_VAR,
    FaultInjected,
    FaultPlan,
    FaultRule,
    arm,
    arm_from_env,
    armed,
    fault_site,
    is_armed,
    plan_from_env,
)

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

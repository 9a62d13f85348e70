"""Pluggable trial-based search strategies behind one ask/tell interface.

A :class:`Strategy` proposes batches of :class:`~repro.autotune.Trial`\\ s
(``ask``) and digests finished :class:`~repro.autotune.TrialResult`\\ s
(``tell``).  The scheduler runs each batch to completion — possibly in
parallel — and tells the results back **in trial-id order**, so a
strategy's decisions depend only on ``(seed, told history)``, never on
worker count or completion order.  That contract is what makes parallel
runs, reruns and journal resumes produce identical leaderboards.

Registered strategies (``repro strategies`` lists them):

* ``random``     — independent uniform op-vectors at full budget;
* ``evolution``  — regularized evolution (tournament-select, mutate one
  slot, age out the oldest) over the discrete op-assignment space;
* ``asha``       — successive halving: rungs of geometrically growing
  epoch budgets, the top ``1/eta`` of each rung promoted to the next;
* ``darts``      — the paper's one-shot differentiable search, wrapped
  as a single trial (the baseline every trial-based run is judged by);
* ``grid``       — an explicit list of search-config overrides, one
  one-shot trial each (the paper's sensitivity sweeps, Figs. 8–11).

The registry mirrors ``repro.models.registry``: factories keyed by name,
``build_strategy`` raising a clear ``ValueError`` for unknown names.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..training import derive_seed
from .trial import Trial, TrialResult


class Strategy:
    """Base ask/tell strategy over op-vector space.

    Subclasses implement :meth:`ask` (next batch of trials; empty list →
    done) and may extend :meth:`tell`.  Trial ids are handed out by the
    base class in ask order and each trial's seed is pre-derived as
    ``derive_seed(seed, trial_id)`` — see :mod:`repro.training.seed`.
    """

    name: str = "base"

    def __init__(self, num_slots: int, num_ops: int, max_budget: int,
                 seed: int = 0) -> None:
        if num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        if num_ops < 1:
            raise ValueError("num_ops must be >= 1")
        if max_budget < 1:
            raise ValueError("max_budget must be >= 1")
        self.num_slots = int(num_slots)
        self.num_ops = int(num_ops)
        self.max_budget = int(max_budget)
        self.seed = int(seed)
        self.rng = np.random.default_rng(derive_seed(seed, 0x5712a))
        self.results: Dict[int, TrialResult] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    def _new_trial(self, ops: Optional[Sequence[int]],
                   budget: Optional[int], rung: int = 0,
                   parent_id: Optional[int] = None,
                   params: Optional[Dict[str, Any]] = None,
                   seed: Optional[int] = None) -> Trial:
        trial_id = self._next_id
        self._next_id += 1
        return Trial(
            trial_id=trial_id,
            budget=budget,
            seed=derive_seed(self.seed, trial_id) if seed is None else seed,
            ops=None if ops is None else [int(o) for o in ops],
            rung=rung,
            parent_id=parent_id,
            params=dict(params or {}),
        )

    def _random_ops(self) -> List[int]:
        return [int(o) for o in
                self.rng.integers(0, self.num_ops, size=self.num_slots)]

    # ------------------------------------------------------------------
    def ask(self) -> List[Trial]:
        """Next batch of trials to run; ``[]`` means the search is done."""
        raise NotImplementedError

    def tell(self, trial: Trial, result: TrialResult) -> None:
        """Digest one finished trial (called in trial-id order)."""
        self.results[trial.trial_id] = result

    def fingerprint(self) -> Dict[str, Any]:
        """JSON-able identity for the journal header (resume validation)."""
        return {"strategy": self.name, "num_slots": self.num_slots,
                "num_ops": self.num_ops, "max_budget": self.max_budget,
                "seed": self.seed, **self.params()}

    def params(self) -> Dict[str, Any]:
        """Strategy-specific knobs (merged into the fingerprint)."""
        return {}


class RandomSearch(Strategy):
    """Uniform random op-vectors, each evaluated at full budget.

    The budget-matched baseline every smarter strategy must beat — and,
    per the related NAS repo, a surprisingly strong one.
    """

    name = "random"

    def __init__(self, num_slots: int, num_ops: int, max_budget: int,
                 seed: int = 0, num_trials: int = 16,
                 budget: Optional[int] = None) -> None:
        super().__init__(num_slots, num_ops, max_budget, seed=seed)
        if num_trials < 1:
            raise ValueError("num_trials must be >= 1")
        self.num_trials = int(num_trials)
        self.budget = int(budget) if budget is not None else self.max_budget
        self._asked = False

    def ask(self) -> List[Trial]:
        if self._asked:
            return []
        self._asked = True
        return [self._new_trial(self._random_ops(), self.budget)
                for _ in range(self.num_trials)]

    def params(self) -> Dict[str, Any]:
        return {"num_trials": self.num_trials, "budget": self.budget}


class RegularizedEvolution(Strategy):
    """Aging evolution over discrete op-assignments (Real et al., 2019).

    Seeds a random population, then repeatedly: tournament-sample
    ``sample_size`` members, mutate the winner in one random slot, and
    age out the oldest member.  Children are produced ``batch_size`` at a
    time so the scheduler can evaluate them in parallel; each batch's
    parents are drawn from the population *before* the batch runs, which
    keeps the trial stream deterministic.
    """

    name = "evolution"

    def __init__(self, num_slots: int, num_ops: int, max_budget: int,
                 seed: int = 0, num_trials: int = 24,
                 population_size: int = 8, sample_size: int = 3,
                 batch_size: int = 4, budget: Optional[int] = None) -> None:
        super().__init__(num_slots, num_ops, max_budget, seed=seed)
        if population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 1 <= sample_size <= population_size:
            raise ValueError("sample_size must be in [1, population_size]")
        if num_trials < population_size:
            raise ValueError("num_trials must cover the initial population")
        self.num_trials = int(num_trials)
        self.population_size = int(population_size)
        self.sample_size = int(sample_size)
        self.batch_size = max(1, int(batch_size))
        self.budget = int(budget) if budget is not None else self.max_budget
        #: (trial_id, ops, score) in tell order — the aging queue
        self.population: List[tuple] = []

    def _mutate(self, ops: List[int]) -> List[int]:
        child = list(ops)
        slot = int(self.rng.integers(0, self.num_slots))
        if self.num_ops > 1:
            shift = int(self.rng.integers(1, self.num_ops))
            child[slot] = (child[slot] + shift) % self.num_ops
        return child

    def ask(self) -> List[Trial]:
        remaining = self.num_trials - self._next_id
        if remaining <= 0:
            return []
        if self._next_id == 0:
            count = min(self.population_size, remaining)
            return [self._new_trial(self._random_ops(), self.budget)
                    for _ in range(count)]
        if not self.population:
            # every seed trial failed; fall back to fresh random trials
            count = min(self.batch_size, remaining)
            return [self._new_trial(self._random_ops(), self.budget)
                    for _ in range(count)]
        batch = []
        for _ in range(min(self.batch_size, remaining)):
            picks = self.rng.choice(len(self.population),
                                    size=min(self.sample_size,
                                             len(self.population)),
                                    replace=False)
            parent = max((self.population[int(i)] for i in picks),
                         key=lambda entry: (entry[2], -entry[0]))
            batch.append(self._new_trial(self._mutate(parent[1]), self.budget,
                                         parent_id=parent[0]))
        return batch

    def tell(self, trial: Trial, result: TrialResult) -> None:
        super().tell(trial, result)
        if result.failed:
            return
        self.population.append((trial.trial_id, list(trial.ops),
                                float(result.score)))
        if len(self.population) > self.population_size:
            self.population.pop(0)  # age out the oldest

    def params(self) -> Dict[str, Any]:
        return {"num_trials": self.num_trials,
                "population_size": self.population_size,
                "sample_size": self.sample_size,
                "batch_size": self.batch_size, "budget": self.budget}


class SuccessiveHalving(Strategy):
    """Successive halving with geometric rung budgets (ASHA-style).

    ``num_trials`` random op-vectors start at ``min_budget`` epochs; after
    each rung completes, the top ``1/eta`` (deterministic score-then-id
    ranking) are re-evaluated at ``eta×`` the budget, until one rung runs
    at ``max_budget``.  Promotions reuse the parent trial's seed, so a
    promotion differs from its parent *only* in budget — the clean
    early-stopping semantics the speedup benchmark measures.
    """

    name = "asha"

    def __init__(self, num_slots: int, num_ops: int, max_budget: int,
                 seed: int = 0, num_trials: int = 8, eta: int = 2,
                 min_budget: Optional[int] = None) -> None:
        super().__init__(num_slots, num_ops, max_budget, seed=seed)
        if eta < 2:
            raise ValueError("eta must be >= 2")
        if num_trials < 1:
            raise ValueError("num_trials must be >= 1")
        self.eta = int(eta)
        self.num_trials = int(num_trials)
        if min_budget is None:
            # deepest geometric ladder that still starts at >= 1 epoch
            rungs = max(1, int(math.floor(math.log(max_budget, self.eta))))
            min_budget = max(1, max_budget // (self.eta ** rungs))
        if not 1 <= min_budget <= max_budget:
            raise ValueError("min_budget must be in [1, max_budget]")
        self.min_budget = int(min_budget)
        # divide down from max_budget so the ladder ends *exactly* at the
        # full budget (multiplying up from min_budget would append a
        # near-duplicate top rung whenever eta^k misses max_budget)
        ladder = [self.max_budget]
        while ladder[-1] // self.eta >= self.min_budget and \
                ladder[-1] // self.eta < ladder[-1]:
            ladder.append(ladder[-1] // self.eta)
        if ladder[-1] > self.min_budget:
            ladder.append(self.min_budget)
        self.budgets: List[int] = list(reversed(ladder))
        self._rung = 0
        self._pending: Dict[int, Trial] = {}
        self._rung_done: List[tuple] = []  # (trial from this rung, result)

    def ask(self) -> List[Trial]:
        if self._rung >= len(self.budgets):
            return []
        if self._pending:  # previous rung still in flight
            return []
        if self._rung == 0 and not self._rung_done:
            batch = [self._new_trial(self._random_ops(), self.budgets[0],
                                     rung=0)
                     for _ in range(self.num_trials)]
        else:
            survivors = [entry for entry in self._rung_done
                         if not entry[1].failed]
            if not survivors:
                self._rung = len(self.budgets)
                return []
            survivors.sort(key=lambda entry: (-entry[1].score,
                                              entry[0].trial_id))
            keep = max(1, len(self._rung_done) // self.eta)
            batch = [self._new_trial(parent.ops, self.budgets[self._rung],
                                     rung=self._rung,
                                     parent_id=parent.trial_id,
                                     seed=parent.seed)
                     for parent, _ in survivors[:keep]]
        self._rung_done = []
        self._pending = {t.trial_id: t for t in batch}
        return batch

    def tell(self, trial: Trial, result: TrialResult) -> None:
        super().tell(trial, result)
        self._pending.pop(trial.trial_id, None)
        self._rung_done.append((trial, result))
        if not self._pending:
            self._rung += 1

    def params(self) -> Dict[str, Any]:
        return {"num_trials": self.num_trials, "eta": self.eta,
                "min_budget": self.min_budget, "budgets": self.budgets}


class OneShotDARTS(Strategy):
    """The paper's one-shot bi-level search as a single-trial strategy.

    Folding AutoAC proper behind the ask/tell interface means the same
    scheduler, journal and leaderboard serve both worlds — and the
    speedup benchmark can compare them on equal footing.
    """

    name = "darts"

    def __init__(self, num_slots: int, num_ops: int, max_budget: int,
                 seed: int = 0,
                 overrides: Optional[Mapping[str, Any]] = None) -> None:
        super().__init__(num_slots, num_ops, max_budget, seed=seed)
        self.overrides = dict(overrides or {})
        self._asked = False

    def ask(self) -> List[Trial]:
        if self._asked:
            return []
        self._asked = True
        params = {"overrides": self.overrides} if self.overrides else {}
        return [self._new_trial(None, None, params=params, seed=self.seed)]

    def params(self) -> Dict[str, Any]:
        return {"overrides": self.overrides}


class GridSearch(Strategy):
    """One one-shot trial per explicit search-config override set.

    Reimplements the paper's sensitivity sweeps (cluster count M,
    lambda, alpha lr/wd — Figs. 8–11) on the scheduler: every grid point
    runs the full search+retrain with ``values[i]`` applied on top of the
    task's search config.  All trials share the *base* seed (not a
    derived one) so a grid point reproduces the equivalent sequential
    ``train_autoac(..., **overrides)`` call bit for bit.
    """

    name = "grid"

    def __init__(self, num_slots: int, num_ops: int, max_budget: int,
                 seed: int = 0,
                 values: Sequence[Mapping[str, Any]] = ()) -> None:
        super().__init__(num_slots, num_ops, max_budget, seed=seed)
        if not values:
            raise ValueError("grid search needs a non-empty values list")
        self.values = [dict(v) for v in values]
        self._asked = False

    def ask(self) -> List[Trial]:
        if self._asked:
            return []
        self._asked = True
        return [self._new_trial(None, None,
                                params={"overrides": overrides},
                                seed=self.seed)
                for overrides in self.values]

    def params(self) -> Dict[str, Any]:
        return {"values": self.values}


# ----------------------------------------------------------------------
# registry (mirrors repro.models.registry)
# ----------------------------------------------------------------------

STRATEGY_REGISTRY: Dict[str, Callable[..., Strategy]] = {}


def register_strategy(name: str, factory: Callable[..., Strategy],
                      overwrite: bool = False) -> None:
    """Register a strategy factory under ``name``.

    ``factory(num_slots=..., num_ops=..., max_budget=..., seed=...,
    **kwargs) -> Strategy``.
    """
    if name in STRATEGY_REGISTRY and not overwrite:
        raise ValueError(f"strategy {name!r} already registered")
    STRATEGY_REGISTRY[name] = factory


def available_strategies() -> List[str]:
    return sorted(STRATEGY_REGISTRY)


def build_strategy(name: str, num_slots: int, num_ops: int, max_budget: int,
                   seed: int = 0, **kwargs) -> Strategy:
    """Instantiate a registered strategy; unknown names raise ValueError."""
    key = str(name).lower()
    if key not in STRATEGY_REGISTRY:
        raise ValueError(f"unknown strategy {name!r}; "
                         f"available: {available_strategies()}")
    return STRATEGY_REGISTRY[key](num_slots=num_slots, num_ops=num_ops,
                                  max_budget=max_budget, seed=seed, **kwargs)


register_strategy(RandomSearch.name, RandomSearch)
register_strategy(RegularizedEvolution.name, RegularizedEvolution)
register_strategy(SuccessiveHalving.name, SuccessiveHalving)
register_strategy(OneShotDARTS.name, OneShotDARTS)
register_strategy(GridSearch.name, GridSearch)


__all__ = [
    "Strategy",
    "RandomSearch",
    "RegularizedEvolution",
    "SuccessiveHalving",
    "OneShotDARTS",
    "GridSearch",
    "STRATEGY_REGISTRY",
    "register_strategy",
    "available_strategies",
    "build_strategy",
]

"""The completion parameters ``alpha`` (paper §IV-B/C).

``alpha`` is an ``(M, |O|)`` matrix — one row per cluster (or per V⁻ node
when clustering is disabled), one column per candidate completion op.  Two
regimes:

* **discrete** (AutoAC proper): raw numpy values kept inside the ``[0,1]``
  box; the one-hot projection ``prox_C1`` is used in every forward pass and
  gradients are taken at the projected point (NASP-style);
* **mixture** (the "w/o discrete constraints" ablation): a softmax over a
  free tensor parameter, DARTS-style.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor, softmax
from .proximal import prox_c1, proximal_step


class CompletionParameters:
    """Box-constrained ``alpha`` with proximal Adam updates (discrete regime).

    The paper optimizes ``alpha`` with Adam (§V-B); the proximal machinery
    wraps it: gradients are taken at the one-hot projection ``prox_C1`` and
    the Adam step is followed by the box projection ``prox_C2``.
    """

    def __init__(self, num_rows: int, num_ops: int,
                 rng: Optional[np.random.Generator] = None,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8) -> None:
        if num_rows < 1 or num_ops < 1:
            raise ValueError("alpha must have at least one row and one op")
        rng = rng or np.random.default_rng(0)
        # small jitter around the box center breaks argmax ties randomly
        self.values = 0.5 + 0.01 * rng.standard_normal((num_rows, num_ops))
        self.values = np.clip(self.values, 0.0, 1.0)
        self.num_rows = num_rows
        self.num_ops = num_ops
        self._beta1, self._beta2 = betas
        self._eps = eps
        self._m = np.zeros_like(self.values)
        self._v = np.zeros_like(self.values)
        self._t = 0

    # ------------------------------------------------------------------
    def discrete(self) -> np.ndarray:
        """One-hot rows at the current argmax (``prox_C1``)."""
        return prox_c1(self.values)

    def update(self, grad: np.ndarray, lr: float,
               weight_decay: float = 0.0) -> None:
        """Algorithm 1 line 4: Adam step at the discrete point, project to box."""
        if grad.shape != self.values.shape:
            raise ValueError(f"grad shape {grad.shape} != alpha shape "
                             f"{self.values.shape}")
        grad = grad + weight_decay * self.values
        self._t += 1
        self._m = self._beta1 * self._m + (1.0 - self._beta1) * grad
        self._v = self._beta2 * self._v + (1.0 - self._beta2) * grad * grad
        m_hat = self._m / (1.0 - self._beta1 ** self._t)
        v_hat = self._v / (1.0 - self._beta2 ** self._t)
        step = m_hat / (np.sqrt(v_hat) + self._eps)
        self.values = proximal_step(self.values, step, lr, weight_decay=0.0)

    def chosen_ops(self) -> np.ndarray:
        """Argmax op index per row."""
        return self.values.argmax(axis=1)

    def __repr__(self) -> str:
        return (f"CompletionParameters(rows={self.num_rows}, "
                f"ops={self.num_ops})")


class MixtureParameters:
    """Softmax-relaxed ``alpha`` (the DARTS-style ablation regime)."""

    def __init__(self, num_rows: int, num_ops: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        rng = rng or np.random.default_rng(0)
        self.logits = Tensor(1e-2 * rng.standard_normal((num_rows, num_ops)),
                             requires_grad=True)
        self.num_rows = num_rows
        self.num_ops = num_ops

    def weights(self) -> Tensor:
        """Softmax mixture weights over ops, one row per cluster."""
        return softmax(self.logits, axis=-1)

    def chosen_ops(self) -> np.ndarray:
        """Argmax op index per cluster (discretization of the mixture)."""
        return self.logits.data.argmax(axis=1)


__all__ = ["CompletionParameters", "MixtureParameters"]

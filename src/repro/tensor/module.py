"""Minimal ``nn.Module``-style containers for the autograd engine."""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from . import init
from .functional import addmm as addmm_fn
from .functional import dropout as dropout_fn
from .functional import layer_norm as layer_norm_fn
from .tensor import Tensor


class Parameter(Tensor):
    """A tensor registered as a trainable model weight."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class providing parameter registration and train/eval modes."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        """Compute the module output; subclasses must override."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """Every trainable :class:`Parameter` of this module tree."""
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant, depth first."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def zero_grad(self) -> None:
        """Clear the gradients of every parameter in the tree."""
        for param in self.parameters():
            param.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        """Set ``training`` on the whole tree (affects dropout et al.)."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        """Switch the whole tree to inference mode."""
        return self.train(False)

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter array keyed by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load arrays produced by :meth:`state_dict` (strict matching)."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        for name, param in own.items():
            if param.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{param.data.shape} vs {state[name].shape}")
            param.data = state[name].copy()


class ModuleList(Module):
    """An indexable list of submodules."""

    def __init__(self, modules: Optional[Iterable[Module]] = None) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module
        return self

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)


class ModuleDict(Module):
    """A string-keyed mapping of submodules."""

    def __init__(self, modules: Optional[Dict[str, Module]] = None) -> None:
        super().__init__()
        for key, module in (modules or {}).items():
            self[key] = module

    def __setitem__(self, key: str, module: Module) -> None:
        self._modules[key] = module

    def __getitem__(self, key: str) -> Module:
        return self._modules[key]

    def __contains__(self, key: str) -> bool:
        return key in self._modules

    def keys(self):
        return self._modules.keys()

    def values(self):
        return self._modules.values()

    def items(self):
        return self._modules.items()


class Linear(Module):
    """Affine map ``y = x W + b`` with Xavier-uniform initialization."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features)),
                                name="weight")
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if self.bias is not None:
            # single fused node when the fused kernels are enabled;
            # addmm falls back to matmul + add otherwise
            return addmm_fn(x, self.weight, self.bias)
        return x @ self.weight

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class Dropout(Module):
    """Inverted dropout; active only while ``self.training`` is True."""

    def __init__(self, p: float = 0.5) -> None:
        super().__init__()
        self.p = p

    def forward(self, x: Tensor) -> Tensor:
        return dropout_fn(x, self.p, training=self.training)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class LayerNorm(Module):
    """Layer normalization over the last axis with learnable scale/shift."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.weight = Parameter(init.ones((normalized_shape,)), name="weight")
        self.bias = Parameter(init.zeros((normalized_shape,)), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm_fn(x, self.weight, self.bias, eps=self.eps)


class Sequential(Module):
    """Chain of modules applied left to right."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._items: List[Module] = []
        for index, module in enumerate(modules):
            self._items.append(module)
            self._modules[str(index)] = module

    def forward(self, x: Tensor) -> Tensor:
        for module in self._items:
            x = module(x)
        return x

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)


class Embedding(Module):
    """A learnable lookup table of shape ``(num_embeddings, dim)``."""

    def __init__(self, num_embeddings: int, dim: int) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(init.normal((num_embeddings, dim), std=0.1),
                                name="weight")

    def forward(self, index: np.ndarray) -> Tensor:
        from .functional import embedding
        return embedding(self.weight, index)


__all__ = [
    "Parameter",
    "Module",
    "ModuleList",
    "ModuleDict",
    "Linear",
    "Dropout",
    "LayerNorm",
    "Sequential",
    "Embedding",
]

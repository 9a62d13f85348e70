"""``repro.tensor`` — a numpy-backed autograd engine.

This subpackage replaces PyTorch for the AutoAC reproduction: reverse-mode
autodiff (:mod:`.tensor`), NN functional ops (:mod:`.functional`), the CSR
sparse subsystem (:mod:`.sparse` — :class:`SparseTensor` plus the
autograd-aware :func:`spmm`/:func:`weighted_spmm` fast paths), modules
(:mod:`.module`), initializers (:mod:`.init`), optimizers (:mod:`.optim`)
and a finite-difference gradient checker (:mod:`.gradcheck`).

Differentiability note: sparse matrices are always *data* — gradients flow
only through dense operands (and, for :func:`weighted_spmm`, through the
per-edge value tensor); see :mod:`.sparse` for the full contract.

Importing the package keeps the process's freed numpy temporaries on
the heap instead of returning them to the kernel every step
(:mod:`._heap`; glibc only).
"""

from . import functional, init
from ._heap import retain_heap
from .dtype import get_default_dtype, is_fast_dtype, set_default_dtype
from .functional import (
    AttentionLayout,
    addmm,
    binary_cross_entropy_with_logits,
    cross_entropy,
    csr_attention,
    dropout,
    embedding,
    fused_kernels,
    fused_kernels_enabled,
    head_dot,
    l2_normalize,
    log_softmax,
    one_hot,
    segment_softmax,
    set_fused_kernels,
    softmax,
)
from .gradcheck import gradcheck, numerical_gradient
from .module import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    ModuleDict,
    ModuleList,
    Parameter,
    Sequential,
)
from .optim import SGD, Adam, AdamW, Optimizer, clip_grad_norm
from .random import get_rng, manual_seed, random_values
from .sparse import (
    SparseTensor,
    as_sparse_tensor,
    spmm,
    weighted_spmm,
)
from .tensor import (
    Tensor,
    absolute,
    clip,
    concat,
    cos,
    elu,
    ensure_tensor,
    exp,
    gather_rows,
    is_grad_enabled,
    leaky_relu,
    log,
    matmul,
    maximum,
    no_grad,
    place_rows,
    relu,
    scatter_add,
    sigmoid,
    sin,
    sqrt,
    stack,
    tanh,
    where,
)

retain_heap()  # once per process: the package imports once

__all__ = [
    "Tensor",
    "ensure_tensor",
    "no_grad",
    "is_grad_enabled",
    "exp",
    "log",
    "sqrt",
    "cos",
    "sin",
    "tanh",
    "sigmoid",
    "relu",
    "leaky_relu",
    "elu",
    "absolute",
    "clip",
    "maximum",
    "matmul",
    "concat",
    "stack",
    "where",
    "scatter_add",
    "place_rows",
    "gather_rows",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "addmm",
    "AttentionLayout",
    "csr_attention",
    "head_dot",
    "fused_kernels",
    "fused_kernels_enabled",
    "set_fused_kernels",
    "get_default_dtype",
    "set_default_dtype",
    "is_fast_dtype",
    "dropout",
    "l2_normalize",
    "one_hot",
    "embedding",
    "segment_softmax",
    "spmm",
    "weighted_spmm",
    "SparseTensor",
    "as_sparse_tensor",
    "Parameter",
    "Module",
    "ModuleList",
    "ModuleDict",
    "Linear",
    "Dropout",
    "LayerNorm",
    "Sequential",
    "Embedding",
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "clip_grad_norm",
    "gradcheck",
    "numerical_gradient",
    "get_rng",
    "manual_seed",
    "random_values",
    "functional",
    "init",
]

"""Set-function learners.

The adversarially-permuted LSTM pairs a permutation network (the max player)
with an LSTM-plus-readout (the min player): prediction = readout(lstm(P X))
where P is the per-input soft permutation and row i of P weights the elements
read at step i.  Ablation variants drop the permutation network or swap the
LSTM for a flat FC stack.  Baselines: sum-pooled DeepSets, k-ary tuple
pooling, and an LSTM trained on randomly sampled permutations.

Trainer and evaluator call only ``forward(x, training, rng)``, where ``rng``
draws a training step's dropout masks or sampled orders, and ``predict_batch``.

DeepSets and the tuple model reorder elements into canonical (lexicographic)
value order before any arithmetic, which makes their permutation invariance
exact at the bit level instead of merely up to float addition order.
"""

from __future__ import annotations

import inspect
import itertools
import json
from pathlib import Path

import numpy as np

from spanlab.nn import LSTMCell, LinearLayer, Seed, dropout, seed_chain
from spanlab.perm import PermutationNetwork, _lex_row_order, apply_soft
from spanlab.tensor import ShapeMismatch, Tensor, read_tensor_blob, write_tensor_blob

__all__ = [
    "CheckpointError",
    "DeepSetsModel",
    "JanossyModel",
    "MODEL_KINDS",
    "PiSgdModel",
    "SpanFcModel",
    "SpanModel",
    "SpanNoApnModel",
    "build_model",
    "constructor_args",
    "load_checkpoint",
    "save_checkpoint",
    "tuple_index_array",
]


def _as_batch(x):
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if x.ndim == 2:
        n, d = x.shape
        return x.reshape((1, n, d))
    if x.ndim == 3:
        return x
    raise ShapeMismatch("model_forward", x.shape)


def constructor_args(cls):
    """Names of a model class's constructor arguments, whose annotations and
    defaults make the schema of its config block."""
    return tuple(inspect.signature(cls.__init__).parameters)[1:]


class _ModelBase:
    """Shared schema and prediction plumbing; subclasses define forward.

    The constructor arguments are kept as attributes of the same name and
    read back by ``spec``.  ``layers`` lists the sub-layer attributes in
    parameter order, and ``adversary`` the ones the max player owns.
    """

    layers = ()
    adversary = ()

    def __new__(cls, *args, **kwargs):
        # recorded before __init__ runs, so no subclass restates its arguments
        self = super().__new__(cls)
        bound = inspect.signature(cls.__init__).bind(self, *args, **kwargs)
        bound.apply_defaults()
        for name in constructor_args(cls):
            setattr(self, name, bound.arguments[name])
        return self

    def __getnewargs_ex__(self):
        # copy and pickle rebuild through __new__, which binds these
        return (), {name: getattr(self, name) for name in constructor_args(type(self))}

    @property
    def out_dim(self):
        return self.L

    def spec(self):
        return {"kind": self.kind,
                **{name: getattr(self, name) for name in constructor_args(type(self))}}

    def _check_sizes(self, **sizes):
        """A size below 1 is a plain ValueError, the fault of whoever
        configured it."""
        for name, size in sizes.items():
            if size < 1:
                raise ValueError(f"{type(self).__name__}: {name} {size} must be >= 1")

    def _parameters_of(self, layers):
        return {f"{layer}.{k}": v for layer in layers
                for k, v in getattr(self, layer).parameters().items()}

    def parameters(self):
        return self._parameters_of(self.layers)

    def adversary_parameters(self):
        return self._parameters_of(self.adversary)

    def learner_parameters(self):
        adversary = set(self.adversary_parameters())
        return {k: v for k, v in self.parameters().items() if k not in adversary}

    def predict(self, x):
        """Value-only prediction for a single (n,d) set."""
        return self.predict_batch(np.asarray(x)[None]).reshape(self.out_dim)

    def predict_batch(self, x):
        """Value-only predictions (B, L) for a (B,n,d) stack."""
        return self.forward(_as_batch(np.asarray(x, dtype=np.float64))).data

    def _scaled(self, x):
        """The input as a (B,n,d) batch, times ``input_scale``."""
        x = _as_batch(x)
        return x * self.input_scale if self.input_scale != 1.0 else x


class SpanModel(_ModelBase):
    """Permutation network + LSTM + linear readout (the min-max learner)."""

    kind = "span"
    layers = ("pn", "lstm", "readout")
    adversary = ("pn",)

    def __init__(self, n: int, d: int, L: int, hidden: int = 128, tau: float = 0.1,
                 sinkhorn_iters: int = 100, input_scale: float = 1.0,
                 seed: Seed = 0, forget_bias: float = 1.0):
        self._check_sizes(hidden=hidden)
        self.pn = PermutationNetwork(d, n, tau, sinkhorn_iters,
                                     seed=seed_chain(seed, 0))
        self.lstm = LSTMCell(d, hidden, seed=seed_chain(seed, 1),
                             forget_bias=forget_bias)
        self.readout = LinearLayer(hidden, L, "none", seed=seed_chain(seed, 2))

    def forward(self, x, training=False, rng=None):
        x = self._scaled(x)
        # P X: row i of P weights the elements placed in slot i.  The network
        # is row-equivariant, so the P^T X form would cancel the input order
        # for any weights and leave the adversary nothing to choose.
        permuted = apply_soft(self.pn.forward(x), x)
        return self.readout.forward(self.lstm.run(permuted))


class SpanNoApnModel(_ModelBase):
    """Ablation: the LSTM reads elements in the order given (no permutation
    network), so it is free to latch onto positional bias."""

    kind = "span-no-apn"
    layers = ("lstm", "readout")

    def __init__(self, n: int, d: int, L: int, hidden: int = 128,
                 input_scale: float = 1.0, seed: Seed = 0,
                 forget_bias: float = 1.0):
        self._check_sizes(hidden=hidden)
        self.lstm = LSTMCell(d, hidden, seed=seed_chain(seed, 1),
                             forget_bias=forget_bias)
        self.readout = LinearLayer(hidden, L, "none", seed=seed_chain(seed, 2))

    def forward(self, x, training=False, rng=None):
        return self.readout.forward(self.lstm.run(self._scaled(x)))


class SpanFcModel(_ModelBase):
    """Ablation: permutation network kept, learner swapped for an FC stack
    over the flattened permuted set."""

    kind = "span-fc"
    layers = ("pn", "hidden", "readout")
    adversary = ("pn",)

    def __init__(self, n: int, d: int, L: int, width: int = 128, tau: float = 0.1,
                 sinkhorn_iters: int = 100, input_scale: float = 1.0,
                 seed: Seed = 0):
        self._check_sizes(width=width)
        self.pn = PermutationNetwork(d, n, tau, sinkhorn_iters,
                                     seed=seed_chain(seed, 0))
        self.hidden = LinearLayer(n * d, width, "relu", seed=seed_chain(seed, 1))
        self.readout = LinearLayer(width, L, "none", seed=seed_chain(seed, 2))

    def forward(self, x, training=False, rng=None):
        x = self._scaled(x)
        permuted = apply_soft(self.pn.forward(x), x)
        batch = permuted.shape[0]
        flat = permuted.reshape((batch, self.n * self.d))
        return self.readout.forward(self.hidden.forward(flat))


class DeepSetsModel(_ModelBase):
    """Embed rows, pool (sum or max), map through an FC stack.

    Invariant by construction; elements are canonically ordered before the
    pooled sum, so shuffling inputs cannot even change the rounding.
    """

    kind = "deepsets"
    layers = ("embed", "post", "readout")

    def __init__(self, d: int, L: int, width: int = 128, pooling: str = "sum",
                 dropout_rate: float = 0.0, seed: Seed = 0):
        if pooling not in ("sum", "max"):
            raise ValueError(f"DeepSetsModel: unknown pooling {pooling!r}")
        self._check_sizes(width=width)
        dropout(None, dropout_rate, None, training=False)  # rejects a bad rate
        self.embed = LinearLayer(d, width, "relu", seed=seed_chain(seed, 0))
        self.post = LinearLayer(width, width, "relu", seed=seed_chain(seed, 1))
        self.readout = LinearLayer(width, L, "none", seed=seed_chain(seed, 2))

    def forward(self, x, training=False, rng=None):
        x = _as_batch(x)
        x = x.permute_rows(_lex_row_order(x.data))
        batch, n, d = x.shape
        phi = self.embed.forward(x.reshape((batch * n, d)))
        phi = dropout(phi, self.dropout_rate, rng, training)
        phi = phi.reshape((batch, n, self.width))
        if self.pooling == "sum":
            pooled = phi.sum(axis=1)
        else:
            pooled = phi.max(axis=1)
        h = dropout(self.post.forward(pooled), self.dropout_rate, rng, training)
        return self.readout.forward(h)


def tuple_index_array(n, k):
    """Indices of all unordered k-subsets of range(n), lexicographic order."""
    if n < k:
        raise ShapeMismatch("tuple_index_array", (n, k))
    return np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)


class JanossyModel(_ModelBase):
    """k-ary pooling: an inner DeepSets over the C(n,k) tuple matrix.

    Input rows are canonically ordered first, so each unordered tuple is
    materialized exactly once with a value-determined internal order.
    """

    kind = "janossy"
    layers = ("inner",)

    def __init__(self, d: int, L: int, k: int, width: int = 128,
                 pooling: str = "sum", dropout_rate: float = 0.0, seed: Seed = 0):
        self._check_sizes(k=k, width=width)
        self.inner = DeepSetsModel(d * k, L, width=width, pooling=pooling,
                                   dropout_rate=dropout_rate, seed=seed)

    def forward(self, x, training=False, rng=None):
        x = _as_batch(x)
        batch, n, d = x.shape
        if n < self.k:
            raise ShapeMismatch("janossy_forward", x.shape, (None, self.k, d))
        rows = x.permute_rows(_lex_row_order(x.data)).reshape((batch * n, d))
        # one gather for the batch: tuple c of set b is its k rows side by side
        index = tuple_index_array(n, self.k) + n * np.arange(batch)[:, None, None]
        tuples = rows.gather_rows(index.reshape(-1))
        tuples = tuples.reshape((batch, index.shape[1], self.k * d))
        return self.inner.forward(tuples, training=training, rng=rng)


class PiSgdModel(SpanNoApnModel):
    """LSTM + readout.  A training forward reads each set in a uniform order
    drawn from ``rng``.  ``predict_batch`` averages over ``permutations``
    orders drawn afresh from the model seed at every call, so every set is
    averaged over the same orders, whatever batch it is predicted in."""

    kind = "pisgd"

    def __init__(self, n: int, d: int, L: int, hidden: int = 128,
                 permutations: int = 20, input_scale: float = 1.0, seed: Seed = 0,
                 forget_bias: float = 1.0):
        self._check_sizes(permutations=permutations)
        super().__init__(n, d, L, hidden, input_scale, seed, forget_bias)

    def forward(self, x, training=False, rng=None):
        if training:
            x = _as_batch(x)
            batch, n, _d = x.shape
            x = x.permute_rows(np.stack([rng.permutation(n) for _ in range(batch)]))
        return super().forward(x)

    def predict_samples(self, x, rng):
        """Predictions for ``permutations`` fresh uniform row orders, in one
        forward: (permutations, L) for an (n,d) set, or (B, permutations, L)
        for a (B,n,d) stack, whose sets are all read in the same orders."""
        x = np.asarray(x, dtype=np.float64)
        n, d = x.shape[-2:]
        perms = np.stack([rng.permutation(n) for _ in range(self.permutations)])
        preds = self.forward(Tensor(x[..., perms, :].reshape((-1, n, d)))).data
        return preds.reshape(x.shape[:-2] + (self.permutations, self.out_dim))

    def predict_batch(self, x):
        rng = np.random.default_rng(seed_chain(self.seed, 9901))
        return self.predict_samples(x, rng).mean(axis=-2)


# ---------------------------------------------------------------------------
# construction and checkpointing

MODEL_KINDS = {cls.kind: cls for cls in (SpanModel, SpanNoApnModel, SpanFcModel,
                                         DeepSetsModel, JanossyModel, PiSgdModel)}


def build_model(spec):
    """Instantiate a model from its spec dict (as stored in checkpoints)."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    cls = MODEL_KINDS.get(kind)
    if cls is None:
        raise CheckpointError(f"unknown model kind {kind!r}")
    return cls(**spec)


class CheckpointError(ValueError):
    """Unusable checkpoint directory."""


def save_checkpoint(directory, model, extra=None):
    """Write one tensor blob per named parameter, then manifest.json.

    Any old manifest is removed first, so a save cut short leaves a
    directory that ``load_checkpoint`` rejects instead of a mix of old and
    new blobs that loads.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "manifest.json").unlink(missing_ok=True)
    params = model.parameters()
    for name, tensor in params.items():
        write_tensor_blob(directory / f"{name}.sptn", tensor.data)
    manifest = {
        "format": 1,
        "model": model.spec(),
        "tensors": sorted(params.keys()),
        "extra": extra if extra is not None else {},
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )


def load_checkpoint(directory, model=None):
    """Overwrite the parameters of ``model`` from the blobs; (model, extra).
    ``model`` must have the checkpoint's spec; None rebuilds it from that."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise CheckpointError(f"{directory}: missing manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text())
        built = build_model(manifest["model"])
        tensors, extra = manifest["tensors"], manifest["extra"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{directory}: unusable manifest.json: {exc}") from exc
    model = model or built
    if model.spec() != built.spec():
        raise CheckpointError(f"{directory}: holds a {built.spec()} model, "
                              f"not the given {model.spec()}")
    params = model.parameters()
    if sorted(params.keys()) != tensors:
        raise CheckpointError(f"{directory}: tensor list mismatch")
    for name, tensor in params.items():
        arr = read_tensor_blob(directory / f"{name}.sptn")
        if arr.shape != tensor.data.shape:
            raise CheckpointError(
                f"{directory}: blob {name} has shape {arr.shape}, "
                f"expected {tensor.data.shape}"
            )
        tensor.data = arr
    return model, extra

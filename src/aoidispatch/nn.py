"""Minimal dense network stack: MLP forward/backward, stochastic policy
heads, and Adam.

Everything is float64 numpy. The backward pass is hand-written reverse mode
for the affine+activation chain; the policy heads expose analytic gradients
of log-probability and entropy with respect to their logits, so a PPO update
is one head-gradient computation followed by one ``DenseNet.backward``. No
general-purpose autodiff.

Numerical safeguards: logits are clamped to ``|x| <= LOGIT_CLAMP`` before any
exponentiation and log-probabilities are floored at ``log(PROB_FLOOR)``. The
analytic gradients are exact for the safeguarded graph (zero where a clamp or
floor is active), so they match finite differences everywhere.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractViolation

LOGIT_CLAMP = 30.0
PROB_FLOOR = 1e-8

_ACTIVATIONS = ("tanh", "linear")


def orthogonal_init(
    rows: int, cols: int, gain: float, rng: np.random.Generator
) -> np.ndarray:
    """Orthogonal weight matrix scaled by ``gain``."""
    a = rng.standard_normal((rows, cols))
    u, _, vt = np.linalg.svd(a, full_matrices=False)
    q = u if u.shape == (rows, cols) else vt
    return gain * q


class DenseNet:
    """Fully connected net: affine layers with per-layer activation tags.

    ``layer_sizes`` chains input through hidden widths to the output size;
    hidden layers default to tanh and the output layer to linear. Hidden
    weights start orthogonal with gain sqrt(2), the output layer with
    ``out_gain`` (small gains keep an initial policy near-uniform).

    ``members`` independent nets are stacked on a leading axis: weights are
    ``(members, d_in, d_out)`` and biases ``(members, d_out)``, initialized
    member after member from ``rng``. Input rows are split member-major,
    so each member sees an equal, contiguous block of rows.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        rng: np.random.Generator,
        activations: Optional[Sequence[str]] = None,
        out_gain: float = 1.0,
        members: int = 1,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output size")
        if any(int(s) < 1 for s in layer_sizes):
            raise ValueError("layer sizes must be positive")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.members = int(members)
        n_layers = len(self.layer_sizes) - 1
        if activations is None:
            activations = ["tanh"] * (n_layers - 1) + ["linear"]
        if len(activations) != n_layers:
            raise ValueError(f"expected {n_layers} activation tags, got {len(activations)}")
        for act in activations:
            if act not in _ACTIVATIONS:
                raise ValueError(f"unsupported activation {act!r}")
        self.activations = tuple(activations)

        gains = [np.sqrt(2.0)] * (n_layers - 1) + [out_gain]
        init = [
            [orthogonal_init(d_in, d_out, gain, rng)
             for d_in, d_out, gain in zip(self.layer_sizes, self.layer_sizes[1:], gains)]
            for _ in range(self.members)
        ]
        self.weights: list[np.ndarray] = [np.stack(layer) for layer in zip(*init)]
        self.biases: list[np.ndarray] = [np.zeros((self.members, d)) for d in self.layer_sizes[1:]]
        self._cache: Optional[tuple[list[np.ndarray], list[np.ndarray]]] = None

    @property
    def params(self) -> list[np.ndarray]:
        """Live parameter references, interleaved [W0, b0, W1, b1, ...]."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    @property
    def n_params(self) -> int:
        return sum(p.size for p in self.params)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batched forward pass; caches intermediates for backward.

        Accepts ``(rows, d_in)``, member-major, or with one member a single
        ``(d_in,)`` vector; returns the outputs in the input's leading shape.
        """
        x = np.asarray(x, dtype=np.float64)
        d_in = self.layer_sizes[0]
        if x.ndim not in (1, 2) or x.shape[-1] != d_in or (x.size // d_in) % self.members:
            raise ValueError(
                f"input shape {x.shape} does not match input size {d_in} for {self.members} members"
            )
        inputs = []
        outputs = []
        h = x.reshape(self.members, -1, d_in)
        for w, b, act in zip(self.weights, self.biases, self.activations):
            inputs.append(h)
            z = h @ w + b[:, None]
            h = np.tanh(z) if act == "tanh" else z
            outputs.append(h)
        self._cache = (inputs, outputs)
        return h.reshape(*x.shape[:-1], -1)

    def backward(self, grad_out: np.ndarray) -> list[np.ndarray]:
        """Reverse-mode gradients of a scalar loss w.r.t. every parameter.

        ``grad_out`` is dLoss/dOutput for the last forward batch. Returns
        gradients aligned with :attr:`params`.
        """
        if self._cache is None:
            raise ContractViolation("backward called without a cached forward pass")
        inputs, outputs = self._cache
        grad = np.asarray(grad_out, dtype=np.float64)
        if grad.shape[-1:] != outputs[-1].shape[-1:] or grad.size != outputs[-1].size:
            raise ValueError(
                f"upstream gradient shape {grad.shape} does not match output {outputs[-1].shape}"
            )
        grad = grad.reshape(outputs[-1].shape)
        grads: list[np.ndarray] = [np.empty(0)] * (2 * len(self.weights))
        for i in range(len(self.weights) - 1, -1, -1):
            if self.activations[i] == "tanh":
                grad = grad * (1.0 - outputs[i] ** 2)
            grads[2 * i] = inputs[i].swapaxes(1, 2) @ grad
            grads[2 * i + 1] = grad.sum(axis=1)
            if i > 0:
                grad = grad @ self.weights[i].swapaxes(1, 2)
        return grads

    def state_arrays(self, prefix: str) -> dict[str, np.ndarray]:
        names = [f"{kind}{i}" for i in range(len(self.weights)) for kind in "Wb"]
        return _member_slices(prefix, self.members, dict(zip(names, self.params)))

    def load_state_arrays(self, prefix: str, arrays) -> None:
        names = [f"{kind}{i}" for i in range(len(self.weights)) for kind in "Wb"]
        params = _stacked_members(prefix, self.members, names, arrays)
        if [p.shape for p in params] != [p.shape for p in self.params]:
            raise ValueError("checkpoint parameter shapes do not match the net")
        self.weights, self.biases = params[0::2], params[1::2]
        self._cache = None


def _member_slices(prefix: str, members: int, named: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Member ``k``'s slice of each stacked array, keyed ``prefix.format(k)``
    plus the array's name."""
    return {f"{prefix.format(k)}{name}": a[k] for k in range(members) for name, a in named.items()}


def _stacked_members(prefix: str, members: int, names: Sequence[str], arrays) -> list[np.ndarray]:
    """The named arrays :func:`_member_slices` wrote, stacked on the member
    axis again."""
    return [np.stack([arrays[f"{prefix.format(k)}{name}"] for k in range(members)]) for name in names]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # z is pre-clamped to +-LOGIT_CLAMP, exp cannot overflow
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))


class PolicyHeads:
    """Factorized action distribution over query bits and a dispatch choice.

    The first ``n_servers`` logits drive independent Bernoulli query bits,
    the rest a categorical dispatch head. The dispatch head only exists for
    samples where a job arrived: without an arrival it contributes neither
    log-probability nor entropy, and the sampled target is -1.
    """

    def __init__(self, logits: np.ndarray, n_servers: int):
        logits = np.asarray(logits, dtype=np.float64)
        if logits.ndim == 1:
            logits = logits[None, :]
        if logits.ndim != 2 or logits.shape[1] != 2 * n_servers:
            raise ValueError(f"expected (batch, {2 * n_servers}) logits, got {logits.shape}")
        self.n_servers = n_servers
        self.raw = logits
        z = np.clip(logits, -LOGIT_CLAMP, LOGIT_CLAMP)
        self._clamp_mask = (np.abs(logits) <= LOGIT_CLAMP).astype(np.float64)
        self.query_probs = _sigmoid(z[:, :n_servers])
        du = z[:, n_servers:]
        du = du - du.max(axis=1, keepdims=True)
        exp = np.exp(du)
        self._log_dispatch = du - np.log(exp.sum(axis=1, keepdims=True))
        self.dispatch_probs = np.exp(self._log_dispatch)

    @property
    def batch(self) -> int:
        return self.query_probs.shape[0]

    def _check_actions(self, bits: np.ndarray, dispatch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        bits = np.asarray(bits)
        dispatch = np.asarray(dispatch)
        if bits.shape != (self.batch, self.n_servers):
            raise ContractViolation(f"query bits must have shape {(self.batch, self.n_servers)}")
        if dispatch.shape != (self.batch,):
            raise ContractViolation(f"dispatch must have shape {(self.batch,)}")
        if dispatch.max(initial=-1) >= self.n_servers or dispatch.min(initial=0) < -1:
            raise ContractViolation("dispatch entries must be -1 or a valid server index")
        return bits.astype(np.float64), dispatch.astype(np.int64)

    def sample_queries(self, rng: np.random.Generator) -> np.ndarray:
        return (rng.random((self.batch, self.n_servers)) < self.query_probs).astype(np.int8)

    def sample_dispatch(self, rng: np.random.Generator, arrivals: Sequence[bool]) -> np.ndarray:
        """Inverse-CDF draw of a target for every row with an arrival: one
        uniform per such row, in row order."""
        dispatch = np.full(self.batch, -1, dtype=np.int64)
        rows = np.asarray(arrivals).nonzero()[0]
        if rows.size:
            cdf = self.dispatch_probs[rows].cumsum(axis=1)
            cdf[:, -1] = 1.0
            dispatch[rows] = (cdf <= rng.random(rows.size)[:, None]).sum(axis=1)
        return dispatch

    def sample(
        self, rng: np.random.Generator, arrivals: Sequence[bool]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw query bits and (where a job arrived) a dispatch target."""
        return self.sample_queries(rng), self.sample_dispatch(rng, arrivals)

    def greedy_queries(self) -> np.ndarray:
        return (self.query_probs > 0.5).astype(np.int8)

    def greedy_dispatch(self, arrivals: Sequence[bool]) -> np.ndarray:
        dispatch = np.full(self.batch, -1, dtype=np.int64)
        rows = np.asarray(arrivals).nonzero()[0]
        dispatch[rows] = self.dispatch_probs[rows].argmax(axis=1)
        return dispatch

    def greedy(self, arrivals: Sequence[bool]) -> tuple[np.ndarray, np.ndarray]:
        """Mode of each head: query iff p > 0.5, dispatch to the argmax."""
        return self.greedy_queries(), self.greedy_dispatch(arrivals)

    def log_prob_queries(self, bits: np.ndarray) -> np.ndarray:
        """Sum of Bernoulli log-probabilities for the query bits."""
        bits = np.asarray(bits, dtype=np.float64)
        if bits.shape != (self.batch, self.n_servers):
            raise ContractViolation(f"query bits must have shape {(self.batch, self.n_servers)}")
        p = self.query_probs
        return (
            bits * np.log(np.maximum(p, PROB_FLOOR))
            + (1.0 - bits) * np.log(np.maximum(1.0 - p, PROB_FLOOR))
        ).sum(axis=1)

    def log_prob_dispatch(self, dispatch: np.ndarray) -> np.ndarray:
        """Categorical log-probability per sample; zero where dispatch is -1."""
        dispatch = np.asarray(dispatch, dtype=np.int64)
        if dispatch.shape != (self.batch,):
            raise ContractViolation(f"dispatch must have shape {(self.batch,)}")
        if dispatch.max(initial=-1) >= self.n_servers or dispatch.min(initial=0) < -1:
            raise ContractViolation("dispatch entries must be -1 or a valid server index")
        lp = np.zeros(self.batch)
        rows = np.nonzero(dispatch >= 0)[0]
        if rows.size:
            chosen = self.dispatch_probs[rows, dispatch[rows]]
            lp[rows] = np.log(np.maximum(chosen, PROB_FLOOR))
        return lp

    def log_prob(self, bits: np.ndarray, dispatch: np.ndarray) -> np.ndarray:
        """Joint log-probability per sample: sum of Bernoulli terms plus the
        categorical term where a dispatch happened."""
        bits, dispatch = self._check_actions(bits, dispatch)
        return self.log_prob_queries(bits) + self.log_prob_dispatch(dispatch)

    def entropy_queries(self) -> np.ndarray:
        p = self.query_probs
        # sigmoid of a clamped logit never reaches exactly 0 or 1 in float64
        return -(p * np.log(p) + (1.0 - p) * np.log1p(-p)).sum(axis=1)

    def entropy_dispatch(self, has_dispatch: Sequence[bool]) -> np.ndarray:
        mask = np.asarray(has_dispatch, dtype=bool)
        h_cat = -(self.dispatch_probs * self._log_dispatch).sum(axis=1)
        return np.where(mask, h_cat, 0.0)

    def entropy(self, has_dispatch: Sequence[bool]) -> np.ndarray:
        """Per-sample entropy: Bernoulli heads always, categorical head only
        where a dispatch happened. Nonnegative by construction."""
        return self.entropy_queries() + self.entropy_dispatch(has_dispatch)

    def grad_log_prob_queries(self, bits: np.ndarray) -> np.ndarray:
        """d(query log-prob)/d(raw logits), dispatch columns zero."""
        bits = np.asarray(bits, dtype=np.float64)
        p = self.query_probs
        grad_q = np.where(
            bits > 0.5,
            (p > PROB_FLOOR) * (1.0 - p),
            ((1.0 - p) > PROB_FLOOR) * (-p),
        )
        out = np.concatenate([grad_q, np.zeros_like(self.dispatch_probs)], axis=1)
        return out * self._clamp_mask

    def grad_log_prob_dispatch(self, dispatch: np.ndarray) -> np.ndarray:
        """d(dispatch log-prob)/d(raw logits), query columns zero."""
        dispatch = np.asarray(dispatch, dtype=np.int64)
        grad_u = np.zeros_like(self.dispatch_probs)
        rows = np.nonzero(dispatch >= 0)[0]
        if rows.size:
            chosen = self.dispatch_probs[rows, dispatch[rows]]
            active = (chosen > PROB_FLOOR).astype(np.float64)
            grad_u[rows] = -self.dispatch_probs[rows]
            grad_u[rows, dispatch[rows]] += 1.0
            grad_u[rows] *= active[:, None]
        out = np.concatenate([np.zeros_like(self.query_probs), grad_u], axis=1)
        return out * self._clamp_mask

    def grad_log_prob(self, bits: np.ndarray, dispatch: np.ndarray) -> np.ndarray:
        """d(log-prob)/d(raw logits), shape (batch, 2K).

        Exact for the safeguarded graph: components are zero where the logit
        clamp or the probability floor is active.
        """
        bits, dispatch = self._check_actions(bits, dispatch)
        return self.grad_log_prob_queries(bits) + self.grad_log_prob_dispatch(dispatch)

    def grad_entropy_queries(self) -> np.ndarray:
        z = np.clip(self.raw[:, : self.n_servers], -LOGIT_CLAMP, LOGIT_CLAMP)
        p = self.query_probs
        grad_q = -z * p * (1.0 - p)
        out = np.concatenate([grad_q, np.zeros_like(self.dispatch_probs)], axis=1)
        return out * self._clamp_mask

    def grad_entropy_dispatch(self, has_dispatch: Sequence[bool]) -> np.ndarray:
        h_cat = -(self.dispatch_probs * self._log_dispatch).sum(axis=1, keepdims=True)
        grad_u = -self.dispatch_probs * (self._log_dispatch + h_cat)
        mask = np.asarray(has_dispatch, dtype=bool)[:, None]
        grad_u = np.where(mask, grad_u, 0.0)
        out = np.concatenate([np.zeros_like(self.query_probs), grad_u], axis=1)
        return out * self._clamp_mask

    def grad_entropy(self, has_dispatch: Sequence[bool]) -> np.ndarray:
        """d(entropy)/d(raw logits), shape (batch, 2K)."""
        return self.grad_entropy_queries() + self.grad_entropy_dispatch(has_dispatch)


class Adam:
    """Adam with bias correction and global gradient-norm clipping.

    With ``members=M`` each parameter carries a leading member axis of
    length M (a single member may use arrays of any shape), and every member
    is optimized on its own: its own step count, its own gradient norm to
    clip, and its own skip. A member with any non-finite gradient entry
    keeps its parameters, moments and step count. ``step`` returns a
    boolean array of the members that stepped.
    """

    def __init__(
        self,
        params: Sequence[np.ndarray],
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        max_grad_norm: Optional[float] = None,
        members: int = 1,
    ):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.max_grad_norm = max_grad_norm
        self.members = members
        self.t = np.zeros(members, dtype=np.int64)
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        # shapes that broadcast one value per member against each parameter
        self._member_shapes = [(members,) + (1,) * (p.ndim - 1) for p in params]

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]) -> np.ndarray:
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError("parameter/gradient structure does not match optimizer state")
        members = self.members
        stepped = np.ones(members, dtype=bool)
        saved: list[tuple[np.ndarray, np.ndarray]] = []
        if not all(np.isfinite(g).all() for g in grads):
            for g in grads:
                stepped &= np.isfinite(g).reshape(members, -1).all(axis=1)
            if not stepped.any():
                return stepped
            # step the others with the skipped members' gradients zeroed,
            # then put the skipped members' slices back
            saved = [(a, a[~stepped]) for a in (*params, *self.m, *self.v)]
            grads = [np.where(stepped.reshape(s), g, 0.0) for g, s in zip(grads, self._member_shapes)]
        if self.max_grad_norm is not None:
            sq = np.zeros(members)
            for g in grads:
                sq += (g * g).reshape(members, -1).sum(axis=1)
            scale = self.max_grad_norm / np.maximum(np.sqrt(sq), self.max_grad_norm)
            if (scale < 1.0).any():
                grads = [g * scale.reshape(s) for g, s in zip(grads, self._member_shapes)]
        # Python scalar powers: numpy's vectorised power differs from them in
        # the last bit for some t
        t = (self.t + 1).tolist()
        c1 = np.array([1.0 - self.beta1**n for n in t])
        c2 = np.array([1.0 - self.beta2**n for n in t])
        for p, g, m, v, s in zip(params, grads, self.m, self.v, self._member_shapes):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.learning_rate * (m / c1.reshape(s)) / (np.sqrt(v / c2.reshape(s)) + self.eps)
        for a, old in saved:
            a[~stepped] = old
        self.t += stepped
        return stepped

    def state_arrays(self, prefix: str) -> dict[str, np.ndarray]:
        named = {"t": self.t}
        for i, (m, v) in enumerate(zip(self.m, self.v)):
            named[f"m{i}"] = m
            named[f"v{i}"] = v
        return _member_slices(prefix, self.members, named)

    def load_state_arrays(self, prefix: str, arrays) -> None:
        names = [f"{kind}{i}" for i in range(len(self.m)) for kind in "mv"]
        self.t, *moments = _stacked_members(prefix, self.members, ["t", *names], arrays)
        self.m, self.v = moments[0::2], moments[1::2]


def finite_difference_gradients(
    loss_fn: Callable[[], float], params: Sequence[np.ndarray], h: float = 1e-5
) -> list[np.ndarray]:
    """Central finite differences of a closure w.r.t. parameter arrays.

    Independent of the analytic backward pass; used as its oracle.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p = p.ravel()
        flat_g = g.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            f_plus = loss_fn()
            flat_p[i] = orig - h
            f_minus = loss_fn()
            flat_p[i] = orig
            flat_g[i] = (f_plus - f_minus) / (2.0 * h)
        grads.append(g)
    return grads

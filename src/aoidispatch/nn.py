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
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        rng: np.random.Generator,
        activations: Optional[Sequence[str]] = None,
        out_gain: float = 1.0,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output size")
        if any(int(s) < 1 for s in layer_sizes):
            raise ValueError("layer sizes must be positive")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        n_layers = len(self.layer_sizes) - 1
        if activations is None:
            activations = ["tanh"] * (n_layers - 1) + ["linear"]
        if len(activations) != n_layers:
            raise ValueError(f"expected {n_layers} activation tags, got {len(activations)}")
        for act in activations:
            if act not in _ACTIVATIONS:
                raise ValueError(f"unsupported activation {act!r}")
        self.activations = tuple(activations)

        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for i in range(n_layers):
            d_in, d_out = self.layer_sizes[i], self.layer_sizes[i + 1]
            gain = out_gain if i == n_layers - 1 else np.sqrt(2.0)
            self.weights.append(orthogonal_init(d_in, d_out, gain, rng))
            self.biases.append(np.zeros(d_out))
        self._cache: Optional[tuple[list[np.ndarray], list[np.ndarray]]] = None
        self._squeezed = False

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

        Accepts ``(batch, d_in)`` or a single ``(d_in,)`` vector.
        """
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.layer_sizes[0]:
            raise ValueError(
                f"input shape {x.shape} does not match input size {self.layer_sizes[0]}"
            )
        inputs = []
        outputs = []
        h = x
        for w, b, act in zip(self.weights, self.biases, self.activations):
            inputs.append(h)
            z = h @ w + b
            h = np.tanh(z) if act == "tanh" else z
            outputs.append(h)
        self._cache = (inputs, outputs)
        self._squeezed = squeeze
        return h[0] if squeeze else h

    def backward(self, grad_out: np.ndarray) -> list[np.ndarray]:
        """Reverse-mode gradients of a scalar loss w.r.t. every parameter.

        ``grad_out`` is dLoss/dOutput for the last forward batch. Returns
        gradients aligned with :attr:`params`.
        """
        if self._cache is None:
            raise ContractViolation("backward called without a cached forward pass")
        inputs, outputs = self._cache
        grad = np.asarray(grad_out, dtype=np.float64)
        if self._squeezed and grad.ndim == 1:
            grad = grad[None, :]
        if grad.shape != outputs[-1].shape:
            raise ValueError(
                f"upstream gradient shape {grad.shape} does not match output {outputs[-1].shape}"
            )
        grads: list[np.ndarray] = [np.empty(0)] * (2 * len(self.weights))
        for i in range(len(self.weights) - 1, -1, -1):
            if self.activations[i] == "tanh":
                grad = grad * (1.0 - outputs[i] ** 2)
            grads[2 * i] = inputs[i].T @ grad
            grads[2 * i + 1] = grad.sum(axis=0)
            if i > 0:
                grad = grad @ self.weights[i].T
        return grads

    def state_arrays(self, prefix: str) -> dict[str, np.ndarray]:
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"{prefix}W{i}"] = w
            out[f"{prefix}b{i}"] = b
        return out

    def load_state_arrays(self, prefix: str, arrays) -> None:
        for i in range(len(self.weights)):
            w = np.asarray(arrays[f"{prefix}W{i}"], dtype=np.float64)
            b = np.asarray(arrays[f"{prefix}b{i}"], dtype=np.float64)
            if w.shape != self.weights[i].shape or b.shape != self.biases[i].shape:
                raise ValueError("checkpoint parameter shapes do not match the net")
            self.weights[i] = w
            self.biases[i] = b
        self._cache = None


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

    ``step`` skips the update and returns False when any gradient entry is
    non-finite, leaving parameters and moments untouched.
    """

    def __init__(
        self,
        params: Sequence[np.ndarray],
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        max_grad_norm: Optional[float] = None,
    ):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.max_grad_norm = max_grad_norm
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]) -> bool:
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError("parameter/gradient structure does not match optimizer state")
        if not all(np.isfinite(g).all() for g in grads):
            return False
        if self.max_grad_norm is not None:
            total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
            if total > self.max_grad_norm:
                scale = self.max_grad_norm / total
                grads = [g * scale for g in grads]
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.learning_rate * (m / c1) / (np.sqrt(v / c2) + self.eps)
        return True

    def state_arrays(self, prefix: str) -> dict[str, np.ndarray]:
        out = {f"{prefix}t": np.array(self.t, dtype=np.int64)}
        for i, (m, v) in enumerate(zip(self.m, self.v)):
            out[f"{prefix}m{i}"] = m
            out[f"{prefix}v{i}"] = v
        return out

    def load_state_arrays(self, prefix: str, arrays) -> None:
        self.t = int(arrays[f"{prefix}t"])
        for i in range(len(self.m)):
            self.m[i] = np.asarray(arrays[f"{prefix}m{i}"], dtype=np.float64)
            self.v[i] = np.asarray(arrays[f"{prefix}v{i}"], dtype=np.float64)


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

"""Dense networks with hand-written backprop, Gaussian policy heads, and the
structural output layers that keep sampled actions feasible.

Everything is float64 numpy. Policies sample in an unconstrained raw
space (diagonal Gaussian, state-dependent mean from the network,
learned state-independent log-std); the raw sample is then pushed
through a structural layer (simplex / softplus / interval) and the
log-probability is taken with respect to the raw-space Gaussian.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def softmax(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# structural output layers


def simplex_layer(raw: np.ndarray, total: float) -> np.ndarray:
    """Map k+1 logits (last one is slack) to k nonnegative values summing to <= total."""
    if total <= 0:
        raise ValueError("simplex total must be positive")
    return total * softmax(raw)[..., :-1]


def simplex_layer_grad(raw: np.ndarray, total: float, grad_out: np.ndarray) -> np.ndarray:
    """Chain grad_out (w.r.t. the k outputs) back to the k+1 logits."""
    s = softmax(raw)
    g_pad = np.concatenate([grad_out, np.zeros(grad_out.shape[:-1] + (1,))], axis=-1)
    inner = (g_pad * s).sum(axis=-1, keepdims=True)
    return total * s * (g_pad - inner)


def interval_layer(raw: np.ndarray, low: float, high: float) -> np.ndarray:
    """Squash raw values into [low, high] with a sigmoid."""
    if high <= low:
        raise ValueError(f"empty interval [{low}, {high}]")
    return low + (high - low) * sigmoid(raw)


def positive_layer(raw: np.ndarray) -> np.ndarray:
    """Softplus map onto the nonnegative orthant."""
    return np.logaddexp(0.0, raw)


def positive_layer_grad(raw: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    return grad_out * sigmoid(raw)


def gaussian_log_prob(sample: np.ndarray, mean: np.ndarray, log_std: np.ndarray) -> np.ndarray:
    """Log density of a diagonal Gaussian, summed over the last axis."""
    z = (sample - mean) / np.exp(log_std)
    d = sample.shape[-1]
    return -0.5 * (z**2).sum(axis=-1) - log_std.sum() - 0.5 * d * LOG_2PI


# ---------------------------------------------------------------------------
# dense network


class MLP:
    """Fully connected net, tanh hidden layers, linear output.

    forward() returns the output plus a cache; backward() consumes the
    cache and an output gradient and returns flat parameter gradients.
    Weight layout per layer l: w[l] (n_in, n_out), b[l] (n_out,), both
    initialized uniformly in +-1/sqrt(n_in).
    """

    def __init__(self, sizes: tuple[int, ...], rng: Optional[np.random.Generator] = None) -> None:
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(s < 1 for s in sizes):
            raise ValueError(f"all layer sizes must be positive, got {sizes}")
        self.sizes = tuple(int(s) for s in sizes)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for n_in, n_out in zip(self.sizes[:-1], self.sizes[1:]):
            bound = 1.0 / np.sqrt(n_in)
            if rng is None:
                w = np.zeros((n_in, n_out))
                b = np.zeros(n_out)
            else:
                w = rng.uniform(-bound, bound, size=(n_in, n_out))
                b = rng.uniform(-bound, bound, size=n_out)
            self.weights.append(w)
            self.biases.append(b)

    @property
    def in_dim(self) -> int:
        return self.sizes[0]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.in_dim:
            raise ValueError(f"input width {x.shape[1]} != {self.in_dim}")
        cache = [x]
        n_layers = len(self.weights)
        for l in range(n_layers):
            z = x @ self.weights[l] + self.biases[l]
            x = np.tanh(z) if l < n_layers - 1 else z
            cache.append(x)
        return x, cache

    def backward(self, cache: list[np.ndarray], grad_out: np.ndarray) -> np.ndarray:
        """Flat gradient of sum_b loss_b when grad_out[b] = dloss_b/doutput_b."""
        g = np.asarray(grad_out, dtype=float)
        if g.ndim == 1:
            g = g[None, :]
        grads_w = [np.empty(0)] * len(self.weights)
        grads_b = [np.empty(0)] * len(self.biases)
        for l in reversed(range(len(self.weights))):
            a_in = cache[l]
            grads_w[l] = a_in.T @ g
            grads_b[l] = g.sum(axis=0)
            if l > 0:
                g = (g @ self.weights[l].T) * (1.0 - a_in**2)
        return np.concatenate(
            [arr.ravel() for pair in zip(grads_w, grads_b) for arr in pair]
        )

    # flat parameter vector <-> structured weights

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def get_flat(self) -> np.ndarray:
        return np.concatenate(
            [arr.ravel() for pair in zip(self.weights, self.biases) for arr in pair]
        )

    def set_flat(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {vec.shape}")
        k = 0
        for l in range(len(self.weights)):
            w, b = self.weights[l], self.biases[l]
            self.weights[l] = vec[k : k + w.size].reshape(w.shape)
            k += w.size
            self.biases[l] = vec[k : k + b.size].copy()
            k += b.size


# ---------------------------------------------------------------------------
# policy and value networks


@dataclass
class HeadSpec:
    """Output structure of an actor.

    alloc: "simplex" (m+1 logits -> m allocations summing to <= alpha_total),
    "softplus" (m raw values -> m nonnegative allocations), or None.
    control_dim: inputs per plant (0 disables the control head); bounded
    heads squash through [control_low, control_high].
    """

    n_plants: int
    alloc: Optional[str] = None
    alpha_total: Optional[float] = None
    control_dim: int = 0
    control_low: Optional[float] = None
    control_high: Optional[float] = None

    def __post_init__(self) -> None:
        if self.alloc not in (None, "simplex", "softplus"):
            raise ValueError(f"unknown alloc head {self.alloc!r}")
        if self.alloc == "simplex" and (self.alpha_total is None or self.alpha_total <= 0):
            raise ValueError("simplex head needs a positive alpha_total")
        if self.alloc is None and self.control_dim == 0:
            raise ValueError("head produces nothing")
        if (self.control_low is None) != (self.control_high is None):
            raise ValueError("control bounds must be given together")

    @property
    def alloc_raw_dim(self) -> int:
        if self.alloc == "simplex":
            return self.n_plants + 1
        if self.alloc == "softplus":
            return self.n_plants
        return 0

    @property
    def control_raw_dim(self) -> int:
        return self.n_plants * self.control_dim

    @property
    def raw_dim(self) -> int:
        return self.alloc_raw_dim + self.control_raw_dim

    @property
    def bounded_control(self) -> bool:
        return self.control_low is not None


@dataclass
class ActionSample:
    raw: np.ndarray
    alpha: Optional[np.ndarray]
    u: Optional[np.ndarray]


class GaussianActor:
    """Stochastic policy: network mean, learned log-std, structural heads."""

    def __init__(
        self,
        obs_dim: int,
        head: HeadSpec,
        hidden: tuple[int, ...] = (64, 64),
        rng: Optional[np.random.Generator] = None,
        init_log_std: float = np.log(0.5),
    ) -> None:
        self.head = head
        self.net = MLP((obs_dim, *hidden, head.raw_dim), rng)
        self.log_std = np.full(head.raw_dim, float(init_log_std))

    @property
    def obs_dim(self) -> int:
        return self.net.in_dim

    def transform(self, raw: np.ndarray) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Map raw-space values to environment actions (alpha, u)."""
        raw = np.asarray(raw, dtype=float)
        squeeze = raw.ndim == 1
        if squeeze:
            raw = raw[None, :]
        head = self.head
        alpha = None
        u = None
        if head.alloc == "simplex":
            alpha = simplex_layer(raw[:, : head.alloc_raw_dim], head.alpha_total)
        elif head.alloc == "softplus":
            alpha = positive_layer(raw[:, : head.alloc_raw_dim])
        if head.control_dim > 0:
            block = raw[:, head.alloc_raw_dim :]
            if head.bounded_control:
                block = interval_layer(block, head.control_low, head.control_high)
            u = block.reshape(-1, head.n_plants, head.control_dim)
        if squeeze:
            alpha = None if alpha is None else alpha[0]
            u = None if u is None else u[0]
        return alpha, u

    def sample(self, obs: np.ndarray, rng: np.random.Generator) -> ActionSample:
        mean, _ = self.net.forward(obs)
        std = np.exp(self.log_std)
        raw = mean + std * rng.standard_normal(mean.shape)
        alpha, u = self.transform(raw)
        return ActionSample(raw=raw, alpha=alpha, u=u)

    def act_mean(self, obs: np.ndarray) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        mean, _ = self.net.forward(obs)
        return self.transform(mean)

    def log_prob(self, obs: np.ndarray, raw: np.ndarray) -> np.ndarray:
        mean, _ = self.net.forward(obs)
        return gaussian_log_prob(raw, mean, self.log_std)

    # gradients -------------------------------------------------------------

    def grad_weighted_log_prob(
        self, obs: np.ndarray, raw: np.ndarray, coeffs: np.ndarray
    ) -> np.ndarray:
        """Flat gradient of sum_b coeffs[b] * log pi(raw[b] | obs[b]).

        Layout matches get_flat(): network parameters then log-std.
        """
        obs = np.atleast_2d(np.asarray(obs, dtype=float))
        raw = np.atleast_2d(np.asarray(raw, dtype=float))
        coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
        mean, cache = self.net.forward(obs)
        std = np.exp(self.log_std)
        z = (raw - mean) / std
        grad_mean = coeffs[:, None] * z / std
        net_grad = self.net.backward(cache, grad_mean)
        grad_log_std = (coeffs[:, None] * (z**2 - 1.0)).sum(axis=0)
        return np.concatenate([net_grad, grad_log_std])

    def grad_entropy(self) -> np.ndarray:
        """Flat gradient of the (state-independent) entropy of one action draw."""
        return np.concatenate([np.zeros(self.net.n_params), np.ones(self.log_std.size)])

    def grad_alloc_mse(self, obs: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss and flat gradient of mean squared error between the deterministic
        allocation (structural layer applied to the mean) and target allocations.
        Used for warm-starting the allocation head toward a heuristic."""
        if self.head.alloc is None:
            raise ValueError("actor has no allocation head")
        obs = np.atleast_2d(np.asarray(obs, dtype=float))
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        mean, cache = self.net.forward(obs)
        raw_alloc = mean[:, : self.head.alloc_raw_dim]
        if self.head.alloc == "simplex":
            alloc = simplex_layer(raw_alloc, self.head.alpha_total)
        else:
            alloc = positive_layer(raw_alloc)
        n = obs.shape[0]
        diff = alloc - targets
        loss = float((diff**2).sum() / n)
        g_alloc = 2.0 * diff / n
        if self.head.alloc == "simplex":
            g_raw = simplex_layer_grad(raw_alloc, self.head.alpha_total, g_alloc)
        else:
            g_raw = positive_layer_grad(raw_alloc, g_alloc)
        grad_mean = np.zeros_like(mean)
        grad_mean[:, : self.head.alloc_raw_dim] = g_raw
        net_grad = self.net.backward(cache, grad_mean)
        return loss, np.concatenate([net_grad, np.zeros(self.log_std.size)])

    # flat parameters -------------------------------------------------------

    @property
    def n_params(self) -> int:
        return self.net.n_params + self.log_std.size

    def get_flat(self) -> np.ndarray:
        return np.concatenate([self.net.get_flat(), self.log_std])

    def set_flat(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {vec.shape}")
        self.net.set_flat(vec[: self.net.n_params])
        self.log_std = vec[self.net.n_params :].copy()


class ValueNet:
    """Scalar state-value estimator."""

    def __init__(
        self,
        obs_dim: int,
        hidden: tuple[int, ...] = (64, 64),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.net = MLP((obs_dim, *hidden, 1), rng)

    @property
    def obs_dim(self) -> int:
        return self.net.in_dim

    @property
    def n_params(self) -> int:
        return self.net.n_params

    def values(self, obs: np.ndarray) -> np.ndarray:
        out, _ = self.net.forward(obs)
        return out[:, 0]

    def grad_weighted(self, obs: np.ndarray, dloss_dv: np.ndarray) -> np.ndarray:
        """Flat gradient of a loss whose per-sample derivative w.r.t. the value is dloss_dv."""
        obs = np.atleast_2d(np.asarray(obs, dtype=float))
        _, cache = self.net.forward(obs)
        return self.net.backward(cache, np.asarray(dloss_dv, dtype=float).reshape(-1, 1))

    def get_flat(self) -> np.ndarray:
        return self.net.get_flat()

    def set_flat(self, vec: np.ndarray) -> None:
        self.net.set_flat(vec)


# ---------------------------------------------------------------------------
# optimizers


class SGD:
    def step(self, params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        return params - lr * grad


class RMSProp:
    """Adaptive per-parameter scaling, matching the usual actor-critic choice."""

    def __init__(self, decay: float = 0.99, eps: float = 1e-8) -> None:
        self.decay = decay
        self.eps = eps
        self.cache: Optional[np.ndarray] = None

    def step(self, params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        if self.cache is None:
            self.cache = np.zeros_like(params)
        self.cache = self.decay * self.cache + (1.0 - self.decay) * grad**2
        return params - lr * grad / (np.sqrt(self.cache) + self.eps)


def make_optimizer(name: str):
    if name == "sgd":
        return SGD()
    if name == "rmsprop":
        return RMSProp()
    raise ValueError(f"unknown optimizer {name!r}")


def clip_global_norm(grad: np.ndarray, max_norm: float) -> np.ndarray:
    """Rescale grad so its 2-norm is at most max_norm (no-op when max_norm <= 0)."""
    if max_norm <= 0:
        return grad
    norm = float(np.linalg.norm(grad))
    if norm > max_norm:
        return grad * (max_norm / norm)
    return grad


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_FORMAT = 1


def _head_to_arrays(head: HeadSpec) -> dict:
    return {
        "head_n_plants": np.array(head.n_plants),
        "head_alloc": np.array(head.alloc or ""),
        "head_alpha_total": np.array(np.nan if head.alpha_total is None else head.alpha_total),
        "head_control_dim": np.array(head.control_dim),
        "head_control_low": np.array(np.nan if head.control_low is None else head.control_low),
        "head_control_high": np.array(np.nan if head.control_high is None else head.control_high),
    }


def _head_from_arrays(data) -> HeadSpec:
    alloc = str(data["head_alloc"])
    low = float(data["head_control_low"])
    high = float(data["head_control_high"])
    total = float(data["head_alpha_total"])
    return HeadSpec(
        n_plants=int(data["head_n_plants"]),
        alloc=alloc or None,
        alpha_total=None if np.isnan(total) else total,
        control_dim=int(data["head_control_dim"]),
        control_low=None if np.isnan(low) else low,
        control_high=None if np.isnan(high) else high,
    )


def _net_arrays(net: MLP) -> dict:
    out = {"sizes": np.array(net.sizes), "activation": np.array("tanh")}
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        out[f"w{l}"] = w
        out[f"b{l}"] = b
    return out


def _load_net(data) -> MLP:
    if str(data["activation"]) != "tanh":
        raise ValueError(f"unsupported activation {data['activation']!r}")
    sizes = tuple(int(s) for s in data["sizes"])
    net = MLP(sizes)
    for l in range(len(sizes) - 1):
        net.weights[l] = np.asarray(data[f"w{l}"], dtype=float)
        net.biases[l] = np.asarray(data[f"b{l}"], dtype=float)
    return net


def save_actor(path: str, actor: GaussianActor) -> None:
    np.savez(
        path,
        format=np.array(CHECKPOINT_FORMAT),
        kind=np.array("actor"),
        log_std=actor.log_std,
        **_net_arrays(actor.net),
        **_head_to_arrays(actor.head),
    )


def load_actor(path: str) -> GaussianActor:
    with np.load(path, allow_pickle=False) as data:
        if int(data["format"]) != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format {int(data['format'])}")
        if str(data["kind"]) != "actor":
            raise ValueError(f"checkpoint holds a {data['kind']!r}, expected actor")
        head = _head_from_arrays(data)
        net = _load_net(data)
        actor = GaussianActor(net.in_dim, head, hidden=net.sizes[1:-1])
        actor.net = net
        actor.log_std = np.asarray(data["log_std"], dtype=float)
    return actor


def save_critic(path: str, critic: ValueNet) -> None:
    np.savez(
        path,
        format=np.array(CHECKPOINT_FORMAT),
        kind=np.array("critic"),
        **_net_arrays(critic.net),
    )


def load_critic(path: str) -> ValueNet:
    with np.load(path, allow_pickle=False) as data:
        if int(data["format"]) != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format {int(data['format'])}")
        if str(data["kind"]) != "critic":
            raise ValueError(f"checkpoint holds a {data['kind']!r}, expected critic")
        net = _load_net(data)
        critic = ValueNet(net.in_dim, hidden=net.sizes[1:-1])
        critic.net = net
    return critic


# ---------------------------------------------------------------------------
# finite differences (test oracle hook, also used by the gradient-check command)


def finite_difference_grad(
    f: Callable[[np.ndarray], float], x0: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        step = np.zeros_like(x0)
        step[i] = eps
        grad[i] = (f(x0 + step) - f(x0 - step)) / (2.0 * eps)
    return grad

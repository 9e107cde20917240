"""Dense networks with hand-written backprop, Gaussian policy heads, the
structural output layers that keep sampled actions feasible, and the
self-check (`wcsrl gradcheck`) of their analytic gradients against
central differences.

Everything is float64 numpy. Policies sample in an unconstrained raw
space (diagonal Gaussian, state-dependent mean from the network,
learned state-independent log-std); the raw sample is then pushed
through a structural layer (simplex / softplus / interval) and the
log-probability is taken with respect to the raw-space Gaussian.

A network may stack several members of the same shape along leading
axes of every parameter (`members`, empty for a single network): the
per-plant controller actors run as one network of m members. A stacked
network takes inputs `members + (rows, n_in)`, returns `members + (...)`,
and its flat parameters and gradients are `members + (n_params,)`, one
row per member in the single-network layout; each member gets the same
numbers, bit for bit, as it would alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def softmax(x: np.ndarray) -> np.ndarray:
    z = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


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
    """Log density of a diagonal Gaussian, summed over the last axis; log_std
    broadcasts against sample."""
    z = (sample - mean) / np.exp(log_std)
    d = sample.shape[-1]
    return -0.5 * (z**2).sum(axis=-1) - log_std.sum(axis=-1) - 0.5 * d * LOG_2PI


# ---------------------------------------------------------------------------
# dense network


class MLP:
    """Fully connected net, tanh hidden layers, linear output.

    forward() returns the output plus a cache; backward() consumes the
    cache and an output gradient and returns flat parameter gradients.
    Weight layout per layer l: w[l] members + (n_in, n_out), b[l]
    members + (n_out,), both initialized uniformly in +-1/sqrt(n_in); a
    new network is a single one, MLP.stack makes a stacked one.
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

    @classmethod
    def stack(cls, nets: list[MLP]) -> MLP:
        """One network whose member i is nets[i] (same sizes, single networks)."""
        if len({n.sizes for n in nets}) != 1 or any(n.members for n in nets):
            sizes = [n.sizes for n in nets]
            raise ValueError(f"can stack only single networks of one shape, got {sizes}")
        out = cls(nets[0].sizes)
        out.weights = [np.stack(ws) for ws in zip(*(n.weights for n in nets))]
        out.biases = [np.stack(bs) for bs in zip(*(n.biases for n in nets))]
        return out

    def member(self, i: int) -> MLP:
        """Member i of a stacked network as a single network sharing its arrays."""
        out = MLP(self.sizes)
        out.weights = [w[i] for w in self.weights]
        out.biases = [b[i] for b in self.biases]
        return out

    @property
    def members(self) -> tuple[int, ...]:
        return self.weights[0].shape[:-2]

    @property
    def in_dim(self) -> int:
        return self.sizes[0]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[-1] != self.in_dim:
            raise ValueError(f"input width {x.shape[-1]} != {self.in_dim}")
        cache = [x]
        n_layers = len(self.weights)
        for l in range(n_layers):
            x = x @ self.weights[l]
            x += self.biases[l][..., None, :]
            if l < n_layers - 1:
                np.tanh(x, out=x)
            cache.append(x)
        return x, cache

    def backward(self, cache: list[np.ndarray], grad_out: np.ndarray) -> np.ndarray:
        """Flat gradient of sum_b loss_b when grad_out[..., b, :] = dloss_b/doutput_b."""
        g = np.asarray(grad_out, dtype=float)
        if g.ndim == 1:
            g = g[None, :]
        grads_w = [np.empty(0)] * len(self.weights)
        grads_b = [np.empty(0)] * len(self.biases)
        for l in reversed(range(len(self.weights))):
            a_in = cache[l]
            grads_w[l] = a_in.swapaxes(-1, -2) @ g
            grads_b[l] = g.sum(axis=-2)
            if l > 0:
                g = (g @ self.weights[l].swapaxes(-1, -2)) * (1.0 - a_in**2)
        return self._flatten(arr for pair in zip(grads_w, grads_b) for arr in pair)

    # flat parameter vector <-> structured weights

    def _flatten(self, arrays) -> np.ndarray:
        """Per-layer arrays as members + (n_params,), layer by layer."""
        lead = self.members + (-1,)
        return np.concatenate([arr.reshape(lead) for arr in arrays], axis=-1)

    @property
    def n_params(self) -> int:
        """Parameters per member."""
        return sum((n_in + 1) * n_out for n_in, n_out in zip(self.sizes[:-1], self.sizes[1:]))

    def get_flat(self) -> np.ndarray:
        return self._flatten(arr for pair in zip(self.weights, self.biases) for arr in pair)

    def set_flat(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=float)
        if vec.shape != self.members + (self.n_params,):
            raise ValueError(
                f"expected {self.members + (self.n_params,)} parameters, got {vec.shape}"
            )
        k = 0
        for l, (n_in, n_out) in enumerate(zip(self.sizes[:-1], self.sizes[1:])):
            self.weights[l] = vec[..., k : k + n_in * n_out].reshape(self.weights[l].shape)
            k += n_in * n_out
            self.biases[l] = vec[..., k : k + n_out].copy()
            k += n_out


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
    """Stochastic policy: network mean, learned log-std, structural heads.

    A stacked actor (GaussianActor.stack) has log_std members + (raw_dim,)
    and one head shared by every member.
    """

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

    @classmethod
    def stack(cls, actors: list[GaussianActor]) -> GaussianActor:
        """One actor whose member i is actors[i] (all single, with one head)."""
        if any(a.head != actors[0].head for a in actors):
            raise ValueError("can stack only actors with one head")
        out = cls(actors[0].obs_dim, actors[0].head, actors[0].net.sizes[1:-1])
        out.net = MLP.stack([a.net for a in actors])
        out.log_std = np.stack([a.log_std for a in actors])
        return out

    def member(self, i: int) -> GaussianActor:
        """Member i of a stacked actor as a single actor sharing its arrays."""
        out = GaussianActor(self.obs_dim, self.head, self.net.sizes[1:-1])
        out.net = self.net.member(i)
        out.log_std = self.log_std[i]
        return out

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
            alpha = simplex_layer(raw[..., : head.alloc_raw_dim], head.alpha_total)
        elif head.alloc == "softplus":
            alpha = positive_layer(raw[..., : head.alloc_raw_dim])
        if head.control_dim > 0:
            block = raw[..., head.alloc_raw_dim :]
            if head.bounded_control:
                block = interval_layer(block, head.control_low, head.control_high)
            u = block.reshape(block.shape[:-1] + (head.n_plants, head.control_dim))
        if squeeze:
            alpha = None if alpha is None else alpha[0]
            u = None if u is None else u[0]
        return alpha, u

    def sample(self, obs: np.ndarray, rng: np.random.Generator) -> ActionSample:
        mean, _ = self.net.forward(obs)
        std = np.exp(self.log_std)[..., None, :]
        raw = mean + std * rng.standard_normal(mean.shape)
        alpha, u = self.transform(raw)
        return ActionSample(raw=raw, alpha=alpha, u=u)

    def act_mean(self, obs: np.ndarray) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        mean, _ = self.net.forward(obs)
        return self.transform(mean)

    def log_prob(self, obs: np.ndarray, raw: np.ndarray) -> np.ndarray:
        mean, _ = self.net.forward(obs)
        return gaussian_log_prob(raw, mean, self.log_std[..., None, :])

    # gradients -------------------------------------------------------------

    def grad_weighted_log_prob(
        self, obs: np.ndarray, raw: np.ndarray, coeffs: np.ndarray
    ) -> np.ndarray:
        """Flat gradient of sum_b coeffs[b] * log pi(raw[b] | obs[b]).

        Layout matches get_flat(): network parameters then log-std. A
        stacked actor takes obs members + (rows, obs_dim) and coeffs
        members + (rows,).
        """
        obs = np.atleast_2d(np.asarray(obs, dtype=float))
        raw = np.atleast_2d(np.asarray(raw, dtype=float))
        coeffs = np.asarray(coeffs, dtype=float).reshape(self.net.members + (-1,))
        mean, cache = self.net.forward(obs)
        std = np.exp(self.log_std)[..., None, :]
        z = (raw - mean) / std
        grad_mean = coeffs[..., None] * z / std
        net_grad = self.net.backward(cache, grad_mean)
        grad_log_std = (coeffs[..., None] * (z**2 - 1.0)).sum(axis=-2)
        return np.concatenate([net_grad, grad_log_std], axis=-1)

    def grad_entropy(self) -> np.ndarray:
        """Flat gradient of the (state-independent) entropy of one action draw."""
        members = self.net.members
        return np.concatenate(
            [np.zeros(members + (self.net.n_params,)), np.ones(self.log_std.shape)], axis=-1
        )

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
        """Parameters per member."""
        return self.net.n_params + self.head.raw_dim

    def get_flat(self) -> np.ndarray:
        return np.concatenate([self.net.get_flat(), self.log_std], axis=-1)

    def set_flat(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=float)
        if vec.shape != self.net.members + (self.n_params,):
            raise ValueError(
                f"expected {self.net.members + (self.n_params,)} parameters, got {vec.shape}"
            )
        self.net.set_flat(vec[..., : self.net.n_params])
        self.log_std = vec[..., self.net.n_params :].copy()


class ValueNet:
    """Scalar state-value estimator; ValueNet.stack stacks members like MLP."""

    def __init__(
        self,
        obs_dim: int,
        hidden: tuple[int, ...] = (64, 64),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.net = MLP((obs_dim, *hidden, 1), rng)

    @classmethod
    def stack(cls, critics: list[ValueNet]) -> ValueNet:
        """One critic whose member i is critics[i]."""
        out = cls(critics[0].obs_dim, critics[0].net.sizes[1:-1])
        out.net = MLP.stack([c.net for c in critics])
        return out

    def member(self, i: int) -> ValueNet:
        """Member i of a stacked critic as a single critic sharing its arrays."""
        out = ValueNet(self.obs_dim, self.net.sizes[1:-1])
        out.net = self.net.member(i)
        return out

    @property
    def obs_dim(self) -> int:
        return self.net.in_dim

    @property
    def n_params(self) -> int:
        return self.net.n_params

    def forward(self, obs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Values (..., rows) and the cache backward() takes."""
        out, cache = self.net.forward(obs)
        return out[..., 0], cache

    def backward(self, cache: list[np.ndarray], dloss_dv: np.ndarray) -> np.ndarray:
        """Flat gradient of a loss whose per-sample derivative w.r.t. the value
        is dloss_dv, at the forward pass that left cache."""
        return self.net.backward(cache, np.asarray(dloss_dv, dtype=float)[..., None])

    def values(self, obs: np.ndarray) -> np.ndarray:
        return self.forward(obs)[0]

    def grad_weighted(self, obs: np.ndarray, dloss_dv: np.ndarray) -> np.ndarray:
        """Flat gradient of a loss whose per-sample derivative w.r.t. the value is dloss_dv."""
        return self.backward(self.forward(obs)[1], dloss_dv)

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
    """Rescale each member's gradient (the last axis) so its 2-norm is at most
    max_norm (no-op when max_norm <= 0)."""
    if max_norm <= 0:
        return grad
    # (1, n) @ (n, 1) is the BLAS dot product np.linalg.norm takes of one vector
    norm = np.sqrt(grad[..., None, :] @ grad[..., :, None])[..., 0]
    if not np.count_nonzero(norm > max_norm):
        return grad
    # a member at or under the bound scales by exactly 1.0
    return grad * (max_norm / np.maximum(norm, max_norm))


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
# gradient self-check


def finite_difference_grad(model, loss: Callable[[], float], eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of loss() in model's flat parameters,
    which are perturbed one at a time and restored afterwards."""
    flat = model.get_flat()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        probe = flat.copy()
        probe[i] = flat[i] + eps
        model.set_flat(probe)
        up = loss()
        probe[i] = flat[i] - eps
        model.set_flat(probe)
        grad[i] = (up - loss()) / (2.0 * eps)
    model.set_flat(flat)
    return grad


def gradient_error(model, loss: Callable[[], float], analytic: np.ndarray) -> float:
    """Worst relative error of an analytic gradient of loss() against central
    differences, relative to the larger magnitude or 1."""
    numeric = finite_difference_grad(model, loss)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float(np.max(np.abs(analytic - numeric) / denom))


@dataclass
class GradcheckCase:
    name: str
    max_rel_err: float
    passed: bool


@dataclass
class GradcheckReport:
    cases: list
    tolerance: float
    n_networks: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def max_rel_err(self) -> float:
        return max(c.max_rel_err for c in self.cases)


def gradient_check(
    seed: int = 0,
    batch: int = 4,
    tolerance: float = 1e-4,
    hidden: tuple = (8, 8),
    min_networks: int = 50,
) -> GradcheckReport:
    """Compare analytic policy/value gradients with central differences.

    Every head composition used by the approaches plus the critic and the
    warm-start MSE path, repeated with fresh random networks until at
    least min_networks have been checked. Small nets keep the parameter
    loop fast. Reported per case: the worst relative error seen.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 9])))
    m, state_dim = 3, 3
    joint_obs = m * (1 + state_dim)
    simplex = dict(n_plants=m, alloc="simplex", alpha_total=float(m))
    softplus = dict(n_plants=m, alloc="softplus")
    # (name, head, observation size); the bounded control head is a cart-pole plant's
    head_cases = [
        ("simplex_alloc", HeadSpec(**simplex), joint_obs),
        ("softplus_alloc", HeadSpec(**softplus), joint_obs),
        ("joint_simplex_control", HeadSpec(**simplex, control_dim=2), joint_obs),
        ("joint_softplus_control", HeadSpec(**softplus, control_dim=2), joint_obs),
        ("control_unbounded", HeadSpec(n_plants=1, control_dim=2), 1 + state_dim + 1),
        (
            "control_bounded",
            HeadSpec(n_plants=1, control_dim=1, control_low=-10.0, control_high=10.0),
            1 + 4 + 1,
        ),
    ]
    worst: dict[str, float] = {}

    def note(name: str, err: float) -> None:
        worst[name] = max(worst.get(name, 0.0), err)

    reps = max(1, -(-min_networks // (len(head_cases) + 1)))
    for _ in range(reps):
        for name, head, obs_dim in head_cases:
            actor = GaussianActor(obs_dim, head, hidden, rng)
            obs = rng.standard_normal((batch, obs_dim))
            raw = actor.net.forward(obs)[0] + 0.3 * rng.standard_normal((batch, head.raw_dim))
            coeffs = rng.standard_normal(batch)
            analytic = actor.grad_weighted_log_prob(obs, raw, coeffs)
            log_lik = lambda: float(np.sum(coeffs * actor.log_prob(obs, raw)))
            note(name, gradient_error(actor, log_lik, analytic))

            if head.alloc is not None:
                targets = np.abs(rng.standard_normal((batch, m)))
                if head.alloc == "simplex":
                    targets = (
                        targets / targets.sum(axis=1, keepdims=True) * (0.5 * head.alpha_total)
                    )
                _, analytic = actor.grad_alloc_mse(obs, targets)
                mse = lambda: float(actor.grad_alloc_mse(obs, targets)[0])
                note(f"{name}_warmstart_mse", gradient_error(actor, mse, analytic))

        critic = ValueNet(joint_obs, hidden, rng)
        obs = rng.standard_normal((batch, joint_obs))
        coeffs = rng.standard_normal(batch)
        analytic = critic.grad_weighted(obs, coeffs)
        value = lambda: float(np.sum(coeffs * critic.values(obs)))
        note("critic_value", gradient_error(critic, value, analytic))

    cases = [GradcheckCase(name, err, err < tolerance) for name, err in worst.items()]
    n_networks = reps * (len(head_cases) + 1)
    return GradcheckReport(cases=cases, tolerance=tolerance, n_networks=n_networks)

"""Dense networks with hand-written backprop, Gaussian policy heads, the
structural output layers that keep sampled actions feasible, and the
self-check (`wcsrl gradcheck`) of their analytic gradients against
central differences.

Everything is float64 numpy. Policies sample in an unconstrained raw
space (diagonal Gaussian, state-dependent mean from the network,
learned state-independent log-std); the raw sample is then pushed
through a structural layer (simplex / softplus / interval) and the
log-probability is taken with respect to the raw-space Gaussian.

A critic is a plain MLP with one output: its values are
`forward(obs)[0][..., 0]`.

Every network keeps its parameters in one array, `params`, shaped
`members + (n_params,)`: layer by layer (weights, then biases), then an
actor's log-std. `weights`, `biases` and `log_std` are views of it,
written through and never rebound, so a write to any of them or to
`params` reaches all. Networks take row matrices only: inputs are
`members + (rows, n_in)`. `members` is empty for a single network; the
per-plant controller actors and critics run as one network of m members
each, which has one parameter and gradient row per member and gives each
member the numbers it would get alone, bit for bit. A checkpoint is
one map of a network's settings and parameter views (_checkpoint):
save_actor and save_critic write it, and load_actor and load_critic
check a file against the map of the network they fill, then fill it.
"""
from __future__ import annotations

import copy
import math
import zipfile
from dataclasses import dataclass, fields
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
# one parameter array per network


def _views(params: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive blocks of params' last axis, block k viewed as
    params.shape[:-1] + shapes[k]."""
    views, k = [], 0
    for shape in shapes:
        n = math.prod(shape)
        views.append(params[..., k : k + n].reshape(params.shape[:-1] + shape))
        k += n
    return views


class _Params:
    """What MLP and GaussianActor share: the one array `params`,
    members + (n_params,), stacking and member views over it, and the flat
    get/set. A subclass cuts its views of params in _bind."""

    params: np.ndarray

    def _bind(self, params: np.ndarray) -> None:
        raise NotImplementedError

    @property
    def _spec(self) -> tuple:
        """What networks stacked together must share: layer sizes and head."""
        return getattr(self, "net", self).sizes, getattr(self, "head", None)

    def _over(self, params: np.ndarray):
        """A copy of this network whose parameters are params."""
        out = copy.copy(self)
        out._bind(params)
        return out

    @classmethod
    def stack(cls, nets: list):
        """One network whose member i is nets[i] (single networks of one shape)."""
        if any(n._spec != nets[0]._spec or n.members for n in nets):
            specs = [n._spec for n in nets]
            raise ValueError(f"can stack only single networks of one shape, got {specs}")
        return nets[0]._over(np.stack([n.params for n in nets]))

    def member(self, i: int):
        """Member i of a stacked network as a single network sharing its array."""
        return self._over(self.params[i])

    @property
    def members(self) -> tuple[int, ...]:
        return self.params.shape[:-1]

    @property
    def n_params(self) -> int:
        """Parameters per member."""
        return self.params.shape[-1]

    def get_flat(self) -> np.ndarray:
        """A copy of params."""
        return self.params.copy()

    def set_flat(self, vec: np.ndarray) -> None:
        """Copy vec into params."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != self.params.shape:
            raise ValueError(f"expected {self.params.shape} parameters, got {vec.shape}")
        self.params[...] = vec


# ---------------------------------------------------------------------------
# dense network


class MLP(_Params):
    """Fully connected net, tanh hidden layers, linear output.

    forward() returns the output plus a cache; backward() consumes the
    cache and an output gradient and returns flat parameter gradients.
    params holds, layer by layer, w[l] members + (n_in, n_out) and then
    b[l] members + (n_out,); weights[l] and biases[l] are views of it,
    written through and never rebound. Both are initialized uniformly in
    +-1/sqrt(n_in); a new network is a single one, MLP.stack makes a
    stacked one.
    """

    def __init__(self, sizes: tuple[int, ...], rng: Optional[np.random.Generator] = None) -> None:
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(s < 1 for s in sizes):
            raise ValueError(f"all layer sizes must be positive, got {sizes}")
        self.sizes = tuple(int(s) for s in sizes)
        pairs = list(zip(self.sizes[:-1], self.sizes[1:]))
        self._shapes = [shape for n_in, n_out in pairs for shape in ((n_in, n_out), (n_out,))]
        self._bind(np.zeros(sum((n_in + 1) * n_out for n_in, n_out in pairs)))
        if rng is not None:
            for w, b in zip(self.weights, self.biases):
                bound = 1.0 / np.sqrt(w.shape[0])
                w[...] = rng.uniform(-bound, bound, size=w.shape)
                b[...] = rng.uniform(-bound, bound, size=b.shape)

    def _bind(self, params: np.ndarray) -> None:
        self.params = params
        views = _views(params, self._shapes)
        self.weights, self.biases = views[0::2], views[1::2]

    @property
    def in_dim(self) -> int:
        return self.sizes[0]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Outputs members + (rows, n_out) of inputs members + (rows, n_in),
        and the cache backward() takes."""
        x = np.asarray(x, dtype=float)
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

    def backward(
        self, cache: list[np.ndarray], grad_out: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Flat gradient of sum_b loss_b when grad_out[..., b, :] = dloss_b/doutput_b,
        written into out (shaped like params) when given, else into a new array."""
        g = np.asarray(grad_out, dtype=float)
        grad = np.empty(self.params.shape) if out is None else out
        views = _views(grad, self._shapes)
        for l in reversed(range(len(self.weights))):
            a_in = cache[l]
            np.matmul(a_in.swapaxes(-1, -2), g, out=views[2 * l])
            np.add.reduce(g, axis=-2, out=views[2 * l + 1])
            if l > 0:
                g = (g @ self.weights[l].swapaxes(-1, -2)) * (1.0 - a_in**2)
        return grad


# ---------------------------------------------------------------------------
# policy networks


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


class GaussianActor(_Params):
    """Stochastic policy: network mean, learned log-std, structural heads.

    params holds net.params and then log_std, both views of it. A stacked
    actor (GaussianActor.stack) has log_std members + (raw_dim,) and one
    head shared by every member.
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
        self.net = net = MLP((obs_dim, *hidden, head.raw_dim), rng)
        self._bind(np.empty(net.n_params + head.raw_dim))
        self.net.params[...] = net.params
        self.log_std[...] = init_log_std

    def _bind(self, params: np.ndarray) -> None:
        self.params = params
        net_params, self.log_std = self._split(params)
        self.net = self.net._over(net_params)

    def _split(self, flat: np.ndarray) -> list[np.ndarray]:
        """The network part and the log-std part of a params-shaped array."""
        return _views(flat, [(self.net.n_params,), (self.head.raw_dim,)])

    @property
    def obs_dim(self) -> int:
        return self.net.in_dim

    def transform(self, raw: np.ndarray) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Map raw-space values to environment actions (alpha, u)."""
        raw = np.asarray(raw, dtype=float)
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

        Layout matches params: network parameters then log-std. A
        stacked actor takes obs members + (rows, obs_dim) and coeffs
        members + (rows,).
        """
        coeffs = np.asarray(coeffs, dtype=float).reshape(self.net.members + (-1,))
        mean, cache = self.net.forward(obs)
        std = np.exp(self.log_std)[..., None, :]
        z = (raw - mean) / std
        grad_mean = coeffs[..., None] * z / std
        grad = np.empty(self.params.shape)
        net_grad, grad_log_std = self._split(grad)
        self.net.backward(cache, grad_mean, out=net_grad)
        np.add.reduce(coeffs[..., None] * (z**2 - 1.0), axis=-2, out=grad_log_std)
        return grad

    def grad_entropy(self) -> np.ndarray:
        """Flat gradient of the (state-independent) entropy of one action draw."""
        grad = np.zeros(self.params.shape)
        self._split(grad)[1][...] = 1.0
        return grad

    def grad_alloc_mse(self, obs: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss and flat gradient of mean squared error between the deterministic
        allocation (structural layer applied to the mean) and target allocations.
        Used for warm-starting the allocation head toward a heuristic."""
        if self.head.alloc is None:
            raise ValueError("actor has no allocation head")
        mean, cache = self.net.forward(obs)
        alloc = self.transform(mean)[0]
        raw_alloc = mean[:, : self.head.alloc_raw_dim]
        n = mean.shape[0]
        diff = alloc - targets
        loss = float((diff**2).sum() / n)
        g_alloc = 2.0 * diff / n
        if self.head.alloc == "simplex":
            g_raw = simplex_layer_grad(raw_alloc, self.head.alpha_total, g_alloc)
        else:
            g_raw = positive_layer_grad(raw_alloc, g_alloc)
        grad_mean = np.zeros_like(mean)
        grad_mean[:, : self.head.alloc_raw_dim] = g_raw
        grad = np.zeros(self.params.shape)
        self.net.backward(cache, grad_mean, out=self._split(grad)[0])
        return loss, grad


# ---------------------------------------------------------------------------
# optimizers


class SGD:
    def step(self, params: np.ndarray, grad: np.ndarray, lr: float) -> None:
        """Update params in place."""
        params -= lr * grad


class RMSProp:
    """Adaptive per-parameter scaling, matching the usual actor-critic choice."""

    def __init__(self, decay: float = 0.99, eps: float = 1e-8) -> None:
        self.decay = decay
        self.eps = eps
        self.cache: Optional[np.ndarray] = None

    def step(self, params: np.ndarray, grad: np.ndarray, lr: float) -> None:
        """Update params in place."""
        if self.cache is None:
            self.cache = np.zeros_like(params)
        # a new cache each step: kept in place, it leaves the update's temporaries
        # free at the heap top, where glibc trims and refaults them every update
        self.cache = self.decay * self.cache + (1.0 - self.decay) * grad**2
        params -= lr * grad / (np.sqrt(self.cache) + self.eps)


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


def _checkpoint(net) -> dict:
    """What a checkpoint of net, a GaussianActor or an MLP critic, holds, by
    key in stored order: each setting as a Python value (an unset head field
    as NaN or ""), each parameter as net's view (log_std, w{l}, b{l}). save_*
    writes this map; load_* checks a file against it and fills its views."""
    actor = isinstance(net, GaussianActor)
    mlp = net.net if actor else net
    out = {"format": CHECKPOINT_FORMAT, "kind": "actor" if actor else "critic"}
    out.update({"log_std": net.log_std} if actor else {}, sizes=mlp.sizes, activation="tanh")
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        out[f"w{l}"], out[f"b{l}"] = w, b
    for f in fields(HeadSpec) if actor else ():
        value = getattr(net.head, f.name)
        out[f"head_{f.name}"] = ("" if f.name == "alloc" else np.nan) if value is None else value
    return out


def _setting(stored: np.ndarray):
    """A stored setting as an error names it: a tuple for an array, None if unset."""
    value = stored.tolist()
    if isinstance(value, list):
        return tuple(value)
    return None if value == "" or value != value else value


def _load(path: str, into) -> None:
    """Check every setting stored at path against into's, format and kind
    first, then each parameter's shape, and copy the parameters into into's
    views. A difference, a missing key or a file that is not an npz archive
    is a ValueError naming the file."""
    try:
        with np.load(path, allow_pickle=False) as data:
            stored = {key: data[key] for key in data.files}
    except (EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None
    # the settings, then the parameters (views), each in stored order
    want = sorted(_checkpoint(into).items(), key=lambda item: isinstance(item[1], np.ndarray))
    for key, value in want:
        if key not in stored:
            raise ValueError(f"checkpoint {path}: {key} is missing")
        have = stored[key]
        if isinstance(value, np.ndarray):
            if have.shape != value.shape:
                raise ValueError(
                    f"checkpoint {path}: {key} has shape {have.shape}, expected {value.shape}"
                )
            value[...] = have
        else:
            have, need = _setting(have), _setting(np.asarray(value))
            if have != need:
                field = key.replace("head_", "head.")
                raise ValueError(f"checkpoint {path}: {field} is {have!r}, expected {need!r}")


def save_actor(path: str, actor: GaussianActor) -> None:
    np.savez(path, **_checkpoint(actor))


def save_critic(path: str, critic: MLP) -> None:
    np.savez(path, **_checkpoint(critic))


# one loader for both kinds: the stored kind is checked against into's
load_actor = load_critic = _load


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

        critic = MLP((joint_obs, *hidden, 1), rng)
        obs = rng.standard_normal((batch, joint_obs))
        coeffs = rng.standard_normal(batch)
        _, cache = critic.forward(obs)
        analytic = critic.backward(cache, coeffs[..., None])
        value = lambda: float(np.sum(coeffs * critic.forward(obs)[0][..., 0]))
        note("critic_value", gradient_error(critic, value, analytic))

    cases = [GradcheckCase(name, err, err < tolerance) for name, err in worst.items()]
    n_networks = reps * (len(head_cases) + 1)
    return GradcheckReport(cases=cases, tolerance=tolerance, n_networks=n_networks)

"""Pilot-jamming detection and twin-side model redeployment.

Base-station side: a lightweight softmax classifier over per-subcarrier
log-powers flags which pilot (if any) is being jammed; a short debounce
avoids redeploy thrash on single noisy frames. Twin side: a model factory
synthesizes labelled spectrum frames, trains a fresh classifier for the
relocated pilots, and ships it back over the link as a versioned binary
artifact with a trailing checksum.

Synthetic frame model, in float32: a per-subcarrier power template (noise
floor on the guard bands, data power elsewhere, extra power on pilots, plus
jammer power on the attacked pilot) perturbed log-normally by Box-Muller normals.
"""

from __future__ import annotations

import logging
import struct
import time
import zlib
from dataclasses import asdict, dataclass, replace
from typing import Iterable

import numpy as np

from .link import (
    TOPIC_DT_MODEL_ARTIFACT,
    TOPIC_DT_MODEL_REQUEST,
    LinkEndpoint,
    MessageEnvelope,
    TwinService,
)
from .seeds import derive_seed

log = logging.getLogger(__name__)

# power template (linear units) and perturbation
NOISE_POWER = 1.0
DATA_POWER = 4.0
PILOT_POWER = 6.0
JAMMER_POWER = 10.0
LOG_NOISE_SIGMA = 0.1

DEFAULT_N_TRAIN = 5000
DEFAULT_N_TEST = 1000
DEFAULT_LEARNING_RATE = 0.5
DEFAULT_ITERATIONS = 20
MOMENTUM = 0.9
DEFAULT_DEBOUNCE = 3
SUM_BLOCK_ROWS = 128  # rows that the frame draw and the variance sum take at a time

# (n_subcarriers, n_pilots) per named channel scenario
SCENARIOS = {
    "10 MHz": (64, 4),
    "20 MHz": (128, 4),
    "40 MHz": (128, 6),
}

TIMING_CSV_SCHEMA = ["channel_size", "data_transfer_s", "data_collection_s",
                     "data_processing_s", "model_creation_s",
                     "total_deployment_s"]
ACCURACY_CSV_SCHEMA = ["channel_size", "pilot_amount", "train_accuracy",
                       "test_accuracy"]

# The key under which each draw derives its generator from the caller's seed
# (``derive_seed``), so that no two draws share a stream. Keys 7 and 8 give the
# pilot command's relocation and rebuild seeds (the tests' data set takes 6).
SEED_PILOTS, SEED_WEIGHTS, SEED_RELOCATE, SEED_DATA, SEED_FRAMES = range(1, 6)
SEED_NEW_PILOTS, SEED_REBUILD = 7, 8

MODEL_MAGIC = b"TWNM"
MODEL_VERSION = 1


class ModelFormatError(ValueError):
    """Artifact blob violates the versioned binary layout."""


class BadMagicError(ModelFormatError):
    pass


class UnknownVersionError(ModelFormatError):
    pass


class ChecksumError(ModelFormatError):
    """Trailing checksum does not match the artifact body."""


class TrainingDivergedError(RuntimeError):
    def __init__(self, iteration: int):
        super().__init__(f"training loss became non-finite at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class PilotConfig:
    n_subcarriers: int
    pilot_indices: tuple[int, ...]
    label: str

    def __post_init__(self) -> None:
        indices = self.pilot_indices
        if list(indices) != sorted(set(indices)):
            raise ValueError("pilot indices must be distinct and sorted")
        if indices and (indices[0] < 0 or indices[-1] >= self.n_subcarriers):
            raise ValueError("pilot index out of subcarrier range")

    @property
    def n_pilots(self) -> int:
        return len(self.pilot_indices)

    @classmethod
    def for_scenario(cls, label: str, seed: int = 0) -> "PilotConfig":
        n_subcarriers, n_pilots = SCENARIOS[label]
        rng = np.random.default_rng(derive_seed(seed, SEED_PILOTS))
        lo, hi = data_band(n_subcarriers)
        indices = np.sort(rng.choice(np.arange(lo, hi), size=n_pilots,
                                     replace=False))
        return cls(n_subcarriers, tuple(int(i) for i in indices), label)


def data_band(n_subcarriers: int) -> tuple[int, int]:
    """Half-open index range of data-bearing subcarriers (guards excluded)."""
    guard = n_subcarriers // 8
    return guard, n_subcarriers - guard


def frame_templates(config: PilotConfig) -> np.ndarray:
    """Float32 power templates (n_pilots + 1, K); row p > 0 jams pilot p."""
    powers = np.full((config.n_pilots + 1, config.n_subcarriers), NOISE_POWER, np.float32)
    lo, hi = data_band(config.n_subcarriers)
    powers[:, lo:hi] = DATA_POWER
    powers[:, list(config.pilot_indices)] = PILOT_POWER
    powers[range(1, config.n_pilots + 1), config.pilot_indices] += JAMMER_POWER
    return powers


def standard_normals(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the float32 (rows, K) ``out`` with standard normals (Box-Muller,
    1958): each row takes 2h = 2 ceil(K/2) float32 uniforms u, radii
    r = sqrt(-2 log1p(-u)) from the first h, angles 2 pi u from the last h,
    and is [r cos, r sin][:K]; so a block draws what its rows draw one by one."""
    k = out.shape[1]
    half = -(-k // 2)
    uniforms = rng.random((len(out), 2 * half), np.float32)
    radii = np.sqrt(-2 * np.log1p(-uniforms[:, :half]))
    angles = uniforms[:, half:] * np.float32(2 * np.pi)
    np.multiply(radii, np.cos(angles), out=out[:, :half])
    np.multiply(radii[:, :k - half], np.sin(angles[:, :k - half]), out=out[:, half:])
    return out


def generate_frame(config: PilotConfig, jam_class: int,
                   rng: np.random.Generator,
                   noise_sigma: float = LOG_NOISE_SIGMA) -> np.ndarray:
    """One frame's float32 powers, held in float64; class p > 0 jams pilot p."""
    if not 0 <= jam_class <= config.n_pilots:
        raise ValueError(f"jam_class out of range: {jam_class}")
    powers = frame_templates(config)[jam_class]
    noise = standard_normals(rng, np.empty((1, config.n_subcarriers), np.float32))
    powers *= np.exp(noise[0] * np.float32(noise_sigma))
    return powers.astype(np.float64)


@dataclass(frozen=True)
class NormStats:
    mean: np.ndarray
    std: np.ndarray


def features(powers: np.ndarray, stats: NormStats) -> np.ndarray:
    """Z-scored log-powers."""
    return (np.log(powers) - stats.mean) / stats.std


def _balanced_labels(n: int, n_classes: int, rng: np.random.Generator) -> np.ndarray:
    labels = np.arange(n) % n_classes
    rng.shuffle(labels)
    return labels


def generate_labeled_frames(config: PilotConfig, n: int, rng: np.random.Generator
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Class-balanced float32 raw powers (n, K) and labels (n,):
    ``generate_frame``'s powers over the shuffled labels, bit for bit.
    ``SUM_BLOCK_ROWS`` rows at a time are drawn, scaled, exponentiated and
    multiplied by the template in float32 in the powers array itself."""
    if n < 1:
        raise ValueError(f"need at least one frame, got n={n}")
    out = np.empty((n, config.n_subcarriers), np.float32)
    labels = _balanced_labels(n, config.n_pilots + 1, rng)
    templates = frame_templates(config)
    for start in range(0, n, SUM_BLOCK_ROWS):
        block_labels = labels[start:start + SUM_BLOCK_ROWS]
        powers = standard_normals(rng, out[start:start + len(block_labels)])
        powers *= LOG_NOISE_SIGMA  # generate_frame's noise_sigma * z
        np.exp(powers, out=powers)
        powers *= templates[block_labels]
    return out, labels


def normalize_dataset(train_powers: np.ndarray, test_powers: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, NormStats]:
    """Z-score float32 log-powers in place with the training set's float64
    statistics; ``-= mean`` and ``/= std`` each round to float32. The float64
    squared deviations are summed ``SUM_BLOCK_ROWS`` rows at a time after the
    running total in a (B + 1, K) buffer; ``sum(axis=0)`` adds a C-contiguous
    array's rows one by one, so this is numpy's sum of the squares bit for bit."""
    x_train = np.log(train_powers, out=train_powers)
    mean = x_train.mean(axis=0, dtype=np.float64)
    block = np.empty((min(SUM_BLOCK_ROWS, len(x_train)) + 1, x_train.shape[1]))
    total = np.zeros(x_train.shape[1])
    for start in range(0, len(x_train), SUM_BLOCK_ROWS):
        rows = x_train[start:start + SUM_BLOCK_ROWS]
        block[0] = total
        deviations = np.subtract(rows, mean, out=block[1:len(rows) + 1])
        rows[...] = deviations  # x_train -= mean
        np.square(deviations, out=deviations)
        np.sum(block[:len(rows) + 1], axis=0, out=total)
    std = np.sqrt(total / len(x_train))
    std = np.where(std == 0.0, 1.0, std)  # degenerate features pass through
    x_train /= std
    x_test = np.log(test_powers, out=test_powers)
    x_test -= mean
    x_test /= std
    return x_train, x_test, NormStats(mean, std)


# -- classifier ---------------------------------------------------------------


@dataclass
class ClassifierModel:
    weights: np.ndarray  # (n_classes, K)
    bias: np.ndarray  # (n_classes,)
    pilot_config: PilotConfig
    norm_stats: NormStats
    seed: int = 0

    def __post_init__(self) -> None:
        n_classes = self.pilot_config.n_pilots + 1
        k = self.pilot_config.n_subcarriers
        if self.weights.shape != (n_classes, k) or self.bias.shape != (n_classes,):
            raise ValueError("model dimensions inconsistent with pilot config")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("model parameters must be finite")


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _check_batch(x: np.ndarray, y: np.ndarray, n_classes: int) -> None:
    if x.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    if not np.isfinite(x).all():
        raise ValueError(f"non-finite {x.dtype} features in batch")
    y = np.asarray(y)
    if y.shape != (x.shape[0],) or not np.issubdtype(y.dtype, np.integer):
        raise ValueError(f"labels must be 1-D integers, one per row; got "
                         f"{y.dtype} of shape {y.shape} for {x.shape[0]} rows")
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError(f"labels must lie in [0, {n_classes})")


class _TrainingStep:
    """Mean cross-entropy and its gradient over one fixed, checked batch,
    equal bit for bit to a plain row-major softmax step in the batch's dtype
    that adds each sample's classes one by one.

    The buffers take the batch's dtype, and each call casts the weights and
    bias to it, so a float32 batch runs the whole step in float32 while the
    caller keeps float64 parameters. Both matrix products stay the row-major
    calls on an (n, C) buffer: the other orientation is faster, but gives
    other bits on some BLAS builds and shapes. Between them, the bias, max,
    exp, class sum and divide run on a class-major (C, n) copy, where each
    sweeps the long axis instead of n rows of 5-7 classes; ``sum(axis=0)``
    adds its C rows in order. The bias gradient is the sequential sum over
    samples that ``mean(axis=0)`` makes on the (n, C) buffer; ``einsum``
    makes it without one reduce call per row. The buffers are reused; the
    returned gradients are fresh.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, n_classes: int):
        n, dtype = x.shape[0], x.dtype
        self.x = x
        self.logits = np.empty((n, n_classes), dtype)
        self.class_major = np.empty((n_classes, n), dtype)
        self.per_sample = np.empty(n, dtype)
        self.target = np.asarray(y, dtype=np.intp) * n + np.arange(n)
        self.onehot = np.zeros((n_classes, n), dtype)
        self.onehot.flat[self.target] = 1.0

    def __call__(self, weights: np.ndarray, bias: np.ndarray):
        x, logits, z = self.x, self.logits, self.class_major
        per_sample = self.per_sample
        n = x.shape[0]
        np.matmul(x, weights.astype(x.dtype).T, out=logits)
        np.add(logits.T, bias.astype(x.dtype)[:, None], out=z)
        z -= np.max(z, axis=0, out=per_sample)
        np.exp(z, out=z)
        z /= np.sum(z, axis=0, out=per_sample)
        np.take(z, self.target, out=per_sample, mode="clip")  # indices in range
        loss = float(-np.mean(np.log(per_sample, out=per_sample)))
        z -= self.onehot  # probs - onehot(y)
        np.copyto(logits, z.T)
        return loss, logits.T @ x / n, np.einsum("ij->j", logits) / n


def loss_and_gradient(weights: np.ndarray, bias: np.ndarray,
                      x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy and its analytic gradient for a batch.

    probs = softmax(W x + b); dW = mean((probs - onehot) x^T), db likewise.
    """
    _check_batch(x, y, weights.shape[0])
    return _TrainingStep(x, y, weights.shape[0])(weights, bias)


def train_model(config: PilotConfig,
                x_train: np.ndarray, y_train: np.ndarray,
                norm_stats: NormStats,
                learning_rate: float = DEFAULT_LEARNING_RATE,
                iterations: int = DEFAULT_ITERATIONS,
                seed: int = 0) -> tuple[ClassifierModel, list[float]]:
    """Full-batch gradient descent with heavy-ball momentum
    (``v = MOMENTUM * v - learning_rate * g; w += v``) for a fixed number of
    iterations; returns the model and the loss of each iteration. It converges
    for ``0 < learning_rate < 2 (1 + MOMENTUM) / L`` (Polyak, 1964), where the
    curvature L is at most about 0.7 on z-scored features: 0.5 is 1/3 of 1/L.

    The step runs in float32: on ``x_train`` itself if float32 (the factory's
    is), else on a copy. The weights, bias, velocities and model stay float64.
    The float32 batch is checked once, after the cast, which makes a finite
    float64 feature beyond float32's range ``inf``. ``seed`` draws the weights."""
    n_classes = config.n_pilots + 1
    with np.errstate(over="ignore"):  # an overflow is refused just below
        batch = x_train.astype(np.float32, copy=False)
    _check_batch(batch, y_train, n_classes)
    step = _TrainingStep(batch, y_train, n_classes)
    rng = np.random.default_rng(derive_seed(seed, SEED_WEIGHTS))
    weights = rng.normal(0.0, 0.01, (n_classes, config.n_subcarriers))
    bias = np.zeros(n_classes)
    velocity_w, velocity_b = np.zeros_like(weights), np.zeros_like(bias)
    history: list[float] = []
    for iteration in range(iterations):
        loss, grad_w, grad_b = step(weights, bias)
        if not np.isfinite(loss):
            raise TrainingDivergedError(iteration)
        history.append(loss)
        velocity_w = MOMENTUM * velocity_w - learning_rate * grad_w
        velocity_b = MOMENTUM * velocity_b - learning_rate * grad_b
        weights += velocity_w
        bias += velocity_b
    model = ClassifierModel(weights=weights, bias=bias, pilot_config=config,
                            norm_stats=norm_stats, seed=seed)
    return model, history


def predict(model: ClassifierModel, powers: np.ndarray):
    """(jam_class, probabilities) of a frame's powers; ties go to the lower class."""
    if powers.shape != (model.pilot_config.n_subcarriers,):
        raise ValueError(f"frame length {powers.shape} does not match "
                         f"K={model.pilot_config.n_subcarriers}")
    x = features(powers, model.norm_stats)
    probs = softmax(model.weights @ x + model.bias)
    return int(np.argmax(probs)), probs


def accuracy(model: ClassifierModel, x: np.ndarray, y: np.ndarray) -> float:
    """Share of rows of ``x`` classified as ``y``, computed in ``x``'s dtype:
    the weights and bias are cast to it, so no (n, K) float64 copy is made."""
    probs = softmax(x @ model.weights.T.astype(x.dtype) + model.bias.astype(x.dtype))
    return float(np.mean(np.argmax(probs, axis=1) == y))


# -- model artifact codec ------------------------------------------------------


def encode_model(model: ClassifierModel) -> bytes:
    """Versioned binary blob with trailing CRC32; bitwise round-trip."""
    config = model.pilot_config
    label = config.label.encode("utf-8")
    parts = [
        MODEL_MAGIC,
        struct.pack(">HHHQH", MODEL_VERSION, config.n_subcarriers,
                    config.n_pilots, model.seed, len(label)),
        label,
        struct.pack(f">{config.n_pilots}H", *config.pilot_indices),
        np.ascontiguousarray(model.weights, dtype=">f8").tobytes(),
        np.ascontiguousarray(model.bias, dtype=">f8").tobytes(),
        np.ascontiguousarray(model.norm_stats.mean, dtype=">f8").tobytes(),
        np.ascontiguousarray(model.norm_stats.std, dtype=">f8").tobytes(),
    ]
    body = b"".join(parts)
    return body + struct.pack(">I", zlib.crc32(body))


@dataclass
class _BlobReader:
    """Reads a model artifact or a model request front to back. A read past
    the end, or a label that is not UTF-8, raises ModelFormatError."""

    data: bytes
    offset: int = 0

    def take(self, size: int) -> bytes:
        end = self.offset + size
        if end > len(self.data):
            raise ModelFormatError(
                f"truncated: {end} B needed, {len(self.data)} B given")
        chunk, self.offset = self.data[self.offset : end], end
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def label(self, size: int) -> str:
        try:
            return str(self.take(size), "utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"label is not UTF-8: {exc}") from exc

    def floats(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype=">f8").astype(np.float64)


def decode_model(blob: bytes) -> ClassifierModel:
    if len(blob) < 4 or blob[:4] != MODEL_MAGIC:
        raise BadMagicError("artifact does not start with the model magic")
    body, checksum = blob[:-4], blob[-4:]
    if struct.unpack(">I", checksum)[0] != zlib.crc32(body):
        raise ChecksumError("model artifact checksum mismatch")
    reader = _BlobReader(body, offset=4)
    version, k, p, seed, label_len = reader.unpack(">HHHQH")
    if version != MODEL_VERSION:
        raise UnknownVersionError(f"unsupported model version {version}")
    label = reader.label(label_len)
    pilot_indices = reader.unpack(f">{p}H")
    n_classes = p + 1
    weights = reader.floats(n_classes * k).reshape(n_classes, k)
    bias = reader.floats(n_classes)
    mean = reader.floats(k)
    std = reader.floats(k)
    if reader.offset != len(body):
        raise ModelFormatError("trailing bytes in model artifact")
    config = PilotConfig(k, pilot_indices, label)
    return ClassifierModel(weights=weights, bias=bias, pilot_config=config,
                           norm_stats=NormStats(mean, std), seed=seed)


# -- pilot relocation ----------------------------------------------------------


def select_new_pilots(current: PilotConfig, jammed_index: int,
                      seed: int = 0) -> PilotConfig:
    """Draw a fresh sorted pilot set disjoint from the current one."""
    if jammed_index not in current.pilot_indices:
        raise ValueError(f"{jammed_index} is not a current pilot")
    lo, hi = data_band(current.n_subcarriers)
    candidates = np.array([i for i in range(lo, hi)
                           if i not in current.pilot_indices])
    if len(candidates) < current.n_pilots:
        raise ValueError("not enough free subcarriers to relocate pilots")
    rng = np.random.default_rng(derive_seed(seed, SEED_RELOCATE))
    chosen = np.sort(rng.choice(candidates, size=current.n_pilots, replace=False))
    return PilotConfig(current.n_subcarriers, tuple(int(i) for i in chosen),
                       current.label)


# -- base station and redeploy pipeline ---------------------------------------


@dataclass(frozen=True)
class RedeployTiming:
    data_transfer_s: float
    data_collection_s: float
    data_processing_s: float
    model_creation_s: float
    total_deployment_s: float

    def to_row(self, channel_size: str) -> dict:
        return {"channel_size": channel_size,
                **{name: round(value, 6) for name, value in asdict(self).items()}}


@dataclass(frozen=True)
class JamEvent:
    frame_index: int
    jam_class: int


class BaseStation:
    """Holds the live (model, pilots) pair; swaps are atomic."""

    def __init__(self, model: ClassifierModel):
        self._state = (model, model.pilot_config)

    @property
    def model(self) -> ClassifierModel:
        return self._state[0]

    @property
    def pilots(self) -> PilotConfig:
        return self._state[1]

    def install(self, model: ClassifierModel) -> None:
        # single reference assignment: readers never observe a mixed pair
        self._state = (model, model.pilot_config)

    def detect_loop(self, frames: Iterable[np.ndarray]) -> list[JamEvent]:
        """Classify frames' powers; emit one event per run of >= DEFAULT_DEBOUNCE
        jammed frames."""
        events: list[JamEvent] = []
        consecutive = 0
        armed = True
        for index, frame in enumerate(frames):
            jam_class, _ = predict(self.model, frame)
            if jam_class > 0:
                consecutive += 1
                if armed and consecutive >= DEFAULT_DEBOUNCE:
                    events.append(JamEvent(index, jam_class))
                    armed = False
            else:
                consecutive = 0
                armed = True
        return events


# K, seed, pilot count; then the pilot indices as u16, then the UTF-8 label
_MODEL_REQUEST = ">HQH"
_MAX_SUBCARRIERS = max(k for k, _ in SCENARIOS.values())


def encode_model_request(pilots: PilotConfig, seed: int) -> bytes:
    n = pilots.n_pilots
    return struct.pack(f"{_MODEL_REQUEST}{n}H", pilots.n_subcarriers, seed, n,
                       *pilots.pilot_indices) + pilots.label.encode("utf-8")


def decode_model_request(payload: bytes) -> tuple[PilotConfig, int]:
    reader = _BlobReader(payload)
    k, seed, p = reader.unpack(_MODEL_REQUEST)
    if k > _MAX_SUBCARRIERS:  # the factory would allocate (n, K) arrays of that K
        raise ModelFormatError(f"K={k} is above the largest scenario's {_MAX_SUBCARRIERS}")
    pilot_indices = reader.unpack(f">{p}H")
    label_size = len(payload) - reader.offset
    if label_size > 0xFFFF:  # the artifact carries the label's length as u16
        raise ModelFormatError(f"a {label_size} B label is over 65535 B")
    return PilotConfig(k, pilot_indices, reader.label(label_size)), seed


class ModelFactoryService(TwinService):
    """Twin-side factory: synthesizes data and trains a model on request."""

    request_kind = "ModelRequest"

    def __init__(self, link: LinkEndpoint, n_train: int = DEFAULT_N_TRAIN,
                 n_test: int = DEFAULT_N_TEST):
        super().__init__(link, TOPIC_DT_MODEL_REQUEST)
        self.n_train, self.n_test = n_train, n_test
        self.last_timing: RedeployTiming | None = None
        self.last_accuracies: tuple[float, float] | None = None

    def build_model(self, pilots: PilotConfig, seed: int
                    ) -> tuple[ClassifierModel, RedeployTiming]:
        """The model and its three twin-side stage times; transfer and total
        are left at 0 for ``handle`` (the request's transfer) and
        ``run_redeploy_pipeline`` (the artifact's, and the total) to fill in."""
        rng = np.random.default_rng(derive_seed(seed, SEED_DATA))
        t0 = time.perf_counter()
        train_powers, y_train = generate_labeled_frames(pilots, self.n_train, rng)
        test_powers, y_test = generate_labeled_frames(pilots, self.n_test, rng)
        t1 = time.perf_counter()
        x_train, x_test, stats = normalize_dataset(train_powers, test_powers)
        t2 = time.perf_counter()
        model, _ = train_model(pilots, x_train, y_train, stats, seed=seed)
        t3 = time.perf_counter()
        self.last_accuracies = (accuracy(model, x_train, y_train),
                                accuracy(model, x_test, y_test))
        return model, RedeployTiming(
            data_transfer_s=0.0, data_collection_s=t1 - t0,
            data_processing_s=t2 - t1, model_creation_s=t3 - t2,
            total_deployment_s=0.0)

    def handle(self, envelope: MessageEnvelope) -> None:
        pilots, seed = decode_model_request(envelope.payload)
        try:
            model, timing = self.build_model(pilots, seed)
        except TrainingDivergedError as exc:  # a RuntimeError, which run lets through
            log.warning("dropped %s on %s: %s", envelope.kind, envelope.topic, exc)
            return
        self.last_timing = replace(timing, data_transfer_s=max(
            0.0, (envelope.recv_at - envelope.sent_at) / 1e6))
        self.link.publish_envelope(TOPIC_DT_MODEL_ARTIFACT, "ModelArtifactMsg",
                                   encode_model(model))


def run_redeploy_pipeline(bs: BaseStation, bs_link: LinkEndpoint,
                          factory: ModelFactoryService,
                          new_pilots: PilotConfig, seed: int,
                          timeout: float = 120.0
                          ) -> tuple[ClassifierModel, RedeployTiming]:
    """Request, build, ship, and atomically install a model for new pilots.

    The factory runs in-process (possibly on another thread), which is what
    lets this function assemble base-station transfer stamps and twin-side
    stage timings into one report. On failure the base station keeps its
    old model.
    """
    t_start = time.perf_counter()
    bs_link.publish_envelope(TOPIC_DT_MODEL_REQUEST, "ModelRequest",
                             encode_model_request(new_pilots, seed))
    envelope = bs_link.poll_envelope(timeout, "ModelArtifactMsg")
    if envelope is None:
        raise TimeoutError("no model artifact received from the twin")
    model = decode_model(envelope.payload)  # raises before any swap on corruption
    if model.pilot_config != new_pilots:
        raise ValueError("artifact pilots do not match the requested pilots")
    bs.install(model)
    total = time.perf_counter() - t_start
    artifact_transfer = max(0.0, (envelope.recv_at - envelope.sent_at) / 1e6)
    timing = replace(
        factory.last_timing,
        data_transfer_s=factory.last_timing.data_transfer_s + artifact_transfer,
        total_deployment_s=total,
    )
    return model, timing


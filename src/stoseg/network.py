"""Small encoder-decoder segmentation network with a dilated-conv pyramid.

The encoder is one table, ``_stages(config)``: an ordered list of stages,
each a list of ``(name, ConvSpec)`` branches. Every branch of a stage reads
the previous stage's output (the first stage reads the image) and feeds one
activation site. Sites are numbered in table order, and a stage's output is
its branches' activations concatenated on channels. The stages are:

    stem      3x3 conv, 3 -> stem_width, pad 1
    down1     3x3 conv, stride 2, stem_width -> down_width
    down2     3x3 conv, stride 2, down_width -> down_width
    pyramid   one branch per dilation d: 3x3 conv, pad d, down_width -> aspp_width
    fuse      1x1 conv, branches * aspp_width -> fuse_width

The decoder follows the table in DeepLab order: a 1x1 ``head`` conv to
num_classes logits, bilinear upsample x4, and a channel softmax. The head
and the upsample are both linear and every output pixel's interpolation
weights sum to 1 (bias included), so in real arithmetic this equals
upsampling the features first; running the head first upsamples
num_classes channels instead of fuse_width, and runs the head at the
encoder's resolution. The forward and backward passes, the site count and
channels, parameter init and checkpoint validation all walk the table.

``predict_batch`` runs ``forward`` over consecutive blocks of
``_PREDICT_BLOCK`` (4) images and writes each block's probabilities into one
preallocated output. Every op of the forward pass works per image or per
pixel (the conv's batched matmul is one GEMM of the same shape per image),
so the result is bit-identical to one pass over the whole batch; blocking
only bounds the intermediates. At the default config, numpy's traced peak
while one member predicts 64 images is about 7.7 MB (2 MB of it the output)
instead of 91 MB in one pass. A block of 4 keeps a block's working set
(about 5 MB) below the heap-trim threshold that glibc's malloc adapts to the
largest array freed so far, so the next block reuses the pages one block
frees. With blocks of 8 (about 10 MB), unless a larger array had been freed
before, those pages went back to the kernel and were faulted in again for
every block.

Gradients are exchanged as a "GradMap": a plain dict from parameter name
("stem.w", "act0.params", ...) to an array of the parameter's shape.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .activations import ActivationKind, ActivationState, PARAM_COUNTS, act_backward, act_forward, act_init
from .fileio import write_atomic
from .rng import SplitMix64

CHECKPOINT_FORMAT = "stoseg-model"
CHECKPOINT_VERSION = 1

ASSIGNMENT_MODES = ("act", "sto", "relu")

_UPSAMPLE = 4  # decoder upsampling factor
_PREDICT_BLOCK = 4  # images per forward pass in predict_batch

Layer = tuple[str, ops.ConvSpec]


@dataclass(frozen=True)
class NetworkConfig:
    input_size: int = 64
    stem_width: int = 16
    down_width: int = 32
    aspp_width: int = 16
    fuse_width: int = 32
    aspp_dilations: tuple[int, ...] = (1, 2, 4)
    num_classes: int = 2

    def __post_init__(self):
        if self.input_size < 8 or self.input_size % 4 != 0:
            raise ValueError(
                f"input_size must be >= 8 and divisible by 4, got {self.input_size}"
            )
        for w in (self.stem_width, self.down_width, self.aspp_width, self.fuse_width):
            if w < 1:
                raise ValueError("channel widths must be >= 1")
        if not self.aspp_dilations or any(d < 1 for d in self.aspp_dilations):
            raise ValueError(f"dilations must be positive, got {self.aspp_dilations}")
        if self.num_classes != 2:
            raise ValueError("only binary segmentation (2 classes) is supported")

    @property
    def site_count(self) -> int:
        return len(self.site_channels())

    def site_channels(self) -> tuple[int, ...]:
        """Channels of each activation site, in site order."""
        return tuple(spec.out_channels for stage in _stages(self) for _, spec in stage)


def _stages(cfg: NetworkConfig) -> list[list[Layer]]:
    """The encoder as data: stages of branches, each branch one conv layer
    followed by one activation site (see the module docstring)."""
    return [
        [("stem", ops.ConvSpec(cfg.stem_width, 3, 3, 3, padding=1))],
        [("down1", ops.ConvSpec(cfg.down_width, cfg.stem_width, 3, 3, stride=2, padding=1))],
        [("down2", ops.ConvSpec(cfg.down_width, cfg.down_width, 3, 3, stride=2, padding=1))],
        [(f"aspp{i}", ops.ConvSpec(cfg.aspp_width, cfg.down_width, 3, 3, padding=d, dilation=d))
         for i, d in enumerate(cfg.aspp_dilations)],
        [("fuse", ops.ConvSpec(cfg.fuse_width, cfg.aspp_width * len(cfg.aspp_dilations), 1, 1))],
    ]


def _head(cfg: NetworkConfig) -> Layer:
    """The decoder's 1x1 conv from the encoder output to class logits, applied
    before the x4 upsample; the two commute, so its weights are the same as
    those of a head applied after it."""
    return ("head", ops.ConvSpec(cfg.num_classes, cfg.fuse_width, 1, 1))


def _conv_layers(cfg: NetworkConfig) -> list[Layer]:
    """Every conv layer: the table's branches in site order, then the head."""
    return [layer for stage in _stages(cfg) for layer in stage] + [_head(cfg)]


def assign_activations(
    mode: str,
    pool: list[ActivationKind],
    site_count: int,
    member_index: int,
    seed: int,
) -> tuple[ActivationKind, ...]:
    """Per-site activation kinds for one ensemble member.

    ``act``: every site gets pool[member_index]. ``sto``: each site is an
    independent uniform draw from the pool, seeded by ``seed``. ``relu``:
    every site is ReLU regardless of the other arguments.
    """
    if mode not in ASSIGNMENT_MODES:
        raise ValueError(f"unknown assignment mode {mode!r}")
    if mode == "relu":
        return tuple([ActivationKind.RELU] * site_count)
    if mode == "act":
        if not 0 <= member_index < len(pool):
            raise ValueError(
                f"member_index {member_index} out of range for pool of {len(pool)}"
            )
        return tuple([pool[member_index]] * site_count)
    rng = SplitMix64(seed)
    return tuple(pool[rng.below(len(pool))] for _ in range(site_count))


@dataclass
class Model:
    config: NetworkConfig
    assignment: tuple[ActivationKind, ...]
    params: dict[str, np.ndarray]  # "<layer>.w" / "<layer>.b"
    acts: list[ActivationState]
    init_seed: int
    # the layer table of ``config``, built once per model
    _stages: list[list[Layer]] = field(init=False, repr=False, compare=False)
    _head: Layer = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._stages = _stages(self.config)
        self._head = _head(self.config)

    @property
    def dtype(self):
        return next(iter(self.params.values())).dtype

    def parameters(self) -> dict[str, np.ndarray]:
        """All trainable arrays by name; values alias the live storage."""
        out = dict(self.params)
        for i, st in enumerate(self.acts):
            if st.params.size:
                out[f"act{i}.params"] = st.params
        return out


def build_model(
    config: NetworkConfig,
    assignment: tuple[ActivationKind, ...],
    init_seed: int,
    dtype=np.float32,
) -> Model:
    """Deterministically construct a model from (config, assignment, seed).

    Conv weights are normal with std sqrt(2 / fan_in) drawn layer by layer
    from a SplitMix64 stream seeded with ``init_seed``; biases start at 0.
    """
    assignment = tuple(ActivationKind(k) for k in assignment)
    if len(assignment) != config.site_count:
        raise ValueError(
            f"assignment length {len(assignment)} != site count {config.site_count}"
        )
    rng = SplitMix64(init_seed)
    params: dict[str, np.ndarray] = {}
    for name, spec in _conv_layers(config):
        fan_in = spec.in_channels * spec.kernel_h * spec.kernel_w
        shape = (spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w)
        w = rng.normal_array(shape) * np.sqrt(2.0 / fan_in)
        params[f"{name}.w"] = w.astype(dtype)
        params[f"{name}.b"] = np.zeros(spec.out_channels, dtype=dtype)
    acts = [
        act_init(kind, ch, dtype=dtype)
        for kind, ch in zip(assignment, config.site_channels())
    ]
    return Model(config=config, assignment=assignment, params=params,
                 acts=acts, init_seed=init_seed)


def _conv(model: Model, layer: Layer, x: np.ndarray) -> np.ndarray:
    name, spec = layer
    return ops.conv2d(x, model.params[f"{name}.w"], model.params[f"{name}.b"], spec)


def _check_images(cfg: NetworkConfig, images: np.ndarray) -> None:
    if images.ndim != 4 or images.shape[1] != 3 or images.shape[0] < 1:
        raise ValueError(f"expected (n, 3, h, w) input with n >= 1, got {images.shape}")
    if images.shape[2] != cfg.input_size or images.shape[3] != cfg.input_size:
        raise ValueError(
            f"input spatial size {images.shape[2:]} != config input_size {cfg.input_size}"
        )


def forward(model: Model, images: np.ndarray, *, resume=None):
    """Batched forward pass: (n, 3, S, S) -> probabilities (n, 2, S, S).

    Returns ``(probs, cache)`` where the cache holds the intermediates the
    backward pass needs: ``cache["pre"]`` lists the inputs of the activation
    sites in site order, and ``cache["xs"][k]`` is the input of stage ``k``
    (the image for the first stage; the last entry is the encoder output).

    ``resume=(cache, k)`` reuses the prefix of ``cache``, the cache of an
    earlier forward of these same ``images``: the inputs of stages 0..k and
    the site inputs of the stages before k. Only stages k.. and the decoder
    run (k = ``len(model._stages)`` runs the decoder alone), and the result
    equals a full forward bit for bit. The prefix is valid only while no
    parameter of the stages before k has changed since that earlier
    forward; this is not checked. The given cache is left unchanged.
    """
    _check_images(model.config, images)
    stages = model._stages
    xs = [images]
    pre: list[np.ndarray] = []
    if resume is not None:
        cache, start = resume
        if cache["xs"][0] is not images:
            raise ValueError("resume cache comes from a forward of another images array")
        if not 0 <= start <= len(stages):
            raise ValueError(f"resume stage {start} is outside 0..{len(stages)}")
        xs = cache["xs"][: start + 1]
        pre = cache["pre"][: sum(len(stage) for stage in stages[:start])]
        stages = stages[start:]
    for stage in stages:
        outs = []
        for layer in stage:
            pre.append(_conv(model, layer, xs[-1]))
            outs.append(act_forward(pre[-1], model.acts[len(pre) - 1]))
        xs.append(outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1))
    probs = ops.softmax_channel(ops.upsample_bilinear(_conv(model, model._head, xs[-1]), _UPSAMPLE))
    return probs, {"xs": xs, "pre": pre, "probs": probs}


def backward(model: Model, cache: dict, dprobs: np.ndarray) -> dict[str, np.ndarray]:
    """GradMap for every conv weight/bias and activation parameter array."""
    grads: dict[str, np.ndarray] = {}

    def conv_back(layer, g, x, need_dx=True):
        name, spec = layer
        dx, grads[f"{name}.w"], grads[f"{name}.b"] = ops.conv2d_backward(
            g, x, model.params[f"{name}.w"], spec, need_dx=need_dx)
        return dx

    xs, pre = cache["xs"], cache["pre"]
    dlogits = ops.softmax_channel_backward(dprobs, cache["probs"])
    dhead = ops.upsample_bilinear_backward(dlogits, xs[-1].shape[2], xs[-1].shape[3], _UPSAMPLE)
    g = conv_back(model._head, dhead, xs[-1])
    site = len(pre)
    for k in reversed(range(len(model._stages))):
        stage = model._stages[k]
        site -= len(stage)
        dx, at = None, 0
        for i, layer in enumerate(stage, start=site):
            width = layer[1].out_channels
            dz, dpar = act_backward(pre[i], model.acts[i], g[:, at : at + width])
            at += width
            if dpar.size:
                grads[f"act{i}.params"] = dpar
            dxi = conv_back(layer, dz, xs[k], need_dx=k > 0)  # stage 0 reads the image
            dx = dxi if dx is None else dx + dxi
        g = dx
    return grads


def predict_batch(model: Model, images: np.ndarray) -> np.ndarray:
    """Probability maps (n, 2, S, S) for (n, 3, S, S) images, cast to the
    model's dtype: ``forward`` over consecutive blocks of ``_PREDICT_BLOCK``
    images, each written into one preallocated output. Bit-identical to
    ``forward(model, images)[0]``, with the working set of one block."""
    images = images.astype(model.dtype, copy=False)
    _check_images(model.config, images)
    n, _, size, _ = images.shape
    probs = np.empty((n, model.config.num_classes, size, size), model.dtype)
    for i in range(0, n, _PREDICT_BLOCK):
        probs[i : i + _PREDICT_BLOCK] = forward(model, images[i : i + _PREDICT_BLOCK])[0]
    return probs


def save_model(path, model: Model) -> None:
    """Write a versioned checkpoint atomically; round-trips bit-exactly.

    As with ``np.savez``, ``.npz`` is appended to a path without it."""
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(model.config),
        "assignment": [k.value for k in model.assignment],
        "init_seed": model.init_seed,
        "dtype": str(np.dtype(model.dtype)),
    }
    arrays = {f"param:{k}": v for k, v in model.params.items()}
    for i, st in enumerate(model.acts):
        arrays[f"act:{i}"] = st.params
    buf = io.BytesIO()
    np.savez(buf, __meta__=np.array(json.dumps(meta)), **arrays)
    path = os.fspath(path)
    write_atomic(path if path.endswith(".npz") else path + ".npz", buf.getvalue())


def _expected_arrays(config: NetworkConfig, assignment) -> dict[str, tuple[int, ...]]:
    """Array key -> shape of every array a checkpoint of this model holds."""
    shapes = {}
    for name, spec in _conv_layers(config):
        shapes[f"param:{name}.w"] = (spec.out_channels, spec.in_channels,
                                     spec.kernel_h, spec.kernel_w)
        shapes[f"param:{name}.b"] = (spec.out_channels,)
    for i, (kind, ch) in enumerate(zip(assignment, config.site_channels())):
        shapes[f"act:{i}"] = (PARAM_COUNTS[kind], ch)
    return shapes


def load_model(path) -> Model:
    """Read a checkpoint, rejecting an unreadable file or any missing, extra
    or mis-shaped array with a ``ValueError`` that names the file and the key."""
    # np.load drops its own handle to a zip-headed file whose body is not a
    # zip archive before NpzFile raises, which leaks it; this one is closed
    with open(path, "rb") as fh:
        try:
            data = np.load(fh, allow_pickle=False)
        except (EOFError, ValueError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{path}: unreadable checkpoint file: {exc!r}") from exc
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError(f"{path}: unreadable checkpoint file: "
                             "a .npy array, not an .npz archive")
        try:
            with data:
                if "__meta__" not in data.files:
                    raise ValueError(f"{path}: not a model checkpoint (no __meta__ key)")
                meta = json.loads(str(data["__meta__"]))
                if meta.get("format") != CHECKPOINT_FORMAT:
                    raise ValueError(f"{path}: not a model checkpoint")
                if meta.get("version") != CHECKPOINT_VERSION:
                    raise ValueError(f"{path}: unsupported checkpoint version "
                                     f"{meta.get('version')}")
                try:
                    cfg_d = dict(meta["config"])
                    cfg_d["aspp_dilations"] = tuple(cfg_d["aspp_dilations"])
                    config = NetworkConfig(**cfg_d)
                    assignment = tuple(ActivationKind(v) for v in meta["assignment"])
                    dtype = np.dtype(meta["dtype"])
                    init_seed = int(meta["init_seed"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(f"{path}: bad checkpoint metadata: {exc!r}") from exc
                if len(assignment) != config.site_count:
                    raise ValueError(f"{path}: assignment has {len(assignment)} sites, "
                                     f"config has {config.site_count}")
                expected = _expected_arrays(config, assignment)
                missing = sorted(set(expected) - set(data.files))
                unexpected = sorted(set(data.files) - set(expected) - {"__meta__"})
                if missing or unexpected:
                    raise ValueError(f"{path}: missing arrays {missing}, "
                                     f"unexpected arrays {unexpected}")
                arrays = {}
                for key, shape in expected.items():
                    arr = data[key]
                    if arr.shape != shape or arr.dtype != dtype:
                        raise ValueError(f"{path}: array {key!r} is {arr.dtype}{arr.shape}, "
                                         f"expected {dtype}{shape}")
                    arrays[key] = arr
        except (EOFError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{path}: unreadable checkpoint file: {exc!r}") from exc
    params = {k[len("param:"):]: v for k, v in arrays.items() if k.startswith("param:")}
    acts = [ActivationState(kind=kind, channels=ch, params=arrays[f"act:{i}"])
            for i, (kind, ch) in enumerate(zip(assignment, config.site_channels()))]
    return Model(config=config, assignment=assignment, params=params,
                 acts=acts, init_seed=init_seed)

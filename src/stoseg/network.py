"""Small encoder-decoder segmentation network with a dilated-conv pyramid.

The encoder is one table, ``NetworkConfig.stages``: an ordered list of stages,
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
("stem.w", "act0.params", ...) to an array of the parameter's shape. Every
activation site has an entry, which is (0, C) for a fixed kind.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import zipfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import ops
from .activations import (
    ActivationKind,
    ActivationState,
    PARAM_COUNTS,
    act_backward,
    act_forward,
    act_forward_variants,
    act_init,
)
from .fileio import write_atomic
from .rng import SplitMix64

CHECKPOINT_FORMAT = "stoseg-model"
CHECKPOINT_VERSION = 1

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
        return tuple(spec.out_channels for stage in self.stages for _, spec in stage)

    # cached_property writes the instance __dict__, which a frozen dataclass
    # allows; equality, hashing and asdict read only the fields
    @cached_property
    def stages(self) -> tuple[tuple[Layer, ...], ...]:
        """The encoder as data: stages of branches, each branch one conv layer
        followed by one activation site (see the module docstring)."""
        return (
            (("stem", ops.ConvSpec(self.stem_width, 3, 3, 3, padding=1)),),
            (("down1", ops.ConvSpec(self.down_width, self.stem_width, 3, 3, stride=2, padding=1)),),
            (("down2", ops.ConvSpec(self.down_width, self.down_width, 3, 3, stride=2, padding=1)),),
            tuple((f"aspp{i}", ops.ConvSpec(self.aspp_width, self.down_width, 3, 3,
                                            padding=d, dilation=d))
                  for i, d in enumerate(self.aspp_dilations)),
            (("fuse", ops.ConvSpec(self.fuse_width,
                                   self.aspp_width * len(self.aspp_dilations), 1, 1)),),
        )

    @cached_property
    def head(self) -> Layer:
        """The decoder's 1x1 conv from the encoder output to class logits,
        applied before the x4 upsample; the two commute, so its weights are
        the same as those of a head applied after it."""
        return ("head", ops.ConvSpec(self.num_classes, self.fuse_width, 1, 1))


def _conv_layers(cfg: NetworkConfig) -> list[Layer]:
    """Every conv layer: the table's branches in site order, then the head."""
    return [layer for stage in cfg.stages for layer in stage] + [cfg.head]


def assign_activations(
    kinds: list[ActivationKind], site_count: int, seed: int
) -> tuple[ActivationKind, ...]:
    """Per-site activation kinds: each site is an independent uniform draw
    from ``kinds`` on one SplitMix64 stream seeded by ``seed``. A one-kind
    list fills every site, still taking one draw per site."""
    rng = SplitMix64(seed)
    return tuple(kinds[rng.below(len(kinds))] for _ in range(site_count))


@dataclass
class Model:
    config: NetworkConfig
    params: dict[str, np.ndarray]  # "<layer>.w" / "<layer>.b"
    acts: list[ActivationState]
    init_seed: int

    @property
    def assignment(self) -> tuple[ActivationKind, ...]:
        return tuple(st.kind for st in self.acts)

    @property
    def dtype(self):
        return next(iter(self.params.values())).dtype

    def parameters(self) -> dict[str, np.ndarray]:
        """Every trainable array by name, as a checkpoint holds them: each site's
        ``act{i}.params`` is (0, C) for a fixed kind. Values alias the live storage."""
        acts = {f"act{i}.params": st.params for i, st in enumerate(self.acts)}
        return {**self.params, **acts}


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
        raise ValueError(f"assignment length {len(assignment)} != site count {config.site_count}")
    rng = SplitMix64(init_seed)
    params: dict[str, np.ndarray] = {}
    for name, spec in _conv_layers(config):
        fan_in = spec.in_channels * spec.kernel_h * spec.kernel_w
        shape = (spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w)
        w = rng.normal_array(shape) * np.sqrt(2.0 / fan_in)
        params[f"{name}.w"] = w.astype(dtype)
        params[f"{name}.b"] = np.zeros(spec.out_channels, dtype=dtype)
    acts = [act_init(kind, ch, dtype=dtype)
            for kind, ch in zip(assignment, config.site_channels())]
    return Model(config=config, params=params, acts=acts, init_seed=init_seed)


def _conv(model: Model, layer: Layer, x: np.ndarray, variants) -> np.ndarray:
    """The layer's conv of ``x``. With ``variants=(key, values)`` naming
    this layer's weight or bias, ``ops.conv2d_variants`` of the single
    image ``x`` gives (B, cout, h, w): variant b equals the conv with
    ``values[b]`` in place, bit for bit."""
    name, spec = layer
    w, b = model.params[f"{name}.w"], model.params[f"{name}.b"]
    if variants is None or variants[0] not in (f"{name}.w", f"{name}.b"):
        return ops.conv2d(x, w, b, spec)
    key, values = variants
    weights, biases = (values, b[None]) if key == f"{name}.w" else (w[None], values)
    return ops.conv2d_variants(x, weights, biases, spec)[:, 0]


def _act(model: Model, site: int, z: np.ndarray, variants) -> np.ndarray:
    """Site ``site``'s activation of ``z``; with ``variants`` naming its
    parameters, ``act_forward_variants`` of the single map ``z``."""
    st = model.acts[site]
    if variants is None or variants[0] != f"act{site}.params":
        return act_forward(z, st)
    return act_forward_variants(z, st, variants[1])[:, 0]


def _check_variants(model: Model, images: np.ndarray, variants):
    """``variants`` with its values cast to the parameter's dtype, as
    assigning them into the live array would."""
    key, values = variants
    params = model.parameters()
    if key not in params:
        raise ValueError(f"unknown variant key {key!r}")
    if images.shape[0] != 1:
        raise ValueError(f"variants of {key!r} take one image, got {images.shape[0]}")
    shape = params[key].shape
    values = np.asarray(values)
    if values.ndim != len(shape) + 1 or values.shape[1:] != shape or len(values) < 1:
        raise ValueError(f"variant values of {key!r} have shape {values.shape}, "
                         f"expected (B >= 1,) + {shape}")
    return key, values.astype(params[key].dtype, copy=False)


def _check_images(cfg: NetworkConfig, images: np.ndarray) -> None:
    if images.ndim != 4 or images.shape[1] != 3 or images.shape[0] < 1:
        raise ValueError(f"expected (n, 3, h, w) input with n >= 1, got {images.shape}")
    if images.shape[2] != cfg.input_size or images.shape[3] != cfg.input_size:
        raise ValueError(
            f"input spatial size {images.shape[2:]} != config input_size {cfg.input_size}"
        )


def forward(model: Model, images: np.ndarray, *, variants=None):
    """Batched forward pass: (n, 3, S, S) -> probabilities (n, 2, S, S).

    Returns ``(probs, cache)`` where the cache holds the intermediates the
    backward pass needs: ``cache["pre"]`` lists the inputs of the activation
    sites in site order, and ``cache["xs"][k]`` is the input of stage ``k``
    (the image for the first stage; the last entry is the encoder output).

    ``variants=(key, values)`` evaluates one image under B values of the
    parameter array ``key`` at once: ``values`` is (B,) + its shape, and
    ``probs[b]`` equals a forward with ``values[b]`` in place of the array,
    bit for bit. The pass runs from stage 0 on the single image until the
    branch that reads ``key``: a conv weight or bias runs one GEMM of the
    unbatched shape per variant (``ops.conv2d_variants``), activation
    parameters fold into the channels of one activation call. Each stage's
    branch outputs are broadcast to the largest batch among them, so the
    stage's other branches join the batch, and the later stages and the
    decoder run on the batch of B. Every op on a variant is elementwise, a
    reduction within one map, or a GEMM of the unbatched shape, which is
    why the bits are kept. The cache then holds the batched intermediates,
    which ``backward`` does not take.
    """
    _check_images(model.config, images)
    if variants is not None:
        variants = _check_variants(model, images, variants)
    xs = [images]
    pre: list[np.ndarray] = []
    for stage in model.config.stages:
        outs = []
        for layer in stage:
            pre.append(_conv(model, layer, xs[-1], variants))
            outs.append(_act(model, len(pre) - 1, pre[-1], variants))
        if variants is not None:  # single maps join the batch of B
            nb = max(len(o) for o in outs)
            outs = [np.broadcast_to(o, (nb,) + o.shape[1:]) for o in outs]
        xs.append(outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1))
    head = _conv(model, model.config.head, xs[-1], variants)
    probs = ops.softmax_channel(ops.upsample_bilinear(head, _UPSAMPLE))
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
    g = conv_back(model.config.head, dhead, xs[-1])
    site = len(pre)
    for k, stage in reversed(list(enumerate(model.config.stages))):
        site -= len(stage)
        dx, at = None, 0
        for i, layer in enumerate(stage, start=site):
            width = layer[1].out_channels
            dz, grads[f"act{i}.params"] = act_backward(pre[i], model.acts[i],
                                                       g[:, at : at + width])
            at += width
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
    acts = [ActivationState(kind, arrays[f"act:{i}"]) for i, kind in enumerate(assignment)]
    return Model(config=config, params=params, acts=acts, init_seed=init_seed)

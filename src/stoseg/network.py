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

``predict_batch`` runs ``forward`` over consecutive blocks of images and
writes each block's probabilities into its own rows of one preallocated
output. Every op of the forward pass works per image or per pixel (the
conv's batched matmul is one GEMM of the same shape per image), so the
result is bit-identical to one pass over the whole batch; blocking only
bounds the intermediates, to those of ``_PREDICT_BLOCK`` (4) images in
flight.

One function, ``_worker``, decides every worker thread of the package:
with at least two usable CPUs and numpy's bundled OpenBLAS settable, it
opens one worker (a ``ThreadPoolExecutor(1)``) and runs that OpenBLAS at
one thread while the worker lives; otherwise it opens none and leaves BLAS
alone. So the plan does not depend on ``OPENBLAS_NUM_THREADS``. On 2 CPUs
with BLAS threads unset, this trained the benchmark's ``train_sto`` spec in
1.32-1.54 s instead of 1.96-3.02 s without a worker, and ran
``predict_batch`` of four relu members on 64 images in 130-185 ms instead
of 189-217 ms (nothing beyond 2 CPUs was measured). The BLAS count is
process-wide: another thread's GEMMs run on one BLAS thread meanwhile, and
two threads inside ``_worker`` at once (stoseg never does that) may leave it
changed. ``_run`` is the one place that hands the worker work;
``predict_batch`` and ``losses.train_model`` (which runs each minibatch of
4 or more images as two halves) both use them, and neither's bits depend on
the plan.

When ``_worker`` gives a worker and there are more than ``_PREDICT_BLOCK``
images, ``predict_batch``'s blocks are halves (2 images), and the caller's
thread and one worker thread take them in turn, so two half-blocks are in
flight. numpy releases the GIL inside the GEMMs, ufunc loops and copies
that take most of a block's time, and a block reads only the model and its
own images and writes only its own rows, so the bits stay the same. Two
threads, not one per CPU: the Python between numpy calls still holds the
GIL, and each block in flight adds its working set to the peak. The worker
lives inside the call and is joined before the call returns or raises.

Memory: at the default config, numpy's traced peak while one member
predicts 64 images is about 7.7 MB (2 MB of it the output) instead of 91 MB
in one pass. Four images in flight (about 5 MB) stay below the heap-trim
threshold that glibc's malloc adapts to the largest array freed so far, so
the next blocks reuse the pages the last ones freed; with blocks of 8
(about 10 MB) those pages went back to the kernel and were faulted in again
for every block. The worker thread allocates from its own malloc arena and
BLAS buffer, beside pages the caller's arena already holds, so two whole
blocks of 4 in flight (13 MB traced) raised a scored relu ensemble's peak
RSS by 9-18%, against 5-10% for two halves.

Gradients are exchanged as a "GradMap": a plain dict from parameter name
("stem.w", "act0.params", ...) to an array of the parameter's shape. Every
activation site has an entry, which is (0, C) for a fixed kind.
"""

from __future__ import annotations

import ctypes
import dataclasses
import io
import json
import os
import zipfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

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
_PREDICT_BLOCK = 4  # images in flight in predict_batch

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


def _join(y: np.ndarray, key: str, joins: dict, joined: list, rows) -> np.ndarray:
    """``y`` with the rows ``rows(values)`` of variant key ``key`` appended if
    ``joins`` names it, and the key appended to ``joined``, the join order."""
    if key not in joins:
        return y
    joined.append(key)
    return np.concatenate([y, rows(joins[key])])


def _conv(model: Model, layer: Layer, x: np.ndarray, joins: dict, joined: list) -> np.ndarray:
    """The layer's conv of the batch ``x``, joined by its weight's, then its bias's variants."""
    name, spec = layer
    w, b = model.params[f"{name}.w"], model.params[f"{name}.b"]
    y = ops.conv2d(x, w, b, spec)
    y = _join(y, f"{name}.w", joins, joined, lambda ws: ops.conv2d(x[:1], ws, b, spec))
    return _join(y, f"{name}.b", joins, joined, lambda bs: ops.conv2d(x[:1], w, bs, spec))


def _join_branches(outs: list[np.ndarray], n: int) -> list[np.ndarray]:
    """A stage's branch outputs on one batch: the ``n`` rows every branch
    ran, then each branch's new rows. Those rows' stage input is row 0's,
    so every other branch gives its row 0 for them."""
    new = [len(o) - n for o in outs]
    if len(outs) == 1 or not any(new):
        return outs
    batched = []
    for j, o in enumerate(outs):
        rows = [o[:n]]
        for i, c in enumerate(new):
            if c:
                rows.append(o[n:] if i == j else np.broadcast_to(o[:1], (c,) + o.shape[1:]))
        batched.append(np.concatenate(rows))
    return batched


def _check_variants(model: Model, images: np.ndarray, variants) -> dict[str, np.ndarray]:
    """``variants`` as a dict from key to values, in the given order, each
    cast to the parameter's dtype as assigning them into the live array
    would."""
    if not variants:
        raise ValueError("variants must hold at least one (key, values) pair")
    params, joins = model.parameters(), {}
    for key, values in variants:
        if key not in params:
            raise ValueError(f"unknown variant key {key!r}")
        if key in joins:
            raise ValueError(f"variant key {key!r} is given twice")
        if images.shape[0] != 1:
            raise ValueError(f"variants of {key!r} take one image, got {images.shape[0]}")
        shape = params[key].shape
        values = np.asarray(values)
        if values.ndim != len(shape) + 1 or values.shape[1:] != shape or len(values) < 1:
            raise ValueError(f"variant values of {key!r} have shape {values.shape}, "
                             f"expected (B >= 1,) + {shape}")
        joins[key] = values.astype(params[key].dtype, copy=False)
    return joins


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

    ``variants=[(key, values), ...]`` evaluates one image under B_i values
    of each named parameter array at once: ``values`` is (B_i,) + the
    array's shape, and ``probs`` holds sum(B_i) rows, the keys' rows in the
    order given; row b of a key equals a forward with ``values[b]`` in
    place of its array, bit for bit. The batch starts as row 0, the
    unperturbed image. Variants are rows on the batch axis: each key's rows
    join at its own layer (``_join``), from row 0's input there, as the
    rows of ``ops.conv2d`` with a leading axis of weights or biases, or of
    ``act_forward_variants``. The later layers run with the base
    parameters on the whole batch, so rows of several keys ride next to
    each other. In a stage with several branches, each branch's row 0
    stands in for the new rows of the other branches, whose stage input is
    row 0's. Every op on a row is elementwise, a reduction within one map,
    or a GEMM of the unbatched shape, which is why the bits are kept. The
    cache then holds the batched intermediates, row 0 first, which
    ``backward`` does not take.
    """
    _check_images(model.config, images)
    joins = {} if variants is None else _check_variants(model, images, variants)
    joined: list[str] = []
    xs = [images]
    pre: list[np.ndarray] = []
    for stage in model.config.stages:
        outs = []
        for layer in stage:
            pre.append(_conv(model, layer, xs[-1], joins, joined))
            z, st = pre[-1], model.acts[len(pre) - 1]
            outs.append(_join(act_forward(z, st), f"act{len(pre) - 1}.params", joins, joined,
                              lambda values: act_forward_variants(z[:1], st, values)))
        outs = _join_branches(outs, len(xs[-1]))
        xs.append(outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1))
    head = _conv(model, model.config.head, xs[-1], joins, joined)
    probs = ops.softmax_channel(ops.upsample_bilinear(head, _UPSAMPLE))
    cache = {"xs": xs, "pre": pre, "probs": probs}
    if variants is not None:  # the keys' rows, from join order to the order given
        rows, at = {}, 1
        for key in joined:
            rows[key] = probs[at : at + len(joins[key])]
            at += len(joins[key])
        probs = np.concatenate([rows[key] for key in joins])
    return probs, cache


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


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _bundled_openblas():
    """The ``(get, set)`` thread-count functions of the OpenBLAS that numpy's
    wheel bundles in ``numpy.libs``, or None when there is no such library
    or it lacks them."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextmanager
def _worker(wanted: bool = True):
    """A context giving the one worker thread beside the caller, or None:
    a ``ThreadPoolExecutor(1)``, with numpy's bundled OpenBLAS at one thread,
    when ``wanted``, two CPUs are usable and ``_bundled_openblas()`` finds
    the library (see the module docstring). The executor starts its thread
    at the first submit; on exit, also when the body raises, the thread is
    joined, then the previous BLAS count is restored."""
    blas = _bundled_openblas() if wanted and _usable_cpus() > 1 else None
    if blas is None:
        yield None
        return
    get_threads, set_threads = blas
    before = get_threads()
    set_threads(1)
    try:
        with ThreadPoolExecutor(1) as pool:
            yield pool
    finally:
        set_threads(before)


def _run(pool, fn, calls):
    """``[fn(*args) for args in calls]``. With a pool and two calls the
    pool's worker runs the second while the caller runs the first; an error
    of the caller's call is raised before the worker's is read."""
    if pool is None or len(calls) == 1:
        return [fn(*args) for args in calls]
    second = pool.submit(fn, *calls[1])
    return [fn(*calls[0]), second.result()]


def predict_batch(model: Model, images: np.ndarray) -> np.ndarray:
    """Probability maps (n, 2, S, S) for (n, 3, S, S) images, cast to the
    model's dtype: ``forward`` over consecutive blocks of images, each
    written into its own rows of one preallocated output. Bit-identical to
    ``forward(model, images)[0]``, with the working set of
    ``_PREDICT_BLOCK`` images.

    Up to ``_PREDICT_BLOCK`` images, or when ``_worker`` gives no worker
    (one usable CPU, or no bundled OpenBLAS), the caller runs blocks of
    ``_PREDICT_BLOCK`` one after another. Otherwise the blocks are halves,
    the caller taking the even ones and one worker thread the odd ones, with
    numpy's OpenBLAS at one thread during the call, for every thread of the
    process. The worker is joined and the BLAS count restored before this
    returns or raises; an error of either thread's blocks is raised (the
    caller's if both fail)."""
    images = images.astype(model.dtype, copy=False)
    _check_images(model.config, images)
    n, _, size, _ = images.shape
    probs = np.empty((n, model.config.num_classes, size, size), model.dtype)

    with _worker(n > _PREDICT_BLOCK) as pool:
        step = _PREDICT_BLOCK if pool is None else _PREDICT_BLOCK // 2
        starts = range(0, n, step)

        def run(block_starts):
            for i in block_starts:
                probs[i : i + step] = forward(model, images[i : i + step])[0]

        _run(pool, run, [(starts,)] if pool is None else [(starts[::2],), (starts[1::2],)])
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

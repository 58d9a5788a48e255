"""Persistence: layer-bank binary files, model-parameter files, JSON config documents.

Bank layout: magic ``DLFB``, then version, layer count and (B, T, E) as
little-endian u32, the payload as little-endian float32 in row-major
[layer][sentence][token][channel] order, and finally a UTF-8 JSON manifest
prefixed by its byte length as a little-endian u64.  Layers stay float32 on
load.  Writers go through a temp file plus atomic rename.
"""

import itertools
import json
import mmap
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .fusion import BaselineSystem, ClassifierHead, FusionSystem, LayerPair, stored_values
from .gate import BranchParams, GateParams
from .tensor import Tensor, parameter

MAGIC = b"DLFB"
BANK_VERSION = 1
PARAMS_FORMAT = "layerfuse-params"
PARAMS_VERSION = 1

_HEADER = struct.Struct("<4sIIIII")


class DataError(ValueError):
    """Inconsistent data: bad labels, splits, alignments, or layer indices."""


class BankFormatError(ValueError):
    """A bank file does not follow the documented layout."""


class BankTruncationError(BankFormatError):
    """Declared sizes point past the end of the file."""


class ParamsFormatError(ValueError):
    """A parameter file does not follow the documented schema."""


# Manifest list field -> (name of one entry, entry check, what an entry must be).
_MANIFEST_LISTS = {
    "labels": ("label", lambda x: type(x) is int and 0 <= x < 2**63, "an integer in [0, 2**63)"),
    "language": ("language", lambda x: type(x) is str, "a string"),
    "split": ("split", lambda x: type(x) is str, "a string"),
}


@dataclass(eq=False)
class LayerBank:
    """Per-layer token embeddings plus a per-sentence manifest.

    Layer indices are 1-based and contiguous; every layer shares one
    (sentences, tokens, channels) shape.
    """

    layers: list
    labels: np.ndarray
    languages: list = field(default_factory=list)
    splits: list = field(default_factory=list)

    def __post_init__(self):
        if not self.layers:
            raise DataError("a bank needs at least one layer")
        # Float32, as a bank file stores it, stays as given; ops widen a gathered batch.
        layers = [np.asarray(layer) for layer in self.layers]
        self.layers = [x if x.dtype == np.float32 else x.astype(np.float64, copy=False) for x in layers]
        shape = self.layers[0].shape
        if len(shape) != 3 or min(shape) < 1:
            raise DataError(f"bank layers must be (sentences, tokens, channels), got {shape}")
        for i, layer in enumerate(self.layers):
            if layer.shape != shape:
                raise DataError(
                    f"layer {i + 1} has shape {layer.shape}, expected {shape}"
                )
        self.labels = np.asarray(self.labels, dtype=np.int64)
        sentences = shape[0]
        # A bank file's manifest field, and the argument that carries it here.
        for name, argument in (("labels", "labels"), ("language", "languages"), ("split", "splits")):
            seq = getattr(self, argument)
            if len(seq) != sentences:
                raise DataError(
                    f"manifest field {name} has {len(seq)} entries for {sentences} sentences "
                    f"(LayerBank {argument})"
                )
        if self.labels.size and self.labels.min() < 0:
            raise DataError("labels must be non-negative integers")

    @property
    def n_layers(self):
        return len(self.layers)

    @property
    def shape(self):
        return self.layers[0].shape

    @property
    def num_classes(self):
        return int(self.labels.max()) + 1

    def layer(self, index):
        if not 1 <= index <= self.n_layers:
            raise DataError(f"bank has layers 1..{self.n_layers}, requested {index}")
        return self.layers[index - 1]

    def split_indices(self, split):
        # Compared as Python strings: a numpy string array drops trailing NULs.
        return np.flatnonzero(np.fromiter((name == split for name in self.splits), bool))

    def language_tag(self):
        return self.languages[0]


def _atomic_write(path, chunks):
    path = os.fspath(path)
    # Created as open() creates a file, so the umask sets its mode (mkstemp's is 0600).
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_bank(bank, path):
    """Serialize a bank; byte-deterministic for a given bank.

    The payload is stored as float32, so values are quantized to float32
    precision on disk.  Layers are written one at a time as they are held: a
    float32 layer without a copy, any other layer cast on its own.
    """
    manifest = json.dumps(
        {
            "labels": [int(x) for x in bank.labels],
            "language": [str(x) for x in bank.languages],
            "split": [str(x) for x in bank.splits],
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    header = _HEADER.pack(MAGIC, BANK_VERSION, bank.n_layers, *bank.shape)
    layers = (np.ascontiguousarray(layer, dtype="<f4") for layer in bank.layers)
    _atomic_write(path, itertools.chain([header], layers, [struct.pack("<Q", len(manifest)), manifest]))


def read_bank(path):
    """Load and validate a bank file.

    The file is read into a private anonymous memory map, off the malloc
    heap, and its layers are float32 views into that map, as stored.  A
    dropped bank goes back to the system, so the memory a process, or a sweep
    worker forked from it, keeps resident does not hang on the heap's layout.
    """
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        if size:
            raw = mmap.mmap(-1, size, access=mmap.ACCESS_COPY)
            raw = memoryview(raw)[: handle.readinto(raw)]
        else:  # an empty file, or a pipe; writable, as a map is
            raw = bytearray(handle.read())
    if len(raw) < _HEADER.size:
        raise BankFormatError(f"{path}: file too short for a bank header")
    magic, version, n_layers, sentences, tokens, channels = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise BankFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != BANK_VERSION:
        raise BankFormatError(f"{path}: unsupported bank version {version}")
    if min(n_layers, sentences, tokens, channels) < 1:
        raise BankFormatError(
            f"{path}: header declares empty dimensions "
            f"({n_layers} layers, shape {(sentences, tokens, channels)})"
        )
    expected = n_layers * sentences * tokens * channels
    payload_end = _HEADER.size + 4 * expected
    if len(raw) < payload_end + 8:
        held = max(0, len(raw) - _HEADER.size - 8) // 4
        raise BankTruncationError(
            f"{path}: header expects {expected} float32 values "
            f"({n_layers} layers of shape {(sentences, tokens, channels)}) "
            f"but the payload holds at most {held}"
        )
    values = np.frombuffer(raw, dtype="<f4", count=expected, offset=_HEADER.size)
    (manifest_len,) = struct.unpack_from("<Q", raw, payload_end)
    manifest_start = payload_end + 8
    if len(raw) < manifest_start + manifest_len:
        raise BankTruncationError(
            f"{path}: manifest declares {manifest_len} bytes but only "
            f"{len(raw) - manifest_start} remain"
        )
    trailing = len(raw) - manifest_start - manifest_len
    if trailing:
        raise BankFormatError(f"{path}: {trailing} bytes after the manifest")
    try:
        manifest = json.loads(str(raw[manifest_start : manifest_start + manifest_len], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise BankFormatError(f"{path}: manifest is not valid JSON ({err})") from err
    if not isinstance(manifest, dict):
        raise BankFormatError(f"{path}: manifest is not a JSON object")
    for key, (entry, valid, expected) in _MANIFEST_LISTS.items():
        if key not in manifest:
            raise BankFormatError(f"{path}: manifest missing field {key!r}")
        if not isinstance(manifest[key], list):
            raise BankFormatError(f"{path}: manifest {key} must be a list")
        for index, value in enumerate(manifest[key]):
            if not valid(value):
                raise BankFormatError(f"{path}: {entry} {index} is {value!r}, expected {expected}")
    arr = values.reshape(n_layers, sentences, tokens, channels)
    finite = np.isfinite(arr)
    if not finite.all():
        layer, b, t, e = np.argwhere(~finite)[0]
        raise DataError(
            f"{path}: non-finite value at layer {layer + 1}, sentence {b}, "
            f"token {t}, channel {e}"
        )
    try:
        return LayerBank(
            layers=list(arr),
            labels=np.asarray(manifest["labels"], dtype=np.int64),
            languages=manifest["language"],
            splits=manifest["split"],
        )
    except DataError as err:
        raise DataError(f"{path}: {err}") from err


# Dataclass field type -> (check of a decoded JSON value, what the value must be).
# A decoded bool has type bool, so it is never taken for a number.
_JSON_TYPES = {
    int: (lambda v: type(v) is int, "an integer"),
    float: (lambda v: type(v) in (int, float), "a number"),
    tuple: (lambda v: type(v) is list and all(type(x) in (int, float) for x in v), "a list of numbers"),
}


def check_document(cls, doc, error, what):
    """Require a JSON object of ``cls``'s dataclass fields, each of its field's JSON type.

    Otherwise raise ``error`` naming the unknown or mistyped field.
    """
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object, got {type(doc).__name__}")
    fields = cls.__dataclass_fields__
    unknown = set(doc) - set(fields)
    if unknown:
        raise error(f"unknown {what} fields: {sorted(unknown)}")
    for name, value in doc.items():
        valid, expected = _JSON_TYPES[fields[name].type]
        if not valid(value):
            raise error(f"{what} field {name} must be {expected}, got {value!r}")


def _nest(items):
    """Nested dicts from (dotted name, value) pairs."""
    root = {}
    for dotted, value in items:
        *parents, leaf = dotted.split(".")
        node = root
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
    return root


def _render(value, pad=""):
    """``json.dumps(value, sort_keys=True, indent=1)`` at indent ``pad``, arrays as lists.

    Containers are non-empty, as in every params document.  A float row is
    joined from ``float.__repr__``, which is how ``json`` renders a finite
    float, so the bytes match without its pure-Python encoder walking every
    value.
    """
    inner = pad + " "
    if isinstance(value, dict):
        items = [f"{json.dumps(key)}: {_render(value[key], inner)}" for key in sorted(value)]
        brackets = "{}"
    elif isinstance(value, np.ndarray):
        if value.ndim == 1:
            items = list(map(float.__repr__, value.tolist()))
        else:
            items = [_render(row, inner) for row in value]
        brackets = "[]"
    else:
        return json.dumps(value, allow_nan=False)
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def save_params(system, head, path):
    """Write a system plus classifier head as deterministic JSON.

    Blocks follow the model's dotted parameter names: gate tensor
    ``global.bn1.gamma`` is stored at ``gate.global.bn1.gamma``.  Floats are
    rendered with full shortest-roundtrip precision, so reloading reproduces
    every value bit-exactly; a non-finite value is an error naming its path.
    """
    named = {
        name: value.data if isinstance(value, Tensor) else value
        for name, value in stored_values(system, head).items()
    }
    for name, value in named.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{path}: refusing to write non-finite parameter {name}")
    doc = {
        "format": PARAMS_FORMAT,
        "version": PARAMS_VERSION,
        "system": system.describe(),
        "gate": None,  # replaced by the gate block of a fusion system
        **_nest(named.items()),
    }
    _atomic_write(path, [_render(doc).encode("utf-8")])


def _lookup(doc, dotted):
    """The value at a dotted path such as ``gate.local.bn1.eps``."""
    node, walked = doc, []
    for key in dotted.split("."):
        walked.append(key)
        if not isinstance(node, dict) or node.get(key) is None:
            raise ParamsFormatError(f"parameter file missing block {'.'.join(walked)}")
        node = node[key]
    return node


def load_params(path):
    """Load (system, head) from a parameter file, validating the schema."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            raise ParamsFormatError(f"{path}: not valid JSON ({err})") from err

    def get(dotted):
        return _lookup(doc, dotted)

    try:
        if get("format") != PARAMS_FORMAT:
            raise ParamsFormatError(f"unknown format {get('format')!r}")
        if get("version") != PARAMS_VERSION:
            raise ParamsFormatError(f"unsupported schema version {get('version')!r}")
        head = ClassifierHead(weight=parameter(get("head.weight")), bias=parameter(get("head.bias")))
        kind = get("system.kind")
        if kind == "baseline":
            return BaselineSystem(upper=int(get("system.upper"))), head
        if kind != "fusion":
            raise ParamsFormatError(f"unknown system kind {kind!r}")
        params = GateParams(
            channels=int(get("system.channels")),
            reduction=int(get("system.reduction")),
            global_branch=BranchParams.from_state(lambda name: get(f"gate.global.{name}")),
            local_branch=BranchParams.from_state(lambda name: get(f"gate.local.{name}")),
        ).validate()
        system = FusionSystem(
            pair=LayerPair(int(get("system.lower")), int(get("system.upper"))),
            params=params,
            variant=get("system.variant"),
            mode=get("system.gate_mode"),
        )
        return system, head
    except (TypeError, ValueError) as err:
        raise ParamsFormatError(f"{path}: {err}") from err

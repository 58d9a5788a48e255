"""Persistence: layer-bank binary files, model-parameter files, JSON config documents.

Bank layout: magic ``DLFB``, then version, layer count and (B, T, E) as
little-endian u32, the payload as little-endian float32 in row-major
[layer][sentence][token][channel] order, and finally a UTF-8 JSON manifest
prefixed by its byte length as a little-endian u64.  Layers stay float32 on
load.  Writers go through a temp file plus atomic rename.
"""

import itertools
import json
import math
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from .fusion import KINDS, ClassifierHead, stored_arrays, stored_values
from .tensor import BatchNormState, Tensor, parameter

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


# Manifest field -> (LayerBank attribute, name of one entry, entry check, what an entry
# must be, how an entry is written).  A numpy integer or string passes as a Python one
# does; a bool, Python's or numpy's, is never a label.
_MANIFEST_FIELDS = {
    "labels": ("labels", "label", lambda x: (type(x) is int or isinstance(x, np.integer)) and 0 <= x < 2**63,
               "an integer in [0, 2**63)", int),
    "language": ("languages", "language", lambda x: isinstance(x, str), "a string", str),
    "split": ("splits", "split", lambda x: isinstance(x, str), "a string", str),
}


@dataclass(eq=False)
class LayerBank:
    """Per-layer token embeddings plus a per-sentence manifest.

    Layer indices are 1-based and contiguous; every layer shares one
    (sentences, tokens, channels) shape.
    """

    layers: list
    labels: np.ndarray
    languages: list
    splits: list

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
        sentences = shape[0]
        for name, (attribute, entry, valid, expected, _) in _MANIFEST_FIELDS.items():
            values = entries = getattr(self, attribute)
            if attribute == "labels" and isinstance(values, np.ndarray):
                entries = values.tolist()
            if not isinstance(entries, (list, tuple)):
                refusal = f"manifest field {name} must be a list, got {type(values).__name__}"
            elif len(values) != sentences:
                refusal = f"manifest field {name} has {len(values)} entries for {sentences} sentences"
            else:
                refusal = next((f"{entry} {index} is {value!r}, expected {expected}"
                                for index, value in enumerate(entries) if not valid(value)), None)
            if refusal:
                raise DataError(f"{refusal} (LayerBank {attribute})")
        self.labels = np.asarray(self.labels, dtype=np.int64)

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

    def rows(self, indices):
        """A bank of the sentences at ``indices``, in order, over copies of their rows: it shares no memory with this one."""
        return LayerBank([layer[indices] for layer in self.layers], self.labels[indices],
                         [self.languages[i] for i in indices], [self.splits[i] for i in indices])


def check_fit(banks, upper, channels, split=None, params=None):
    """Raise DataError, naming the bank's file, unless each (path, bank) of ``banks`` fits a run.

    A bank fits when it holds layer ``upper`` (a run's lower layer is at most
    ``upper``), has ``channels`` channels and, when ``split`` is given, a
    sentence in that split.  ``params`` names the parameter file that sets
    ``upper`` and ``channels``, when one does.
    """
    by = f" by {params}" if params else ""
    for path, bank in banks:
        if upper > bank.n_layers:
            refusal = f"bank has layers 1..{bank.n_layers}, requested {upper}{by}"
        elif bank.shape[2] != channels:
            refusal = f"bank has {bank.shape[2]} channels, requested {channels}{by}"
        elif split is not None and not bank.split_indices(split).size:
            refusal = f"bank has no sentences in the {split!r} split"
        else:
            continue
        raise DataError(f"{path}: {refusal}")


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
            key: [write(x) for x in getattr(bank, attribute)]
            for key, (attribute, *_, write) in _MANIFEST_FIELDS.items()
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

    ``LayerBank`` judges the manifest's lists, as it judges an in-memory
    bank's, and its refusal is re-raised as a ``DataError`` naming the file.
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
    try:
        lists = {attribute: manifest[key] for key, (attribute, *_) in _MANIFEST_FIELDS.items()}
    except KeyError as err:
        raise BankFormatError(f"{path}: manifest missing field {err.args[0]!r}") from None
    arr = values.reshape(n_layers, sentences, tokens, channels)
    try:
        bank = LayerBank(list(arr), **lists)
    except DataError as err:
        raise DataError(f"{path}: {err}") from err
    finite = np.isfinite(arr)
    if not finite.all():
        layer, b, t, e = np.argwhere(~finite)[0]
        raise DataError(
            f"{path}: non-finite value at layer {layer + 1}, sentence {b}, "
            f"token {t}, channel {e}"
        )
    return bank


def _number(v):
    """Whether a decoded JSON value is a finite number; ``NaN``, ``Infinity``, ``1e999`` and ``true`` are not."""
    return type(v) is int or type(v) is float and math.isfinite(v)


# Dataclass field type -> (check of a decoded JSON value, what the value must be).
_JSON_TYPES = {
    int: (lambda v: type(v) is int, "an integer"),
    float: (_number, "a number"),
    tuple: (lambda v: type(v) is list and all(map(_number, v)), "a list of numbers"),
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
    named = dict(stored_arrays(system, head))
    for name, value in named.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{path}: refusing to write non-finite parameter {name}")
    doc = {
        "format": PARAMS_FORMAT,
        "version": PARAMS_VERSION,
        "system": system.describe(),
        "gate": None,  # every v1 file has a gate block: null unless the system stores gate values
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


def _holds_boolean(value):
    """Whether a decoded JSON value is, or nests, ``true`` or ``false``."""
    return type(value) is bool or type(value) is list and any(map(_holds_boolean, value))


def _fill(owner, attribute, value, name, booleans):
    """Store a finite number, or array of numbers, of the template's shape at ``owner.attribute``.

    numpy reads a boolean among numbers as 0 or 1, so when the file holds a
    ``true`` or ``false`` token (``booleans``) the entries are checked for
    one.  A filled norm then runs its own checks; each refusal names ``name``.
    """
    place = getattr(owner, attribute)
    held = place.data if isinstance(place, Tensor) else place
    try:
        array = np.asarray(value)
    except ValueError:
        raise ValueError(f"{name} is not a rectangular array") from None
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold numbers, got dtype {array.dtype}")
    if booleans and _holds_boolean(value):
        raise ValueError(f"{name} holds a boolean among numbers")
    if array.shape != np.shape(held):
        raise ValueError(f"{name} has shape {array.shape}, expected {np.shape(held)}")
    value = array.astype(np.float64, copy=False)
    if not np.isfinite(value).all():
        raise ValueError(f"{name} holds a non-finite value")
    if isinstance(place, Tensor):
        place.data = value
    else:
        setattr(owner, attribute, value if value.ndim else float(value))
    if isinstance(owner, BatchNormState):
        try:
            owner._validate()
        except ValueError as err:
            raise ValueError(f"{name}: {err}") from None


def load_params(path):
    """Load (system, head): fill the ``template`` of ``KINDS[system.kind]`` and a zero head through ``stored_values``.

    The head has the stored head weight's shape, its rows the system's channels when it has them.
    Each refusal names the file and the dotted field.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParamsFormatError(f"{path}: not valid JSON ({err})") from err
    # A valid file holds neither token, so only a file that does has its entries checked.
    booleans = "true" in text or "false" in text

    def get(dotted):
        return _lookup(doc, dotted)

    def integer(key):
        value = get(f"system.{key}")
        if type(value) is not int:
            raise ValueError(f"system.{key} must be an integer, got {value!r}")
        return value

    try:
        if get("format") != PARAMS_FORMAT:
            raise ParamsFormatError(f"unknown format {get('format')!r}")
        version = get("version")
        if type(version) is not int or version != PARAMS_VERSION:
            raise ParamsFormatError(f"unsupported schema version {version!r}")
        kind = get("system.kind")
        if type(kind) is not str or kind not in KINDS:
            raise ValueError(f"unknown system kind {kind!r}")
        system = KINDS[kind].template(get, integer)
        weight = get("head.weight")  # outside the try: a missing block names itself
        try:
            rows, classes = np.shape(weight)
        except ValueError:
            raise ValueError("head.weight must be a 2-D array") from None
        rows = system.describe().get("channels", rows)
        head = ClassifierHead(weight=parameter(np.zeros((rows, classes))), bias=parameter(np.zeros(classes)))
        for name, owner, attribute in stored_values(system, head):
            _fill(owner, attribute, get(name), name, booleans)
        return system, head
    except (TypeError, ValueError) as err:
        raise ParamsFormatError(f"{path}: {err}") from err

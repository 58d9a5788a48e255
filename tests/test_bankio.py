"""Bank and parameter persistence: roundtrips and structured failures."""

import json
import mmap
import multiprocessing
import os
import re
import stat
import struct
import subprocess
import sys
import threading
import weakref
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import layerfuse
from layerfuse import (
    BaselineSystem,
    BankFormatError,
    BankTruncationError,
    DataError,
    LayerBank,
    LayerPair,
    SyntheticTaskSpec,
    Tensor,
    build_fusion_system,
    generate_task,
    init_head,
    load_params,
    read_bank,
    save_params,
    write_bank,
)
from layerfuse import fusion
from layerfuse.bank import MAGIC, ParamsFormatError
from layerfuse.fusion import stored_values
from layerfuse.tensor import CHUNK_VALUES
from layerfuse.cli import main

RNG = np.random.default_rng(404)

SMALL = SyntheticTaskSpec(
    train_sentences=12, test_sentences=6, channels=4, latent_dim=3,
    tokens=2, n_layers=2, invariance=(0.8, 0.2), seed=21,
)


# One system of each kind of ``fusion.KINDS``, at ``width`` channels, for the params round-trip tests.
EXAMPLES = {
    "baseline": lambda width, variant, mode: BaselineSystem(upper=2),
    "fusion": lambda width, variant, mode: build_fusion_system(
        LayerPair(1, 2), width, variant=variant, mode=mode, seed=0),
}


# Every leaf of a version-1 parameter file of a fusion system, by dotted path.
_BRANCH_LEAVES = [
    "bn1.beta", "bn1.eps", "bn1.gamma", "bn1.momentum", "bn1.running_mean", "bn1.running_var",
    "bn2.beta", "bn2.eps", "bn2.gamma", "bn2.momentum", "bn2.running_mean", "bn2.running_var",
    "conv1.bias", "conv1.kernel", "conv2.bias", "conv2.kernel",
]
V1_FUSION_LEAVES = sorted(
    ["format", "version", "head.bias", "head.weight",
     "system.channels", "system.gate_mode", "system.kind", "system.lower",
     "system.reduction", "system.upper", "system.variant"]
    + [f"gate.global.{leaf}" for leaf in _BRANCH_LEAVES]
    + [f"gate.local.{leaf}" for leaf in _BRANCH_LEAVES]
)


def _leaf_paths(node, prefix=""):
    if isinstance(node, dict):
        return [path for key, value in node.items() for path in _leaf_paths(value, f"{prefix}{key}.")]
    return [prefix[:-1]]


def _drop(dotted):
    def mutate(doc):
        *parents, leaf = dotted.split(".")
        node = doc
        for key in parents:
            node = node[key]
        del node[leaf]
        return doc

    return mutate


def _cut(dotted, size):
    """Keep the first ``size`` entries of the list at ``dotted``."""
    return _set(dotted, lambda value: value[:size])


def _set(dotted, change):
    """Replace the value at ``dotted`` by ``change(value)``."""

    def mutate(doc):
        *parents, leaf = dotted.split(".")
        node = doc
        for key in parents:
            node = node[key]
        node[leaf] = change(node[leaf])
        return doc

    return mutate


# (dotted path the error must name, change that breaks a saved fusion file)
MALFORMED_PARAMS = [
    ("system.upper", _drop("system.upper")),
    ("system.kind", _drop("system.kind")),
    ("unknown system kind 'bogus'", _set("system.kind", lambda v: "bogus")),
    ("unknown system kind ['fusion']", _set("system.kind", lambda v: ["fusion"])),
    ("gate.local.conv2.bias", _drop("gate.local.conv2.bias")),
    ("head.bias", _drop("head.bias")),
    ("format", lambda doc: [doc]),
    ("variant", lambda doc: {**doc, "system": {**doc["system"], "variant": "bogus"}}),
    ("gate.global.conv1.bias", _cut("gate.global.conv1.bias", 1)),
    ("head.bias has shape", _cut("head.bias", 1)),
    ("head.weight", _cut("head.weight", 7)),
    ("gate.local.conv2.kernel has shape (1, 8), expected (2, 8)", _cut("gate.local.conv2.kernel", 1)),
    ("gate.global.bn1.beta has shape (1,), expected (2,)", _cut("gate.global.bn1.beta", 1)),
    ("gate.global.bn1.gamma holds a non-finite value",
     _set("gate.global.bn1.gamma", lambda v: [float("nan"), *v[1:]])),
    ("head.bias holds a non-finite value", _set("head.bias", lambda v: [*v[:-1], float("inf")])),
    ("gate.local.bn2.eps holds a non-finite value", _set("gate.local.bn2.eps", lambda v: float("-inf"))),
    ("gate.global.bn1.running_var: batch norm running variance must be non-negative",
     _set("gate.global.bn1.running_var", lambda v: [-1.0, *v[1:]])),
    ("gate.local.bn1.momentum: batch norm momentum must lie in (0, 1)",
     _set("gate.local.bn1.momentum", lambda v: 1.0)),
    ("system.upper must be an integer, got 2.9", _set("system.upper", lambda v: 2.9)),
    ("system.upper must be an integer, got '2'", _set("system.upper", lambda v: "2")),
    ("system.lower must be an integer, got True", _set("system.lower", lambda v: True)),
    ("system.reduction must be an integer, got 4.5", _set("system.reduction", lambda v: 4.5)),
    ("system.channels must be an integer, got 8.0", _set("system.channels", lambda v: 8.0)),
    ("unsupported schema version True", _set("version", lambda v: True)),
    ("gate.global.bn1.eps must hold numbers, got dtype <U4", _set("gate.global.bn1.eps", lambda v: "1e-5")),
    ("gate.global.bn2.eps must hold numbers, got dtype bool", _set("gate.global.bn2.eps", lambda v: True)),
    ("gate.local.conv1.bias must hold numbers, got dtype <U3",
     _set("gate.local.conv1.bias", lambda v: ["0.5"] * len(v))),
    ("head.bias must hold numbers, got dtype bool", _set("head.bias", lambda v: [True] * len(v))),
    ("gate.global.conv2.kernel must hold numbers, got dtype object",
     _set("gate.global.conv2.kernel", lambda v: [[None] * len(v[0]), *v[1:]])),
    ("gate.local.conv1.kernel is not a rectangular array",
     _set("gate.local.conv1.kernel", lambda v: [v[0][:1], *v[1:]])),
    ("head.weight must be a 2-D array", _set("head.weight", lambda v: v[0])),
    ("missing block head.weight", _drop("head.weight")),
    ("baseline needs upper >= 1, got 0",
     lambda doc: {**doc, "system": {"kind": "baseline", "upper": 0}, "gate": None}),
    ("gate.global.bn1.gamma holds a boolean among numbers", _set("gate.global.bn1.gamma", lambda v: [0.5, True])),
    ("gate.local.bn1.gamma holds a boolean among numbers", _set("gate.local.bn1.gamma", lambda v: [False, 1.0])),
    ("head.weight holds a boolean among numbers", _set("head.weight", lambda v: [*v[:-1], [*v[-1][:-1], True]])),
]


@pytest.fixture(scope="module")
def bank():
    return generate_task(SMALL)[0]


def _owner(array):
    """The object at the end of an array's base chain: what holds its memory."""
    while isinstance(array, (np.ndarray, memoryview)):
        array = array.base if isinstance(array, np.ndarray) else array.obj
    return array


# Prints how far read_bank raises the peak resident set of its process, in bytes.
_PEAK_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from layerfuse import read_bank

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:"))

before = peak()
bank = read_bank(sys.argv[2])
print(peak() - before)
"""


# Shared by the scripts below: the peak resident set of this process, in bytes.
_VMHWM = """
import sys
sys.path.insert(0, sys.argv[1])

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:"))
"""

# Writes a float32 bank of 2 layers of (64, 128, 768), a 50 MB file, to
# argv[2] and prints how far write_bank raises the peak, in bytes.
_WRITE_PEAK_SCRIPT = _VMHWM + """
import numpy as np
from layerfuse import LayerBank, write_bank

bank = LayerBank(layers=[np.full((64, 128, 768), 0.5, np.float32) for _ in range(2)],
                 labels=[0] * 64, languages=["src"] * 64, splits=["t"] * 64)
before = peak()
write_bank(bank, sys.argv[2])
print(peak() - before)
"""

# Runs `fuse --bank argv[2] --params argv[3] --out argv[4]` and prints, on its
# last line, how far the command's write_bank call raises the peak, in bytes.
_FUSE_PEAK_SCRIPT = _VMHWM + """
from layerfuse import cli

rises = []

def write_bank(bank, path):
    before = peak()
    original(bank, path)
    rises.append(peak() - before)

original, cli.write_bank = cli.write_bank, write_bank
assert cli.main(["fuse", "--bank", sys.argv[2], "--params", sys.argv[3], "--out", sys.argv[4]]) == 0
print(rises[0])
"""

# Runs `fuse --bank argv[2] --params argv[3] --out argv[4]` and prints how far
# the command raises the peak, in bytes, on its last line.
_FUSE_RISE_SCRIPT = _VMHWM + """
from layerfuse import cli

before = peak()
assert cli.main(["fuse", "--bank", sys.argv[2], "--params", sys.argv[3], "--out", sys.argv[4]]) == 0
print(peak() - before)
"""


def _run_script(script, *args):
    """Stdout of ``script`` in a fresh process, whose VmHWM holds nothing of this one's."""
    src = os.path.dirname(os.path.dirname(layerfuse.__file__))
    return subprocess.run(
        [sys.executable, "-c", script, src, *map(str, args)],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout


def _staged_bytes(bank):
    """A bank file as built in memory whole: header, stacked float32 payload, manifest."""
    manifest = json.dumps(
        {"labels": bank.labels.tolist(), "language": bank.languages, "split": bank.splits},
        sort_keys=True, separators=(",", ":"),
    ).encode()
    header = struct.pack("<4sIIIII", MAGIC, 1, bank.n_layers, *bank.shape)
    payload = np.stack(bank.layers).astype("<f4").tobytes()
    return header + payload + struct.pack("<Q", len(manifest)) + manifest


# Layer forms a bank may hold, each (3, 4, 6), from a float64 array of (3, 8, 6)
# whose values float32 cannot hold exactly.
_LAYER_FORMS = {
    "float32": lambda x: x[:, :4].astype(np.float32),
    "float64": lambda x: x[:, :4].copy(),
    "strided float32": lambda x: x.astype(np.float32)[:, ::2, ::-1],
    "strided float64": lambda x: x[:, 1::2],
    "fortran float32": lambda x: np.asfortranarray(x[:, 4:], dtype=np.float32),
}


class TestBankRoundtrip:
    def test_bit_exact(self, bank, tmp_path):
        path = tmp_path / "bank.bank"
        write_bank(bank, path)
        loaded = read_bank(path)
        assert loaded.n_layers == bank.n_layers
        for a, b in zip(bank.layers, loaded.layers):
            npt.assert_array_equal(a, b)
        npt.assert_array_equal(loaded.labels, bank.labels)
        assert loaded.languages == bank.languages
        assert loaded.splits == bank.splits

    def test_writes_byte_identical(self, bank, tmp_path):
        first, second = tmp_path / "a.bank", tmp_path / "b.bank"
        write_bank(bank, first)
        write_bank(bank, second)
        assert first.read_bytes() == second.read_bytes()

    def test_unwritable_path(self, bank, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "x.bank"
        with pytest.raises(OSError, match="no"):
            write_bank(bank, missing_dir)

    def test_minimal_bank(self, tmp_path):
        tiny = LayerBank(
            layers=[np.array([[[0.5]]])], labels=np.array([0]),
            languages=["src"], splits=["train"],
        )
        path = tmp_path / "tiny.bank"
        write_bank(tiny, path)
        loaded = read_bank(path)
        assert loaded.shape == (1, 1, 1)
        assert loaded.layers[0][0, 0, 0] == 0.5

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_read_from_a_pipe(self, bank, tmp_path):
        # A pipe reports size 0, so it is read whole instead of into a map.
        path, pipe = tmp_path / "bank.bank", tmp_path / "pipe"
        write_bank(bank, path)
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(path.read_bytes(),), daemon=True)
        writer.start()
        loaded = read_bank(pipe)
        writer.join(timeout=30)
        assert not writer.is_alive()
        npt.assert_array_equal(np.stack(loaded.layers), np.stack(read_bank(path).layers))
        assert all(layer.flags.writeable for layer in loaded.layers)

    def test_layers_are_float32_views_into_one_map(self, tmp_path):
        source, target = generate_task(SMALL)
        path = tmp_path / "bank.bank"
        write_bank(source, path)
        loaded = read_bank(path)
        assert {layer.dtype for layer in source.layers + target.layers + loaded.layers} == {
            np.dtype(np.float32)
        }
        owners = {id(_owner(layer)) for layer in loaded.layers}
        assert len(owners) == 1 and isinstance(_owner(loaded.layers[0]), mmap.mmap)
        assert all(layer.flags.writeable for layer in loaded.layers)

    def test_a_bank_of_some_rows_lets_the_map_go(self, tmp_path):
        path = tmp_path / "bank.bank"
        write_bank(generate_task(SMALL)[1], path)
        loaded = read_bank(path)
        picked = np.array([5, 0, 3])
        kept = loaded.rows(picked)
        assert [layer.tobytes() for layer in kept.layers] == [layer[picked].tobytes() for layer in loaded.layers]
        assert {layer.dtype for layer in kept.layers} == {np.dtype(np.float32)}
        assert kept.labels.tolist() == loaded.labels[picked].tolist()
        assert (kept.languages, kept.splits) == ([loaded.languages[i] for i in picked],
                                                 [loaded.splits[i] for i in picked])
        the_map = weakref.ref(_owner(loaded.layers[0]))
        del loaded
        assert the_map() is None

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
    def test_read_peak_is_about_the_file_size(self, tmp_path):
        # 2 layers of (64, 128, 768): a 50 MB file.  Read in a fresh process,
        # whose VmHWM holds nothing of this one's.
        path = tmp_path / "big.bank"
        shape = (64, 128, 768)
        manifest = json.dumps({"labels": [0] * 64, "language": ["src"] * 64, "split": ["t"] * 64})
        with open(path, "wb") as handle:
            handle.write(struct.pack("<4sIIIII", MAGIC, 1, 2, *shape))
            handle.write(np.ones(2 * np.prod(shape), "<f4"))
            handle.write(struct.pack("<Q", len(manifest)) + manifest.encode())
        done = subprocess.run(
            [sys.executable, "-c", _PEAK_SCRIPT, os.path.dirname(os.path.dirname(layerfuse.__file__)),
             str(path)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert int(done.stdout) < 1.6 * path.stat().st_size

    @pytest.mark.parametrize("n_layers", [1, 3])
    @pytest.mark.parametrize("forms", [[form] for form in _LAYER_FORMS] + [list(_LAYER_FORMS)],
                             ids=[*_LAYER_FORMS, "mixed"])
    def test_writes_the_staged_bytes(self, tmp_path, forms, n_layers):
        kinds = [forms[i % len(forms)] for i in range(n_layers)]
        layers = [_LAYER_FORMS[kind](RNG.normal(size=(3, 8, 6)) * 1e3) for kind in kinds]
        bank = LayerBank(layers=layers, labels=[0, 2, 1], languages=["src", "é", "\0"],
                         splits=["train", "test", "train"])
        # The bank holds each layer in its own form, so the writer sees that form.
        assert [layer.flags.c_contiguous for layer in bank.layers] == [" " not in kind for kind in kinds]
        path = tmp_path / "bank.bank"
        write_bank(bank, path)
        assert path.read_bytes() == _staged_bytes(bank)

    def test_failed_write_leaves_no_file(self, bank, tmp_path):
        # Layers go out one at a time, so a layer that cannot be cast fails mid-write.
        broken = LayerBank(layers=list(bank.layers), labels=bank.labels,
                           languages=bank.languages, splits=bank.splits)
        broken.layers.append("not a layer")
        with pytest.raises(ValueError):
            write_bank(broken, tmp_path / "bank.bank")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
    def test_write_peak_holds_no_payload_copy(self, tmp_path):
        path = tmp_path / "big.bank"
        rise = int(_run_script(_WRITE_PEAK_SCRIPT, path))
        assert rise < 0.25 * path.stat().st_size

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
    def test_fuse_writes_without_the_graph(self, tmp_path):
        # No eval graph is alive at the write, and the fused layer is already
        # float32, so the write fits under the forward pass's peak.
        shape = (32, 128, 384)
        rng = np.random.default_rng(7)
        bank_path, params, out = tmp_path / "in.bank", tmp_path / "params.json", tmp_path / "out.bank"
        write_bank(LayerBank(layers=[rng.normal(size=shape).astype(np.float32) for _ in range(2)],
                             labels=[0, 1] * 16, languages=["src"] * 32, splits=["test"] * 32), bank_path)
        save_params(build_fusion_system(LayerPair(1, 2), 384, seed=0), init_head(384, 2, seed=0), params)
        rise = int(_run_script(_FUSE_PEAK_SCRIPT, bank_path, params, out).splitlines()[-1])
        assert rise < 0.25 * np.prod(shape) * 8

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
    def test_fuse_peak_is_bounded_by_one_chunk(self, tmp_path):
        # The eval forward runs a chunk of rows at a time, so beyond the bank
        # and the float32 output, fuse holds a fixed multiple of one chunk's
        # float64 intermediates, whatever the sentence count: a rise of
        # 67.3-67.8 MiB with chunks of two sentences (the allowance below is
        # 74.0 MiB), against 557 MiB for one forward over all 96 sentences.
        shape = (96, 128, 384)
        rng = np.random.default_rng(7)
        bank_path, params, out = tmp_path / "in.bank", tmp_path / "params.json", tmp_path / "out.bank"
        write_bank(LayerBank(layers=[rng.normal(size=shape).astype(np.float32) for _ in range(2)],
                             labels=[0, 1] * 48, languages=["src"] * 96, splits=["test"] * 96), bank_path)
        save_params(build_fusion_system(LayerPair(1, 2), 384, seed=0), init_head(384, 2, seed=0), params)
        rise = int(_run_script(_FUSE_RISE_SCRIPT, bank_path, params, out).splitlines()[-1])
        assert rise < bank_path.stat().st_size + 4 * np.prod(shape) + 20 * CHUNK_VALUES * 8

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_forked_writes_stay_in_the_child(self, bank, tmp_path):
        # Sweep workers are forked from the process that read the banks; a
        # shared map would let a worker's write reach the parent's layers.
        path = tmp_path / "bank.bank"
        write_bank(bank, path)
        loaded = read_bank(path)
        before = loaded.layers[0].copy()
        child = multiprocessing.get_context("fork").Process(target=loaded.layers[0].fill, args=(7.0,))
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 0
        npt.assert_array_equal(loaded.layers[0], before)

    def test_split_names_differing_by_trailing_nul(self, tmp_path, capsys):
        # A numpy string array drops trailing NULs, so comparing through one
        # took "train" and "train\0" for the same split.
        path = tmp_path / "nul.bank"
        write_bank(LayerBank(
            layers=[np.zeros((3, 1, 1))], labels=np.array([0, 1, 0]),
            languages=["src"] * 3, splits=["train", "train\0", "test"],
        ), path)
        loaded = read_bank(path)
        assert loaded.split_indices("train").tolist() == [0]
        assert loaded.split_indices("train\0").tolist() == [1]
        assert loaded.split_indices("test").tolist() == [2]
        assert main(["inspect-bank", "--bank", str(path), "--manifest", str(tmp_path / "m.json")]) == 0
        assert "  splits: test=1, train=1, train\0=1\n" in capsys.readouterr().out


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX file modes")
@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_written_files_take_the_umask_mode(bank, tmp_path, umask):
    previous = os.umask(umask)
    try:
        write_bank(bank, tmp_path / "bank.bank")
        save_params(BaselineSystem(upper=2), init_head(4, 3, seed=0), tmp_path / "params.json")
    finally:
        os.umask(previous)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    assert modes == {"bank.bank": 0o666 & ~umask, "params.json": 0o666 & ~umask}


# Any text, NUL and non-ASCII included; entries share a few stems that differ
# only by trailing NULs, so the manifest lists hold near-equal names.
_STEMS = st.lists(st.text(max_size=3), min_size=1, max_size=3)


def _manifest_texts(stems, size):
    entry = st.builds(lambda stem, nuls: stem + "\0" * nuls, st.sampled_from(stems), st.integers(0, 2))
    return st.lists(entry, min_size=size, max_size=size)


@st.composite
def _random_banks(draw):
    n_layers, sentences, tokens, channels = (draw(st.integers(1, n)) for n in (2, 5, 2, 3))
    layers = draw(st.lists(
        hnp.arrays(np.float32, (sentences, tokens, channels),
                   elements=st.floats(allow_nan=False, allow_infinity=False, width=32)),
        min_size=n_layers, max_size=n_layers,
    ))
    return LayerBank(
        layers=layers,
        labels=draw(st.lists(st.integers(0, 2**63 - 1), min_size=sentences, max_size=sentences)),
        languages=draw(_manifest_texts(draw(_STEMS), sentences)),
        splits=draw(_manifest_texts(draw(_STEMS), sentences)),
    )


@settings(max_examples=60, deadline=None)
@given(_random_banks())
@example(LayerBank(layers=[np.zeros((3, 1, 1), np.float32)], labels=[0, 2**63 - 1, 5],
                   languages=["\0", "é", ""], splits=["train", "train\0", "test"]))
def test_bank_round_trips_random_manifests(tmp_path_factory, bank):
    path = tmp_path_factory.mktemp("bank") / "random.bank"
    write_bank(bank, path)
    loaded = read_bank(path)
    assert [layer.tobytes() for layer in loaded.layers] == [layer.tobytes() for layer in bank.layers]
    assert loaded.labels.tolist() == bank.labels.tolist()
    assert loaded.languages == bank.languages
    assert loaded.splits == bank.splits
    for name in {*bank.splits, "dev"}:  # and a name the bank may lack
        expected = [row for row, split in enumerate(bank.splits) if split == name]
        assert loaded.split_indices(name).tolist() == expected, repr(name)


_ANY_ENTRY = st.one_of(st.integers(-1, 2**64), st.booleans(), st.floats(-2, 2), st.text(max_size=2), st.none())
_LABEL_ARRAYS = hnp.arrays(st.sampled_from([np.int8, np.uint8, np.int64, np.uint64, np.float64, np.bool_]), 3)


@st.composite
def _manifest_list(draw, entry):
    """Three ``entry``s as a list or a tuple, or, half the time, anything that might pass for one."""
    if draw(st.booleans()):
        return draw(st.sampled_from([list, tuple]))(draw(st.lists(entry, min_size=3, max_size=3)))
    values = draw(st.lists(st.one_of(entry, _ANY_ENTRY), min_size=2, max_size=4))
    return draw(st.sampled_from([list, tuple, lambda v: "".join(map(str, v))]))(values)


@settings(max_examples=150, deadline=None)
@given(
    labels=st.one_of(_manifest_list(st.integers(0, 2**63 - 1)), _LABEL_ARRAYS),
    languages=_manifest_list(st.text(max_size=2)),
    splits=_manifest_list(st.sampled_from(["train", "test", "t\0"])),
)
@example(labels=[0.5, 1.7, True], languages="abc", splits=[1, None, "x"])
@example(labels=[0, 1, 2], languages=["a", "b", "c"], splits=[1, None, "x"])
def test_every_bank_that_constructs_round_trips(tmp_path_factory, labels, languages, splits):
    try:
        bank = LayerBank(layers=[np.zeros((3, 1, 1), np.float32)], labels=labels,
                         languages=languages, splits=splits)
    except DataError:
        return
    path = tmp_path_factory.mktemp("bank") / "any.bank"
    write_bank(bank, path)
    loaded = read_bank(path)
    assert loaded.labels.tolist() == (labels.tolist() if isinstance(labels, np.ndarray) else list(labels))
    assert loaded.languages == list(languages)
    assert loaded.splits == list(splits)


# Two sentences: labels [0, 1], languages ["a", "b"], splits ["t", "t"], one field replaced.
_BAD_MANIFESTS = [
    ("labels", [0, 1.7], "label 1 is 1.7, expected an integer in [0, 2**63) (LayerBank labels)"),
    ("labels", np.array([0.0, 1.0]), "label 0 is 0.0, expected an integer in [0, 2**63)"),
    ("labels", [0, True], "label 1 is True, expected an integer in [0, 2**63)"),
    ("labels", np.array([True, False]), "label 0 is True, expected an integer"),
    ("labels", np.array([0, -1]), "label 1 is -1, expected an integer"),
    ("labels", np.array([0, 2**63], np.uint64), "label 1 is 9223372036854775808, expected an integer"),
    ("labels", np.array([[0], [1]]), "label 0 is [0], expected an integer"),
    ("languages", "ab", "manifest field language must be a list, got str (LayerBank languages)"),
    ("languages", np.array(["a", "b"]), "manifest field language must be a list, got ndarray"),
    ("languages", ["a", 1], "language 1 is 1, expected a string (LayerBank languages)"),
    ("splits", ["t", 2.5], "split 1 is 2.5, expected a string (LayerBank splits)"),
    ("splits", (None, "t"), "split 0 is None, expected a string (LayerBank splits)"),
]


def _raw_bank(n_layers=2, b=4, t=3, e=8, floats=None, manifest=None):
    count = n_layers * b * t * e if floats is None else floats
    header = struct.pack("<4sIIIII", MAGIC, 1, n_layers, b, t, e)
    payload = np.arange(count, dtype="<f4").tobytes()
    if manifest is None:
        manifest = json.dumps(
            {"labels": [0] * b, "language": ["src"] * b, "split": ["train"] * b}
        ).encode()
    return header + payload + struct.pack("<Q", len(manifest)) + manifest


class TestBankValidation:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bank"
        path.write_bytes(b"XXXX" + _raw_bank()[4:])
        with pytest.raises(BankFormatError, match="magic"):
            read_bank(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.bank"
        raw = _raw_bank()
        path.write_bytes(raw[:4] + struct.pack("<I", 9) + raw[8:])
        with pytest.raises(BankFormatError, match="version"):
            read_bank(path)

    def test_truncated_payload_counts(self, tmp_path):
        # Header declares 2 layers of 4x3x8 = 192 floats; provide 191.
        path = tmp_path / "short.bank"
        header = struct.pack("<4sIIIII", MAGIC, 1, 2, 4, 3, 8)
        payload = np.zeros(191, dtype="<f4").tobytes()
        path.write_bytes(header + payload + struct.pack("<Q", 0))
        with pytest.raises(BankTruncationError, match="192"):
            read_bank(path)

    def test_truncated_manifest(self, tmp_path):
        path = tmp_path / "short.bank"
        raw = _raw_bank()
        path.write_bytes(raw[:-4])
        with pytest.raises(BankTruncationError, match="manifest"):
            read_bank(path)

    def test_every_truncation_raises_a_bank_error(self, tmp_path):
        raw = _raw_bank(n_layers=1, e=5)
        assert len(raw) == 385
        path = tmp_path / "cut.bank"
        raised = Counter()
        for size in range(len(raw)):
            path.write_bytes(raw[:size])
            with pytest.raises(BankFormatError) as excinfo:
                read_bank(path)
            raised[type(excinfo.value)] += 1
        # A cut inside the 24-byte header is a format error, any later one a truncation.
        assert raised == {BankFormatError: 24, BankTruncationError: 361}

    @pytest.mark.parametrize("appended", [b"\n", _raw_bank()], ids=["one byte", "a second bank"])
    def test_bytes_after_the_manifest(self, tmp_path, appended):
        path = tmp_path / "long.bank"
        path.write_bytes(_raw_bank() + appended)
        message = f"^{re.escape(str(path))}: {len(appended)} bytes after the manifest$"
        with pytest.raises(BankFormatError, match=message):
            read_bank(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub.bank"
        path.write_bytes(b"DLFB\x01")
        with pytest.raises(BankFormatError, match="header"):
            read_bank(path)

    def test_non_finite_payload_located(self, tmp_path):
        path = tmp_path / "nan.bank"
        header = struct.pack("<4sIIIII", MAGIC, 1, 1, 2, 2, 2)
        values = np.zeros(8, dtype="<f4")
        values[5] = np.nan
        manifest = json.dumps({"labels": [0, 0], "language": ["a", "a"], "split": ["t", "t"]}).encode()
        path.write_bytes(header + values.tobytes() + struct.pack("<Q", len(manifest)) + manifest)
        with pytest.raises(DataError, match="layer 1, sentence 1, token 0, channel 1"):
            read_bank(path)

    def test_manifest_not_json(self, tmp_path):
        path = tmp_path / "bad.bank"
        path.write_bytes(_raw_bank(manifest=b"not json"))
        with pytest.raises(BankFormatError, match="JSON"):
            read_bank(path)

    def test_manifest_missing_field(self, tmp_path):
        path = tmp_path / "bad.bank"
        manifest = json.dumps({"labels": [0] * 4, "language": ["a"] * 4}).encode()
        path.write_bytes(_raw_bank(manifest=manifest))
        with pytest.raises(BankFormatError, match="split"):
            read_bank(path)

    def test_manifest_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.bank"
        manifest = json.dumps({"labels": [0], "language": ["a"], "split": ["t"]}).encode()
        path.write_bytes(_raw_bank(manifest=manifest))
        with pytest.raises((BankFormatError, DataError)):
            read_bank(path)

    @pytest.mark.parametrize("field, named", [
        ("labels", "labels"), ("language", "language"), ("split", "split"),
    ])
    def test_manifest_length_mismatch_names_file(self, tmp_path, field, named):
        path = tmp_path / "bad.bank"
        manifest = {"labels": [0] * 4, "language": ["a"] * 4, "split": ["t"] * 4}
        manifest[field] = manifest[field][:1]
        path.write_bytes(_raw_bank(manifest=json.dumps(manifest).encode()))
        message = f"{re.escape(str(path))}: manifest field {named} has 1 entries for 4 sentences"
        with pytest.raises(DataError, match=message):
            read_bank(path)

    @pytest.mark.parametrize("labels, named", [
        ([0, 1.7, 0, 0], "label 1 is 1.7"),
        ([[1], [0], [0], [0]], "label 0 is \\[1\\]"),
        ([0, 0, True, 0], "label 2 is True"),
        ([0, 0, 0, 2**63], "label 3 is 9223372036854775808"),
        ([0, -1, 0, 0], "label 1 is -1"),
        ("0000", "manifest field labels must be a list, got str \\(LayerBank labels\\)"),
    ])
    def test_bad_labels_named(self, tmp_path, labels, named):
        path = tmp_path / "bad.bank"
        manifest = json.dumps({"labels": labels, "language": ["a"] * 4, "split": ["t"] * 4})
        path.write_bytes(_raw_bank(manifest=manifest.encode()))
        with pytest.raises(DataError, match=f"{re.escape(str(path))}: {named}"):
            read_bank(path)

    @pytest.mark.parametrize("field, values, named", [
        ("language", "abcd", "manifest field language must be a list, got str \\(LayerBank languages\\)"),
        ("language", ["a", "b", ["c"], "d"], "language 2 is \\['c'\\]"),
        ("language", ["a", 1, "b", "c"], "language 1 is 1"),
        ("split", [["x"], None, "t", "t"], "split 0 is \\['x'\\]"),
        ("split", ["t", "t", "t", None], "split 3 is None"),
        ("split", {"t": 1, "u": 2, "v": 3, "w": 4}, "manifest field split must be a list, got dict \\(LayerBank splits\\)"),
    ])
    def test_bad_language_or_split_named(self, tmp_path, field, values, named):
        path = tmp_path / "bad.bank"
        manifest = {"labels": [0] * 4, "language": ["a"] * 4, "split": ["t"] * 4, field: values}
        path.write_bytes(_raw_bank(manifest=json.dumps(manifest).encode()))
        with pytest.raises(DataError, match=f"{re.escape(str(path))}: {named}"):
            read_bank(path)

    # Every bad manifest of test_manifest_entries_named that a JSON file can carry.
    @pytest.mark.parametrize("field, values", [
        (field, values) for field, values, _ in _BAD_MANIFESTS if not isinstance(values, np.ndarray)
    ])
    def test_file_refused_as_layer_bank_refuses(self, tmp_path, field, values):
        lists = json.loads(json.dumps({"labels": [0, 1], "languages": ["a", "b"], "splits": ["t", "t"],
                                       field: values}))
        with pytest.raises(DataError) as expected:
            LayerBank(layers=[np.zeros((2, 1, 1), np.float32)], **lists)
        path = tmp_path / "bad.bank"
        manifest = {"labels": lists["labels"], "language": lists["languages"], "split": lists["splits"]}
        path.write_bytes(_raw_bank(n_layers=1, b=2, t=1, e=1, manifest=json.dumps(manifest).encode()))
        with pytest.raises(DataError) as refused:
            read_bank(path)
        assert str(refused.value) == f"{path}: {expected.value}"

    def test_largest_label_accepted(self, tmp_path):
        path = tmp_path / "big.bank"
        labels = [0, 1, 2**63 - 1, 0]
        manifest = json.dumps({"labels": labels, "language": ["a"] * 4, "split": ["t"] * 4})
        path.write_bytes(_raw_bank(manifest=manifest.encode()))
        assert read_bank(path).labels.tolist() == labels

    def test_manifest_not_object(self, tmp_path):
        path = tmp_path / "bad.bank"
        path.write_bytes(_raw_bank(manifest=b'"labels language split"'))
        with pytest.raises(BankFormatError, match="JSON object"):
            read_bank(path)

    def test_empty_dimensions(self, tmp_path):
        path = tmp_path / "bad.bank"
        path.write_bytes(struct.pack("<4sIIIII", MAGIC, 1, 0, 1, 1, 1) + struct.pack("<Q", 0))
        with pytest.raises(BankFormatError, match="empty"):
            read_bank(path)


class TestLayerBankValidation:
    def test_shape_consistency(self):
        with pytest.raises(DataError):
            LayerBank(
                layers=[np.zeros((2, 2, 2)), np.zeros((2, 3, 2))],
                labels=np.zeros(2, dtype=int), languages=["a", "a"], splits=["t", "t"],
            )
        manifest = {"labels": np.zeros(2, dtype=int), "languages": ["a", "a"], "splits": ["t", "t"]}
        with pytest.raises(DataError, match="^a bank needs at least one layer$"):
            LayerBank(layers=[], **manifest)
        with pytest.raises(DataError, match=r"^bank layers must be \(sentences, tokens, channels\), got \(2, 4\)$"):
            LayerBank(layers=[np.zeros((2, 4))], **manifest)

    def test_manifest_lengths(self):
        with pytest.raises(DataError, match="languages"):
            LayerBank(
                layers=[np.zeros((2, 2, 2))], labels=np.zeros(2, dtype=int),
                languages=["a"], splits=["t", "t"],
            )

    @pytest.mark.parametrize("field, values, named", _BAD_MANIFESTS)
    def test_manifest_entries_named(self, field, values, named):
        manifest = {"labels": [0, 1], "languages": ["a", "b"], "splits": ["t", "t"], field: values}
        with pytest.raises(DataError, match=f"^{re.escape(named)}"):
            LayerBank(layers=[np.zeros((2, 1, 1))], **manifest)

    def test_integer_label_arrays_accepted(self):
        for labels in (np.array([0, 1], np.uint8), np.array([0, 2**63 - 1], np.uint64), (0, 1)):
            bank = LayerBank(layers=[np.zeros((2, 1, 1))], labels=labels, languages=("a", "b"), splits=["t", "t"])
            assert bank.labels.dtype == np.int64 and bank.labels.tolist() == list(labels)

    def test_numpy_scalar_entries_round_trip(self, tmp_path):
        # Entries taken out of numpy arrays pass as the Python ints and strings they equal.
        bank = LayerBank(layers=[np.zeros((2, 1, 1))], labels=list(np.array([0, 1], np.uint64)),
                         languages=list(np.array(["a", "b"])), splits=list(np.array(["t", "u"])))
        write_bank(bank, tmp_path / "np.bank")
        loaded = read_bank(tmp_path / "np.bank")
        assert (loaded.labels.tolist(), loaded.languages, loaded.splits) == ([0, 1], ["a", "b"], ["t", "u"])

    def test_layer_index_bounds(self, bank):
        with pytest.raises(DataError, match="layers 1..2"):
            bank.layer(3)
        with pytest.raises(DataError):
            bank.layer(0)


class TestParamsRoundtrip:
    def test_forward_bit_identical(self, tmp_path):
        system = build_fusion_system(LayerPair(1, 2), 8, seed=13)
        # Move the norm statistics off their init values first.
        x = RNG.normal(size=(4, 3, 8))
        system.forward(Tensor(x), Tensor(x[:, ::-1].copy()), training=True)
        head = init_head(8, 3, seed=13)
        path = tmp_path / "params.json"
        save_params(system, head, path)
        loaded_system, loaded_head = load_params(path)
        probe1 = Tensor(RNG.normal(size=(2, 5, 8)))
        probe2 = Tensor(RNG.normal(size=(2, 5, 8)))
        before, _ = system.forward(probe1, probe2)
        after, _ = loaded_system.forward(Tensor(probe1.data.copy()), Tensor(probe2.data.copy()))
        npt.assert_array_equal(before.data, after.data)
        npt.assert_array_equal(loaded_head.weight.data, head.weight.data)
        assert loaded_system.pair == system.pair
        assert (loaded_system.variant, loaded_system.mode) == (system.variant, system.mode)

    def test_writes_byte_identical(self, tmp_path):
        system = build_fusion_system(LayerPair(1, 2), 8, seed=1)
        head = init_head(8, 3, seed=1)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_params(system, head, a)
        save_params(system, head, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("variant", ["full", "global", "local"])
    @pytest.mark.parametrize("mode", ["sigmoid", "literal"])
    def test_resave_byte_identical(self, tmp_path, variant, mode):
        system = build_fusion_system(LayerPair(1, 2), 8, variant=variant, mode=mode, seed=5)
        x = RNG.normal(size=(4, 3, 8))
        system.forward(Tensor(x), Tensor(x[:, ::-1].copy()), training=True)
        assert np.any(system.params.local_branch.bn2.running_mean != 0.0)
        head = init_head(8, 3, seed=5)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_params(system, head, a)
        save_params(*load_params(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_v1_schema_leaf_paths(self, tmp_path):
        path = tmp_path / "params.json"
        save_params(build_fusion_system(LayerPair(1, 2), 8, seed=1), init_head(8, 3, seed=1), path)
        assert sorted(_leaf_paths(json.loads(path.read_text()))) == V1_FUSION_LEAVES
        save_params(BaselineSystem(upper=2), init_head(8, 3, seed=1), path)
        doc = json.loads(path.read_text())
        assert doc["gate"] is None
        assert doc["system"] == {"kind": "baseline", "upper": 2}

    @pytest.mark.parametrize("named, mutate", MALFORMED_PARAMS, ids=[n for n, _ in MALFORMED_PARAMS])
    def test_malformed_file_names_file_and_path(self, tmp_path, named, mutate):
        path = tmp_path / "params.json"
        save_params(build_fusion_system(LayerPair(1, 2), 8, seed=1), init_head(8, 3, seed=1), path)
        path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
        with pytest.raises(ParamsFormatError, match=f"{re.escape(str(path))}.*{re.escape(named)}"):
            load_params(path)

    def test_non_finite_value_not_written(self, tmp_path):
        head = init_head(8, 3, seed=1)
        head.bias.data[1] = np.nan
        path = tmp_path / "params.json"
        with pytest.raises(ValueError, match="non-finite parameter head.bias$"):
            save_params(BaselineSystem(upper=2), head, path)
        assert not path.exists()
        system = build_fusion_system(LayerPair(1, 2), 8, seed=1)
        system.params.local_branch.bn2.running_var[3] = np.inf
        with pytest.raises(ValueError, match="non-finite parameter gate.local.bn2.running_var$"):
            save_params(system, init_head(8, 3, seed=1), path)
        assert not path.exists()

    def test_every_kind_has_an_example(self):
        assert set(EXAMPLES) == set(fusion.KINDS)

    @pytest.mark.parametrize("kind", sorted(EXAMPLES))
    def test_every_kind_resaves_byte_identical(self, tmp_path, kind):
        system = EXAMPLES[kind](8, "full", "sigmoid")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_params(system, init_head(8, 3, seed=5), a)
        loaded, head = load_params(a)
        assert type(loaded) is fusion.KINDS[kind] and loaded.describe() == system.describe()
        save_params(loaded, head, b)
        assert a.read_bytes() == b.read_bytes()

    def test_baseline_roundtrip(self, tmp_path):
        path = tmp_path / "base.json"
        save_params(BaselineSystem(upper=6), init_head(8, 3, seed=2), path)
        system, head = load_params(path)
        assert isinstance(system, BaselineSystem) and system.upper == 6
        assert head.weight.data.shape == (8, 3)

    def test_boolean_outside_the_stored_values_loads(self, tmp_path):
        path, again = tmp_path / "params.json", tmp_path / "again.json"
        save_params(build_fusion_system(LayerPair(1, 2), 8, seed=1), init_head(8, 3, seed=1), path)
        saved = path.read_text()
        path.write_text(json.dumps({**json.loads(saved), "note": [True, "false"]}))
        save_params(*load_params(path), again)
        assert again.read_text() == saved

    def test_missing_norm_block_named(self, tmp_path):
        system = build_fusion_system(LayerPair(1, 2), 8, seed=1)
        path = tmp_path / "params.json"
        save_params(system, init_head(8, 3, seed=1), path)
        doc = json.loads(path.read_text())
        del doc["gate"]["global"]["bn1"]["running_var"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParamsFormatError, match="gate.global.bn1"):
            load_params(path)

    def test_missing_head_block_named(self, tmp_path):
        system = build_fusion_system(LayerPair(1, 2), 8, seed=1)
        path = tmp_path / "params.json"
        save_params(system, init_head(8, 3, seed=1), path)
        doc = json.loads(path.read_text())
        del doc["head"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParamsFormatError, match="head"):
            load_params(path)

    def test_schema_version_mismatch(self, tmp_path):
        system = build_fusion_system(LayerPair(1, 2), 8, seed=1)
        path = tmp_path / "params.json"
        save_params(system, init_head(8, 3, seed=1), path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ParamsFormatError, match="version"):
            load_params(path)

    def test_unknown_format_field(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"format": "other", "version": 1}))
        with pytest.raises(ParamsFormatError, match="format"):
            load_params(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text("{broken")
        with pytest.raises(ParamsFormatError, match="JSON"):
            load_params(path)


def _json_oracle(system, head):
    """The v1 parameter document rendered by ``json`` itself, arrays as lists."""
    doc = {"format": "layerfuse-params", "version": 1, "system": system.describe(), "gate": None}
    stored = [(n, getattr(o, a)) for n, o, a in system.state()]
    for dotted, value in [*stored, ("head.weight", head.weight), ("head.bias", head.bias)]:
        *parents, leaf = dotted.split(".")
        node = doc
        for key in parents:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        data = value.data if isinstance(value, Tensor) else value
        node[leaf] = data.tolist() if isinstance(data, np.ndarray) else data
    return json.dumps(doc, sort_keys=True, indent=1)


def _stored_bytes(system, head):
    """Every value a params file stores, by dotted name: its type and bytes."""
    values = {name: getattr(owner, attr) for name, owner, attr in stored_values(system, head)}
    values = {name: v.data if isinstance(v, Tensor) else v for name, v in values.items()}
    return {name: (type(v), np.asarray(v).dtype, np.asarray(v).tobytes()) for name, v in values.items()}


# Signed zero, the smallest subnormal, tiny and large magnitudes, integral floats.
_PARAM_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e16, -1e16, 1.0, -3.0, 2.0**53]),
    st.integers(-10**6, 10**6).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=40, deadline=None)
@given(
    width=st.sampled_from([1, 2, 3, 5, 7]),  # reduction 4: below it, and odd
    variant=st.sampled_from(["full", "global", "local"]),
    mode=st.sampled_from(["sigmoid", "literal"]),
    kind=st.sampled_from(sorted(EXAMPLES)),
    data=st.data(),
)
def test_params_writer_matches_json_oracle(tmp_path_factory, width, variant, mode, kind, data):
    system = EXAMPLES[kind](width, variant, mode)
    head = init_head(width, 3, seed=0)
    state = [*(getattr(o, a) for _, o, a in system.state()), head.weight, head.bias]
    for value in state:
        array = value.data if isinstance(value, Tensor) else value
        if isinstance(array, np.ndarray):
            array[...] = data.draw(hnp.arrays(np.float64, array.shape, elements=_PARAM_VALUES))
    path = tmp_path_factory.mktemp("params") / "params.json"
    save_params(system, head, path)
    assert path.read_text(encoding="utf-8") == _json_oracle(system, head)
    # A negative running variance is written, but load refuses the first one
    # it meets; the file is then written again with their magnitudes.
    variances = [(name, getattr(owner, attr)) for name, owner, attr in stored_values(system, head)
                 if attr == "running_var"]
    negative = [name for name, value in variances if (value < 0).any()]
    if negative:
        with pytest.raises(ParamsFormatError, match=re.escape(f"{negative[0]}: batch norm running variance")):
            load_params(path)
        for _, value in variances:
            np.abs(value, out=value)
        save_params(system, head, path)
    loaded_system, loaded_head = load_params(path)
    assert loaded_system.describe() == system.describe()
    assert _stored_bytes(loaded_system, loaded_head) == _stored_bytes(system, head)

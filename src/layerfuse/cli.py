"""Command-line front end: every experiment protocol as one subcommand.

Each run writes a JSON run-manifest next to its primary output, or as
``<command>.manifest.json`` in the working directory when it writes no
output file (override with --manifest), recording the resolved
configuration, seeds, input/output checksums, duration and peak memory;
re-running the recorded argv reproduces the outputs byte-identically.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import REPORT_FORMATS, avg_cross_lingual_similarity, emit_report, render_csv
from .bank import DataError, check_fit, load_params, read_bank, save_params, write_bank
from .fusion import build_system, eval_chunks, init_head
from .gate import GATE_MODES, VARIANTS
from .gradcheck import classification_pipeline, finite_difference_check
from .synthetic import SyntheticTaskSpec, generate_task
from .training import (
    SweepRow,
    TrainConfig,
    evaluate,
    layer_sweep,
    sweep_rows,
    train,
)


def _parse_int_list(text):
    """Accept '3', '1,4,7', or an inclusive range '1..12'."""
    text = text.strip()
    try:
        if ".." in text:
            first, last = text.split("..", 1)
            first, last = int(first), int(last)
            if last < first:
                raise ValueError
            return range(first, last + 1)
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, comma list, or 'a..b' range, got {text!r}"
        ) from None


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _path_entries(paths):
    entries = []
    for path in filter(None, paths):
        path = Path(path)
        entry = {"path": str(path)}
        if path.exists():
            entry["sha256"] = _sha256(path)
        entries.append(entry)
    return entries


def _input_entries(args):
    """The banks, params and config file a command reads, with their digests taken before it runs,
    since its output may overwrite one of them."""
    paths = []
    for name in ("bank", "src", "tgt", "params", "spec", "train_config"):
        value = getattr(args, name, None)
        paths += value if isinstance(value, list) else [value]
    return _path_entries(paths)


def _write_manifest(args, argv, config, inputs, outputs, started):
    if args.manifest:
        target = Path(args.manifest)
    elif outputs:
        first = Path(outputs[0])
        target = first.with_name(first.name + ".manifest.json")
    else:
        target = Path(f"{args.command}.manifest.json")
    doc = {
        "subcommand": args.command,
        "argv": argv,
        "config": config,
        "seeds": config.get("seed", config.get("seeds")),
        "inputs": inputs,
        "outputs": _path_entries(outputs),
        "duration_seconds": round(time.monotonic() - started, 6),
        # The process's lifetime peak: an in-process caller's own peak counts too.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "version": __version__,
    }
    target.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return target


def _load_json(path, build):
    """``build(document)`` for a JSON file; its errors name the file."""
    try:
        return build(json.loads(Path(path).read_text(encoding="utf-8")))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def _run_setup(args):
    """The banks a training command reads (``--src``, then the test split of
    ``--tgt`` if given), its train config and its upper layer, each bank
    checked whole to fit the run and the source to have a label above 0,
    since the head needs two classes."""
    def train_config(doc):
        cfg = TrainConfig.from_dict(doc)
        if args.command == "ablate" and "seed" in doc:
            raise ValueError("train config field seed is not read by ablate: each row trains at one of --seeds")
        return cfg

    banks = [(path, read_bank(path)) for path in (args.src, args.tgt) if path]
    # Precedence: defaults < --train-config JSON < explicit flags, each applied
    # through the same validation.
    cfg = _load_json(args.train_config, train_config) if args.train_config else TrainConfig()
    flags = ("seed", "epochs", "batch_size", "learning_rate", "weight_decay")
    cfg = replace(cfg, **{name: getattr(args, name) for name in flags if getattr(args, name) is not None})
    source = banks[0][1]
    if source.num_classes < 2:
        raise DataError(f"{args.src}: every label is 0, and a classifier needs at least two classes")
    upper = args.upper if args.upper is not None else source.n_layers
    check_fit(banks, upper, source.shape[2], "test")
    # Of the target these commands read only the test split; a copy of its
    # rows lets the whole bank's map go before training.
    return [source, *(bank.rows(bank.split_indices("test")) for _, bank in banks[1:])], cfg, upper


def _add_train_flags(parser, seed=True):
    if seed:
        parser.add_argument("--seed", type=int, default=None,
                            help="run seed; all streams derive from it (default 0)")
    parser.add_argument("--train-config", default=None,
                        help="JSON file with train config fields; flags override it")
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--learning-rate", type=float, default=None)
    parser.add_argument("--weight-decay", type=float, default=None)


def _cmd_gen_task(args):
    spec = _load_json(args.spec, SyntheticTaskSpec.from_dict) if args.spec else SyntheticTaskSpec()
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    source, target = generate_task(spec)
    write_bank(source, args.out_src)
    write_bank(target, args.out_tgt)
    print(f"wrote {args.out_src} and {args.out_tgt}: "
          f"{source.n_layers} layers, shape {source.shape}")
    config = {"spec": spec.to_dict(), "seed": spec.seed}
    return config, [args.out_src, args.out_tgt], 0


def _cmd_inspect_bank(args):
    bank = read_bank(args.bank)
    sentences, tokens, channels = bank.shape
    print(f"bank {args.bank}")
    print(f"  layers: {bank.n_layers}")
    print(f"  sentences: {sentences}  tokens: {tokens}  channels: {channels}")
    splits = sorted(set(bank.splits))
    print("  splits: " + ", ".join(f"{s}={bank.split_indices(s).size}" for s in splits))
    languages = sorted(set(bank.languages))
    print("  languages: " + ", ".join(languages))
    counts = {int(label): int((bank.labels == label).sum()) for label in sorted(set(bank.labels))}
    print(f"  labels: {counts}")
    return {"bank": str(args.bank)}, [], 0


def _cmd_fuse(args):
    bank = read_bank(args.bank)
    system, head = load_params(args.params)
    check_fit([(args.bank, bank)], system.describe()["upper"], head.weight.data.shape[0], params=args.params)
    # Filled one chunk at a time; each value is rounded once from float64, as
    # write_bank rounds a float64 layer.
    fused = np.empty(bank.shape, np.float32)
    for part, chunk in eval_chunks(system, bank, np.arange(bank.shape[0])):
        fused[part] = chunk
    write_bank(replace(bank, layers=[fused]), args.out)
    print(f"wrote fused bank {args.out} ({system.config_id()})")
    config = {"system": system.config_id(), "bank": str(args.bank)}
    return config, [args.out], 0


def _cmd_train(args):
    banks, cfg, upper = _run_setup(args)
    source = banks[0]
    system = build_system(args.lower, upper, source.shape[2], args.variant, args.gate_mode, cfg.seed)
    head = init_head(source.shape[2], source.num_classes, seed=cfg.seed)
    curve = train(system, head, source, cfg)
    if curve:
        print(f"train loss: first={curve[0]:.6f} last={curve[-1]:.6f}")
    for name, bank in zip(("source", "target"), banks):
        metrics = evaluate(system, head, bank, "test")
        print(f"{name} test: acc={metrics.accuracy:.4f} f1={metrics.micro_f1:.4f}")
    save_params(system, head, args.out)
    config = {
        "system": system.config_id(),
        "variant": system.describe().get("variant"),
        "gate_mode": system.describe().get("gate_mode"),
        "train": cfg.__dict__,
        "seed": cfg.seed,
    }
    return config, [args.out], 0


def _cmd_sweep(args):
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    (source, target), cfg, upper = _run_setup(args)
    layers = args.layers if args.layers is not None else range(1, upper + 1)
    report = layer_sweep(
        source, target, layers, cfg,
        variant=args.variant, mode=args.gate_mode, upper=upper, jobs=args.jobs,
    )
    Path(args.report).write_text(emit_report(report, "csv"), encoding="utf-8")
    outputs = [args.report]
    if args.json_report:
        Path(args.json_report).write_text(emit_report(report, "json"), encoding="utf-8")
        outputs.append(args.json_report)
    print(emit_report(report, "table"), end="")
    config = {
        "layers": list(layers),
        "upper": report.upper,
        "variant": args.variant,
        "gate_mode": args.gate_mode,
        "jobs": args.jobs,
        "train": cfg.__dict__,
        "seed": cfg.seed,
    }
    return config, outputs, 0


def _cmd_ablate(args):
    (source, target), cfg, upper = _run_setup(args)
    seeds = list(dict.fromkeys(args.seeds))  # each seed once, in first-seen order
    cells = [(args.lower, variant, replace(cfg, seed=seed)) for variant in VARIANTS for seed in seeds]
    rows = sweep_rows(source, target, cells, upper, args.gate_mode)
    # The metric columns are the SweepRow fields after config and lower.
    columns = ["variant", "seed", *(f.name for f in fields(SweepRow)[2:])]
    table = [(variant, run_cfg.seed, *astuple(row)[2:]) for (_, variant, run_cfg), row in zip(cells, rows)]
    means = {variant: sum(row.target_accuracy for (_, name, _), row in zip(cells, rows) if name == variant)
             / len(seeds) for variant in VARIANTS}
    table += [(variant, "mean", None, None, means[variant], None) for variant in VARIANTS]
    Path(args.report).write_text(render_csv(columns, table), encoding="utf-8")
    for variant in VARIANTS:
        print(f"{variant}: mean target accuracy {means[variant]:.4f}")
    config = {
        "lower": args.lower,
        "upper": upper,
        "gate_mode": args.gate_mode,
        "seeds": seeds,
        # No row trains at the config's own seed, only at one of --seeds.
        "train": {name: value for name, value in cfg.__dict__.items() if name != "seed"},
    }
    return config, [args.report], 0


def _cmd_cossim(args):
    source = read_bank(args.src)
    targets = [read_bank(path) for path in args.tgt]
    if args.params:
        system, head = load_params(args.params)
        channels = head.weight.data.shape[0]
    else:
        system = build_system(
            args.lower, source.n_layers, source.shape[2], args.variant, args.gate_mode, args.seed
        )
        channels = source.shape[2]
    check_fit(zip([args.src, *args.tgt], [source, *targets]), system.describe()["upper"], channels,
              args.split, args.params)
    report = avg_cross_lingual_similarity(
        system, source, targets, pairs=args.pairs, split=args.split
    )
    text = emit_report(report, args.format)
    outputs = []
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        outputs.append(args.out)
    else:
        print(text, end="")
    config = {
        "system": system.config_id(),
        "pairs": args.pairs,
        "split": args.split,
        "format": args.format,
        "seed": args.seed,
    }
    return config, outputs, 0


def _cmd_gradcheck(args):
    shape = (args.batch, args.tokens, args.channels)
    cases = [("full", "sigmoid"), ("full", "literal"), ("global", "sigmoid"), ("local", "sigmoid")]
    failures = 0
    for variant, mode in cases:
        loss_fn, params = classification_pipeline(
            args.seed, shape=shape, classes=args.classes, variant=variant, mode=mode
        )
        report = finite_difference_check(loss_fn, params, step=args.eps, rtol=args.rtol)
        status = "ok" if report.passed else "FAIL"
        print(f"pipeline variant={variant} mode={mode}: max error "
              f"{report.max_error:.3e} [{status}]")
        if not report.passed:
            failures += 1
            print(report.format_table())
    if failures:
        print(f"gradcheck: {failures} of {len(cases)} checks failed")
    else:
        print(f"gradcheck: all {len(cases)} checks passed (rtol {args.rtol:g})")
    config = {
        "seed": args.seed,
        "eps": args.eps,
        "rtol": args.rtol,
        "shape": list(shape),
        "classes": args.classes,
    }
    return config, [], 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="layerfuse",
        description="Attention-gated fusion of encoder layers plus the desk-scale "
                    "cross-language experiment harness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("gen-task", help="generate parallel synthetic banks")
    sub.add_argument("--spec", default=None, help="task spec JSON file (defaults built in)")
    sub.add_argument("--seed", type=int, default=None, help="override the spec seed")
    sub.add_argument("--out-src", required=True)
    sub.add_argument("--out-tgt", required=True)
    sub.set_defaults(func=_cmd_gen_task)

    sub = commands.add_parser("inspect-bank", help="validate and summarize a bank file")
    sub.add_argument("--bank", required=True)
    sub.set_defaults(func=_cmd_inspect_bank)

    sub = commands.add_parser("fuse", help="write fused features for a whole bank")
    sub.add_argument("--bank", required=True)
    sub.add_argument("--params", required=True, help="parameter file from 'train'")
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_fuse)

    sub = commands.add_parser("train", help="train one system on a source bank")
    sub.add_argument("--src", required=True)
    sub.add_argument("--tgt", default=None, help="optional target bank for transfer metrics")
    which = sub.add_mutually_exclusive_group(required=True)
    which.add_argument("--lower", type=int, help="lower layer index to fuse with the top layer")
    which.add_argument("--baseline", action="store_true", help="top layer only, no fusion")
    sub.add_argument("--upper", type=int, default=None, help="upper layer (default: last)")
    sub.add_argument("--variant", choices=VARIANTS, default="full")
    sub.add_argument("--gate-mode", choices=GATE_MODES, default="sigmoid")
    sub.add_argument("--out", required=True, help="where to write the parameter file")
    _add_train_flags(sub)
    sub.set_defaults(func=_cmd_train)

    sub = commands.add_parser("sweep", help="baseline plus one row per fused lower layer")
    sub.add_argument("--src", required=True)
    sub.add_argument("--tgt", required=True)
    sub.add_argument("--layers", type=_parse_int_list, default=None,
                     help="lower layers to sweep, e.g. '1..12' (default: all)")
    sub.add_argument("--upper", type=int, default=None)
    sub.add_argument("--variant", choices=VARIANTS, default="full")
    sub.add_argument("--gate-mode", choices=GATE_MODES, default="sigmoid")
    sub.add_argument("--report", required=True, help="CSV report path")
    sub.add_argument("--json-report", default=None, help="also write a JSON report here")
    sub.add_argument("--jobs", type=int, default=1, help="parallel rows (same output for any N)")
    _add_train_flags(sub)
    sub.set_defaults(func=_cmd_sweep)

    # Each row trains at one of --seeds: no --seed, and no abbreviation lets --seed mean --seeds.
    sub = commands.add_parser("ablate", help="compare full/global/local gate variants", allow_abbrev=False)
    sub.add_argument("--src", required=True)
    sub.add_argument("--tgt", required=True)
    sub.add_argument("--lower", type=int, required=True)
    sub.add_argument("--upper", type=int, default=None)
    sub.add_argument("--gate-mode", choices=GATE_MODES, default="sigmoid")
    sub.add_argument("--seeds", type=_parse_int_list, default=[0],
                     help="seeds to average over, e.g. '0..9'")
    sub.add_argument("--report", required=True)
    _add_train_flags(sub, seed=False)
    sub.set_defaults(func=_cmd_ablate, seed=None)

    sub = commands.add_parser("cossim", help="cross-language cosine-similarity probe")
    sub.add_argument("--src", required=True)
    sub.add_argument("--tgt", action="append", required=True,
                     help="target bank; repeat for several languages")
    which = sub.add_mutually_exclusive_group(required=True)
    which.add_argument("--params", help="use a trained system from this parameter file")
    which.add_argument("--baseline", action="store_true")
    which.add_argument("--lower", type=int, help="fresh system fusing this lower layer")
    sub.add_argument("--variant", choices=VARIANTS, default="full")
    sub.add_argument("--gate-mode", choices=GATE_MODES, default="sigmoid")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--pairs", type=int, default=20, help="parallel sentence pairs per language")
    sub.add_argument("--split", default="test")
    sub.add_argument("--format", choices=REPORT_FORMATS, default="table")
    sub.add_argument("--out", default=None, help="write the report here instead of stdout")
    sub.set_defaults(func=_cmd_cossim)

    sub = commands.add_parser("gradcheck", help="verify gradients against finite differences")
    sub.add_argument("--seed", type=int, default=17)
    sub.add_argument("--eps", type=float, default=1e-5, help="finite-difference step")
    sub.add_argument("--rtol", type=float, default=1e-4)
    sub.add_argument("--batch", type=int, default=4)
    sub.add_argument("--tokens", type=int, default=8)
    sub.add_argument("--channels", type=int, default=32)
    sub.add_argument("--classes", type=int, default=3)
    sub.set_defaults(func=_cmd_gradcheck)

    for sub in commands.choices.values():
        sub.add_argument("--manifest", default=None, help="override the run-manifest path")
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        inputs = _input_entries(args)
        config, outputs, code = args.func(args)
        _write_manifest(args, argv, config, inputs, outputs, started)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())

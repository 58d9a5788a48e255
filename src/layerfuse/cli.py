"""Command-line front end: every experiment protocol as one subcommand.

Each run writes a JSON run-manifest next to its primary output (override
with --manifest) recording the resolved configuration, seeds, input/output
checksums, and duration; re-running the recorded argv reproduces the outputs
byte-identically.
"""

import argparse
import hashlib
import json
import sys
import time
from dataclasses import astuple, fields, replace
from pathlib import Path

from . import __version__
from .analysis import REPORT_FORMATS, avg_cross_lingual_similarity, emit_report, render_csv
from .bank import LayerBank, load_params, read_bank, save_params, write_bank
from .fusion import build_system, init_head
from .gate import GATE_MODES, VARIANTS
from .gradcheck import classification_pipeline, finite_difference_check
from .synthetic import SyntheticTaskSpec, generate_task
from .training import (
    SweepRow,
    TrainConfig,
    evaluate,
    full_scale_config,
    layer_sweep,
    sweep_row,
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
            return list(range(first, last + 1))
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
    for path in paths:
        path = Path(path)
        entry = {"path": str(path)}
        if path.exists():
            entry["sha256"] = _sha256(path)
        entries.append(entry)
    return entries


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
        "inputs": _path_entries(inputs),
        "outputs": _path_entries(outputs),
        "duration_seconds": round(time.monotonic() - started, 6),
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


def _train_config(args):
    # Precedence: preset defaults < --train-config JSON < explicit flags, each
    # applied through the same validation.
    cfg = full_scale_config() if args.preset == "full-scale" else TrainConfig()
    if args.train_config:
        cfg = _load_json(args.train_config, lambda doc: TrainConfig.from_dict(doc, cfg))
    flags = ("seed", "epochs", "batch_size", "learning_rate", "weight_decay")
    return replace(cfg, **{name: getattr(args, name) for name in flags if getattr(args, name) is not None})


def _add_train_flags(parser):
    parser.add_argument("--seed", type=int, default=None,
                        help="run seed; all streams derive from it (default 0)")
    parser.add_argument("--preset", choices=("desk", "full-scale"), default="desk",
                        help="hyper-parameter preset (desk-scale default, or full-scale lr 2e-5)")
    parser.add_argument("--train-config", default=None,
                        help="JSON file with train config fields; flags override it")
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--learning-rate", type=float, default=None)
    parser.add_argument("--weight-decay", type=float, default=None)


def _add_system_flags(parser, upper=False, variant=True):
    """Declare ``--upper`` when ``upper`` is set (a string is its help), then
    ``--variant`` unless ``variant`` is false, then ``--gate-mode``."""
    if upper:
        parser.add_argument("--upper", type=int, default=None,
                            help=None if upper is True else upper)
    if variant:
        parser.add_argument("--variant", choices=VARIANTS, default="full")
    parser.add_argument("--gate-mode", choices=GATE_MODES, default="sigmoid")


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
    return config, [args.spec] if args.spec else [], [args.out_src, args.out_tgt], 0


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
    return {"bank": str(args.bank)}, [args.bank], [], 0


def _cmd_fuse(args):
    bank = read_bank(args.bank)
    system, _ = load_params(args.params)
    rows = list(range(bank.shape[0]))
    out_bank = LayerBank(
        layers=[system.fused_batch(bank, rows, training=False).data],  # no graph held while writing
        labels=bank.labels,
        languages=list(bank.languages),
        splits=list(bank.splits),
    )
    write_bank(out_bank, args.out)
    print(f"wrote fused bank {args.out} ({system.config_id()})")
    config = {"system": system.config_id(), "bank": str(args.bank)}
    return config, [args.bank, args.params], [args.out], 0


def _cmd_train(args):
    source = read_bank(args.src)
    target = read_bank(args.tgt) if args.tgt else None
    cfg = _train_config(args)
    upper = args.upper if args.upper is not None else source.n_layers
    system = build_system(args.lower, upper, source.shape[2], args.variant, args.gate_mode, cfg.seed)
    head = init_head(source.shape[2], source.num_classes, seed=cfg.seed)
    curve = train(system, head, source, cfg)
    if curve:
        print(f"train loss: first={curve[0]:.6f} last={curve[-1]:.6f}")
    on_source = evaluate(system, head, source, "test")
    print(f"source test: acc={on_source.accuracy:.4f} f1={on_source.micro_f1:.4f}")
    if target is not None:
        on_target = evaluate(system, head, target, "test")
        print(f"target test: acc={on_target.accuracy:.4f} f1={on_target.micro_f1:.4f}")
    save_params(system, head, args.out)
    config = {
        "system": system.config_id(),
        "variant": None if args.baseline else args.variant,
        "gate_mode": None if args.baseline else args.gate_mode,
        "train": cfg.__dict__,
        "seed": cfg.seed,
    }
    return config, [args.src] + ([args.tgt] if args.tgt else []), [args.out], 0


def _cmd_sweep(args):
    source = read_bank(args.src)
    target = read_bank(args.tgt)
    cfg = _train_config(args)
    layers = args.layers if args.layers is not None else list(range(1, source.n_layers + 1))
    report = layer_sweep(
        source, target, layers, cfg,
        variant=args.variant, mode=args.gate_mode, upper=args.upper, jobs=args.jobs,
    )
    Path(args.report).write_text(emit_report(report, "csv"), encoding="utf-8")
    outputs = [args.report]
    if args.json_report:
        Path(args.json_report).write_text(emit_report(report, "json"), encoding="utf-8")
        outputs.append(args.json_report)
    print(emit_report(report, "table"), end="")
    config = {
        "layers": layers,
        "upper": report.upper,
        "variant": args.variant,
        "gate_mode": args.gate_mode,
        "jobs": args.jobs,
        "train": cfg.__dict__,
        "seed": cfg.seed,
    }
    return config, [args.src, args.tgt], outputs, 0


def _cmd_ablate(args):
    source = read_bank(args.src)
    target = read_bank(args.tgt)
    upper = args.upper if args.upper is not None else source.n_layers
    cfg = _train_config(args)
    # The metric columns are the SweepRow fields after config and lower.
    columns = ["variant", "seed", *(f.name for f in fields(SweepRow)[2:])]
    table, means = [], {}
    for variant in VARIANTS:
        rows = [
            sweep_row(source, target, args.lower, upper, variant, args.gate_mode,
                      replace(cfg, seed=seed))
            for seed in args.seeds
        ]
        table += [(variant, seed, *astuple(row)[2:]) for seed, row in zip(args.seeds, rows)]
        means[variant] = sum(row.target_accuracy for row in rows) / len(rows)
    table += [(variant, "mean", None, None, means[variant], None) for variant in VARIANTS]
    Path(args.report).write_text(render_csv(columns, table), encoding="utf-8")
    for variant in VARIANTS:
        print(f"{variant}: mean target accuracy {means[variant]:.4f}")
    config = {
        "lower": args.lower,
        "upper": upper,
        "gate_mode": args.gate_mode,
        "seeds": list(args.seeds),
        "train": cfg.__dict__,
    }
    return config, [args.src, args.tgt], [args.report], 0


def _cmd_cossim(args):
    source = read_bank(args.src)
    targets = [read_bank(path) for path in args.tgt]
    inputs = [args.src, *args.tgt]
    if args.params:
        system, _ = load_params(args.params)
        inputs.append(args.params)
    else:
        system = build_system(
            args.lower, source.n_layers, source.shape[2], args.variant, args.gate_mode, args.seed
        )
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
    return config, inputs, outputs, 0


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
    return config, [], [], 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="layerfuse",
        description="Attention-gated fusion of encoder layers plus the desk-scale "
                    "cross-language experiment harness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def _common(sub):
        sub.add_argument("--manifest", default=None, help="override the run-manifest path")

    sub = commands.add_parser("gen-task", help="generate parallel synthetic banks")
    sub.add_argument("--spec", default=None, help="task spec JSON file (defaults built in)")
    sub.add_argument("--seed", type=int, default=None, help="override the spec seed")
    sub.add_argument("--out-src", required=True)
    sub.add_argument("--out-tgt", required=True)
    _common(sub)
    sub.set_defaults(func=_cmd_gen_task)

    sub = commands.add_parser("inspect-bank", help="validate and summarize a bank file")
    sub.add_argument("--bank", required=True)
    _common(sub)
    sub.set_defaults(func=_cmd_inspect_bank)

    sub = commands.add_parser("fuse", help="write fused features for a whole bank")
    sub.add_argument("--bank", required=True)
    sub.add_argument("--params", required=True, help="parameter file from 'train'")
    sub.add_argument("--out", required=True)
    _common(sub)
    sub.set_defaults(func=_cmd_fuse)

    sub = commands.add_parser("train", help="train one system on a source bank")
    sub.add_argument("--src", required=True)
    sub.add_argument("--tgt", default=None, help="optional target bank for transfer metrics")
    which = sub.add_mutually_exclusive_group(required=True)
    which.add_argument("--lower", type=int, help="lower layer index to fuse with the top layer")
    which.add_argument("--baseline", action="store_true", help="top layer only, no fusion")
    _add_system_flags(sub, upper="upper layer (default: last)")
    sub.add_argument("--out", required=True, help="where to write the parameter file")
    _add_train_flags(sub)
    _common(sub)
    sub.set_defaults(func=_cmd_train)

    sub = commands.add_parser("sweep", help="baseline plus one row per fused lower layer")
    sub.add_argument("--src", required=True)
    sub.add_argument("--tgt", required=True)
    sub.add_argument("--layers", type=_parse_int_list, default=None,
                     help="lower layers to sweep, e.g. '1..12' (default: all)")
    _add_system_flags(sub, upper=True)
    sub.add_argument("--report", required=True, help="CSV report path")
    sub.add_argument("--json-report", default=None, help="also write a JSON report here")
    sub.add_argument("--jobs", type=int, default=1, help="parallel rows (same output for any N)")
    _add_train_flags(sub)
    _common(sub)
    sub.set_defaults(func=_cmd_sweep)

    sub = commands.add_parser("ablate", help="compare full/global/local gate variants")
    sub.add_argument("--src", required=True)
    sub.add_argument("--tgt", required=True)
    sub.add_argument("--lower", type=int, required=True)
    _add_system_flags(sub, upper=True, variant=False)
    sub.add_argument("--seeds", type=_parse_int_list, default=[0],
                     help="seeds to average over, e.g. '0..9'")
    sub.add_argument("--report", required=True)
    _add_train_flags(sub)
    _common(sub)
    sub.set_defaults(func=_cmd_ablate)

    sub = commands.add_parser("cossim", help="cross-language cosine-similarity probe")
    sub.add_argument("--src", required=True)
    sub.add_argument("--tgt", action="append", required=True,
                     help="target bank; repeat for several languages")
    which = sub.add_mutually_exclusive_group(required=True)
    which.add_argument("--params", help="use a trained system from this parameter file")
    which.add_argument("--baseline", action="store_true")
    which.add_argument("--lower", type=int, help="fresh system fusing this lower layer")
    _add_system_flags(sub)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--pairs", type=int, default=20, help="parallel sentence pairs per language")
    sub.add_argument("--split", default="test")
    sub.add_argument("--format", choices=REPORT_FORMATS, default="table")
    sub.add_argument("--out", default=None, help="write the report here instead of stdout")
    _common(sub)
    sub.set_defaults(func=_cmd_cossim)

    sub = commands.add_parser("gradcheck", help="verify gradients against finite differences")
    sub.add_argument("--seed", type=int, default=17)
    sub.add_argument("--eps", type=float, default=1e-5, help="finite-difference step")
    sub.add_argument("--rtol", type=float, default=1e-4)
    sub.add_argument("--batch", type=int, default=4)
    sub.add_argument("--tokens", type=int, default=8)
    sub.add_argument("--channels", type=int, default=32)
    sub.add_argument("--classes", type=int, default=3)
    _common(sub)
    sub.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        config, inputs, outputs, code = args.func(args)
        _write_manifest(args, argv, config, inputs, outputs, started)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())

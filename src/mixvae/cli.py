"""Command-line experiment runner.

Subcommands: train, eval, gradcheck, export-latents, export-samples,
list-presets, knn-sweep. Configuration comes from --preset or --config,
with --seed/--out shortcuts and repeatable --set key=value overrides.
The MIXVAE_DATA environment variable supplies the default data
directory when data.dir is empty.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys

from .config import apply_overrides, load_preset, parse_config, preset_names
from .errors import ConfigError, MixvaeError
from .evaluation import encode_eval_latents, export_latents_csv, export_samples
from .rng import STREAM_EVAL, substream
from .train import load_for_eval, run_eval, run_gradcheck, run_knn_sweep, run_train


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", help="named experiment preset (see list-presets)")
    p.add_argument("--config", help="path to a key=value config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="override the output directory")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="dotted-key config override (repeatable)")


def _resolve_config(args):
    if args.preset and args.config:
        raise MixvaeError("use either --preset or --config, not both")
    if args.preset:
        cfg = load_preset(args.preset)
    elif args.config:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    else:
        raise MixvaeError("one of --preset or --config is required")
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.out is not None:
        overrides.append(f"out_dir={args.out}")
    return apply_overrides(cfg, overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mixvae", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training experiment")
    _add_config_args(p_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_config_args(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", default="test", choices=("train", "valid", "test"))
    p_eval.add_argument("--csv", help="append the report to this CSV file")

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--configs", type=int, default=5)

    p_lat = sub.add_parser("export-latents", help="write latent CSV for a checkpoint")
    _add_config_args(p_lat)
    p_lat.add_argument("--checkpoint", required=True)
    p_lat.add_argument("--split", default="test", choices=("train", "valid", "test"))
    p_lat.add_argument("--out-file", required=True)

    p_samp = sub.add_parser("export-samples", help="write generated samples as a PGM grid")
    p_samp.add_argument("--checkpoint", help="single checkpoint or snapshot file")
    p_samp.add_argument("--snapshots-dir",
                        help="directory of snapshot-*.ckpt files; one grid row per snapshot")
    p_samp.add_argument("--n", type=int, default=100,
                        help="samples total (or per row with --snapshots-dir)")
    p_samp.add_argument("--seed", type=int, default=0)
    p_samp.add_argument("--out-file", required=True)
    p_samp.add_argument("--matrix-file", help="also write the raw sample matrix")

    sub.add_parser("list-presets", help="print available preset names")

    p_knn = sub.add_parser("knn-sweep", help="random-init k-NN error across latent sizes")
    _add_config_args(p_knn)
    p_knn.add_argument("--dims", default="8,16,32,64,128,256")
    p_knn.add_argument("--seeds", type=int, default=3)
    p_knn.add_argument("--k", type=int, default=10)
    p_knn.add_argument("--csv", help="write per-seed results to this CSV file")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (MixvaeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "list-presets":
        for name in preset_names():
            print(name)
        return 0

    if args.command == "gradcheck":
        _, passed = run_gradcheck(seed=args.seed, n_configs=args.configs)
        return 0 if passed else 1

    if args.command == "export-samples":
        if bool(args.checkpoint) == bool(args.snapshots_dir):
            raise MixvaeError("export-samples needs exactly one of --checkpoint "
                              "or --snapshots-dir")
        if args.n < 1:
            raise ConfigError(f"need at least one sample per checkpoint, got {args.n}")
        if args.checkpoint:
            paths, cols = [args.checkpoint], 10
        else:
            paths = sorted(glob.glob(os.path.join(args.snapshots_dir, "snapshot-*.ckpt")))
            if not paths:
                raise MixvaeError(f"no snapshot-*.ckpt files in {args.snapshots_dir}")
            cols = args.n
        export_samples(paths, args.n, args.out_file, args.matrix_file, seed=args.seed, cols=cols)
        print(f"wrote {len(paths) * args.n} samples to {args.out_file}")
        return 0

    if args.command == "train":
        cfg = _resolve_config(args)
        result = run_train(cfg)
        print(result.final_report.summary())
        print(f"metrics: {result.metrics_path}")
        print(f"checkpoint: {result.checkpoint_path}")
        return 0

    if args.command == "eval":
        cfg = _resolve_config(args)
        run_eval(cfg, args.checkpoint, split=args.split, out_csv=args.csv)
        return 0

    if args.command == "export-latents":
        cfg = _resolve_config(args)
        loaded, _train, target = load_for_eval(cfg, args.checkpoint, args.split)
        rng = substream(cfg.seed, STREAM_EVAL, loaded.step)
        latents, comps = encode_eval_latents(target, loaded.params, rng,
                                             cfg.eval.latent_mode)
        export_latents_csv(args.out_file, latents, target.labels, comps)
        print(f"wrote {len(target)} rows to {args.out_file}")
        return 0

    if args.command == "knn-sweep":
        cfg = _resolve_config(args)
        try:
            dims = tuple(int(d) for d in args.dims.split(","))
        except ValueError:
            raise ConfigError(f"--dims takes comma-separated integers, got {args.dims!r}") from None
        if min(dims) < 1 or args.seeds < 1:
            raise ConfigError(f"--dims and --seeds need values >= 1, got {dims}, {args.seeds}")
        run_knn_sweep(cfg, dims=dims, n_seeds=args.seeds, k=args.k, out_csv=args.csv)
        return 0

    raise MixvaeError(f"unknown command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())

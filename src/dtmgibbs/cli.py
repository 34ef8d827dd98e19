"""Command-line front end: train, evaluate, export trends, generate
synthetic corpora, and run distributed workers from one entry point.

Configuration is a flat ``key = value`` text file (UTF-8, ``#``
comments); every key has a flag equivalent and flags win.  The resolved
configuration, master seed and build id are recorded in a manifest in
the output directory before any compute starts.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 numeric
abort (diagnostic names the parameter block), 4 peer/topology failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_PEER = 4


class ConfigError(ValueError):
    pass


def parse_config_file(path) -> dict:
    """Flat `key = value` pairs; later keys override earlier ones."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def parse_schedule(text: str):
    """An 'a,b,c' step-size schedule.  Every command starts at iteration
    0, where the step a * b^-c needs b > 0."""
    from .kernels import SgldSchedule
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"schedule must be 'a,b,c', got {text!r}")
    schedule = SgldSchedule(float(parts[0]), float(parts[1]), float(parts[2]))
    if schedule.b <= 0:
        raise ConfigError("schedule offset b must be positive")
    return schedule


def _setting(settings: dict, key: str, parse, low=None):
    """``parse(settings[key])``, at least ``low`` if given; a value that
    fails is a configuration error that names the key."""
    try:
        value = parse(settings[key])
        if low is not None and value < low:
            raise ValueError(f"must be >= {low}")
        return value
    except ValueError as exc:
        raise ConfigError(f"{key} = {settings[key]!r}: {exc}") from None


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise ValueError("must be positive")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0 < value < 1:
        raise ValueError("must lie in (0, 1)")
    return value


def _fraction_or_zero(text: str) -> float:
    return 0.0 if float(text) == 0 else _fraction(text)


_DEFAULTS = {
    "seed": "0",
    "topics": "50",
    "iterations": "60",
    "minibatch": "60",
    "eta_schedule": "0.5,100,0.8",
    "phi_schedule": "0.5,100,0.8",
    "sigma2": "0.1",
    "beta2": "0.1",
    "psi2": "0.1",
    "checkpoint_every": "0",
    "test_fraction": "0.1",
    "heldout_fraction": "0.5",
    "split_seed": "0",
    "inner_steps": "50",
    "format": "slice-per-line",
}

_FLAG_KEYS = ("corpus", "out", "seed", "topics", "iterations", "minibatch",
              "eta_schedule", "phi_schedule", "sigma2", "beta2", "psi2",
              "checkpoint_every", "test_fraction",
              "heldout_fraction", "split_seed", "inner_steps", "format",
              "topology", "worker_id", "checkpoint")


def resolve_settings(args) -> dict:
    """defaults < config file < explicit flags, all as strings."""
    settings = dict(_DEFAULTS)
    if getattr(args, "config", None):
        from_file = parse_config_file(args.config)
        unknown = sorted(set(from_file).difference(_DEFAULTS, _FLAG_KEYS, ["config_path"]))
        if unknown:
            raise ConfigError(f"{args.config}: unknown key(s) {', '.join(unknown)}")
        settings.update(from_file)
        settings["config_path"] = args.config
    for key in _FLAG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = str(val)
    return settings


def build_id() -> str:
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=5,
                             cwd=Path(__file__).parent)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except OSError:
        pass
    try:
        from importlib.metadata import version
        return "v" + version("dtmgibbs")
    except Exception:
        return "unknown"


def write_manifest(out_dir: Path, settings: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config_path": settings.get("config_path", ""),
        "config": {k: v for k, v in sorted(settings.items()) if k != "config_path"},
        "master_seed": int(settings.get("seed", "0")),
        "start_time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "build_id": build_id(),
        "output_dir": str(out_dir),
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _hyper_and_config(settings):
    from .engine import TrainConfig
    from .model import Hyperparams
    hyper = Hyperparams(K=_setting(settings, "topics", int, 1),
                        sigma2=_setting(settings, "sigma2", _positive),
                        beta2=_setting(settings, "beta2", _positive),
                        psi2=_setting(settings, "psi2", _positive))
    cfg = TrainConfig(iterations=_setting(settings, "iterations", int, 0),
                      minibatch_size=_setting(settings, "minibatch", int, 1),
                      schedule_eta=_setting(settings, "eta_schedule", parse_schedule),
                      schedule_phi=_setting(settings, "phi_schedule", parse_schedule),
                      seed=_setting(settings, "seed", int),
                      checkpoint_every=_setting(settings, "checkpoint_every", int, 0))
    return hyper, cfg


def _split_config(settings):
    """(test_fraction, heldout_fraction, split_seed), or None when
    test_fraction is 0 and nothing is held out."""
    test_fraction = _setting(settings, "test_fraction", _fraction_or_zero)
    if test_fraction == 0:
        return None
    return (test_fraction, _setting(settings, "heldout_fraction", _fraction),
            _setting(settings, "split_seed", int))


def _load_split(settings, split_cfg):
    from .corpus import load_corpus, split_holdout
    path = settings.get("corpus")
    if not path:
        raise ConfigError("no corpus path given (flag --corpus or config key)")
    if not Path(path).exists():
        raise FileNotFoundError(f"corpus file not found: {path}")
    corpus = load_corpus(path, settings["format"])
    if split_cfg is None:
        return corpus, None
    return corpus, split_holdout(corpus, *split_cfg)


def cmd_train(args) -> int:
    from dataclasses import replace

    from .engine import train
    settings = resolve_settings(args)
    out = Path(settings.get("out", "."))
    hyper, cfg = _hyper_and_config(settings)
    split_cfg = _split_config(settings)
    write_manifest(out, settings)
    corpus, split = _load_split(settings, split_cfg)
    train_corpus = split.train if split is not None else corpus
    cfg = replace(cfg, checkpoint_dir=str(out / "checkpoints"),
                  metrics_path=str(out / "metrics.csv"))
    result = train(train_corpus, hyper, cfg)
    print(f"trained {result.iterations_done} iterations over "
          f"{train_corpus.n_slices} slices; checkpoints in {out / 'checkpoints'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from .evaluation import EvalConfig, perplexity
    from .model import load_checkpoint
    settings = resolve_settings(args)
    out = Path(settings.get("out", "."))
    hyper, cfg = _hyper_and_config(settings)
    split_cfg = _split_config(settings)
    if split_cfg is None:
        raise ConfigError("eval needs test_fraction > 0")
    eval_cfg = EvalConfig(inner_steps=_setting(settings, "inner_steps", int, 0),
                          seed=cfg.seed)
    write_manifest(out, settings)
    _, split = _load_split(settings, split_cfg)
    ckpt = settings.get("checkpoint") or str(out / "checkpoints")
    model, _, _ = load_checkpoint(ckpt, split.train, hyper)
    report = perplexity(split, model, eval_cfg)
    print(report)
    report.to_csv(out / "perplexity.csv")
    return EXIT_OK


def cmd_trends(args) -> int:
    from .evaluation import export_trends
    from .model import load_checkpoint
    settings = resolve_settings(args)
    out = Path(settings.get("out", "."))
    hyper, _ = _hyper_and_config(settings)
    split_cfg = _split_config(settings)
    write_manifest(out, settings)
    corpus, split = _load_split(settings, split_cfg)
    train_corpus = split.train if split is not None else corpus
    ckpt = settings.get("checkpoint") or str(out / "checkpoints")
    model, _, _ = load_checkpoint(ckpt, train_corpus, hyper)
    topics = ([int(x) for x in args.topic_ids.split(",")]
              if args.topic_ids else list(range(hyper.K)))
    dest = out / "trends.csv"
    export_trends(model, corpus.vocabulary, topics, args.top_n, dest)
    print(f"wrote {dest}")
    return EXIT_OK


def cmd_gen_synthetic(args) -> int:
    from .corpus import save_corpus
    from .synthetic import generate_synthetic
    settings = resolve_settings(args)
    out = Path(settings.get("out", "."))
    hyper, _ = _hyper_and_config(settings)
    write_manifest(out, settings)
    corpus, params = generate_synthetic(hyper, v=args.vocab, n_slices=args.slices,
                                        docs_per_slice=args.docs_per_slice,
                                        doc_len=args.doc_len,
                                        seed=int(settings["seed"]),
                                        alpha0_scale=args.alpha0_scale,
                                        phi0_scale=args.phi0_scale)
    dest = out / "synthetic.txt"
    save_corpus(corpus, dest)
    np.savez(out / "true_params.npz", alpha=params.alpha, phi=params.phi)
    print(f"wrote {dest} ({corpus.n_docs} docs, {corpus.n_tokens} tokens, "
          f"{corpus.n_slices} slices, V={corpus.vocabulary.size})")
    return EXIT_OK


def cmd_worker(args) -> int:
    import socket as socketlib

    from .cluster import (DEFAULT_TIMEOUT, KIND_DONE, KIND_HELLO, KIND_HELLO_OK,
                          KIND_METRICS, ProtocolError, configure_socket,
                          encode_frame, parse_topology, recv_frame, run_worker,
                          send_frame)

    settings = resolve_settings(args)
    out = Path(settings.get("out", "."))
    hyper, cfg = _hyper_and_config(settings)
    if not settings.get("topology") or settings.get("worker_id") is None:
        raise ConfigError("worker needs --topology and --worker-id")
    topo = parse_topology(settings["topology"])
    worker_id = _setting(settings, "worker_id", int)
    if worker_id not in topo.workers:
        raise ProtocolError(f"worker {worker_id} not present in topology")
    split_cfg = _split_config(settings)
    write_manifest(out, settings)
    corpus, split = _load_split(settings, split_cfg)
    train_corpus = split.train if split is not None else corpus
    assignment = topo.assignment()
    owned = assignment[worker_id]
    covered = sorted(t for ts in assignment.values() for t in ts)
    if covered != list(range(1, train_corpus.n_slices + 1)):
        raise ConfigError(f"topology covers slices {covered}, corpus has "
                          f"{train_corpus.n_slices}")

    coord = None
    metrics_sink = None
    if topo.coordinator is not None:
        who = f"worker {worker_id} <-> coordinator"
        last = None
        for _ in range(100):  # the coordinator may still be starting up
            try:
                coord = configure_socket(
                    socketlib.create_connection(topo.coordinator,
                                                timeout=DEFAULT_TIMEOUT),
                    DEFAULT_TIMEOUT)
                break
            except OSError as exc:
                last = exc
                time.sleep(0.1)
        else:
            print(f"worker {worker_id}: coordinator unreachable: {last}",
                  file=sys.stderr)
            return EXIT_PEER
        send_frame(coord, encode_frame(KIND_HELLO, 0, worker_id,
                                       str(topo.checksum()).encode()), who)
        reply = recv_frame(coord, who)
        if reply.kind != KIND_HELLO_OK:
            print(f"worker {worker_id}: topology checksum rejected by coordinator",
                  file=sys.stderr)
            return EXIT_PEER

        def metrics_sink(row):
            send_frame(coord, encode_frame(KIND_METRICS, row["iteration"], worker_id,
                                           json.dumps(row).encode()), who)

    ckpt_dir = Path(settings.get("checkpoint") or (out / "checkpoints"))
    run_worker(worker_id, assignment, topo.workers, train_corpus, hyper, cfg,
               ckpt_dir, metrics_sink=metrics_sink)
    if coord is not None:
        # hold until the coordinator acknowledges the final checkpoint
        send_frame(coord, encode_frame(KIND_DONE, cfg.iterations, worker_id), who)
        ack = recv_frame(coord, who)
        if ack.kind != KIND_DONE:
            print(f"worker {worker_id}: unexpected shutdown frame {ack.kind}",
                  file=sys.stderr)
            return EXIT_PEER
        coord.close()
    print(f"worker {worker_id}: finished {cfg.iterations} iterations for slices {owned}")
    return EXIT_OK


def cmd_coordinator(args) -> int:
    import socket as socketlib

    from .cluster import (DEFAULT_TIMEOUT, KIND_DONE, KIND_HELLO,
                          KIND_HELLO_MISMATCH, KIND_HELLO_OK, KIND_METRICS,
                          ProtocolError, configure_socket, encode_frame,
                          parse_topology, recv_frame, send_frame)
    from .engine import metrics_to_csv

    settings = resolve_settings(args)
    out = Path(settings.get("out", "."))
    if not settings.get("topology"):
        raise ConfigError("coordinator needs --topology")
    topo = parse_topology(settings["topology"])
    if topo.coordinator is None:
        raise ConfigError("topology has no coordinator address")
    write_manifest(out, settings)
    expected = str(topo.checksum())

    server = socketlib.create_server(topo.coordinator)
    server.settimeout(DEFAULT_TIMEOUT)
    conns = []
    try:
        while len(conns) < len(topo.workers):
            conn, _ = server.accept()
            configure_socket(conn, DEFAULT_TIMEOUT)
            hello = recv_frame(conn, "coordinator <- new worker")
            if hello.kind != KIND_HELLO:
                conn.close()
                continue
            if hello.text() != expected:
                send_frame(conn, encode_frame(KIND_HELLO_MISMATCH, 0, 0),
                           f"coordinator -> worker {hello.sender}")
                print(f"coordinator: worker {hello.sender} has a different topology",
                      file=sys.stderr)
                conn.close()
                return EXIT_PEER
            send_frame(conn, encode_frame(KIND_HELLO_OK, 0, 0),
                       f"coordinator -> worker {hello.sender}")
            conns.append((hello.sender, conn))

        rows = []
        done = set()
        while len(done) < len(conns):
            for wid, conn in conns:
                if wid in done:
                    continue
                frame = recv_frame(conn, f"coordinator <- worker {wid}")
                if frame.kind == KIND_METRICS:
                    rows.append(json.loads(frame.text()))
                elif frame.kind == KIND_DONE:
                    send_frame(conn, encode_frame(KIND_DONE, frame.iteration, 0),
                               f"coordinator -> worker {wid}")
                    done.add(wid)
        metrics_to_csv(rows, out / "metrics.csv")
        print(f"coordinator: collected {len(rows)} metric rows from "
              f"{len(conns)} workers")
        return EXIT_OK
    except TimeoutError as exc:
        raise ProtocolError(f"coordinator: no word from a worker in "
                            f"{DEFAULT_TIMEOUT:g} s ({len(conns)} of "
                            f"{len(topo.workers)} connected)") from exc
    finally:
        for _, conn in conns:
            conn.close()
        server.close()


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dtmgibbs",
                                description="Dynamic topic model trainer")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--corpus")
        sp.add_argument("--out")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--topics", type=int)
        sp.add_argument("--iterations", type=int)
        sp.add_argument("--minibatch", type=int)
        sp.add_argument("--eta-schedule", dest="eta_schedule",
                        help="a,b,c step-size triple")
        sp.add_argument("--phi-schedule", dest="phi_schedule")
        sp.add_argument("--sigma2", type=float)
        sp.add_argument("--beta2", type=float)
        sp.add_argument("--psi2", type=float)
        sp.add_argument("--checkpoint-every", dest="checkpoint_every", type=int)
        sp.add_argument("--test-fraction", dest="test_fraction", type=float)
        sp.add_argument("--heldout-fraction", dest="heldout_fraction", type=float)
        sp.add_argument("--split-seed", dest="split_seed", type=int)
        sp.add_argument("--inner-steps", dest="inner_steps", type=int)
        sp.add_argument("--format", choices=["slice-per-line", "bag-of-words-dir"])
        sp.add_argument("--topology")
        sp.add_argument("--worker-id", dest="worker_id", type=int)
        sp.add_argument("--checkpoint", help="checkpoint directory to read")
        return sp

    common(sub.add_parser("train", help="train in-process")).set_defaults(fn=cmd_train)
    common(sub.add_parser("eval", help="held-out perplexity")).set_defaults(fn=cmd_eval)
    tr = common(sub.add_parser("trends", help="export topic trends"))
    tr.add_argument("--topic-ids", help="comma-separated topic ids (default: all)")
    tr.add_argument("--top-n", type=int, default=10)
    tr.set_defaults(fn=cmd_trends)
    gs = common(sub.add_parser("gen-synthetic",
                               help="corpus drawn from the generative process"))
    gs.add_argument("--vocab", type=int, default=100)
    gs.add_argument("--slices", type=int, default=4)
    gs.add_argument("--docs-per-slice", type=int, default=200)
    gs.add_argument("--doc-len", type=int, default=100)
    gs.add_argument("--alpha0-scale", type=float, default=1.0)
    gs.add_argument("--phi0-scale", type=float, default=2.0)
    gs.set_defaults(fn=cmd_gen_synthetic)
    common(sub.add_parser("worker", help="run one distributed worker")
           ).set_defaults(fn=cmd_worker)
    common(sub.add_parser("coordinator", help="collect worker metrics")
           ).set_defaults(fn=cmd_coordinator)
    return p


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001
        from .cluster import ProtocolError
        from .engine import NumericError
        if isinstance(exc, NumericError):
            print(f"numeric abort: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        if isinstance(exc, ProtocolError):
            print(f"peer error: {exc}", file=sys.stderr)
            return EXIT_PEER
        raise


if __name__ == "__main__":
    sys.exit(main())

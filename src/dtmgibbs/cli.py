"""Command-line front end: train, evaluate, export trends, generate
synthetic corpora, and run distributed workers from one entry point.

Every setting is declared once, in ``SETTINGS`` or a command's part of
``COMMAND_SETTINGS``: its default and its parser.  Each is a key of the
flat ``key = value`` config file (UTF-8, ``#`` comments) and a flag;
flags win.  Every value is parsed before a command reads its corpus, so
a bad one is a configuration error naming the key, and no manifest is
written.  The resolved configuration, master seed and build id are
recorded in a manifest in the output directory before any compute
starts.

Exit codes, mapped from errors by ``main`` alone: 0 success, 1
configuration error, 2 data error, 3 numeric abort (diagnostic names
the parameter block), 4 peer/topology failure.
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


def _checked(parse, ok, why: str):
    """A setting's parser: ``parse(text)``, rejected with ``why`` unless
    ``ok`` holds for the value."""
    def checked(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(why)
        return value
    return checked


def _at_least(low: int):
    return _checked(int, lambda n: n >= low, f"must be >= {low}")


def _one_of(*choices: str):
    return _checked(str, lambda text: text in choices,
                    f"must be one of {', '.join(choices)}")


_positive = _checked(float, lambda x: x > 0, "must be positive")
_nonnegative = _checked(float, lambda x: x >= 0, "must be >= 0")
_fraction = _checked(float, lambda x: 0 < x < 1, "must lie in (0, 1)")
_fraction_or_zero = _checked(float, lambda x: x == 0 or 0 < x < 1,
                             "must be 0 or lie in (0, 1)")


def _int_list(text: str) -> list:
    return [int(x) for x in text.split(",")] if text.strip() else []


# Every setting, declared once: key -> (default as text or None, parser).
# Each key is a config-file key and a --flag (underscores as dashes).
SETTINGS = {
    "corpus": (None, str),
    "out": (".", str),
    "seed": ("0", int),
    "topics": ("50", _at_least(1)),
    "iterations": ("60", _at_least(0)),
    "minibatch": ("60", _at_least(1)),
    "eta_schedule": ("0.5,100,0.8", parse_schedule),
    "phi_schedule": ("0.5,100,0.8", parse_schedule),
    "sigma2": ("0.1", _positive),
    "beta2": ("0.1", _positive),
    "psi2": ("0.1", _positive),
    "checkpoint_every": ("0", _at_least(0)),
    "test_fraction": ("0.1", _fraction_or_zero),
    "heldout_fraction": ("0.5", _fraction),
    "split_seed": ("0", int),
    "inner_steps": ("50", _at_least(0)),
    "format": ("slice-per-line", _one_of("slice-per-line", "bag-of-words-dir")),
    "topology": (None, str),
    "worker_id": (None, int),
    "checkpoint": (None, str),
}

# Settings that only one command reads, on top of SETTINGS.
COMMAND_SETTINGS = {
    "trends": {
        "topic_ids": (None, _int_list),     # None or empty: every topic
        "top_n": ("10", _at_least(1)),
    },
    "gen-synthetic": {
        "vocab": ("100", _at_least(1)),
        "slices": ("4", _at_least(1)),
        "docs_per_slice": ("200", _at_least(1)),
        "doc_len": ("100", _at_least(1)),
        "alpha0_scale": ("1.0", _nonnegative),
        "phi0_scale": ("2.0", _nonnegative),
    },
}


def settings_table(command: str) -> dict:
    return {**SETTINGS, **COMMAND_SETTINGS.get(command, {})}


def _bad_value(key: str, text: str, why) -> ConfigError:
    return ConfigError(f"{key} = {text!r}: {why}")


def resolve_settings(args) -> tuple[dict, dict]:
    """(raw, values) for ``args.command``: defaults < config file <
    explicit flags, as the strings the manifest records, and each of
    them parsed.  A config key outside the command's table, or a value
    its parser rejects, is a ConfigError naming the key."""
    table = settings_table(args.command)
    raw = {key: default for key, (default, _) in table.items() if default is not None}
    if args.config:
        from_file = parse_config_file(args.config)
        unknown = sorted(set(from_file).difference(table))
        if unknown:
            raise ConfigError(f"{args.config}: unknown key(s) {', '.join(unknown)}")
        raw.update(from_file)
    raw.update((key, getattr(args, key)) for key in table
               if getattr(args, key) is not None)
    values = {}
    for key, text in raw.items():
        try:
            values[key] = table[key][1](text)
        except ValueError as exc:
            raise _bad_value(key, text, exc) from None
    if args.config:
        raw["config_path"] = args.config
    return raw, values


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


def _hyper_and_config(values):
    from .engine import TrainConfig
    from .model import Hyperparams
    hyper = Hyperparams(K=values["topics"], sigma2=values["sigma2"],
                        beta2=values["beta2"], psi2=values["psi2"])
    cfg = TrainConfig(iterations=values["iterations"], minibatch_size=values["minibatch"],
                      schedule_eta=values["eta_schedule"],
                      schedule_phi=values["phi_schedule"], seed=values["seed"],
                      checkpoint_every=values["checkpoint_every"])
    return hyper, cfg


def _load_split(values):
    """(training corpus, holdout split or None when test_fraction is 0).
    Commands load before they write the manifest, so a run that cannot
    read its corpus leaves none."""
    from .corpus import load_corpus, split_holdout
    path = values.get("corpus")
    if not path:
        raise ConfigError("no corpus path given (flag --corpus or config key)")
    if not Path(path).exists():
        raise FileNotFoundError(f"corpus file not found: {path}")
    corpus = load_corpus(path, values["format"])
    if values["test_fraction"] == 0:
        return corpus, None
    split = split_holdout(corpus, values["test_fraction"], values["heldout_fraction"],
                          values["split_seed"])
    return split.train, split


def _checkpoint_dir(values) -> Path:
    return Path(values.get("checkpoint") or Path(values["out"]) / "checkpoints")


def cmd_train(args) -> int:
    from dataclasses import replace

    from .engine import train
    raw, values = resolve_settings(args)
    out = Path(values["out"])
    hyper, cfg = _hyper_and_config(values)
    train_corpus, _ = _load_split(values)
    write_manifest(out, raw)
    cfg = replace(cfg, checkpoint_dir=str(out / "checkpoints"),
                  metrics_path=str(out / "metrics.csv"))
    result = train(train_corpus, hyper, cfg)
    print(f"trained {result.iterations_done} iterations over "
          f"{train_corpus.n_slices} slices; checkpoints in {out / 'checkpoints'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from .evaluation import EvalConfig, perplexity
    from .model import load_checkpoint
    raw, values = resolve_settings(args)
    out = Path(values["out"])
    hyper, _ = _hyper_and_config(values)
    if values["test_fraction"] == 0:
        raise ConfigError("eval needs test_fraction > 0")
    train_corpus, split = _load_split(values)
    write_manifest(out, raw)
    model, _, _ = load_checkpoint(_checkpoint_dir(values), train_corpus, hyper)
    report = perplexity(split, model, EvalConfig(inner_steps=values["inner_steps"],
                                                 seed=values["seed"]))
    print(report)
    report.to_csv(out / "perplexity.csv")
    return EXIT_OK


def cmd_trends(args) -> int:
    from .evaluation import export_trends
    from .model import load_checkpoint
    raw, values = resolve_settings(args)
    out = Path(values["out"])
    hyper, _ = _hyper_and_config(values)
    topics = values.get("topic_ids") or list(range(hyper.K))
    bad = [t for t in topics if not 0 <= t < hyper.K]
    if bad:
        raise _bad_value("topic_ids", raw["topic_ids"],
                         f"topic {bad[0]} is not in [0, {hyper.K})")
    train_corpus, _ = _load_split(values)
    vocabulary = train_corpus.vocabulary
    if values["top_n"] > vocabulary.size:
        raise _bad_value("top_n", raw["top_n"],
                         f"must be <= vocabulary size {vocabulary.size}")
    write_manifest(out, raw)
    model, _, _ = load_checkpoint(_checkpoint_dir(values), train_corpus, hyper)
    dest = out / "trends.csv"
    export_trends(model, vocabulary, topics, values["top_n"], dest)
    print(f"wrote {dest}")
    return EXIT_OK


def cmd_gen_synthetic(args) -> int:
    from .corpus import save_corpus
    from .synthetic import generate_synthetic
    raw, values = resolve_settings(args)
    out = Path(values["out"])
    hyper, _ = _hyper_and_config(values)
    write_manifest(out, raw)
    corpus, params = generate_synthetic(hyper, v=values["vocab"], n_slices=values["slices"],
                                        docs_per_slice=values["docs_per_slice"],
                                        doc_len=values["doc_len"], seed=values["seed"],
                                        alpha0_scale=values["alpha0_scale"],
                                        phi0_scale=values["phi0_scale"])
    dest = out / "synthetic.txt"
    save_corpus(corpus, dest)
    np.savez(out / "true_params.npz", alpha=params.alpha, phi=params.phi)
    print(f"wrote {dest} ({corpus.n_docs} docs, {corpus.n_tokens} tokens, "
          f"{corpus.n_slices} slices, V={corpus.vocabulary.size})")
    return EXIT_OK


def cmd_worker(args) -> int:
    from .cluster import (DEFAULT_TIMEOUT, KIND_DONE, KIND_HELLO_OK, KIND_METRICS,
                          ProtocolError, _dial, encode_frame, parse_topology,
                          recv_frame, run_worker, send_frame)

    raw, values = resolve_settings(args)
    out = Path(values["out"])
    hyper, cfg = _hyper_and_config(values)
    if "topology" not in values or "worker_id" not in values:
        raise ConfigError("worker needs --topology and --worker-id")
    topo = parse_topology(values["topology"])
    worker_id = values["worker_id"]
    if worker_id not in topo.workers:
        raise ProtocolError(f"worker {worker_id} not present in topology")
    train_corpus, _ = _load_split(values)
    assignment = topo.assignment()
    covered = sorted(t for ts in assignment.values() for t in ts)
    if covered != list(range(1, train_corpus.n_slices + 1)):
        raise ConfigError(f"topology covers slices {covered}, corpus has "
                          f"{train_corpus.n_slices}")
    write_manifest(out, raw)

    coord = metrics_sink = None
    who = f"worker {worker_id} <-> coordinator"
    try:
        if topo.coordinator is not None:
            # the coordinator may still be starting up: _dial retries
            coord = _dial(worker_id, "coordinator", topo.coordinator, DEFAULT_TIMEOUT,
                          100, hello=str(topo.checksum()).encode())
            if recv_frame(coord, who).kind != KIND_HELLO_OK:
                raise ProtocolError(f"{who}: topology checksum rejected by coordinator")

            def metrics_sink(row):
                send_frame(coord, encode_frame(KIND_METRICS, row["iteration"], worker_id,
                                               json.dumps(row).encode()), who)

        run_worker(worker_id, assignment, topo.workers, train_corpus, hyper, cfg,
                   _checkpoint_dir(values), metrics_sink=metrics_sink)
        if coord is not None:
            # hold until the coordinator acknowledges the final checkpoint
            send_frame(coord, encode_frame(KIND_DONE, cfg.iterations, worker_id), who)
            ack = recv_frame(coord, who)
            if ack.kind != KIND_DONE:
                raise ProtocolError(f"{who}: unexpected shutdown frame of kind {ack.kind}")
    finally:
        if coord is not None:
            coord.close()
    print(f"worker {worker_id}: finished {cfg.iterations} iterations for slices "
          f"{assignment[worker_id]}")
    return EXIT_OK


def cmd_coordinator(args) -> int:
    import socket as socketlib
    from multiprocessing.connection import wait

    from .cluster import (DEFAULT_TIMEOUT, KIND_DONE, KIND_HELLO,
                          KIND_HELLO_MISMATCH, KIND_HELLO_OK, KIND_METRICS,
                          PeerDisconnected, ProtocolError, configure_socket,
                          encode_frame, parse_topology, recv_frame, send_frame)
    from .engine import metrics_to_csv

    raw, values = resolve_settings(args)
    out = Path(values["out"])
    if "topology" not in values:
        raise ConfigError("coordinator needs --topology")
    topo = parse_topology(values["topology"])
    if topo.coordinator is None:
        raise ConfigError("topology has no coordinator address")
    write_manifest(out, raw)
    expected = str(topo.checksum())

    server = socketlib.create_server(topo.coordinator)
    server.settimeout(DEFAULT_TIMEOUT)
    conns = {}      # socket -> worker id
    try:
        while len(conns) < len(topo.workers):
            try:
                conn, _ = server.accept()
            except TimeoutError as exc:
                raise PeerDisconnected(
                    f"coordinator: no word from a worker in {DEFAULT_TIMEOUT:g} s "
                    f"({len(conns)} of {len(topo.workers)} connected)") from exc
            configure_socket(conn, DEFAULT_TIMEOUT)
            hello = recv_frame(conn, "coordinator <- new worker")
            if hello.kind != KIND_HELLO:
                conn.close()
                continue
            who = f"coordinator -> worker {hello.sender}"
            if hello.text() != expected:
                send_frame(conn, encode_frame(KIND_HELLO_MISMATCH, 0, 0), who)
                conn.close()
                raise ProtocolError(f"coordinator: worker {hello.sender} has a "
                                    f"different topology")
            send_frame(conn, encode_frame(KIND_HELLO_OK, 0, 0), who)
            conns[conn] = hello.sender

        # read whichever worker has a frame ready: a worker that owns more
        # slices sends more rows per iteration, and one blocked in its
        # metrics send stops the boundary exchange of the whole chain
        rows = []
        pending = dict(conns)
        while pending:
            ready = wait(list(pending), DEFAULT_TIMEOUT)
            if not ready:
                raise PeerDisconnected(f"coordinator: no word from workers "
                                       f"{sorted(pending.values())} in "
                                       f"{DEFAULT_TIMEOUT:g} s")
            for conn in ready:
                wid = pending[conn]
                frame = recv_frame(conn, f"coordinator <- worker {wid}")
                if frame.kind == KIND_METRICS:
                    rows.append(json.loads(frame.text()))
                elif frame.kind == KIND_DONE:
                    send_frame(conn, encode_frame(KIND_DONE, frame.iteration, 0),
                               f"coordinator -> worker {wid}")
                    del pending[conn]
        metrics_to_csv(rows, out / "metrics.csv")
        print(f"coordinator: collected {len(rows)} metric rows from "
              f"{len(conns)} workers")
        return EXIT_OK
    finally:
        for conn in conns:
            conn.close()
        server.close()


COMMANDS = {
    "train": (cmd_train, "train in-process"),
    "eval": (cmd_eval, "held-out perplexity"),
    "trends": (cmd_trends, "export topic trends"),
    "gen-synthetic": (cmd_gen_synthetic, "corpus drawn from the generative process"),
    "worker": (cmd_worker, "run one distributed worker"),
    "coordinator": (cmd_coordinator, "collect worker metrics"),
}


def make_parser() -> argparse.ArgumentParser:
    """One subparser per command, with --config and one --flag per key of
    the command's settings table; values stay text until
    ``resolve_settings`` parses them."""
    p = argparse.ArgumentParser(prog="dtmgibbs",
                                description="Dynamic topic model trainer")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (fn, help_text) in COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("--config", help="flat key = value config file")
        for key, (default, _) in settings_table(command).items():
            sp.add_argument("--" + key.replace("_", "-"), dest=key,
                            help=None if default is None else f"default {default}")
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    """Run one command; the only place that maps errors to exit codes."""
    from .cluster import ProtocolError
    from .engine import NumericError
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    errors = ((ConfigError, "configuration error", EXIT_CONFIG),
              (NumericError, "numeric abort", EXIT_NUMERIC),
              (ProtocolError, "peer error", EXIT_PEER),
              ((FileNotFoundError, ValueError), "data error", EXIT_DATA))
    try:
        return args.fn(args)
    except Exception as exc:
        for kind, prefix, code in errors:
            if isinstance(exc, kind):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())

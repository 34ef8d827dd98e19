import json
import subprocess
import sys

import numpy as np
import pytest

from dtmgibbs.cli import COMMANDS, main, parse_config_file, settings_table

RUNNER = [sys.executable, "-m", "dtmgibbs.cli"]


@pytest.fixture
def corpus_file(tmp_path):
    rng = np.random.default_rng(0)
    lines = []
    for t in (1, 2):
        for _ in range(12):
            toks = " ".join(f"w{rng.integers(0, 8)}" for _ in range(15))
            lines.append(f"{t}\t{toks}")
    p = tmp_path / "corpus.txt"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


def run_train(tmp_path, corpus_file, out="run", extra=()):
    out_dir = tmp_path / out
    code = main(["train", "--corpus", str(corpus_file), "--out", str(out_dir),
                 "--topics", "3", "--iterations", "4", "--minibatch", "5",
                 "--seed", "2", *extra])
    return code, out_dir


class TestTrainCommand:
    def test_outputs_and_exit_zero(self, tmp_path, corpus_file, capsys):
        code, out = run_train(tmp_path, corpus_file)
        assert code == 0
        assert (out / "manifest.json").is_file()
        assert (out / "metrics.csv").is_file()
        assert (out / "checkpoints" / "slice_0001.dtmc").is_file()
        assert capsys.readouterr().err == ""

    def test_missing_corpus_exit_2(self, tmp_path, capsys):
        code = main(["train", "--corpus", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "r")])
        assert code == 2
        assert "nope.txt" in capsys.readouterr().err

    def test_reference_settings_recorded(self, tmp_path, corpus_file):
        code, out = run_train(tmp_path, corpus_file, extra=[
            "--iterations", "60", "--minibatch", "60",
            "--eta-schedule", "0.5,100,0.8"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        cfg = manifest["config"]
        assert cfg["iterations"] == "60"
        assert cfg["minibatch"] == "60"
        assert cfg["eta_schedule"] == "0.5,100,0.8"
        assert manifest["master_seed"] == 2

    def test_flag_overrides_config_file(self, tmp_path, corpus_file):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("topics = 5\nminibatch = 7  # comment\n",
                            encoding="utf-8")
        out = tmp_path / "r"
        code = main(["train", "--config", str(cfg_file), "--corpus",
                     str(corpus_file), "--out", str(out), "--topics", "2",
                     "--iterations", "2"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["topics"] == "2"      # flag wins
        assert manifest["config"]["minibatch"] == "7"   # file beats default

    def test_bad_config_exit_1(self, tmp_path, corpus_file):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("this line has no equals sign\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg_file),
                     "--corpus", str(corpus_file), "--out", str(tmp_path / "r")])
        assert code == 1

    def test_unknown_flag_exit_1(self, capsys):
        assert main(["train", "--no-such-flag"]) == 1

    def test_retired_threads_flag_exit_1(self, tmp_path, corpus_file):
        code, _ = run_train(tmp_path, corpus_file, extra=["--threads", "3"])
        assert code == 1

    def test_unknown_config_key_exit_1(self, tmp_path, corpus_file, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("topics = 3\nthreads = 3\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg_file),
                     "--corpus", str(corpus_file), "--out", str(tmp_path / "r")])
        assert code == 1
        assert "threads" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("flag, value, key", [
        ("--eta-schedule", "0.5,100,0.4", "eta_schedule"),   # c outside (0.5, 1]
        ("--eta-schedule", "0.5,0,0.8", "eta_schedule"),     # b = 0 at iteration 0
        ("--eta-schedule", "x,1,0.8", "eta_schedule"),
        ("--topics", "0", "topics"),
        ("--minibatch", "0", "minibatch"),
    ])
    def test_bad_setting_value_exit_1(self, tmp_path, corpus_file, capsys,
                                      flag, value, key):
        code, out = run_train(tmp_path, corpus_file, extra=[flag, value])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"configuration error: {key} = ")
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command, line, key", [
        ("train", "test_fraction = x", "test_fraction"),
        ("train", "test_fraction = 1.5", "test_fraction"),
        ("train", "heldout_fraction = 0", "heldout_fraction"),
        ("train", "split_seed = 1.5", "split_seed"),
        ("trends", "test_fraction = -0.1", "test_fraction"),
        ("eval", "inner_steps = x", "inner_steps"),
        ("eval", "inner_steps = -1", "inner_steps"),
        ("worker", "worker_id = one", "worker_id"),
        ("train", "format = bogus", "format"),
    ])
    def test_bad_config_file_value_exit_1(self, tmp_path, corpus_file, capsys,
                                          command, line, key):
        # values from a config file bypass the typed flags; each must be
        # rejected before the manifest is written
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "r"
        extra = []
        if command == "worker":      # never dialed: the value fails first
            write_topology(tmp_path / "topo.txt", [1, 2], 3)
            extra = ["--topology", str(tmp_path / "topo.txt")]
        code = main([command, "--config", str(cfg_file), "--corpus", str(corpus_file),
                     "--out", str(out), "--topics", "3", *extra])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"configuration error: {key} = ")
        assert not (out / "manifest.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_abort_exit_3(self, tmp_path, corpus_file, capsys):
        code, _ = run_train(tmp_path, corpus_file,
                            extra=["--eta-schedule", "1e308,100,0.8",
                                   "--test-fraction", "0"])
        assert code == 3
        err = capsys.readouterr().err
        assert "block" in err and "slice" in err


class TestEvalCommand:
    def test_eval_deterministic_and_csv(self, tmp_path, corpus_file, capsys):
        code, out = run_train(tmp_path, corpus_file)
        assert code == 0
        capsys.readouterr()  # drop the train command's output
        args = ["eval", "--corpus", str(corpus_file), "--out", str(out),
                "--topics", "3", "--seed", "2", "--inner-steps", "10"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "overall" in first
        lines = (out / "perplexity.csv").read_text().strip().splitlines()
        assert lines[0] == "slice,n_heldout,perplexity"

    def test_heldout_default_recorded(self, tmp_path, corpus_file):
        code, out = run_train(tmp_path, corpus_file)
        main(["eval", "--corpus", str(corpus_file), "--out", str(out),
              "--topics", "3", "--inner-steps", "5"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["heldout_fraction"] == "0.5"

    def test_short_checkpoint_exit_2(self, tmp_path, corpus_file, capsys):
        code, out = run_train(tmp_path, corpus_file)
        assert code == 0
        ckpt = out / "checkpoints" / "slice_0002.dtmc"
        ckpt.write_bytes(ckpt.read_bytes()[:20])   # shorter than the header
        code = main(["eval", "--corpus", str(corpus_file), "--out", str(out),
                     "--topics", "3", "--inner-steps", "5"])
        assert code == 2
        assert "truncated" in capsys.readouterr().err

    def test_corrupt_checkpoint_exit_2(self, tmp_path, corpus_file, capsys):
        code, out = run_train(tmp_path, corpus_file)
        assert code == 0
        ckpt = out / "checkpoints" / "slice_0001.dtmc"
        blob = bytearray(ckpt.read_bytes())
        blob[len(blob) // 2] ^= 0x40   # one flipped bit inside the arrays
        ckpt.write_bytes(bytes(blob))
        code = main(["eval", "--corpus", str(corpus_file), "--out", str(out),
                     "--topics", "3", "--inner-steps", "5"])
        assert code == 2
        assert "checksum mismatch" in capsys.readouterr().err

    def test_version_2_checkpoint_exit_2(self, tmp_path, corpus_file, capsys):
        code, out = run_train(tmp_path, corpus_file)
        assert code == 0
        ckpt = out / "checkpoints" / "slice_0001.dtmc"
        blob = bytearray(ckpt.read_bytes())
        blob[4] = 2                     # a file of the previous layout
        ckpt.write_bytes(bytes(blob))
        code = main(["eval", "--corpus", str(corpus_file), "--out", str(out),
                     "--topics", "3", "--inner-steps", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unsupported checkpoint version 2" in err
        assert "Traceback" not in err

    def test_dimension_mismatch_exit_2(self, tmp_path, corpus_file):
        code, out = run_train(tmp_path, corpus_file)
        code = main(["eval", "--corpus", str(corpus_file), "--out", str(out),
                     "--topics", "7", "--inner-steps", "5"])
        assert code == 2


class TestTrendsCommand:
    def test_trend_export(self, tmp_path, corpus_file):
        code, out = run_train(tmp_path, corpus_file)
        assert main(["trends", "--corpus", str(corpus_file), "--out", str(out),
                     "--topics", "3", "--topic-ids", "0,2", "--top-n", "4"]) == 0
        lines = (out / "trends.csv").read_text().strip().splitlines()
        assert lines[0] == "topic,slice,rank,term,probability"
        assert len(lines) == 1 + 2 * 2 * 4  # topics x slices x rank

    def test_empty_topic_ids_exports_every_topic(self, tmp_path, corpus_file):
        code, out = run_train(tmp_path, corpus_file)
        assert main(["trends", "--corpus", str(corpus_file), "--out", str(out),
                     "--topics", "3", "--topic-ids", "", "--top-n", "4"]) == 0
        lines = (out / "trends.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 2 * 4  # topics x slices x rank

    @pytest.mark.parametrize("flag, value, key", [
        ("--topic-ids", "-1", "topic_ids"),
        ("--topic-ids", "7", "topic_ids"),
        ("--topic-ids", "0,x", "topic_ids"),
        ("--top-n", "-2", "top_n"),
        ("--top-n", "0", "top_n"),
        ("--top-n", "99", "top_n"),
    ])
    def test_bad_topic_ids_or_top_n_exit_1(self, tmp_path, corpus_file, capsys,
                                          flag, value, key):
        code, trained = run_train(tmp_path, corpus_file)
        assert code == 0
        capsys.readouterr()
        out = tmp_path / "trends"
        code = main(["trends", "--corpus", str(corpus_file), "--out", str(out),
                     "--checkpoint", str(trained / "checkpoints"), "--topics", "3",
                     f"{flag}={value}"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"configuration error: {key} = ")
        assert not (out / "manifest.json").exists()


class TestGenSynthetic:
    def test_generates_loadable_corpus(self, tmp_path):
        out = tmp_path / "gen"
        code = main(["gen-synthetic", "--out", str(out), "--topics", "4",
                     "--vocab", "30", "--slices", "3", "--docs-per-slice", "10",
                     "--doc-len", "20", "--seed", "5"])
        assert code == 0
        from dtmgibbs.corpus import load_corpus
        corpus = load_corpus(out / "synthetic.txt")
        assert corpus.n_slices == 3
        assert corpus.n_docs == 30
        params = np.load(out / "true_params.npz")
        assert params["phi"].shape == (3, 4, 30)

    def test_deterministic(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["gen-synthetic", "--out", str(out), "--topics", "2",
                  "--vocab", "10", "--slices", "2", "--docs-per-slice", "4",
                  "--doc-len", "8", "--seed", "9"])
            outs.append((out / "synthetic.txt").read_text())
        assert outs[0] == outs[1]


def write_topology(path, ports, coordinator_port, slices=None):
    lines = [f"coordinator = 127.0.0.1:{coordinator_port}"]
    for i, port in enumerate(ports, start=1):
        lines.append(f"worker {i} = 127.0.0.1:{port}")
        owned = slices[i] if slices else [i]
        lines.append(f"slices {i} = {','.join(str(t) for t in owned)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestWorkerCoordinator:
    def test_two_workers_match_sequential(self, tmp_path, corpus_file):
        from dtmgibbs.cluster import free_ports
        from dtmgibbs.corpus import load_corpus
        from dtmgibbs.engine import TrainConfig, train
        from dtmgibbs.model import Hyperparams, load_checkpoint

        w1, w2, coord = free_ports(3)
        topo = tmp_path / "topo.txt"
        write_topology(topo, [w1, w2], coord)
        shared_ckpt = tmp_path / "ckpt"
        base = ["--corpus", str(corpus_file), "--topics", "3",
                "--iterations", "3", "--minibatch", "5", "--seed", "4",
                "--test-fraction", "0", "--topology", str(topo),
                "--checkpoint", str(shared_ckpt)]
        procs = [subprocess.Popen(RUNNER + ["coordinator", "--topology", str(topo),
                                            "--out", str(tmp_path / "coord")])]
        try:
            for wid in (1, 2):
                procs.append(subprocess.Popen(
                    RUNNER + ["worker", *base, "--worker-id", str(wid),
                              "--out", str(tmp_path / f"w{wid}")]))
            for p in procs:
                assert p.wait(timeout=90) == 0
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()

        corpus = load_corpus(corpus_file)
        hyper = Hyperparams(K=3)
        cfg = TrainConfig(iterations=3, minibatch_size=5, seed=4)
        seq = train(corpus, hyper, cfg).state
        dist, _, _ = load_checkpoint(shared_ckpt, corpus, hyper)
        for a, b in zip(seq.slices, dist.slices):
            np.testing.assert_array_equal(a.phi, b.phi)
            np.testing.assert_array_equal(a.alpha, b.alpha)
            np.testing.assert_array_equal(a.eta, b.eta)

        metrics = (tmp_path / "coord" / "metrics.csv").read_text().strip().splitlines()
        assert len(metrics) == 1 + 3 * 2  # header + iterations * workers
        rows = [tuple(map(int, ln.split(",")[:2])) for ln in metrics[1:]]
        assert rows == sorted(rows)

    def test_wrong_topology_checksum_exit_4(self, tmp_path, corpus_file):
        from dtmgibbs.cluster import free_ports
        w1, w2, coord = free_ports(3)
        topo_good = tmp_path / "topo.txt"
        write_topology(topo_good, [w1, w2], coord)
        topo_bad = tmp_path / "tampered.txt"
        write_topology(topo_bad, [w1, w2 + 1], coord)  # different layout

        coordinator = subprocess.Popen(
            RUNNER + ["coordinator", "--topology", str(topo_good),
                      "--out", str(tmp_path / "coord")])
        worker = subprocess.Popen(
            RUNNER + ["worker", "--corpus", str(corpus_file), "--topics", "3",
                      "--iterations", "2", "--test-fraction", "0",
                      "--topology", str(topo_bad), "--worker-id", "2",
                      "--out", str(tmp_path / "w2")])
        try:
            assert worker.wait(timeout=60) == 4
            assert coordinator.wait(timeout=60) == 4
        finally:
            for p in (worker, coordinator):
                if p.poll() is None:
                    p.kill()


    def test_absent_worker_times_out_exit_4(self, tmp_path, monkeypatch, capsys):
        import time

        import dtmgibbs.cluster
        from dtmgibbs.cluster import free_ports
        w1, coord = free_ports(2)
        topo = tmp_path / "topo.txt"
        write_topology(topo, [w1], coord)
        monkeypatch.setattr(dtmgibbs.cluster, "DEFAULT_TIMEOUT", 0.5)
        t0 = time.monotonic()
        code = main(["coordinator", "--topology", str(topo),
                     "--out", str(tmp_path / "coord")])
        assert code == 4
        assert time.monotonic() - t0 < 10
        assert "peer error:" in capsys.readouterr().err

    def test_coordinator_sockets_set_nodelay(self, tmp_path, corpus_file, monkeypatch):
        import socket
        import threading

        from dtmgibbs import cluster
        w1, coord = cluster.free_ports(2)
        topo = tmp_path / "topo.txt"
        write_topology(topo, [w1], coord, slices={1: [1, 2]})
        monkeypatch.setattr(cluster, "DEFAULT_TIMEOUT", 10.0)
        seen = []   # (local port, remote port, TCP_NODELAY) per frame sent or received
        for name in ("send_frame", "recv_frame"):
            def spy(conn, *args, real=getattr(cluster, name)):
                seen.append((conn.getsockname()[1], conn.getpeername()[1],
                             conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)))
                return real(conn, *args)
            monkeypatch.setattr(cluster, name, spy)

        codes = {}
        coordinator = threading.Thread(target=lambda: codes.setdefault(
            "coordinator", main(["coordinator", "--topology", str(topo),
                                 "--out", str(tmp_path / "coord")])))
        coordinator.start()
        try:
            codes["worker"] = main(["worker", "--corpus", str(corpus_file),
                                    "--topics", "3", "--iterations", "2",
                                    "--minibatch", "5", "--test-fraction", "0",
                                    "--topology", str(topo), "--worker-id", "1",
                                    "--out", str(tmp_path / "w1")])
        finally:
            coordinator.join(timeout=30)
        assert not coordinator.is_alive()
        assert codes == {"coordinator": 0, "worker": 0}
        accepted = [s for s in seen if s[0] == coord]   # the coordinator's side
        dialed = [s for s in seen if s[1] == coord]     # the worker's side
        assert accepted and dialed
        assert all(nodelay != 0 for *_, nodelay in seen), seen

    def test_silent_peer_exit_4(self, tmp_path, corpus_file):
        import socket
        import time

        from dtmgibbs.cluster import free_ports
        w1, w2 = free_ports(2)
        topo = tmp_path / "topo.txt"
        topo.write_text(f"worker 1 = 127.0.0.1:{w1}\nworker 2 = 127.0.0.1:{w2}\n",
                        encoding="utf-8")
        launch = ("import sys; import dtmgibbs.cluster as c; c.DEFAULT_TIMEOUT = 1.0; "
                  "from dtmgibbs.cli import main; sys.exit(main(sys.argv[1:]))")
        # worker 1 listens (the kernel completes worker 2's dial) and never answers
        with socket.create_server(("127.0.0.1", w1)):
            t0 = time.monotonic()
            worker = subprocess.run(
                [sys.executable, "-c", launch, "worker", "--corpus", str(corpus_file),
                 "--topics", "3", "--iterations", "2", "--test-fraction", "0",
                 "--topology", str(topo), "--worker-id", "2",
                 "--out", str(tmp_path / "w2")],
                capture_output=True, text=True, timeout=60)
            elapsed = time.monotonic() - t0
        assert worker.returncode == 4, worker.stderr
        assert elapsed < 15
        errors = [ln for ln in worker.stderr.splitlines() if ln.startswith("peer error:")]
        assert len(errors) == 1, worker.stderr
        assert errors[0].startswith("peer error: worker 2 <- 1:"), errors
        assert "Traceback" not in worker.stderr

    def test_mismatched_slice_layouts_exit_4(self, tmp_path):
        from dtmgibbs.cluster import free_ports
        rng = np.random.default_rng(1)
        corpus = tmp_path / "three.txt"
        corpus.write_text("".join(f"{t}\t{' '.join(f'w{i}' for i in rng.integers(0, 8, 12))}\n"
                                  for t in (1, 2, 3) for _ in range(6)), encoding="utf-8")
        # no coordinator compares the files: worker 1 sends slice 1 and
        # expects slice 2, worker 2 sends slice 3 and expects slice 2.
        # Worker 2 receives first, so it finds the mismatch; worker 1 then
        # loses its peer
        w1, w2 = free_ports(2)
        procs = {}
        try:
            for wid, owned in ((1, {1: [1], 2: [2, 3]}), (2, {1: [1, 2], 2: [3]})):
                topo = tmp_path / f"topo{wid}.txt"
                topo.write_text(f"worker 1 = 127.0.0.1:{w1}\nworker 2 = 127.0.0.1:{w2}\n"
                                + "".join(f"slices {w} = {','.join(map(str, ts))}\n"
                                          for w, ts in owned.items()), encoding="utf-8")
                procs[wid] = subprocess.Popen(
                    RUNNER + ["worker", "--corpus", str(corpus), "--topics", "2",
                              "--iterations", "2", "--minibatch", "3",
                              "--test-fraction", "0", "--topology", str(topo),
                              "--worker-id", str(wid), "--out", str(tmp_path / f"w{wid}")],
                    stderr=subprocess.PIPE, text=True)
            errs = {wid: p.communicate(timeout=60)[1] for wid, p in procs.items()}
        finally:
            for p in procs.values():
                if p.poll() is None:
                    p.kill()
                    p.wait()
        for wid, expected in ((1, "worker 1 <- 2: "),
                              (2, "worker 2 <- 1: boundary frame of slice 1, expected slice 2")):
            assert procs[wid].returncode == 4, errs[wid]
            errors = [ln for ln in errs[wid].splitlines() if ln.startswith("peer error:")]
            assert len(errors) == 1, errs[wid]
            assert errors[0].startswith(f"peer error: {expected}"), errors
            assert "Traceback" not in errs[wid]

    def test_corrupt_metrics_frame_exit_4(self, tmp_path):
        import socket
        import time

        from dtmgibbs.cluster import (KIND_HELLO, KIND_HELLO_OK, KIND_METRICS,
                                      encode_frame, free_ports, parse_topology,
                                      recv_frame, send_frame)
        w1, coord = free_ports(2)
        topo = tmp_path / "topo.txt"
        write_topology(topo, [w1], coord)
        checksum = str(parse_topology(topo).checksum()).encode()
        # the payload ends in the digit 0; flipping its low bit leaves valid JSON
        metrics = bytearray(encode_frame(KIND_METRICS, 0, 1, b'{"iteration": 0}'))
        metrics[-6] ^= 0x01
        coordinator = subprocess.Popen(
            RUNNER + ["coordinator", "--topology", str(topo),
                      "--out", str(tmp_path / "coord")],
            stderr=subprocess.PIPE, text=True)
        try:
            for _ in range(100):   # the coordinator may still be starting up
                try:
                    conn = socket.create_connection(("127.0.0.1", coord), timeout=10)
                    break
                except OSError:
                    time.sleep(0.1)
            else:
                pytest.fail("coordinator never listened")
            with conn:   # worker 1, as far as the coordinator can tell
                send_frame(conn, encode_frame(KIND_HELLO, 0, 1, checksum), "worker 1")
                assert recv_frame(conn, "worker 1").kind == KIND_HELLO_OK
                send_frame(conn, bytes(metrics), "worker 1")
                _, err = coordinator.communicate(timeout=60)
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
                coordinator.wait()
        assert coordinator.returncode == 4, err
        errors = [ln for ln in err.splitlines() if ln.startswith("peer error:")]
        assert len(errors) == 1, err
        assert errors[0].startswith("peer error: coordinator <- worker 1: checksum "
                                    "mismatch"), errors
        assert "Traceback" not in err

    def test_coordinator_reads_whichever_worker_is_ready(self, tmp_path, monkeypatch):
        # worker 1 owns three slices and sends three metrics rows per
        # iteration, worker 2 one.  A coordinator that reads one frame per
        # worker per round lets worker 1's backlog grow by two rows per
        # iteration; once it fills the small buffers of the coordinator
        # links (the buffers are set after the connection is made, so the
        # first window is larger: 80 iterations are enough, 200 leave a
        # margin), worker 1 blocks in its metrics send, which stalls the
        # boundary exchange and so worker 2
        import socket
        import threading

        from dtmgibbs import cluster
        rng = np.random.default_rng(3)
        corpus = tmp_path / "four.txt"
        corpus.write_text("".join(f"{t}\t{' '.join(f'w{i}' for i in rng.integers(0, 8, 12))}\n"
                                  for t in (1, 2, 3, 4) for _ in range(6)), encoding="utf-8")
        w1, w2, coord = cluster.free_ports(3)
        topo = tmp_path / "topo.txt"
        write_topology(topo, [w1, w2], coord, slices={1: [1, 2, 3], 2: [4]})
        monkeypatch.setattr(cluster, "DEFAULT_TIMEOUT", 10.0)
        configure = cluster.configure_socket

        def small_buffers(conn, timeout):
            if coord in (conn.getsockname()[1], conn.getpeername()[1]):
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            return configure(conn, timeout)

        monkeypatch.setattr(cluster, "configure_socket", small_buffers)
        iterations = 200
        base = ["--corpus", str(corpus), "--topics", "2", "--iterations", str(iterations),
                "--minibatch", "3", "--test-fraction", "0", "--topology", str(topo),
                "--checkpoint", str(tmp_path / "ckpt")]
        runs = {"coordinator": ["coordinator", "--topology", str(topo),
                                "--out", str(tmp_path / "coord")]}
        for wid in (1, 2):
            runs[f"worker {wid}"] = ["worker", *base, "--worker-id", str(wid),
                                     "--out", str(tmp_path / f"w{wid}")]
        codes = {}
        threads = [threading.Thread(target=lambda name=name, argv=argv:
                                    codes.setdefault(name, main(argv)))
                   for name, argv in runs.items()]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert codes == {name: 0 for name in runs}
        metrics = (tmp_path / "coord" / "metrics.csv").read_text().strip().splitlines()
        assert len(metrics) == 1 + iterations * 4     # header + iterations * slices


@pytest.mark.parametrize("command", ["worker", "coordinator"])
@pytest.mark.parametrize("line", [
    "worker = 127.0.0.1:7002",          # no id
    "worker two = 127.0.0.1:7002",
    "worker 2 = 127.0.0.1:port",
    "worker 2 = 127.0.0.1",             # no port
    "slices 1 = 1,b",
    "slices = 1",
    "workers 2 = 127.0.0.1:7002"])
def test_malformed_topology_line_exit_2(tmp_path, corpus_file, capsys, command, line):
    topo = tmp_path / "topo.txt"
    topo.write_text(f"coordinator = 127.0.0.1:7000\n{line}\nworker 1 = 127.0.0.1:7001\n",
                    encoding="utf-8")
    out = tmp_path / "out"
    code = main([command, "--corpus", str(corpus_file), "--topology", str(topo),
                 "--worker-id", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()], err
    assert err.startswith(f"data error: {topo}:2: "), err
    assert not (out / "manifest.json").exists()


class TestSettingsTable:
    """Every setting is parsed before a command writes its manifest."""

    PARSED = [(command, key) for command in COMMANDS
              for key, (_, parse) in settings_table(command).items() if parse is not str]

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("command, key", PARSED)
    def test_bad_value_exit_1_before_manifest(self, tmp_path, corpus_file, capsys,
                                              command, key, source):
        out = tmp_path / "r"
        if source == "flag":
            given = [f"--{key.replace('_', '-')}", "x"]
        else:
            cfg_file = tmp_path / "bad.cfg"
            cfg_file.write_text(f"{key} = x\n", encoding="utf-8")
            given = ["--config", str(cfg_file)]
        code = main([command, "--corpus", str(corpus_file), "--out", str(out), *given])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"configuration error: {key} = ")
        assert not (out / "manifest.json").exists()

    def test_train_without_corpus_exit_1(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["train", "--out", str(out)]) == 1
        assert "no corpus path" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_gen_synthetic_empty_vocabulary_exit_1(self, tmp_path, capsys):
        out = tmp_path / "gen"
        assert main(["gen-synthetic", "--out", str(out), "--vocab", "0"]) == 1
        assert capsys.readouterr().err.startswith("configuration error: vocab = '0'")
        assert not (out / "manifest.json").exists()

    def test_command_keys_from_config_file(self, tmp_path, corpus_file):
        code, out = run_train(tmp_path, corpus_file)
        assert code == 0
        cfg_file = tmp_path / "trends.cfg"
        cfg_file.write_text("topic_ids = 1\ntop_n = 2\n", encoding="utf-8")
        assert main(["trends", "--config", str(cfg_file), "--corpus", str(corpus_file),
                     "--out", str(out), "--topics", "3"]) == 0
        lines = (out / "trends.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 1 * 2 * 2     # topics x slices x rank
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["config"]["topic_ids"], manifest["config"]["top_n"]) == ("1", "2")

    def test_other_commands_keys_rejected(self, tmp_path, corpus_file, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("vocab = 30\n", encoding="utf-8")
        code, out = run_train(tmp_path, corpus_file, extra=["--config", str(cfg_file)])
        assert code == 1
        assert "unknown key(s) vocab" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


def test_single_token_test_docs_leave_stderr_empty(tmp_path):
    # split_holdout reports the documents it cannot split through logging;
    # a run without a log handler must not print that report
    corpus = tmp_path / "short.txt"
    corpus.write_text("".join(f"{t}\tw{i % 3}\n" for t in (1, 2) for i in range(10)),
                      encoding="utf-8")
    run = subprocess.run(RUNNER + ["train", "--corpus", str(corpus), "--out",
                                   str(tmp_path / "r"), "--topics", "2",
                                   "--iterations", "2", "--minibatch", "2",
                                   "--test-fraction", "0.9"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""


class TestConfigFile:
    def test_parse_comments_and_spacing(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# header\nalpha = 1\n  beta2= 0.5 # trailing\n\n",
                     encoding="utf-8")
        assert parse_config_file(p) == {"alpha": "1", "beta2": "0.5"}

"""Property tests: a truncated or bit-flipped checkpoint file or boundary
frame always ends in a clean error, never in a hang or a silent load."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtmgibbs.cluster import ProtocolError, encode_boundary, recv_boundary
from dtmgibbs.model import (Hyperparams, SliceState, checkpoint_path,
                            read_slice_checkpoint, write_slice_checkpoint)


@pytest.fixture(scope="module")
def checkpoint_blob(tmp_path_factory):
    rng = np.random.default_rng(0)
    k, v, lengths = 3, 5, (4, 0, 7)
    tokens = [rng.integers(0, v, size=n).astype(np.int32) for n in lengths]
    z = [rng.integers(0, k, size=n).astype(np.int32) for n in lengths]
    sl = SliceState(2, tokens, rng.normal(size=k), rng.normal(size=(k, v)),
                    rng.normal(size=(len(lengths), k)), z)
    directory = tmp_path_factory.mktemp("ck")
    write_slice_checkpoint(directory, sl, 7, 11, 4)
    return checkpoint_path(directory, 2).read_bytes()


def _read_damaged(tmp_path_factory, blob: bytes):
    path = tmp_path_factory.mktemp("damaged") / "slice_0002.dtmc"
    path.write_bytes(blob)
    return read_slice_checkpoint(path)


def test_intact_checkpoint_loads(tmp_path_factory, checkpoint_blob):
    data = _read_damaged(tmp_path_factory, checkpoint_blob)
    assert (data["master_seed"], data["iteration"], data["K"], data["D_t"]) == (7, 11, 3, 3)


@given(st.data())
def test_truncated_checkpoint_rejected(tmp_path_factory, checkpoint_blob, data):
    cut = data.draw(st.integers(0, len(checkpoint_blob) - 1))
    with pytest.raises(ValueError):
        _read_damaged(tmp_path_factory, checkpoint_blob[:cut])


@given(st.data())
def test_flipped_checkpoint_byte_rejected(tmp_path_factory, checkpoint_blob, data):
    blob = bytearray(checkpoint_blob)
    pos = data.draw(st.integers(0, len(blob) - 1))
    blob[pos] ^= data.draw(st.integers(1, 255))
    with pytest.raises(ValueError):
        _read_damaged(tmp_path_factory, bytes(blob))


class _Replay:
    """Transport stub: hands out the same bytes on every recv and records
    whatever the receiver sends back."""

    def __init__(self, data: bytes):
        self.data = data
        self.sent = []

    def recv(self, from_id):
        return bytearray(self.data)

    def send(self, to_id, data):
        self.sent.append(data)


ALPHA, PHI = np.arange(2, dtype=float), np.arange(6, dtype=float).reshape(2, 3)
FRAME = encode_boundary(3, 1, ALPHA, PHI)


def test_intact_frame_accepted():
    alpha, phi = recv_boundary(_Replay(FRAME), 2, 1, 3)
    np.testing.assert_array_equal(alpha, ALPHA)
    np.testing.assert_array_equal(phi, PHI)


@given(st.integers(0, len(FRAME) - 1))
def test_truncated_frame_rejected(cut):
    with pytest.raises(ProtocolError):
        recv_boundary(_Replay(FRAME[:cut]), 2, 1, 3)


@given(st.integers(0, len(FRAME) - 1), st.integers(1, 255))
def test_flipped_frame_byte_rejected(pos, mask):
    blob = bytearray(FRAME)
    blob[pos] ^= mask
    link = _Replay(bytes(blob))
    with pytest.raises(ProtocolError, match="worker 2 <- 1: "):
        recv_boundary(link, 2, 1, 3)
    assert link.sent == []   # the receiver sends nothing back

"""Unit tests for the wire serialization helpers and payload measurement."""

import numpy as np
import pytest

from repro.config import AlgorithmOptions
from repro.errors import CommunicatorError
from repro.mpi import wire
from repro.mpi.comm import payload_nbytes
from repro.mpi.wire import WireCounters, pack_message, unpack_message


def roundtrip(obj):
    return unpack_message(pack_message(obj))


def deep_equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and np.array_equal(a, b)
        )
    if isinstance(a, (tuple, list)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(deep_equal(x, y) for x, y in zip(a, b))
        )
    return type(a) is type(b) and a == b


class TestRoundtrip:
    """Every payload shape the drivers send survives the wire unchanged."""

    @pytest.mark.parametrize(
        "obj",
        [
            None,
            True,
            False,
            0,
            -1,
            2**62,
            3.14159,
            "unicode: ∅→µ",
            b"raw bytes",
            (),
            [],
            (1, "two", 3.0, None),
            [[1, 2], (3, [4])],
        ],
    )
    def test_scalars_and_containers(self, obj):
        assert deep_equal(roundtrip(obj), obj)

    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(12, dtype=np.float64),
            np.arange(6, dtype=np.int32).reshape(2, 3),
            np.array([], dtype=np.uint64),
            np.zeros((0, 4), dtype=np.uint64),
            np.array(7.5),  # 0-d
            np.array([True, False, True]),
            np.arange(4, dtype=">f8"),  # big-endian
        ],
    )
    def test_arrays(self, arr):
        out = roundtrip(arr)
        assert out.dtype == arr.dtype and out.shape == arr.shape
        assert np.array_equal(out, arr)
        assert out.flags.writeable  # a private copy, never a view

    def test_noncontiguous_and_fortran(self):
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        for arr in (base[:, ::2], np.asfortranarray(base)):
            out = roundtrip(arr)
            assert np.array_equal(out, arr) and out.shape == arr.shape

    def test_wire_tuple(self):
        words = np.arange(20, dtype=np.uint64).reshape(10, 2)
        pi = np.arange(10, dtype=np.int32)
        pj = (np.arange(10, dtype=np.int32) + 5)
        out = roundtrip((words, pi, pj))
        assert deep_equal(out, (words, pi, pj))


class TestCounters:
    def test_pack_message_counts_once(self):
        c = WireCounters()
        payload = np.arange(8, dtype=np.float64)
        blob = pack_message(payload, c)
        assert c.n_ser == 1
        assert c.ser_bytes == len(blob)
        assert np.array_equal(unpack_message(blob), payload)

    def test_snapshot_order(self):
        c = WireCounters()
        c.wire_out, c.wire_in, c.ser_bytes, c.n_ser, c.msgs_out = 1, 2, 3, 4, 5
        assert c.snapshot() == (1, 2, 3, 4, 5)

    def test_ctrl_plane_separate_from_wire_out(self):
        c = WireCounters()
        c.ctrl_out += 96
        assert c.wire_out == 0  # barrier/envelope traffic is not payload


class TestResolution:
    def test_resolve_timeout(self, monkeypatch):
        monkeypatch.delenv("REPRO_COMM_TIMEOUT_S", raising=False)
        assert wire.resolve_timeout() == 300.0
        assert wire.resolve_timeout(12.5) == 12.5
        monkeypatch.setenv("REPRO_COMM_TIMEOUT_S", "45")
        assert wire.resolve_timeout() == 45.0
        with pytest.raises(CommunicatorError):
            wire.resolve_timeout(0)

    def test_options_default_goes_through_resolve_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMM_TIMEOUT_S", "45")
        assert AlgorithmOptions().comm_timeout_s == 45.0
        monkeypatch.setenv("REPRO_COMM_TIMEOUT_S", "-1")
        with pytest.raises(CommunicatorError):
            AlgorithmOptions()


class TestPayloadNbytes:
    """Pins for the logical payload measurement (satellite: dict payloads
    used to fall through to whole-container pickle)."""

    def test_deferred_wire_tuple_measured_by_contents(self):
        # The deferred pipeline's allgather triple for 100 candidates over
        # 2 support words: uint64 words + two int32 index vectors.
        words = np.zeros((100, 2), dtype=np.uint64)
        pi = np.zeros(100, dtype=np.int32)
        pj = np.zeros(100, dtype=np.int32)
        assert payload_nbytes((words, pi, pj)) == 100 * 16 + 400 + 400

    def test_distributed_active_tuple(self):
        vals = np.zeros((10, 7))
        w = np.zeros((10, 1), dtype=np.uint64)
        assert payload_nbytes((vals, w, vals, w)) == 2 * (560 + 80)

    def test_dict_recurses_over_values(self):
        arr = np.zeros(64, dtype=np.float64)
        assert payload_nbytes({"a": arr, "b": [arr, arr]}) == 3 * 512

    def test_empty_containers(self):
        assert payload_nbytes(()) == 0
        assert payload_nbytes({}) == 0

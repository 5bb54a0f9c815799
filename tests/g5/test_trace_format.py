"""The packed trace format: compressed fixed-width columns.

``pack_recorder`` stores ``trace_fns`` and ``trace_daddrs`` as base64
text of zlib-compressed little-endian ``array('I')`` / ``array('Q')``
bytes.  These tests pin that wire form (the decompressed bytes, never
the compressed ones: zlib builds may compress differently), the round
trip of every recorder field through JSON, and the size win over the
list form that every hop carrying a result gains from it.
"""

from __future__ import annotations

import base64
import json
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec.pool import G5Job, execute_g5_job
from repro.g5.serialize import (
    TRACE_FORMAT_VERSION,
    pack_recorder,
    pack_sim_result,
    unpack_recorder,
)
from repro.host.trace import ExecutionRecorder, HostAllocation

FN_IDS = st.integers(0, 2**32 - 1)
DADDRS = st.integers(0, 2**64 - 1)


def _recorder(fns, daddrs, **fields) -> ExecutionRecorder:
    recorder = ExecutionRecorder(enabled=fields.pop("enabled", True))
    for name in fields.pop("fn_names", ()):
        recorder.intern(name)
    recorder.trace_fns = list(fns)
    recorder.trace_daddrs = list(daddrs)
    for name, value in fields.items():
        setattr(recorder, name, value)
    return recorder


@st.composite
def recorders(draw) -> ExecutionRecorder:
    # A short drawn stretch repeated up to 100 times: lengths 0 to
    # thousands without drawing thousands of values.
    stretch = draw(st.lists(st.tuples(FN_IDS, DADDRS), max_size=64))
    records = stretch * draw(st.integers(1, 100))
    n = len(records)
    roi_begin = draw(st.none() | st.integers(0, n))
    roi_end = draw(st.none() | st.integers(roi_begin or 0, n))
    return _recorder(
        [fn for fn, _ in records], [daddr for _, daddr in records],
        enabled=draw(st.booleans()),
        fn_names=draw(st.lists(st.text(max_size=12), unique=True,
                               max_size=8)),
        allocations=draw(st.lists(st.builds(
            HostAllocation, DADDRS, st.integers(1, 2**32),
            st.text(max_size=8)), max_size=4)),
        _brk=draw(DADDRS), roi_begin=roi_begin, roi_end=roi_end)


@settings(deadline=None)
@given(recorders())
def test_every_field_survives_the_json_round_trip(recorder):
    packed = pack_recorder(recorder)
    assert json.loads(json.dumps(packed)) == packed
    back = unpack_recorder(json.loads(json.dumps(packed)))
    assert back.enabled == recorder.enabled
    assert back.fn_names == recorder.fn_names
    assert back._ids == recorder._ids
    assert type(back.trace_fns) is list and type(back.trace_daddrs) is list
    assert back.trace_fns == recorder.trace_fns
    assert back.trace_daddrs == recorder.trace_daddrs
    assert back.allocations == recorder.allocations
    assert back._brk == recorder._brk
    assert (back.roi_begin, back.roi_end) \
        == (recorder.roi_begin, recorder.roi_end)


def test_columns_are_little_endian_fixed_width_arrays():
    fns = [1, 2, 0x12345678, 2**32 - 1]
    daddrs = [0, 0x1234, 0x0102030405060708, 2**64 - 1]
    packed = pack_recorder(_recorder(fns, daddrs))
    assert packed["format"] == TRACE_FORMAT_VERSION == 2

    def raw(column: str) -> bytes:
        return zlib.decompress(base64.b64decode(packed[column]))

    assert raw("trace_fns") == struct.pack("<4I", *fns)
    assert raw("trace_daddrs") == struct.pack("<4Q", *daddrs)


@pytest.mark.parametrize("fns, daddrs", [([2**32], [0]), ([1], [2**64]),
                                         ([1], [-1])])
def test_a_value_its_column_cannot_hold_is_refused(fns, daddrs):
    with pytest.raises(OverflowError):
        pack_recorder(_recorder(fns, daddrs))


def test_packed_result_is_at_least_4x_smaller_than_the_list_form():
    result = execute_g5_job(G5Job("sieve", "atomic", "se", "test"))
    packed = pack_sim_result(result)
    listed = {**packed, "recorder": {
        **packed["recorder"],
        "trace_fns": result.recorder.trace_fns,
        "trace_daddrs": result.recorder.trace_daddrs}}
    assert len(result.recorder.trace_fns) > 1000
    assert 4 * len(json.dumps(packed)) <= len(json.dumps(listed))

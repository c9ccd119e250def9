import json

import numpy as np
import pytest

from xchan.channels import KrausChannel, choi
from xchan.errors import NotTracePreservingError, SchemaError
from xchan.extremal import sample_extremal
from xchan.linalg import ID2, SY
from xchan.serialize import (
    channel_from_doc,
    channel_to_doc,
    dump_channel,
    dump_state,
    matrix_from_doc,
    matrix_to_doc,
    parse_channel,
    parse_state,
    state_from_doc,
    state_to_doc,
)
from xchan.states import random_density


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 7), (4, 12)])
def test_channel_round_trip_is_exact(n, seed):
    _, ch = sample_extremal(n, seed)
    back = parse_channel(dump_channel(ch))
    assert len(back) == len(ch)
    for a, b in zip(ch.kraus, back.kraus):
        assert np.array_equal(a, b)
    assert np.max(np.abs(choi(ch) - choi(back))) == 0.0


def test_complex_entries_survive_the_round_trip():
    ch = KrausChannel((SY,))
    back = parse_channel(dump_channel(ch))
    assert np.array_equal(back.kraus[0], SY)


def test_serialize_then_parse_twice_is_stable():
    _, ch = sample_extremal(3, 5)
    once = dump_channel(ch)
    twice = dump_channel(parse_channel(once))
    assert once == twice


def test_metadata_passes_through():
    _, ch = sample_extremal(2, 4)
    doc = channel_to_doc(ch, {"n": 2, "seed": 4})
    assert doc["metadata"] == {"n": 2, "seed": 4}
    assert channel_to_doc(ch).get("metadata") is None


@pytest.mark.parametrize("n", [2, 16])
def test_channel_doc_encodes_each_operator_as_its_matrix_doc(n, haar_unitary):
    _, ch = sample_extremal(n, n)
    rotated = KrausChannel(haar_unitary(n, 1) @ ch.stack @ haar_unitary(n, 2))
    for c in (ch, rotated):
        doc = channel_to_doc(c)
        assert doc["kraus"] == [matrix_to_doc(op) for op in c.kraus]
        assert json.dumps(doc["kraus"]) == json.dumps([matrix_to_doc(op) for op in c.kraus])


def test_state_round_trip_is_exact():
    rho = random_density(3, 9)
    back = parse_state(dump_state(rho))
    assert np.array_equal(back.mat, rho.mat)


def test_matrix_doc_encoding_shape():
    doc = matrix_to_doc(np.array([[1.0, 2.0j]]))
    assert doc == [[[1.0, 0.0], [0.0, 2.0]]]
    assert np.array_equal(
        matrix_from_doc(doc, "m"), np.array([[1.0, 2.0j]])
    )


def test_negative_zero_keeps_its_sign_and_the_round_trip_is_byte_identical():
    text = '{"dim": 1, "kraus": [[[[-0.0, -0.0]]]], "metadata": {"n": 1}}'
    ch = parse_channel(text, require_tp=False)
    entry = ch.stack[0, 0, 0]
    assert np.signbit(entry.real) and np.signbit(entry.imag)
    once = dump_channel(ch, {"n": 1})
    assert once.count("-0.0") == 2
    again = dump_channel(parse_channel(once, require_tp=False), {"n": 1})
    assert again == once


def test_schema_rejects_shape_mismatch():
    doc = {"dim": 2, "kraus": [matrix_to_doc(np.eye(3))]}
    with pytest.raises(SchemaError) as info:
        channel_from_doc(doc)
    assert "kraus[0]" in str(info.value)


@pytest.mark.parametrize(
    "doc,field",
    [
        ([], "$"),
        ({"kraus": [matrix_to_doc(ID2)]}, "dim"),
        ({"dim": "2", "kraus": [matrix_to_doc(ID2)]}, "dim"),
        ({"dim": True, "kraus": [matrix_to_doc(ID2)]}, "dim"),
        ({"dim": 2}, "kraus"),
        ({"dim": 2, "kraus": []}, "kraus"),
        ({"dim": 2, "kraus": [[[1.0, 0.0]]]}, "kraus[0][0][0]"),
        ({"dim": 2, "kraus": [[[[1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}, "kraus[0][0][0]"),
        ({"dim": 2, "kraus": [[[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}, "kraus[0][1]"),
        ({"dim": 2, "kraus": [matrix_to_doc(ID2)], "metadata": 7}, "metadata"),
    ],
)
def test_schema_errors_name_the_field(doc, field):
    with pytest.raises(SchemaError) as info:
        channel_from_doc(doc)
    assert info.value.field == field


def test_schema_rejects_non_finite_entries():
    text = '{"dim": 1, "kraus": [[[[Infinity, 0.0]]]]}'
    with pytest.raises(SchemaError):
        parse_channel(text)


@pytest.mark.parametrize("flag", [True, False])
def test_schema_rejects_json_booleans(flag):
    # bool is an int subclass, so a bare isinstance test would take it as 1/0.
    text = json.dumps(flag)
    with pytest.raises(SchemaError) as info:
        parse_channel(f'{{"dim": 1, "kraus": [[[[{text}, 0.0]]]]}}')
    assert info.value.field == "kraus[0][0][0]"
    with pytest.raises(SchemaError) as info:
        parse_state(f'{{"dim": 1, "rho": [[[1.0, {text}]]]}}')
    assert info.value.field == "rho[0][0]"
    with pytest.raises(SchemaError) as info:
        parse_state(f'{{"dim": {text}, "rho": [[[1.0, 0.0]]]}}')
    assert info.value.field == "dim"


def test_parse_channel_enforces_completeness_by_default():
    doc = {"dim": 2, "kraus": [matrix_to_doc(0.5 * ID2)]}
    with pytest.raises(NotTracePreservingError):
        channel_from_doc(doc)
    ch = channel_from_doc(doc, require_tp=False)
    assert len(ch) == 1


def test_malformed_json_reports_position():
    with pytest.raises(json.JSONDecodeError) as info:
        parse_channel("{not json")
    assert info.value.pos >= 0


def test_state_schema_errors():
    with pytest.raises(SchemaError):
        state_from_doc({"dim": 2})
    with pytest.raises(SchemaError):
        state_from_doc({"dim": 3, "rho": matrix_to_doc(np.eye(2) / 2)})
    with pytest.raises(SchemaError):
        state_from_doc([1, 2])
    doc = state_to_doc(random_density(2, 2))
    assert set(doc) == {"dim", "rho"}


@pytest.mark.parametrize("part", [0, 1])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_matrix_entries_beyond_the_magnitude_bound_are_schema_errors(part, sign):
    # A part of 1e150 is accepted, and the next double above it refused.
    top = np.nextafter(1e150, np.inf)
    entry = [0.0, 0.0]
    entry[part] = sign * 1e150
    doc = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], entry]]
    assert matrix_from_doc(doc, "m")[1, 1] == (sign * 1e150 if part == 0 else sign * 1e150j)
    entry[part] = sign * top
    with pytest.raises(SchemaError, match=r"magnitude at most 1e\+150") as err:
        matrix_from_doc(doc, "m")
    assert err.value.field == "m[1][1]"
    with pytest.raises(SchemaError) as err:
        state_from_doc({"dim": 2, "rho": doc})
    assert err.value.field == "rho[1][1]"
    with pytest.raises(SchemaError) as err:
        channel_from_doc({"dim": 2, "kraus": [doc]}, require_tp=False)
    assert err.value.field == "kraus[0][1][1]"

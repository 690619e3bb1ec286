"""Malformed request bodies are 400s that say what is wrong.

The strict decoders of ``repro.service.wire`` are the boundary between the
HTTP service and input from outside the program; each rejection below is a
:class:`WireError` with status 400 and a message naming the fault.
"""

from __future__ import annotations

import json

import pytest

from repro.reporting import ResultTable
from repro.service.wire import (
    WireError,
    decode_assignment,
    decode_instance_id,
    decode_member,
    decode_predict_request,
    decode_result_records,
    decode_status_query,
    decode_tune_request,
    render_table,
)

MEMBER = {"instance_id": "w1", "host": "127.0.0.1", "port": 8000}
RECORD = {
    "key": "k", "kind": "predict", "pattern": "j2d5pt", "gpu": "V100", "dtype": "float",
    "grid": "16x16", "time_steps": 4, "code_version": "0", "status": "ok", "payload": {},
    "elapsed_s": 0.1,
}


def _json(value: object) -> bytes:
    return json.dumps(value).encode()


def _line(record: dict) -> str:
    return json.dumps(record)


CASES = [
    (decode_assignment, _json([]), "assignment must be a JSON object"),
    (decode_result_records, b"", r"commit body must be JSONL \(one result record per line\)"),
    (decode_result_records, b"\xff", "commit body is not UTF-8"),
    (decode_result_records, b"{nope\n", "commit line 1 is not JSON"),
    (decode_result_records, b"\n[1]\n", "commit line 2 must be a JSON object"),
    (
        decode_result_records,
        _line({k: v for k, v in RECORD.items() if k != "status"}).encode(),
        r"commit line 1 is missing field\(s\): status",
    ),
    (
        decode_result_records,
        _line({**RECORD, "created_at": 1.0}).encode(),
        r"commit line 1 has unknown field\(s\): created_at",
    ),
    (decode_result_records, b"\n  \n", "commit body holds no result records"),
    (decode_predict_request, _json([]), "predict request must be a JSON object"),
    (decode_predict_request, _json({"pattern": ""}), "field 'pattern' must be a non-empty string"),
    (
        decode_predict_request,
        _json({"pattern": "j2d5pt", "dtype": "half"}),
        "field 'dtype' must be 'float' or 'double', got 'half'",
    ),
    (
        decode_predict_request,
        _json({"pattern": "j2d5pt", "gpu": 7}),
        "field 'gpu' must be a non-empty string",
    ),
    (
        decode_predict_request,
        _json({"pattern": "j2d5pt", "interior": [64, 0]}),
        "field 'interior' must be an array of 2 positive integers",
    ),
    (
        decode_predict_request,
        _json({"pattern": "j2d5pt", "gpu": "Z100"}),
        "invalid predict request: unknown GPU",
    ),
    (
        decode_predict_request,
        _json({"pattern": "j2d5pt", "bS": [32, True]}),
        "field 'bS' must be a non-empty array of positive integers",
    ),
    (
        decode_predict_request,
        _json({"pattern": "j2d5pt", "regs": "64"}),
        "field 'regs' must be an integer",
    ),
    (decode_tune_request, _json({"pattern": "j2d5pt", "top_k": 0}), "field 'top_k' must be >= 1, got 0"),
    (decode_status_query, _json([]), "status query must be a JSON object"),
    (decode_status_query, _json({"keys": [], "since": 1}), r"unknown status query field\(s\): since"),
    (decode_status_query, _json({"keys": ["a", 1]}), "status query field 'keys' must be an array of strings"),
    (decode_member, _json([]), "registration must be a JSON object"),
    (decode_member, _json({"instance_id": "w1", "host": "h"}), "registration is missing 'port'"),
    (
        decode_member,
        _json({**MEMBER, "instance_id": ""}),
        "registration field 'instance_id' must be a non-empty string",
    ),
    (decode_member, _json({**MEMBER, "host": None}), "registration field 'host' must be a non-empty string"),
    (decode_member, _json({**MEMBER, "port": "http"}), "registration field 'port' must be an integer"),
    (decode_member, _json({**MEMBER, "role": "leader"}), "unknown cluster role 'leader'"),
    (
        decode_member,
        _json({**MEMBER, "capabilities": []}),
        "registration field 'capabilities' must be a JSON object",
    ),
    (decode_instance_id, _json("w1"), "envelope must be a JSON object"),
    (decode_instance_id, _json({"instance_id": 3}), "field 'instance_id' must be a non-empty string"),
]


@pytest.mark.parametrize(
    "decode,body,message", CASES, ids=[f"{case[0].__name__}-{i}" for i, case in enumerate(CASES)]
)
def test_a_malformed_body_is_a_400_naming_the_fault(decode, body, message):
    with pytest.raises(WireError, match=message) as raised:
        decode(body)
    assert raised.value.status == 400


def test_a_well_formed_commit_batch_decodes_and_skips_blank_lines():
    records, trace = decode_result_records(f"\n{_line(RECORD)}\n\n".encode())
    assert records == [RECORD] and trace is None


def test_an_unknown_report_format_is_a_400():
    with pytest.raises(WireError, match="unknown report format 'xml'; expected json, jsonl or text") as raised:
        render_table(ResultTable("t", ("a",)).add_row(1), "xml")
    assert raised.value.status == 400

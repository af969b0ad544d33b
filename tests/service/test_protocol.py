"""The wire codec, socket-free: bytes in, requests out."""

import json

import pytest

from repro.errors import (
    ProtocolError,
    QueryError,
    RequestTimeout,
)
from repro.service.protocol import (
    MAX_BODY_BYTES,
    HttpRequest,
    content_length,
    error_body,
    json_response,
    parse_batch_payload,
    parse_head,
    request_id_path,
)


class TestParseHead:
    def test_request_line_and_headers(self):
        head = (
            b"POST /query HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 42\r\n"
            b"\r\n"
        )
        request = parse_head(head)
        assert request.method == "POST"
        assert request.path == "/query"
        assert request.headers["content-length"] == "42"

    def test_method_is_upper_cased(self):
        request = parse_head(b"get /health HTTP/1.1\r\n\r\n")
        assert request.method == "GET"

    def test_malformed_request_line_raises(self):
        with pytest.raises(ProtocolError):
            parse_head(b"NOT-HTTP\r\n\r\n")


class TestContentLength:
    def test_missing_header_means_empty_body(self):
        assert content_length(HttpRequest("GET", "/health")) == 0

    def test_non_integer_raises(self):
        request = HttpRequest(
            "POST", "/query", headers={"content-length": "lots"}
        )
        with pytest.raises(ProtocolError):
            content_length(request)

    @pytest.mark.parametrize("raw", ["-1", str(MAX_BODY_BYTES + 1)])
    def test_out_of_bounds_raises(self, raw):
        request = HttpRequest(
            "POST", "/query", headers={"content-length": raw}
        )
        with pytest.raises(ProtocolError):
            content_length(request)


class TestBodyJson:
    def test_junk_body_raises_protocol_error(self):
        request = HttpRequest("POST", "/query", body=b"{not json")
        with pytest.raises(ProtocolError):
            request.json()

    def test_valid_body_decodes(self):
        request = HttpRequest("POST", "/query", body=b'{"a": 1}')
        assert request.json() == {"a": 1}


class TestBatchPayload:
    def test_bare_array_and_wrapped_object_agree(self):
        item = {
            "clients": [
                {"id": 0, "location": [1.0, 1.0, 0], "partition": 1}
            ],
            "existing": [1],
            "candidates": [2],
        }
        bare = parse_batch_payload([item])
        wrapped = parse_batch_payload({"queries": [item]})
        assert bare == wrapped
        assert len(bare) == 1

    def test_empty_batch_raises(self):
        with pytest.raises(ProtocolError):
            parse_batch_payload([])

    def test_non_array_raises(self):
        with pytest.raises(ProtocolError):
            parse_batch_payload({"not": "queries"})


class TestErrorBody:
    def test_single_mapping_place(self):
        for exc, status in (
            (ProtocolError("bad"), 400),
            (QueryError("bad"), 400),
            (RequestTimeout("late"), 504),
            (RuntimeError("boom"), 500),
        ):
            got_status, body = error_body(exc)
            assert got_status == status
            assert body["error"] == type(exc).__name__
            assert body["status"] == status
            assert body["detail"]


class TestJsonResponse:
    def test_head_and_body_round_trip(self):
        raw = json_response(200, {"answer": 5})
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0] == "HTTP/1.1 200 OK"
        assert f"Content-Length: {len(body)}" in lines
        assert "Connection: close" in lines
        assert json.loads(body) == {"answer": 5}


class TestRequestIdPath:
    def test_extracts_trailing_id(self):
        assert request_id_path("/explain/q12", "/explain/") == "q12"

    def test_rejects_nested_and_empty(self):
        assert request_id_path("/explain/", "/explain/") is None
        assert request_id_path("/explain/a/b", "/explain/") is None
        assert request_id_path("/metrics", "/explain/") is None


class TestStreamParsers:
    def test_open_payload_defaults(self):
        from repro.service.protocol import parse_stream_open_payload

        fs, incremental, label = parse_stream_open_payload(
            {"existing": [3, 1], "candidates": [5]}
        )
        assert fs.existing == frozenset({1, 3})
        assert fs.candidates == frozenset({5})
        assert incremental is True
        assert label == ""

    def test_open_payload_flags(self):
        from repro.service.protocol import parse_stream_open_payload

        _, incremental, label = parse_stream_open_payload(
            {"candidates": [2], "incremental": False, "label": "lob"}
        )
        assert incremental is False
        assert label == "lob"

    def test_open_payload_rejects_garbage(self):
        from repro.service.protocol import parse_stream_open_payload

        with pytest.raises(ProtocolError):
            parse_stream_open_payload([1, 2])
        with pytest.raises(ProtocolError):
            parse_stream_open_payload({"existing": ["x"]})

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_open_payload_incremental_takes_json_booleans_only(
        self, value
    ):
        from repro.service.protocol import parse_stream_open_payload

        with pytest.raises(ProtocolError, match="incremental"):
            parse_stream_open_payload(
                {"candidates": [2], "incremental": value}
            )

    @pytest.mark.parametrize(
        "payload",
        [
            {"existing": "12", "candidates": "345"},
            {"candidates": {"2": 1}},
            {"candidates": [2.0]},
            {"candidates": [False]},
        ],
    )
    def test_open_payload_ids_take_integer_arrays_only(self, payload):
        from repro.service.protocol import parse_stream_open_payload

        with pytest.raises(ProtocolError, match="integers"):
            parse_stream_open_payload(payload)

    def test_events_payload_both_spellings(self):
        from repro.service.protocol import parse_events_payload

        record = {"kind": "remove", "id": 7}
        assert parse_events_payload([record])[0].client_id == 7
        assert parse_events_payload({"events": [record]})[0].kind == (
            "remove"
        )
        assert parse_events_payload([]) == []
        assert parse_events_payload({"events": []}) == []

    def test_events_payload_rejects_non_array(self):
        from repro.service.protocol import parse_events_payload

        with pytest.raises(ProtocolError):
            parse_events_payload({"not_events": []})
        with pytest.raises(ProtocolError):
            parse_events_payload("remove 7")
        with pytest.raises(ProtocolError):
            parse_events_payload([{"kind": "add", "id": 1}])

"""Tests for the line-oriented JSON wire protocol."""

import pytest

from repro.errors import (CatalogError, OverloadedError, QueryTimeout,
                          ReproError)
from repro.geometry import Polygon, Polyline, Rect
from repro.serve import (ProtocolError, decode_request, encode_line,
                         error_code_for, error_response,
                         geometry_from_json, geometry_to_json,
                         ok_response)


class TestEnvelopes:
    def test_request_roundtrip(self):
        line = encode_line({"id": 7, "op": "ping"})
        assert line.endswith(b"\n")
        assert decode_request(line) == {"id": 7, "op": "ping"}

    def test_decode_accepts_str_and_bytes(self):
        assert decode_request('{"op": "ping"}') == {"op": "ping"}
        assert decode_request(b'{"op": "ping"}') == {"op": "ping"}

    @pytest.mark.parametrize("bad", [
        "not json",
        "[1, 2]",
        '{"no": "op"}',
        '{"op": 7}',
        '{"op": ""}',
    ])
    def test_bad_requests_rejected(self, bad):
        with pytest.raises(ProtocolError):
            decode_request(bad)

    def test_non_utf8_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request(b'\xff\xfe{"op": "ping"}')

    def test_ok_response_shape(self):
        response = ok_response(3, {"count": 1}, cached=True)
        assert response == {"id": 3, "ok": True,
                            "result": {"count": 1}, "cached": True}

    def test_error_response_shape(self):
        response = error_response(None, "catalog", "no such relation")
        assert response == {"id": None, "ok": False,
                            "error": {"code": "catalog",
                                      "message": "no such relation"}}


class TestErrorCodes:
    def test_repro_errors_carry_their_code(self):
        assert error_code_for(CatalogError("x")) == "catalog"
        assert error_code_for(QueryTimeout("x")) == "timeout"
        assert error_code_for(OverloadedError("x")) == "overloaded"
        assert error_code_for(ProtocolError("x")) == "bad_request"
        assert error_code_for(ReproError("x")) == "internal"

    def test_builtin_timeout_maps_to_timeout(self):
        assert error_code_for(TimeoutError()) == "timeout"

    def test_everything_else_is_internal(self):
        assert error_code_for(RuntimeError("boom")) == "internal"


class TestGeometryCodecs:
    @pytest.mark.parametrize("geometry", [
        Rect(0.0, 1.0, 2.0, 3.0),
        Polyline([(0.0, 0.0), (5.0, 5.0), (10.0, 0.0)]),
        Polygon([(0.0, 0.0), (10.0, 0.0), (5.0, 8.0)]),
    ])
    def test_roundtrip(self, geometry):
        decoded = geometry_from_json(geometry_to_json(geometry))
        assert type(decoded) is type(geometry)
        assert decoded == geometry

    @pytest.mark.parametrize("bad", [
        "rect",
        {"kind": "rect", "coords": [1, 2, 3]},
        {"kind": "rect", "coords": [1, 2, 3, True]},
        {"kind": "polyline", "coords": [[1, 2], [3]]},
        {"kind": "circle", "coords": [0, 0, 1]},
        {"coords": [0, 0, 1, 1]},
        {"kind": "rect", "coords": [5, 0, 1, 1]},
        {"kind": "rect", "coords": [0, 0, float("nan"), 1]},
        {"kind": "polyline", "coords": [[1, 2], ["3", 4]]},
        {"kind": "polygon", "coords": [[0, 0], [None, 1], [2, 0]]},
        {"kind": "polyline", "coords": [[1, 2], [True, 4]]},
        {"kind": "polyline", "coords": [[1, 2], [float("inf"), 4]]},
    ])
    def test_bad_geometry_rejected(self, bad):
        with pytest.raises(ProtocolError):
            geometry_from_json(bad)

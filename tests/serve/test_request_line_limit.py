"""A request line longer than ``MAX_REQUEST_LINE`` is refused, not
buffered.

The server answers the first ``MAX_REQUEST_LINE`` bytes of such a line
with one ``bad_request`` error (without waiting for its newline),
discards the rest in bounded chunks, and keeps serving the connection
in request order.  Other connections never notice.
"""

import json
import socket

import pytest

from repro.db import SpatialDatabase
from repro.geometry import Rect
from repro.serve import QueryService, SpatialQueryServer
from repro.serve.server import MAX_REQUEST_LINE


@pytest.fixture
def address():
    db = SpatialDatabase(page_size=1024)
    db.create_relation("streets").insert(Rect(0, 0, 1, 1))
    server = SpatialQueryServer(QueryService(db, workers=2), port=0)
    yield server.start()
    server.shutdown()


def _ping(request_id):
    return json.dumps({"id": request_id, "op": "ping"}).encode() + b"\n"


def test_overlong_line_gets_one_error_and_the_connection_goes_on(address):
    with socket.create_connection(address, timeout=20) as sock, \
            sock.makefile("rb") as rfile:
        sock.sendall(b"x" * (MAX_REQUEST_LINE + 1000))
        # Answered before the line ends: the server holds no more of it
        # than the limit.
        error = json.loads(rfile.readline())
        assert error["ok"] is False
        assert error["id"] is None
        assert error["error"]["code"] == "bad_request"

        # A second client is served while the first line is still open.
        with socket.create_connection(address, timeout=20) as other, \
                other.makefile("rb") as other_rfile:
            other.sendall(_ping(7))
            response = json.loads(other_rfile.readline())
            assert response["id"] == 7 and response["result"] == "pong"

        sock.sendall(b"y" * (3 * MAX_REQUEST_LINE) + b"\n" + _ping(2))
        assert json.loads(rfile.readline())["id"] == 2
        # Exactly one error: the next answer is the next request's.
        sock.sendall(_ping(3))
        response = json.loads(rfile.readline())
        assert response["id"] == 3 and response["result"] == "pong"


def test_line_at_the_limit_is_served(address):
    body = _ping(5)[:-1]
    line = body + b" " * (MAX_REQUEST_LINE - len(body) - 1) + b"\n"
    assert len(line) == MAX_REQUEST_LINE
    with socket.create_connection(address, timeout=20) as sock, \
            sock.makefile("rb") as rfile:
        sock.sendall(line)
        response = json.loads(rfile.readline())
    assert response["id"] == 5 and response["result"] == "pong"

"""The TCP front end and the two clients.

:class:`SpatialQueryServer` wraps a :class:`~repro.serve.pipeline.
RequestPipeline` (a :class:`~repro.serve.service.QueryService` or a
:class:`~repro.shard.router.ShardRouter`) in a threading TCP server
speaking the line-oriented JSON protocol of
:mod:`repro.serve.protocol`: one connection thread per client, one
request line in, one response line out, pipelining allowed (responses
come back in request order per connection).

Two clients cover the two deployment shapes:

* :class:`ServiceClient` — in-process, no socket: calls the service
  directly.  The default for tests, benchmarks, and embedding the
  service inside another Python process.
* :class:`TCPServiceClient` — a real socket client; what ``repro
  query --connect`` uses.
"""

from __future__ import annotations

import socket
import socketserver
import threading
from typing import Any, Dict, Optional, Tuple

from .protocol import (ProtocolError, decode_request, encode_request,
                       encode_response, error_response)
from .pipeline import RequestPipeline

#: Longest request line the server reads, newline included (bytes).
#: A longer line is answered with one ``bad_request`` error and the
#: rest of it is discarded, so one connection buffers at most this much
#: however long a client goes without sending ``\n``.
MAX_REQUEST_LINE = 4 << 20


class _ConnectionHandler(socketserver.StreamRequestHandler):
    """One client connection: a loop of request/response lines."""

    def handle(self) -> None:
        service: RequestPipeline = self.server.service  # type: ignore
        while True:
            try:
                line = self.rfile.readline(MAX_REQUEST_LINE)
            except (ConnectionResetError, OSError):
                return          # client vanished mid-line
            if not line:
                return
            overlong = (len(line) == MAX_REQUEST_LINE
                        and not line.endswith(b"\n"))
            if not (overlong or line.strip()):
                continue
            try:
                if overlong:
                    raise ProtocolError(
                        f"request line longer than {MAX_REQUEST_LINE} bytes")
                request = decode_request(line)
            except ProtocolError as exc:
                response = error_response(None, exc.code, str(exc))
            else:
                response = service.handle(request)
            try:
                self.wfile.write(encode_response(response))
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                return
            while overlong:     # drop the rest of the line, chunk by chunk
                try:
                    line = self.rfile.readline(MAX_REQUEST_LINE)
                except OSError:
                    return
                overlong = bool(line) and not line.endswith(b"\n")


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class SpatialQueryServer:
    """A listening TCP server over one :class:`RequestPipeline`."""

    def __init__(self, service: RequestPipeline, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self._tcp = _ThreadingTCPServer((host, port), _ConnectionHandler)
        self._tcp.service = service  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — with ``port=0`` the kernel picks."""
        return self._tcp.server_address[:2]

    def start(self) -> Tuple[str, int]:
        """Serve in a background thread; returns the bound address."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._tcp.serve_forever,
            name="serve-acceptor", daemon=True)
        self._thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's mode)."""
        self._tcp.serve_forever()

    def shutdown(self) -> None:
        """Stop accepting, drain workers, release the socket."""
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.service.close()

    def __enter__(self) -> "SpatialQueryServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


class ServiceClient:
    """In-process client: the protocol without the socket."""

    def __init__(self, service: RequestPipeline) -> None:
        self.service = service
        self._next_id = 0

    def request(self, op: str, **params: Any) -> Dict[str, Any]:
        """One round trip; returns the full response envelope."""
        self._next_id += 1
        return self.service.handle({"id": self._next_id, "op": op,
                                    **params})

    # Convenience wrappers returning the result payload (raising the
    # mapped error text on failure keeps test call sites short).

    def call(self, op: str, **params: Any) -> Any:
        response = self.request(op, **params)
        if not response["ok"]:
            error = response["error"]
            raise RuntimeError(f"{error['code']}: {error['message']}")
        return response["result"]

    def join(self, left: str, right: str, **params: Any) -> Any:
        return self.call("join", left=left, right=right, **params)

    def window(self, relation: str, window, **params: Any) -> Any:
        return self.call("window", relation=relation,
                         window=list(window), **params)

    def knn(self, relation: str, x: float, y: float,
            k: int = 1) -> Any:
        return self.call("knn", relation=relation, x=x, y=y, k=k)

    def insert(self, relation: str, geometry: Dict[str, Any],
               oid: Optional[int] = None) -> Any:
        params: Dict[str, Any] = {"relation": relation,
                                  "geometry": geometry}
        if oid is not None:
            params["oid"] = oid
        return self.call("insert", **params)

    def delete(self, relation: str, oid: int) -> Any:
        return self.call("delete", relation=relation, oid=oid)


class TCPServiceClient:
    """Blocking socket client for the line protocol.

    Supports pipelining: :meth:`send` queues a request without reading
    the response; :meth:`recv` reads the next response line.
    :meth:`request` is the simple send-then-recv round trip.
    """

    def __init__(self, host: str, port: int,
                 timeout: Optional[float] = 30.0) -> None:
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._rfile = self._sock.makefile("rb")
        self._next_id = 0

    def send(self, op: str, **params: Any) -> int:
        """Fire one request; returns the request id."""
        self._next_id += 1
        line = encode_request({"id": self._next_id, "op": op, **params})
        self._sock.sendall(line)
        return self._next_id

    def recv(self) -> Dict[str, Any]:
        """Read the next response line."""
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_response(line)

    def request(self, op: str, **params: Any) -> Dict[str, Any]:
        self.send(op, **params)
        return self.recv()

    def call(self, op: str, **params: Any) -> Any:
        response = self.request(op, **params)
        if not response.get("ok"):
            error = response.get("error", {})
            raise RuntimeError(f"{error.get('code', 'internal')}: "
                               f"{error.get('message', '')}")
        return response["result"]

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "TCPServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def decode_response(line: bytes) -> Dict[str, Any]:
    """Parse one response line (shared by the TCP client and the CLI)."""
    import json
    response = json.loads(line.decode("utf-8"))
    if not isinstance(response, dict):
        raise ProtocolError("response must be a JSON object")
    return response

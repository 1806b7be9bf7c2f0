"""Framed request/response prediction service.

Wire protocol, version 1: each message is a 4-byte big-endian length prefix
followed by that many bytes of UTF-8 JSON. One request, one response.

Request fields:
    request_id  string, echoed back
    vector      raw encoded state: 210 floats in [0, 1]; or instead
    state       structured macro state (see _state_from_json for the schema)
    policy      optional overrides: mode / blind / exclusions (names) / seed

Response fields:
    request_id, build {name, index}, distribution {name: probability},
    model_version, latency_micros
Errors come back as {request_id, error: {kind, message}} and leave the
connection usable. A reply that would exceed MAX_MESSAGE_BYTES (a long
request_id is echoed back, and json spells each non-ASCII character as an
escape of up to 12 bytes) is replaced by a bad-request error whose
request_id is empty.

One selectors loop on one thread serves every connection, up to
MAX_CONNECTIONS, and does not read a connection while a reply to it waits to
be sent. The model is immutable; each connection's rng stream is seeded from
(server seed, accept order) so sampled decisions are reproducible from logs.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import selectors
import socket
import struct
import threading
import time

import numpy as np

from .catalog import BuildCatalog
from .encoding import N_FEATURES, NormalizationTable, encode
from .errors import ClientTimeout, DegenerateDistributionError, ProtocolError
from .forward import MacroState
from .net import Network, check_compatibility
from .policy import DecisionPolicy, Mode, decide_from_vector

MAX_MESSAGE_BYTES = 1 << 20
DEFAULT_TIMEOUT = 0.1
# Open connections per server. The listen backlog is the same, so a burst of
# that many connects is queued whole instead of waiting on SYN retransmits.
MAX_CONNECTIONS = 64
_RECV_BYTES = 1 << 16
# Kernel send buffer per connection (Linux reports and uses twice this). Fixed
# rather than autotuned, so a client that does not read its replies has at
# most this much sent to it before the server stops reading its requests.
SEND_BUFFER_BYTES = 1 << 16


def write_frame(stream, payload: bytes) -> None:
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message of {len(payload)} bytes exceeds the frame limit")
    stream.write(struct.pack(">I", len(payload)))
    stream.write(payload)
    stream.flush()


def _frame_length(header) -> int:
    (length,) = struct.unpack_from(">I", header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the frame limit")
    return length


def read_frame(stream) -> bytes | None:
    """One framed payload, or None on clean end-of-stream. A stream that
    ends mid-frame is a protocol error."""
    header = stream.read(4)
    if header == b"":
        return None
    if len(header) < 4:
        raise ProtocolError("stream ended inside a frame header")
    length = _frame_length(header)
    payload = stream.read(length)
    if len(payload) < length:
        raise ProtocolError("stream ended inside a frame body")
    return payload


class _RequestError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _policy_from_json(base: DecisionPolicy, spec, catalog: BuildCatalog) -> DecisionPolicy:
    if spec is None:
        return base
    if not isinstance(spec, dict):
        raise _RequestError("bad-request", "policy must be an object")
    mode = base.mode
    if "mode" in spec:
        try:
            mode = Mode(spec["mode"])
        except ValueError:
            raise _RequestError("bad-request", f"unknown policy mode {spec['mode']!r}")
    blind = spec.get("blind", base.blind)
    if not isinstance(blind, bool):
        raise _RequestError("bad-request", "policy blind must be true or false")
    exclusions = base.exclusions
    if "exclusions" in spec:
        names = spec["exclusions"]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise _RequestError("bad-request", "exclusions must be a list of names")
        try:
            exclusions = frozenset(catalog.build_id(n) for n in names)
        except KeyError as e:
            raise _RequestError("bad-request", str(e))
    seed = spec.get("seed", base.seed)
    if not _is_count(seed):
        raise _RequestError("bad-request", "policy seed must be a non-negative integer")
    return DecisionPolicy(mode=mode, blind=blind, exclusions=exclusions, seed=seed)


def _is_count(value) -> bool:
    """A non-negative JSON integer that fits a state's int64 arrays; true and
    false do not count as integers."""
    return type(value) is int and 0 <= value < 2**63


def _counts_from_json(obj, size: int, lookup, what: str) -> np.ndarray:
    counts = np.zeros(size, dtype=np.int64)
    if obj is None:
        return counts
    if not isinstance(obj, dict):
        raise _RequestError("invalid-state", f"{what} must be a name->count object")
    for name, count in obj.items():
        try:
            idx = lookup(name)
        except KeyError:
            raise _RequestError("invalid-state", f"unknown {what} name {name!r}")
        if not _is_count(count):
            raise _RequestError(
                "invalid-state", f"{what} count for {name!r} must be a non-negative integer"
            )
        counts[idx] = count
    return counts


def _state_from_json(obj, catalog: BuildCatalog) -> MacroState:
    """Schema: {frame, own: {build: count}, production: [{name, done_at}],
    enemy: {type: count}, supply_used, supply_max}. Missing sections default
    to empty."""
    if not isinstance(obj, dict):
        raise _RequestError("invalid-state", "state must be an object")
    frame = obj.get("frame", 0)
    supply_used = obj.get("supply_used", 0)
    supply_max = obj.get("supply_max", 0)
    for label, value in (("frame", frame), ("supply_used", supply_used), ("supply_max", supply_max)):
        if not _is_count(value):
            raise _RequestError("invalid-state", f"{label} must be a non-negative integer")
    own = _counts_from_json(obj.get("own"), len(catalog.builds), catalog.build_id, "build")
    enemy = _counts_from_json(
        obj.get("enemy"), len(catalog.enemy_types), catalog.enemy_id, "enemy"
    )
    entries = obj.get("production", [])
    if not isinstance(entries, list):
        raise _RequestError("invalid-state", "production must be a list")
    production = []
    for entry in entries:
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str) or "done_at" not in entry:
            raise _RequestError(
                "invalid-state", "production entries need name and done_at"
            )
        try:
            build_id = catalog.build_id(name)
        except KeyError as e:
            raise _RequestError("invalid-state", str(e))
        done_at = entry["done_at"]
        if not _is_count(done_at):
            raise _RequestError("invalid-state", "done_at must be a non-negative integer")
        production.append((build_id, done_at))
    return MacroState(
        frame=frame,
        own_count=own,
        enemy_count=enemy,
        production=tuple(production),
        supply_used=supply_used,
        supply_max=supply_max,
    )


def _vector_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != N_FEATURES:
        got = len(obj) if isinstance(obj, list) else type(obj).__name__
        raise _RequestError(
            "bad-request", f"vector must be a list of {N_FEATURES} numbers, got {got}"
        )
    if not set(map(type, obj)) <= {float, int}:
        raise _RequestError("bad-request", "vector entries must be numbers")
    try:
        vec = np.asarray(obj, dtype=np.float64)
    except OverflowError:
        raise _RequestError("bad-request", "vector values must lie in [0, 1]")
    # False for NaN and for either infinity as well.
    if not (vec.min() >= 0.0 and vec.max() <= 1.0):
        raise _RequestError("bad-request", "vector values must lie in [0, 1]")
    return vec


def _error_reply(request_id: str, kind: str, message: str) -> bytes:
    body = {"request_id": request_id, "error": {"kind": kind, "message": message}}
    return json.dumps(body).encode("utf-8")


class PredictionServer:
    """Serves one immutable model over the framed protocol."""

    def __init__(
        self,
        net: Network,
        catalog: BuildCatalog,
        norms: NormalizationTable,
        policy: DecisionPolicy = DecisionPolicy(),
        address: tuple[str, int] = ("127.0.0.1", 0),
        seed: int = 0,
    ):
        check_compatibility(net, catalog.content_hash(), norms.content_hash())
        self.net = net
        self.catalog = catalog
        self.norms = norms
        self.policy = policy
        self.seed = seed
        self.model_version = net.model_version()
        # The reply's fixed JSON: each build's name, the model version.
        self._names_json = [json.dumps(spec.name) for spec in catalog.builds]
        self._distribution_template = ", ".join(
            name.replace("%", "%%") + ": %r" for name in self._names_json
        )
        self._version_json = json.dumps(self.model_version)
        self.socket = socket.create_server(address, backlog=MAX_CONNECTIONS)
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self._wake_r, self._wake_w = socket.socketpair()
        self._sel = selectors.DefaultSelector()
        self._sel.register(self.socket, selectors.EVENT_READ)
        self._sel.register(self._wake_r, selectors.EVENT_READ)
        self._thread: threading.Thread | None = None

    def answer(self, payload: bytes, rng: np.random.Generator) -> bytes:
        """One response frame for one request frame, within the frame limit;
        never raises on bad input, so one malformed request cannot kill a
        connection. Its latency_micros runs from here to the decision:
        decoding included, the reply's own serialization not."""
        started = time.perf_counter_ns()
        request_id = ""
        try:
            try:
                request = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as e:
                raise _RequestError("bad-json", str(e))
            if not isinstance(request, dict):
                raise _RequestError("bad-request", "request must be an object")
            request_id = str(request.get("request_id", ""))
            has_vector = "vector" in request
            has_state = "state" in request
            if has_vector == has_state:
                raise _RequestError(
                    "bad-request", "request needs exactly one of vector or state"
                )
            if has_vector:
                vec = _vector_from_json(request["vector"])
            else:
                state = _state_from_json(request["state"], self.catalog)
                vec = encode(state, self.catalog, self.norms)
            spec = request.get("policy")
            policy = _policy_from_json(self.policy, spec, self.catalog)
            if spec and "seed" in spec:
                rng = np.random.default_rng([self.seed, policy.seed])
            try:
                index, dist = decide_from_vector(self.net, vec, policy, rng)
            except DegenerateDistributionError as e:
                raise _RequestError("degenerate-distribution", str(e))
            latency = (time.perf_counter_ns() - started) // 1000
            reply = self._reply(request_id, index, dist, latency)
        except _RequestError as e:
            reply = _error_reply(request_id, e.kind, str(e))
        except Exception as e:  # pragma: no cover - defensive
            reply = _error_reply(request_id, "internal", f"{type(e).__name__}: {e}")
        if len(reply) > MAX_MESSAGE_BYTES:
            reply = _error_reply(
                "", "bad-request", f"reply of {len(reply)} bytes exceeds the frame limit"
            )
        return reply

    def _reply(self, request_id: str, index: int, dist: np.ndarray, latency: int) -> bytes:
        """json.dumps of a decision's reply body, joined from the text encoded
        at start-up and each probability's repr, as json spells a finite
        float. The distribution fills one %r template of the keys, built at
        start-up. Its probabilities are finite: net.forward refuses an output
        that is not, and exclusions rescale by at most 1e12."""
        distribution = self._distribution_template % tuple(dist.tolist())
        return (
            f'{{"request_id": {json.dumps(request_id)}, '
            f'"build": {{"name": {self._names_json[index]}, "index": {index}}}, '
            f'"distribution": {{{distribution}}}, '
            f'"model_version": {self._version_json}, "latency_micros": {latency}}}'
        ).encode("utf-8")

    def _serve_forever(self) -> None:
        accepted = itertools.count()
        while True:
            for key, _ in self._sel.select():
                if key.fileobj is self._wake_r:
                    return
                if key.fileobj is self.socket:
                    self._accept(accepted)
                else:
                    self._serve(key)

    def _accept(self, accepted: itertools.count) -> None:
        try:
            sock, _ = self.socket.accept()
        except OSError:  # the client reset before the accept
            return
        if len(self._sel.get_map()) - 2 >= MAX_CONNECTIONS:  # less listener and wake socket
            sock.close()
            return
        sock.setblocking(False)
        # Nagle + delayed ACK stalls the client's two-write frame pattern by ~40ms
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, SEND_BUFFER_BYTES)
        # Per connection: rng stream, bytes not yet answered, reply bytes not yet sent
        rng = np.random.default_rng([self.seed, next(accepted)])
        self._sel.register(sock, selectors.EVENT_READ, (rng, bytearray(), bytearray()))

    def _serve(self, key: selectors.SelectorKey) -> None:
        """Send or receive what one ready connection allows, then answer its
        whole frames while no reply waits to be sent: a client that does not
        read its replies is not read either."""
        sock, (rng, inbox, outbox) = key.fileobj, key.data
        try:
            if outbox:
                del outbox[: sock.send(outbox)]
            else:
                data = sock.recv(_RECV_BYTES)
                if not data:
                    raise ConnectionError("the client closed the connection")
                inbox += data
            while not outbox and len(inbox) >= 4:
                length = _frame_length(inbox)
                if len(inbox) < 4 + length:
                    break
                reply = self.answer(bytes(inbox[4 : 4 + length]), rng)
                del inbox[: 4 + length]
                outbox += struct.pack(">I", len(reply)) + reply
                del outbox[: sock.send(outbox)]
        except BlockingIOError:
            pass
        except (OSError, ProtocolError):
            self._sel.unregister(sock)
            sock.close()
            return
        events = selectors.EVENT_WRITE if outbox else selectors.EVENT_READ
        if events != key.events:
            self._sel.modify(sock, events, key.data)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Serve on a background thread until stop()."""
        self._thread = threading.Thread(target=self._serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Graceful shutdown: the reply being computed is still sent, then
        the server stops accepting and closes every connection."""
        if self._thread is not None:
            self._wake_w.send(b"\0")
            self._thread.join()
            self._thread = None
        self.server_close()

    def server_close(self) -> None:
        """Close the listener and every connection, also of a server never started."""
        for key in (self._sel.get_map() or {}).values():
            key.fileobj.close()
        self._sel.close()
        self._wake_w.close()

    def __enter__(self) -> "PredictionServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class PredictionClient:
    """Reference client holding one persistent connection."""

    def __init__(self, address: tuple[str, int], timeout: float = DEFAULT_TIMEOUT):
        self.timeout = timeout
        try:
            self._sock = socket.create_connection(address, timeout=timeout)
        except socket.timeout as e:
            raise ClientTimeout(f"connect to {address} timed out") from e
        self._sock.settimeout(timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = self._sock.makefile("rwb")
        self._timed_out = False

    def predict(self, request: dict) -> dict:
        """One request, one response. After a timeout the connection is
        closed (a late reply would answer the wrong request), and every
        later call raises ProtocolError."""
        if self._timed_out:
            raise ProtocolError("connection closed after a timeout")
        try:
            write_frame(self._stream, json.dumps(request).encode("utf-8"))
            payload = read_frame(self._stream)
        except socket.timeout as e:
            self._timed_out = True
            with contextlib.suppress(OSError):
                self.close()
            raise ClientTimeout(f"no response within {self.timeout}s") from e
        if payload is None:
            raise ProtocolError("server closed the connection")
        try:
            response = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ProtocolError(f"malformed response: {e}") from e
        if not isinstance(response, dict):
            raise ProtocolError("response is not an object")
        return response

    def close(self) -> None:
        try:
            self._stream.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "PredictionClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def client_predict(
    address: tuple[str, int], request: dict, timeout: float = DEFAULT_TIMEOUT
) -> dict:
    """One-shot convenience wrapper: connect, ask, disconnect."""
    try:
        with PredictionClient(address, timeout=timeout) as client:
            return client.predict(request)
    except OSError as e:
        raise ProtocolError(f"connection to {address} failed: {e}") from e

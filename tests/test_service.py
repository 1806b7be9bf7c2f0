import io
import json
import select
import socket
import struct
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macronet import service
from macronet.encoding import encode
from macronet.errors import (
    ClientTimeout,
    CompatibilityError,
    ProtocolError,
)
from macronet.forward import initial_state
from macronet.net import ModelMeta, NetworkTopology, init_network
from macronet.policy import DecisionPolicy, Mode
from macronet.service import (
    DEFAULT_TIMEOUT,
    MAX_MESSAGE_BYTES,
    PredictionClient,
    PredictionServer,
    client_predict,
    read_frame,
    write_frame,
)


@pytest.fixture(scope="module")
def service_net(catalog, norms):
    meta = ModelMeta(
        catalog_hash=catalog.content_hash(), norms_hash=norms.content_hash()
    )
    return init_network(seed=8, meta=meta)


@pytest.fixture()
def server(service_net, catalog, norms):
    with PredictionServer(service_net, catalog, norms, seed=0) as srv:
        yield srv


def initial_vector(catalog, norms):
    return encode(initial_state(catalog), catalog, norms).tolist()


# -- framing ----------------------------------------------------------------


def test_frame_round_trip():
    buf = io.BytesIO()
    write_frame(buf, b"hello")
    write_frame(buf, b"")
    buf.seek(0)
    assert read_frame(buf) == b"hello"
    assert read_frame(buf) == b""
    assert read_frame(buf) is None  # clean EOF


def test_frame_uses_big_endian_length_prefix():
    buf = io.BytesIO()
    write_frame(buf, b"abc")
    assert buf.getvalue()[:4] == struct.pack(">I", 3)


def test_read_frame_detects_truncation():
    buf = io.BytesIO()
    write_frame(buf, b"hello world")
    data = buf.getvalue()
    with pytest.raises(ProtocolError):
        read_frame(io.BytesIO(data[:7]))  # length says 11, body is 3
    with pytest.raises(ProtocolError):
        read_frame(io.BytesIO(data[:2]))  # header itself cut short


def test_write_frame_rejects_oversize():
    with pytest.raises(ProtocolError):
        write_frame(io.BytesIO(), b"x" * (MAX_MESSAGE_BYTES + 1))


def test_read_frame_rejects_oversize_header():
    buf = io.BytesIO(struct.pack(">I", MAX_MESSAGE_BYTES + 1) + b"x")
    with pytest.raises(ProtocolError):
        read_frame(buf)


# -- request/response ----------------------------------------------------------


def test_predict_echoes_request_id(server, catalog, norms):
    request = {"request_id": "req-42", "vector": initial_vector(catalog, norms)}
    response = client_predict(server.server_address, request)
    assert response["request_id"] == "req-42"
    assert "error" not in response
    assert response["model_version"] == server.model_version
    assert response["latency_micros"] >= 0
    build = response["build"]
    assert catalog.build_id(build["name"]) == build["index"]
    dist = response["distribution"]
    assert len(dist) == 58
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-6)
    assert dist[build["name"]] == max(dist.values())  # greedy default


def test_vector_and_state_agree(server, catalog, norms):
    state_request = {
        "request_id": "s",
        "state": {
            "frame": 0,
            "own": {"probe": 4, "nexus": 1},
            "supply_used": 8,
            "supply_max": 18,
        },
    }
    vector_request = {"request_id": "v", "vector": initial_vector(catalog, norms)}
    with PredictionClient(server.server_address) as client:
        from_state = client.predict(state_request)
        from_vector = client.predict(vector_request)
    assert from_state["build"] == from_vector["build"]
    assert from_state["distribution"] == from_vector["distribution"]


def test_state_with_production_accepted(server):
    request = {
        "state": {
            "frame": 300,
            "own": {"probe": 5, "nexus": 1},
            "production": [{"name": "pylon", "done_at": 550}],
            "enemy": {"marine": 2},
            "supply_used": 10,
            "supply_max": 18,
        }
    }
    response = client_predict(server.server_address, request)
    assert "error" not in response


def test_policy_override_probabilistic_seed_reproducible(server, catalog, norms):
    request = {
        "vector": initial_vector(catalog, norms),
        "policy": {"mode": "probabilistic", "seed": 5},
    }
    a = client_predict(server.server_address, request)
    b = client_predict(server.server_address, request)
    assert a["build"] == b["build"]


def test_policy_exclusions_by_name(server, catalog, norms):
    free = client_predict(
        server.server_address, {"vector": initial_vector(catalog, norms)}
    )
    name = free["build"]["name"]
    excluded = client_predict(
        server.server_address,
        {
            "vector": initial_vector(catalog, norms),
            "policy": {"exclusions": [name]},
        },
    )
    assert excluded["build"]["name"] != name
    assert excluded["distribution"][name] == 0.0


def test_two_servers_same_model_agree(service_net, catalog, norms):
    request_fn = lambda srv: client_predict(
        srv.server_address, {"vector": initial_vector(catalog, norms)}
    )
    with PredictionServer(service_net, catalog, norms) as one:
        first = request_fn(one)
    with PredictionServer(service_net, catalog, norms) as two:
        second = request_fn(two)
    assert first["build"] == second["build"]
    assert first["model_version"] == second["model_version"]


# -- error handling ---------------------------------------------------------------


def test_bad_json_keeps_connection_usable(server, catalog, norms):
    with PredictionClient(server.server_address, timeout=1.0) as client:
        write_frame(client._stream, b"{not json")
        payload = read_frame(client._stream)
        error = json.loads(payload)["error"]
        assert error["kind"] == "bad-json"
        # same connection still answers real requests
        response = client.predict({"vector": initial_vector(catalog, norms)})
        assert "error" not in response


@pytest.mark.parametrize(
    "request_body,kind",
    [
        ({"request_id": "x"}, "bad-request"),  # neither vector nor state
        ({"vector": [0.0] * 58, "request_id": "x"}, "bad-request"),
        ({"vector": [2.0] * 210}, "bad-request"),  # out of range
        ({"vector": "nope"}, "bad-request"),
        ({"state": {"own": {"marauder": 1}}}, "invalid-state"),
        ({"state": {"frame": -1}}, "invalid-state"),
        ({"state": {"production": [{"name": "pylon"}]}}, "invalid-state"),
        ({"state": {}, "vector": [0.0] * 210}, "bad-request"),  # both
        ({"vector": [0.1] * 210, "policy": {"mode": "eager"}}, "bad-request"),
        ({"vector": [0.1] * 210, "policy": {"seed": -3}}, "bad-request"),
        (
            {"vector": [0.1] * 210, "policy": {"exclusions": ["marauder"]}},
            "bad-request",
        ),
        ({"vector": [[0.1]] * 210}, "bad-request"),
        ({"vector": ["0.5"] * 210}, "bad-request"),
        ({"state": {"production": 5}}, "invalid-state"),
        ({"vector": [0.1] * 210, "policy": {"exclusions": [[1]]}}, "bad-request"),
        ({"state": {"own": {"probe": 2**70}}}, "invalid-state"),
        ({"vector": [0.1] * 210, "policy": {"blind": "false"}}, "bad-request"),
        ({"state": {"frame": True}}, "invalid-state"),
    ],
)
def test_invalid_requests_get_error_responses(server, request_body, kind):
    response = client_predict(server.server_address, request_body, timeout=1.0)
    assert response["error"]["kind"] == kind
    assert response["request_id"] == str(request_body.get("request_id", ""))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


def _object(**fields):
    """Arbitrary JSON, or an object with any subset of the given fields."""
    return _JSON | st.fixed_dictionaries({}, optional=fields)


def _names(*names):
    return _JSON | st.dictionaries(st.sampled_from(names), _JSON, max_size=3)


_VECTORS = _JSON | st.just([0.5] * 210) | st.lists(_JSON, min_size=210, max_size=210)
_STATES = _object(
    frame=_JSON,
    own=_names("probe", "pylon"),
    enemy=_names("marine"),
    production=_JSON
    | st.lists(_object(name=_JSON | st.just("pylon"), done_at=_JSON), max_size=3),
    supply_used=_JSON,
    supply_max=_JSON,
)
_POLICIES = _object(
    mode=_JSON | st.sampled_from(["greedy", "probabilistic", "random"]),
    blind=_JSON,
    exclusions=_JSON | st.lists(_JSON | st.just("probe"), max_size=3),
    seed=_JSON,
)


@pytest.fixture(scope="module")
def unstarted_server(service_net, catalog, norms):
    srv = PredictionServer(service_net, catalog, norms)
    yield srv
    srv.server_close()


@settings(max_examples=300, deadline=None)
@given(
    body=st.fixed_dictionaries({"vector": _VECTORS})
    | st.fixed_dictionaries({"state": _STATES}),
    policy=st.none() | _POLICIES,
)
@example(body={"state": {"production": 5}}, policy=None)
@example(body={"vector": [0.5] * 210}, policy={"exclusions": [[1]]})
def test_arbitrary_json_never_gets_an_internal_error(unstarted_server, body, policy):
    request = body if policy is None else {**body, "policy": policy}
    payload = json.dumps(request).encode("utf-8")
    reply = unstarted_server.answer(payload, np.random.default_rng(0))
    error = json.loads(reply).get("error")
    assert error is None or error["kind"] != "internal", error


@settings(max_examples=300, deadline=None)
@given(
    probs=st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=58, max_size=58
    ),
    request_id=st.text(),
    index=st.integers(0, 57),
    latency=st.integers(0, 2**63),
)
@example(probs=[1e308, 1e308, -1e308, -0.0] + [1e-300] * 54,
         request_id='"\u2028\\', index=0, latency=0)
@example(probs=[0.0, 1.0, 5e-324] + [2.0**-60] * 55, request_id="", index=2, latency=0)
def test_reply_bytes_equal_json_dumps(unstarted_server, catalog, probs, request_id, index, latency):
    """The reply joined from precomputed text is, byte for byte, json.dumps
    of the reply body as a dict, for any finite probabilities: net.forward
    refuses an output that is not finite, so no other reaches the reply."""
    body = {
        "request_id": request_id,
        "build": {"name": catalog.build(index).name, "index": index},
        "distribution": {spec.name: p for spec, p in zip(catalog.builds, probs)},
        "model_version": unstarted_server.model_version,
        "latency_micros": latency,
    }
    reply = unstarted_server._reply(request_id, index, np.array(probs), latency)
    assert reply == json.dumps(body).encode("utf-8")


def _vector_with(literal: str):
    """A 210-value vector request's list, as json.loads reads it, holding
    the given JSON number text at its first and last places."""
    values = [literal] + ["0.5"] * 208 + [literal]
    return json.loads("[" + ", ".join(values) + "]")


_OUT_OF_RANGE = "vector values must lie in [0, 1]"


@pytest.mark.parametrize(
    "literal,message",
    [
        ("NaN", _OUT_OF_RANGE),
        ("Infinity", _OUT_OF_RANGE),
        ("-Infinity", _OUT_OF_RANGE),
        ("1.0000000000000002", _OUT_OF_RANGE),
        ("-1e-300", _OUT_OF_RANGE),
        ("1e400", _OUT_OF_RANGE),  # read as inf
        (str(2**1100), _OUT_OF_RANGE),  # an integer past float range
        ("true", "vector entries must be numbers"),
    ],
)
def test_vector_values_outside_the_unit_interval_are_rejected(literal, message):
    with pytest.raises(service._RequestError) as caught:
        service._vector_from_json(_vector_with(literal))
    assert (caught.value.kind, str(caught.value)) == ("bad-request", message)


@pytest.mark.parametrize("literal", ["0", "1", "-0.0"])
def test_vector_values_at_the_unit_interval_bounds_are_accepted(literal):
    vec = service._vector_from_json(_vector_with(literal))
    assert vec.dtype == np.float64
    assert vec[0] == vec[-1] == float(literal)


def test_latency_covers_decoding(unstarted_server, catalog, norms, monkeypatch):
    """latency_micros starts before the request is decoded."""

    def slow_loads(text):
        time.sleep(0.005)
        return json.loads(text)

    slow_json = SimpleNamespace(
        loads=slow_loads, dumps=json.dumps, JSONDecodeError=json.JSONDecodeError
    )
    monkeypatch.setattr(service, "json", slow_json)
    payload = json.dumps({"vector": initial_vector(catalog, norms)}).encode("utf-8")
    reply = json.loads(unstarted_server.answer(payload, np.random.default_rng(0)))
    assert "error" not in reply
    assert reply["latency_micros"] >= 5000


def test_degenerate_exclusions_reported(server, catalog, norms):
    names = [spec.name for spec in catalog.builds]
    response = client_predict(
        server.server_address,
        {
            "vector": initial_vector(catalog, norms),
            "policy": {"exclusions": names},
        },
        timeout=1.0,
    )
    assert response["error"]["kind"] == "degenerate-distribution"


def test_a_nan_distribution_is_refused_not_sampled(service_net, catalog, norms):
    """A network whose outputs are NaN gives a distribution with a NaN
    total, which a probabilistic request refuses instead of drawing from."""
    nan_net = replace(service_net, params=np.full_like(service_net.params, np.nan))
    with PredictionServer(nan_net, catalog, norms, seed=0) as srv:
        response = client_predict(
            srv.server_address,
            {"vector": initial_vector(catalog, norms), "policy": {"mode": "probabilistic"}},
            timeout=1.0,
        )
    assert response["error"]["kind"] == "degenerate-distribution"
    assert "not finite" in response["error"]["message"]


def _strict_json(payload: bytes):
    """json.loads that refuses NaN, Infinity and -Infinity, which JSON lacks."""

    def refuse(literal):
        raise ValueError(f"{literal} is not JSON")

    return json.loads(payload, parse_constant=refuse)


@pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
)
def test_an_overflowing_model_is_refused_in_every_mode_that_reads_it(
    overflowing_model, catalog, norms
):
    """A model with finite parameters whose output overflows to NaN: each
    request that reads the network gets degenerate-distribution, a random
    one, which does not, is answered, and every reply is strict JSON."""
    policies = [
        {"mode": mode, "blind": blind}
        for mode in ("greedy", "probabilistic")
        for blind in (False, True)
    ]
    policies.append({"mode": "random"})
    vector = initial_vector(catalog, norms)
    replies = []
    with PredictionServer(overflowing_model, catalog, norms, seed=0) as srv:
        with socket.create_connection(srv.server_address, timeout=5.0) as sock:
            with sock.makefile("rwb") as stream:
                for i, policy in enumerate(policies):
                    request = {"request_id": f"r{i}", "vector": vector, "policy": policy}
                    write_frame(stream, json.dumps(request).encode("utf-8"))
                    replies.append(_strict_json(read_frame(stream)))
    *refused, answered = replies
    for reply in refused:
        assert reply["error"] == {
            "kind": "degenerate-distribution",
            "message": "network output is not finite",
        }
    assert "error" not in answered
    assert sum(answered["distribution"].values()) == pytest.approx(1.0)


def test_server_rejects_mismatched_model(catalog, norms):
    net = init_network(meta=ModelMeta(catalog_hash="0" * 16, norms_hash="0" * 16))
    with pytest.raises(CompatibilityError):
        PredictionServer(net, catalog, norms)


def test_server_rejects_a_model_of_the_wrong_shape(catalog, norms):
    meta = ModelMeta(catalog_hash=catalog.content_hash(), norms_hash=norms.content_hash())
    net = init_network(NetworkTopology(layer_sizes=(210, 8, 10)), meta=meta)
    with pytest.raises(CompatibilityError, match="210 inputs to 10 outputs"):
        PredictionServer(net, catalog, norms)


@pytest.mark.parametrize("with_vector", [True, False], ids=["decision", "error"])
def test_a_reply_past_the_frame_limit_becomes_an_error_that_fits(
    server, catalog, norms, with_vector
):
    """json spells each non-ASCII character of the echoed request_id as a
    6-byte escape, so a request under the frame limit can ask for a reply
    three times over it; that reply is replaced by an error the client reads,
    and the connection goes on."""
    body = {"request_id": "\u00e9" * 500_000}
    if with_vector:
        body["vector"] = initial_vector(catalog, norms)
    payload = json.dumps(body, ensure_ascii=False).encode("utf-8")
    assert len(payload) <= MAX_MESSAGE_BYTES
    with PredictionClient(server.server_address, timeout=5.0) as client:
        write_frame(client._stream, payload)
        response = json.loads(read_frame(client._stream))
        assert response["request_id"] == ""
        assert response["error"]["kind"] == "bad-request"
        assert "exceeds the frame limit" in response["error"]["message"]
        request = {"request_id": "next", "vector": initial_vector(catalog, norms)}
        response = client.predict(request)
        assert response["request_id"] == "next"
        assert "error" not in response


# -- transport failures ------------------------------------------------------------


def test_client_timeout_when_server_never_replies():
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5.0)
    try:
        accepted = []
        t = threading.Thread(
            target=lambda: accepted.append(listener.accept()), daemon=True
        )
        t.start()
        with PredictionClient(listener.getsockname(), timeout=0.3) as client:
            with pytest.raises(ClientTimeout):
                client.predict({"request_id": "never"})
        t.join(timeout=5.0)
        for sock, _ in accepted:
            sock.close()
    finally:
        listener.close()


def test_client_after_timeout_raises_protocol_error():
    def answer_late(listener, done):
        conn, _ = listener.accept()
        with conn:
            conn.recv(4096)
            time.sleep(0.3)
            reply = json.dumps({"request_id": "first"}).encode()
            try:
                conn.sendall(struct.pack(">I", len(reply)) + reply)
            except OSError:
                pass  # the client may already have hung up
            done.wait(timeout=5.0)

    listener = socket.create_server(("127.0.0.1", 0))
    done = threading.Event()
    t = threading.Thread(target=answer_late, args=(listener, done), daemon=True)
    t.start()
    try:
        with PredictionClient(listener.getsockname(), timeout=0.1) as client:
            with pytest.raises(ClientTimeout):
                client.predict({"request_id": "first"})
            time.sleep(0.4)  # the late reply has arrived by now
            for _ in range(2):
                with pytest.raises(ProtocolError, match="after a timeout"):
                    client.predict({"request_id": "later"})
    finally:
        done.set()
        t.join(timeout=5.0)
        listener.close()
    assert not t.is_alive()


def test_protocol_error_on_garbage_reply():
    def serve_garbage(listener, done):
        conn, _ = listener.accept()
        with conn:
            conn.recv(4096)
            frame = struct.pack(">I", 7) + b"\xff" * 7  # framed, but not JSON
            conn.sendall(frame)
            done.wait(timeout=5.0)

    listener = socket.create_server(("127.0.0.1", 0))
    done = threading.Event()
    t = threading.Thread(target=serve_garbage, args=(listener, done), daemon=True)
    t.start()
    try:
        with PredictionClient(listener.getsockname(), timeout=2.0) as client:
            with pytest.raises(ProtocolError):
                client.predict({"request_id": "garbled"})
    finally:
        done.set()
        t.join(timeout=5.0)
        listener.close()


def test_connection_refused_is_protocol_error():
    # grab a free port and close it again so nothing is listening
    probe = socket.create_server(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    with pytest.raises((ProtocolError, ClientTimeout)):
        client_predict(address, {"request_id": "nobody-home"}, timeout=0.5)


# -- connection lifetime ------------------------------------------------------------


def test_connection_survives_an_idle_gap(server, catalog, norms):
    request = {"vector": initial_vector(catalog, norms)}
    with PredictionClient(server.server_address, timeout=1.0) as client:
        assert "error" not in client.predict(request)
        time.sleep(0.8)
        assert "error" not in client.predict(request)


def test_frame_split_by_a_pause_is_answered(server, catalog, norms):
    payload = json.dumps({"request_id": "slow", "vector": initial_vector(catalog, norms)})
    with PredictionClient(server.server_address, timeout=2.0) as client:
        client._sock.sendall(struct.pack(">I", len(payload)))
        time.sleep(0.7)
        client._sock.sendall(payload.encode("utf-8"))
        reply = read_frame(client._stream)
    assert reply is not None
    assert json.loads(reply)["request_id"] == "slow"


@pytest.fixture(scope="module")
def running_server(service_net, catalog, norms):
    with PredictionServer(service_net, catalog, norms, seed=0) as srv:
        yield srv


def _stream_frames(catalog, norms):
    """Payload maker and expected (request_id, error kind) of each frame kind."""
    vector = initial_vector(catalog, norms)
    return {
        "vector": (lambda rid: {"request_id": rid, "vector": vector}, None),
        "state": (lambda rid: {"request_id": rid, "state": {"frame": 5}}, None),
        "range": (lambda rid: {"request_id": rid, "vector": [2.0] * 210}, "bad-request"),
        "bad-json": (lambda rid: b"{not json", "bad-json"),
        "not-utf8": (lambda rid: b"\xff\xfe", "bad-json"),
        "empty": (lambda rid: b"", "bad-json"),
        "array": (lambda rid: [rid], "bad-request"),
    }


def _framed(body) -> bytes:
    payload = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
    return struct.pack(">I", len(payload)) + payload


def _read_replies(stream, n):
    replies = []
    for _ in range(n):
        payload = read_frame(stream)
        assert payload is not None, f"closed after {len(replies)} of {n} replies"
        reply = json.loads(payload)
        replies.append((reply["request_id"], reply.get("error", {}).get("kind")))
    return replies


@settings(max_examples=40, deadline=None)
@given(
    kinds=st.lists(
        st.sampled_from(["vector", "state", "range", "bad-json", "not-utf8", "empty", "array"]),
        max_size=8,
    ),
    tail=st.sampled_from(["open", "end-inside-frame", "oversize-header"]),
    data=st.data(),
)
def test_one_connections_byte_stream_gets_one_reply_per_frame_in_order(
    running_server, catalog, norms, kinds, tail, data
):
    """Whole frames, valid or not, split at arbitrary points and pipelined
    with idle gaps, each get one reply in order; only an oversize header or
    an end of stream inside a frame closes the connection."""
    makers = _stream_frames(catalog, norms)
    stream, expected = b"", []
    for i, kind in enumerate(kinds):
        make, error = makers[kind]
        rid = f"s{i}"
        body = make(rid)
        stream += _framed(body)
        expected.append((rid if isinstance(body, dict) else "", error))
    if tail == "oversize-header":
        stream += struct.pack(">I", MAX_MESSAGE_BYTES + 1)
    elif tail == "end-inside-frame":
        whole = _framed(makers["vector"][0]("cut"))
        stream += whole[: data.draw(st.integers(1, len(whole) - 1), label="cut")]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=6), label="cuts"))
    bounds = [0, *cuts, len(stream)]
    with socket.create_connection(running_server.server_address, timeout=5.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        replies = sock.makefile("rb")
        for start, stop in zip(bounds, bounds[1:]):
            time.sleep(data.draw(st.sampled_from([0.0, 0.0, 0.002, 0.02]), label="gap"))
            sock.sendall(stream[start:stop])
        if tail == "end-inside-frame":
            sock.shutdown(socket.SHUT_WR)
        assert _read_replies(replies, len(expected)) == expected
        if tail == "open":
            sock.sendall(_framed(makers["vector"][0]("last")))
            assert _read_replies(replies, 1) == [("last", None)]
        else:
            assert read_frame(replies) is None
        replies.close()


def test_pipelined_replies_past_the_send_buffer_all_arrive_in_order(running_server, catalog, norms):
    """Requests that the server reads in one recv, whose replies are far more
    than the socket buffers hold while the client does not read: the server
    must wait to write, with nothing left to read, then go back to reading,
    and every reply arrives in order."""
    make = _stream_frames(catalog, norms)["state"][0]
    n = 1000
    stream = b"".join(_framed(make(f"p{i}")) for i in range(n))
    assert len(stream) < service._RECV_BYTES
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.settimeout(5.0)
        sock.connect(running_server.server_address)
        sender = threading.Thread(target=sock.sendall, args=(stream,), daemon=True)
        sender.start()
        time.sleep(0.2)
        replies = sock.makefile("rb")
        assert _read_replies(replies, n) == [(f"p{i}", None) for i in range(n)]
        sender.join(5.0)
        assert not sender.is_alive()
        sock.sendall(_framed(make("last")))
        assert _read_replies(replies, 1) == [("last", None)]
        replies.close()


def test_stop_is_prompt_with_an_idle_client(service_net, catalog, norms):
    srv = PredictionServer(service_net, catalog, norms)
    srv.start()
    with PredictionClient(srv.server_address, timeout=1.0) as client:
        assert "error" not in client.predict({"vector": initial_vector(catalog, norms)})
        started = time.perf_counter()
        srv.stop()
        elapsed = time.perf_counter() - started
        with pytest.raises(ProtocolError, match="closed the connection"):
            client.predict({"vector": initial_vector(catalog, norms)})
    assert elapsed < 0.25


# -- connection limits ----------------------------------------------------------


def test_burst_of_connects_is_accepted_at_once(server):
    socks, slowest = [], 0.0
    try:
        for _ in range(12):
            started = time.perf_counter()
            socks.append(socket.create_connection(server.server_address, timeout=5.0))
            slowest = max(slowest, time.perf_counter() - started)
    finally:
        for sock in socks:
            sock.close()
    assert slowest < DEFAULT_TIMEOUT


def test_idle_connections_hold_no_threads(server, catalog, norms):
    request = {"vector": initial_vector(catalog, norms)}
    before = threading.active_count()
    clients = [PredictionClient(server.server_address, timeout=1.0) for _ in range(12)]
    try:
        for client in clients:
            assert "error" not in client.predict(request)
        assert threading.active_count() == before
    finally:
        for client in clients:
            client.close()


def test_connections_past_the_cap_are_closed(monkeypatch, service_net, catalog, norms):
    monkeypatch.setattr(service, "MAX_CONNECTIONS", 4)
    request = {"vector": initial_vector(catalog, norms)}
    with PredictionServer(service_net, catalog, norms) as srv:
        clients = [PredictionClient(srv.server_address, timeout=1.0) for _ in range(4)]
        try:
            for client in clients:
                assert "error" not in client.predict(request)
            with socket.create_connection(srv.server_address, timeout=1.0) as fifth:
                assert fifth.recv(1) == b""  # closed without a request sent
            for client in clients:
                assert "error" not in client.predict(request)
            clients.pop().close()
            for attempt in range(10):  # the loop may see the connect before the close
                time.sleep(0.1)
                try:
                    with PredictionClient(srv.server_address, timeout=1.0) as late:
                        assert "error" not in late.predict(request)
                    break
                except (ProtocolError, OSError):
                    assert attempt < 9, "no connection accepted after one closed"
        finally:
            for client in clients:
                client.close()


def _pipeline_without_reading(hog, server, catalog, norms):
    """Send requests on hog, reading no reply, until the server has stopped
    taking them for 0.5 s."""
    frame = json.dumps({"vector": initial_vector(catalog, norms)}).encode("utf-8")
    frame = struct.pack(">I", len(frame)) + frame
    hog.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    hog.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 16384)
    hog.connect(server.server_address)
    hog.setblocking(False)
    pending = memoryview(frame * 6000)
    while pending and select.select([], [hog], [], 0.5)[1]:
        pending = pending[hog.send(pending[:65536]) :]
    assert pending, "the server read every request with none of its replies read"


def test_a_client_that_never_reads_stalls_no_one_else(server, catalog, norms):
    with socket.socket() as hog:
        _pipeline_without_reading(hog, server, catalog, norms)
        request = {"vector": initial_vector(catalog, norms)}
        with PredictionClient(server.server_address, timeout=1.0) as other:
            assert "error" not in other.predict(request)
            with socket.create_connection(server.server_address, timeout=1.0) as bad:
                bad.sendall(struct.pack(">I", MAX_MESSAGE_BYTES + 1))
                assert bad.recv(1) == b""
            assert "error" not in other.predict(request)


def test_connection_send_buffers_are_capped(server, catalog, norms):
    request = {"vector": initial_vector(catalog, norms)}
    with PredictionClient(server.server_address, timeout=1.0) as other, socket.socket() as hog:
        assert "error" not in other.predict(request)
        _pipeline_without_reading(hog, server, catalog, norms)
        keys = list(server._sel.get_map().values())
        conns = [k.fileobj for k in keys if k.fileobj not in (server.socket, server._wake_r)]
        assert len(conns) == 2
        for conn in conns:  # Linux reports twice the size it was given
            size = conn.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
            assert size <= 2 * service.SEND_BUFFER_BYTES


# -- concurrency and latency -------------------------------------------------------


def test_concurrent_clients_keep_frames_straight(server, catalog, norms):
    vector = initial_vector(catalog, norms)
    failures = []

    def worker(worker_id):
        try:
            with PredictionClient(server.server_address, timeout=5.0) as client:
                for i in range(25):
                    request_id = f"w{worker_id}-{i}"
                    response = client.predict(
                        {"request_id": request_id, "vector": vector}
                    )
                    if response.get("request_id") != request_id:
                        failures.append((request_id, response))
                    if "error" in response:
                        failures.append((request_id, response))
        except Exception as e:  # noqa: BLE001 - collected for the assertion
            failures.append((worker_id, repr(e)))

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    assert failures == []


def test_latency_is_interactive(server, catalog, norms):
    vector = initial_vector(catalog, norms)
    with PredictionClient(server.server_address, timeout=5.0) as client:
        samples = []
        for i in range(200):
            start = time.perf_counter()
            client.predict({"request_id": str(i), "vector": vector})
            samples.append(time.perf_counter() - start)
    p99 = sorted(samples)[int(0.99 * len(samples))]
    assert p99 < 0.010  # round trip under 10 ms on loopback

"""The two service workloads, against ``macronet serve`` in its own process.

``serve``: windows of a closed loop on two connections in turn with windows
of one connection paced at a fixed rate, each paced request timed from when
it was due.
``serve-sparse``: the bot's pattern, a burst of decisions after each idle gap
longer than the server's 0.5 s read timeout, on one persistent connection.
A request whose connection the server dropped counts as failed; the client
reconnects and goes on.
``service_layers``: the traced part, which times the service's layers one
request at a time in this process and makes a few sparse rounds."""

from __future__ import annotations

import gc
import socket
import struct
import threading
import time

import numpy as np

from macronet import net, policy, service

import checks
import inputs
import oracle
from common import CATALOG_FILE, ServerProcess, Stopwatch, median, percentile

SERVE_GAMES = 40
SERVE_EPOCHS = 3
CLOSED_CLIENTS = 2
CLOSED_WINDOW_S = 0.5
PACED_WINDOW_S = 1.0
PACED_RATE = 200.0  # requests/s on one connection, about a tenth of saturation
SPARSE_GAP_S = 0.7  # the server's idle read timeout is 0.5 s
SPARSE_BURST = 16
SPARSE_TRACE_ROUNDS = 4
CLIENT_TIMEOUT_S = 5.0


class Connection:
    """One persistent client connection speaking the framed protocol."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=CLIENT_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _recv(self, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            chunk = self.sock.recv(n - len(buf))
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk
        return bytes(buf)

    def ask(self, frame: bytes) -> bytes:
        self.sock.sendall(frame)
        (n,) = struct.unpack(">I", self._recv(4))
        return self._recv(n)

    def close(self) -> None:
        self.sock.close()


def _busy_until(deadline: float) -> None:
    """Wait without letting this CPU idle. A client that sleeps lets the CPU
    idle, and how fast a shared host wakes it again moved latency by more
    than the changes the benchmark is meant to see."""
    while time.perf_counter() < deadline:
        pass


class _Session:
    """Server, served model and request mix of one run."""

    def __init__(self, ctx):
        program, work = ctx.program, ctx.work
        self.dataset_path = dataset_path = work / "serve.ds"
        self.model_path = work / "serve-model.bin"
        self.server_seed = ctx.seed

        def make():
            logs = inputs.synth_logs(program, SERVE_GAMES, ctx.seed)
            inputs.write_dataset(program, logs, dataset_path)
            inputs.write_model(self.model_path, dataset_path, SERVE_EPOCHS, ctx.seed)
            server = ServerProcess(self.model_path, self.server_seed, work / "server.log")
            ctx.closers.append(server.stop)
            return logs, server

        logs, self.server = inputs.set_up(ctx, make, discard=lambda made: made[1].stop())
        states = inputs.held_out_states(program, logs, dataset_path)
        self.mix, self.rows = inputs.request_mix(program, states, ctx.seed)
        self.valid = [r for r in self.mix if r.form != "bad"]
        names = oracle.read_catalog_names(CATALOG_FILE)[0]
        self.checker = checks.ReplyChecker(
            oracle.read_model(self.model_path), self.rows, names, self.server_seed)
        self.replies: list[tuple] = []

    def check_all(self) -> None:
        for req, payload in self.replies:
            self.checker.check(req, payload)


def _ask(conn: Connection, frame: bytes, address) -> tuple[Connection, bytes | None]:
    """(connection for the next request, reply); the reply is None when the
    server dropped the connection, which is then replaced."""
    try:
        return conn, conn.ask(frame)
    except OSError:
        conn.close()
        return Connection(address), None


def _closed_loop(address, mix, offset, deadline, out, failures) -> None:
    conn = Connection(address)
    i = offset
    try:
        while time.perf_counter() < deadline:
            req = mix[i % len(mix)]
            i += 1
            conn, reply = _ask(conn, req.frame, address)
            if reply is None:
                failures.append(req)
            else:
                out.append((req, reply))
    finally:
        conn.close()


def _closed_window(session, offset: int) -> tuple[float, list, list]:
    """CLOSED_CLIENTS connections back to back for one window: (requests
    answered per Stopwatch second, replies, failed requests)."""
    out, failures = [], []
    gc.collect()
    clock = Stopwatch()
    started = time.perf_counter()
    threads = [
        threading.Thread(target=_closed_loop, args=(
            session.server.address, session.mix, offset + 50 * k, started + CLOSED_WINDOW_S,
            out, failures))
        for k in range(CLOSED_CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=CLOSED_WINDOW_S + 30)
        oracle.require(not t.is_alive(), "closed-loop client did not finish")
    return len(out) / clock.seconds(), out, failures


def _paced_window(session, offset: int) -> tuple[list, list, int, float]:
    """One connection at PACED_RATE for one window, each request timed from
    when it was due: (latencies, replies, failed, generator lateness)."""
    address = session.server.address
    conn = Connection(address)
    latencies, replies, failed, late = [], [], 0, 0.0
    gc.collect()
    start = time.perf_counter() + 0.001
    try:
        for i in range(round(PACED_WINDOW_S * PACED_RATE)):
            req = session.mix[(offset + i) % len(session.mix)]
            due = start + i / PACED_RATE
            _busy_until(due)
            late = max(late, time.perf_counter() - due)
            conn, reply = _ask(conn, req.frame, address)
            if reply is None:
                failed += 1
                continue
            latencies.append(time.perf_counter() - due)
            replies.append((req, reply))
    finally:
        conn.close()
    return latencies, replies, failed, late


def _sparse_rounds(address, sequence, rounds_left, replies) -> tuple[list, int, int]:
    """A burst after each idle gap until ``rounds_left()`` says stop. Returns
    (latencies of the answered requests, one list per round, failed,
    connections opened)."""
    conn, opened, failed, i, latencies = Connection(address), 1, 0, 0, []
    try:
        while rounds_left():
            # Busy through the gap, as a bot is with its game between
            # decisions; a client that slept let the CPU idle, and latency
            # then moved with how fast the host woke it.
            _busy_until(time.perf_counter() + SPARSE_GAP_S)
            latencies.append([])
            for _ in range(SPARSE_BURST):
                req = sequence[i % len(sequence)]
                i += 1
                started = time.perf_counter()
                conn, reply = _ask(conn, req.frame, address)
                if reply is None:
                    failed, opened = failed + 1, opened + 1
                    continue
                latencies[-1].append(time.perf_counter() - started)
                replies.append((req, reply))
    finally:
        conn.close()
    return latencies, failed, opened


def serve(ctx) -> None:
    """Closed-loop and paced windows in turn for the whole run, so that both
    phases see the same share of any slow spell on a shared machine.
    throughput is the median over the closed-loop windows, latency_ms the
    median over all paced requests."""
    session = _Session(ctx)
    try:
        rates, paced, late = [], [], []
        started = time.perf_counter()
        while not rates or time.perf_counter() - started < ctx.seconds:
            rate, out, failures = _closed_window(session, len(rates))
            rates.append(rate)
            session.replies += out
            ctx.count("serve", "requests", len(out) + len(failures), len(failures))
            latencies, replies, failed, lateness = _paced_window(session, len(paced))
            paced += latencies
            late.append(lateness)
            session.replies += replies
            ctx.count("serve", "requests", len(latencies) + failed, failed)
        ctx.metric("throughput", median(rates), "1/s")
        ctx.metric("latency_ms", 1e3 * median(paced), "ms")
        ctx.details.update(window_rps=rates, paced_requests=len(paced),
                           paced_p99_us=1e6 * percentile(paced, 99),
                           paced_generator_late_max_us=1e6 * max(late))
    finally:
        rss = session.server.stop()
    ctx.metric("peak_rss_mb", rss, "MB")
    ctx.metric("dataset_mb", session.dataset_path.stat().st_size / 1e6, "MB")
    session.check_all()


def _sparse_sequence(session) -> list:
    """Each state's vector and state forms back to back: a burst of 16 then
    always asks 8 of each, and the request that fails after a gap is always
    a vector request, so the median does not move with the seed."""
    forms = {}
    for req in session.valid:
        forms.setdefault(req.state, {})[req.form] = req
    return [pair[form] for pair in forms.values() for form in ("vector", "state")]


def serve_sparse(ctx) -> None:
    """throughput is the answered requests per second of the whole session,
    gaps included: the rate of decisions the bot gets answered, which every
    dropped connection lowers. latency_ms is the median over the answered
    requests."""
    session = _Session(ctx)
    try:
        gc.collect()
        started = time.perf_counter()
        latencies, failed, _ = _sparse_rounds(
            session.server.address, _sparse_sequence(session),
            lambda: time.perf_counter() - started + SPARSE_GAP_S < ctx.seconds, session.replies)
        elapsed = time.perf_counter() - started
        ctx.count("serve-sparse", "requests", SPARSE_BURST * len(latencies), failed)
        ctx.metric("throughput", sum(map(len, latencies)) / elapsed, "1/s")
        ctx.metric("latency_ms", 1e3 * median([x for r in latencies for x in r]), "ms")
        ctx.details["sparse_rounds"] = len(latencies)
        ctx.details["sparse_latencies_us"] = [[round(1e6 * x) for x in r] for r in latencies]
    finally:
        rss = session.server.stop()
    ctx.metric("peak_rss_mb", rss, "MB")
    ctx.metric("dataset_mb", session.dataset_path.stat().st_size / 1e6, "MB")
    session.check_all()


def service_layers(ctx) -> None:
    """The traced part of the service: SPARSE_TRACE_ROUNDS sparse rounds,
    the operations of a traced serve-sparse run, so that its failed share is
    the untraced one; then the single-request costs of each layer, the
    operations of a traced serve run."""
    session = _Session(ctx)
    try:
        rounds = iter(range(SPARSE_TRACE_ROUNDS))
        latencies, failed, opened = _sparse_rounds(
            session.server.address, _sparse_sequence(session),
            lambda: next(rounds, None) is not None, session.replies)
        ctx.count("serve-sparse", "requests", SPARSE_BURST * len(latencies), failed)
        ctx.metric("service.connections_opened", opened, "count")
        ctx.count("serve", "requests", _per_layer(ctx, session))
    finally:
        session.server.stop()
    session.check_all()


# ---------------------------------------------------------------------------
# Per-layer timings (traced runs)
# ---------------------------------------------------------------------------


def _policy_of(req) -> policy.DecisionPolicy:
    return policy.DecisionPolicy(
        mode=policy.Mode(req.mode), blind=req.blind,
        exclusions=frozenset(req.exclusions), seed=req.policy_seed or 0,
    )


def _per_layer(ctx, session) -> int:
    """Single-request costs of each layer, called in this process, and the
    round trip of the same frames to the server process. Untraced and traced
    passes in turn until the run's time is up; returns the requests made."""
    program, tracer = ctx.program, ctx.tracer
    with open(session.model_path, "rb") as f:
        model = net.load_model(f)
    local = service.PredictionServer(model, program.catalog, program.norms, seed=session.server_seed)
    conn = Connection(session.server.address)
    rng = np.random.default_rng(0)
    calls = [(req, session.rows[req.state], _policy_of(req), req.frame[4:]) for req in session.valid]

    layers = [
        ("net.forward", lambda req, row, pol, payload: net.forward(model, row)),
        ("policy.decide_from_vector",
         lambda req, row, pol, payload: policy.decide_from_vector(model, row, pol, rng)),
        ("service.answer", lambda req, row, pol, payload: local.answer(payload, rng)),
        ("service.round_trip", lambda req, row, pol, payload: conn.ask(req.frame)),
    ]

    def one_pass(traced: bool) -> float:
        """Each layer over every request in turn, so that one layer's calls
        do not pay for the cache another layer or the server just used."""
        gc.collect()
        started = time.perf_counter()
        for name, call in layers:
            for req, row, pol, payload in calls:
                span = f"{name}.{req.form}" if name == "service.answer" else name
                if traced:
                    with tracer.span(span):
                        result = call(req, row, pol, payload)
                else:
                    result = call(req, row, pol, payload)
                if name.startswith("service."):
                    session.replies.append((req, result))
        return time.perf_counter() - started

    plain, walls = [], []
    try:
        started = time.perf_counter()
        while not walls or time.perf_counter() - started < ctx.seconds:
            plain.append(one_pass(False))
            walls.append(one_pass(True))
    finally:
        conn.close()
        local.server_close()
    plain = median(plain)
    us = {name: 1e6 * median(tracer.durations(name)) for name in (
        "net.forward", "policy.decide_from_vector", "service.answer.vector",
        "service.answer.state", "service.round_trip")}
    answers = tracer.durations("service.answer.vector") + tracer.durations("service.answer.state")
    ctx.metric("net.forward_us", us["net.forward"], "us")
    ctx.metric("policy.decide_from_vector_us", us["policy.decide_from_vector"], "us")
    ctx.metric("service.answer_us.vector", us["service.answer.vector"], "us")
    ctx.metric("service.answer_us.state", us["service.answer.state"], "us")
    ctx.metric("service.transport_us", us["service.round_trip"] - 1e6 * median(answers), "us")
    ctx.record_overhead("service", plain, median(walls))
    # In-process answers and round trips, in both kinds of pass.
    return 4 * len(calls) * len(walls)

"""A fleet of mirror clients on one selector, pumped by the generator.

Each client is what a WILD wall tile's connection manager is to the
server: a listener the server connects back to, a HELLO, then a stream of
newline-framed NOTIFY messages.  All N sockets live on one selector and
are pumped inline by the thread that writes (no client threads), so the
fleet is this workload's *input size*, not a second system under test.

The fleet throttles the writer: at most ``window`` statements may be
un-received by the slowest client.  Without that, a sustained IMMEDIATE
burst overruns the server's 1,024-frame send queues and the server evicts
every client instead of applying back-pressure.

Every wait is bounded; an eviction or a short client is reported to the
caller as a failed operation, never a hang.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from typing import Any

from repro.sync import protocol

from harness import WAIT_TIMEOUT_S


class FleetClient:
    """One tile: counts frames and bytes; JSON-decodes a sample of them."""

    __slots__ = (
        "listener", "sock", "ready", "frames", "bytes", "mark", "mark_ns", "tail",
    )

    def __init__(self) -> None:
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(1)
        self.listener.setblocking(False)
        self.sock: Any = None
        self.ready = False  # the handshake REPLY has arrived
        self.frames = 0  # NOTIFY frames received (the REPLY is not counted)
        self.bytes = 0  # bytes of those frames
        self.mark = 0  # frame count when the probe was armed
        self.mark_ns = 0  # receipt time of the first frame after the mark
        self.tail = b""

    @property
    def port(self) -> int:
        return self.listener.getsockname()[1]


class Fleet:
    """N clients on one selector loop, driven inline by :meth:`pump`."""

    def __init__(self, n: int, window: int = 256, decode_every: int = 64) -> None:
        self.selector = selectors.DefaultSelector()
        self.window = window
        self.decode_every = decode_every
        self.clients = [FleetClient() for _ in range(n)]
        for client in self.clients:
            self.selector.register(client.listener, selectors.EVENT_READ, client)
        self.hello = protocol.encode(protocol.hello())
        self.eof = 0  # clients whose stream the server closed
        self.floor = 0  # slowest() as last seen by throttle()

    # ------------------------------------------------------------------
    def connect(self, server: Any, table: str) -> bool:
        """Register every client as a mirror of ``table``.

        ``register_client`` blocks until the client's HELLO arrives, so
        the registrations run on a helper thread while this thread pumps
        the accept loop.
        """
        failures: list[BaseException] = []

        def registrar() -> None:
            try:
                for client in self.clients:
                    server.register_client(table, "127.0.0.1", client.port)
            except Exception as exc:  # surfaced below, on the caller's thread
                failures.append(exc)

        thread = threading.Thread(target=registrar, daemon=True)
        thread.start()
        deadline = time.monotonic() + WAIT_TIMEOUT_S
        while thread.is_alive() and time.monotonic() < deadline:
            self.pump(0.01)
        thread.join(timeout=0.1)
        if failures:
            raise failures[0]
        while time.monotonic() < deadline and not all(c.ready for c in self.clients):
            self.pump(0.01)
        return all(c.ready for c in self.clients)

    def pump(self, timeout: float = 0.0) -> None:
        for key, _events in self.selector.select(timeout):
            client = key.data
            if key.fileobj is client.listener:
                try:
                    sock, _addr = client.listener.accept()
                except (BlockingIOError, InterruptedError):
                    continue
                sock.setblocking(False)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.sendall(self.hello)  # the client side speaks first
                client.sock = sock
                self.selector.register(sock, selectors.EVENT_READ, client)
            elif not self._readable(client):
                self.selector.unregister(key.fileobj)
                self.eof += 1

    def _readable(self, client: FleetClient) -> bool:
        """Drain one socket; False on EOF (eviction or server close)."""
        try:
            chunk = client.sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return True
        if not chunk:
            return False
        lines = (client.tail + chunk).split(b"\n")
        client.tail = lines.pop()
        got = 0
        for line in lines:
            if not client.ready:
                # The first complete frame is the handshake REPLY.
                if protocol.decode(line)["type"] != protocol.REPLY:
                    raise RuntimeError(f"expected REPLY, got {line[:40]!r}")
                client.ready = True
                continue
            if self.decode_every and client.frames % self.decode_every == 0:
                kind = protocol.decode(line)["type"]
                if kind not in (protocol.NOTIFY, protocol.NOTIFY_BATCH):
                    raise RuntimeError(f"unexpected {kind} frame")
            client.frames += 1
            client.bytes += len(line) + 1
            got += 1
        if got and client.mark_ns == 0 and client.frames > client.mark:
            client.mark_ns = time.perf_counter_ns()
        return True

    # ------------------------------------------------------------------
    def slowest(self) -> int:
        """Frames received by the client that has received the fewest."""
        return min(client.frames for client in self.clients)

    def throttle(self, sent: int) -> bool:
        """Hold the writer while ``sent - slowest() >= window``.

        Pumps until the slowest client is within half a window again;
        False if that takes longer than the wait bound (or a client is
        gone and can never catch up).
        """
        if sent - self.floor < self.window:
            return True
        deadline = time.monotonic() + WAIT_TIMEOUT_S
        self.floor = self.slowest()
        while sent - self.floor >= self.window // 2:
            if self.eof or time.monotonic() > deadline:
                return False
            self.pump(0.05)
            self.floor = self.slowest()
        return True

    def wait_frames(self, per_client: int) -> bool:
        """Pump until every client holds ``per_client`` NOTIFY frames."""
        deadline = time.monotonic() + WAIT_TIMEOUT_S
        while self.slowest() < per_client:
            if self.eof or time.monotonic() > deadline:
                return False
            self.pump(0.05)
        return True

    def arm_probe(self) -> None:
        for client in self.clients:
            client.mark = client.frames
            client.mark_ns = 0

    def slowest_receipt_ns(self) -> int:
        """Receipt time of the armed probe's frame at the last client to
        get it (0 if some client has not got it)."""
        stamps = [client.mark_ns for client in self.clients]
        return max(stamps) if all(stamps) else 0

    def close(self) -> None:
        for client in self.clients:
            if client.sock is not None:
                try:
                    self.selector.unregister(client.sock)
                except KeyError:
                    pass
                client.sock.close()
            self.selector.unregister(client.listener)
            client.listener.close()
        self.selector.close()

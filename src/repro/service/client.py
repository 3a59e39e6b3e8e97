"""Client for the verification service (``repro-spi submit``).

A thin blocking client over the framed-JSON protocol with the retry
discipline a robust caller wants baked in:

* **connection errors and ``overloaded`` responses are retried** with
  exponential backoff plus full jitter (the server sheds bursts fast on
  purpose; clients that all retry on the same schedule would just
  re-form the burst);
* **deadline propagation** — give :meth:`ServiceClient.call` a
  :class:`~repro.runtime.deadline.Deadline` and every attempt sends the
  *remaining* budget in the request (the clamped ``remaining()``, so an
  expired deadline is 0, never a negative socket timeout) and stops
  retrying once the budget is spent;
* **``draining`` is not retried** — the server is going away; the
  caller should fail over or fall back to a batch run, not hammer a
  closing door;
* **``expired`` is not retried** — the server has already declared the
  queued deadline dead; backing off and re-submitting the same doomed
  request would burn the whole retry budget to learn the same thing
  (``repro-spi submit`` maps it straight to exit 3);
* **backoff never outlives the deadline** — every sleep (backoff jitter
  and server ``retry_after`` hints alike) is capped at the remaining
  budget, and a sleep that *would* consume the entire remainder is not
  taken at all: the client fails fast instead of waking up expired;
* **address failover** — constructed with a *list* of addresses (a
  server's Unix socket and its TCP port, say) the client rotates to
  the next endpoint after a connection-level failure, so one dead
  listener costs a rotation, not the whole retry budget.

One connection per call: requests are rare and heavy (seconds of
verification), so connection reuse buys nothing and per-call sockets
make retry-after-crash trivial.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any, Callable, Optional

from repro.core.errors import ReproError
from repro.runtime.deadline import Deadline
from repro.runtime.supervisor import backoff_delay
from repro.service.framing import FramingError, recv_frame, send_frame
from repro.service.protocol import PROTOCOL_VERSION

#: Errors that mean "this attempt died, another might not".
_RETRIABLE = (ConnectionError, TimeoutError, socket.timeout, OSError, FramingError)


class ServiceUnavailable(ReproError):
    """The service could not be reached / kept shedding within the retry
    budget."""


def parse_address(spec: str) -> tuple[str, Any]:
    """``host:port`` -> a TCP address, anything else -> a Unix socket
    path.  (A bare port is written ``127.0.0.1:PORT``; paths containing
    a colon are not supported — name the socket somewhere else.)"""
    if ":" in spec:
        host, _, port = spec.rpartition(":")
        try:
            return ("tcp", (host or "127.0.0.1", int(port)))
        except ValueError:
            pass
    return ("unix", spec)


class ServiceClient:
    """Blocking client with retry/backoff/jitter.

    Args:
        address: a ``parse_address`` result or its string form — or a
            *list* of either, tried in rotation: a connection-level
            failure advances to the next address for the following
            attempt (replies, including ``overloaded``, keep the
            current one).
        timeout: per-attempt socket timeout (connect and each read).
        retries: extra attempts after the first.
        jitter: uniform-[0,1) source, injectable for deterministic
            tests.
    """

    def __init__(
        self,
        address: Any,
        timeout: float = 60.0,
        retries: int = 3,
        backoff_base: float = 0.2,
        backoff_cap: float = 2.0,
        jitter: Optional[Callable[[], float]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        specs = address if isinstance(address, list) else [address]
        if not specs:
            raise ValueError("ServiceClient needs at least one address")
        self.addresses = [
            parse_address(spec) if isinstance(spec, str) else spec for spec in specs
        ]
        self._cursor = 0
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.jitter = jitter if jitter is not None else random.random
        self.sleep = sleep

    # -- transport -----------------------------------------------------

    @property
    def address(self) -> Any:
        """The endpoint the next attempt will use."""
        return self.addresses[self._cursor]

    def _rotate(self) -> None:
        self._cursor = (self._cursor + 1) % len(self.addresses)

    def _connect(self, timeout: float) -> socket.socket:
        family, target = self.address
        if family == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect(target)
        except OSError:
            sock.close()
            raise
        return sock

    def _attempt(self, message: dict, timeout: float) -> dict:
        sock = self._connect(timeout)
        try:
            send_frame(sock, message)
            reply = recv_frame(sock)
        finally:
            sock.close()
        if reply is None:
            raise ServiceUnavailable("server closed the connection without replying")
        return reply

    # -- the retry loop ------------------------------------------------

    def call(self, message: dict, deadline: Optional[Deadline] = None) -> dict:
        """Send one request; return the first non-``overloaded`` reply.

        Retries connection failures and ``overloaded`` sheds with
        jittered exponential backoff, bounded by ``retries`` and (when
        given) ``deadline``.  Raises :class:`ServiceUnavailable` when
        the budget runs out.
        """
        message = dict(message)
        message.setdefault("v", PROTOCOL_VERSION)
        last_error = "no attempt made"
        for attempt in range(self.retries + 1):
            hinted: Optional[float] = None
            remaining = deadline.remaining() if deadline is not None else None
            if remaining is not None:
                if remaining <= 0:
                    raise ServiceUnavailable(
                        f"deadline expired before attempt {attempt + 1} ({last_error})"
                    )
                message["deadline"] = round(remaining, 3)
            timeout = (
                min(self.timeout, remaining) if remaining is not None else self.timeout
            )
            try:
                reply = self._attempt(message, timeout)
            except ServiceUnavailable as err:
                last_error = str(err)
                self._rotate()
            except _RETRIABLE as err:
                last_error = f"{type(err).__name__}: {err}"
                self._rotate()
            else:
                if reply.get("status") != "overloaded":
                    # Terminal for this call: only a shed burst is worth
                    # another attempt.  `expired` in particular must fail
                    # fast — the server already declared the queued
                    # deadline dead, and re-submitting the same doomed
                    # request can only waste the retry budget.
                    return reply
                last_error = reply.get("error", "overloaded")
                hinted = reply.get("retry_after")
            if attempt >= self.retries:
                break
            delay = backoff_delay(  # half-to-full jitter, never zero
                self.backoff_base, self.backoff_cap, attempt + 1, self.jitter, 0.5
            )
            if hinted is not None:
                delay = max(delay, float(hinted) * (0.5 + 0.5 * self.jitter()))
            if deadline is not None:
                # Cap every sleep — backoff and retry_after hint alike —
                # at the remaining budget, and refuse a sleep that would
                # consume all of it: waking up expired helps nobody.
                left = deadline.remaining()
                if delay >= left:
                    raise ServiceUnavailable(
                        f"deadline expired backing off before attempt "
                        f"{attempt + 2} ({last_error})"
                    )
                delay = min(delay, left)
            if delay > 0:
                self.sleep(delay)
        raise ServiceUnavailable(
            f"request failed after {self.retries + 1} attempt(s): {last_error}"
        )

    # -- conveniences --------------------------------------------------

    def ping(self) -> dict:
        return self.call({"kind": "ping"})

    def status(self) -> dict:
        return self.call({"kind": "status"})

    def submit(
        self,
        kind: str,
        target: dict,
        deadline: Optional[Deadline] = None,
        **options: Any,
    ) -> dict:
        """Submit one verification request (see
        :mod:`repro.service.protocol` for the fields)."""
        message = {"kind": kind, "target": target}
        message.update({k: v for k, v in options.items() if v is not None})
        return self.call(message, deadline=deadline)

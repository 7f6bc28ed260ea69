"""Framed wire protocol for distributed campaign execution.

The coordinator (:class:`~repro.experiments.remote.RemoteWorkerPool`)
and remote workers (``repro worker``) speak a small length-prefixed
frame protocol over TCP:

``[kind:1][length:4][crc32:4][payload:length]``

* ``kind`` is ``b"J"``: every payload is JSON data.  Any other kind —
  including protocol 1's ``b"P"`` pickle frames — is refused on its
  header, before a payload byte is read (:class:`FrameError`);
* ``length`` and ``crc32`` are big-endian unsigned 32-bit integers;
  the CRC covers the payload bytes, so a corrupted frame is detected
  on receive (:class:`FrameError`) instead of being parsed into
  garbage — the receiving side treats it as a protocol violation and
  drops the connection, which routes the in-flight chunk into the
  coordinator's redistribution ladder.

Every message is a dict with a ``"kind"`` key.  The first exchange on
a fresh connection is the **handshake**: the coordinator sends its
:class:`Handshake` (protocol version, result-row schema namespace
``v<schema>-<version>``, and the repro library version), the worker
replies with its own, and the coordinator rejects mismatches
(:func:`Handshake.reject_reason`) — a stale worker would price cells
with different calibrated constants and silently poison the campaign's
byte-identity, so it is turned away at the door with a
``worker_rejected`` trace event instead.  Then ``chunk`` messages flow
one way, ``ping`` heartbeats and ``result`` rows the other (see
:mod:`repro.experiments.remote`).

Deterministic network faults (:mod:`repro.experiments.faults`, modes
``net_drop`` / ``net_stall`` / ``net_garble``) hook the *send* path:
:func:`send_message` consults :func:`repro.experiments.faults.maybe_net`
with the sending endpoint name and the message kind, so tests can drop
the first result frame of a worker, stall a heartbeat, or corrupt a
chunk dispatch — and assert the recovery machinery restores
byte-identical output.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib
from dataclasses import asdict, dataclass

from ..errors import ReproError
from . import faults

#: bump when the frame layout or message vocabulary changes
PROTOCOL_VERSION = 3

#: frame header: kind byte, payload length, payload CRC32
_HEADER = struct.Struct("!cII")

#: refuse absurd frames before allocating for them (a garbled length
#: field must not look like a 3 GiB read)
MAX_FRAME_BYTES = 64 * 1024 * 1024

_KIND_JSON = b"J"


class ProtocolError(ReproError):
    """Base of every wire-protocol failure."""


class FrameError(ProtocolError):
    """A structurally invalid frame (bad kind, oversized length, CRC
    mismatch).  The connection that produced it cannot be trusted any
    further and is dropped by the receiver."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection (cleanly between frames, or torn
    mid-frame — both mean the in-flight work must be redistributed)."""


@dataclass(frozen=True)
class Handshake:
    """What each side advertises before any work flows.

    ``protocol`` is :data:`PROTOCOL_VERSION`; ``namespace`` is
    ``v<schema>-<version>``, the run-row schema
    (:data:`repro.experiments.cache.CACHE_SCHEMA` — result rows travel
    in the run cache's format) plus the library version — two processes
    in the same namespace price cells bitwise-identically; ``version``
    is ``repro.__version__``, carried separately so a rejection can name
    the human-readable culprit.
    """

    protocol: int
    namespace: str
    version: str

    @classmethod
    def local(cls) -> "Handshake":
        from .. import __version__
        from .cache import CACHE_SCHEMA

        return cls(
            protocol=PROTOCOL_VERSION,
            namespace=f"v{CACHE_SCHEMA}-{__version__}",
            version=__version__,
        )

    def reject_reason(self, theirs: "Handshake") -> str | None:
        """Why ``theirs`` cannot join a campaign run by us (or ``None``).

        Every field must match exactly: a worker with a different
        protocol cannot be spoken to, and one with a different schema
        namespace or library version would return rows this campaign
        cannot guarantee byte-identical to local execution.
        """
        if theirs.protocol != self.protocol:
            return f"protocol {theirs.protocol} != {self.protocol}"
        if theirs.namespace != self.namespace:
            return f"schema namespace {theirs.namespace!r} != {self.namespace!r}"
        if theirs.version != self.version:
            return f"repro version {theirs.version!r} != {self.version!r}"
        return None

    def to_message(self) -> dict:
        return {"kind": "hello", **asdict(self)}

    @classmethod
    def from_message(cls, message: dict) -> "Handshake":
        try:
            return cls(
                protocol=message["protocol"],
                namespace=message["namespace"],
                version=message["version"],
            )
        except KeyError as exc:
            raise FrameError(f"malformed hello message: missing {exc}") from None


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def send_message(sock: socket.socket, message: dict, *, endpoint: str | None = None) -> None:
    """Serialize and send one message as a single CRC-framed JSON frame.

    A message that is not JSON-safe is a programming error and raises
    ``TypeError``: the wire carries data only.  ``endpoint`` names the
    sending side for the deterministic network fault hook
    (``"worker"`` / ``"coordinator"``); ``None`` skips the hook
    entirely.
    """
    kind = message.get("kind")
    payload = json.dumps(message, sort_keys=True).encode()
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    # The CRC is taken over the *clean* payload before the fault hook so
    # an injected net_garble ships a corrupt frame under an honest CRC —
    # exactly what in-flight corruption looks like to the receiver.
    crc = zlib.crc32(payload)
    if endpoint is not None:
        action = faults.maybe_net(endpoint, kind)
        if action is not None:
            payload = _apply_net_fault(action, endpoint, kind, payload)
    header = _HEADER.pack(_KIND_JSON, len(payload), crc)
    sock.sendall(header + payload)


def _apply_net_fault(spec: "faults.FaultSpec", endpoint: str, kind: str | None, payload: bytes) -> bytes:
    """Enact one triggered network fault on an outgoing frame."""
    import time as _time

    if spec.mode == "net_drop":
        # the link died under this frame: the peer sees a closed
        # connection, the sender an ordinary connection-reset error
        raise ConnectionResetError(
            f"injected net_drop: {endpoint} frame {kind!r}"
        )
    if spec.mode == "net_stall":
        _time.sleep(spec.seconds)
        return payload
    # net_garble: corrupt the payload *after* the CRC hook point —
    # send_message computes the CRC over the clean bytes, so the
    # receiver's check fails and the frame is rejected, never parsed
    garbled = bytearray(payload)
    garbled[len(garbled) // 2] ^= 0xFF
    return bytes(garbled)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`ConnectionClosed`.

    ``socket.timeout`` passes through untouched: the caller's read
    timeout is its heartbeat/budget watchdog, not a protocol event.
    """
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionClosed(
                f"peer closed the connection ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> dict:
    """Receive one frame, verify its CRC, parse its JSON message.

    Raises :class:`FrameError` on a corrupt or malformed frame — a
    frame of any kind but JSON is refused before its payload is read —
    :class:`ConnectionClosed` when the peer went away, and lets the
    socket's own timeout exception propagate (the caller's liveness
    watchdog owns that clock).
    """
    header = _recv_exact(sock, _HEADER.size)
    frame_kind, length, crc = _HEADER.unpack(header)
    if frame_kind != _KIND_JSON:
        raise FrameError(f"unknown frame kind {frame_kind!r} (only JSON frames are accepted)")
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    payload = _recv_exact(sock, length)
    if zlib.crc32(payload) != crc:
        raise FrameError(
            f"CRC mismatch on {length}-byte frame (corrupted in flight?)"
        )
    try:
        message = json.loads(payload.decode())
    except Exception as exc:  # noqa: BLE001 — any undecodable payload
        raise FrameError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict) or "kind" not in message:
        raise FrameError(f"message without a kind: {message!r}")
    return message

"""The line-oriented communication protocol (Figure 4).

Lines arriving from the application that start with the prefix
character (``%`` by default) are Wafe commands; everything else is
passed through to Wafe's stdout.  A command must fit in one line; the
maximum length is a compile-time constant in the paper (64 kB default)
and a constructor argument here.

:class:`LineParser` is the transport-independent core -- a
:class:`LineChannel` feeds it whatever bytes its transport delivers; it
splits lines, enforces the length limit, and classifies command versus
passthrough.  The mass transfer channel bypasses this parser entirely
(:class:`MassTransferState`).
"""

import collections
import time as _time

from repro.tcl.errors import log_panic

DEFAULT_PREFIX = "%"
DEFAULT_MAX_LINE = 64 * 1024


class LineTooLong(Exception):
    """A protocol line exceeded the configured maximum."""


class LineParser:
    """Incremental splitter/classifier for the command channel."""

    def __init__(self, prefix=DEFAULT_PREFIX, max_line=DEFAULT_MAX_LINE):
        self.prefix = prefix
        self.max_line = max_line
        self._buffer = b""
        self._discarding = False  # inside an oversized line, pre-newline
        self.lines_seen = 0
        self.commands_seen = 0
        self.overlong_lines = 0

    def split_lines_tolerant(self, data):
        """Feed raw bytes; returns ``(lines, errors)``.

        An oversized line is reported as a :class:`LineTooLong` in
        ``errors`` and the parser *resynchronizes at the next newline*:
        valid lines before, after, and even interleaved with the
        overflow in the same read are all still returned.
        """
        if isinstance(data, str):
            data = data.encode("utf-8", "replace")
        self._buffer += data
        lines = []
        errors = []
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                if self._discarding:
                    self._buffer = b""
                elif len(self._buffer) > self.max_line:
                    # The line is already too long and its newline has
                    # not arrived yet: drop what we have and keep
                    # dropping until the next newline.
                    self._buffer = b""
                    self._discarding = True
                    self.overlong_lines += 1
                    errors.append(LineTooLong(
                        "protocol line exceeds %d bytes" % self.max_line))
                break
            raw = self._buffer[:newline]
            self._buffer = self._buffer[newline + 1 :]
            if self._discarding:
                # The tail of an oversized line already reported.
                self._discarding = False
                continue
            if len(raw) > self.max_line:
                self.overlong_lines += 1
                errors.append(LineTooLong(
                    "protocol line exceeds %d bytes" % self.max_line))
                continue
            lines.append(raw.decode("utf-8", "replace"))
        return lines, errors

    def split_lines(self, data):
        """Strict variant: raises the first :class:`LineTooLong`.

        The lines parsed from this feed (the parser has already
        resynchronized) ride along on the exception as ``err.lines``.
        """
        lines, errors = self.split_lines_tolerant(data)
        if errors:
            err = errors[0]
            err.lines = lines
            raise err
        return lines

    def classify(self, line):
        """One line -> ("command", body) or ("output", line)."""
        self.lines_seen += 1
        if line.startswith(self.prefix):
            self.commands_seen += 1
            return ("command", line[len(self.prefix):])
        return ("output", line)

    def feed(self, data):
        """Feed raw bytes; returns [("command"|"output", text), ...]."""
        return [self.classify(line) for line in self.split_lines(data)]


class LineChannel:
    """One endpoint of the line protocol, over a transport.

    Both halves of Wafe's process model are this one class: the stdio
    :class:`~repro.core.frontend.Frontend` (pipes to a spawned backend)
    and the server's :class:`~repro.server.session.Session` (a
    connected client) are the same channel over different transports.
    A transport offers ``read_obj()`` (registered for read-readiness),
    ``write_fd()``, ``recv()`` (bytes; ``b""`` on EOF or death; None on
    EAGAIN), ``send(chunk)`` (a byte count, or None on EAGAIN),
    ``flush()``, ``close()`` and a ``closed`` flag.

    Inbound, each read is split into lines; command lines run inside
    the panic firewall, one at a time (a ``%setPrefix`` affects the
    very next line), and the rest of a read is dropped as soon as the
    endpoint closes (``quit``) or is doomed.  Outbound:

    * ``send`` never blocks.  Text is coalesced in ``_out_buffer``;
      :meth:`flush` moves it to the wire; bytes the kernel will not
      take right now are parked in the ``_pending`` deque and drained
      by an output-readiness watch on the event core.
    * A peer that stops reading cannot buffer us to death: beyond
      ``high_water`` queued bytes, output is *dropped* with one
      reported overflow per episode (``dropped_bytes`` counts).
    * Frame-granularity pipelining: output batches until a flush
      point (end-of-dispatch frame hook, explicit sync, the end of a
      read, or the :attr:`FLUSH_THRESHOLD` latency bound).

    Subclasses supply the policy: ``high_water``, ``_report(message)``
    (a protocol error for the peer), ``_non_command(line)``,
    ``_transport_lost()`` and ``_report_overflow()``; they may extend
    :meth:`_line_too_long`, :meth:`_run_command` and :meth:`_after_read`.
    """

    # How much outbound data may accumulate before we stop deferring
    # to loop idle and write through (bounds latency; roughly one pipe
    # capacity so the write usually completes in one call).
    FLUSH_THRESHOLD = 32768

    #: A pending teardown reason: once set, the rest of a read is dropped.
    doomed = None

    def __init__(self, wafe, transport, parser, label, drain_label):
        self.wafe = wafe
        self.transport = transport
        self.parser = parser
        self.label = label
        self._drain_label = drain_label
        self._out_buffer = []
        self._out_buffered_bytes = 0
        self._pending = collections.deque()
        self._pending_bytes = 0
        self._flush_work_id = None
        self._output_id = None
        self._overflowed = False
        self.dropped_bytes = 0
        self.closed = False
        self.stats = self.zero_stats()
        self._input_id = wafe.app.add_input(transport.read_obj(),
                                            self._on_readable, label=label)
        wafe.app.add_frame_hook(self._frame_flush)

    @staticmethod
    def zero_stats():
        return {
            "sends": 0,          # send() calls (echo lines, replies)
            "pipe_writes": 0,    # successful write() syscalls
            "bytes_written": 0,
            "frame_flushes": 0,  # end-of-dispatch flushes with data
            "sync_points": 0,    # explicit sync-command flushes
        }

    def reset_stats(self):
        self.stats.update(self.zero_stats())

    # -- inbound ----------------------------------------------------------

    def _on_readable(self, fileobj):
        data = self.transport.recv()
        if data is None:
            return  # spurious wakeup
        if not data:
            self._peer_gone()
            return
        # An oversized line is reported and the parser resynchronizes
        # at the next newline; every valid line in the read -- before
        # or after the overflow -- is still processed.
        lines, errors = self.parser.split_lines_tolerant(data)
        for err in errors:
            self._line_too_long(err)
        for raw in lines:
            if self.closed or self.doomed:
                break
            kind, line = self.parser.classify(raw)
            if kind == "command":
                self._run_command(line)
            else:
                self._non_command(line)
        if self.closed:
            return
        self._after_read()
        # Replies the commands queued go out as one write, promptly --
        # a peer blocked on readline() must not wait for loop idle.
        self.flush()

    def _line_too_long(self, err):
        self._report(str(err))

    def _run_command(self, line):
        # Last-resort firewall: a Python exception escaping one line
        # must not tear down the reader (and with it the GUI); later
        # lines in this read still run.
        try:
            self.wafe.run_command_line(line)
        except Exception as exc:  # noqa: BLE001
            summary = log_panic('%s line "%s"' % (self.label, line[:80]),
                                exc)
            self._report("internal error evaluating line (%s)" % summary)

    def _after_read(self):
        """Hook: runs after a read's lines, before its flush."""

    # -- outbound ---------------------------------------------------------

    def queued_bytes(self):
        """Everything waiting to reach the peer."""
        return self._out_buffered_bytes + self._pending_bytes

    def send(self, text):
        """Queue ``text`` for the peer; order is preserved.

        The actual write happens in :meth:`flush` -- scheduled as an
        idle work proc so all the sends fired by one event become a
        single ``write()`` on the descriptor.  Data beyond the
        high-water mark is dropped with a reported error rather than
        buffered without bound (the peer is not reading)."""
        if self.closed or self.transport.closed:
            return
        if self.queued_bytes() + len(text) > self.high_water:
            self.dropped_bytes += len(text)
            if not self._overflowed:
                self._overflowed = True
                self._report_overflow()
            return
        self.stats["sends"] += 1
        self._out_buffer.append(text)
        self._out_buffered_bytes += len(text)
        if self._out_buffered_bytes >= self.FLUSH_THRESHOLD:
            self.flush()
        elif self._flush_work_id is None:
            self._flush_work_id = self.wafe.app.add_work_proc(
                self._idle_flush)

    def _idle_flush(self):
        self.flush()
        return True  # one-shot: the work proc removes itself

    def _frame_flush(self):
        """End-of-dispatch flush point: everything the frame's events
        echoed goes out as one write."""
        if self.closed:
            return
        if self._out_buffer:
            self.stats["frame_flushes"] += 1
            self.flush()

    def sync_point(self):
        """An explicit ``sync``: flush now.  Ordering is safe out of
        the box because all output -- echoes, callback replies, and the
        sync itself -- travels one FIFO buffer: everything sent before
        this point reaches the peer before anything sent after it."""
        self.stats["sync_points"] += 1
        self.flush()

    def flush(self):
        """Move queued text to the wire -- as much as the kernel accepts.

        Never blocks: what the kernel will not take right now stays in
        the pending queue and an output watch on the event loop drains
        it as the peer reads."""
        self._cancel_idle_flush()
        if self._out_buffer:
            data = "".join(self._out_buffer).encode("utf-8", "replace")
            self._out_buffer = []
            self._out_buffered_bytes = 0
            self._pending.append(data)
            self._pending_bytes += len(data)
        self._write_pending()

    def _write_pending(self):
        if self.closed or self.transport.closed:
            self._clear_outbound()
            return
        wrote_any = False
        while self._pending:
            chunk = self._pending[0]
            try:
                n = self.transport.send(chunk)
            except BlockingIOError as err:
                n = err.characters_written or None
            except (OSError, ValueError):
                self._peer_gone()
                return
            if n is None:       # EAGAIN: the descriptor is full
                break
            wrote_any = True
            self.stats["pipe_writes"] += 1
            self.stats["bytes_written"] += n
            self._pending_bytes -= n
            if n < len(chunk):  # partial write: descriptor is now full
                self._pending[0] = chunk[n:]
                break
            self._pending.popleft()
        if self._pending:
            if self._output_id is None:
                self._output_id = self.wafe.app.add_output(
                    self.transport.write_fd(), self._on_writable,
                    label=self._drain_label)
            return
        self._cancel_output_watch()
        self._overflowed = False  # drained: report again next time
        if wrote_any:
            try:
                self.transport.flush()
            except (OSError, ValueError):
                self._peer_gone()

    def _on_writable(self, fd):
        self._write_pending()

    def drain(self, deadline):
        """Bounded best-effort drain of queued output before teardown.

        The wait goes through the event core's ``wait_writable`` --
        EINTR-safe against the monotonic ``deadline``, and returning
        False on a dead descriptor -- so neither signal delivery nor a
        vanished peer can stall a close past its budget."""
        self.flush()
        core = self.wafe.app.core
        fd = self.transport.write_fd()
        while self._pending and not self.closed:
            remaining = deadline - _time.monotonic()
            if remaining <= 0 or not core.wait_writable(fd, remaining):
                break
            self._write_pending()

    # -- teardown ---------------------------------------------------------

    def _peer_gone(self):
        """EOF, or a write found the peer dead: nothing more will be
        read, and queued output can never arrive."""
        self._remove_reader()
        self._clear_outbound()
        self._transport_lost()

    def _remove_reader(self):
        if self._input_id is not None:
            self.wafe.app.remove_input(self._input_id)
            self._input_id = None

    def _detach(self):
        """Close the channel: no more reads, flush points or output."""
        self.closed = True
        self.wafe.app.remove_frame_hook(self._frame_flush)
        self._clear_outbound()
        self._remove_reader()

    def _cancel_idle_flush(self):
        if self._flush_work_id is not None:
            self.wafe.app.remove_work_proc(self._flush_work_id)
            self._flush_work_id = None

    def _cancel_output_watch(self):
        if self._output_id is not None:
            self.wafe.app.remove_output(self._output_id)
            self._output_id = None

    def _clear_outbound(self):
        self._out_buffer = []
        self._out_buffered_bytes = 0
        self._pending.clear()
        self._pending_bytes = 0
        self._cancel_output_watch()
        self._cancel_idle_flush()


#: The benchmark probes (``perfbench/probes.py``) patch this name.
OutboundChannel = LineChannel


class MassTransferState:
    """State for one ``setCommunicationVariable`` request.

    Accumulates raw bytes from the mass channel; once ``limit`` bytes
    have arrived the data is stored into the named Tcl variable and the
    completion script runs ("After 100000 bytes are read, the Tcl
    command specified in the last argument will be executed").
    """

    def __init__(self, var_name, limit, completion_script):
        self.var_name = var_name
        self.limit = limit
        self.completion_script = completion_script
        self.received = b""

    def feed(self, data):
        """Returns (payload, leftover) when complete, else None."""
        self.received += data
        if len(self.received) >= self.limit:
            payload = self.received[: self.limit]
            leftover = self.received[self.limit :]
            return payload, leftover
        return None

    @property
    def missing(self):
        return max(0, self.limit - len(self.received))

"""The unified ``repro.*`` logger hierarchy.

Every module that emits diagnostics gets its logger through
:func:`get_logger`, which namespaces under ``repro.`` — e.g. the store
auto-GC notice logs as ``repro.engine.store`` and the HTTP server as
``repro.serve``.  Nothing is printed until :func:`configure_logging`
installs a handler; the CLI entry point calls it once, so importing
``repro`` as a library stays silent (stdlib logging etiquette).

Environment knobs (read by :func:`configure_logging` when the caller
passes no explicit override):

``REPRO_LOG``
    Level name or number (``debug``, ``info``, ``warning``, ...).
    Default ``info`` — surfaces the auto-GC notice and server request
    lines without drowning campaign output.
``REPRO_LOG_FORMAT``
    ``text`` (default) or ``json`` — JSON lines with ``ts``, ``level``,
    ``logger``, ``msg`` keys, one object per line, for log shippers.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from typing import IO

LOG_ENV = "REPRO_LOG"
LOG_FORMAT_ENV = "REPRO_LOG_FORMAT"

_ROOT = "repro"
#: Marker attribute so reconfiguration replaces our handler, not others.
_HANDLER_TAG = "_repro_obs_handler"


class JsonLineFormatter(logging.Formatter):
    """One JSON object per record: ts, level, logger, msg (+ exc)."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": round(record.created, 3),
            "iso": time.strftime(
                "%Y-%m-%dT%H:%M:%S", time.gmtime(record.created)
            )
            + f".{int(record.msecs):03d}Z",
            "level": record.levelname.lower(),
            "logger": record.name,
            "msg": record.getMessage(),
        }
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True)


class _StderrHandler(logging.StreamHandler):
    """Writes to whatever ``sys.stderr`` is when a record is emitted, not
    the stream it was at configuration time — that one may be closed by
    then (a capture harness swapped it in and out again)."""

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self) -> IO[str]:
        return sys.stderr


def get_logger(name: str = "") -> logging.Logger:
    """Logger under the ``repro.`` hierarchy (``get_logger("serve")`` →
    ``repro.serve``; an already-qualified ``repro...`` name passes
    through; empty name → the ``repro`` root)."""
    if not name:
        return logging.getLogger(_ROOT)
    if name == _ROOT or name.startswith(_ROOT + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT}.{name}")


def _resolve_level(level: str | int | None) -> int:
    import os

    if level is None:
        level = os.environ.get(LOG_ENV, "info")
    if isinstance(level, int):
        return level
    text = str(level).strip()
    if text.isdigit():
        return int(text)
    resolved = logging.getLevelName(text.upper())
    if isinstance(resolved, int):
        return resolved
    raise ValueError(f"unknown {LOG_ENV} level {level!r}")


def configure_logging(
    level: str | int | None = None,
    fmt: str | None = None,
    stream: IO[str] | None = None,
) -> logging.Logger:
    """Install (or replace) the single handler on the ``repro`` root.

    Arguments override the ``REPRO_LOG`` / ``REPRO_LOG_FORMAT``
    environment knobs; idempotent, so tests and the CLI can call it
    repeatedly with different settings.  Records go to ``stream`` when
    one is given, else to the current ``sys.stderr`` at each emit.
    Returns the root logger.
    """
    import os

    if fmt is None:
        fmt = os.environ.get(LOG_FORMAT_ENV, "text")
    fmt = fmt.strip().lower()
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown {LOG_FORMAT_ENV} value {fmt!r}")

    root = logging.getLogger(_ROOT)
    for handler in list(root.handlers):
        if getattr(handler, _HANDLER_TAG, False):
            root.removeHandler(handler)

    handler = logging.StreamHandler(stream) if stream is not None else _StderrHandler()
    setattr(handler, _HANDLER_TAG, True)
    if fmt == "json":
        handler.setFormatter(JsonLineFormatter())
    else:
        handler.setFormatter(
            logging.Formatter("%(levelname).1s %(name)s: %(message)s")
        )
    root.addHandler(handler)
    root.setLevel(_resolve_level(level))
    # Propagation stays on: the stdlib root logger has no handlers in
    # CLI use (so nothing prints twice), while capture harnesses that
    # hook the root — pytest's caplog above all — keep seeing repro
    # records after the CLI has configured itself.
    return root

"""Structured (key=value) logging on top of the stdlib ``logging``.

Library code logs events, not prose: an event name plus keyword fields,
rendered as ``ts level logger event key=value ...``. That keeps the
output grep-able and machine-parseable while staying ordinary stdlib
logging underneath — handlers, levels, and propagation all behave as
usual, and applications embedding ``repro`` can attach their own
handlers instead of calling :func:`configure_logging`.

The library itself never configures handlers at import time; the CLI
calls :func:`configure_logging` with the verbosity implied by
``-v`` / ``--quiet``.
"""

from __future__ import annotations

import logging
import sys

__all__ = [
    "StructuredLogger",
    "configure_logging",
    "format_fields",
    "get_logger",
]

_ROOT_NAME = "repro"


def format_fields(fields: dict) -> str:
    """Render fields as ``key=value`` pairs, quoting values with spaces."""
    parts = []
    for key, value in fields.items():
        if isinstance(value, float):
            text = f"{value:.6g}"
        else:
            text = str(value)
        if " " in text or "=" in text or not text:
            text = '"' + text.replace('"', '\\"') + '"'
        parts.append(f"{key}={text}")
    return " ".join(parts)


class StructuredLogger:
    """A thin key=value wrapper over one stdlib logger."""

    __slots__ = ("_logger",)

    def __init__(self, logger: logging.Logger) -> None:
        self._logger = logger

    def _log(self, level: int, event: str, fields: dict) -> None:
        if self._logger.isEnabledFor(level):
            message = event if not fields \
                else f"{event} {format_fields(fields)}"
            self._logger.log(level, message)

    def debug(self, event: str, **fields) -> None:
        """Log at DEBUG."""
        self._log(logging.DEBUG, event, fields)

    def info(self, event: str, **fields) -> None:
        """Log at INFO."""
        self._log(logging.INFO, event, fields)

    def warning(self, event: str, **fields) -> None:
        """Log at WARNING."""
        self._log(logging.WARNING, event, fields)

    def error(self, event: str, **fields) -> None:
        """Log at ERROR."""
        self._log(logging.ERROR, event, fields)


def get_logger(name: str) -> StructuredLogger:
    """The structured logger for a subsystem, e.g. ``corpus.generator``.

    Names are rooted under ``repro`` so one :func:`configure_logging`
    call governs the whole library.
    """
    if not name.startswith(_ROOT_NAME):
        name = f"{_ROOT_NAME}.{name}"
    return StructuredLogger(logging.getLogger(name))


def configure_logging(verbosity: int = 0,
                      stream=None) -> logging.Logger:
    """Install a stderr handler on the ``repro`` logger.

    Args:
        verbosity: ``-1`` quiet (errors only), ``0`` default (warnings),
            ``1`` info, ``2+`` debug — the CLI maps ``--quiet``/``-v``
            counts onto this.
        stream: Override the output stream (tests pass a StringIO).

    Re-invoking replaces the previously installed handler, so repeated
    CLI entry points (tests call ``main()`` many times) don't stack
    duplicate handlers.
    """
    if verbosity <= -1:
        level = logging.ERROR
    elif verbosity == 0:
        level = logging.WARNING
    elif verbosity == 1:
        level = logging.INFO
    else:
        level = logging.DEBUG
    root = logging.getLogger(_ROOT_NAME)
    root.setLevel(level)
    for handler in [h for h in root.handlers
                    if getattr(h, "_repro_obs", False)]:
        root.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler._repro_obs = True  # type: ignore[attr-defined]
    handler.setFormatter(logging.Formatter(
        "%(asctime)s %(levelname)s %(name)s %(message)s",
        datefmt="%H:%M:%S"))
    root.addHandler(handler)
    root.propagate = False
    return root

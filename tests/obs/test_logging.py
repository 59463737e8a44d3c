"""Unit tests for structured key=value logging."""

import io
import logging

from repro.obs.logging import (
    configure_logging,
    format_fields,
    get_logger,
)


def _capture(verbosity):
    stream = io.StringIO()
    configure_logging(verbosity, stream=stream)
    return stream


def teardown_module():
    # Leave the repro logger unconfigured for other tests.
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        root.removeHandler(handler)
    root.setLevel(logging.NOTSET)
    root.propagate = True


class TestFormatFields:
    def test_plain_pairs(self):
        assert format_fields({"a": 1, "b": "x"}) == "a=1 b=x"

    def test_floats_are_compact(self):
        assert format_fields({"t": 0.123456789}) == "t=0.123457"

    def test_values_with_spaces_are_quoted(self):
        assert format_fields({"msg": "two words"}) == 'msg="two words"'


class TestStructuredLogger:
    def test_info_renders_event_and_fields(self):
        stream = _capture(verbosity=1)
        get_logger("corpus.generator").info("done", n=3, ok=True)
        line = stream.getvalue().strip()
        assert "repro.corpus.generator" in line
        assert line.endswith("done n=3 ok=True")

    def test_default_verbosity_hides_info(self):
        stream = _capture(verbosity=0)
        log = get_logger("x")
        log.info("hidden")
        log.warning("shown")
        output = stream.getvalue()
        assert "hidden" not in output
        assert "shown" in output

    def test_quiet_hides_warnings(self):
        stream = _capture(verbosity=-1)
        log = get_logger("x")
        log.warning("hidden")
        log.error("shown", code=2)
        output = stream.getvalue()
        assert "hidden" not in output
        assert "shown code=2" in output

    def test_debug_level(self):
        stream = _capture(verbosity=2)
        get_logger("x").debug("details", k="v")
        assert "details k=v" in stream.getvalue()

    def test_reconfigure_does_not_stack_handlers(self):
        _capture(verbosity=1)
        stream = _capture(verbosity=1)
        get_logger("x").info("once")
        assert stream.getvalue().count("once") == 1

    def test_names_rooted_under_repro(self):
        assert get_logger("cli")._logger.name == "repro.cli"
        assert get_logger("repro.cli")._logger.name == "repro.cli"

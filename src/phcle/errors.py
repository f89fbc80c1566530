"""Exception types shared across the package, and the opening of input
files whose undecodable bytes those errors name."""

import io
from contextlib import contextmanager


class ParseError(ValueError):
    """Malformed input file. Carries the offending path and 1-based line number."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = str(path) if path is not None else ""
        if line is not None:
            prefix = f"{prefix}:{line}" if prefix else f"line {line}"
        super().__init__(f"{prefix}: {message}" if prefix else message)


class UnsupportedVersionError(ValueError):
    """Model file written with a format version this build does not read."""


class DivergenceError(RuntimeError):
    """Optimization blew up. Carries the iteration at which it was detected."""

    def __init__(self, iteration, message):
        self.iteration = iteration
        super().__init__(message)


@contextmanager
def naming_undecodable(path, raw):
    """Re-raise a ``UnicodeDecodeError`` from the block as a
    :class:`ParseError` naming ``path``, the bad byte's line and its
    position in the file; ``raw`` is the seekable binary handle under the
    text."""
    try:
        yield
    except UnicodeDecodeError as exc:
        line = None
        raw.seek(0)
        data = raw.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as whole:
            exc, at = whole, whole.start
            line = 1 + data.count(b"\n", 0, at) + data.count(b"\r", 0, at) - data.count(b"\r\n", 0, at)
        raise ParseError(str(exc), path=path, line=line) from None


def _opened(path):
    """Open ``path`` once for binary reading; a file that cannot seek (a
    pipe) is read into memory, so that a reader can go back over it."""
    fh = open(path, "rb")
    if fh.seekable():
        return fh
    with fh:
        return io.BytesIO(fh.read())


def read_text(path) -> str:
    """Return the UTF-8 text of ``path``, its line ends translated as
    ``open(path)`` does; an undecodable byte raises a :class:`ParseError`
    naming the path, the byte's line and its position in the file."""
    with io.TextIOWrapper(_opened(path), encoding="utf-8") as fh, naming_undecodable(path, fh.buffer):
        return fh.read()

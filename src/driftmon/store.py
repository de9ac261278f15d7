"""Filesystem-backed document store with hierarchical keys.

Keys are short slash-rendered segment paths; each key maps to one JSON
document on disk (segments become directories, the last segment a file).
Writes replace atomically via a temp file and ``os.replace``, and the
serialization is canonical (sorted keys, 17-significant-digit reals), so
re-serialising an unchanged record is byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from .errors import StorageError, ValidationError

__all__ = [
    "StoreKey",
    "FileStore",
    "dumps_doc",
    "loads_doc",
    "format_real",
]

#: One key segment, matched whole.  ``.`` and ``..`` are excluded because a
#: path would resolve them outside the key's place.
_SEGMENT_RE = re.compile(r"(?!\.\.?\Z)[A-Za-z0-9._-]+")
_MAX_SEGMENTS = 8
_MAX_RENDERED = 512
_FILE_SUFFIX = ".json"


@dataclass(frozen=True)
class StoreKey:
    """Ordered, validated key segments; renders as ``seg/seg/.../seg``."""

    segments: tuple[str, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.segments) <= _MAX_SEGMENTS:
            raise ValidationError(
                f"keys must have 1..{_MAX_SEGMENTS} segments, got {len(self.segments)}"
            )
        for seg in self.segments:
            if not _SEGMENT_RE.fullmatch(seg):
                raise ValidationError(f"invalid key segment {seg!r}")
        if len(self.render()) > _MAX_RENDERED:
            raise ValidationError(f"rendered key exceeds {_MAX_RENDERED} characters")

    @classmethod
    def of(cls, *segments: str) -> "StoreKey":
        return cls(tuple(segments))

    @classmethod
    def parse(cls, rendered: str) -> "StoreKey":
        return cls(tuple(rendered.split("/")))

    def child(self, *segments: str) -> "StoreKey":
        return StoreKey(self.segments + tuple(segments))

    def render(self) -> str:
        return "/".join(self.segments)

    def __str__(self) -> str:
        return self.render()


def format_real(x: float) -> str:
    """Render a float with 17 significant digits (lossless round trip).

    Integral values keep a trailing ``.0`` so the type survives a parse.
    """
    if not math.isfinite(x):
        raise ValidationError(f"cannot serialise non-finite real {x!r}")
    text = format(x, ".17g")
    if not any(c in text for c in ".eE"):
        text += ".0"
    return text


def _write_value(value: Any, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(repr(value))
    elif isinstance(value, float):
        out.append(format_real(value))
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, dict):
        out.append("{")
        for i, k in enumerate(sorted(value)):
            if not isinstance(k, str):
                raise ValidationError(f"document keys must be strings, got {k!r}")
            if i:
                out.append(", ")
            out.append(json.dumps(k, ensure_ascii=False))
            out.append(": ")
            _write_value(value[k], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(", ")
            _write_value(item, out)
        out.append("]")
    else:
        raise ValidationError(f"cannot serialise value of type {type(value).__name__}")


def dumps_doc(value: Any) -> str:
    """Serialise to canonical single-line JSON with a trailing newline."""
    out: list[str] = []
    _write_value(value, out)
    out.append("\n")
    return "".join(out)


def loads_doc(body: str) -> Any:
    """Parse a stored document back into plain Python values."""
    return json.loads(body)


class FileStore:
    """Document store rooted at a directory.

    A key's parent segments map to directories and the final segment to a
    ``.json`` file, so whole-segment prefix listing and deletion are plain
    directory operations and ``model/m1`` can never match ``model/m10``.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StorageError(f"cannot create store root {self.root}: {exc}") from exc

    def _file_path(self, key: StoreKey) -> Path:
        return self.root.joinpath(*key.segments[:-1], key.segments[-1] + _FILE_SUFFIX)

    def _dir_path(self, key: StoreKey) -> Path:
        return self.root.joinpath(*key.segments)

    def put(self, key: StoreKey, body: str) -> None:
        """Atomically create or replace the document at ``key``."""
        try:
            loads_doc(body)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"body for {key} is not a well-formed document: {exc}") from exc
        path = self._file_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".put-", suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(body)
                os.replace(tmp_name, path)
            except BaseException:
                os.unlink(tmp_name)
                raise
        except OSError as exc:
            raise StorageError(f"cannot write {key}: {exc}") from exc

    def get(self, key: StoreKey) -> str | None:
        """Body at ``key``, or None when absent (absence is not an error)."""
        path = self._file_path(key)
        try:
            return path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StorageError(f"cannot read {key}: {exc}") from exc

    def _keys_under(self, prefix: StoreKey) -> Iterator[StoreKey]:
        base = self._dir_path(prefix)
        if not base.is_dir():
            return
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            rel = Path(dirpath).relative_to(self.root)
            for name in sorted(filenames):
                if name.endswith(_FILE_SUFFIX):
                    yield StoreKey(rel.parts + (name[: -len(_FILE_SUFFIX)],))

    def list(self, prefix: StoreKey) -> list[StoreKey]:
        """All keys equal to or nested under ``prefix``, sorted by rendering."""
        keys = list(self._keys_under(prefix))
        if self._file_path(prefix).is_file():
            keys.append(prefix)
        return sorted(keys, key=StoreKey.render)

    def delete(self, prefix: StoreKey) -> int:
        """Remove ``prefix`` and everything under it; returns documents removed."""
        count = len(self.list(prefix))
        try:
            subtree = self._dir_path(prefix)
            if subtree.is_dir():
                shutil.rmtree(subtree)
            file_path = self._file_path(prefix)
            if file_path.is_file():
                file_path.unlink()
        except OSError as exc:
            raise StorageError(f"cannot delete {prefix}: {exc}") from exc
        return count

    def remove(self, key: StoreKey) -> bool:
        """Remove exactly one document, leaving any nested keys in place."""
        path = self._file_path(key)
        try:
            path.unlink()
            return True
        except FileNotFoundError:
            return False
        except OSError as exc:
            raise StorageError(f"cannot delete {key}: {exc}") from exc

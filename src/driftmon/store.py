"""Filesystem-backed document store with hierarchical keys.

Keys are short slash-rendered segment paths; each key maps to one JSON
document on disk (segments become directories, the last segment a file).
Writes go to a temp file first: ``put`` replaces atomically with
``os.replace``, and ``create`` links the temp file in with ``os.link``,
which fails rather than overwrite.  The serialization is canonical (sorted
keys, 17-significant-digit reals), so re-serialising an unchanged record is
byte-identical.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import shutil
from pathlib import Path
from typing import Any, NoReturn

from ._record import Record
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


class StoreKey(Record):
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


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"non-finite number {name} in a document")


#: ``json.loads`` accepts ``NaN`` and ``Infinity``, which ``format_real``
#: never writes.  One decoder is built here: passing ``parse_constant`` to
#: ``json.loads`` would build one per call.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def loads_doc(body: str) -> Any:
    """Parse a stored document back into plain Python values.

    A non-finite number (``NaN``, ``Infinity``, ``-Infinity``) is a
    ``ValueError``: the canonical writer never emits one.
    """
    return _DECODER.decode(body)


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

    # Paths are plain strings, not Path objects: a query reads one document
    # per record and lists one prefix per stored day, so per-call cost counts.

    def _dir_path(self, key: StoreKey) -> str:
        return os.path.join(self.root, *key.segments)

    def _file_path(self, key: StoreKey) -> str:
        return self._dir_path(key) + _FILE_SUFFIX

    def put(self, key: StoreKey, body: str) -> None:
        """Atomically create or replace the document at ``key``."""
        tmp, path = self._write_temp(key, body)
        try:
            try:
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as exc:
            raise StorageError(f"cannot write {key}: {exc}") from exc

    def create(self, key: StoreKey, body: str) -> bool:
        """Atomically create the document at ``key`` unless one is there.

        Returns False, and writes nothing, when ``key`` already holds a
        document, even one a concurrent writer put there.
        """
        tmp, path = self._write_temp(key, body)
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        except OSError as exc:
            raise StorageError(f"cannot write {key}: {exc}") from exc
        finally:
            os.unlink(tmp)
        return True

    def _write_temp(self, key: StoreKey, body: str) -> tuple[str, str]:
        """Check ``body`` and write it to a new temp file beside ``key``'s
        file; returns the temp file's path and the document's."""
        try:
            loads_doc(body)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"body for {key} is not a well-formed document: {exc}") from exc
        path = self._file_path(key)
        parent = os.path.dirname(path)
        try:
            os.makedirs(parent, exist_ok=True)
            fd = None
            while fd is None:
                # O_EXCL: two writers never share a temp file.
                tmp = os.path.join(parent, f".put-{os.urandom(6).hex()}.tmp")
                with contextlib.suppress(FileExistsError):
                    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(body)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as exc:
            raise StorageError(f"cannot write {key}: {exc}") from exc
        return tmp, path

    def get(self, key: StoreKey) -> str | None:
        """Body at ``key``, or None when absent (absence is not an error)."""
        try:
            with open(self._file_path(key), encoding="utf-8") as handle:
                return handle.read()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StorageError(f"cannot read {key}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise StorageError(f"cannot read {key}: not UTF-8 text ({exc.reason})") from exc

    def children(self, prefix: StoreKey) -> list[str]:
        """Sorted names of the directories directly under ``prefix``.

        Only names that can extend ``prefix`` into a key are returned; a
        stray name is passed over, as ``list`` passes over stray files.
        """
        try:
            with os.scandir(self._dir_path(prefix)) as entries:
                names = [entry.name for entry in entries if entry.is_dir()]
        except (FileNotFoundError, NotADirectoryError):
            return []
        except OSError as exc:
            raise StorageError(f"cannot list {prefix}: {exc}") from exc
        children = []
        for name in sorted(names):
            try:
                prefix.child(name)
            except ValidationError:
                continue
            children.append(name)
        return children

    def list(self, prefix: StoreKey) -> list[StoreKey]:
        """All keys equal to or nested under ``prefix``, sorted by rendering."""
        base = self._dir_path(prefix)  # a missing ``base`` walks as empty
        keys = [prefix] if os.path.isfile(self._file_path(prefix)) else []
        for dirpath, _, filenames in os.walk(base):
            segments = prefix.segments + tuple(dirpath[len(base) :].split(os.sep)[1:])
            for name in filenames:
                if name.endswith(_FILE_SUFFIX):
                    try:
                        keys.append(StoreKey(segments + (name[: -len(_FILE_SUFFIX)],)))
                    except ValidationError:
                        # Not a name the store writes, as with ``.put-*.tmp``
                        # leftovers: a stray file or directory is passed over.
                        pass
        return sorted(keys, key=StoreKey.render)

    def delete(self, prefix: StoreKey) -> int:
        """Remove ``prefix`` and everything under it; returns documents removed."""
        count = len(self.list(prefix))
        try:
            subtree = self._dir_path(prefix)
            if os.path.isdir(subtree):
                shutil.rmtree(subtree)
            file_path = self._file_path(prefix)
            if os.path.isfile(file_path):
                os.unlink(file_path)
        except OSError as exc:
            raise StorageError(f"cannot delete {prefix}: {exc}") from exc
        return count

    def remove(self, key: StoreKey) -> bool:
        """Remove exactly one document, leaving any nested keys in place."""
        try:
            os.unlink(self._file_path(key))
            return True
        except FileNotFoundError:
            return False
        except OSError as exc:
            raise StorageError(f"cannot delete {key}: {exc}") from exc

"""Filesystem-backed document store with hierarchical keys.

Keys are short slash-rendered segment paths; each key maps to one JSON
document on disk (segments become directories, the last segment a file).
Writes go to a temp file first: ``put`` replaces atomically with
``os.replace``, and ``create`` links the temp file in with ``os.link``,
which fails rather than overwrite.  The serialization is canonical (sorted
keys, reals as ``repr``), so re-serialising an unchanged record is
byte-identical.
"""

from __future__ import annotations

import contextlib
import json
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


def _reject_type(value: Any) -> NoReturn:
    raise TypeError(f"cannot serialise value of type {type(value).__name__}")


#: One encoder, built once: ``json.dumps`` with these options would build
#: one per call.  Without the circular check, a cycle fails as nesting does.
_ENCODER = json.JSONEncoder(
    sort_keys=True,
    ensure_ascii=False,
    allow_nan=False,
    check_circular=False,
    default=_reject_type,
)


def _check_keys(value: Any) -> None:
    """Reject a non-string key at any depth: ``json`` would write
    ``{1: "a"}`` as ``{"1": "a"}``.  Called once ``value`` has encoded, so
    it holds no cycle and no nesting past the recursion limit."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, dict):
            for key in item:
                if not isinstance(key, str):
                    raise ValidationError(f"document keys must be strings, got {key!r}")
            item = item.values()
        elif not isinstance(item, (list, tuple)):
            continue
        pending += [v for v in item if isinstance(v, (dict, list, tuple))]


def dumps_doc(value: Any) -> str:
    """Serialise to canonical single-line JSON with a trailing newline."""
    try:
        body = _ENCODER.encode(value)
    except RecursionError as exc:
        raise ValidationError("cannot serialise a value nested this deeply") from exc
    except TypeError as exc:
        raise ValidationError(str(exc)) from exc
    except ValueError as exc:
        raise ValidationError(f"cannot serialise a non-finite or oversized number: {exc}") from exc
    _check_keys(value)
    return body + "\n"


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"non-finite number {name} in a document")


#: ``json.loads`` accepts ``NaN`` and ``Infinity``, which ``dumps_doc``
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
        except (RecursionError, TypeError, ValueError) as exc:
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

"""The results bundle: the on-disk format of one experiment's results.

A bundle is a directory, not an archive, so the NDJSON files stream
straight into analysis:

    config.json             byte-identical snapshot of the input config
    client_records.ndjson   one client record per frontend request
    events.ndjson           every parsed log event from every platform
    rejects.log             raw lines that failed to parse
    audit.json              metadata plus the provisioning/teardown trail

This module is the one that knows the layout, and the one statement of
an event line: :class:`LogEvent` declares the fields that tracing writes,
that :func:`parse_event_line` checks and that analysis reads. It imports
nothing of the runtime, so that ``befaas analyze`` and ``befaas report``
stay lean.
"""
from __future__ import annotations

import contextlib
import json
import os
from dataclasses import MISSING, dataclass, fields
from typing import IO, Iterable, Iterator, get_args, get_type_hints

#: The kinds of event an invocation records about itself, and about each
#: of its outgoing function and external-service calls.
INVOCATION_KINDS = frozenset({"invocation_start", "invocation_end", "cold_start"})
CALL_KINDS = frozenset({"call_start", "call_end", "external_start", "external_end"})


@dataclass(frozen=True)
class LogEvent:
    """One timestamped record on a function's logging stream.

    Its line is a JSON object with the fields in declaration order; a field
    that holds its default is left out. The fields without a default are
    required in a line.
    """

    event_kind: str
    ts_us: int
    fn: str
    context_id: str
    pair_id: str
    executor_id: str | None = None
    platform: str | None = None
    call_pair_id: str | None = None
    target: str | None = None
    error: bool = False

    def to_line(self) -> str:
        return json.dumps({name: value for name, value in vars(self).items()
                           if value is not _EVENT_DEFAULTS[name]}, separators=(",", ":"))


#: Each event field's default (MISSING where the field is required) and
#: its type in a line (the ``str`` of ``str | None``), read once.
_EVENT_DEFAULTS = {f.name: f.default for f in fields(LogEvent)}
_EVENT_TYPES = {name: (get_args(hint) or (hint,))[0]
                for name, hint in get_type_hints(LogEvent).items()}
_EVENT_KINDS = INVOCATION_KINDS | CALL_KINDS


def parse_event_line(line: str) -> dict:
    """Parse one NDJSON log line into an event dict.

    Unknown fields are kept (consumers ignore what they do not understand);
    a missing required field, a declared field of another type (``null``
    included, and a boolean for an integer) or an unknown kind raises
    ValueError.
    """
    doc = json.loads(line)
    if not isinstance(doc, dict):
        raise ValueError("event line is not an object")
    for name, kind in _EVENT_TYPES.items():
        if name in doc:
            if type(doc[name]) is not kind:  # JSON values are of exact types
                raise ValueError(f"event field {name!r} must be of type {kind.__name__}")
        elif _EVENT_DEFAULTS[name] is MISSING:
            raise ValueError(f"event line missing field {name!r}")
    if doc["event_kind"] not in _EVENT_KINDS:
        raise ValueError(f"unknown event kind {doc['event_kind']!r}")
    return doc


class NdjsonFile:
    """The records of one NDJSON file, parsed afresh on every iteration.

    Iterating yields one dict per non-blank line, so a bundle far larger
    than memory can stream through analysis; ``len`` counts those lines.
    A missing file reads as empty.
    """

    def __init__(self, path: str):
        self.path = path

    def _lines(self) -> Iterator[str]:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    yield line

    def __iter__(self) -> Iterator[dict]:
        return map(json.loads, self._lines())

    def __len__(self) -> int:
        return sum(1 for _ in self._lines())


@contextlib.contextmanager
def _replacing(path: str, mode: str) -> Iterator[IO]:
    """Open a temporary file beside ``path`` and move it into place when
    the block completes, so that a bundle read from this directory is
    never truncated while its files are still being streamed from."""
    part = path + ".part"
    try:
        with open(part, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(part, path)
    finally:
        if os.path.exists(part):
            os.unlink(part)


@dataclass
class ResultsBundle:
    """The joint results of one experiment.

    A bundle built by a run holds lists; a bundle from ``read`` holds an
    ``NdjsonFile`` for each NDJSON file, which can be iterated any number
    of times and sized with ``len``.
    """

    out_dir: str
    client_records: Iterable[dict]
    events: Iterable[dict]
    rejects: list[str]
    audit: dict
    incomplete: bool = False

    @classmethod
    def read(cls, bundle_dir: str) -> "ResultsBundle":
        rejects_path = os.path.join(bundle_dir, "rejects.log")
        rejects = []
        if os.path.exists(rejects_path):
            with open(rejects_path, "r", encoding="utf-8") as fh:
                rejects = [line.rstrip("\n") for line in fh]
        with open(os.path.join(bundle_dir, "audit.json"), "r", encoding="utf-8") as fh:
            audit = json.load(fh)
        return cls(
            out_dir=bundle_dir,
            client_records=NdjsonFile(os.path.join(bundle_dir, "client_records.ndjson")),
            events=NdjsonFile(os.path.join(bundle_dir, "events.ndjson")),
            rejects=rejects,
            audit=audit,
            incomplete=bool(audit.get("incomplete")),
        )

    def write(self, config_bytes: bytes) -> None:
        """Write the five bundle files into ``out_dir``."""
        os.makedirs(self.out_dir, exist_ok=True)
        with _replacing(os.path.join(self.out_dir, "config.json"), "wb") as fh:
            fh.write(config_bytes)
        for name, docs in (("client_records.ndjson", self.client_records),
                           ("events.ndjson", self.events)):
            with _replacing(os.path.join(self.out_dir, name), "w") as fh:
                for doc in docs:
                    fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
        with _replacing(os.path.join(self.out_dir, "rejects.log"), "w") as fh:
            for line in self.rejects:
                fh.write(line + "\n")
        with _replacing(os.path.join(self.out_dir, "audit.json"), "w") as fh:
            json.dump(self.audit, fh, indent=2)

"""The results bundle: the on-disk format of one experiment's results.

A bundle is a directory, not an archive, so the NDJSON files stream
straight into analysis:

    config.json             byte-identical snapshot of the input config
    client_records.ndjson   one client record per frontend request
    events.ndjson           every parsed log event from every platform
    rejects.log             raw lines that failed to parse
    audit.json              metadata plus the provisioning/teardown trail

This module is the one that knows the layout. It imports nothing of the
runtime, so that ``befaas analyze`` and ``befaas report`` stay lean.
"""
from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass
from typing import IO, Iterable, Iterator


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

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

import json
import os
from dataclasses import dataclass


@dataclass
class ResultsBundle:
    """The joint results of one experiment."""

    out_dir: str
    client_records: list[dict]
    events: list[dict]
    rejects: list[str]
    audit: dict
    incomplete: bool = False

    @classmethod
    def read(cls, bundle_dir: str) -> "ResultsBundle":
        def read_ndjson(name: str) -> list[dict]:
            path = os.path.join(bundle_dir, name)
            if not os.path.exists(path):
                return []
            with open(path, "r", encoding="utf-8") as fh:
                return [json.loads(line) for line in fh if line.strip()]

        rejects_path = os.path.join(bundle_dir, "rejects.log")
        rejects = []
        if os.path.exists(rejects_path):
            with open(rejects_path, "r", encoding="utf-8") as fh:
                rejects = [line.rstrip("\n") for line in fh]
        with open(os.path.join(bundle_dir, "audit.json"), "r", encoding="utf-8") as fh:
            audit = json.load(fh)
        return cls(
            out_dir=bundle_dir,
            client_records=read_ndjson("client_records.ndjson"),
            events=read_ndjson("events.ndjson"),
            rejects=rejects,
            audit=audit,
            incomplete=bool(audit.get("incomplete")),
        )

    def write(self, config_bytes: bytes) -> None:
        """Write the five bundle files into ``out_dir``."""
        os.makedirs(self.out_dir, exist_ok=True)
        with open(os.path.join(self.out_dir, "config.json"), "wb") as fh:
            fh.write(config_bytes)
        for name, docs in (("client_records.ndjson", self.client_records),
                           ("events.ndjson", self.events)):
            with open(os.path.join(self.out_dir, name), "w", encoding="utf-8") as fh:
                for doc in docs:
                    fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
        with open(os.path.join(self.out_dir, "rejects.log"), "w", encoding="utf-8") as fh:
            for line in self.rejects:
                fh.write(line + "\n")
        with open(os.path.join(self.out_dir, "audit.json"), "w", encoding="utf-8") as fh:
            json.dump(self.audit, fh, indent=2)

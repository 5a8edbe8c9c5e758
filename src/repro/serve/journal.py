"""The JSONL journal behind ``--journal`` and ``--coordinator-journal``.

Both the job manager and the coordinator record lifecycle transitions
as one JSON object per line, appended under the same advisory file lock
the result store uses, and read them back after a restart.  A journal
is restart visibility, never correctness: an unwritable path (read-only
file, directory in the way, full disk) warns once and disables the
journal, and a torn line (a writer killed mid-append) is skipped on
read, with the same tolerance as the store.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Iterator, Optional

from repro.exp.locking import file_lock
from repro.obs.log import get_logger

log = get_logger("serve.journal")


class Journal:
    """Append-only JSONL records at ``path`` (None = journaling off)."""

    def __init__(self, path: Optional[str], label: str) -> None:
        self.path = path
        self.label = label  # names the journal in the disable warning
        self._disabled = path is None

    def append(self, record: Dict[str, Any]) -> None:
        """Append ``record`` with a ``ts`` stamp; never raises ``OSError``."""
        if self._disabled:
            return
        line = json.dumps({"ts": time.time(), **record}, sort_keys=True) + "\n"
        try:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            with file_lock(self.path + ".lock"):
                with open(self.path, "a") as handle:
                    handle.write(line)
        except OSError as error:
            self._disabled = True
            log.warning(f"{self.label} journal disabled", error=str(error))

    def records(self) -> Iterator[Dict[str, Any]]:
        """Every well-formed record in file order; torn lines are skipped.

        A missing or unreadable journal has no records, which is not an
        error: there is simply no history to restore.
        """
        if self.path is None:
            return
        try:
            handle = open(self.path)
        except OSError:
            return
        with handle:
            for line in handle:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict) and "event" in record:
                    yield record


__all__ = ["Journal"]

"""Opening one sqlite file from many processes at once.

The work queue, the result store and the span table are files whole
fleets open together, often while they are still new.  Some lock
conflicts then return at once instead of waiting out the busy timeout
(sqlite refuses to wait where waiting could deadlock, and a
journal-mode switch needs the file to itself); a short bounded retry
absorbs them.
"""

from __future__ import annotations

import sqlite3
import time

#: Attempts, and the backoff step between them, before a lock conflict
#: is raised.
LOCK_RETRIES = 5
LOCK_BACKOFF = 0.05


def retry_locked(fn):
    """Call *fn*, retrying with backoff while the database is locked."""
    for attempt in range(LOCK_RETRIES):
        try:
            return fn()
        except sqlite3.OperationalError:
            if attempt == LOCK_RETRIES - 1:
                raise
            time.sleep(LOCK_BACKOFF * (attempt + 1))


def open_schema(conn: sqlite3.Connection, schema: str) -> None:
    """Switch *conn*'s file to WAL unless it already is (most opens),
    then run the *schema* script, each step under :func:`retry_locked`.

    An in-memory database keeps its ``memory`` journal mode.
    """

    def enable_wal() -> None:
        if conn.execute("PRAGMA journal_mode").fetchone()[0] != "wal":
            conn.execute("PRAGMA journal_mode = WAL")

    retry_locked(enable_wal)
    retry_locked(lambda: conn.executescript(schema))

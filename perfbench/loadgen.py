"""Closed-loop HTTP load for serve_predict.

Each client thread holds one keep-alive connection and sends its next
``POST /predict`` only after the previous response has been read.
Responses are kept raw and checked after the phase, so checking costs
no client time inside the measurement.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import threading
import time

_nothing = contextlib.nullcontext


class Phase:
    """One load phase: ``clients`` threads cycling through ``payloads``."""

    def __init__(self, port: int, payloads: list[bytes], clients: int) -> None:
        self.port = port
        self.payloads = payloads
        self.clients = clients
        #: (payload index, HTTP status or 0 on a transport error,
        #: raw body, seconds from send to fully-read response, warm-up)
        self.records: list[tuple[int, int, bytes, float, bool]] = []
        self.wall_s = 0.0
        self._lock = threading.Lock()

    def _send(self, conn, idx: int):
        start = time.perf_counter()
        try:
            conn.request(
                "POST", "/predict", self.payloads[idx],
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            raw, status = response.read(), response.status
        except (OSError, http.client.HTTPException):
            conn.close()
            raw, status = b"", 0
        return status, raw, time.perf_counter() - start

    def _client(self, k: int, warmup: int, seconds: float, rec) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        local = []
        i = k
        try:
            for _ in range(warmup):
                idx = i % len(self.payloads)
                local.append((idx, *self._send(conn, idx), True))
                i += self.clients
            self._barrier.wait()
            stop_at = self._start + seconds
            with rec.root(f"client.{k}") if rec else _nothing():
                while time.perf_counter() < stop_at:
                    idx = i % len(self.payloads)
                    with rec.span("request") if rec else _nothing():
                        sent = self._send(conn, idx)
                    local.append((idx, *sent, False))
                    i += self.clients
        finally:
            conn.close()
            with self._lock:
                self.records.extend(local)

    def _mark_start(self) -> None:
        self._start = time.perf_counter()

    def run(self, seconds: float, warmup: int, rec=None) -> None:
        """Send ``warmup`` unmeasured requests per client, then load for
        ``seconds`` from a common start; ``wall_s`` runs from that start
        until the last client's last response."""
        self._barrier = threading.Barrier(self.clients, action=self._mark_start)
        threads = [
            threading.Thread(target=self._client, args=(k, warmup, seconds, rec))
            for k in range(self.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.wall_s = time.perf_counter() - self._start

    def measured(self) -> list[tuple[int, int, bytes, float, bool]]:
        return [r for r in self.records if not r[4]]


def check(records, payload_rows, single, multi) -> tuple[list[str], int]:
    """Every response is 200 and bit-identical to ``predict_labels``.

    The server may coalesce concurrent requests into one model call.  A
    row's labels from a one-row call can differ in the last bit from the
    same row's labels in a call of two or more rows (the forest's mean
    over trees sums in a different order), so each response is compared
    with ``single`` or ``multi`` according to the ``batched_rows`` the
    server reports.  Returns the problems and the number of responses
    whose rows have batch-dependent labels.
    """
    problems = []
    dependent = 0
    for idx, status, raw, _elapsed, _warm in records:
        if status != 200:
            problems.append(f"HTTP {status} for payload {idx}")
            continue
        doc = json.loads(raw)
        got = [
            (p["ipc_per_pe"], p["energy_per_instruction_j"])
            for p in doc["predictions"]
        ]
        rows = payload_rows[idx]
        reference = single if doc["batched_rows"] == 1 else multi
        if got != [reference[r] for r in rows]:
            problems.append(f"payload {idx}: predictions differ")
        if any(single[r] != multi[r] for r in rows):
            dependent += 1
    return problems, dependent


def get_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise OSError(f"GET {path}: HTTP {response.status}")
        return json.loads(body)
    finally:
        conn.close()

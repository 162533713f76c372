"""The serve-* workloads: one ``repro serve`` process and a closed-loop client.

The server runs as its own process in its own session, configured as
``--workers 1 --max-concurrency 1``; this process is the load generator
and is not part of any measurement of the server.  Two client threads
each hold one connection slot and send their next request only after the
previous one has been answered.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import workloads as W
from spans import ROOT, SpanLog

SERVER_ARGS = ("--workers", "1", "--max-concurrency", "1")
CONNECTIONS = 2
QUERY_NAME = "reach"
#: A request unanswered for this long counts as failed.
REQUEST_TIMEOUT = 60.0
#: How long the server and its session may take to exit after SIGINT.
STOP_TIMEOUT = 15.0
#: Mutations drawn per database; the timed phase ends early if it runs out.
MUTATION_CAP = 2000


def _stat_fields(pid: int) -> Optional[List[str]]:
    """``/proc/<pid>/stat`` from field 3 (state) on, or None if gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            text = handle.read()
    except OSError:
        return None
    return text.rsplit(")", 1)[1].split()


def session_members(sid: int) -> List[Tuple[int, int]]:
    """(pid, ppid) of the live processes in session ``sid``.

    Zombies have ended; one left unreaped by an init that does not reap
    is not a running process and is skipped.
    """
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields and int(fields[3]) == sid and fields[0] not in "ZX":
                members.append((int(entry), int(fields[1])))
    return members


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of ``pid`` so far."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """``repro serve`` in its own session, stopped with SIGINT.

    SIGTERM would leave the forkserver and its pool worker running after
    the server exits, so :meth:`stop` interrupts the server and then
    waits until no process of its session is left.
    """

    def __init__(self, root: str, env: Dict[str, str], err_path: str):
        self._err = open(err_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *SERVER_ARGS],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._err,
            start_new_session=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], REQUEST_TIMEOUT)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
        )
        try:
            data = json.dumps(body) if body is not None else None
            conn.request(method, path, body=data)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def workers(self) -> List[int]:
        """Pool worker pids: the session members the server did not
        start itself (those are the forkserver and resource tracker)."""
        server = self.proc.pid
        return [
            pid for pid, ppid in session_members(server)
            if pid != server and ppid != server
        ]

    def stop(self) -> bool:
        """Interrupt the server; True if its whole session then exited."""
        clean = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            clean = False
        deadline = time.monotonic() + STOP_TIMEOUT
        while session_members(self.proc.pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        left = session_members(self.proc.pid)
        if left or not clean:
            clean = False
            for pid, _ in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._err.close()
        return clean


class ServeWorkload:
    """Inputs, references and passes of one serve-* workload run."""

    def __init__(self, workload: str, seed: int, root: str, env: Dict[str, str],
                 out_dir: str, drop_row_op: int = -1):
        self.workload = workload
        self.root = root
        self.env = env
        self.out_dir = out_dir
        self.drop_row_op = drop_row_op
        self.dbs = W.serve_dbs(workload, seed)
        self.encodings = [db.encoding() for db in self.dbs]
        self.initial = [W.digest(db.answer()) for db in self.dbs]
        self.logs = (
            [W.MutationLog(db, seed, MUTATION_CAP) for db in self.dbs]
            if workload == "serve-mutate" else []
        )
        self._servers = 0

    # -- set-up ------------------------------------------------------------

    def setup(self) -> Tuple[Server, float, int]:
        """Start a server, register, prepare and warm every (tenant, db).

        Returns the server, the set-up seconds, and how many warm-up
        calls failed.
        """
        self._servers += 1
        err = os.path.join(
            self.out_dir, f"{self.workload}-server{self._servers}.stderr"
        )
        start = time.perf_counter()
        server = Server(self.root, self.env, err)
        failed = 0
        try:
            for db, encoding in zip(self.dbs, self.encodings):
                status, _ = server.request(
                    "POST", "/register", {"name": db.name, "encoding": encoding}
                )
                failed += status != 200
            status, _ = server.request(
                "POST", "/prepare",
                {"name": QUERY_NAME, "query": W.REACH_QUERY,
                 "output_vars": list(W.REACH_OUT)},
            )
            failed += status != 200
            for i, db in enumerate(self.dbs):
                status, raw = server.request("POST", "/call", self._call_body(i))
                failed += status != 200 or _digest(raw) != self.initial[i]
        except BaseException:
            server.stop()
            raise
        return server, time.perf_counter() - start, failed

    def _call_body(self, i: int, traced: bool = False) -> dict:
        body = {"tenant": f"t{i}", "query": QUERY_NAME, "db": self.dbs[i].name}
        if traced:
            body["trace"] = True
        return body

    # -- timed phase -------------------------------------------------------

    def timed(self, server: Server, seconds: float, traced: bool,
              first_op: int = 0) -> dict:
        """Closed-loop operations for ``seconds`` on two connections.

        Operations are numbered from ``first_op``.  A fresh server starts
        each serve-mutate database at its first mutation again, so
        operation ``first_op + m`` of every pass does the same thing.
        """
        records: List[dict] = []
        ids = itertools.count(1)
        logs = [SpanLog(ids) for _ in range(CONNECTIONS)]
        deadline = time.perf_counter() + seconds
        read_ops = itertools.count(first_op)
        lock = threading.Lock()

        def client(c: int) -> None:
            log = logs[c] if traced else None
            for k in itertools.count():
                if time.perf_counter() >= deadline:
                    return
                if self.workload == "serve-read":
                    with lock:
                        op = next(read_ops)
                    record = self._op(server, op, op % W.SERVE_DBS, None, log)
                else:
                    # connection c owns databases 2c and 2c+1 and alternates
                    i, j = 2 * c + k % 2, k // 2
                    if j >= MUTATION_CAP:
                        return
                    record = self._op(server, first_op + 2 * k + c, i, j, log)
                records.append(record)

        # the measured processes: the server and its pool worker
        workers = [server.proc.pid, *server.workers()]
        gc.collect()
        cpu_before = {pid: cpu_seconds(pid) for pid in workers}
        threads = [
            threading.Thread(target=client, args=(c,), daemon=True)
            for c in range(CONNECTIONS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        cpu = {pid: cpu_seconds(pid) - cpu_before[pid] for pid in workers}
        _, raw = server.request("GET", "/stats")
        records.sort(key=lambda r: r["op"])
        self._check(records)
        server_pid = server.proc.pid
        return {
            "records": records,
            "wall_s": wall,
            "peak_rss_kb": sum(peak_rss_kb(pid) for pid in workers),
            "server_cpu_s": cpu.get(server_pid, 0.0),
            "worker_cpu_s": sum(v for pid, v in cpu.items() if pid != server_pid),
            "stats": json.loads(raw).get("metrics", {}),
            "spans": [span for log in logs for span in log.spans],
        }

    def _op(self, server: Server, op: int, i: int, j: Optional[int],
            log: Optional[SpanLog]) -> dict:
        """One operation on database ``i``: for serve-mutate, mutation
        ``j`` of that database and then a call; for serve-read a call."""
        record = {"op": op, "db": i, "mutation": j, "ok": False,
                  "latency": REQUEST_TIMEOUT}
        mutate_body = None
        if j is not None:
            kind, edge = self.logs[i].ops[j]
            mutate_body = {"db": self.dbs[i].name, "op": kind,
                           "relation": "E", "values": list(edge)}
        call_body = self._call_body(i, traced=log is not None)
        try:
            if log is None:
                t0 = time.perf_counter()
                if mutate_body is not None:
                    m_status, m_raw = server.request("POST", "/mutate", mutate_body)
                t1 = time.perf_counter()
                status, raw = server.request("POST", "/call", call_body)
                t2 = time.perf_counter()
            else:
                with log.span(ROOT, op) as root:
                    if mutate_body is not None:
                        with log.span("database.mutate", op):
                            m_status, m_raw = server.request(
                                "POST", "/mutate", mutate_body
                            )
                    with log.span("serve.call", op) as call:
                        status, raw = server.request("POST", "/call", call_body)
                t0, t2 = root["start"], root["start"] + root["duration"]
                t1 = call["start"]
        except (OSError, http.client.HTTPException) as exc:
            record["error"] = repr(exc)
            return record
        record.update(latency=t2 - t0, mutate=t1 - t0, call=t2 - t1,
                      status=status, response_bytes=len(raw))
        if mutate_body is not None and (
            m_status != 200 or not json.loads(m_raw).get("applied")
        ):
            record["error"] = f"mutate returned {m_status}: {m_raw[:200]!r}"
            return record
        if status != 200:
            record["error"] = f"call returned {status}: {raw[:200]!r}"
            return record
        body = json.loads(raw)
        rows = sorted(tuple(row) for row in body["rows"])
        if op == self.drop_row_op:
            rows = rows[1:]
        record.update(digest=W.digest(rows), queue_wait=body["queue_wait"],
                      seconds=body["seconds"], peak_rows=body["peak_rows"])
        if log is not None:
            start = t1 + body["queue_wait"]
            log.add("serve.queue_wait", op, t1, body["queue_wait"], call["span_id"])
            service = log.add("serve.service", op, start, body["seconds"],
                              call["span_id"])
            log.graft(body.get("trace", []), service["span_id"], start, op)
        return record

    def _check(self, records: List[dict]) -> None:
        """Mark each answered record ok iff its answer digest equals the
        reference's; serve-mutate's references replay the mutation logs."""
        expected: Dict[Tuple[int, int], str] = {}
        for i, log in enumerate(self.logs):
            done = [r["mutation"] for r in records if r["db"] == i]
            if done:
                for j, rows in enumerate(log.answers(max(done) + 1)):
                    expected[i, j] = W.digest(rows)
        for record in records:
            if "digest" not in record:
                continue
            key = (record["db"], record["mutation"])
            want = expected[key] if self.logs else self.initial[record["db"]]
            record["ok"] = record["digest"] == want
            if not record["ok"]:
                record["error"] = "answer differs from the reference"

    # -- traced-run extras -------------------------------------------------

    def payload_kb(self) -> float:
        """Median size of the pickled worker payload over the databases."""
        import pickle

        src = os.path.join(self.root, "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        from repro.database.encoding import decode_database
        from repro.logic.parser import parse_formula
        from repro.serve.workers import build_payload

        formula = parse_formula(W.REACH_QUERY)
        sizes = sorted(
            len(pickle.dumps(build_payload(
                formula, decode_database(encoding), W.REACH_OUT, cache=True
            ))) / 1024
            for encoding in self.encodings
        )
        return statistics.median(sizes)


def _digest(raw: bytes) -> str:
    """The answer digest of a ``/call`` response body ("" if malformed)."""
    try:
        return W.digest(sorted(tuple(row) for row in json.loads(raw)["rows"]))
    except (ValueError, KeyError, TypeError):
        return ""

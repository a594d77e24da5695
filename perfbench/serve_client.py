"""Closed-loop load generator for the serve-repeat workload.

Runs in its own process, so the clients do not compete with the server for
the interpreter lock.  Reads one JSON job from stdin::

    {"port": 8080, "payloads": ["{...}", ...], "seed": 0, "seconds": 20,
     "clients": 2}

and starts ``clients`` threads, each with one keep-alive connection.  A
client sends its next request as soon as the previous response arrives
(closed loop), drawing specs from its seeded stream, until ``seconds`` have
passed.  Prints one JSON summary: client-side latencies of the successful
requests, failures with their cause, and the canonical record served for
each distinct spec.  Two responses for the same spec that differ count as a
failure of the later one.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from seeds import request_stream  # noqa: E402


def client(
    index: int, job: Dict[str, Any], deadline: float, lock: threading.Lock, out: Dict[str, Any]
) -> None:
    payloads = job["payloads"]
    stream = request_stream(job["seed"], index, len(payloads))
    connection = http.client.HTTPConnection("127.0.0.1", job["port"], timeout=300.0)
    latencies: List[float] = []
    sequence = 0
    try:
        while time.perf_counter() < deadline:
            spec_index = next(stream)
            # Payloads are JSON objects: splice the request id in up front.
            body = f'{{"id": "{index}-{sequence}", {payloads[spec_index][1:]}'.encode("utf-8")
            sequence += 1
            with lock:
                out["attempted"] += 1
            started = time.perf_counter()
            try:
                connection.request("POST", "/plan", body, {"Content-Type": "application/json"})
                response = json.loads(connection.getresponse().read())
            except (OSError, http.client.HTTPException, ValueError) as error:
                with lock:
                    out["failures"].append(f"{type(error).__name__}: {error}")
                connection.close()
                connection = http.client.HTTPConnection("127.0.0.1", job["port"], timeout=300.0)
                continue
            elapsed = time.perf_counter() - started
            if response.get("status") != "ok":
                with lock:
                    out["failures"].append(
                        f"{response.get('error')}: {response.get('message')}"
                    )
                continue
            record = json.dumps(response["record"], sort_keys=True)
            key = str(spec_index)
            with lock:
                first = out["records"].setdefault(key, record)
                if first != record:
                    out["failures"].append(f"spec {key}: record differs between responses")
                    continue
                out["ok"] += 1
                out["ok_per_spec"][key] = out["ok_per_spec"].get(key, 0) + 1
            latencies.append(elapsed)
    finally:
        connection.close()
        with lock:
            out["latencies"].extend(latencies)


def main() -> int:
    job = json.load(sys.stdin)
    out: Dict[str, Any] = {
        "attempted": 0,
        "ok": 0,
        "failures": [],
        "records": {},
        "ok_per_spec": {},
        "latencies": [],
    }
    lock = threading.Lock()
    started = time.perf_counter()
    deadline = started + float(job["seconds"])
    threads = [
        threading.Thread(target=client, args=(index, job, deadline, lock, out))
        for index in range(int(job["clients"]))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out["elapsed_s"] = time.perf_counter() - started
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

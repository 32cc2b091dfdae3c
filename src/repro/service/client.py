"""Stdlib HTTP client for the job service (used by the CLI and tests).

Thin ``urllib`` wrapper: methods mirror the API routes one-to-one and
return parsed JSON documents.  HTTP error responses carrying a JSON
``{"error": ...}`` body are raised as :class:`ServiceAPIError` with the
server's message and status code, so callers see the server's diagnosis
rather than a bare ``HTTPError``.

Robustness discipline
---------------------
Every request carries a per-request socket ``timeout`` so a hung server
cannot hang the client.  Connection-level failures (refused, reset,
timed out — the server never saw or never answered the request) are
retried with bounded exponential backoff, **but only for GETs**: a GET
here is idempotent, while retrying a ``POST /jobs`` whose response was
lost could submit the job twice.  After the retry budget the failure
surfaces as :class:`ServiceConnectionError` (an ``OSError``, so callers
that already catch connection errors keep working).  Server-answered
errors (:class:`ServiceAPIError`) are never retried — the server made a
deterministic decision — with one exception: **429 backpressure** is an
explicit "come back later", so submits honour the server's
``Retry-After`` up to ``backpressure_retries`` times before surfacing
the 429 (content-addressed job ids make the re-submit safe).

Multi-tenancy: pass ``api_key`` and every request carries it as a
Bearer token.  SSE: :meth:`stream_events` consumes
``GET /jobs/<id>/events/stream`` incrementally.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from typing import Dict, Iterator, List, Optional

from .jobspec import JobSpec


class ServiceAPIError(RuntimeError):
    """The server answered with an error status.

    ``retry_after`` carries the parsed ``Retry-After`` header (seconds)
    when the server sent one — 429 backpressure answers do.
    """

    def __init__(self, code: int, message: str,
                 retry_after: Optional[int] = None) -> None:
        super().__init__(f"HTTP {code}: {message}")
        self.code = code
        self.message = message
        self.retry_after = retry_after


class ServiceConnectionError(OSError):
    """The server could not be reached (after any retries).

    Subclasses :class:`OSError` so generic connection-error handling
    catches it without knowing this module.
    """

    def __init__(self, message: str, attempts: int) -> None:
        super().__init__(message)
        self.attempts = attempts


class ServiceClient:
    """Client for one service base URL (e.g. ``http://127.0.0.1:8734``).

    Parameters
    ----------
    timeout:
        Per-request socket timeout in seconds.
    retries:
        Extra attempts granted to *idempotent* (GET) requests that fail
        at the connection level.  POSTs are never retried here.
    backoff:
        Sleep before the first retry; doubles per subsequent retry.
    api_key:
        Tenant API key; sent as ``Authorization: Bearer <key>`` on
        every request (required when the server runs with a tenants
        file).
    backpressure_retries:
        How many times a 429-answered submit is re-tried after sleeping
        the server's ``Retry-After``.  0 surfaces every 429 directly.
    """

    #: Exceptions that mean "the connection failed" rather than "the
    #: server answered an error" (HTTPError subclasses OSError via
    #: URLError, so it must be handled first — see :meth:`_request`).
    CONNECTION_ERRORS = (OSError, http.client.HTTPException)

    def __init__(self, base_url: str, timeout: float = 60.0,
                 retries: int = 2, backoff: float = 0.2,
                 api_key: Optional[str] = None,
                 backpressure_retries: int = 0) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backpressure_retries < 0:
            raise ValueError(f"backpressure_retries must be >= 0, "
                             f"got {backpressure_retries}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.api_key = api_key
        self.backpressure_retries = backpressure_retries
        self._sleep = time.sleep  # test seam

    def _headers(self, body: Optional[object]) -> Dict[str, str]:
        headers = {"Accept": "application/json"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        if self.api_key is not None:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return headers

    def _request(self, method: str, path: str,
                 body: Optional[object] = None) -> object:
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
        headers = self._headers(body)
        attempts = 1 + (self.retries if method == "GET" else 0)
        last_exc: Optional[BaseException] = None
        for attempt in range(attempts):
            if attempt:
                self._sleep(self.backoff * (2 ** (attempt - 1)))
            req = urllib.request.Request(
                self.base_url + path, data=data, headers=headers,
                method=method,
            )
            try:
                with urllib.request.urlopen(
                        req, timeout=self.timeout) as resp:
                    return json.loads(resp.read().decode("utf-8"))
            except urllib.error.HTTPError as exc:
                # The server answered: deterministic, never retried here
                # (429s are handled one level up, in _submit_retrying).
                raw = exc.read().decode("utf-8", errors="replace")
                try:
                    message = json.loads(raw).get("error", raw)
                except json.JSONDecodeError:
                    message = raw or exc.reason
                retry_after = None
                header = exc.headers.get("Retry-After") if exc.headers \
                    else None
                if header is not None:
                    try:
                        retry_after = max(0, int(header))
                    except ValueError:
                        retry_after = None
                raise ServiceAPIError(exc.code, message,
                                      retry_after=retry_after) from None
            except self.CONNECTION_ERRORS as exc:
                last_exc = exc
        raise ServiceConnectionError(
            f"{method} {self.base_url}{path} failed after {attempts} "
            f"attempt(s): {last_exc}", attempts,
        ) from last_exc

    def _submit_retrying(self, path: str, body: object) -> object:
        """POST with 429-aware retries: sleep the server's
        ``Retry-After`` and re-submit (safe — job ids are content
        hashes, so a duplicate submit dedups server-side)."""
        for attempt in range(self.backpressure_retries + 1):
            try:
                return self._request("POST", path, body=body)
            except ServiceAPIError as exc:
                if (exc.code != 429
                        or attempt >= self.backpressure_retries):
                    raise
                self._sleep(exc.retry_after
                            if exc.retry_after is not None else 1)
        raise AssertionError("unreachable")  # pragma: no cover

    # -- routes --------------------------------------------------------- #

    def submit(self, spec: JobSpec) -> Dict[str, object]:
        """``POST /jobs`` — returns ``{"id", "state", "created"}``."""
        return self._submit_retrying("/jobs", spec.to_doc())

    def submit_doc(self, doc: Dict[str, object]) -> Dict[str, object]:
        """``POST /jobs`` with a raw spec document."""
        return self._submit_retrying("/jobs", doc)

    def submit_batch(self, specs: List[JobSpec]) -> List[Dict[str, object]]:
        """``POST /jobs/batch`` — admit many specs atomically.

        Returns one ``{"id", "state", "created"}`` row per spec in
        request order.  The whole batch is admitted or rejected (a 429
        means *no* spec was admitted); honours ``backpressure_retries``.
        """
        doc = {"specs": [spec.to_doc() for spec in specs]}
        return self._submit_retrying("/jobs/batch", doc)["jobs"]

    def submit_batch_docs(self, docs: List[Dict[str, object]]
                          ) -> List[Dict[str, object]]:
        """``POST /jobs/batch`` with raw spec documents."""
        return self._submit_retrying("/jobs/batch", {"specs": docs})["jobs"]

    def jobs(self, state: Optional[str] = None,
             tenant: Optional[str] = None,
             limit: Optional[int] = None,
             offset: int = 0) -> List[Dict[str, object]]:
        """``GET /jobs`` — filtered listing from the server's index."""
        params = []
        if state is not None:
            params.append(f"state={state}")
        if tenant is not None:
            params.append(f"tenant={tenant}")
        if limit is not None:
            params.append(f"limit={limit}")
        if offset:
            params.append(f"offset={offset}")
        query = ("?" + "&".join(params)) if params else ""
        return self._request("GET", "/jobs" + query)["jobs"]

    def job(self, job_id: str) -> Dict[str, object]:
        """``GET /jobs/<id>``."""
        return self._request("GET", f"/jobs/{job_id}")

    def events(self, job_id: str, after: int = 0,
               wait: float = 0.0) -> Dict[str, object]:
        """``GET /jobs/<id>/events`` (long-polls when ``wait > 0``)."""
        return self._request(
            "GET", f"/jobs/{job_id}/events?after={after}&wait={wait}",
        )

    def report(self, job_id: str) -> Dict[str, object]:
        """``GET /jobs/<id>/report``."""
        return self._request("GET", f"/jobs/{job_id}/report")

    def result(self, job_id: str) -> Dict[str, object]:
        """``GET /jobs/<id>/result`` — the result netlist document."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def metrics(self) -> Dict[str, object]:
        """``GET /metrics``."""
        return self._request("GET", "/metrics")

    # -- sweeps ---------------------------------------------------------- #

    def submit_sweep(self, spec_doc: Dict[str, object]
                     ) -> Dict[str, object]:
        """``POST /sweeps`` — submit a sweep grid document.

        Returns ``{"id", "state", "cells", "created"}``; honours
        ``backpressure_retries`` (admission is all-or-nothing, and
        sweep ids are content hashes, so a re-submit dedups).
        """
        return self._submit_retrying("/sweeps", spec_doc)

    def sweeps(self) -> List[Dict[str, object]]:
        """``GET /sweeps`` — compact sweep listing rows."""
        return self._request("GET", "/sweeps")["sweeps"]

    def sweep(self, sweep_id: str) -> Dict[str, object]:
        """``GET /sweeps/<id>`` — state + per-cell state counts."""
        return self._request("GET", f"/sweeps/{sweep_id}")

    def sweep_report(self, sweep_id: str) -> Dict[str, object]:
        """``GET /sweeps/<id>/report`` — rows + Pareto front (404
        until every cell has succeeded)."""
        return self._request("GET", f"/sweeps/{sweep_id}/report")

    def sweep_events(self, sweep_id: str, after: int = 0,
                     wait: float = 0.0) -> Dict[str, object]:
        """``GET /sweeps/<id>/events`` (long-polls when ``wait > 0``)."""
        return self._request(
            "GET", f"/sweeps/{sweep_id}/events?after={after}&wait={wait}")

    def sweep_wait(self, sweep_id: str, timeout: float = 600.0,
                   poll: float = 0.5) -> Dict[str, object]:
        """Block (long-polling sweep events) until the sweep is
        terminal; returns the final sweep view."""
        deadline = time.time() + timeout
        after = 0
        while time.time() < deadline:
            chunk = self.sweep_events(sweep_id, after=after,
                                      wait=min(poll * 10, 5.0))
            after = chunk["next_after"]
            if chunk["state"] in ("succeeded", "failed"):
                return self.sweep(sweep_id)
        raise TimeoutError(
            f"sweep {sweep_id} not terminal within {timeout:g}s")

    def jobs_summary(self) -> Dict[str, object]:
        """``GET /jobs/summary`` — per-tenant x per-state counts."""
        return self._request("GET", "/jobs/summary")

    # -- streaming ------------------------------------------------------- #

    def stream_events(self, job_id: str, after: int = 0,
                      ) -> Iterator[Dict[str, object]]:
        """Consume ``GET /jobs/<id>/events/stream`` (SSE) incrementally.

        Yields each event document as the server sends it, beginning
        with the backlog after sequence number *after*; finishes (the
        iterator is exhausted) when the server closes the stream on a
        terminal job state.  Keepalive comments are filtered out.  The
        final ``end`` frame is yielded too, as ``{"type": "end",
        "state": ...}`` — it carries no ``seq``.

        On a dropped connection the last yielded event's ``seq`` is the
        resume cursor: call again with ``after=seq``.
        """
        req = urllib.request.Request(
            self.base_url + f"/jobs/{job_id}/events/stream?after={after}",
            headers=self._headers(None), method="GET",
        )
        try:
            resp = urllib.request.urlopen(req, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            raw = exc.read().decode("utf-8", errors="replace")
            try:
                message = json.loads(raw).get("error", raw)
            except json.JSONDecodeError:
                message = raw or exc.reason
            raise ServiceAPIError(exc.code, message) from None
        with resp:
            event_type: Optional[str] = None
            data_lines: List[str] = []
            for raw_line in resp:
                line = raw_line.decode("utf-8").rstrip("\r\n")
                if line.startswith(":"):
                    continue  # keepalive comment
                if line.startswith("event:"):
                    event_type = line[6:].strip()
                elif line.startswith("data:"):
                    data_lines.append(line[5:].strip())
                elif not line:
                    if data_lines:
                        doc = json.loads("\n".join(data_lines))
                        if event_type == "end":
                            yield {"type": "end",
                                   "state": doc.get("state")}
                            return
                        yield doc
                    event_type = None
                    data_lines = []

    # -- conveniences --------------------------------------------------- #

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.5) -> Dict[str, object]:
        """Block (long-polling events) until the job is terminal.

        Returns the final job view; raises :class:`TimeoutError` when
        the budget runs out first.
        """
        deadline = time.time() + timeout
        after = 0
        while time.time() < deadline:
            chunk = self.events(job_id, after=after,
                                wait=min(poll * 10, 5.0))
            after = chunk["next_after"]
            if chunk["state"] in ("succeeded", "failed"):
                return self.job(job_id)
        raise TimeoutError(
            f"job {job_id} not terminal within {timeout:g}s"
        )

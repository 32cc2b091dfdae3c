"""ServiceClient robustness: timeouts, bounded GET retries, error taxonomy.

The contract: connection-level failures retry with exponential backoff
for GETs only (idempotent); POSTs fail fast (a lost response could
mean a duplicate submission); server-answered errors are deterministic
and never retried.  The retry budget exhausts into
:class:`ServiceConnectionError` — an ``OSError`` subclass so generic
connection handling catches it.
"""

import socket

import pytest

from repro.service import (
    ArtifactStore,
    ServiceAPIError,
    ServiceClient,
    ServiceConnectionError,
    ServiceServer,
)


def refused_url():
    """A URL on a port that nothing listens on."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return f"http://127.0.0.1:{port}"


def recording_client(**kw):
    client = ServiceClient(refused_url(), timeout=0.5, backoff=0.01, **kw)
    sleeps = []
    client._sleep = sleeps.append
    return client, sleeps


class TestConnectionRetries:
    def test_get_retries_with_exponential_backoff(self):
        client, sleeps = recording_client(retries=2)
        with pytest.raises(ServiceConnectionError) as err:
            client.jobs()
        assert err.value.attempts == 3
        assert sleeps == [0.01, 0.02]
        assert "failed after 3 attempt(s)" in str(err.value)
        assert isinstance(err.value.__cause__, OSError)

    def test_zero_retries_is_one_attempt(self):
        client, sleeps = recording_client(retries=0)
        with pytest.raises(ServiceConnectionError) as err:
            client.jobs()
        assert err.value.attempts == 1
        assert sleeps == []

    def test_post_is_never_retried(self):
        client, sleeps = recording_client(retries=5)
        with pytest.raises(ServiceConnectionError) as err:
            client.submit_batch_docs([])
        assert err.value.attempts == 1
        assert sleeps == []

    def test_connection_error_is_an_oserror(self):
        client, _sleeps = recording_client(retries=0)
        with pytest.raises(OSError):
            client.jobs()


class TestServerAnsweredErrors:
    def test_api_error_is_not_retried(self, tmp_path):
        server = ServiceServer(ArtifactStore(str(tmp_path / "store")))
        server.start()
        try:
            client = ServiceClient(server.url, timeout=10.0, retries=5)
            sleeps = []
            client._sleep = sleeps.append
            with pytest.raises(ServiceAPIError) as err:
                client.job("no-such-job")
            assert err.value.code == 404
            assert sleeps == []  # deterministic answer, no retry
        finally:
            server.stop()


class TestValidation:
    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError):
            ServiceClient("http://x", timeout=0)

    def test_retries_must_be_non_negative(self):
        with pytest.raises(ValueError):
            ServiceClient("http://x", retries=-1)

import pytest

from eventstruct import order_enum


@pytest.fixture(scope="session")
def preorders_six():
    """Every preorder on 6 events, as rows: 209,527 of them, streamed once per session."""
    return list(order_enum._rows_stream(6))


@pytest.fixture
def order_six_listed(preorders_six, monkeypatch):
    """order_enum._rows_stream(6) reads preorders_six instead of extending order 5 again.

    Only for tests that read the order-6 stream, through count_preorders
    and count_posets; other orders stream as before.
    """
    stream = order_enum._rows_stream

    def rows_stream(n):
        return iter(preorders_six) if n == 6 else stream(n)

    monkeypatch.setattr(order_enum, "_rows_stream", rows_stream)

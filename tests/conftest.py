"""Test-session hooks shared by every test module."""


def pytest_collection_modifyitems(items):
    """Run the ``slow`` tests after all others, in collection order.

    The quick tests then report within a minute, and a run stopped by a time
    limit loses the fewest results. Nothing is deselected.
    """
    items.sort(key=lambda item: item.get_closest_marker("slow") is not None)

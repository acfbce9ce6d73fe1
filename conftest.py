"""Repository-root pytest configuration.

Ensures the src layout is importable even when the package has not
been pip-installed (e.g. offline environments without the `wheel`
package, where PEP 660 editable installs cannot be built).

It also registers the two hypothesis profiles:

* ``tier1`` (the default): every property test draws the same examples
  on every run (``derandomize=True``), with each test's example count
  as written. A tier-1 result is a function of the tree.
* ``search``: random examples, ten times each test's count. Select it
  with ``--hypothesis-profile=search`` and fix the draw with
  ``--hypothesis-seed=N`` (CI's ``search`` job prints the seed it
  drew, so any failure it finds can be replayed).
"""

import pathlib
import sys

try:
    from hypothesis import settings
except ImportError:  # CI jobs that run no property test skip installing it
    settings = None

_SRC = str(pathlib.Path(__file__).parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: How many times each test's own example count ``search`` draws.
SEARCH_FACTOR = 10

if settings is not None:
    settings.register_profile("tier1", derandomize=True)
    settings.register_profile("search", derandomize=False, print_blob=True)
    settings.load_profile("tier1")


def pytest_collection_modifyitems(config, items):
    """Under ``search``, scale every property test's example count.

    A test's ``@settings(max_examples=N)`` overrides any profile, so
    the count is scaled on the test itself, once per function (a
    parametrized test is one function behind several items).
    """
    if settings is None or settings.get_current_profile_name() != "search":
        return
    scaled = set()
    for item in items:
        test = getattr(item, "function", None)
        if not getattr(test, "is_hypothesis_test", False) \
                or id(test) in scaled:
            continue
        scaled.add(id(test))
        own = test._hypothesis_internal_use_settings
        test._hypothesis_internal_use_settings = settings(
            own, max_examples=own.max_examples * SEARCH_FACTOR)

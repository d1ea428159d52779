"""``python -m grasskit`` and the ``grasskit`` console script.

Runs :mod:`grasskit.cli` as ``__main__``, as ``python -m grasskit.cli``
does, so that ``validate`` checks a config without importing numpy or any
numerical layer; importing ``grasskit.cli`` by name would load them all.
"""

import runpy


def main() -> None:
    # alter_sys: pickled work units name the running cli module as __main__
    runpy.run_module("grasskit.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()

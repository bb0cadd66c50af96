"""Print the seconds from before `import relplasma` until the CLI parser exists.

Run in a fresh interpreter so that nothing is imported yet:

    PYTHONPATH=src python3 perfbench/setup_probe.py
"""
from time import perf_counter

t0 = perf_counter()
import relplasma.cli  # noqa: E402

relplasma.cli.build_parser()
print(repr(perf_counter() - t0))

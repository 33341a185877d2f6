"""Fixed reference work that measures how fast the machine is right now.

On a shared virtual machine the speed of pure-Python work can drift by up
to 2x within seconds to minutes, and the cost of creating a small file by
more than 10x (seen on a 2-vCPU VM), moving every raw time with it.  The
benchmark therefore times fixed pieces of work beside the measured ones and
scales the measured process CPU time to a fixed nominal speed:

* ``cpu_reference`` times interpreter-bound work that does not touch the
  package and holds little memory;
* ``file_reference`` times writing a fixed number of small files, the way
  the generators write their documents.

Both are timed with ``time.process_time``, the clock the measured CPU time
is read from.
"""

from __future__ import annotations

import contextlib
import gc
import pathlib
import time

CPU_NOMINAL_S = 0.02
FILE_REF_FILES = 200
FILE_NOMINAL_S = 0.02  # for FILE_REF_FILES files
_FILE_TEXT = '@prefix ex: <http://example.org/> .\nex:s ex:year "1999" ;\n  ex:label "subject" .\n'


def _cpu_work() -> float:
    # Two kinds of interpreter work in about equal time: building and
    # sorting small dicts of strings, and calls doing float arithmetic.
    # Together they tracked the operations' speed better than either alone.
    total = 0
    for i in range(1500):
        row = {f"k{j}": (i, j) for j in range(12)}
        total += len(sorted(row, reverse=i % 2 == 0))

    def step(x: float, y: float) -> float:
        return x * 0.5 + y - x / (y + 1.0)

    value = 0.0
    for i in range(40000):
        value = step(value, i) % 1000.0
    return total + value


def cpu_reference() -> float:
    gc.collect()
    t0 = time.process_time()
    _cpu_work()
    return time.process_time() - t0


def file_reference(directory: pathlib.Path) -> float:
    """Write FILE_REF_FILES small files into a new ``directory``; the
    caller removes it."""
    directory.mkdir()
    t0 = time.process_time()
    for i in range(FILE_REF_FILES):
        (directory / f"f{i}.ttl").write_text(_FILE_TEXT, encoding="utf-8")
    return time.process_time() - t0


@contextlib.contextmanager
def metered_writes():
    """Count the process CPU time spent in ``Path.write_text`` and
    ``Path.mkdir`` while entered; yields a dict whose ``"cpu"`` holds it."""
    meter = {"cpu": 0.0}
    originals = {name: getattr(pathlib.Path, name) for name in ("write_text", "mkdir")}

    def metered(original):
        def method(self, *args, **kwargs):
            t0 = time.process_time()
            try:
                return original(self, *args, **kwargs)
            finally:
                meter["cpu"] += time.process_time() - t0

        return method

    for name, original in originals.items():
        setattr(pathlib.Path, name, metered(original))
    try:
        yield meter
    finally:
        for name, original in originals.items():
            setattr(pathlib.Path, name, original)

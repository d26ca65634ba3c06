"""One set-up: import the program and calibrate every chip.

Run by ``run.py`` in a fresh interpreter whose ``HBMSIM_CACHE_DIR`` is
an empty directory, so ``all_chips()`` calibrates from scratch and
leaves that directory a warm calibration cache.  Prints one JSON line:
import and calibration seconds, plus the interpreter and numpy
versions the run used.
"""

import json
import platform
import time

start = time.perf_counter()
import numpy  # noqa: E402
import repro.experiments.registry  # noqa: E402,F401  (the CLI's imports)
from repro.chips.profiles import all_chips  # noqa: E402

imported = time.perf_counter()
all_chips()
calibrated = time.perf_counter()
print(json.dumps({"import_s": imported - start,
                  "calibrate_s": calibrated - imported,
                  "python": platform.python_version(),
                  "numpy": numpy.__version__}))

"""Settings for the test process."""

import os

# Test modules import NumPy before warpdirac, so the package's own pin comes
# too late: without this, NumPy's OpenBLAS starts one thread per core while
# every CLI process runs one, and the suite spends CPU time on thread spin.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
